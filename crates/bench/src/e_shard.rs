//! Experiment E20: sharded multi-group throughput with one shared Ω.
//!
//! E19 scaled the *single* log's steady state with batching and
//! pipelining; E20 removes the last serialization point by partitioning
//! the keyspace into `S` independent shard groups
//! ([`consensus::shard`]) and measures two claims at once:
//!
//! 1. **Near-linear throughput scaling** — every group is pinned to the
//!    strict `(max_batch = 1, pipeline_depth = 1)` baseline, so one group
//!    commits exactly one command per round trip and `S` groups commit
//!    `S` in parallel. The gate: netsim throughput at `S = 4` must be
//!    ≥ 2.5× the `S = 1` baseline.
//! 2. **Election traffic independent of `S`** — each node runs **one**
//!    shared Ω feeding leadership to all co-located groups, so the
//!    per-run `ALIVE`/`ACCUSE` message counts (netsim's deterministic
//!    kind counters) must stay flat (within 10%) as `S` grows 1 → 8. A
//!    naive per-shard Ω would multiply them by `S`.
//!
//! Commands are routed round-robin over the shards (the kvstore layer
//! routes by key hash; round-robin is the same uniform offered load
//! without dragging the kv dependency into the bench crate). Per-shard
//! commit latencies and decided-slot counts are recorded into one
//! [`Registry`] **per shard** and composed into the shared registry via
//! [`lls_obs::aggregate_shard_registries`] — the same `shard{id}_`-prefix
//! scheme the wirenet scrape endpoint serves — so `BENCH_E20.json`
//! carries the per-shard breakdown next to the cross-shard sums.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant as StdInstant};

use consensus::shard::{
    classify_shard_msg, PlacementManager, PlacementMap, ShardEvent, ShardId, ShardRequest,
    ShardedNode,
};
use consensus::{BatchParams, ConsensusParams};
use lls_obs::{aggregate_shard_registries, NodeRecorders, Registry};
use lls_primitives::{Duration, Instant, ProcessId};
use netsim::{SimBuilder, Topology};
use threadnet::{Cluster, NetConfig};
use wirenet::{BackoffConfig, WireCluster, WireConfig};

use crate::e_chaos::await_unanimity;
use crate::json::JsonValue;
use crate::percentile;
use crate::table::Table;

/// The measured shard counts, always starting at the unsharded baseline.
const SHARD_COUNTS: &[u32] = &[1, 2, 4, 8];

/// The acceptance threshold: netsim throughput at `S = 4` over `S = 1`.
const SCALING_GATE: f64 = 2.5;

/// Allowed relative drift of the Ω message counters across shard counts.
const OMEGA_FLATNESS: f64 = 0.10;

/// One substrate × shard-count measurement.
struct ShardRow {
    substrate: &'static str,
    shards: u32,
    /// Commands offered (round-robin over the shards).
    commands: u64,
    /// Commands committed at the leader before the deadline.
    committed: u64,
    /// Decided commands per shard, in shard order.
    per_shard: Vec<u64>,
    /// Committed commands per unit of `unit`.
    throughput: f64,
    /// `"cmds/ktick"` on netsim, `"cmds/s"` on the wall-clock substrates.
    unit: &'static str,
    /// Issue-to-commit latency percentiles, in `lat_unit`.
    p50: u64,
    p99: u64,
    /// `"ticks"` on netsim, `"us"` on the wall-clock substrates.
    lat_unit: &'static str,
    /// Throughput relative to the same substrate's `S = 1` baseline.
    scaling: f64,
    /// Ω heartbeat messages observed in the run (netsim only; `None` —
    /// unmeasured — on the wall-clock substrates, whose totals are time-
    /// not run-bound).
    omega_alive: Option<u64>,
    /// Ω accusation messages observed in the run (netsim only).
    omega_accuse: Option<u64>,
}

/// Every group pinned to the strict one-command-per-round-trip baseline:
/// the throughput axis under test is the shard count, nothing else.
fn shard_params() -> ConsensusParams {
    ConsensusParams {
        batch: BatchParams {
            max_batch: 1,
            pipeline_depth: 1,
        },
        ..ConsensusParams::default()
    }
}

/// The uniform placement used throughout: every node hosts every shard, so
/// the single shared Ω leader leads all `shards` groups.
fn placement(shards: u32, n: usize) -> PlacementManager {
    PlacementManager::with_all_attached(PlacementMap::uniform(shards, n))
}

/// The round-robin shard of command `i` — E20's stand-in for the kvstore
/// key router (uniform load without the kv dependency).
fn shard_of(i: u64, shards: u32) -> ShardId {
    ShardId((i % u64::from(shards)) as u32)
}

/// Records one run's per-shard latency distributions and decided counts
/// into per-shard registries, composes them with
/// [`aggregate_shard_registries`], folds the result into the shared
/// registry under an `e20_{substrate}_s{S}_` prefix, and returns the
/// overall percentiles.
fn record_sharded_run(
    registry: &Registry,
    substrate: &'static str,
    shards: u32,
    lat_unit: &'static str,
    per_shard_latencies: &BTreeMap<u32, Vec<u64>>,
) -> (u64, u64) {
    let shard_regs: Vec<Registry> = (0..shards).map(|_| Registry::new()).collect();
    let mut all: Vec<u64> = Vec::new();
    for (shard, lats) in per_shard_latencies {
        let reg = &shard_regs[*shard as usize];
        let name = format!("commit_latency_{lat_unit}");
        reg.describe(&name, "E20 issue-to-commit latency within one shard");
        let hist = reg.histogram(&name);
        for &l in lats {
            hist.record(l);
        }
        reg.describe("decided_total", "E20 commands decided by one shard");
        reg.counter("decided_total").add(lats.len() as u64);
        all.extend_from_slice(lats);
    }
    let composed =
        aggregate_shard_registries(shard_regs.iter().enumerate().map(|(i, r)| (i as u32, r)));
    registry.absorb_prefixed(&format!("e20_{substrate}_s{shards}_"), &composed);
    all.sort_unstable();
    if all.is_empty() {
        (0, 0)
    } else {
        (percentile(&all, 50.0), percentile(&all, 99.0))
    }
}

/// Deterministic run: two commands per tick are injected at the
/// established leader, round-robin over the shards; the decided timeline
/// and the Ω message counters are read back from the simulator.
fn netsim_run(n: usize, commands: u64, shards: u32, seed: u64, registry: &Registry) -> ShardRow {
    let recorders = Arc::new(NodeRecorders::new(n, 256));
    let params = shard_params();
    let rec = Arc::clone(&recorders);
    let mut sim = SimBuilder::new(n)
        .seed(seed)
        .topology(Topology::all_timely(n, Duration::from_ticks(2)))
        .classify(classify_shard_msg)
        .build_with(move |env| {
            ShardedNode::<u64, _>::new_with_probe(
                env,
                params,
                placement(shards, n),
                rec.probe_for(env.id()),
            )
        });
    // Let the shared Ω settle and every group establish its ballot.
    let issue_base = 2_000u64;
    sim.run_until(Instant::from_ticks(issue_base));
    let leader = sim.node(ProcessId(0)).omega().leader();
    // Offered load: two commands per tick, spread round-robin. One group
    // at (1,1) commits ~one command per round trip, so the baseline is
    // round-trip-bound while higher shard counts drain in parallel.
    let issue_tick = |i: u64| issue_base + 1 + i / 2;
    for i in 0..commands {
        sim.schedule_request(
            Instant::from_ticks(issue_tick(i)),
            leader,
            ShardRequest {
                shard: shard_of(i, shards),
                cmd: i,
            },
        );
    }
    sim.run_until(Instant::from_ticks(issue_base + commands * 12 + 10_000));
    // Commit times observed at the leader, keyed by command value.
    let mut commit_at: BTreeMap<u64, (u32, u64)> = BTreeMap::new();
    for ev in sim.outputs() {
        if ev.process != leader {
            continue;
        }
        if let ShardEvent::Committed {
            shard,
            cmd: Some(v),
            ..
        } = ev.output
        {
            commit_at.entry(v).or_insert((shard.0, ev.at.ticks()));
        }
    }
    let committed = commit_at.len() as u64;
    let mut per_shard = vec![0u64; shards as usize];
    let mut per_shard_latencies: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for (&v, &(shard, at)) in &commit_at {
        per_shard[shard as usize] += 1;
        per_shard_latencies
            .entry(shard)
            .or_default()
            .push(at.saturating_sub(issue_tick(v)));
    }
    let span = commit_at
        .values()
        .map(|&(_, at)| at)
        .max()
        .map_or(0, |last| last.saturating_sub(issue_base));
    let throughput = if span == 0 {
        0.0
    } else {
        committed as f64 * 1_000.0 / span as f64
    };
    let kinds = sim.stats().kind_counts().clone();
    let (p50, p99) = record_sharded_run(registry, "netsim", shards, "ticks", &per_shard_latencies);
    ShardRow {
        substrate: "netsim",
        shards,
        commands,
        committed,
        per_shard,
        throughput,
        unit: "cmds/ktick",
        p50,
        p99,
        lat_unit: "ticks",
        scaling: 1.0,
        omega_alive: Some(kinds.get("ALIVE").copied().unwrap_or(0)),
        omega_accuse: Some(kinds.get("ACCUSE").copied().unwrap_or(0)),
    }
}

/// Maps a sharded cluster's latest outputs to the leader view
/// [`await_unanimity`] polls: in a request-free warmup the only outputs
/// are the shared Ω's `Leader` announcements.
fn leader_view(latest: Vec<Option<ShardEvent<u64>>>) -> Vec<Option<ProcessId>> {
    latest
        .into_iter()
        .map(|o| match o {
            Some(ShardEvent::Leader(l)) => Some(l),
            _ => None,
        })
        .collect()
}

/// Timeline bookkeeping shared by the wall-clock substrates (same
/// re-anchoring trick as E19, with the shard carried along).
fn wall_latencies(
    outputs: &[(ProcessId, StdDuration, ShardEvent<u64>)],
    leader: ProcessId,
    shards: u32,
    total_wall: StdDuration,
) -> (u64, Vec<u64>, BTreeMap<u32, Vec<u64>>) {
    let mut commit_at: BTreeMap<u64, (u32, StdDuration)> = BTreeMap::new();
    for (p, at, ev) in outputs {
        if *p != leader {
            continue;
        }
        if let ShardEvent::Committed {
            shard,
            cmd: Some(v),
            ..
        } = ev
        {
            commit_at.entry(*v).or_insert((shard.0, *at));
        }
    }
    let committed = commit_at.len() as u64;
    let anchor = commit_at
        .values()
        .map(|&(_, at)| at)
        .max()
        .map_or(StdDuration::ZERO, |last| last.saturating_sub(total_wall));
    let mut per_shard = vec![0u64; shards as usize];
    let mut per_shard_latencies: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for &(shard, at) in commit_at.values() {
        per_shard[shard as usize] += 1;
        per_shard_latencies
            .entry(shard)
            .or_default()
            .push(at.saturating_sub(anchor).as_micros() as u64);
    }
    (committed, per_shard, per_shard_latencies)
}

/// Thread-mesh run: fire the whole round-robin burst at the elected
/// leader, poll the shared output log until every command committed
/// there, then time it.
fn threadnet_run(n: usize, commands: u64, shards: u32, seed: u64, registry: &Registry) -> ShardRow {
    let config = NetConfig {
        n,
        loss: 0.0,
        min_delay: StdDuration::from_micros(100),
        max_delay: StdDuration::from_micros(500),
        tick: StdDuration::from_millis(1),
        seed,
    };
    let params = shard_params();
    let cluster = Cluster::spawn(config, move |env| {
        ShardedNode::<u64>::new(env, params, placement(shards, n))
    });
    let all: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    let leader = await_unanimity(
        || leader_view(cluster.latest_outputs()),
        &all,
        StdDuration::from_secs(10),
    )
    .unwrap_or(ProcessId(0));
    let burst_start = StdInstant::now();
    for i in 0..commands {
        cluster.request(
            leader,
            ShardRequest {
                shard: shard_of(i, shards),
                cmd: i,
            },
        );
    }
    let deadline = StdInstant::now() + StdDuration::from_secs(30);
    loop {
        let done = cluster
            .outputs_so_far()
            .iter()
            .filter(|o| {
                o.process == leader
                    && matches!(o.output, ShardEvent::Committed { cmd: Some(_), .. })
            })
            .count() as u64;
        if done >= commands || StdInstant::now() > deadline {
            break;
        }
        std::thread::sleep(StdDuration::from_millis(1));
    }
    let total_wall = burst_start.elapsed();
    let report = cluster.stop();
    let outputs: Vec<(ProcessId, StdDuration, ShardEvent<u64>)> = report
        .outputs
        .iter()
        .map(|o| (o.process, o.at, o.output.clone()))
        .collect();
    let (committed, per_shard, per_shard_latencies) =
        wall_latencies(&outputs, leader, shards, total_wall);
    let throughput = committed as f64 / total_wall.as_secs_f64().max(f64::EPSILON);
    let (p50, p99) = record_sharded_run(registry, "threadnet", shards, "us", &per_shard_latencies);
    ShardRow {
        substrate: "threadnet",
        shards,
        commands,
        committed,
        per_shard,
        throughput,
        unit: "cmds/s",
        p50,
        p99,
        lat_unit: "us",
        scaling: 1.0,
        omega_alive: None,
        omega_accuse: None,
    }
}

/// TCP run: same shape as threadnet, except the socket substrate exposes
/// only each node's *latest* output live, and commits interleave across
/// shards — so completion is detected by quiescence (the leader's newest
/// output stops changing), bounded by the deadline, and the exact
/// committed count comes from the stop report.
fn wirenet_run(n: usize, commands: u64, shards: u32, registry: &Registry) -> ShardRow {
    let config = WireConfig {
        n,
        tick: StdDuration::from_millis(1),
        queue_capacity: 1024,
        backoff: BackoffConfig::default(),
        faults: None,
    };
    let params = shard_params();
    let cluster = WireCluster::try_spawn(config, move |env| {
        ShardedNode::<u64>::new(env, params, placement(shards, n))
    })
    .expect("bind 127.0.0.1 listeners");
    let all: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    let leader = await_unanimity(
        || leader_view(cluster.latest_outputs()),
        &all,
        StdDuration::from_secs(10),
    )
    .unwrap_or(ProcessId(0));
    // Output timestamps count from the cluster's epoch.
    let burst_at = cluster.epoch().elapsed();
    for i in 0..commands {
        cluster.request(
            leader,
            ShardRequest {
                shard: shard_of(i, shards),
                cmd: i,
            },
        );
    }
    let deadline = StdInstant::now() + StdDuration::from_secs(30);
    let mut newest: Option<ShardEvent<u64>> = None;
    let mut stable_since = StdInstant::now();
    loop {
        let latest = cluster.latest_outputs().into_iter().nth(leader.as_usize());
        let latest = latest.flatten();
        if latest != newest {
            newest = latest;
            stable_since = StdInstant::now();
        }
        let quiesced = matches!(newest, Some(ShardEvent::Committed { .. }))
            && stable_since.elapsed() >= StdDuration::from_millis(500);
        if quiesced || StdInstant::now() > deadline {
            break;
        }
        std::thread::sleep(StdDuration::from_millis(2));
    }
    let report = cluster.stop();
    report.export(registry);
    let outputs: Vec<(ProcessId, StdDuration, ShardEvent<u64>)> = report
        .outputs
        .iter()
        .map(|o| (o.process, o.at, o.output.clone()))
        .collect();
    // The clock stops at the leader's last commit, not at the end of the
    // quiescence wait that noticed it.
    let total_wall = outputs
        .iter()
        .filter(|(p, _, ev)| *p == leader && matches!(ev, ShardEvent::Committed { .. }))
        .map(|(_, at, _)| at.saturating_sub(burst_at))
        .max()
        .unwrap_or_default();
    let (committed, per_shard, per_shard_latencies) =
        wall_latencies(&outputs, leader, shards, total_wall);
    let throughput = committed as f64 / total_wall.as_secs_f64().max(f64::EPSILON);
    let (p50, p99) = record_sharded_run(registry, "wirenet", shards, "us", &per_shard_latencies);
    ShardRow {
        substrate: "wirenet",
        shards,
        commands,
        committed,
        per_shard,
        throughput,
        unit: "cmds/s",
        p50,
        p99,
        lat_unit: "us",
        scaling: 1.0,
        omega_alive: None,
        omega_accuse: None,
    }
}

/// Fills in per-substrate scaling ratios relative to the `S = 1` baseline
/// and returns the netsim `S = 4` ratio (the gated one), counting only
/// complete runs.
fn compute_scaling(rows: &mut [ShardRow]) -> f64 {
    let baselines: Vec<(&'static str, f64, bool)> = rows
        .iter()
        .filter(|r| r.shards == 1)
        .map(|r| (r.substrate, r.throughput, r.committed == r.commands))
        .collect();
    let mut gated = 0.0f64;
    for row in rows.iter_mut() {
        let Some(&(_, base, base_ok)) = baselines.iter().find(|(s, _, _)| *s == row.substrate)
        else {
            continue;
        };
        row.scaling = if base > 0.0 {
            row.throughput / base
        } else {
            0.0
        };
        if row.substrate == "netsim" && row.shards == 4 && base_ok && row.committed == row.commands
        {
            gated = row.scaling;
        }
    }
    gated
}

/// Checks the shared-Ω claim on the deterministic substrate: every netsim
/// row's `ALIVE` count must sit within [`OMEGA_FLATNESS`] of the `S = 1`
/// baseline's, and accusations must not grow with the shard count.
fn omega_flat(rows: &[ShardRow]) -> bool {
    let Some(base) = rows
        .iter()
        .find(|r| r.substrate == "netsim" && r.shards == 1)
    else {
        return false;
    };
    let alive = |r: &ShardRow| r.omega_alive.unwrap_or(0) as f64;
    rows.iter().filter(|r| r.substrate == "netsim").all(|r| {
        let drift = (alive(r) - alive(base)).abs() / alive(base).max(1.0);
        drift <= OMEGA_FLATNESS && r.omega_accuse <= base.omega_accuse
    })
}

fn row_json(row: &ShardRow) -> JsonValue {
    JsonValue::obj(vec![
        ("substrate", JsonValue::str(row.substrate)),
        ("shards", JsonValue::U64(u64::from(row.shards))),
        ("commands", JsonValue::U64(row.commands)),
        ("committed", JsonValue::U64(row.committed)),
        (
            "per_shard_decided",
            JsonValue::Arr(row.per_shard.iter().map(|&c| JsonValue::U64(c)).collect()),
        ),
        ("throughput", JsonValue::F64(row.throughput)),
        ("throughput_unit", JsonValue::str(row.unit)),
        ("latency_p50", JsonValue::U64(row.p50)),
        ("latency_p99", JsonValue::U64(row.p99)),
        ("latency_unit", JsonValue::str(row.lat_unit)),
        ("scaling", JsonValue::F64(row.scaling)),
        (
            "omega_alive",
            row.omega_alive.map_or(JsonValue::Null, JsonValue::U64),
        ),
        (
            "omega_accuse",
            row.omega_accuse.map_or(JsonValue::Null, JsonValue::U64),
        ),
    ])
}

/// **E20** — sharded multi-group throughput on every substrate: the same
/// round-robin offered load over `S ∈ {1, 2, 4, 8}` shard groups (each
/// pinned to the one-command-per-round-trip baseline), reporting per-shard
/// decided counts, the scaling ratio against `S = 1`, and netsim's Ω
/// message counters across shard counts. PASS requires netsim `S = 4`
/// scaling ≥ 2.5× **and** flat (±10%) Ω traffic 1 → 8 — the shared-Ω
/// multiplexing claim. Returns the human table and the JSON summary the
/// CLI writes as `BENCH_E20.json`.
pub fn e20_shard(n: usize, commands: u64, seed: u64) -> (Table, JsonValue) {
    let registry = Registry::new();
    let mut rows = Vec::new();
    for &s in SHARD_COUNTS {
        rows.push(netsim_run(n, commands, s, seed, &registry));
    }
    for &s in SHARD_COUNTS {
        rows.push(threadnet_run(n, commands, s, seed, &registry));
    }
    for &s in SHARD_COUNTS {
        rows.push(wirenet_run(n, commands, s, &registry));
    }
    let scaling_s4 = compute_scaling(&mut rows);
    let flat = omega_flat(&rows);
    let complete = rows.iter().all(|r| r.committed == r.commands);
    let pass = scaling_s4 >= SCALING_GATE && flat && complete;
    let mut t = Table::new(vec![
        "substrate",
        "shards",
        "committed",
        "per-shard",
        "throughput",
        "latency p50/p99",
        "scaling",
        "omega alive",
    ]);
    for row in &rows {
        t.row(vec![
            row.substrate.to_owned(),
            row.shards.to_string(),
            format!("{}/{}", row.committed, row.commands),
            row.per_shard
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join("/"),
            format!("{:.1} {}", row.throughput, row.unit),
            format!("{}/{} {}", row.p50, row.p99, row.lat_unit),
            format!("{:.2}x", row.scaling),
            row.omega_alive.map_or("n/a".to_owned(), |a| a.to_string()),
        ]);
    }
    let json = JsonValue::obj(vec![
        ("experiment", JsonValue::str("e20")),
        ("seed", JsonValue::U64(seed)),
        ("n", JsonValue::U64(n as u64)),
        ("commands", JsonValue::U64(commands)),
        (
            "shard_counts",
            JsonValue::Arr(
                SHARD_COUNTS
                    .iter()
                    .map(|&s| JsonValue::U64(u64::from(s)))
                    .collect(),
            ),
        ),
        ("scaling_gate", JsonValue::F64(SCALING_GATE)),
        ("netsim_scaling_s4", JsonValue::F64(scaling_s4)),
        ("omega_flatness_bound", JsonValue::F64(OMEGA_FLATNESS)),
        ("omega_flat", JsonValue::Bool(flat)),
        ("pass", JsonValue::Bool(pass)),
        ("rows", JsonValue::Arr(rows.iter().map(row_json).collect())),
        ("metrics", JsonValue::Raw(registry.snapshot_json())),
    ]);
    (t, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance path on the deterministic substrate: four shards
    /// drain the same offered load at ≥ 2.5× the unsharded rate, with
    /// every command committed and spread over all groups.
    #[test]
    fn netsim_four_shards_beat_the_baseline() {
        let registry = Registry::new();
        let base = netsim_run(3, 240, 1, 7, &registry);
        let sharded = netsim_run(3, 240, 4, 7, &registry);
        assert_eq!(base.committed, 240, "baseline must commit the burst");
        assert_eq!(sharded.committed, 240, "sharded run must commit the burst");
        assert!(
            sharded.per_shard.iter().all(|&c| c == 60),
            "round-robin load spreads evenly: {:?}",
            sharded.per_shard
        );
        assert!(
            sharded.throughput >= SCALING_GATE * base.throughput,
            "sharded throughput {:.1} must be >= 2.5x baseline {:.1}",
            sharded.throughput,
            base.throughput
        );
    }

    /// The communication-efficiency half of the claim: eight shard groups
    /// produce the same Ω heartbeat volume as one, because the node runs
    /// one shared detector however many groups it hosts.
    #[test]
    fn omega_traffic_is_flat_across_shard_counts() {
        let registry = Registry::new();
        let one = netsim_run(3, 120, 1, 11, &registry);
        let eight = netsim_run(3, 120, 8, 11, &registry);
        let (one_alive, eight_alive) = (
            one.omega_alive.expect("netsim counts"),
            eight.omega_alive.expect("netsim counts"),
        );
        assert!(one_alive > 0, "heartbeats must flow");
        let drift = (eight_alive as f64 - one_alive as f64).abs() / one_alive as f64;
        assert!(
            drift <= OMEGA_FLATNESS,
            "ALIVE drift {:.3} exceeds {OMEGA_FLATNESS} (S=1: {one_alive}, S=8: {eight_alive})",
            drift
        );
        assert!(eight.omega_accuse <= one.omega_accuse);
    }

    /// Same seed, same shard count, same numbers: the netsim rows are
    /// deterministic.
    #[test]
    fn netsim_rows_are_reproducible() {
        let registry = Registry::new();
        let a = netsim_run(3, 120, 2, 13, &registry);
        let b = netsim_run(3, 120, 2, 13, &registry);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.per_shard, b.per_shard);
        assert_eq!(a.p50, b.p50);
        assert_eq!(a.p99, b.p99);
        assert_eq!(a.omega_alive, b.omega_alive);
        assert!((a.throughput - b.throughput).abs() < 1e-9);
    }

    /// The per-shard registries compose into the shared one: prefixed
    /// per-shard decided counters plus their cross-shard sum.
    #[test]
    fn per_shard_metrics_land_in_the_shared_registry() {
        let registry = Registry::new();
        let row = netsim_run(3, 120, 2, 17, &registry);
        assert_eq!(
            registry.counter_value("e20_netsim_s2_shard0_decided_total"),
            row.per_shard[0]
        );
        assert_eq!(
            registry.counter_value("e20_netsim_s2_shard1_decided_total"),
            row.per_shard[1]
        );
        assert_eq!(
            registry.counter_value("e20_netsim_s2_decided_total"),
            row.committed,
            "the unprefixed family is the cross-shard sum"
        );
    }
}
