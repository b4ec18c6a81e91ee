//! One benchmark run: set up, warm up, measure, fail over, verify, judge.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration as StdDuration, Instant as StdInstant};

use kvstore::ShardedKvEvent;
use wirenet::LinkStats;

use std::sync::atomic::Ordering;

use crate::cluster::{self, Client, Cluster, Failover, Load, Phase, TraceShared, Workload, CLIENT};
use crate::store::StoreSpan;
use crate::sys;
use crate::tap::NodeTrace;
use crate::verdict::{self, ReplicaStream};

/// Clusters set up (and stopped) before the measured one; with the
/// measured cluster they give `setup_s`, the median of their set-ups.
pub const SETUPS: usize = 20;
/// Fresh clusters per run whose leader is killed under a one-put probe;
/// their median is `unavailable_ms`.
pub const EPISODES: usize = 20;
/// Load offered before the measured window.
const WARMUP: StdDuration = StdDuration::from_millis(1000);
/// The window is measured in slices of about this length; most
/// end-to-end metrics are the median over slices.
const SLICE: StdDuration = StdDuration::from_secs(1);
/// Longest wait for in-flight commands to be answered.
const DRAIN_LIMIT: StdDuration = StdDuration::from_secs(10);
/// Probe load offered in an episode before its leader kill …
const PRE_KILL: StdDuration = StdDuration::from_millis(200);
/// … plus a share of this, so kills land across the heartbeat cycle (one
/// η = 10 ticks = 10 ms) instead of at the same offset from every
/// episode's start. Episode `e` of `E` draws its share from
/// `[e/E, (e+1)/E)`, so each run samples the cycle evenly and the median
/// does not hinge on where a few seeded draws fell.
const KILL_JITTER: StdDuration = StdDuration::from_millis(20);
/// Load kept up after the first post-kill acknowledgement.
const POST_RECOVERY: StdDuration = StdDuration::from_millis(50);
/// Closing verification reads (closed loop, one at a time).
const VERIFY_READS: usize = 5000;
/// Verification reads per quantile chunk.
pub const VERIFY_CHUNK: usize = 500;
/// Before stopping, wait until no node has applied anything for this
/// long (followers apply the last decisions) …
const SETTLE_QUIET: StdDuration = StdDuration::from_millis(100);
/// … but no longer than this.
const SETTLE_LIMIT: StdDuration = StdDuration::from_secs(3);

/// Counter readings at one instant.
#[derive(Debug, Clone)]
pub struct Snap {
    /// Client clock, ns.
    pub at: u64,
    /// Per node, per peer link counters.
    pub links: Vec<Vec<LinkStats>>,
    /// Process CPU, ns.
    pub cpu: u64,
    /// Write syscalls.
    pub syscw: u64,
    /// Per-thread run-queue wait, ns.
    pub runq: BTreeMap<u64, u64>,
    /// Threads.
    pub threads: u64,
}

fn snap(client: &Client, cl: &Cluster) -> Snap {
    Snap {
        at: client.now(),
        links: cl.wc.link_snapshot(),
        cpu: sys::cpu_ns().unwrap_or(0),
        syscw: sys::syscw().unwrap_or(0),
        runq: sys::runq_wait_ns(),
        threads: sys::threads().unwrap_or(0),
    }
}

/// Sum of every link's counters.
pub fn link_sum(links: &[Vec<LinkStats>]) -> LinkStats {
    links
        .iter()
        .flatten()
        .fold(LinkStats::default(), |a, s| a.merge(*s))
}

/// Everything one run produced.
pub struct RunData {
    /// Seconds each cluster before the window, and the measured one, took
    /// to set up (see `spawn_ready`).
    pub setups: Vec<f64>,
    /// The measured cluster's client after the run.
    pub client: Client,
    /// Readings at the measured window's slice boundaries (traced runs:
    /// of its untraced half).
    pub slices: Vec<Snap>,
    /// The traced half's readings, in traced runs.
    pub traced: Option<(Snap, Snap)>,
    /// When the measured cluster's last drain ended (ns): the latency
    /// charged to unanswered commands.
    pub drained_at: u64,
    /// Every leader kill: the in-window one, then the episodes'.
    pub failovers: Vec<Failover>,
    /// Commands issued over the whole run, episodes included.
    pub attempted: usize,
    /// Of those, never answered.
    pub failed: usize,
    /// Node traces (traced runs).
    pub node_traces: Vec<NodeTrace>,
    /// Storage spans (traced runs).
    pub store_spans: Vec<StoreSpan>,
    /// Peak RSS, MB.
    pub peak_rss_mb: f64,
    /// Verdict violations (empty when correct).
    pub violations: Vec<String>,
}

/// Spawns a cluster and times its set-up: until every node names the same
/// leader, every follower has received that leader's first Ω heartbeat,
/// and the first put is acknowledged.
///
/// Every node names node 0 from its start, before any message; the first
/// heartbeat, one η after the leader's start, is the first evidence that
/// followers hear it. Without it, set-up ends at either ~3 ms or ~13 ms
/// on `put-w1`, depending on whether node 0's connection acceptor, which
/// polls every 10 ms, catches its followers' first connections; the share
/// of each follows the host's load.
fn spawn_ready(
    w: &Workload,
    dir: &Path,
    trace: Option<&TraceShared>,
    epoch: StdInstant,
    seed: u64,
) -> Result<(Cluster, Client, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let start = StdInstant::now();
    let cl = cluster::spawn(w, dir, trace)?;
    let mut client = Client::new(w, epoch, seed);
    let leader = client.await_leader(&cl, StdDuration::from_secs(20))?;
    let t = client.now();
    client.issue(false, t, Phase::Setup);
    client.flush(&cl);
    client.drain(&cl, StdDuration::from_secs(20))?;
    cl.await_heartbeats(leader, StdDuration::from_secs(20))?;
    Ok((cl, client, start.elapsed().as_secs_f64()))
}

/// Stops `cl` and checks the run's verdict on it.
fn finish(cl: Cluster, client: &Client) -> Vec<String> {
    cl.settle(SETTLE_QUIET, SETTLE_LIMIT);
    let report = cl.stop();
    let mut streams: Vec<ReplicaStream> = (0..cluster::N)
        .map(|i| ReplicaStream {
            node: i as u32,
            alive: client.is_alive(i),
            events: Vec::new(),
        })
        .collect();
    for out in report.outputs {
        if let ShardedKvEvent::Leader(_) = out.output {
            continue;
        }
        streams[out.process.as_usize()].events.push(out.output);
    }
    match verdict::check(CLIENT, &client.views(), &streams) {
        Ok(_) => Vec::new(),
        Err(v) => v,
    }
}

/// Offers load until the client's failover has its first acknowledgement.
fn await_recovery(client: &mut Client, cl: &mut Cluster, w: &Workload) -> Result<(), String> {
    let deadline = StdInstant::now() + DRAIN_LIMIT;
    while client.failover.is_some_and(|f| f.first_ack.is_none()) {
        if StdInstant::now() >= deadline {
            return Err(format!(
                "no put acknowledged after the leader kill ({:?})",
                client.failover
            ));
        }
        let step = StdInstant::now() + StdDuration::from_millis(5);
        client.run_load(cl, w, Phase::Failover, step.min(deadline), None);
    }
    Ok(())
}

/// Once an in-window kill has been recovered from (a survivor
/// acknowledged a put), restarts the killed node from its storage, as an
/// operator would.
fn restart_when_recovered(client: &mut Client, cl: &mut Cluster) -> Result<(), String> {
    match client.failover {
        Some(f) if f.first_ack.is_some() && !client.is_alive(f.victim as usize) => {
            client.restart_victim(cl)
        }
        _ => Ok(()),
    }
}

/// Runs `w` once with `seed`, measuring for `seconds`. With `traced`, the
/// window's second half runs with tracing armed. Storage goes under
/// `work_dir`.
///
/// # Errors
///
/// Fails if a cluster cannot be set up or stops answering.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    work_dir: &Path,
) -> Result<RunData, String> {
    let epoch = StdInstant::now();
    let trace = traced.then(|| TraceShared::new(epoch));
    let mut setups = Vec::new();
    for i in 0..SETUPS {
        let (cl, _, secs) = spawn_ready(w, &work_dir.join(format!("setup{i}")), None, epoch, seed)?;
        setups.push(secs);
        cl.stop();
    }
    let (mut cl, mut client, secs) =
        spawn_ready(w, &work_dir.join("measured"), trace.as_ref(), epoch, seed)?;
    setups.push(secs);

    let warm_end = StdInstant::now() + WARMUP;
    client.run_load(&mut cl, w, Phase::Warmup, warm_end, None);

    let window = StdDuration::from_secs_f64(seconds);
    let start = StdInstant::now();
    let kill_at = w.kill_in_window.map(|f| start + window.mul_f64(f));
    let untraced = if trace.is_some() { window / 2 } else { window };
    let n = (untraced.as_secs_f64() / SLICE.as_secs_f64())
        .round()
        .max(1.0) as u32;
    let mut slices = vec![snap(&client, &cl)];
    for k in 1..=n {
        let until = start + untraced * k / n;
        client.run_load(&mut cl, w, Phase::Window, until, kill_at);
        slices.push(snap(&client, &cl));
        restart_when_recovered(&mut client, &mut cl)?;
    }
    let traced_snaps = match &trace {
        Some(tr) => {
            tr.armed.store(true, Ordering::Relaxed);
            let b0 = snap(&client, &cl);
            client.run_load(&mut cl, w, Phase::Traced, start + window, kill_at);
            let b1 = snap(&client, &cl);
            restart_when_recovered(&mut client, &mut cl)?;
            tr.armed.store(false, Ordering::Relaxed);
            Some((b0, b1))
        }
        None => None,
    };
    client.drain(&cl, DRAIN_LIMIT)?;
    for _ in 0..VERIFY_READS {
        let t = client.now();
        client.issue(true, t, Phase::Verify);
        client.flush(&cl);
        client.drain(&cl, DRAIN_LIMIT)?;
    }
    let drained_at = client.now();
    let mut violations = finish(cl, &client);
    let mut failovers: Vec<Failover> = client.failover.into_iter().collect();
    let mut attempted = client.cmds.len();
    let mut failed = client.cmds.iter().filter(|r| r.reply == 0).count();

    // Episodes probe availability with one put in flight: a single probe
    // cannot reorder its own commands, so what it measures is the time
    // without service, not the pipelined-retry defect (see README).
    let probe = Workload {
        load: Load::Closed { window: 1 },
        ..*w
    };
    let mut jitter = cluster::Rng::new(seed);
    for e in 0..EPISODES {
        let dir = work_dir.join(format!("episode{e}"));
        let (mut ecl, mut ec, _) = spawn_ready(&probe, &dir, None, epoch, seed ^ (e as u64 + 1))?;
        let share = (e as f64 + jitter.unit()) / EPISODES as f64;
        let pre = StdInstant::now() + PRE_KILL + KILL_JITTER.mul_f64(share);
        ec.run_load(&mut ecl, &probe, Phase::Failover, pre, None);
        ec.kill_leader(&mut ecl);
        await_recovery(&mut ec, &mut ecl, &probe)?;
        let post = StdInstant::now() + POST_RECOVERY;
        ec.run_load(&mut ecl, &probe, Phase::Failover, post, None);
        ec.drain(&ecl, DRAIN_LIMIT)?;
        violations.extend(
            finish(ecl, &ec)
                .into_iter()
                .map(|v| format!("failover episode {e}: {v}")),
        );
        failovers.extend(ec.failover);
        attempted += ec.cmds.len();
        failed += ec.cmds.iter().filter(|r| r.reply == 0).count();
    }
    let peak_rss_mb = sys::peak_rss_mb().unwrap_or(0.0);

    let (node_traces, store_spans) = match &trace {
        Some(tr) => (
            tr.nodes.lock().map(|n| n.clone()).unwrap_or_default(),
            tr.store_spans(),
        ),
        None => (Vec::new(), Vec::new()),
    };
    let _ = std::fs::remove_dir_all(work_dir);
    Ok(RunData {
        setups,
        client,
        slices,
        traced: traced_snaps,
        drained_at,
        failovers,
        attempted,
        failed,
        node_traces,
        store_spans,
        peak_rss_mb,
        violations,
    })
}

/// Latency (ns) of one command: reply − due, or `drained_at` − due when
/// it was never answered.
pub fn latency(r: &cluster::Rec, drained_at: u64) -> u64 {
    let end = if r.reply > 0 { r.reply } else { drained_at };
    end.saturating_sub(r.due)
}

/// Sorted latencies of the commands matching `pick`.
pub fn latencies(data: &RunData, pick: impl Fn(&cluster::Rec) -> bool) -> Vec<u64> {
    let mut v: Vec<u64> = data
        .client
        .cmds
        .iter()
        .filter(|r| pick(r))
        .map(|r| latency(r, data.drained_at))
        .collect();
    v.sort_unstable();
    v
}

/// Commands answered within `[from, to)` ns.
pub fn acked_between(data: &RunData, from: u64, to: u64) -> u64 {
    data.client
        .cmds
        .iter()
        .filter(|r| r.reply >= from && r.reply < to)
        .count() as u64
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// The median of `v` (0 when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median over failovers of kill issued → first put acknowledged by a
/// survivor, in ms.
pub fn unavailable_ms(failovers: &[Failover]) -> f64 {
    median(
        failovers
            .iter()
            .filter_map(|f| f.first_ack.map(|a| (a - f.killed_at) as f64 / 1e6))
            .collect(),
    )
}

/// Rates, latency quantiles and per-command costs of the measured window
/// (its untraced part), each the median over the window's slices. Reads
/// come from the verification reads, in chunks, when the window had none.
pub fn slice_medians(data: &RunData) -> BTreeMap<&'static str, f64> {
    let us = |v: &[u64], q: f64| sys::quantile(v, q).unwrap_or(0) as f64 / 1e3;
    let mut per_slice: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut push = |k, v| per_slice.entry(k).or_default().push(v);
    let has_reads = data
        .client
        .cmds
        .iter()
        .any(|r| r.read && r.phase == Phase::Window);
    for pair in data.slices.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        let secs = (b.at - a.at) as f64 / 1e9;
        let acked = acked_between(data, a.at, b.at).max(1) as f64;
        let due_in = |r: &cluster::Rec| r.phase == Phase::Window && r.due >= a.at && r.due < b.at;
        let writes = latencies(data, |r| due_in(r) && !r.read);
        let (la, lb) = (link_sum(&a.links), link_sum(&b.links));
        push("throughput_cmds_s", acked / secs);
        push("write_p50_us", us(&writes, 0.50));
        push("write_p99_us", us(&writes, 0.99));
        push("cpu_us_per_cmd", (b.cpu - a.cpu) as f64 / 1e3 / acked);
        push(
            "frames_per_cmd",
            (lb.msgs_sent - la.msgs_sent) as f64 / acked,
        );
        push(
            "bytes_per_cmd",
            (lb.bytes_sent - la.bytes_sent) as f64 / acked,
        );
        push("wal_writes_per_cmd", (b.syscw - a.syscw) as f64 / acked);
        if has_reads {
            let reads = latencies(data, |r| due_in(r) && r.read);
            push("read_p50_us", us(&reads, 0.50));
            push("read_p99_us", us(&reads, 0.99));
        }
    }
    if !has_reads {
        let verify: Vec<u64> = data
            .client
            .cmds
            .iter()
            .filter(|r| r.phase == Phase::Verify)
            .map(|r| latency(r, data.drained_at))
            .collect();
        for chunk in verify.chunks(VERIFY_CHUNK) {
            let mut c = chunk.to_vec();
            c.sort_unstable();
            push("read_p50_us", us(&c, 0.50));
            push("read_p99_us", us(&c, 0.99));
        }
    }
    per_slice.into_iter().map(|(k, v)| (k, median(v))).collect()
}

/// The end-to-end metrics of an untraced run: the ones that hold still
/// from run to run on a shared machine (see README): the per-command
/// resource bill, time without service after a leader kill, and set-up.
/// Each is set by protocol timers or counts, not by how fast the host
/// runs the threads.
pub fn end_to_end(data: &RunData) -> Vec<Metric> {
    let medians = slice_medians(data);
    let med = |k: &str| medians.get(k).copied().unwrap_or(0.0);
    vec![
        metric("unavailable_ms", unavailable_ms(&data.failovers), "ms"),
        metric("setup_s", median(data.setups.clone()), "s"),
        metric("frames_per_cmd", med("frames_per_cmd"), "frames"),
        metric("bytes_per_cmd", med("bytes_per_cmd"), "B"),
        metric("wal_writes_per_cmd", med("wal_writes_per_cmd"), "writes"),
    ]
}

/// The client-visible speed of a run's untraced window: rates, latency
/// medians and tails, CPU and memory. Printed with every run for reading;
/// too dependent on the machine's other load to gate (see README).
pub fn speed(data: &RunData) -> Vec<Metric> {
    let medians = slice_medians(data);
    let med = |k: &str| medians.get(k).copied().unwrap_or(0.0);
    vec![
        metric(
            "client.throughput_cmds_s",
            med("throughput_cmds_s"),
            "cmds/s",
        ),
        metric("client.write_p50_us", med("write_p50_us"), "us"),
        metric("client.write_p99_us", med("write_p99_us"), "us"),
        metric("client.read_p50_us", med("read_p50_us"), "us"),
        metric("client.read_p99_us", med("read_p99_us"), "us"),
        metric("proc.cpu_us_per_cmd", med("cpu_us_per_cmd"), "us"),
        metric("proc.peak_rss_mb", data.peak_rss_mb, "MB"),
    ]
}
