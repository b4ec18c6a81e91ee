//! Replicated KV store end-to-end: convergence, exactly-once retries,
//! failover, and linearizable-prefix agreement across replicas.

use std::collections::BTreeMap;

use consensus::shard::{PlacementManager, PlacementMap, ShardId};
use consensus::ConsensusParams;
use kvstore::{
    ClientId, KvClient, KvCmd, KvResponse, ShardedKvEvent, ShardedKvNode, ShardedSubmitQueue,
    Tagged,
};
use lls_primitives::{Duration, Env, Instant, ProcessId};
use netsim::{SimBuilder, SystemSParams, Topology};

/// The store runs unsharded here: one group per replica.
const SHARD: ShardId = ShardId(0);

fn replica(env: &Env, params: ConsensusParams) -> ShardedKvNode {
    let placement = PlacementManager::with_all_attached(PlacementMap::uniform(1, env.n()));
    ShardedKvNode::new(env, params, placement)
}

fn tag(client: u64, seq: u64, cmd: KvCmd) -> Tagged<KvCmd> {
    Tagged {
        client: ClientId(client),
        seq,
        cmd,
    }
}

#[test]
fn replicas_converge_to_identical_stores_under_loss() {
    let n = 5;
    let topo = Topology::system_s(n, ProcessId(0), SystemSParams::default());
    let mut sim = SimBuilder::new(n)
        .seed(3)
        .topology(topo)
        .build_with(|env| replica(env, ConsensusParams::default()));
    // Find the stable leader, then run a workload against it.
    sim.run_until(Instant::from_ticks(15_000));
    let leader = sim.node(ProcessId(0)).omega().leader();
    let workload = [
        tag(1, 1, KvCmd::put("a", "1")),
        tag(1, 2, KvCmd::put("b", "2")),
        tag(2, 1, KvCmd::put("a", "3")),
        tag(1, 3, KvCmd::delete("b")),
        tag(2, 2, KvCmd::cas("a", Some("3"), "4")),
    ];
    for (i, cmd) in workload.iter().enumerate() {
        sim.schedule_request(
            Instant::from_ticks(15_100 + 300 * i as u64),
            leader,
            cmd.clone(),
        );
    }
    sim.run_until(Instant::from_ticks(80_000));

    let reference: Vec<(String, String)> = sim
        .node(ProcessId(0))
        .state(SHARD)
        .unwrap()
        .iter()
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect();
    assert_eq!(reference, vec![("a".to_owned(), "4".to_owned())]);
    for p in 1..n as u32 {
        let store: Vec<(String, String)> = sim
            .node(ProcessId(p))
            .state(SHARD)
            .unwrap()
            .iter()
            .map(|(k, v)| (k.to_owned(), v.to_owned()))
            .collect();
        assert_eq!(store, reference, "replica p{p} diverged");
    }
}

#[test]
fn client_retries_are_exactly_once() {
    let n = 3;
    let mut sim = SimBuilder::new(n)
        .topology(Topology::all_timely(n, Duration::from_ticks(2)))
        .build_with(|env| replica(env, ConsensusParams::default()));
    sim.run_until(Instant::from_ticks(2_000));
    let leader = sim.node(ProcessId(0)).omega().leader();
    // A client that retries every command three times (as it would after
    // timeouts in a real deployment).
    let mut t = 2_100;
    for seq in 1..=4u64 {
        for _retry in 0..3 {
            sim.schedule_request(
                Instant::from_ticks(t),
                leader,
                tag(7, seq, KvCmd::put("ctr", seq.to_string())),
            );
            t += 120;
        }
    }
    sim.run_until(Instant::from_ticks(30_000));
    for p in (0..n as u32).map(ProcessId) {
        let state = sim.node(p).state(SHARD).unwrap();
        assert_eq!(state.get("ctr"), Some("4"), "p{p} wrong final value");
        assert_eq!(state.applied_count(), 4, "p{p} applied retries");
        assert_eq!(state.duplicate_count(), 8, "p{p} missed duplicates");
        assert_eq!(state.session_seq(ClientId(7)), Some(4));
    }
}

#[test]
fn store_survives_leader_failover_without_double_apply() {
    let n = 5;
    let topo = Topology::system_s_multi(
        n,
        &[ProcessId(0), ProcessId(1)],
        SystemSParams {
            gst: 100,
            ..SystemSParams::default()
        },
    );
    let mut sim = SimBuilder::new(n)
        .seed(11)
        .topology(topo)
        .build_with(|env| replica(env, ConsensusParams::default()));
    sim.run_until(Instant::from_ticks(8_000));
    let first = sim.node(ProcessId(2)).omega().leader();
    for seq in 1..=3u64 {
        sim.schedule_request(
            Instant::from_ticks(8_100 + 200 * seq),
            first,
            tag(1, seq, KvCmd::put(format!("k{seq}"), "pre")),
        );
    }
    sim.run_until(Instant::from_ticks(20_000));
    sim.crash_now(first);
    sim.run_until(Instant::from_ticks(60_000));
    let survivor = (0..n as u32)
        .map(ProcessId)
        .filter(|&p| p != first)
        .find(|&p| sim.node(p).omega().leader() == p)
        .expect("someone must lead");
    // The client retries its last command against the new leader, plus new
    // traffic.
    sim.schedule_request(
        Instant::from_ticks(60_100),
        survivor,
        tag(1, 3, KvCmd::put("k3", "pre")), // retry: must be deduped
    );
    sim.schedule_request(
        Instant::from_ticks(60_300),
        survivor,
        tag(1, 4, KvCmd::put("k4", "post")),
    );
    sim.run_until(Instant::from_ticks(120_000));

    for p in (0..n as u32).map(ProcessId).filter(|&p| p != first) {
        let state = sim.node(p).state(SHARD).unwrap();
        for k in ["k1", "k2", "k3"] {
            assert_eq!(state.get(k), Some("pre"), "p{p} lost {k}");
        }
        assert_eq!(state.get("k4"), Some("post"));
        assert_eq!(
            state.session_seq(ClientId(1)),
            Some(4),
            "p{p} session drift"
        );
    }
}

/// Satellite regression: a [`ShardedSubmitQueue`] with retry backoff enabled,
/// driven against a cluster whose leader is killed while half the window
/// is still in flight, must settle every submitted command exactly once —
/// the queue's jittered re-submission gets the survivors to the new
/// leader, and the replicas' session tables suppress the duplicates.
#[test]
fn mid_window_leader_kill_settles_every_command_exactly_once() {
    let n = 5;
    let total = 10u64;
    let topo = Topology::system_s_multi(
        n,
        &[ProcessId(0), ProcessId(1)],
        SystemSParams {
            gst: 100,
            ..SystemSParams::default()
        },
    );
    let mut sim = SimBuilder::new(n)
        .seed(17)
        .topology(topo)
        .build_with(|env| replica(env, ConsensusParams::default()));
    sim.run_until(Instant::from_ticks(8_000));
    let first = sim.node(ProcessId(2)).omega().leader();

    let mut client = KvClient::new(ClientId(9));
    let mut queue = ShardedSubmitQueue::new(PlacementMap::uniform(1, n), 4);
    queue.set_retry_backoff(500, 0xfeed);
    for i in 0..total {
        queue.submit(client.issue(KvCmd::put(format!("k{i}"), format!("v{i}"))));
    }

    let mut leader = first;
    let mut killed = false;
    let mut settled: BTreeMap<u64, u32> = BTreeMap::new();
    let mut seen_outputs = 0usize;
    let slice = 100u64;
    let mut now = 8_000u64;
    while now < 200_000 && !(queue.is_idle() && killed) {
        // Deliver whatever the window (or a due retry round) admits.
        for cmd in queue.drain().into_iter().flat_map(|(_, cmds)| cmds) {
            sim.schedule_request(Instant::from_ticks(now + 1), leader, cmd);
        }
        for _ in 0..slice {
            for cmd in queue.on_tick().into_iter().flat_map(|(_, cmds)| cmds) {
                sim.schedule_request(Instant::from_ticks(now + 1), leader, cmd);
            }
        }
        now += slice;
        sim.run_until(Instant::from_ticks(now));
        // Kill the first leader while the window is half in flight.
        if !killed && queue.released_len() >= 2 && settled.len() >= 2 {
            sim.crash_now(first);
            killed = true;
        }
        // Route replies (any replica's view; duplicates settle nothing).
        let outputs = sim.outputs();
        for ev in &outputs[seen_outputs..] {
            if let ShardedKvEvent::Applied {
                client,
                seq,
                response,
                ..
            } = &ev.output
            {
                if queue.settle(*client, *seq, response).is_some() {
                    *settled.entry(*seq).or_default() += 1;
                }
            }
        }
        seen_outputs = outputs.len();
        // Track the survivors' leader; hand the queue the change exactly
        // once per switch.
        let probe_node = if first == ProcessId(2) {
            ProcessId(3)
        } else {
            ProcessId(2)
        };
        let believed = sim.node(probe_node).omega().leader();
        if believed != leader && sim.is_alive(believed) {
            leader = believed;
            queue.on_leader_change();
        }
    }

    assert!(killed, "the fault must actually fire");
    assert!(
        queue.is_idle(),
        "every command must settle: {} queued, {} in flight",
        queue.queued_len(),
        queue.released_len()
    );
    let counts: Vec<u32> = (1..=total)
        .map(|s| settled.get(&s).copied().unwrap_or(0))
        .collect();
    assert_eq!(
        counts,
        vec![1; total as usize],
        "each command settles exactly once"
    );
    // And the survivors agree on the full workload.
    for p in (0..n as u32).map(ProcessId).filter(|&p| p != first) {
        let state = sim.node(p).state(SHARD).unwrap();
        for i in 0..total {
            assert_eq!(
                state.get(&format!("k{i}")),
                Some(format!("v{i}").as_str()),
                "p{p} lost k{i}"
            );
        }
        assert_eq!(state.session_seq(ClientId(9)), Some(total));
    }
}

#[test]
fn applied_events_report_responses_in_slot_order() {
    let n = 3;
    let mut sim = SimBuilder::new(n)
        .topology(Topology::all_timely(n, Duration::from_ticks(2)))
        .request_at(
            Instant::from_ticks(500),
            ProcessId(0),
            tag(1, 1, KvCmd::put("x", "1")),
        )
        .request_at(
            Instant::from_ticks(700),
            ProcessId(0),
            tag(1, 2, KvCmd::cas("x", Some("nope"), "2")),
        )
        .request_at(
            Instant::from_ticks(900),
            ProcessId(0),
            tag(1, 2, KvCmd::cas("x", Some("nope"), "2")),
        )
        .build_with(|env| replica(env, ConsensusParams::default()));
    sim.run_until(Instant::from_ticks(10_000));
    let applied: Vec<(u64, KvResponse)> = sim
        .outputs()
        .iter()
        .filter(|e| e.process == ProcessId(0))
        .filter_map(|e| match &e.output {
            ShardedKvEvent::Applied { slot, response, .. } => Some((*slot, response.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(applied.len(), 3);
    assert!(matches!(applied[0], (0, KvResponse::Applied { .. })));
    assert!(matches!(
        applied[1],
        (1, KvResponse::CasFailed { ref actual }) if actual.as_deref() == Some("1")
    ));
    assert!(matches!(applied[2], (2, KvResponse::Duplicate)));
    // Slots strictly increase.
    assert!(applied.windows(2).all(|w| w[0].0 < w[1].0));
}
