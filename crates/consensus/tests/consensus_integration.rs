//! End-to-end consensus runs on the simulator: safety in every run,
//! liveness in system `S_maj`, communication-efficient steady state.

use std::collections::BTreeMap;

use consensus::checker::{check_consensus_safety, check_log_consistency, DecisionRecord};
use consensus::{Consensus, ConsensusEvent, ConsensusParams, ReplicatedLog};
use lls_primitives::{Duration, Instant, ProcessId, StorageHandle};
use netsim::{SimBuilder, Simulator, SystemSParams, Topology};

fn system_s(n: usize, source: u32) -> Topology {
    Topology::system_s(n, ProcessId(source), SystemSParams::default())
}

fn decisions(sim: &Simulator<Consensus<u64>>) -> Vec<DecisionRecord<u64>> {
    sim.outputs()
        .iter()
        .filter_map(|e| match &e.output {
            ConsensusEvent::Decided(v) => Some(DecisionRecord {
                at: e.at,
                process: e.process,
                value: *v,
            }),
            _ => None,
        })
        .collect()
}

fn run_single(
    n: usize,
    seed: u64,
    topo: Topology,
    horizon: u64,
    crashes: &[(u32, u64)],
) -> Simulator<Consensus<u64>> {
    let mut builder = SimBuilder::new(n).seed(seed).topology(topo);
    for &(p, t) in crashes {
        builder = builder.crash_at(ProcessId(p), Instant::from_ticks(t));
    }
    let mut sim = builder.build_with(|env| {
        Consensus::new(
            env,
            ConsensusParams::default(),
            Some(100 + env.id().0 as u64),
        )
    });
    sim.run_until(Instant::from_ticks(horizon));
    sim
}

fn proposals(n: usize) -> Vec<u64> {
    (0..n as u64).map(|p| 100 + p).collect()
}

#[test]
fn all_correct_processes_decide_the_same_proposed_value() {
    for seed in 0..6u64 {
        let n = 5;
        let sim = run_single(n, seed, system_s(n, (seed % 5) as u32), 80_000, &[]);
        let ds = decisions(&sim);
        assert_eq!(ds.len(), n, "every process must decide (seed {seed})");
        check_consensus_safety(&ds, &proposals(n)).unwrap();
    }
}

#[test]
fn safety_holds_with_minority_crashes_and_liveness_resumes() {
    let n = 5;
    // Crash two non-source processes mid-run; majority (3) survives.
    let sim = run_single(n, 7, system_s(n, 2), 100_000, &[(0, 3_000), (4, 9_000)]);
    let ds = decisions(&sim);
    check_consensus_safety(&ds, &proposals(n)).unwrap();
    // All three survivors decide.
    let deciders: Vec<ProcessId> = ds.iter().map(|d| d.process).collect();
    for p in [1u32, 2, 3] {
        assert!(
            deciders.contains(&ProcessId(p)),
            "survivor p{p} failed to decide; deciders: {deciders:?}"
        );
    }
}

#[test]
fn decision_is_stable_across_leader_crash() {
    let n = 5;
    // Let the run decide early, then crash the likely leader; the decision
    // must not change and survivors that already decided stay decided.
    let topo = Topology::system_s_multi(
        n,
        &[ProcessId(1), ProcessId(3)],
        SystemSParams {
            gst: 100,
            ..SystemSParams::default()
        },
    );
    let mut sim = SimBuilder::new(n).seed(3).topology(topo).build_with(|env| {
        Consensus::new(
            env,
            ConsensusParams::default(),
            Some(100 + env.id().0 as u64),
        )
    });
    sim.run_until(Instant::from_ticks(30_000));
    let early = decisions(&sim);
    assert!(!early.is_empty(), "nobody decided in 30k ticks");
    let leader = sim.node(early[0].process).omega().leader();
    sim.crash_now(leader);
    sim.run_until(Instant::from_ticks(90_000));
    let late = decisions(&sim);
    check_consensus_safety(&late, &proposals(n)).unwrap();
    assert!(late.len() >= early.len());
}

#[test]
fn no_decision_without_majority_but_no_unsafety_either() {
    let n = 4;
    // Crash 3 of 4 immediately: no quorum can ever form after the crashes.
    // Any decisions reached before/after must still be safe; typically none.
    let sim = run_single(n, 11, system_s(n, 3), 40_000, &[(0, 10), (1, 10), (2, 10)]);
    let ds = decisions(&sim);
    check_consensus_safety(&ds, &proposals(n)).unwrap();
    // The survivor alone cannot decide after the crashes: at most the
    // pre-crash instant could decide, and with a 10-tick window it cannot.
    assert!(
        ds.iter()
            .all(|d| d.process == ProcessId(3) || d.at <= Instant::from_ticks(10)),
        "quorum-less decisions: {ds:?}"
    );
    assert!(
        ds.is_empty(),
        "no quorum should form in 10 ticks, got {ds:?}"
    );
}

#[test]
fn decision_survives_decider_crashing_immediately_after_deciding() {
    // Regression (found by experiment E6, seed 4): p0 decides and broadcasts
    // `Decide`, then crashes; one peer's copy is lost. Without leader-driven
    // retransmission of the decision, that peer never learns. The decided Ω
    // leader must keep retransmitting to unacknowledged peers.
    let n = 7;
    let source = 4;
    let sim = run_single(
        n,
        4,
        system_s(n, source),
        300_000,
        &[(0, 40), (1, 80), (2, 120)],
    );
    let ds = decisions(&sim);
    check_consensus_safety(&ds, &proposals(n)).unwrap();
    for p in [3u32, 4, 5, 6] {
        assert!(
            ds.iter().any(|d| d.process == ProcessId(p)),
            "correct p{p} never decided; deciders: {:?}",
            ds.iter().map(|d| d.process).collect::<Vec<_>>()
        );
    }
}

#[test]
fn heavy_loss_delays_but_does_not_break_consensus() {
    let n = 5;
    let topo = Topology::system_s(
        n,
        ProcessId(0),
        SystemSParams {
            mesh_loss: 0.6,
            gst: 2_000,
            pre_gst_loss: 0.9,
            ..SystemSParams::default()
        },
    );
    let sim = run_single(n, 19, topo, 150_000, &[]);
    let ds = decisions(&sim);
    check_consensus_safety(&ds, &proposals(n)).unwrap();
    assert_eq!(ds.len(), n, "all must decide despite 60% loss");
}

#[test]
fn replicated_log_commits_a_stream_in_order_everywhere() {
    let n = 5;
    let mut builder = SimBuilder::new(n).seed(23).topology(system_s(n, 0));
    // Submit 20 commands to p0 spaced through the run (p0 is the source and
    // the overwhelmingly likely stable leader).
    for k in 0..20u64 {
        builder = builder.request_at(
            Instant::from_ticks(10_000 + 500 * k),
            ProcessId(0),
            1_000 + k,
        );
    }
    let mut sim = builder.build_with(|env| ReplicatedLog::new(env, ConsensusParams::default()));
    sim.run_until(Instant::from_ticks(120_000));

    // Every replica's chosen log agrees slot-by-slot.
    let logs: Vec<BTreeMap<u64, Option<u64>>> = (0..n as u32)
        .map(|p| sim.node(ProcessId(p)).chosen_log())
        .collect();
    check_log_consistency(&logs).unwrap();

    // The leader's committed command stream is exactly the submission order.
    let committed: Vec<u64> = sim
        .node(ProcessId(0))
        .committed_commands()
        .cloned()
        .collect();
    assert_eq!(committed, (0..20u64).map(|k| 1_000 + k).collect::<Vec<_>>());

    // And every replica converges to the same committed stream.
    for p in 1..n as u32 {
        let stream: Vec<u64> = sim
            .node(ProcessId(p))
            .committed_commands()
            .cloned()
            .collect();
        assert_eq!(stream, committed, "replica p{p} diverged");
    }
}

#[test]
fn replicated_log_survives_leader_crash_without_losing_commits() {
    let n = 5;
    let topo = Topology::system_s_multi(
        n,
        &[ProcessId(0), ProcessId(2)],
        SystemSParams {
            gst: 100,
            ..SystemSParams::default()
        },
    );
    let mut sim = SimBuilder::new(n)
        .seed(31)
        .topology(topo)
        .build_with(|env| ReplicatedLog::<u64>::new(env, ConsensusParams::default()));
    // Commit a few commands under the first leader.
    sim.run_until(Instant::from_ticks(5_000));
    let leader = sim.node(ProcessId(1)).omega().leader();
    for k in 0..5u64 {
        sim.schedule_request(Instant::from_ticks(5_100 + 100 * k), leader, k);
    }
    sim.run_until(Instant::from_ticks(20_000));
    let before: Vec<u64> = sim.node(leader).committed_commands().cloned().collect();
    assert_eq!(before, vec![0, 1, 2, 3, 4]);

    // Crash the leader; the survivors elect a new one and keep committing.
    sim.crash_now(leader);
    sim.run_until(Instant::from_ticks(60_000));
    let new_leader = (0..n as u32)
        .map(ProcessId)
        .filter(|&p| p != leader)
        .find(|&p| sim.node(p).omega().leader() == p)
        .expect("a survivor must lead");
    for k in 5..8u64 {
        sim.schedule_request(
            Instant::from_ticks(60_000 + 200 * (k - 5) + 1),
            new_leader,
            k,
        );
    }
    sim.run_until(Instant::from_ticks(120_000));

    let logs: Vec<BTreeMap<u64, Option<u64>>> = (0..n as u32)
        .filter(|&p| ProcessId(p) != leader)
        .map(|p| sim.node(ProcessId(p)).chosen_log())
        .collect();
    check_log_consistency(&logs).unwrap();
    let stream: Vec<u64> = sim.node(new_leader).committed_commands().cloned().collect();
    // All pre-crash commits survive, in order, and the new ones follow
    // (no-op fillers are skipped by committed_commands).
    assert_eq!(stream, vec![0, 1, 2, 3, 4, 5, 6, 7]);
}

#[test]
fn steady_state_costs_are_linear_per_decision() {
    // The communication-efficiency claim for consensus: once the leader is
    // established, a command costs 4(n-1) messages when commands are spaced
    // wider than the one-tick decide flush (Accept out, Accepted in, Decide
    // out, DecideAck in) — Θ(n), with no Prepare traffic at all.
    let n = 5;
    let mut sim = SimBuilder::new(n)
        .seed(41)
        .topology(Topology::all_timely(n, Duration::from_ticks(2)))
        .classify(consensus::classify_rsm_msg)
        .build_with(|env| ReplicatedLog::<u64>::new(env, ConsensusParams::default()));
    sim.run_until(Instant::from_ticks(10_000));
    let prepares_before = sim
        .stats()
        .kind_counts()
        .get("PREPARE")
        .copied()
        .unwrap_or(0);
    let base_total = sim.stats().total_sent();

    let commands = 50u64;
    for k in 0..commands {
        sim.schedule_request(Instant::from_ticks(10_001 + 100 * k), ProcessId(0), k);
    }
    sim.run_until(Instant::from_ticks(10_000 + 100 * commands + 5_000));

    let prepares_after = sim
        .stats()
        .kind_counts()
        .get("PREPARE")
        .copied()
        .unwrap_or(0);
    assert_eq!(
        prepares_before, prepares_after,
        "steady state must not re-run phase 1"
    );
    // Total protocol messages per command (excluding the constant Ω
    // heartbeat background): Accept/Accepted/Decide/DecideAck = 4(n-1).
    let alive_rate = sim.stats().kind_counts()["ALIVE"]; // background
    let total = sim.stats().total_sent() - base_total;
    let per_command = (total.saturating_sub(alive_rate)) as f64 / commands as f64;
    assert!(
        per_command <= (4 * (n - 1)) as f64 + 2.0,
        "steady-state cost too high: {per_command:.1} msgs/cmd"
    );
    assert_eq!(sim.node(ProcessId(0)).committed_len(), commands);
}

#[test]
fn back_to_back_commands_cost_two_messages_per_peer_and_one_follower_write() {
    // A request every tick keeps an Accept leaving within the one-tick
    // decide flush, so each decision rides the next Accept: Accept out and
    // Accepted in, 2(n-1) messages per command, and every follower persists
    // its vote and the decisions the Accept carries in one WAL write. The
    // retry tick's retransmission of in-flight Accepts stays within the +1.
    let n = 5;
    let stores: Vec<StorageHandle> = (0..n).map(|_| StorageHandle::in_memory()).collect();
    let mut sim = SimBuilder::new(n)
        .seed(43)
        .topology(Topology::all_timely(n, Duration::from_ticks(1)))
        .classify(consensus::classify_rsm_msg)
        .build_with(|env| {
            ReplicatedLog::<u64>::with_storage(
                env,
                ConsensusParams::default(),
                stores[env.id().as_usize()].clone(),
            )
            .expect("fresh in-memory store")
        });
    sim.run_until(Instant::from_ticks(10_000));
    let commands = 400u64;
    for k in 0..commands {
        sim.schedule_request(Instant::from_ticks(10_001 + k), ProcessId(0), k);
    }
    // Measure a window of the stream, past its ramp-up and before its tail:
    // one command enters per tick.
    let (from, to) = (10_100, 10_300);
    let kind = |sim: &Simulator<ReplicatedLog<u64>>, k: &str| {
        sim.stats().kind_counts().get(k).copied().unwrap_or(0)
    };
    let counts = |sim: &Simulator<ReplicatedLog<u64>>| {
        (
            sim.stats().total_sent() - kind(sim, "ALIVE"),
            kind(sim, "DECIDE") + kind(sim, "DECIDE_ACK"),
        )
    };
    sim.run_until(Instant::from_ticks(from));
    let (sent_before, decides_before) = counts(&sim);
    let writes_before: Vec<u64> = stores.iter().map(|s| s.flush_stats().flushes).collect();
    sim.run_until(Instant::from_ticks(to));
    let (sent_after, decides_after) = counts(&sim);
    let window = to - from;
    let per_command = (sent_after - sent_before) as f64 / window as f64;
    assert!(
        per_command <= (2 * (n - 1) + 1) as f64,
        "steady-state cost too high: {per_command:.2} msgs/cmd"
    );
    assert_eq!(decides_after, decides_before, "no Decide frame left");
    for (p, store) in stores.iter().enumerate().skip(1) {
        assert_eq!(
            store.flush_stats().flushes - writes_before[p],
            window,
            "p{p} must write once per command"
        );
    }
    // The stream's tail flushes, and every replica converges.
    sim.run_until(Instant::from_ticks(20_000));
    for p in 0..n as u32 {
        assert_eq!(sim.node(ProcessId(p)).committed_len(), commands, "p{p}");
    }
}
