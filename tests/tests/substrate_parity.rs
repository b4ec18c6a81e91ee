//! Substrate parity: the same state-machine code produces the same
//! *qualitative* behaviour on the deterministic simulator and on the
//! real-thread runtime — the property that makes simulator results
//! transferable.

use std::time::{Duration as StdDuration, Instant as StdInstant};

use lls_primitives::{Instant, ProcessId};
use netsim::{SimBuilder, Topology};
use omega::{CommEffOmega, OmegaParams};
use threadnet::{Cluster, NetConfig};

/// On a lossless, low-latency network, both substrates elect p0 (the initial
/// default) and never change leaders after stabilization.
#[test]
fn both_substrates_elect_p0_on_perfect_links() {
    let n = 4;

    // Simulator.
    let mut sim = SimBuilder::new(n)
        .topology(Topology::all_timely(
            n,
            lls_primitives::Duration::from_ticks(1),
        ))
        .build_with(|env| CommEffOmega::new(env, OmegaParams::default()));
    sim.run_until(Instant::from_ticks(10_000));
    for p in (0..n as u32).map(ProcessId) {
        assert_eq!(sim.node(p).leader(), ProcessId(0), "sim: {p} disagrees");
    }

    // Threads. Links are only as timely as the scheduler: a stall of the
    // whole process longer than the suspicion timeout fires every monitor
    // before p0's next heartbeat is read, and the resulting accusation
    // rightly moves the leader. A 2 ms tick (60 ms initial timeout) keeps
    // the stalls of a loaded host below that bound.
    let cluster = Cluster::spawn(
        NetConfig {
            n,
            loss: 0.0,
            min_delay: StdDuration::from_micros(50),
            max_delay: StdDuration::from_micros(200),
            tick: StdDuration::from_millis(2),
            seed: 0,
        },
        |env| CommEffOmega::new(env, OmegaParams::default()),
    );
    std::thread::sleep(StdDuration::from_millis(400));
    let report = cluster.stop();
    for p in (0..n as u32).map(ProcessId) {
        assert_eq!(
            report.final_output_of(p),
            Some(&ProcessId(0)),
            "threads: {p} disagrees"
        );
    }
}

/// Crash-stop failover works identically in shape on both substrates: the
/// dead initial leader is replaced by another process on which everyone
/// agrees.
#[test]
fn failover_shape_matches_across_substrates() {
    let n = 4;

    // Simulator run.
    let mut sim = SimBuilder::new(n)
        .topology(Topology::all_timely(
            n,
            lls_primitives::Duration::from_ticks(1),
        ))
        .crash_at(ProcessId(0), Instant::from_ticks(2_000))
        .build_with(|env| CommEffOmega::new(env, OmegaParams::default()));
    sim.run_until(Instant::from_ticks(20_000));
    let sim_final: Vec<ProcessId> = (1..n as u32)
        .map(|p| sim.node(ProcessId(p)).leader())
        .collect();
    assert!(sim_final
        .iter()
        .all(|&l| l == sim_final[0] && l != ProcessId(0)));

    // Thread run.
    let cluster = Cluster::spawn(
        NetConfig {
            n,
            loss: 0.0,
            min_delay: StdDuration::from_micros(50),
            max_delay: StdDuration::from_micros(200),
            tick: StdDuration::from_micros(200),
            seed: 1,
        },
        |env| CommEffOmega::new(env, OmegaParams::default()),
    );
    std::thread::sleep(StdDuration::from_millis(300));
    cluster.crash(ProcessId(0));
    std::thread::sleep(StdDuration::from_millis(900));
    let report = cluster.stop();
    let thread_final: Vec<ProcessId> = (1..n as u32)
        .map(|p| {
            report
                .final_output_of(ProcessId(p))
                .copied()
                .expect("survivor output")
        })
        .collect();
    assert!(
        thread_final
            .iter()
            .all(|&l| l == thread_final[0] && l != ProcessId(0)),
        "thread failover disagrees: {thread_final:?}"
    );
}

/// The full consensus stack (replicated log + embedded Ω) also runs on the
/// thread runtime: commands submitted to the leader commit at every replica.
#[test]
fn replicated_log_commits_on_real_threads() {
    use consensus::{ConsensusParams, ReplicatedLog};

    let n = 3;
    // A generous tick (suspicion timeout = 15 ms) keeps scheduler jitter on
    // a loaded machine from churning the leadership mid-workload.
    let cluster = Cluster::spawn(
        NetConfig {
            n,
            loss: 0.05,
            min_delay: StdDuration::from_micros(50),
            max_delay: StdDuration::from_micros(400),
            tick: StdDuration::from_micros(500),
            seed: 5,
        },
        |env| ReplicatedLog::<u64>::new(env, ConsensusParams::default()),
    );
    // Await a leader that is not merely unanimous but *stays* unanimous for
    // a while: submitting during a momentary agreement risks the commands
    // landing on a leader that is still running (or about to rerun) its
    // prepare phase, and the workload cannot be resubmitted without
    // breaking the exact-log assertion below.
    let deadline = StdInstant::now() + StdDuration::from_secs(10);
    let stable_for = StdDuration::from_millis(400);
    let mut held_since: Option<(ProcessId, StdInstant)> = None;
    let leader = loop {
        let latest = cluster.latest_outputs();
        let unanimous = latest.first().and_then(|o| match o {
            Some(consensus::RsmEvent::Leader(l))
                if latest
                    .iter()
                    .all(|o| matches!(o, Some(consensus::RsmEvent::Leader(x)) if x == l)) =>
            {
                Some(*l)
            }
            _ => None,
        });
        match (unanimous, held_since) {
            (Some(l), Some((h, since))) if l == h => {
                if since.elapsed() >= stable_for {
                    break l;
                }
            }
            (Some(l), _) => held_since = Some((l, StdInstant::now())),
            (None, _) => held_since = None,
        }
        assert!(StdInstant::now() < deadline, "no stable leader on threads");
        std::thread::sleep(StdDuration::from_millis(25));
    };
    for k in 0..5u64 {
        cluster.request(leader, k);
        std::thread::sleep(StdDuration::from_millis(30));
    }
    // Wait until every replica has committed the final command. Scan the
    // full output history, not just the newest output: a leader-change
    // notification emitted after the commit must not mask completion.
    let deadline = StdInstant::now() + StdDuration::from_secs(10);
    loop {
        let outputs = cluster.outputs_so_far();
        let done = (0..n as u32).map(ProcessId).all(|p| {
            outputs.iter().any(|t| {
                t.process == p
                    && matches!(
                        t.output,
                        consensus::RsmEvent::Committed { cmd: Some(4), .. }
                    )
            })
        });
        if done {
            break;
        }
        assert!(
            StdInstant::now() < deadline,
            "replicas never committed the full workload: {:?}",
            cluster.latest_outputs()
        );
        std::thread::sleep(StdDuration::from_millis(25));
    }
    let report = cluster.stop();
    // Every replica committed the same prefix, in order.
    for p in (0..n as u32).map(ProcessId) {
        let committed: Vec<u64> = report
            .outputs
            .iter()
            .filter(|t| t.process == p)
            .filter_map(|t| match &t.output {
                consensus::RsmEvent::Committed { cmd, .. } => *cmd,
                _ => None,
            })
            .collect();
        assert_eq!(committed, vec![0, 1, 2, 3, 4], "{p} log: {committed:?}");
    }
}
