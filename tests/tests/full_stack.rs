//! Cross-crate integration: the whole stack — simulator, Ω, consensus,
//! replicated log — exercised together in paper-shaped scenarios.

use std::collections::BTreeMap;

use consensus::checker::{check_consensus_safety, check_log_consistency, DecisionRecord};
use consensus::shard::{PlacementManager, PlacementMap, ShardId, ShardRequest};
use consensus::{Consensus, ConsensusEvent, ConsensusParams, ShardedNode};
use lls_primitives::{Env, Instant, ProcessId};
use netsim::{SimBuilder, SystemSParams, Topology};
use omega::spec::{stabilization, tail_cut, LeaderRecord};
use omega::{CommEffOmega, OmegaParams};

/// A replicated-log node: one Ω and one log group.
fn log_node(env: &Env, n: usize) -> ShardedNode<u64> {
    let placement = PlacementManager::with_all_attached(PlacementMap::uniform(1, n));
    ShardedNode::new(env, ConsensusParams::default(), placement)
}

fn put(cmd: u64) -> ShardRequest<u64> {
    ShardRequest {
        shard: ShardId(0),
        cmd,
    }
}

/// The full pipeline of the paper in one run: (1) Ω elects a leader
/// communication-efficiently in system S; (2) consensus, driven by that Ω,
/// decides; (3) both theorems' checkers pass on the same trace style.
#[test]
fn omega_then_consensus_pipeline() {
    let n = 5;
    let topo = Topology::system_s(n, ProcessId(2), SystemSParams::default());

    // Stage 1: bare Ω.
    let mut sim = SimBuilder::new(n)
        .seed(1)
        .topology(topo.clone())
        .build_with(|env| CommEffOmega::new(env, OmegaParams::default()));
    sim.run_until(Instant::from_ticks(50_000));
    let trace: Vec<LeaderRecord> = sim
        .outputs()
        .iter()
        .map(|e| LeaderRecord {
            at: e.at,
            process: e.process,
            leader: e.output,
        })
        .collect();
    let correct: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    let stab = stabilization(&trace, &correct).expect("Ω must hold");
    assert!(stab.at <= tail_cut(sim.now(), 20));
    let omega_leader = stab.leader;

    // Stage 2: consensus over the same topology and seed elects the same
    // kind of leader and decides a proposed value.
    let mut csim = SimBuilder::new(n)
        .seed(1)
        .topology(topo)
        .build_with(|env| Consensus::new(env, ConsensusParams::default(), Some(env.id().0 as u64)));
    csim.run_until(Instant::from_ticks(80_000));
    let ds: Vec<DecisionRecord<u64>> = csim
        .outputs()
        .iter()
        .filter_map(|e| match &e.output {
            ConsensusEvent::Decided(v) => Some(DecisionRecord {
                at: e.at,
                process: e.process,
                value: *v,
            }),
            _ => None,
        })
        .collect();
    let proposals: Vec<u64> = (0..n as u64).collect();
    check_consensus_safety(&ds, &proposals).unwrap();
    assert_eq!(ds.len(), n);
    // The embedded Ω and the bare Ω are the same code over the same world:
    // identical seeds and topologies elect the same leader.
    assert_eq!(csim.node(ProcessId(0)).omega().leader(), omega_leader);
}

/// Determinism across the whole stack: identical configuration ⇒ identical
/// outputs, message counts and decisions, crate boundaries notwithstanding.
#[test]
fn full_stack_runs_are_reproducible() {
    let run = || {
        let n = 4;
        let topo = Topology::system_s(n, ProcessId(1), SystemSParams::default());
        let mut sim = SimBuilder::new(n)
            .seed(99)
            .topology(topo)
            .crash_at(ProcessId(3), Instant::from_ticks(7_000))
            .request_at(Instant::from_ticks(12_000), ProcessId(1), put(5))
            .build_with(|env| log_node(env, n));
        sim.run_until(Instant::from_ticks(40_000));
        let outs: Vec<String> = sim
            .outputs()
            .iter()
            .map(|e| format!("{}:{}:{:?}", e.at.ticks(), e.process, e.output))
            .collect();
        (outs, sim.stats().total_sent())
    };
    assert_eq!(run(), run());
}

/// The replicated log stays consistent even when the Ω layer churns: run
/// with an aggressive pre-GST phase so leadership changes several times
/// while commands are in flight.
#[test]
fn log_safety_through_leadership_churn() {
    let n = 5;
    let topo = Topology::system_s(
        n,
        ProcessId(4),
        SystemSParams {
            gst: 20_000, // long chaos phase
            pre_gst_loss: 0.8,
            mesh_loss: 0.4,
            ..SystemSParams::default()
        },
    );
    let mut builder = SimBuilder::new(n).seed(13).topology(topo);
    // Blast commands at several would-be leaders during the chaos.
    for k in 0..10u64 {
        for p in 0..n as u32 {
            builder =
                builder.request_at(Instant::from_ticks(1_000 + 700 * k), ProcessId(p), put(k));
        }
    }
    let mut sim = builder.build_with(|env| log_node(env, n));
    sim.run_until(Instant::from_ticks(150_000));

    let logs: Vec<BTreeMap<u64, Option<u64>>> = (0..n as u32)
        .map(|p| {
            sim.node(ProcessId(p))
                .group(ShardId(0))
                .expect("group 0")
                .chosen_log()
        })
        .collect();
    check_log_consistency(&logs).unwrap();
    // Liveness: after GST every submitted command value appears somewhere.
    let union: std::collections::BTreeSet<u64> = logs
        .iter()
        .flat_map(|l| l.values().flatten().copied())
        .collect();
    for k in 0..10u64 {
        assert!(union.contains(&k), "command {k} lost; union={union:?}");
    }
}

/// Ω's communication efficiency survives having the consensus machinery
/// stacked on top: after the last decision, the only steady senders are the
/// leader's heartbeats.
#[test]
fn stacked_protocol_still_quiesces_to_the_leader() {
    let n = 4;
    let topo = Topology::system_s(n, ProcessId(0), SystemSParams::default());
    let mut sim = SimBuilder::new(n)
        .seed(5)
        .topology(topo)
        .build_with(|env| Consensus::new(env, ConsensusParams::default(), Some(env.id().0 as u64)));
    sim.run_until(Instant::from_ticks(120_000));
    // Everybody decided…
    for p in (0..n as u32).map(ProcessId) {
        assert!(sim.node(p).decision().is_some(), "{p} undecided");
    }
    // …and the tail sender set is exactly the Ω leader.
    let cut = tail_cut(sim.now(), 10);
    let senders = sim.stats().senders_since(cut);
    let leader = sim.node(ProcessId(0)).omega().leader();
    assert_eq!(senders, vec![leader], "tail senders: {senders:?}");
}
