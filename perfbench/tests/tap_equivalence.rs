//! The reply tap is transparent: a seeded netsim cluster behind taps emits
//! exactly the outputs and messages it emits without them, and the tap's
//! notes are exactly the leader changes plus one reply per request.

use std::sync::atomic::AtomicBool;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant as StdInstant;

use consensus::shard::{classify_shard_msg, PlacementManager, PlacementMap};
use consensus::{BatchParams, ConsensusParams, LeaseParams};
use kvstore::{ClientId, KvCmd, ShardedKvEvent, ShardedKvNode, Tagged};
use lls_primitives::{Env, Instant, ProcessId, Sm};
use netsim::{SimBuilder, Simulator, Topology};
use perfbench::tap::{Recorder, Tap};

const N: usize = 3;
const SHARDS: u32 = 2;

fn params() -> ConsensusParams {
    ConsensusParams {
        batch: BatchParams {
            max_batch: 4,
            pipeline_depth: 4,
        },
        lease: LeaseParams::enabled(),
        ..ConsensusParams::default()
    }
}

fn node(env: &Env) -> ShardedKvNode {
    ShardedKvNode::new(
        env,
        params(),
        PlacementManager::with_all_attached(PlacementMap::uniform(SHARDS, N)),
    )
}

/// A seeded run: lossy, jittery links, puts and reads to every process, and the
/// first leader crashed halfway.
fn simulate<S>(seed: u64, make: impl FnMut(&Env) -> S) -> Simulator<S>
where
    S: Sm<Msg = perfbench::tap::Msg, Output = ShardedKvEvent, Request = Tagged<KvCmd>>,
{
    let mut b = SimBuilder::new(N)
        .seed(seed)
        .topology(Topology::fair_lossy_mesh(N, 0.05, 2))
        .classify(classify_shard_msg)
        .crash_at(ProcessId(0), Instant::from_ticks(3_000));
    for i in 0..300u64 {
        let cmd = if i % 3 == 0 {
            KvCmd::read(format!("k{}", i % 17))
        } else {
            KvCmd::put(format!("k{}", i % 17), format!("v{i}"))
        };
        b = b.request_at(
            Instant::from_ticks(400 + i * 17),
            ProcessId((i % N as u64) as u32),
            Tagged {
                client: ClientId(1),
                seq: i + 1,
                cmd,
            },
        );
    }
    let mut sim = b.build_with(make);
    sim.run_until(Instant::from_ticks(8_000));
    sim
}

#[test]
fn the_tap_changes_no_output_and_no_message() {
    for seed in [1, 2, 3] {
        let bare = simulate(seed, node);
        let (tx, rx) = mpsc::channel();
        let armed = Arc::new(AtomicBool::new(true));
        let sink = Arc::new(Mutex::new(Vec::new()));
        let epoch = StdInstant::now();
        let tapped = simulate(seed, |env| {
            let rec = Recorder::new(env.id(), N, Arc::clone(&armed), epoch, Arc::clone(&sink));
            Tap::new(node(env), tx.clone(), Some(rec))
        });
        assert!(
            !bare.outputs().is_empty(),
            "seed {seed}: the run did something"
        );
        assert_eq!(bare.outputs(), tapped.outputs(), "seed {seed}: outputs");
        assert_eq!(
            bare.stats().total_sent(),
            tapped.stats().total_sent(),
            "seed {seed}: messages"
        );
        assert_eq!(
            bare.stats().kind_counts(),
            tapped.stats().kind_counts(),
            "seed {seed}: messages by kind"
        );
        let leader_events = tapped
            .outputs()
            .iter()
            .filter(|o| matches!(o.output, ShardedKvEvent::Leader(_)))
            .count();
        drop(tapped);
        drop(tx);
        let notes: Vec<_> = rx.iter().collect();
        let leaders = notes
            .iter()
            .filter(|n| matches!(n.event, ShardedKvEvent::Leader(_)))
            .count();
        assert_eq!(
            leaders, leader_events,
            "seed {seed}: every leader change is noted"
        );
        let mut replies: Vec<u64> = notes
            .iter()
            .filter_map(|n| match n.event {
                ShardedKvEvent::Applied { seq, .. } => Some(seq),
                _ => None,
            })
            .collect();
        let all = replies.len();
        replies.sort_unstable();
        replies.dedup();
        assert_eq!(
            all,
            replies.len(),
            "seed {seed}: at most one reply per request"
        );
        assert!(!replies.is_empty(), "seed {seed}: requests were answered");
        let traces = sink.lock().expect("sink").clone();
        assert_eq!(
            traces.len(),
            N,
            "seed {seed}: every node published its trace"
        );
        assert!(traces.iter().any(|t| !t.spans.is_empty()));
    }
}
