//! A distributed lock service on the replicated KV store: mutual exclusion
//! via `CAS`, with exactly-once semantics making client retries safe.
//!
//! Two clients race to acquire the same lock; CAS guarantees that exactly
//! one wins, every replica agrees on the winner, and the loser's retries
//! (including duplicated submissions) change nothing.
//!
//! Run with: `cargo run -p lls-examples --bin lock_service`

use consensus::shard::{PlacementManager, PlacementMap, ShardId};
use consensus::ConsensusParams;
use kvstore::{ClientId, KvCmd, KvResponse, ShardedKvEvent, ShardedKvNode, Tagged};

/// The store runs unsharded: one group per replica.
const SHARD: ShardId = ShardId(0);
use lls_primitives::{Instant, ProcessId};
use netsim::{SimBuilder, SystemSParams, Topology};

fn main() {
    let n = 5;
    let topo = Topology::system_s(n, ProcessId(0), SystemSParams::default());
    let mut sim = SimBuilder::new(n).seed(5).topology(topo).build_with(|env| {
        let placement = PlacementManager::with_all_attached(PlacementMap::uniform(1, n));
        ShardedKvNode::new(env, ConsensusParams::default(), placement)
    });

    sim.run_until(Instant::from_ticks(15_000));
    let leader = sim.node(ProcessId(0)).omega().leader();
    println!("lock service up; coordinator: {leader}\n");

    // Both clients try to acquire "lock:build" by CAS(absent → own name),
    // interleaved and each submitted twice (simulating retry-after-timeout).
    let acquire = |client: u64, name: &str, seq: u64| Tagged {
        client: ClientId(client),
        seq,
        cmd: KvCmd::cas("lock:build", None, name),
    };
    sim.schedule_request(Instant::from_ticks(15_100), leader, acquire(1, "alice", 1));
    sim.schedule_request(Instant::from_ticks(15_120), leader, acquire(2, "bob", 1));
    sim.schedule_request(Instant::from_ticks(15_300), leader, acquire(1, "alice", 1)); // retry
    sim.schedule_request(Instant::from_ticks(15_320), leader, acquire(2, "bob", 1)); // retry
    sim.run_until(Instant::from_ticks(40_000));

    let holder = sim
        .node(ProcessId(0))
        .state(SHARD)
        .expect("the store's one shard")
        .get("lock:build")
        .expect("someone must hold the lock")
        .to_owned();
    println!("lock holder everywhere:");
    for p in (0..n as u32).map(ProcessId) {
        let h = sim
            .node(p)
            .state(SHARD)
            .expect("the store's one shard")
            .get("lock:build")
            .unwrap();
        println!("  {p}: {h}");
        assert_eq!(h, holder);
    }

    // Inspect the per-command responses at the coordinator: exactly one
    // Applied, one CasFailed, and the retries suppressed as duplicates.
    let mut applied = 0;
    let mut failed = 0;
    let mut dups = 0;
    for e in sim.outputs().iter().filter(|e| e.process == leader) {
        if let ShardedKvEvent::Applied {
            response, client, ..
        } = &e.output
        {
            match response {
                KvResponse::Applied { .. } => {
                    applied += 1;
                    println!("\n{client} acquired the lock");
                }
                KvResponse::CasFailed { actual } => {
                    failed += 1;
                    println!("{client} lost the race (held by {actual:?})");
                }
                KvResponse::Duplicate => dups += 1,
                KvResponse::Value { .. } => {}
            }
        }
    }
    assert_eq!((applied, failed, dups), (1, 1, 2));
    println!("\n1 acquisition, 1 rejection, 2 duplicate retries suppressed ✓");

    // The holder releases; the loser immediately acquires.
    let loser = if holder == "alice" { 2 } else { 1 };
    let loser_name = if holder == "alice" { "bob" } else { "alice" };
    let winner = if holder == "alice" { 1 } else { 2 };
    sim.schedule_request(
        Instant::from_ticks(40_100),
        leader,
        Tagged {
            client: ClientId(winner),
            seq: 2,
            cmd: KvCmd::delete("lock:build"),
        },
    );
    sim.schedule_request(
        Instant::from_ticks(40_400),
        leader,
        Tagged {
            client: ClientId(loser),
            seq: 2,
            cmd: KvCmd::cas("lock:build", None, loser_name),
        },
    );
    sim.run_until(Instant::from_ticks(70_000));
    let new_holder = sim
        .node(ProcessId(1))
        .state(SHARD)
        .expect("the store's one shard")
        .get("lock:build")
        .unwrap();
    println!("after release, new holder: {new_holder}");
    assert_eq!(new_holder, loser_name);
}
