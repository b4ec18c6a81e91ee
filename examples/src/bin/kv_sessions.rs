//! Exactly-once client sessions against the replicated KV store: a client
//! that aggressively retries every command (as real clients do after
//! timeouts) never double-applies, thanks to `(client, seq)` session tags.
//!
//! Run with: `cargo run -p lls-examples --bin kv_sessions`

use consensus::shard::{PlacementManager, PlacementMap, ShardId};
use consensus::ConsensusParams;
use kvstore::{ClientId, KvCmd, ShardedKvNode, Tagged};

/// The store runs unsharded: one group per replica.
const SHARD: ShardId = ShardId(0);
use lls_primitives::{Instant, ProcessId};
use netsim::{SimBuilder, SystemSParams, Topology};

fn main() {
    let n = 5;
    let topo = Topology::system_s(n, ProcessId(0), SystemSParams::default());
    let mut sim = SimBuilder::new(n)
        .seed(21)
        .topology(topo)
        .build_with(|env| {
            let placement = PlacementManager::with_all_attached(PlacementMap::uniform(1, n));
            ShardedKvNode::new(env, ConsensusParams::default(), placement)
        });

    sim.run_until(Instant::from_ticks(15_000));
    let leader = sim.node(ProcessId(0)).omega().leader();
    println!("stable leader: {leader}\n");

    // A bank-account style workload from two clients, each retrying every
    // command 3 times. Balance updates use CAS so lost updates are
    // impossible even if the clients interleave.
    let mut t = 15_100;
    let mut submit =
        |sim: &mut netsim::Simulator<ShardedKvNode>, client: u64, seq: u64, cmd: KvCmd| {
            for _ in 0..3 {
                sim.schedule_request(
                    Instant::from_ticks(t),
                    leader,
                    Tagged {
                        client: ClientId(client),
                        seq,
                        cmd: cmd.clone(),
                    },
                );
                t += 80;
            }
        };
    submit(&mut sim, 1, 1, KvCmd::put("balance", "100"));
    submit(&mut sim, 1, 2, KvCmd::cas("balance", Some("100"), "150"));
    submit(&mut sim, 2, 1, KvCmd::cas("balance", Some("150"), "90"));
    submit(&mut sim, 2, 2, KvCmd::put("audit", "client2 withdrew 60"));
    sim.run_until(Instant::from_ticks(80_000));

    println!("=== per-replica state ===");
    for p in (0..n as u32).map(ProcessId) {
        let st = sim.node(p).state(SHARD).expect("the store's one shard");
        println!(
            "  {p}: balance={:?} applied={} duplicates_suppressed={}",
            st.get("balance"),
            st.applied_count(),
            st.duplicate_count()
        );
    }

    let st = sim
        .node(ProcessId(0))
        .state(SHARD)
        .expect("the store's one shard");
    assert_eq!(st.get("balance"), Some("90"), "lost update!");
    assert_eq!(st.applied_count(), 4, "retries were double-applied!");
    assert_eq!(st.duplicate_count(), 8);
    println!("\n12 submissions, 4 applications, 8 duplicates suppressed ✓");
    println!("final balance consistent at every replica ✓");
}
