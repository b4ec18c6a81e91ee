//! The throughput path, end to end: a windowed client
//! ([`ShardedSubmitQueue`] over one shard) feeds a batching/pipelining
//! replicated KV store, and per-command replies are routed back out of
//! multi-command slots.
//!
//! The same 120-command workload runs twice on the deterministic
//! simulator: once with the one-slot-at-a-time baseline (`max_batch = 1`,
//! `pipeline_depth = 1`), once with the throughput knobs on. The batched
//! run finishes in a fraction of the virtual time and compresses the
//! workload into far fewer decided slots — without changing the applied
//! state, which both runs agree on.
//!
//! Run with: `cargo run -p lls-examples --bin pipelined_kv`

use consensus::shard::{PlacementManager, PlacementMap, ShardId};
use consensus::{BatchParams, ConsensusParams};
use kvstore::{ClientId, KvClient, KvCmd, ShardedKvEvent, ShardedKvNode, ShardedSubmitQueue};
use lls_primitives::{Duration, Instant, ProcessId};
use netsim::{SimBuilder, Topology};

const N: usize = 3;
const COMMANDS: u64 = 120;

/// Drives the full client protocol against one simulated cluster: submit
/// everything, drain up to the window, settle replies as slots decide,
/// repeat until idle. Returns (ticks-to-idle, decided slots, final value).
fn drive(max_batch: usize, pipeline_depth: usize) -> (u64, u64, Option<String>) {
    let params = ConsensusParams {
        batch: BatchParams {
            max_batch,
            pipeline_depth,
        },
        ..ConsensusParams::default()
    };
    let mut sim = SimBuilder::new(N)
        .seed(7)
        .topology(Topology::all_timely(N, Duration::from_ticks(2)))
        .build_with(|env| {
            let placement = PlacementManager::with_all_attached(PlacementMap::uniform(1, N));
            ShardedKvNode::new(env, params, placement)
        });

    // Stabilize, then aim the client at the elected leader.
    let start = 2_000u64;
    sim.run_until(Instant::from_ticks(start));
    let leader = sim.node(ProcessId(0)).omega().leader();

    // The client mints its whole workload up front; the queue releases at
    // most 16 commands to the wire at a time and coalesces the rest.
    let mut client = KvClient::new(ClientId(1));
    let mut queue = ShardedSubmitQueue::new(PlacementMap::uniform(1, N), 16);
    for i in 0..COMMANDS {
        queue.submit(client.issue(KvCmd::put("counter", format!("v{i}"))));
    }

    let mut now = start;
    let mut scanned = 0; // outputs consumed so far
    let mut settled = 0u64;
    while !queue.is_idle() && now < start + 60_000 {
        // Release what the window admits and put it on the (simulated) wire.
        for (_, cmds) in queue.drain() {
            for cmd in cmds {
                sim.schedule_request(Instant::from_ticks(now + 1), leader, cmd);
            }
        }
        now += 20;
        sim.run_until(Instant::from_ticks(now));
        // Route replies — one per command, even out of batched slots —
        // back to their originating commands.
        let outputs = sim.outputs();
        for ev in &outputs[scanned..] {
            if ev.process != leader {
                continue;
            }
            if let ShardedKvEvent::Applied {
                client,
                seq,
                ref response,
                ..
            } = ev.output
            {
                if queue.settle(client, seq, response).is_some() {
                    settled += 1;
                }
            }
        }
        scanned = outputs.len();
    }
    assert_eq!(settled, COMMANDS, "every command must settle exactly once");

    let group = sim.node(leader).node().group(ShardId(0));
    let slots = group.expect("the store's one shard").committed_len();
    let value = sim
        .node(ProcessId(1)) // a follower: replicas agree
        .state(ShardId(0))
        .expect("the store's one shard")
        .get("counter")
        .map(str::to_string);
    (now - start, slots, value)
}

fn main() {
    println!("workload: {COMMANDS} puts from one windowed client (window 16)\n");

    let (base_ticks, base_slots, base_value) = drive(1, 1);
    println!("baseline  (batch  1, depth 1): {base_ticks:>5} ticks, {base_slots:>3} decided slots");

    let (fast_ticks, fast_slots, fast_value) = drive(8, 4);
    println!("batched   (batch  8, depth 4): {fast_ticks:>5} ticks, {fast_slots:>3} decided slots");

    assert_eq!(
        base_value, fast_value,
        "both runs must apply the same state"
    );
    println!(
        "\nsame final state ({:?}), {:.1}x fewer slots, {:.1}x faster to idle",
        fast_value.unwrap_or_default(),
        base_slots as f64 / fast_slots as f64,
        base_ticks as f64 / fast_ticks as f64,
    );
}
