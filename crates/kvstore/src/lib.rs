//! A replicated key-value store on the limited-link-synchrony consensus
//! stack — the kind of application the paper's consensus result exists to
//! serve, packaged as a library a downstream user can adopt.
//!
//! Architecture (bottom to top):
//!
//! 1. [`omega`]'s communication-efficient Ω elects and maintains the leader,
//!    one detector per node;
//! 2. [`consensus`]'s [`ShardedNode`](consensus::ShardedNode) orders
//!    [`Tagged`] commands into the slots of S replicated-log groups with a
//!    Multi-Paxos-style steady state (S = 1 is the unsharded log);
//! 3. this crate's [`ShardedKvNode`] routes each command to the group that
//!    owns its key and applies committed commands to that shard's
//!    [`KvState`] deterministically, with **exactly-once** semantics per
//!    client session: every command carries a `(client, seq)` tag, and a
//!    command whose tag was already applied is skipped (clients retry
//!    safely — e.g. after a leader change — without double-applying).
//!
//! # Example
//!
//! ```
//! use consensus::shard::{PlacementManager, PlacementMap, ShardId};
//! use kvstore::{ClientId, KvCmd, ShardedKvNode, Tagged};
//! use consensus::ConsensusParams;
//! use lls_primitives::{Duration, Instant, ProcessId};
//! use netsim::{SimBuilder, Topology};
//!
//! let n = 3;
//! let cmd = |seq, k: &str, v: &str| Tagged {
//!     client: ClientId(1),
//!     seq,
//!     cmd: KvCmd::put(k, v),
//! };
//! let mut sim = SimBuilder::new(n)
//!     .topology(Topology::all_timely(n, Duration::from_ticks(2)))
//!     .request_at(Instant::from_ticks(500), ProcessId(0), cmd(1, "k", "v1"))
//!     .request_at(Instant::from_ticks(600), ProcessId(0), cmd(1, "k", "v1")) // dup!
//!     .request_at(Instant::from_ticks(700), ProcessId(0), cmd(2, "k", "v2"))
//!     .build_with(|env| {
//!         let placement = PlacementManager::with_all_attached(PlacementMap::uniform(1, n));
//!         ShardedKvNode::new(env, ConsensusParams::default(), placement)
//!     });
//! sim.run_until(Instant::from_ticks(10_000));
//!
//! // All replicas hold the same state; the duplicate was applied once.
//! for p in 0..n as u32 {
//!     let store = sim.node(ProcessId(p)).state(ShardId(0)).unwrap();
//!     assert_eq!(store.get("k"), Some("v2"));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod client;
mod command;
mod sharded;
mod state;
mod submit;

pub use client::KvClient;
pub use command::{ClientId, KvCmd, KvResponse, Tagged};
pub use sharded::{ShardedKvEvent, ShardedKvNode, ShardedSubmitQueue};
pub use state::KvState;
pub use submit::Settled;
