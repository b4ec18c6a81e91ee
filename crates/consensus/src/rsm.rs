//! Repeated consensus: a replicated log in the Multi-Paxos style, gated by
//! the embedded communication-efficient Ω detector.
//!
//! The point of this module is the paper's *communication-efficient
//! consensus* claim: once Ω stabilizes on a leader `ℓ` after GST, `ℓ` runs
//! the ballot (phase-1) handshake **once** for all future slots, and every
//! subsequent command commits in a single `Accept`/`Accepted` round trip —
//! Θ(n) messages per decision, all sent by or addressed to `ℓ`: 2(n−1) when
//! the decision rides the next `Accept`, 4(n−1) when it needs its own
//! `Decide`/`DecideAck`. Experiment E7 measures the latter steady state.
//!
//! Mechanics:
//!
//! * One [`Ballot`] covers every slot from `from_slot` on; acceptors promise
//!   it once and reveal everything they accepted at or above that slot.
//! * A newly `Led` leader re-proposes inherited entries, plugs the gaps left
//!   by its predecessor with [`Entry::Noop`], then drains its pending command
//!   queue into fresh slots.
//! * A slot the leader chose through its own ballot's `Accepted` quorum is
//!   announced on the next `Accept` (its `decided` list): an acceptor
//!   holding that ballot's vote at the slot holds the chosen entry, learns
//!   it in the same WAL write as its new vote, and acknowledges it with the
//!   emission cursor on its `Accepted`. When no `Accept` leaves within one
//!   tick, a flush timer sends a plain `Decide` instead.
//! * Every other decision — a slot learned from another leader, or
//!   re-announced after an election — is broadcast as `Decide`. Trackers
//!   retransmit to each peer that has not acknowledged within a retry
//!   period (fair-lossy links), and every process emits
//!   [`RsmEvent::Committed`] in strict slot order.
//!
//! # Throughput path: batching and pipelining
//!
//! The steady-state fast path scales past one-command-per-round-trip with
//! two knobs in [`BatchParams`](omega::BatchParams)
//! (`ConsensusParams::batch`):
//!
//! * **Batching** — up to `max_batch` queued commands coalesce into one
//!   [`Entry::Batch`], decided atomically in a single slot (one accept
//!   round trip, one WAL record, one `Decide` for the whole batch);
//! * **Pipelining** — up to `pipeline_depth` slots may be awaiting their
//!   quorums concurrently; commands arriving while the pipeline is full
//!   queue in `pending` and coalesce into the next batch.
//!
//! All new `Accepted` WAL records minted by one pump of the pipeline are
//! persisted as a *single group* ([`StorageHandle::append_records`]) — one
//! fsync-equivalent flush per pump, not per slot — so durability does not
//! serialize the pipeline. Neither knob touches safety: every slot is still
//! chosen by the ordinary ballot/quorum rules, a batch is just one entry
//! whose payload happens to hold several commands, and the write-ahead rule
//! (records durable before the handler returns, hence before any `Accept`
//! leaves) is preserved verbatim. Experiment E19 measures the resulting
//! decided-commands/sec and latency percentiles.
//!
//! # Bounded recovery: snapshots, compaction, and snapshot-install catch-up
//!
//! Without compaction the WAL grows with uptime and a restarted replica
//! replays its whole history. With a [`SnapshotHandle`] attached
//! ([`ReplicatedLog::with_storage_and_snapshots`]), the application may call
//! [`ReplicatedLog::compact`] after applying a prefix: the serialized state
//! at `watermark` is installed durably *first* (atomic tmp-then-rename in
//! the file backend), then the WAL is rewritten to only the live records
//! (latest Ω counter, latest promise, accepted/chosen entries at or above
//! the watermark), then the in-memory maps drop the covered prefix. A crash
//! between the two installs replays a superset — never a subset — of the
//! compacted state, so the durable-prefix safety envelope of
//! [`crate::durable`] is preserved (see row "compaction" there).
//!
//! Catch-up changes shape once logs can be compacted. A laggard whose gap
//! lies *above* every peer's watermark is served plain `Decide`s via
//! [`RsmMsg::CatchUp`]; a laggard whose gap dips *below* a peer's watermark
//! (it was down long enough for the cluster to compact, or it is a fresh
//! replacement) is served a chunked, CRC-checked snapshot transfer
//! (`SnapshotOffer`/`SnapshotChunk`/`SnapshotAck`, retransmitted with
//! jittered exponential backoff), installs it, emits
//! [`RsmEvent::SnapshotInstalled`], and resumes Decide streaming at the
//! watermark. Symmetrically, a *new leader* never no-op-fills a slot below
//! the highest `low_slot` any promiser reported — those slots are chosen
//! somewhere (possibly compacted away); it fetches them by `CatchUp`
//! instead. Experiment E21 exercises all of this under sustained chaos.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use lls_obs::{CmdId, CmdStage, NoopProbe, Probe, ProbeEvent};
use lls_primitives::wire::crc32;
use lls_primitives::{
    Ctx, Duration, Effects, Env, Instant, ProcessId, Sm, Snapshot, SnapshotHandle, StorageError,
    StorageHandle, StorageStats, TimerCmd, TimerId, Wire,
};
use omega::{CommEffOmega, OmegaMsg};
use serde::{Deserialize, Serialize};

use crate::ballot::Ballot;
use crate::durable::RsmRecord;
use crate::msg::{Entry, RsmMsg};
use crate::single::{ConsensusParams, OMEGA_TIMER_BASE, RETRY_TIMER};

/// Extracts a client-visible [`CmdId`] from a command payload, letting the
/// replicated log emit per-command [`CmdStage`] lifecycle events without
/// knowing the application's command shape. Payloads without a meaningful
/// identity return `None` and stay invisible to latency attribution (their
/// slots still decide and commit exactly as before).
pub trait LifecycleId {
    /// The command's lifecycle identity, if it has one.
    fn lifecycle_id(&self) -> Option<CmdId>;
}

/// Bare `u64` payloads (the benches and consensus tests) use the value
/// itself as the sequence number under a synthetic client 0.
impl LifecycleId for u64 {
    fn lifecycle_id(&self) -> Option<CmdId> {
        Some(CmdId {
            client: 0,
            seq: *self,
        })
    }
}

/// Observable events of a [`ReplicatedLog`] run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RsmEvent<V> {
    /// The embedded Ω detector changed its output.
    Leader(ProcessId),
    /// Slot `slot` committed (emitted in strict slot order at each process).
    /// `cmd` is `None` for no-op filler slots.
    Committed {
        /// The slot index.
        slot: u64,
        /// The committed command, if not a no-op.
        cmd: Option<V>,
    },
    /// A snapshot transfer completed: the application must replace its
    /// materialized state with `state` (its own serialization at
    /// `watermark`) before consuming any further `Committed` events — the
    /// log prefix below the watermark will never be emitted here.
    SnapshotInstalled {
        /// First slot not covered by the installed state.
        watermark: u64,
        /// The application state blob, exactly as a peer serialized it.
        state: Vec<u8>,
    },
    /// Answer to [`ReplicatedLog::request_read_index`]: the read tagged
    /// `req` is linearizable once this replica has applied `index`
    /// contiguous slots. Produced locally by a leaseholding leader, or on
    /// receipt of the leaseholder's [`RsmMsg::ReadIndexReply`].
    ReadIndexAt {
        /// The request token passed to `request_read_index`.
        req: u64,
        /// The committed length to wait for before serving the read.
        index: u64,
    },
}

#[derive(Debug, Clone)]
enum LeaderState<V> {
    Follower,
    Preparing {
        b: Ballot,
        from_slot: u64,
        promised_by: Vec<bool>,
        gathered: BTreeMap<u64, (Ballot, Entry<V>)>,
        /// Each promiser's `low_slot` (first slot it does not know chosen).
        /// Slots below the max over the promising quorum are chosen
        /// *somewhere* and must never be no-op-filled.
        low_slots: Vec<u64>,
    },
    Led {
        b: Ballot,
        next_slot: u64,
    },
}

#[derive(Debug, Clone)]
struct Inflight<V> {
    entry: Entry<V>,
    acks: Vec<bool>,
}

/// Which peers acknowledged one chosen slot this replica announces.
#[derive(Debug, Clone)]
struct DecideTracker {
    acks: Vec<bool>,
    /// Tracked since the last retry tick: its announcement — a `Decide`, or
    /// the `decided` list on an `Accept`, answered by the cursor on the
    /// next `Accepted` — may still be in flight, so that tick skips it.
    fresh: bool,
}

/// Bytes per [`RsmMsg::SnapshotChunk`] — small enough to stay far below the
/// wire codec's frame cap with envelope overhead, large enough that real
/// state blobs move in few round trips.
const SNAP_CHUNK_BYTES: usize = 32 * 1024;

/// Retransmission rounds before an outgoing snapshot transfer is abandoned
/// (a fresh `CatchUp` from the peer restarts it from scratch).
const SNAP_MAX_ATTEMPTS: u32 = 10;

/// One-tick timer that announces chosen slots as plain `Decide`s when no
/// `Accept` left to carry them (see [`ReplicatedLog::flush_decides`]).
pub(crate) const DECIDE_TIMER: TimerId = TimerId(1);

/// The flush delay: the substrate's one-tick resolution, so follower apply
/// lags the leader by at most one tick more than with an immediate `Decide`.
const DECIDE_DELAY: Duration = Duration::from_ticks(1);

/// Max `Decide`s served per `CatchUp` request — the laggard re-requests as
/// it advances, so one huge burst never floods a link.
const CATCHUP_BURST: usize = 128;

/// splitmix64 — the deterministic hash behind retransmission jitter (no RNG
/// dependency; the same seeds always produce the same schedule, which keeps
/// netsim campaigns reproducible).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Sender side of one snapshot transfer to one peer.
#[derive(Debug, Clone)]
struct OutgoingSnapshot {
    watermark: u64,
    crc: u32,
    chunks: Vec<Vec<u8>>,
    acked: Vec<bool>,
    attempt: u32,
    cooldown: u32,
}

/// Receiver side of the (single) in-progress snapshot transfer.
#[derive(Debug, Clone)]
struct IncomingSnapshot {
    watermark: u64,
    chunks: u32,
    crc: u32,
    parts: Vec<Option<Vec<u8>>>,
}

/// A replicated log: repeated consensus with a stable-leader fast path.
///
/// # Example
///
/// ```
/// use consensus::{ReplicatedLog, ConsensusParams, RsmEvent};
/// use lls_primitives::{Duration, Instant, ProcessId};
/// use netsim::{SimBuilder, Topology};
///
/// let n = 3;
/// let mut sim = SimBuilder::new(n)
///     .topology(Topology::all_timely(n, Duration::from_ticks(2)))
///     .request_at(Instant::from_ticks(500), ProcessId(0), 7u64)
///     .request_at(Instant::from_ticks(600), ProcessId(0), 8u64)
///     .build_with(|env| ReplicatedLog::new(env, ConsensusParams::default()));
/// sim.run_until(Instant::from_ticks(5_000));
/// let committed: Vec<u64> = sim.node(ProcessId(1)).committed_commands().cloned().collect();
/// assert_eq!(committed, vec![7, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct ReplicatedLog<V, P: Probe = NoopProbe> {
    env: Env,
    params: ConsensusParams,
    omega: CommEffOmega<P>,
    // Acceptor state.
    promised: Ballot,
    accepted: BTreeMap<u64, (Ballot, Entry<V>)>,
    // Learner state.
    chosen: BTreeMap<u64, Entry<V>>,
    emitted_upto: u64,
    // Leader state.
    state: LeaderState<V>,
    highest_seen: Ballot,
    pending: VecDeque<V>,
    inflight: BTreeMap<u64, Inflight<V>>,
    decide_trackers: BTreeMap<u64, DecideTracker>,
    /// Slots this leader chose through its own `Accepted` quorum at its
    /// current ballot whose `Decide` has not left yet. The next `Accept`
    /// carries them (its `decided` list); [`DECIDE_TIMER`] sends them as
    /// plain `Decide`s when no `Accept` leaves within a tick.
    undelivered: Vec<u64>,
    /// Peers that had not acknowledged a Decide when compaction pruned its
    /// tracker. The Decide bytes no longer exist here, so the next retry
    /// tick serves these peers a snapshot transfer instead — a peer missing
    /// the *final* slot has no later chosen slot to trigger its own
    /// CatchUp, and would otherwise never converge in a quiet cluster.
    snapshot_debtors: BTreeSet<ProcessId>,
    /// Highest log frontier overheard from peers: a `CatchUp { low_slot }`
    /// advertises that its sender has emitted everything below `low_slot`,
    /// and a snapshot offer advertises its watermark. Evidence that slots
    /// up to the frontier exist even when we hold nothing above our cursor
    /// — the case after the decider of our missing suffix crashed (its
    /// in-memory retransmission state dies with it) and rejoined.
    known_frontier: u64,
    // Durability (see `crate::durable` for the safety arguments).
    storage: Option<StorageHandle>,
    wedged: bool,
    // Snapshots + compaction (see the module docs).
    snapshots: Option<SnapshotHandle>,
    /// First slot *not* covered by the latest durable snapshot. Everything
    /// below is chosen, applied, and may be absent from WAL and maps.
    watermark: u64,
    /// The snapshot a `with_storage_and_snapshots` constructor recovered,
    /// for the application to rebuild its state from.
    recovered_snapshot: Option<Snapshot>,
    /// Whether this incarnation recovered non-empty durable state (it then
    /// broadcasts one `CatchUp` on start to find where the log has moved).
    recovered: bool,
    outgoing_snaps: BTreeMap<ProcessId, OutgoingSnapshot>,
    incoming_snap: Option<IncomingSnapshot>,
    // External-leadership mode: the embedded Ω is inert and leadership is
    // injected via `set_leader` (one shared Ω per node drives many groups).
    external: bool,
    believed: Option<ProcessId>,
    // Leader leases (see `LeaseParams`). All of this state is *volatile by
    // design*: a restarted replica forgets both sides of every lease, and
    // the boot blackout in `on_start` covers the forgotten promises.
    /// Granter side: until when this replica refuses to promise (or start)
    /// a ballot from anyone but `holdoff_for` on its own clock.
    holdoff_until: Instant,
    /// The leaseholder the current holdoff protects (`None` during the
    /// boot blackout, which protects *whoever* held a lease pre-crash).
    holdoff_for: Option<ProcessId>,
    /// Leader side: conservative local expiry of the active lease.
    lease_until: Option<Instant>,
    /// Grant-round number, monotone within this incarnation and ballot.
    lease_seq: u64,
    /// Start of the in-flight grant round on this (leader) clock — the
    /// anchor the serving window is measured from.
    lease_round_start: Instant,
    /// Per-process acks of the in-flight grant round.
    lease_acks: Vec<bool>,
    /// Shard tag stamped on lease/read probe events (0 when unsharded; a
    /// log embedded in a sharded node doesn't otherwise know its group).
    probe_shard: u32,
    /// Observability sink; `NoopProbe` by default (zero cost).
    probe: P,
    /// Wall of the last stimulus (`ctx.now()` at handler entry) — gives the
    /// persistence path a timestamp without threading `ctx` through it.
    clock: Instant,
}

impl<V> ReplicatedLog<V>
where
    V: Clone + Eq + fmt::Debug + Send + Wire + LifecycleId + 'static,
{
    /// Creates a replica.
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters are invalid.
    pub fn new(env: &Env, params: ConsensusParams) -> Self {
        ReplicatedLog::new_with_probe(env, params, NoopProbe)
    }

    /// Creates a replica backed by a durable log, recovering the promised
    /// ballot, accepted entries, chosen prefix and Ω counter a previous
    /// incarnation persisted.
    ///
    /// Recovery runs synchronously before any stimulus (the "recovering
    /// rejoin mode"). Recovered chosen slots are restored *without*
    /// re-emitting their `Committed` outputs — the pre-crash incarnation
    /// already emitted them; applications rebuilding state after a restart
    /// read [`Self::chosen_log`] / [`Self::committed_commands`] instead. The
    /// recovered Ω counter is bumped once so the restarted replica rejoins
    /// as a follower. See [`crate::durable`] for the per-field safety
    /// arguments.
    ///
    /// # Errors
    ///
    /// Fails if the log cannot be read or the boot record cannot be written.
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters are invalid.
    pub fn with_storage(
        env: &Env,
        params: ConsensusParams,
        storage: StorageHandle,
    ) -> Result<Self, StorageError> {
        ReplicatedLog::with_storage_and_probe(env, params, storage, NoopProbe)
    }

    /// Like [`ReplicatedLog::with_storage`], additionally attaching a
    /// snapshot store (see
    /// [`ReplicatedLog::with_storage_snapshots_and_probe`]).
    ///
    /// # Errors
    ///
    /// Fails if the log or snapshot store cannot be read or the boot record
    /// cannot be written.
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters are invalid.
    pub fn with_storage_and_snapshots(
        env: &Env,
        params: ConsensusParams,
        storage: StorageHandle,
        snapshots: SnapshotHandle,
    ) -> Result<Self, StorageError> {
        ReplicatedLog::with_storage_snapshots_and_probe(env, params, storage, snapshots, NoopProbe)
    }
}

impl<V, P> ReplicatedLog<V, P>
where
    V: Clone + Eq + fmt::Debug + Send + Wire + LifecycleId + 'static,
    P: Probe,
{
    /// Like [`ReplicatedLog::new`], with an observability probe (shared
    /// with the embedded Ω detector, so one sink sees both layers).
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters are invalid.
    pub fn new_with_probe(env: &Env, params: ConsensusParams, probe: P) -> Self {
        ReplicatedLog {
            env: *env,
            params,
            omega: CommEffOmega::new_with_probe(env, params.omega, probe.clone()),
            promised: Ballot::ZERO,
            accepted: BTreeMap::new(),
            chosen: BTreeMap::new(),
            emitted_upto: 0,
            state: LeaderState::Follower,
            highest_seen: Ballot::ZERO,
            pending: VecDeque::new(),
            inflight: BTreeMap::new(),
            decide_trackers: BTreeMap::new(),
            undelivered: Vec::new(),
            snapshot_debtors: BTreeSet::new(),
            known_frontier: 0,
            storage: None,
            wedged: false,
            snapshots: None,
            watermark: 0,
            recovered_snapshot: None,
            recovered: false,
            outgoing_snaps: BTreeMap::new(),
            incoming_snap: None,
            external: false,
            believed: None,
            holdoff_until: Instant::ZERO,
            holdoff_for: None,
            lease_until: None,
            lease_seq: 0,
            lease_round_start: Instant::ZERO,
            lease_acks: vec![false; env.n()],
            probe_shard: 0,
            probe,
            clock: Instant::ZERO,
        }
    }

    /// Like [`ReplicatedLog::new`], but in *external-leadership* mode: the
    /// embedded Ω detector stays inert (no heartbeats, no timers, Ω
    /// messages dropped) and leadership is injected with
    /// [`ReplicatedLog::set_leader`] instead. This is how a node hosting
    /// many co-located shard groups shares **one** Ω across all of them —
    /// steady-state election traffic stays independent of the group count.
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters are invalid.
    pub fn new_externally_led(env: &Env, params: ConsensusParams) -> Self
    where
        P: Default,
    {
        let mut sm = ReplicatedLog::new_with_probe(env, params, P::default());
        sm.external = true;
        sm
    }

    /// Like [`ReplicatedLog::new_externally_led`], with an observability
    /// probe.
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters are invalid.
    pub fn new_externally_led_with_probe(env: &Env, params: ConsensusParams, probe: P) -> Self {
        let mut sm = ReplicatedLog::new_with_probe(env, params, probe);
        sm.external = true;
        sm
    }

    /// Like [`ReplicatedLog::with_storage_and_probe`], but in
    /// external-leadership mode (see
    /// [`ReplicatedLog::new_externally_led`]): the group recovers its own
    /// WAL segment exactly as usual, then waits for leadership from the
    /// shared detector.
    ///
    /// # Errors
    ///
    /// Fails if the log cannot be read or the boot record cannot be written.
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters are invalid.
    pub fn with_storage_externally_led(
        env: &Env,
        params: ConsensusParams,
        storage: StorageHandle,
        probe: P,
    ) -> Result<Self, StorageError> {
        let mut sm = ReplicatedLog::with_storage_and_probe(env, params, storage, probe)?;
        sm.external = true;
        Ok(sm)
    }

    /// Like [`ReplicatedLog::with_storage`], with an observability probe.
    ///
    /// # Errors
    ///
    /// Fails if the log cannot be read or the boot record cannot be written.
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters are invalid.
    pub fn with_storage_and_probe(
        env: &Env,
        params: ConsensusParams,
        storage: StorageHandle,
        probe: P,
    ) -> Result<Self, StorageError> {
        let mut sm = ReplicatedLog::new_with_probe(env, params, probe);
        let records: Vec<RsmRecord<V>> = storage.load_records()?;
        sm.probe.emit(ProbeEvent::WalRecover {
            node: env.id(),
            at: Instant::ZERO,
            records: records.len() as u64,
        });
        // The WAL bytes just replayed are exactly what snapshots exist to
        // bound — surfaced as the `recovery_replay_bytes` counter.
        sm.probe.emit(ProbeEvent::RecoveryReplay {
            node: env.id(),
            at: Instant::ZERO,
            bytes: storage.stats().live_bytes,
        });
        let recovering = !records.is_empty();
        sm.recovered = recovering;
        let mut omega_counter = 0u64;
        for rec in records {
            match rec {
                RsmRecord::OmegaCounter(c) => omega_counter = omega_counter.max(c),
                RsmRecord::Promised(b) => sm.promised = sm.promised.max(b),
                RsmRecord::Accepted { slot, b, entry } => {
                    sm.promised = sm.promised.max(b);
                    match sm.accepted.get(&slot) {
                        Some((prev, _)) if *prev > b => {}
                        _ => {
                            sm.accepted.insert(slot, (b, entry));
                        }
                    }
                }
                RsmRecord::Chosen { slot, entry } => {
                    sm.chosen.entry(slot).or_insert(entry);
                }
            }
        }
        sm.highest_seen = sm.promised;
        // Quietly advance past the contiguous recovered prefix: those
        // Committed events were already emitted by the previous incarnation.
        while sm.chosen.contains_key(&sm.emitted_upto) {
            sm.emitted_upto += 1;
        }
        let boot_counter = if recovering {
            omega_counter.saturating_add(1)
        } else {
            0
        };
        storage.append_record(&RsmRecord::<V>::OmegaCounter(boot_counter))?;
        sm.omega.restore_own_counter(boot_counter);
        sm.storage = Some(storage);
        Ok(sm)
    }

    /// Like [`ReplicatedLog::with_storage_and_probe`], additionally
    /// attaching a snapshot store: any snapshot it holds floors the
    /// replica's watermark before WAL replay semantics apply (records below
    /// the watermark are covered by the snapshot and ignored), and
    /// [`ReplicatedLog::compact`] becomes available. The recovered snapshot
    /// blob is exposed through [`ReplicatedLog::recovered_snapshot`] for the
    /// application to rebuild its state from.
    ///
    /// # Errors
    ///
    /// Fails if the log or snapshot store cannot be read, or the boot
    /// record cannot be written.
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters are invalid.
    pub fn with_storage_snapshots_and_probe(
        env: &Env,
        params: ConsensusParams,
        storage: StorageHandle,
        snapshots: SnapshotHandle,
        probe: P,
    ) -> Result<Self, StorageError> {
        let mut sm = ReplicatedLog::with_storage_and_probe(env, params, storage, probe)?;
        sm.attach_snapshots(snapshots)?;
        Ok(sm)
    }

    /// Like [`ReplicatedLog::with_storage_snapshots_and_probe`], in
    /// external-leadership mode (see [`ReplicatedLog::new_externally_led`]).
    ///
    /// # Errors
    ///
    /// Fails if the log or snapshot store cannot be read, or the boot
    /// record cannot be written.
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters are invalid.
    pub fn with_storage_snapshots_externally_led(
        env: &Env,
        params: ConsensusParams,
        storage: StorageHandle,
        snapshots: SnapshotHandle,
        probe: P,
    ) -> Result<Self, StorageError> {
        let mut sm = ReplicatedLog::with_storage_snapshots_and_probe(
            env, params, storage, snapshots, probe,
        )?;
        sm.external = true;
        Ok(sm)
    }

    /// Loads the snapshot store's current snapshot (if any), floors the
    /// replica at its watermark, and keeps the handle for
    /// [`ReplicatedLog::compact`].
    fn attach_snapshots(&mut self, snapshots: SnapshotHandle) -> Result<(), StorageError> {
        if let Some(snap) = snapshots.load()? {
            self.recovered = true;
            self.apply_watermark(snap.watermark);
            // Quiet advance, as in WAL recovery: the pre-crash incarnation
            // already emitted everything contiguous above the watermark.
            while self.chosen.contains_key(&self.emitted_upto) {
                self.emitted_upto += 1;
            }
            self.recovered_snapshot = Some(snap);
        }
        self.snapshots = Some(snapshots);
        Ok(())
    }

    /// Floors the replica at `watermark`: drops acceptor/learner state below
    /// it (all of it is chosen and covered by a snapshot) and advances the
    /// emission cursor to at least the watermark. Emits nothing — callers on
    /// the live path drain committed events themselves *after* announcing
    /// the snapshot.
    fn apply_watermark(&mut self, watermark: u64) {
        if watermark <= self.watermark {
            return;
        }
        self.watermark = watermark;
        self.accepted = self.accepted.split_off(&watermark);
        self.chosen = self.chosen.split_off(&watermark);
        // Pruning a tracker that still has unacknowledged peers would drop
        // their retransmission silently; remember them as snapshot debtors
        // so the next retry tick serves them a state transfer instead.
        let mut owed: Vec<ProcessId> = Vec::new();
        for (_, tracker) in self.decide_trackers.range(..watermark) {
            for q in self.env.membership().others(self.me()) {
                if !tracker.acks[q.as_usize()] {
                    owed.push(q);
                }
            }
        }
        self.snapshot_debtors.extend(owed);
        self.decide_trackers = self.decide_trackers.split_off(&watermark);
        if self.emitted_upto < watermark {
            self.emitted_upto = watermark;
        }
    }

    /// The records that must survive a WAL rewrite at the current horizon:
    /// the latest Ω counter and promise, and every accepted/chosen entry at
    /// or above the watermark.
    fn live_records(&self) -> Vec<RsmRecord<V>> {
        let mut live: Vec<RsmRecord<V>> =
            Vec::with_capacity(2 + self.accepted.len() + self.chosen.len());
        live.push(RsmRecord::OmegaCounter(self.omega.own_counter()));
        live.push(RsmRecord::Promised(self.promised));
        for (slot, (b, entry)) in &self.accepted {
            live.push(RsmRecord::Accepted {
                slot: *slot,
                b: *b,
                entry: entry.clone(),
            });
        }
        for (slot, entry) in &self.chosen {
            live.push(RsmRecord::Chosen {
                slot: *slot,
                entry: entry.clone(),
            });
        }
        live
    }

    /// Durably snapshots the application's serialized `state` at `watermark`
    /// and truncates the WAL behind it, bounding both disk use and future
    /// recovery replay. Ordering is the whole safety argument: the snapshot
    /// is installed durably *first*, then the WAL is rewritten to only the
    /// live records, then the in-memory maps drop the covered prefix — a
    /// crash between any two steps recovers a superset of the compacted
    /// state. `watermark` is clamped to the contiguously committed prefix
    /// (state can only describe applied slots).
    ///
    /// Returns `Ok(false)` (and does nothing) when no snapshot store is
    /// attached, the replica is wedged, or the clamped watermark does not
    /// advance. Call it from the application after applying commands — e.g.
    /// every N applied commands.
    ///
    /// # Errors
    ///
    /// Fails (wedging the replica, on the WAL-rewrite step) if persistence
    /// fails — a replica that cannot compact safely must fall silent rather
    /// than risk serving an uncovered prefix.
    pub fn compact(&mut self, watermark: u64, state: Vec<u8>) -> Result<bool, StorageError> {
        if self.wedged {
            return Ok(false);
        }
        let Some(snaps) = self.snapshots.clone() else {
            return Ok(false);
        };
        let watermark = watermark.min(self.emitted_upto);
        if watermark <= self.watermark {
            return Ok(false);
        }
        // 1. Snapshot durable first.
        snaps.install(&Snapshot {
            watermark,
            data: state,
        })?;
        // 2. In-memory horizon defines the live set…
        self.apply_watermark(watermark);
        // 3. …and the WAL is rewritten to exactly that set.
        if let Some(store) = self.storage.clone() {
            if let Err(e) = store.compact_records(&self.live_records()) {
                self.probe.emit(ProbeEvent::WalWedge {
                    node: self.me(),
                    at: self.clock,
                });
                self.wedged = true;
                return Err(e);
            }
        }
        self.probe.emit(ProbeEvent::SnapshotWrite {
            node: self.me(),
            at: self.clock,
            watermark,
            live_bytes: self.wal_stats().live_bytes,
        });
        Ok(true)
    }

    /// First slot not covered by the latest durable snapshot (0 when no
    /// compaction has happened).
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Live/appended byte counts of the attached WAL (zeros when none) —
    /// what E21 gates its disk-bound claim on.
    pub fn wal_stats(&self) -> StorageStats {
        self.storage
            .as_ref()
            .map(StorageHandle::stats)
            .unwrap_or_default()
    }

    /// The snapshot recovered at construction, if any — the application
    /// rebuilds its state from this blob, then replays
    /// [`ReplicatedLog::committed_commands_from`] the watermark on.
    pub fn recovered_snapshot(&self) -> Option<&Snapshot> {
        self.recovered_snapshot.as_ref()
    }

    /// Appends `rec` to the durable log, if one is attached; wedges the
    /// machine on failure (a replica that cannot persist must fall silent).
    fn persist(&mut self, rec: &RsmRecord<V>) -> bool {
        if self.wedged {
            return false;
        }
        match &self.storage {
            None => true,
            Some(store) => {
                if store.append_record(rec).is_ok() {
                    self.probe.emit(ProbeEvent::WalAppend {
                        node: self.env.id(),
                        at: self.clock,
                    });
                    true
                } else {
                    self.probe.emit(ProbeEvent::WalWedge {
                        node: self.env.id(),
                        at: self.clock,
                    });
                    self.wedged = true;
                    false
                }
            }
        }
    }

    /// Appends `recs` to the durable log as one group commit — a single
    /// fsync-equivalent flush on file-backed WALs, however many slots the
    /// pipeline pump minted — if storage is attached; wedges the machine on
    /// failure. An empty group is a no-op.
    fn persist_group(&mut self, recs: &[RsmRecord<V>]) -> bool {
        if self.wedged {
            return false;
        }
        if recs.is_empty() {
            return true;
        }
        match &self.storage {
            None => true,
            Some(store) => {
                if store.append_records(recs).is_ok() {
                    // One probe event per record keeps the wal_append counter
                    // meaning "records persisted", not "flushes issued".
                    for _ in recs {
                        self.probe.emit(ProbeEvent::WalAppend {
                            node: self.env.id(),
                            at: self.clock,
                        });
                    }
                    true
                } else {
                    self.probe.emit(ProbeEvent::WalWedge {
                        node: self.env.id(),
                        at: self.clock,
                    });
                    self.wedged = true;
                    false
                }
            }
        }
    }

    /// Emits one [`CmdStage`] lifecycle event per identifiable command in
    /// `entry`. Guarded by [`Probe::ENABLED`] so `NoopProbe` builds never
    /// walk batch payloads — the command hot path stays exactly as wide as
    /// before this instrumentation existed.
    fn emit_stage(&mut self, at: Instant, entry: &Entry<V>, stage: CmdStage) {
        if !P::ENABLED {
            return;
        }
        match entry {
            Entry::Noop => {}
            Entry::Cmd(v) => self.emit_cmd_stage(at, v, stage),
            Entry::Batch(vs) => {
                for v in vs {
                    self.emit_cmd_stage(at, v, stage);
                }
            }
        }
    }

    fn emit_cmd_stage(&mut self, at: Instant, v: &V, stage: CmdStage) {
        if let Some(cmd) = v.lifecycle_id() {
            self.probe.emit(ProbeEvent::CmdLifecycle {
                node: self.me(),
                at,
                cmd,
                stage,
                // The log is shard-agnostic; the client-side router stamps
                // the true shard on its ShardRoute event and path
                // reconstruction takes the max over a command's events.
                shard: 0,
            });
        }
    }

    /// The attached observability probe — layered emitters (e.g. the KV
    /// replica stamping the `Apply` lifecycle stage) share the log's sink
    /// so one recorder sees a command's whole path.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// The embedded Ω detector (for instrumentation).
    pub fn omega(&self) -> &CommEffOmega<P> {
        &self.omega
    }

    /// `true` if this log runs in external-leadership mode (embedded Ω
    /// inert, leadership injected via [`ReplicatedLog::set_leader`]).
    pub fn is_externally_led(&self) -> bool {
        self.external
    }

    /// Injects the current leader from an external detector (the shared
    /// per-node Ω of a sharded deployment). Emits [`RsmEvent::Leader`] and
    /// runs the same prepare/abdicate transition the embedded Ω output
    /// would: becoming leader starts phase 1 once, losing leadership drops
    /// in-flight proposals. Repeated injections of the same leader are
    /// no-ops. Ignored unless the log is in external-leadership mode.
    pub fn set_leader(&mut self, ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>, leader: ProcessId) {
        self.clock = ctx.now();
        if !self.external || self.wedged || self.believed == Some(leader) {
            return;
        }
        self.believed = Some(leader);
        ctx.output(RsmEvent::Leader(leader));
        if leader == self.me() {
            if matches!(self.state, LeaderState::Follower) {
                self.start_prepare(ctx);
            }
        } else {
            self.abdicate(ctx.now());
        }
    }

    /// Whether this replica currently believes it should lead: the external
    /// detector's word in external mode, the embedded Ω's otherwise.
    fn believes_leadership(&self) -> bool {
        if self.external {
            self.believed == Some(self.me())
        } else {
            self.omega.is_leader()
        }
    }

    /// Returns `true` if this replica currently leads with an established
    /// ballot (steady-state fast path active).
    pub fn is_established_leader(&self) -> bool {
        matches!(self.state, LeaderState::Led { .. })
    }

    /// Number of contiguously committed slots.
    pub fn committed_len(&self) -> u64 {
        self.emitted_upto
    }

    /// Stamps lease/read probe events with `shard`. Sharded nodes call this
    /// once per group at construction; unsharded logs stay at 0.
    pub fn set_probe_shard(&mut self, shard: u32) {
        self.probe_shard = shard;
    }

    /// Whether the lease plane is configured on at all (see
    /// [`crate::LeaseParams::enabled`]); the fast read path is only wired
    /// up when it is.
    pub fn lease_enabled(&self) -> bool {
        self.params.lease.enabled
    }

    /// Whether this replica may serve a linearizable read locally *right
    /// now*: leases are on, it is an established leader, and its
    /// quorum-acked lease has not reached its conservative local expiry.
    pub fn lease_read_allowed(&self, now: Instant) -> bool {
        self.params.lease.enabled
            && matches!(self.state, LeaderState::Led { .. })
            && self.lease_until.is_some_and(|until| now < until)
    }

    /// Conservative local expiry of the active lease, if one is held.
    pub fn lease_active_until(&self) -> Option<Instant> {
        self.lease_until
    }

    /// Starts (or re-starts) a follower read: asks the believed leader at
    /// what committed length a read issued now is linearizable; the answer
    /// arrives as [`RsmEvent::ReadIndexAt`] (synchronously when this
    /// replica itself holds the lease). A no-op without a believed leader,
    /// and the request travels over fair-lossy links — callers re-issue on
    /// their own retry cadence until the event arrives.
    pub fn request_read_index(&mut self, ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>, req: u64) {
        self.clock = ctx.now();
        if self.wedged {
            return;
        }
        if self.lease_read_allowed(ctx.now()) {
            let index = self.emitted_upto;
            ctx.output(RsmEvent::ReadIndexAt { req, index });
            return;
        }
        let believed = if self.external {
            self.believed
        } else {
            Some(self.omega.leader())
        };
        if let Some(leader) = believed {
            if leader != self.me() {
                ctx.send(leader, RsmMsg::ReadIndex { req });
            }
        }
    }

    /// Leader-side serving margin: how far past a grant round's start the
    /// leader may serve lease-reads. Conservative by `skew` — unless the
    /// test-only sabotage switch inverts the margin (see
    /// [`crate::LeaseParams::unsafe_skew_inversion`]).
    fn lease_serve_margin(&self) -> Duration {
        let lease = &self.params.lease;
        if lease.unsafe_skew_inversion {
            lease.duration + lease.skew
        } else {
            lease.duration - lease.skew
        }
    }

    /// Granter-side holdoff margin: how long past a grant's receipt the
    /// granter refuses competing elections. Generous by `skew` (inverted by
    /// the sabotage switch).
    fn lease_grant_margin(&self) -> Duration {
        let lease = &self.params.lease;
        if lease.unsafe_skew_inversion {
            lease.duration - lease.skew
        } else {
            lease.duration + lease.skew
        }
    }

    /// Whether this replica is currently holding off elections on behalf of
    /// a leaseholder other than itself — in which case it must neither
    /// promise a competing ballot nor start one (its own self-promise would
    /// bypass the `Prepare` gate and break quorum intersection).
    fn holding_off_for_other(&self, now: Instant) -> bool {
        now < self.holdoff_until && self.holdoff_for != Some(self.me())
    }

    /// One lease grant/renewal round, riding every retry tick while `Led`:
    /// a fresh `seq`, a fresh ack vector, a fresh expiry anchored at *this*
    /// round's start. Also lets an already-expired lease lapse observably
    /// before the new round begins.
    fn lease_tick(&mut self, ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>, b: Ballot) {
        if !self.params.lease.enabled {
            return;
        }
        self.note_lease_lapse(ctx.now());
        // A holdoff owed to another holder (or the boot blackout) outranks
        // our own renewal: flipping `holdoff_for` back to ourselves here
        // would usurp a promise this replica's acceptor already made to a
        // newer leader, and after abdication it could then elect itself
        // inside that holder's live lease window. Skip the whole round —
        // a stale leader learns of the higher ballot from the Nacks its
        // grants (or Accepts) draw and abdicates.
        if self.holding_off_for_other(ctx.now()) {
            return;
        }
        self.lease_seq += 1;
        self.lease_round_start = ctx.now();
        self.lease_acks = vec![false; self.env.n()];
        let me = self.me().as_usize();
        self.lease_acks[me] = true;
        // The leader grants to itself on the same terms as everyone else:
        // its own acceptor must block competing ballots while its lease
        // runs, or a quorum intersecting only at the leader would not
        // intersect the holdoff at all.
        let self_holdoff = ctx.now() + self.lease_grant_margin();
        self.holdoff_until = self.holdoff_until.max(self_holdoff);
        self.holdoff_for = Some(self.me());
        let seq = self.lease_seq;
        for q in self.env.membership().others(self.me()) {
            ctx.send(q, RsmMsg::LeaseGrant { b, seq });
        }
        // n == 1: the self-ack already is a quorum.
        self.try_activate_lease(ctx.now());
    }

    /// Activates (or extends) the lease once the current grant round has a
    /// majority of acks. Emitted once per activating round — every renewal
    /// advances the window, so the watchdog's `until` tracking stays fresh.
    fn try_activate_lease(&mut self, now: Instant) {
        if self.lease_acks.iter().filter(|a| **a).count() < self.majority() {
            return;
        }
        let until = self.lease_round_start + self.lease_serve_margin();
        if self.lease_until.is_none_or(|u| until > u) {
            self.lease_until = Some(until);
            self.probe.emit(ProbeEvent::LeaseAcquired {
                node: self.me(),
                at: now,
                shard: self.probe_shard,
                seq: self.lease_seq,
                until,
            });
        }
    }

    /// Observably drops a lease whose conservative expiry has passed.
    fn note_lease_lapse(&mut self, now: Instant) {
        if self.lease_until.is_some_and(|until| now >= until) {
            self.lease_until = None;
            self.probe.emit(ProbeEvent::LeaseExpired {
                node: self.me(),
                at: now,
                shard: self.probe_shard,
                seq: self.lease_seq,
            });
        }
    }

    /// The chosen entry of `slot`, if this replica learned it.
    pub fn chosen(&self, slot: u64) -> Option<&Entry<V>> {
        self.chosen.get(&slot)
    }

    /// All contiguously committed client commands in slot order (no-ops
    /// skipped; batched slots contribute each of their commands in batch
    /// order).
    pub fn committed_commands(&self) -> impl Iterator<Item = &V> {
        self.chosen
            .range(0..self.emitted_upto)
            .flat_map(|(_, e)| e.commands().iter())
    }

    /// Contiguously committed client commands from slot `from` on — the
    /// replay iterator for a replica rebuilding state on top of a snapshot
    /// (pass the snapshot's watermark; slots below it were compacted away).
    pub fn committed_commands_from(&self, from: u64) -> impl Iterator<Item = &V> {
        self.chosen
            .range(from..self.emitted_upto.max(from))
            .flat_map(|(_, e)| e.commands().iter())
    }

    /// Commands queued locally but not yet committed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Number of slots proposed but not yet chosen (the occupied pipeline
    /// window; only ever non-zero at an established leader).
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// The full chosen map (slot → single command), for the log-consistency
    /// checker. Like no-ops, batched slots map to `None` — a batch is not
    /// *one* command; use [`Self::chosen_entries`] for the lossless view.
    pub fn chosen_log(&self) -> BTreeMap<u64, Option<V>> {
        self.chosen
            .iter()
            .map(|(s, e)| (*s, e.command().cloned()))
            .collect()
    }

    /// The full chosen map (slot → entry), lossless: batched slots keep
    /// their whole command vectors. The consistency check for batched runs
    /// compares these maps across replicas.
    pub fn chosen_entries(&self) -> BTreeMap<u64, Entry<V>> {
        self.chosen.clone()
    }

    fn me(&self) -> ProcessId {
        self.env.id()
    }

    fn majority(&self) -> usize {
        self.env.membership().majority()
    }

    fn drive_omega(
        &mut self,
        ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>,
        step: impl FnOnce(&mut CommEffOmega<P>, &mut Ctx<'_, OmegaMsg, ProcessId>),
    ) {
        let mut fx: Effects<OmegaMsg, ProcessId> = Effects::new();
        let counter_before = self.omega.own_counter();
        {
            let mut octx = Ctx::new(&self.env, ctx.now(), &mut fx);
            step(&mut self.omega, &mut octx);
        }
        // Write-ahead: the bumped counter must be durable before any message
        // revealing it can leave (effects are drained after we return).
        let counter_after = self.omega.own_counter();
        if counter_after != counter_before && !self.persist(&RsmRecord::OmegaCounter(counter_after))
        {
            return;
        }
        for s in fx.sends {
            ctx.send(s.to, RsmMsg::Omega(s.msg));
        }
        for cmd in fx.timers {
            match cmd {
                TimerCmd::Set { timer, after } => {
                    ctx.set_timer(timer.offset(OMEGA_TIMER_BASE), after);
                }
                TimerCmd::Cancel { timer } => {
                    ctx.cancel_timer(timer.offset(OMEGA_TIMER_BASE));
                }
            }
        }
        for leader in fx.outputs {
            ctx.output(RsmEvent::Leader(leader));
            if leader == self.me() {
                if matches!(self.state, LeaderState::Follower) {
                    self.start_prepare(ctx);
                }
            } else {
                self.abdicate(ctx.now());
            }
        }
    }

    fn abdicate(&mut self, now: Instant) {
        if let LeaderState::Preparing { b, .. } | LeaderState::Led { b, .. } = &self.state {
            self.probe.emit(ProbeEvent::PhaseEnter {
                node: self.me(),
                at: now,
                label: "follower",
                number: b.round(),
            });
        }
        self.state = LeaderState::Follower;
        self.inflight.clear();
        // A deposed leader must stop serving lease-reads immediately — the
        // Nack that deposed it proves a higher ballot exists.
        if self.lease_until.take().is_some() {
            self.probe.emit(ProbeEvent::LeaseExpired {
                node: self.me(),
                at: now,
                shard: self.probe_shard,
                seq: self.lease_seq,
            });
        }
    }

    fn start_prepare(&mut self, ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>) {
        // A granter inside someone else's holdoff must not elect itself:
        // its self-promise would bypass the `Prepare` gate below and break
        // the quorum-intersection argument. Retry ticks re-attempt after
        // the holdoff expires.
        if self.holding_off_for_other(self.clock) {
            return;
        }
        let b = self.highest_seen.max(self.promised).next_for(self.me());
        if !self.persist(&RsmRecord::Promised(b)) {
            return;
        }
        self.highest_seen = b;
        let from_slot = self.emitted_upto;
        // Self-promise, revealing our own accepted suffix.
        self.promised = b;
        let mut promised_by = vec![false; self.env.n()];
        promised_by[self.me().as_usize()] = true;
        let gathered: BTreeMap<u64, (Ballot, Entry<V>)> = self
            .accepted
            .range(from_slot..)
            .map(|(s, (ab, e))| (*s, (*ab, e.clone())))
            .collect();
        let mut low_slots = vec![0u64; self.env.n()];
        low_slots[self.me().as_usize()] = self.emitted_upto;
        self.state = LeaderState::Preparing {
            b,
            from_slot,
            promised_by,
            gathered,
            low_slots,
        };
        self.probe.emit(ProbeEvent::PhaseEnter {
            node: self.me(),
            at: ctx.now(),
            label: "prepare",
            number: b.round(),
        });
        ctx.broadcast(RsmMsg::Prepare { b, from_slot });
        self.try_assume_leadership(ctx);
    }

    /// Preparing → Led once a majority promised: re-propose inherited
    /// entries, plug gaps with no-ops, then drain the pending queue.
    fn try_assume_leadership(&mut self, ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>) {
        let LeaderState::Preparing {
            b,
            from_slot,
            promised_by,
            gathered,
            low_slots,
        } = &self.state
        else {
            return;
        };
        if promised_by.iter().filter(|p| **p).count() < self.majority() {
            return;
        }
        let (b, from_slot) = (*b, *from_slot);
        let gathered = gathered.clone();
        // Safety floor: every slot below some promiser's low_slot is chosen
        // *somewhere* — any quorum that chose it intersects our promising
        // quorum, so the choice is either revealed in `gathered` or lies
        // below the revealer's (compacted) low_slot. Never no-op-fill below
        // the floor, and never propose fresh commands there: fetch by
        // CatchUp (answered with Decides or a snapshot transfer) instead.
        let floor = low_slots
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(self.watermark);
        let horizon = gathered
            .keys()
            .next_back()
            .map(|s| s + 1)
            .unwrap_or(from_slot)
            .max(self.chosen.keys().next_back().map(|s| s + 1).unwrap_or(0))
            .max(floor);
        // Decisions of an earlier ballot must not ride this ballot's Accepts.
        self.flush_decides(ctx);
        self.state = LeaderState::Led {
            b,
            next_slot: horizon,
        };
        self.probe.emit(ProbeEvent::PhaseEnter {
            node: self.me(),
            at: ctx.now(),
            label: "led",
            number: b.round(),
        });
        let mut announce: Vec<(u64, Entry<V>)> = Vec::new();
        let mut proposals: Vec<(u64, Entry<V>)> = Vec::new();
        let mut needs_catchup = false;
        for slot in from_slot..horizon {
            if let Some(entry) = self.chosen.get(&slot).cloned() {
                announce.push((slot, entry));
            } else if let Some((_, entry)) = gathered.get(&slot).cloned() {
                proposals.push((slot, entry));
            } else if slot < floor {
                needs_catchup = true;
            } else {
                proposals.push((slot, Entry::Noop));
            }
        }
        if needs_catchup {
            let low_slot = self.emitted_upto;
            for q in self.env.membership().others(self.me()) {
                ctx.send(q, RsmMsg::CatchUp { low_slot });
            }
        }
        // Group commit: one flush covers every inherited/no-op re-proposal.
        let records: Vec<RsmRecord<V>> = proposals
            .iter()
            .map(|(slot, entry)| RsmRecord::Accepted {
                slot: *slot,
                b,
                entry: entry.clone(),
            })
            .collect();
        if !self.persist_group(&records) {
            return;
        }
        for (slot, entry) in announce {
            // Already chosen here: (re)announce so laggards catch up.
            self.track_decide(slot);
            self.broadcast_decide(ctx, slot, entry);
        }
        for (slot, entry) in proposals {
            self.accept_persisted(ctx, slot, entry);
        }
        self.pump(ctx);
    }

    /// Fills free pipeline slots from the pending queue: coalesces up to
    /// `max_batch` queued commands per slot (a singleton stays [`Entry::Cmd`],
    /// the pre-batching wire shape), persists every new `Accepted` record as
    /// a single WAL group, then self-accepts and broadcasts each slot. A
    /// no-op unless this replica is an established leader with both free
    /// pipeline capacity and queued commands.
    fn pump(&mut self, ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>) {
        let LeaderState::Led { b, next_slot } = self.state else {
            return;
        };
        let max_batch = self.params.batch.max_batch.max(1);
        let depth = self.params.batch.pipeline_depth.max(1);
        let mut planned: Vec<(u64, Entry<V>)> = Vec::new();
        let mut slot = next_slot;
        while !self.pending.is_empty() && self.inflight.len() + planned.len() < depth {
            let take = self.pending.len().min(max_batch);
            let mut cmds: Vec<V> = self.pending.drain(..take).collect();
            let entry = if cmds.len() == 1 {
                Entry::Cmd(cmds.pop().expect("len checked"))
            } else {
                Entry::Batch(cmds)
            };
            planned.push((slot, entry));
            slot += 1;
        }
        if planned.is_empty() {
            return;
        }
        if P::ENABLED {
            for (_, entry) in &planned {
                self.emit_stage(ctx.now(), entry, CmdStage::BatchSeal);
            }
        }
        // Write-ahead, once: all records of this pump become durable with a
        // single flush before any Accept can leave.
        let records: Vec<RsmRecord<V>> = planned
            .iter()
            .map(|(s, e)| RsmRecord::Accepted {
                slot: *s,
                b,
                entry: e.clone(),
            })
            .collect();
        let flushed_before = if P::ENABLED {
            self.storage.as_ref().map(StorageHandle::flush_stats)
        } else {
            None
        };
        if !self.persist_group(&records) {
            return;
        }
        if P::ENABLED {
            // One WalFsync per pump: the group commit is the unit the disk
            // saw, and its duration is what the fsync-spike detector and the
            // wal_commit lifecycle stage attribute.
            if let (Some(before), Some(store)) = (flushed_before, &self.storage) {
                let micros = store
                    .flush_stats()
                    .total_micros
                    .saturating_sub(before.total_micros);
                self.probe.emit(ProbeEvent::WalFsync {
                    node: self.env.id(),
                    at: ctx.now(),
                    micros,
                    records: records.len() as u64,
                });
            }
            for (_, entry) in &planned {
                self.emit_stage(ctx.now(), entry, CmdStage::WalCommit);
            }
        }
        if let LeaderState::Led { next_slot, .. } = &mut self.state {
            *next_slot = slot;
        }
        for (s, entry) in planned {
            self.accept_persisted(ctx, s, entry);
        }
    }

    /// Self-accepts `entry` at `slot`, broadcasts the `Accept`, and checks
    /// for an (n = 1 or retransmission-fed) instant quorum. The matching
    /// `Accepted` WAL record must already be durable — callers persist
    /// (individually or as a group) *before* this runs, preserving the
    /// write-ahead rule.
    fn accept_persisted(
        &mut self,
        ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>,
        slot: u64,
        entry: Entry<V>,
    ) {
        let LeaderState::Led { b, .. } = self.state else {
            return;
        };
        self.accepted.insert(slot, (b, entry.clone()));
        let mut acks = vec![false; self.env.n()];
        acks[self.me().as_usize()] = true;
        self.inflight.insert(
            slot,
            Inflight {
                entry: entry.clone(),
                acks,
            },
        );
        self.emit_stage(ctx.now(), &entry, CmdStage::Propose);
        let decided = self.take_undelivered(ctx);
        ctx.broadcast(RsmMsg::Accept {
            b,
            slot,
            entry,
            decided,
        });
        self.try_choose(ctx, slot);
    }

    fn try_choose(&mut self, ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>, slot: u64) {
        let Some(inf) = self.inflight.get(&slot) else {
            return;
        };
        if inf.acks.iter().filter(|a| **a).count() < self.majority() {
            return;
        }
        let entry = inf.entry.clone();
        self.inflight.remove(&slot);
        // Only a slot this quorum chose *here* may ride a later Accept: an
        // acceptor holding this ballot's vote at it then holds the chosen
        // entry. A slot already learned some other way (another leader's
        // Decide, a snapshot) keeps the explicit Decide.
        let own = slot >= self.watermark && !self.chosen.contains_key(&slot);
        self.learn(ctx, slot, entry.clone());
        if self.wedged {
            return;
        }
        self.track_decide(slot);
        if own {
            if self.undelivered.is_empty() {
                ctx.set_timer(DECIDE_TIMER, DECIDE_DELAY);
            }
            self.undelivered.push(slot);
        } else {
            self.broadcast_decide(ctx, slot, entry);
        }
    }

    /// Hands the undelivered decisions, ascending, to the `Accept` about to
    /// leave, and disarms the flush timer.
    fn take_undelivered(&mut self, ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>) -> Vec<u64> {
        if self.undelivered.is_empty() {
            return Vec::new();
        }
        ctx.cancel_timer(DECIDE_TIMER);
        let mut slots = std::mem::take(&mut self.undelivered);
        slots.sort_unstable();
        slots
    }

    /// Announces the undelivered decisions as plain `Decide`s: no `Accept`
    /// left within a tick of choosing them, or their ballot is over.
    fn flush_decides(&mut self, ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>) {
        for slot in self.take_undelivered(ctx) {
            // A slot compacted away meanwhile is owed as a snapshot instead
            // (see `apply_watermark`).
            if let Some(entry) = self.chosen.get(&slot).cloned() {
                self.broadcast_decide(ctx, slot, entry);
            }
        }
    }

    /// Marks `from` as knowing every tracked decision in `slots`, dropping
    /// trackers that every peer now acknowledged.
    fn ack_decides(&mut self, from: ProcessId, slots: impl std::ops::RangeBounds<u64>) {
        let mut done = Vec::new();
        for (slot, tracker) in self.decide_trackers.range_mut(slots) {
            tracker.acks[from.as_usize()] = true;
            if tracker.acks.iter().all(|a| *a) {
                done.push(*slot);
            }
        }
        for slot in done {
            self.decide_trackers.remove(&slot);
        }
    }

    fn track_decide(&mut self, slot: u64) {
        let mut acks = vec![false; self.env.n()];
        acks[self.me().as_usize()] = true;
        self.decide_trackers
            .insert(slot, DecideTracker { acks, fresh: true });
    }

    fn broadcast_decide(
        &mut self,
        ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>,
        slot: u64,
        entry: Entry<V>,
    ) {
        ctx.broadcast(RsmMsg::Decide { slot, entry });
    }

    fn learn(&mut self, ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>, slot: u64, entry: Entry<V>) {
        if slot < self.watermark {
            // Covered by the installed snapshot: already applied (possibly
            // on a peer's behalf), never re-emitted, never re-grown.
            return;
        }
        if !self.chosen.contains_key(&slot) {
            // Write-ahead: the choice must be durable before the Committed
            // output (and any Decide broadcast) can be observed.
            if !self.persist(&RsmRecord::Chosen {
                slot,
                entry: entry.clone(),
            }) {
                return;
            }
            self.note_chosen(ctx, slot, entry);
        }
        self.drain_committed(ctx);
    }

    /// Records a choice whose `Chosen` record is already durable.
    fn note_chosen(
        &mut self,
        ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>,
        slot: u64,
        entry: Entry<V>,
    ) {
        self.emit_stage(ctx.now(), &entry, CmdStage::Decide);
        self.chosen.insert(slot, entry);
        self.probe.emit(ProbeEvent::Decide {
            node: self.me(),
            at: ctx.now(),
            slot,
        });
    }

    /// An acceptor's reading of the `decided` list on an `Accept` at `b`:
    /// the listed slots at which it holds `b`'s own vote, with the voted
    /// entries. Only those are known chosen — the leader lists a slot only
    /// after `b`'s quorum chose it, and `b` proposes one entry per slot. A
    /// vote at another ballot says nothing about what `b` chose. Slots
    /// already learned, below the watermark, or out of ascending order
    /// (duplicates included) are skipped, so a hostile list costs lookups,
    /// never records.
    fn learnable(&self, b: Ballot, decided: &[u64]) -> Vec<(u64, Entry<V>)> {
        let mut learned: Vec<(u64, Entry<V>)> = Vec::new();
        for &slot in decided {
            if slot < self.watermark
                || self.chosen.contains_key(&slot)
                || learned.last().is_some_and(|(prev, _)| *prev >= slot)
            {
                continue;
            }
            if let Some((ab, entry)) = self.accepted.get(&slot) {
                if *ab == b {
                    learned.push((slot, entry.clone()));
                }
            }
        }
        learned
    }

    /// Emits `Committed` for every contiguously chosen slot at the emission
    /// cursor (one event per command; batches unfold in batch order).
    fn drain_committed(&mut self, ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>) {
        while let Some(e) = self.chosen.get(&self.emitted_upto) {
            let slot = self.emitted_upto;
            // One Committed event *per command*: a batched slot unfolds into
            // its commands in batch order (same slot index repeated), so
            // downstream appliers never need to know batching exists.
            match e.clone() {
                Entry::Noop => ctx.output(RsmEvent::Committed { slot, cmd: None }),
                Entry::Cmd(v) => ctx.output(RsmEvent::Committed { slot, cmd: Some(v) }),
                Entry::Batch(vs) => {
                    self.probe.emit(ProbeEvent::BatchCommit {
                        node: self.me(),
                        at: ctx.now(),
                        slot,
                        cmds: vs.len() as u64,
                    });
                    for v in vs {
                        ctx.output(RsmEvent::Committed { slot, cmd: Some(v) });
                    }
                }
            }
            self.emitted_upto += 1;
        }
    }

    /// Answers a peer that declared everything below `low_slot` known: plain
    /// `Decide`s when our log still holds the requested range, a snapshot
    /// transfer when it was compacted away. Any node serves this — catch-up
    /// is not a leader privilege, which matters when the old leader (the
    /// only one retransmitting Decides) is itself the process that died.
    fn serve_catchup(
        &mut self,
        ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>,
        peer: ProcessId,
        low_slot: u64,
    ) {
        if peer == self.me() {
            return;
        }
        if low_slot < self.watermark {
            self.start_snapshot_transfer(ctx, peer);
            return;
        }
        let decides: Vec<(u64, Entry<V>)> = self
            .chosen
            .range(low_slot..self.emitted_upto.max(low_slot))
            .take(CATCHUP_BURST)
            .map(|(s, e)| (*s, e.clone()))
            .collect();
        for (slot, entry) in decides {
            ctx.send(peer, RsmMsg::Decide { slot, entry });
        }
    }

    /// Begins (or restarts a stalled) chunked snapshot transfer to `peer`
    /// from the latest durable snapshot. A no-op without a loadable
    /// snapshot, or while a transfer to that peer is still making progress.
    fn start_snapshot_transfer(
        &mut self,
        ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>,
        peer: ProcessId,
    ) {
        if let Some(out) = self.outgoing_snaps.get(&peer) {
            // Every chunk acked but the peer asks again: its reassembly
            // failed (total-CRC mismatch) or the final ack got lost after a
            // restart — start over. Otherwise let the backoff retransmit.
            if !out.acked.iter().all(|a| *a) {
                return;
            }
            self.outgoing_snaps.remove(&peer);
        }
        let Some(snaps) = &self.snapshots else {
            return;
        };
        let Ok(Some(snap)) = snaps.load() else {
            return;
        };
        let crc = crc32(&snap.data);
        let chunks: Vec<Vec<u8>> = if snap.data.is_empty() {
            vec![Vec::new()]
        } else {
            snap.data
                .chunks(SNAP_CHUNK_BYTES)
                .map(<[u8]>::to_vec)
                .collect()
        };
        let out = OutgoingSnapshot {
            watermark: snap.watermark,
            crc,
            acked: vec![false; chunks.len()],
            chunks,
            attempt: 0,
            cooldown: 0,
        };
        self.send_snapshot_round(ctx, peer, &out);
        self.outgoing_snaps.insert(peer, out);
    }

    /// Sends the offer plus every not-yet-acked chunk of one transfer.
    fn send_snapshot_round(
        &self,
        ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>,
        peer: ProcessId,
        out: &OutgoingSnapshot,
    ) {
        let total = out.chunks.len() as u32;
        ctx.send(
            peer,
            RsmMsg::SnapshotOffer {
                watermark: out.watermark,
                chunks: total,
                crc: out.crc,
            },
        );
        for (i, chunk) in out.chunks.iter().enumerate() {
            if out.acked[i] {
                continue;
            }
            ctx.send(
                peer,
                RsmMsg::SnapshotChunk {
                    watermark: out.watermark,
                    index: i as u32,
                    chunks: total,
                    crc: out.crc,
                    chunk_crc: crc32(chunk),
                    data: chunk.clone(),
                },
            );
        }
    }

    /// Retry-timer duty for outgoing transfers: retransmit what the peer has
    /// not acked, spaced by jittered exponential backoff (deterministic —
    /// the jitter hashes `(me, peer, watermark, attempt)`), and abandon the
    /// transfer after [`SNAP_MAX_ATTEMPTS`] rounds.
    fn pump_snapshot_retries(&mut self, ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>) {
        let me = self.me().as_usize() as u64;
        let mut abandoned: Vec<ProcessId> = Vec::new();
        let mut rounds: Vec<ProcessId> = Vec::new();
        for (peer, out) in &mut self.outgoing_snaps {
            if out.cooldown > 0 {
                out.cooldown -= 1;
                continue;
            }
            if out.attempt >= SNAP_MAX_ATTEMPTS {
                abandoned.push(*peer);
                continue;
            }
            out.attempt += 1;
            let backoff = 1u32 << out.attempt.min(4);
            let seed = me
                ^ ((peer.as_usize() as u64) << 8)
                ^ out.watermark.rotate_left(17)
                ^ ((u64::from(out.attempt)) << 32);
            let jitter = (mix64(seed) % (u64::from(out.attempt) + 1)) as u32;
            out.cooldown = backoff + jitter;
            rounds.push(*peer);
        }
        for peer in abandoned {
            self.outgoing_snaps.remove(&peer);
        }
        for peer in rounds {
            if let Some(out) = self.outgoing_snaps.get(&peer) {
                let out = out.clone();
                self.send_snapshot_round(ctx, peer, &out);
            }
        }
    }

    /// Registers an announced transfer on the receiver. Returns `false`
    /// when the transfer is stale (already covered locally — acked as
    /// complete so the sender stops) or loses to a further-ahead transfer
    /// already in progress.
    fn note_snapshot_offer(
        &mut self,
        ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>,
        from: ProcessId,
        watermark: u64,
        chunks: u32,
        crc: u32,
    ) -> bool {
        if chunks == 0 || chunks as usize > 4096 {
            return false;
        }
        self.known_frontier = self.known_frontier.max(watermark);
        if watermark <= self.emitted_upto {
            ctx.send(
                from,
                RsmMsg::SnapshotAck {
                    watermark,
                    index: u32::MAX,
                },
            );
            return false;
        }
        match &self.incoming_snap {
            Some(inc) if inc.watermark > watermark => false,
            Some(inc) if inc.watermark == watermark => inc.chunks == chunks && inc.crc == crc,
            _ => {
                self.incoming_snap = Some(IncomingSnapshot {
                    watermark,
                    chunks,
                    crc,
                    parts: vec![None; chunks as usize],
                });
                true
            }
        }
    }

    /// Accepts one chunk (dropping it silently on a per-chunk CRC mismatch
    /// so the sender retransmits), acks it, and installs the snapshot once
    /// every part is present.
    #[allow(clippy::too_many_arguments)] // mirrors the wire message's fields
    fn on_snapshot_chunk(
        &mut self,
        ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>,
        from: ProcessId,
        watermark: u64,
        index: u32,
        chunks: u32,
        crc: u32,
        chunk_crc: u32,
        data: Vec<u8>,
    ) {
        if crc32(&data) != chunk_crc {
            return;
        }
        // Chunks are self-describing, so a lost offer frame cannot stall
        // the transfer: the first surviving chunk recreates the assembly.
        if !self.note_snapshot_offer(ctx, from, watermark, chunks, crc) {
            return;
        }
        let Some(inc) = &mut self.incoming_snap else {
            return;
        };
        if inc.watermark != watermark || inc.chunks != chunks {
            return;
        }
        let Some(part) = inc.parts.get_mut(index as usize) else {
            return;
        };
        *part = Some(data);
        ctx.send(from, RsmMsg::SnapshotAck { watermark, index });
        if self
            .incoming_snap
            .as_ref()
            .is_some_and(|inc| inc.parts.iter().all(Option::is_some))
        {
            self.install_incoming_snapshot(ctx, from);
        }
    }

    /// Reassembles and installs the completed transfer: verify the total
    /// CRC, make the snapshot durable, compact our own WAL behind it, floor
    /// the in-memory maps, announce [`RsmEvent::SnapshotInstalled`], then
    /// emit whatever became contiguous above the watermark and ask the
    /// sender to resume Decide streaming there.
    fn install_incoming_snapshot(
        &mut self,
        ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>,
        from: ProcessId,
    ) {
        let Some(inc) = self.incoming_snap.take() else {
            return;
        };
        let mut data = Vec::new();
        for part in inc.parts {
            data.extend_from_slice(&part.unwrap_or_default());
        }
        if crc32(&data) != inc.crc {
            // Poisoned reassembly: drop it. The gap persists, so the next
            // catch-up round restarts the transfer from scratch (the sender
            // treats a fully-acked-but-unfinished transfer as restartable).
            ctx.send(
                from,
                RsmMsg::CatchUp {
                    low_slot: self.emitted_upto,
                },
            );
            return;
        }
        let watermark = inc.watermark;
        // Durable snapshot BEFORE compacting the WAL below: a crash between
        // the two must find the snapshot. Without a snapshot store the
        // install is memory-only and the WAL is left alone — a crash then
        // just re-runs the transfer (equivalent to crashing earlier).
        if let Some(snaps) = self.snapshots.clone() {
            if snaps
                .install(&Snapshot {
                    watermark,
                    data: data.clone(),
                })
                .is_err()
            {
                self.probe.emit(ProbeEvent::WalWedge {
                    node: self.me(),
                    at: ctx.now(),
                });
                self.wedged = true;
                return;
            }
            self.apply_watermark(watermark);
            if let Some(store) = self.storage.clone() {
                if store.compact_records(&self.live_records()).is_err() {
                    self.probe.emit(ProbeEvent::WalWedge {
                        node: self.me(),
                        at: ctx.now(),
                    });
                    self.wedged = true;
                    return;
                }
            }
        } else {
            self.apply_watermark(watermark);
        }
        self.probe.emit(ProbeEvent::SnapshotInstall {
            node: self.me(),
            at: ctx.now(),
            watermark,
        });
        ctx.output(RsmEvent::SnapshotInstalled {
            watermark,
            state: data,
        });
        self.drain_committed(ctx);
        ctx.send(
            from,
            RsmMsg::SnapshotAck {
                watermark,
                index: u32::MAX,
            },
        );
        ctx.send(
            from,
            RsmMsg::CatchUp {
                low_slot: self.emitted_upto,
            },
        );
    }

    fn on_retry(&mut self, ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>) {
        self.pump_snapshot_retries(ctx);
        // Serve peers whose un-acked Decides were compacted away: the
        // snapshot is the only remaining form of those bytes. An offer to a
        // peer that was merely slow to ack is self-terminating (a receiver
        // already past the watermark immediately acks the transfer away).
        if !self.snapshot_debtors.is_empty() {
            let owed: Vec<ProcessId> = std::mem::take(&mut self.snapshot_debtors)
                .into_iter()
                .collect();
            for q in owed {
                self.start_snapshot_transfer(ctx, q);
            }
        }
        // A chosen slot above the emission cursor means a gap below it —
        // slots we may never see by retransmission (their chooser may have
        // compacted and restarted). An overheard frontier above the cursor
        // means the same thing even with nothing local to show for it: the
        // decider of our missing suffix may have crashed and lost its
        // retransmission state. Ask the cluster: peers answer with Decides
        // or a snapshot transfer. Quiet steady state sends nothing.
        if self.incoming_snap.is_none()
            && (self
                .chosen
                .keys()
                .next_back()
                .is_some_and(|s| *s >= self.emitted_upto)
                || self.known_frontier > self.emitted_upto)
        {
            let low_slot = self.emitted_upto;
            for q in self.env.membership().others(self.me()) {
                ctx.send(q, RsmMsg::CatchUp { low_slot });
            }
        }
        // Retransmit decided slots to peers that have not acknowledged for
        // a whole retry period.
        let mut done = Vec::new();
        let trackers: Vec<(u64, Vec<bool>)> = self
            .decide_trackers
            .iter_mut()
            .filter_map(|(s, t)| (!std::mem::take(&mut t.fresh)).then(|| (*s, t.acks.clone())))
            .collect();
        for (slot, acks) in trackers {
            if acks.iter().all(|a| *a) {
                done.push(slot);
                continue;
            }
            let Some(entry) = self.chosen.get(&slot).cloned() else {
                // Defensive: a tracker without its chosen entry can only
                // mean the slot fell below the watermark — the snapshot
                // supersedes it, so convert the tracker into debts.
                let owed: Vec<ProcessId> = self
                    .env
                    .membership()
                    .others(self.me())
                    .filter(|q| !acks[q.as_usize()])
                    .collect();
                self.snapshot_debtors.extend(owed);
                done.push(slot);
                continue;
            };
            for q in self.env.membership().others(self.me()) {
                if !acks[q.as_usize()] {
                    ctx.send(
                        q,
                        RsmMsg::Decide {
                            slot,
                            entry: entry.clone(),
                        },
                    );
                }
            }
        }
        for slot in done {
            self.decide_trackers.remove(&slot);
        }
        if !self.believes_leadership() {
            if !matches!(self.state, LeaderState::Follower) {
                self.abdicate(ctx.now());
            }
            return;
        }
        match &self.state {
            LeaderState::Follower => self.start_prepare(ctx),
            LeaderState::Preparing {
                b,
                from_slot,
                promised_by,
                ..
            } => {
                let (b, from_slot) = (*b, *from_slot);
                let missing: Vec<ProcessId> = self
                    .env
                    .membership()
                    .others(self.me())
                    .filter(|q| !promised_by[q.as_usize()])
                    .collect();
                for q in missing {
                    ctx.send(q, RsmMsg::Prepare { b, from_slot });
                }
            }
            LeaderState::Led { b, .. } => {
                let b = *b;
                let inflight: Vec<(u64, Entry<V>, Vec<bool>)> = self
                    .inflight
                    .iter()
                    .map(|(s, i)| (*s, i.entry.clone(), i.acks.clone()))
                    .collect();
                for (slot, entry, acks) in inflight {
                    for q in self.env.membership().others(self.me()) {
                        if !acks[q.as_usize()] {
                            ctx.send(
                                q,
                                RsmMsg::Accept {
                                    b,
                                    slot,
                                    entry: entry.clone(),
                                    decided: Vec::new(),
                                },
                            );
                        }
                    }
                }
                // Belt and braces: if capacity freed without an Accepted
                // arriving (e.g. acks were satisfied by retransmissions),
                // keep the pipeline full.
                self.pump(ctx);
                // Lease renewal rides the same cadence: one grant round per
                // retry tick keeps the serving window continuously ahead of
                // `now` while the quorum keeps answering.
                self.lease_tick(ctx, b);
            }
        }
    }

    fn on_rsm_msg(
        &mut self,
        ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>,
        from: ProcessId,
        msg: RsmMsg<V>,
    ) {
        match msg {
            RsmMsg::Omega(_) => unreachable!("routed by caller"),
            RsmMsg::Prepare { b, from_slot } => {
                self.highest_seen = self.highest_seen.max(b);
                // Lease holdoff: while a granted lease (or the boot
                // blackout) runs, refuse ballots from anyone but the
                // leaseholder — this is the promise a `LeaseAck` made.
                if self.holdoff_until > ctx.now() && self.holdoff_for != Some(b.leader()) {
                    ctx.send(
                        from,
                        RsmMsg::Nack {
                            b,
                            higher: self.promised,
                        },
                    );
                    return;
                }
                if b >= self.promised {
                    // Write-ahead: the promise must be durable before the
                    // Promise reply can leave.
                    if !self.persist(&RsmRecord::Promised(b)) {
                        return;
                    }
                    self.promised = b;
                    let accepted: Vec<(u64, Ballot, Entry<V>)> = self
                        .accepted
                        .range(from_slot..)
                        .map(|(s, (ab, e))| (*s, *ab, e.clone()))
                        .collect();
                    ctx.send(
                        from,
                        RsmMsg::Promise {
                            b,
                            accepted,
                            low_slot: self.emitted_upto,
                        },
                    );
                } else {
                    ctx.send(
                        from,
                        RsmMsg::Nack {
                            b,
                            higher: self.promised,
                        },
                    );
                }
            }
            RsmMsg::Promise {
                b,
                accepted,
                low_slot,
            } => {
                // Help a lagging promiser catch up on already-chosen slots —
                // by Decides, or by snapshot transfer when our log below its
                // low_slot is compacted away. (The promiser may also be
                // *ahead* of us: empty range, nothing sent.)
                self.serve_catchup(ctx, from, low_slot);
                if let LeaderState::Preparing {
                    b: cur,
                    promised_by,
                    gathered,
                    low_slots,
                    ..
                } = &mut self.state
                {
                    if *cur == b {
                        promised_by[from.as_usize()] = true;
                        low_slots[from.as_usize()] = low_slots[from.as_usize()].max(low_slot);
                        for (slot, ab, entry) in accepted {
                            match gathered.get(&slot) {
                                Some((prev, _)) if *prev >= ab => {}
                                _ => {
                                    gathered.insert(slot, (ab, entry));
                                }
                            }
                        }
                        self.try_assume_leadership(ctx);
                    }
                }
            }
            RsmMsg::Accept {
                b,
                slot,
                entry,
                decided,
            } => {
                self.highest_seen = self.highest_seen.max(b);
                if b >= self.promised {
                    // Write-ahead, as one group: the decisions this Accept
                    // carries and the vote must be durable before the
                    // Committed outputs and the Accepted reply.
                    let learned = self.learnable(b, &decided);
                    let mut records: Vec<RsmRecord<V>> = learned
                        .iter()
                        .map(|(s, e)| RsmRecord::Chosen {
                            slot: *s,
                            entry: e.clone(),
                        })
                        .collect();
                    // A retransmitted Accept repeats a vote already durable.
                    if !matches!(self.accepted.get(&slot), Some((ab, e)) if *ab == b && *e == entry)
                    {
                        records.push(RsmRecord::Accepted {
                            slot,
                            b,
                            entry: entry.clone(),
                        });
                    }
                    if !self.persist_group(&records) {
                        return;
                    }
                    self.promised = b;
                    self.accepted.insert(slot, (b, entry));
                    for (s, e) in learned {
                        self.note_chosen(ctx, s, e);
                    }
                    self.drain_committed(ctx);
                    ctx.send(
                        from,
                        RsmMsg::Accepted {
                            b,
                            slot,
                            emitted: self.emitted_upto,
                        },
                    );
                } else {
                    ctx.send(
                        from,
                        RsmMsg::Nack {
                            b,
                            higher: self.promised,
                        },
                    );
                }
            }
            RsmMsg::Accepted { b, slot, emitted } => {
                // The cursor acknowledges every Decide below it, whichever
                // way the peer learned the slots.
                self.ack_decides(from, ..emitted);
                if let LeaderState::Led { b: cur, .. } = self.state {
                    if cur == b {
                        if let Some(inf) = self.inflight.get_mut(&slot) {
                            inf.acks[from.as_usize()] = true;
                            self.try_choose(ctx, slot);
                            // A chosen slot frees pipeline capacity: refill
                            // it from the pending queue.
                            self.pump(ctx);
                        }
                    }
                }
            }
            RsmMsg::Nack { b, higher } => {
                self.highest_seen = self.highest_seen.max(higher);
                let ours = match &self.state {
                    LeaderState::Preparing { b: cur, .. } | LeaderState::Led { b: cur, .. } => {
                        *cur == b
                    }
                    LeaderState::Follower => false,
                };
                if ours {
                    self.abdicate(ctx.now());
                }
            }
            RsmMsg::Decide { slot, entry } => {
                self.learn(ctx, slot, entry);
                ctx.send(from, RsmMsg::DecideAck { slot });
            }
            RsmMsg::DecideAck { slot } => self.ack_decides(from, slot..=slot),
            RsmMsg::CatchUp { low_slot } => {
                // The asker has emitted everything below `low_slot` — that
                // is frontier evidence for *us* too (we may be the laggard).
                self.known_frontier = self.known_frontier.max(low_slot);
                self.serve_catchup(ctx, from, low_slot);
            }
            RsmMsg::SnapshotOffer {
                watermark,
                chunks,
                crc,
            } => {
                self.note_snapshot_offer(ctx, from, watermark, chunks, crc);
            }
            RsmMsg::SnapshotChunk {
                watermark,
                index,
                chunks,
                crc,
                chunk_crc,
                data,
            } => {
                self.on_snapshot_chunk(ctx, from, watermark, index, chunks, crc, chunk_crc, data);
            }
            RsmMsg::SnapshotAck { watermark, index } => {
                if index == u32::MAX {
                    if self
                        .outgoing_snaps
                        .get(&from)
                        .is_some_and(|o| o.watermark <= watermark)
                    {
                        self.outgoing_snaps.remove(&from);
                    }
                } else if let Some(out) = self.outgoing_snaps.get_mut(&from) {
                    if out.watermark == watermark {
                        if let Some(acked) = out.acked.get_mut(index as usize) {
                            *acked = true;
                        }
                        // Progress proves the link: reset the backoff so the
                        // remainder retransmits promptly if needed.
                        out.attempt = 0;
                        out.cooldown = 0;
                    }
                }
            }
            RsmMsg::LeaseGrant { b, seq } => {
                self.highest_seen = self.highest_seen.max(b);
                if b >= self.promised {
                    // A grant that outranks the ballot this replica leads
                    // (or prepares) under proves a newer leader exists:
                    // depose ourselves *before* promising the holdoff.
                    // Otherwise a stale-but-still-Led leader would both owe
                    // the holdoff to the new holder and keep renewing its
                    // own lease on every retry tick, silently replacing
                    // that promise with a self-grant.
                    if let LeaderState::Preparing { b: cur, .. } | LeaderState::Led { b: cur, .. } =
                        &self.state
                    {
                        if b > *cur {
                            self.abdicate(ctx.now());
                        }
                    }
                    let until = ctx.now() + self.lease_grant_margin();
                    self.holdoff_until = self.holdoff_until.max(until);
                    self.holdoff_for = Some(b.leader());
                    self.probe.emit(ProbeEvent::LeaseGranted {
                        node: self.me(),
                        at: ctx.now(),
                        shard: self.probe_shard,
                        seq,
                        holder: b.leader(),
                    });
                    ctx.send(from, RsmMsg::LeaseAck { b, seq });
                } else {
                    // A deposed leader renewing its lease learns here that
                    // a higher ballot exists and abdicates on the Nack.
                    ctx.send(
                        from,
                        RsmMsg::Nack {
                            b,
                            higher: self.promised,
                        },
                    );
                }
            }
            RsmMsg::LeaseAck { b, seq } => {
                if let LeaderState::Led { b: cur, .. } = self.state {
                    if cur == b && seq == self.lease_seq {
                        self.lease_acks[from.as_usize()] = true;
                        self.try_activate_lease(ctx.now());
                    }
                }
            }
            RsmMsg::ReadIndex { req } => {
                // Answer only while holding the lease: without it, this
                // replica's committed length could trail a newer leader's
                // decisions, and the index would certify a stale read.
                if self.lease_read_allowed(ctx.now()) {
                    ctx.send(
                        from,
                        RsmMsg::ReadIndexReply {
                            req,
                            index: self.emitted_upto,
                        },
                    );
                }
            }
            RsmMsg::ReadIndexReply { req, index } => {
                ctx.output(RsmEvent::ReadIndexAt { req, index });
            }
        }
    }
}

impl<V, P> Sm for ReplicatedLog<V, P>
where
    V: Clone + Eq + fmt::Debug + Send + Wire + LifecycleId + 'static,
    P: Probe,
{
    type Msg = RsmMsg<V>;
    type Output = RsmEvent<V>;
    type Request = V;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>) {
        self.clock = ctx.now();
        if self.wedged {
            return;
        }
        ctx.set_timer(RETRY_TIMER, self.params.retry);
        // Boot blackout: lease promises are volatile, so a restarted
        // granter no longer remembers a holdoff it may owe. Refusing *all*
        // elections for one full lease + skew after boot conservatively
        // covers any lease a previous incarnation granted — and, applied
        // unconditionally, also guarantees a restarted *leader* can never
        // resume serving an expired lease (it re-elects and re-acquires
        // from scratch). Costs one lease worth of election delay at boot.
        if self.params.lease.enabled {
            let blackout = ctx.now() + self.params.lease.duration + self.params.lease.skew;
            self.holdoff_until = self.holdoff_until.max(blackout);
            self.holdoff_for = None;
        }
        // A restarted replica proactively asks where the log has moved: the
        // cluster may have chosen (and compacted) a long prefix while it was
        // down, and nobody may be retransmitting that history anymore.
        if self.recovered {
            ctx.broadcast(RsmMsg::CatchUp {
                low_slot: self.emitted_upto,
            });
        }
        // In external-leadership mode the embedded Ω never runs: the shared
        // per-node detector injects leadership via `set_leader`.
        if !self.external {
            self.drive_omega(ctx, |omega, octx| omega.on_start(octx));
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Output>,
        from: ProcessId,
        msg: Self::Msg,
    ) {
        self.clock = ctx.now();
        if self.wedged {
            return;
        }
        match msg {
            RsmMsg::Omega(m) => {
                // Ω traffic is not ours in external mode — the shared
                // per-node detector owns it.
                if !self.external {
                    self.drive_omega(ctx, |omega, octx| omega.on_message(octx, from, m));
                }
            }
            other => self.on_rsm_msg(ctx, from, other),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, timer: TimerId) {
        self.clock = ctx.now();
        if self.wedged {
            return;
        }
        if timer.0 >= OMEGA_TIMER_BASE {
            if self.external {
                return;
            }
            let inner = TimerId(timer.0 - OMEGA_TIMER_BASE);
            self.drive_omega(ctx, |omega, octx| omega.on_timer(octx, inner));
        } else if timer == RETRY_TIMER {
            self.on_retry(ctx);
            ctx.set_timer(RETRY_TIMER, self.params.retry);
        } else if timer == DECIDE_TIMER {
            self.flush_decides(ctx);
        } else {
            debug_assert!(false, "unexpected timer {timer}");
        }
    }

    /// Queues a client command; an established leader with free pipeline
    /// capacity proposes immediately (coalescing any queued commands into a
    /// batch of up to `batch.max_batch`), otherwise the command waits — for
    /// leadership, or for a pipeline slot to free up (clients of a real
    /// deployment would resubmit to the actual leader).
    fn on_request(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, req: V) {
        self.clock = ctx.now();
        if self.wedged {
            return;
        }
        self.pending.push_back(req);
        self.pump(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lls_primitives::Instant;

    type Log = ReplicatedLog<u64>;

    struct Harness {
        env: Env,
        sm: Log,
        fx: Effects<RsmMsg<u64>, RsmEvent<u64>>,
    }

    impl Harness {
        fn new(me: u32, n: usize) -> Self {
            Harness::with_params(me, n, ConsensusParams::default())
        }

        fn with_params(me: u32, n: usize, params: ConsensusParams) -> Self {
            let env = Env::new(ProcessId(me), n);
            let sm = ReplicatedLog::new(&env, params);
            Harness {
                env,
                sm,
                fx: Effects::new(),
            }
        }

        fn start(&mut self) -> Effects<RsmMsg<u64>, RsmEvent<u64>> {
            let mut ctx = Ctx::new(&self.env, Instant::ZERO, &mut self.fx);
            self.sm.on_start(&mut ctx);
            self.fx.take()
        }

        fn deliver(&mut self, from: u32, msg: RsmMsg<u64>) -> Effects<RsmMsg<u64>, RsmEvent<u64>> {
            let mut ctx = Ctx::new(&self.env, Instant::ZERO, &mut self.fx);
            self.sm.on_message(&mut ctx, ProcessId(from), msg);
            self.fx.take()
        }

        fn request(&mut self, v: u64) -> Effects<RsmMsg<u64>, RsmEvent<u64>> {
            let mut ctx = Ctx::new(&self.env, Instant::ZERO, &mut self.fx);
            self.sm.on_request(&mut ctx, v);
            self.fx.take()
        }

        /// Like [`Harness::deliver`], at an explicit wall — the lease tests
        /// are all about *when* things happen.
        fn deliver_at(
            &mut self,
            now: Instant,
            from: u32,
            msg: RsmMsg<u64>,
        ) -> Effects<RsmMsg<u64>, RsmEvent<u64>> {
            let mut ctx = Ctx::new(&self.env, now, &mut self.fx);
            self.sm.on_message(&mut ctx, ProcessId(from), msg);
            self.fx.take()
        }

        fn fire(&mut self, timer: TimerId) -> Effects<RsmMsg<u64>, RsmEvent<u64>> {
            let mut ctx = Ctx::new(&self.env, Instant::ZERO, &mut self.fx);
            self.sm.on_timer(&mut ctx, timer);
            self.fx.take()
        }

        /// Fires the retry timer at an explicit wall.
        fn retry_at(&mut self, now: Instant) -> Effects<RsmMsg<u64>, RsmEvent<u64>> {
            let mut ctx = Ctx::new(&self.env, now, &mut self.fx);
            self.sm.on_timer(&mut ctx, RETRY_TIMER);
            self.fx.take()
        }
    }

    fn b(round: u64, leader: u32) -> Ballot {
        Ballot::new(round, ProcessId(leader))
    }

    /// Drives p0 (initial Ω leader) to the Led state in a 3-replica group.
    fn led_leader() -> Harness {
        led_leader_with(ConsensusParams::default())
    }

    /// Like [`led_leader`], with explicit parameters (batching knobs).
    fn led_leader_with(params: ConsensusParams) -> Harness {
        let mut h = Harness::with_params(0, 3, params);
        h.start();
        h.deliver(
            1,
            RsmMsg::Promise {
                b: b(1, 0),
                accepted: vec![],
                low_slot: 0,
            },
        );
        assert!(h.sm.is_established_leader());
        h
    }

    /// Parameters with batching and a shallow pipeline, for throughput-path
    /// tests.
    fn batched_params(max_batch: usize, pipeline_depth: usize) -> ConsensusParams {
        ConsensusParams {
            batch: omega::BatchParams {
                max_batch,
                pipeline_depth,
            },
            ..ConsensusParams::default()
        }
    }

    #[test]
    fn externally_led_log_is_silent_until_leadership_is_injected() {
        let env = Env::new(ProcessId(0), 3);
        let mut sm: Log = ReplicatedLog::new_externally_led(&env, ConsensusParams::default());
        assert!(sm.is_externally_led());
        let mut fx: Effects<RsmMsg<u64>, RsmEvent<u64>> = Effects::new();
        sm.on_start(&mut Ctx::new(&env, Instant::ZERO, &mut fx));
        let out = fx.take();
        assert!(
            out.sends.is_empty(),
            "no Ω heartbeats, no prepares: {:?}",
            out.sends
        );
        // Only the retry timer is armed — no Ω timers.
        assert!(out
            .timers
            .iter()
            .all(|t| matches!(t, TimerCmd::Set { timer, .. } if *timer == RETRY_TIMER)));

        // Injecting our own id starts phase 1 exactly like an Ω output.
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.set_leader(&mut ctx, ProcessId(0));
        let out = fx.take();
        assert!(out.outputs.contains(&RsmEvent::Leader(ProcessId(0))));
        assert_eq!(
            out.sends
                .iter()
                .filter(|s| matches!(s.msg, RsmMsg::Prepare { .. }))
                .count(),
            2
        );
        // Re-injecting the same leader is a no-op.
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.set_leader(&mut ctx, ProcessId(0));
        assert!(fx.take().outputs.is_empty());

        // Losing leadership abdicates.
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.set_leader(&mut ctx, ProcessId(2));
        let out = fx.take();
        assert!(out.outputs.contains(&RsmEvent::Leader(ProcessId(2))));
        assert!(!sm.is_established_leader());
    }

    #[test]
    fn externally_led_log_drops_omega_messages_and_timers() {
        let env = Env::new(ProcessId(1), 3);
        let mut sm: Log = ReplicatedLog::new_externally_led(&env, ConsensusParams::default());
        let mut fx: Effects<RsmMsg<u64>, RsmEvent<u64>> = Effects::new();
        sm.on_start(&mut Ctx::new(&env, Instant::ZERO, &mut fx));
        fx.take();
        let counter_before = sm.omega().own_counter();
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.on_message(
            &mut ctx,
            ProcessId(0),
            RsmMsg::Omega(omega::OmegaMsg::Alive { counter: 9 }),
        );
        let out = fx.take();
        assert!(out.sends.is_empty() && out.outputs.is_empty());
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.on_timer(&mut ctx, TimerId(OMEGA_TIMER_BASE));
        let out = fx.take();
        assert!(out.sends.is_empty() && out.outputs.is_empty());
        assert_eq!(sm.omega().own_counter(), counter_before);
    }

    #[test]
    fn leader_establishes_ballot_with_one_prepare() {
        let mut h = Harness::new(0, 3);
        let fx = h.start();
        let prepares = fx
            .sends
            .iter()
            .filter(|s| matches!(s.msg, RsmMsg::Prepare { from_slot: 0, .. }))
            .count();
        assert_eq!(prepares, 2);
        let _ = led_leader();
    }

    #[test]
    fn steady_state_commits_in_one_round_trip() {
        let mut h = led_leader();
        let fx = h.request(7);
        // Phase 1 is NOT re-run: only Accepts go out.
        assert!(fx
            .sends
            .iter()
            .all(|s| matches!(s.msg, RsmMsg::Accept { slot: 0, .. })));
        assert_eq!(fx.sends.len(), 2);
        // One Accepted (plus self) = majority: commit, and arm the one-tick
        // flush instead of broadcasting the Decide.
        let fx = h.deliver(
            1,
            RsmMsg::Accepted {
                b: b(1, 0),
                slot: 0,
                emitted: 0,
            },
        );
        assert!(fx.outputs.contains(&RsmEvent::Committed {
            slot: 0,
            cmd: Some(7)
        }));
        assert!(fx.sends.is_empty(), "the Decide waits: {:?}", fx.sends);
        assert!(fx.timers.contains(&TimerCmd::Set {
            timer: DECIDE_TIMER,
            after: DECIDE_DELAY
        }));
        assert_eq!(h.sm.committed_len(), 1);
        // No Accept left within the tick: the flush sends the Decide.
        let fx = h.fire(DECIDE_TIMER);
        assert_eq!(
            fx.sends
                .iter()
                .filter(|s| matches!(s.msg, RsmMsg::Decide { slot: 0, .. }))
                .count(),
            2
        );
    }

    fn accepted(slot: u64, emitted: u64) -> RsmMsg<u64> {
        RsmMsg::Accepted {
            b: b(1, 0),
            slot,
            emitted,
        }
    }

    fn accept(ballot: Ballot, slot: u64, v: u64, decided: Vec<u64>) -> RsmMsg<u64> {
        RsmMsg::Accept {
            b: ballot,
            slot,
            entry: Entry::Cmd(v),
            decided,
        }
    }

    /// The `decided` lists on the Accepts in `fx`.
    fn decided_lists(fx: &Effects<RsmMsg<u64>, RsmEvent<u64>>) -> Vec<Vec<u64>> {
        fx.sends
            .iter()
            .filter_map(|s| match &s.msg {
                RsmMsg::Accept { decided, .. } => Some(decided.clone()),
                _ => None,
            })
            .collect()
    }

    fn committed_of(fx: &Effects<RsmMsg<u64>, RsmEvent<u64>>) -> Vec<(u64, Option<u64>)> {
        fx.outputs
            .iter()
            .filter_map(|o| match o {
                RsmEvent::Committed { slot, cmd } => Some((*slot, *cmd)),
                _ => None,
            })
            .collect()
    }

    /// A follower (p1 of 3) over an in-memory WAL, and the WAL's handle.
    fn durable_follower() -> (Harness, StorageHandle) {
        let store = StorageHandle::in_memory();
        let env = Env::new(ProcessId(1), 3);
        let sm = ReplicatedLog::with_storage(&env, ConsensusParams::default(), store.clone())
            .expect("fresh in-memory store");
        let mut h = Harness {
            env,
            sm,
            fx: Effects::new(),
        };
        h.start();
        (h, store)
    }

    #[test]
    fn the_next_accept_carries_the_decision_and_disarms_the_flush() {
        let mut h = led_leader();
        h.request(7);
        h.deliver(1, accepted(0, 0));
        // A retry tick inside the flush window leaves the slot to the flush.
        assert!(!h
            .retry_at(Instant::ZERO)
            .sends
            .iter()
            .any(|s| matches!(s.msg, RsmMsg::Decide { slot: 0, .. })));
        let fx = h.request(8);
        assert_eq!(decided_lists(&fx), vec![vec![0], vec![0]]);
        assert!(
            !fx.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::Decide { .. })),
            "no Decide frame when an Accept leaves within the tick"
        );
        assert!(fx.timers.contains(&TimerCmd::Cancel {
            timer: DECIDE_TIMER
        }));
        // The list went out once; a stale flush has nothing left to send.
        assert!(h.fire(DECIDE_TIMER).sends.is_empty());
        // The followers' cursors on their next Accepted acknowledge it.
        h.deliver(1, accepted(1, 1));
        assert!(h.sm.decide_trackers.contains_key(&0), "p2 has not said");
        h.deliver(2, accepted(1, 1));
        assert!(!h.sm.decide_trackers.contains_key(&0));
    }

    #[test]
    fn pipelined_decisions_ride_ascending_on_the_first_accept_only() {
        let mut h = led_leader_with(batched_params(1, 4));
        for v in [10, 11, 12] {
            h.request(v);
        }
        // Chosen out of order.
        h.deliver(1, accepted(2, 0));
        h.deliver(1, accepted(0, 0));
        let fx = h.request(13);
        assert_eq!(decided_lists(&fx), vec![vec![0, 2], vec![0, 2]]);
        h.deliver(1, accepted(1, 0));
        h.request(14);
        let fx = h.request(15);
        assert_eq!(decided_lists(&fx), vec![vec![], vec![]], "pipeline full");
    }

    #[test]
    fn a_ballot_change_flushes_undelivered_decisions() {
        let mut h = led_leader();
        h.request(7);
        h.deliver(1, accepted(0, 0));
        h.deliver(
            2,
            RsmMsg::Nack {
                b: b(1, 0),
                higher: b(4, 2),
            },
        );
        assert!(!h.sm.is_established_leader());
        let fx = h.fire(DECIDE_TIMER);
        assert_eq!(
            fx.sends
                .iter()
                .filter(|s| matches!(s.msg, RsmMsg::Decide { slot: 0, .. }))
                .count(),
            2,
            "a deposed leader still announces what its quorum chose"
        );
    }

    #[test]
    fn leader_never_lists_a_slot_it_learned_from_another_ballot() {
        let mut h = led_leader();
        h.request(7);
        // A higher ballot's leader decided slot 0 before our quorum formed.
        h.deliver(
            2,
            RsmMsg::Decide {
                slot: 0,
                entry: Entry::Cmd(7),
            },
        );
        let fx = h.deliver(1, accepted(0, 0));
        assert_eq!(
            fx.sends
                .iter()
                .filter(|s| matches!(s.msg, RsmMsg::Decide { slot: 0, .. }))
                .count(),
            2,
            "a slot learned elsewhere keeps the explicit Decide"
        );
        assert!(h.sm.undelivered.is_empty());
        let fx = h.request(8);
        assert_eq!(decided_lists(&fx), vec![Vec::<u64>::new(); 2]);
    }

    #[test]
    fn follower_learns_listed_slots_in_the_same_wal_write_as_the_vote() {
        let (mut h, store) = durable_follower();
        h.deliver(0, accept(b(1, 0), 0, 5, vec![]));
        let before = store.flush_stats().flushes;
        let fx = h.deliver(0, accept(b(1, 0), 1, 6, vec![0]));
        assert_eq!(committed_of(&fx), vec![(0, Some(5))]);
        assert_eq!(store.flush_stats().flushes, before + 1, "one write");
        let records: Vec<RsmRecord<u64>> = store.load_records().unwrap();
        assert_eq!(
            records[records.len() - 2..],
            [
                RsmRecord::Chosen {
                    slot: 0,
                    entry: Entry::Cmd(5)
                },
                RsmRecord::Accepted {
                    slot: 1,
                    b: b(1, 0),
                    entry: Entry::Cmd(6)
                },
            ]
        );
        assert!(fx.sends.iter().any(|s| s.msg
            == RsmMsg::Accepted {
                b: b(1, 0),
                slot: 1,
                emitted: 1
            }));
        // A later Decide for the same slot changes nothing.
        let fx = h.deliver(
            0,
            RsmMsg::Decide {
                slot: 0,
                entry: Entry::Cmd(5),
            },
        );
        assert!(committed_of(&fx).is_empty());
        assert_eq!(h.sm.chosen(0), Some(&Entry::Cmd(5)));
    }

    #[test]
    fn follower_never_learns_from_a_list_at_another_ballot() {
        let mut h = Harness::new(1, 3);
        h.start();
        // p1 voted (b1, 5) at slot 0; ballot b2 chose something there that
        // p1 never saw. b2's list must not promote p1's older vote.
        h.deliver(0, accept(b(1, 0), 0, 5, vec![]));
        let fx = h.deliver(2, accept(b(2, 2), 1, 9, vec![0]));
        assert!(committed_of(&fx).is_empty());
        assert_eq!(h.sm.chosen(0), None);
        // Nor from a stale ballot's list, which is nacked outright.
        h.deliver(2, accept(b(2, 2), 0, 8, vec![]));
        let fx = h.deliver(0, accept(b(1, 0), 2, 6, vec![0]));
        assert!(fx
            .sends
            .iter()
            .any(|s| matches!(s.msg, RsmMsg::Nack { .. })));
        assert_eq!(h.sm.chosen(0), None);
        // b2's own list for the slot p1 now holds at b2 teaches the value
        // b2 chose.
        let fx = h.deliver(2, accept(b(2, 2), 3, 10, vec![0]));
        assert_eq!(committed_of(&fx), vec![(0, Some(8))]);
    }

    #[test]
    fn hostile_lists_never_learn_or_repeat_records() {
        let (mut h, store) = durable_follower();
        h.deliver(0, accept(b(1, 0), 0, 5, vec![]));
        for list in [
            vec![u64::MAX],
            vec![1, 2, 3, u64::MAX - 1, u64::MAX],
            vec![7; 64],
        ] {
            let fx = h.deliver(0, accept(b(1, 0), 9, 1, list));
            assert!(committed_of(&fx).is_empty());
        }
        assert_eq!(h.sm.committed_len(), 0);
        // Duplicated and out-of-order entries learn slot 0 once.
        let before = store.load_records::<RsmRecord<u64>>().unwrap().len();
        let fx = h.deliver(0, accept(b(1, 0), 10, 2, vec![0, 0, 0, u64::MAX, 0]));
        assert_eq!(committed_of(&fx), vec![(0, Some(5))]);
        assert_eq!(
            store.load_records::<RsmRecord<u64>>().unwrap().len(),
            before + 2,
            "one Chosen, one Accepted"
        );
    }

    #[test]
    fn an_unacknowledged_decide_is_resent_after_a_full_retry_period() {
        let mut h = led_leader();
        h.request(7);
        h.deliver(1, accepted(0, 0));
        h.fire(DECIDE_TIMER);
        h.deliver(1, RsmMsg::DecideAck { slot: 0 });
        let resent = |fx: Effects<RsmMsg<u64>, RsmEvent<u64>>| -> Vec<ProcessId> {
            fx.sends
                .iter()
                .filter(|s| matches!(s.msg, RsmMsg::Decide { slot: 0, .. }))
                .map(|s| s.to)
                .collect()
        };
        assert!(
            resent(h.retry_at(Instant::ZERO)).is_empty(),
            "the Decide may still be in flight"
        );
        assert_eq!(resent(h.retry_at(Instant::ZERO)), vec![ProcessId(2)]);
    }

    #[test]
    fn accepted_cursor_cannot_ack_beyond_the_trackers() {
        let mut h = led_leader();
        h.request(7);
        h.deliver(1, accepted(0, 0));
        h.fire(DECIDE_TIMER);
        h.deliver(1, accepted(0, u64::MAX));
        h.deliver(2, accepted(0, u64::MAX));
        assert!(h.sm.decide_trackers.is_empty());
    }

    #[test]
    fn commits_are_emitted_in_slot_order_despite_reordering() {
        let mut h = Harness::new(2, 3);
        h.start();
        // Decide for slot 1 arrives before slot 0 (links are not FIFO).
        let fx = h.deliver(
            0,
            RsmMsg::Decide {
                slot: 1,
                entry: Entry::Cmd(11),
            },
        );
        assert!(fx
            .outputs
            .iter()
            .all(|o| !matches!(o, RsmEvent::Committed { .. })));
        let fx = h.deliver(
            0,
            RsmMsg::Decide {
                slot: 0,
                entry: Entry::Cmd(10),
            },
        );
        let committed: Vec<_> = fx
            .outputs
            .iter()
            .filter_map(|o| match o {
                RsmEvent::Committed { slot, cmd } => Some((*slot, *cmd)),
                _ => None,
            })
            .collect();
        assert_eq!(committed, vec![(0, Some(10)), (1, Some(11))]);
    }

    #[test]
    fn new_leader_inherits_accepted_entries_and_fills_gaps() {
        let mut h = Harness::new(0, 5);
        h.start();
        // Two promises arrive; one reveals an accepted entry at slot 1 only
        // (slot 0 is a gap the new leader must fill with a no-op).
        h.deliver(
            1,
            RsmMsg::Promise {
                b: b(1, 0),
                accepted: vec![(1, b(0, 4), Entry::Cmd(99))],
                low_slot: 0,
            },
        );
        let fx = h.deliver(
            2,
            RsmMsg::Promise {
                b: b(1, 0),
                accepted: vec![],
                low_slot: 0,
            },
        );
        assert!(h.sm.is_established_leader());
        let accepts: Vec<(u64, Entry<u64>)> = fx
            .sends
            .iter()
            .filter_map(|s| match &s.msg {
                RsmMsg::Accept { slot, entry, .. } => Some((*slot, entry.clone())),
                _ => None,
            })
            .collect();
        assert!(
            accepts.contains(&(0, Entry::Noop)),
            "gap must be filled: {accepts:?}"
        );
        assert!(
            accepts.contains(&(1, Entry::Cmd(99))),
            "inherited entry must be re-proposed"
        );
    }

    #[test]
    fn acceptor_reveals_suffix_on_prepare() {
        let mut h = Harness::new(1, 3);
        h.start();
        h.deliver(
            0,
            RsmMsg::Accept {
                b: b(1, 0),
                slot: 0,
                entry: Entry::Cmd(5),
                decided: vec![],
            },
        );
        h.deliver(
            0,
            RsmMsg::Accept {
                b: b(1, 0),
                slot: 3,
                entry: Entry::Cmd(8),
                decided: vec![],
            },
        );
        let fx = h.deliver(
            2,
            RsmMsg::Prepare {
                b: b(2, 2),
                from_slot: 2,
            },
        );
        let promise = fx
            .sends
            .iter()
            .find_map(|s| match &s.msg {
                RsmMsg::Promise { accepted, .. } => Some(accepted.clone()),
                _ => None,
            })
            .expect("must promise the higher ballot");
        // Only slots ≥ from_slot are revealed.
        assert_eq!(promise, vec![(3, b(1, 0), Entry::Cmd(8))]);
    }

    #[test]
    fn follower_queues_requests_until_leadership() {
        let mut h = Harness::new(1, 3);
        h.start();
        let fx = h.request(42);
        assert!(fx.sends.is_empty());
        assert_eq!(h.sm.pending_len(), 1);
    }

    #[test]
    fn stale_ballot_accept_is_nacked() {
        let mut h = Harness::new(1, 3);
        h.start();
        h.deliver(
            2,
            RsmMsg::Prepare {
                b: b(5, 2),
                from_slot: 0,
            },
        );
        let fx = h.deliver(
            0,
            RsmMsg::Accept {
                b: b(1, 0),
                slot: 0,
                entry: Entry::Cmd(1),
                decided: vec![],
            },
        );
        assert!(fx
            .sends
            .iter()
            .any(|s| matches!(s.msg, RsmMsg::Nack { higher, .. } if higher == b(5, 2))));
    }

    #[test]
    fn nack_abdicates_leadership() {
        let mut h = led_leader();
        h.request(7);
        h.deliver(
            2,
            RsmMsg::Nack {
                b: b(1, 0),
                higher: b(4, 2),
            },
        );
        assert!(!h.sm.is_established_leader());
        assert_eq!(
            h.sm.inflight.len(),
            0,
            "inflight must be dropped on abdication"
        );
    }

    #[test]
    fn promise_triggers_catchup_decides_for_lagging_peer() {
        let mut h = led_leader();
        h.request(7);
        h.deliver(
            1,
            RsmMsg::Accepted {
                b: b(1, 0),
                slot: 0,
                emitted: 0,
            },
        );
        assert_eq!(h.sm.committed_len(), 1);
        // A new prepare from us after re-election would carry catch-up; here
        // simulate a late promise from p2 with low_slot 0.
        let fx = h.deliver(
            2,
            RsmMsg::Promise {
                b: b(1, 0),
                accepted: vec![],
                low_slot: 0,
            },
        );
        assert!(fx
            .sends
            .iter()
            .any(|s| s.to == ProcessId(2) && matches!(s.msg, RsmMsg::Decide { slot: 0, .. })));
    }

    #[test]
    fn promise_from_a_peer_ahead_of_us_is_harmless() {
        // Regression: the catch-up range must not invert when the promiser
        // has committed further than the (new) leader.
        let mut h = Harness::new(0, 3);
        h.start();
        let fx = h.deliver(
            1,
            RsmMsg::Promise {
                b: b(1, 0),
                accepted: vec![],
                low_slot: 10, // p1 is way ahead
            },
        );
        assert!(h.sm.is_established_leader());
        assert!(!fx
            .sends
            .iter()
            .any(|s| matches!(s.msg, RsmMsg::Decide { .. })));
    }

    #[test]
    fn decide_ack_completes_tracker() {
        let mut h = led_leader();
        h.request(7);
        h.deliver(
            1,
            RsmMsg::Accepted {
                b: b(1, 0),
                slot: 0,
                emitted: 0,
            },
        );
        assert!(h.sm.decide_trackers.contains_key(&0));
        h.deliver(1, RsmMsg::DecideAck { slot: 0 });
        h.deliver(2, RsmMsg::DecideAck { slot: 0 });
        assert!(!h.sm.decide_trackers.contains_key(&0));
    }

    #[test]
    fn pipeline_depth_caps_inflight_slots() {
        let mut h = led_leader_with(batched_params(1, 2));
        for v in 0..5 {
            h.request(v);
        }
        assert_eq!(h.sm.inflight_len(), 2, "pipeline must cap at depth");
        assert_eq!(h.sm.pending_len(), 3, "overflow queues locally");
        // Choosing slot 0 frees capacity; the pump refills to depth.
        let fx = h.deliver(
            1,
            RsmMsg::Accepted {
                b: b(1, 0),
                slot: 0,
                emitted: 0,
            },
        );
        assert_eq!(h.sm.inflight_len(), 2);
        assert_eq!(h.sm.pending_len(), 2);
        assert!(fx
            .sends
            .iter()
            .any(|s| matches!(s.msg, RsmMsg::Accept { slot: 2, .. })));
    }

    #[test]
    fn queued_commands_coalesce_into_one_batch_slot() {
        // Depth 1: the first command occupies the pipeline, the next three
        // queue up and must ride out together in a single batched slot.
        let mut h = led_leader_with(batched_params(8, 1));
        h.request(10);
        for v in [11, 12, 13] {
            let fx = h.request(v);
            assert!(fx.sends.is_empty(), "pipeline full: nothing may leave");
        }
        let fx = h.deliver(
            1,
            RsmMsg::Accepted {
                b: b(1, 0),
                slot: 0,
                emitted: 0,
            },
        );
        let batched: Vec<Entry<u64>> = fx
            .sends
            .iter()
            .filter_map(|s| match &s.msg {
                RsmMsg::Accept { slot: 1, entry, .. } => Some(entry.clone()),
                _ => None,
            })
            .collect();
        assert!(
            batched.iter().all(|e| *e == Entry::Batch(vec![11, 12, 13])),
            "queued commands must coalesce: {batched:?}"
        );
        assert_eq!(batched.len(), 2, "one Accept per peer");
        assert_eq!(h.sm.pending_len(), 0);
    }

    #[test]
    fn batched_slot_commits_one_event_per_command_in_order() {
        let mut h = led_leader_with(batched_params(8, 1));
        h.request(10);
        for v in [11, 12, 13] {
            h.request(v);
        }
        h.deliver(
            1,
            RsmMsg::Accepted {
                b: b(1, 0),
                slot: 0,
                emitted: 0,
            },
        );
        let fx = h.deliver(
            1,
            RsmMsg::Accepted {
                b: b(1, 0),
                slot: 1,
                emitted: 0,
            },
        );
        let committed: Vec<(u64, Option<u64>)> = fx
            .outputs
            .iter()
            .filter_map(|o| match o {
                RsmEvent::Committed { slot, cmd } => Some((*slot, *cmd)),
                _ => None,
            })
            .collect();
        assert_eq!(
            committed,
            vec![(1, Some(11)), (1, Some(12)), (1, Some(13))],
            "a batch unfolds into per-command commits at its slot"
        );
        assert_eq!(
            h.sm.committed_commands().copied().collect::<Vec<_>>(),
            vec![10, 11, 12, 13]
        );
        assert_eq!(h.sm.committed_len(), 2, "two slots, four commands");
    }

    #[test]
    fn singleton_batch_stays_a_plain_cmd_on_the_wire() {
        // max_batch > 1 with exactly one queued command must not change the
        // wire shape: peers running older assumptions see Entry::Cmd.
        let mut h = led_leader_with(batched_params(8, 4));
        let fx = h.request(7);
        assert!(fx.sends.iter().all(|s| matches!(
            &s.msg,
            RsmMsg::Accept {
                slot: 0,
                entry: Entry::Cmd(7),
                ..
            }
        )));
    }

    #[test]
    fn learner_unfolds_a_batched_decide_from_the_leader() {
        // A non-leader replica receiving Decide{Batch} emits the same
        // per-command commit stream as the leader did.
        let mut h = Harness::new(2, 3);
        h.start();
        let fx = h.deliver(
            0,
            RsmMsg::Decide {
                slot: 0,
                entry: Entry::Batch(vec![5, 6]),
            },
        );
        let committed: Vec<(u64, Option<u64>)> = fx
            .outputs
            .iter()
            .filter_map(|o| match o {
                RsmEvent::Committed { slot, cmd } => Some((*slot, *cmd)),
                _ => None,
            })
            .collect();
        assert_eq!(committed, vec![(0, Some(5)), (0, Some(6))]);
        assert_eq!(
            h.sm.chosen_entries().get(&0),
            Some(&Entry::Batch(vec![5, 6])),
            "the lossless view keeps the batch intact"
        );
        assert_eq!(
            h.sm.chosen_log().get(&0),
            Some(&None),
            "the single-command view maps batches to None"
        );
    }

    #[test]
    fn batched_slots_survive_a_crash_restart() {
        use lls_primitives::StorageHandle;
        let env = Env::new(ProcessId(1), 3);
        let store = StorageHandle::in_memory();
        let mut fx: Effects<RsmMsg<u64>, RsmEvent<u64>> = Effects::new();
        {
            let mut sm: Log =
                ReplicatedLog::with_storage(&env, batched_params(8, 4), store.clone()).unwrap();
            let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
            sm.on_message(
                &mut ctx,
                ProcessId(0),
                RsmMsg::Decide {
                    slot: 0,
                    entry: Entry::Batch(vec![1, 2, 3]),
                },
            );
            fx.take();
            // Crash.
        }
        let sm2: Log = ReplicatedLog::with_storage(&env, batched_params(8, 4), store).unwrap();
        assert_eq!(
            sm2.chosen(0),
            Some(&Entry::Batch(vec![1, 2, 3])),
            "a chosen batch must survive the crash whole"
        );
        assert_eq!(
            sm2.committed_commands().copied().collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn restart_from_wal_preserves_log_and_rejoins_quietly() {
        use lls_primitives::StorageHandle;
        let env = Env::new(ProcessId(1), 3);
        let store = StorageHandle::in_memory();
        let mut fx: Effects<RsmMsg<u64>, RsmEvent<u64>> = Effects::new();
        {
            let mut sm: Log =
                ReplicatedLog::with_storage(&env, ConsensusParams::default(), store.clone())
                    .unwrap();
            let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
            sm.on_message(
                &mut ctx,
                ProcessId(0),
                RsmMsg::Prepare {
                    b: b(2, 0),
                    from_slot: 0,
                },
            );
            fx.take();
            let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
            sm.on_message(
                &mut ctx,
                ProcessId(0),
                RsmMsg::Accept {
                    b: b(2, 0),
                    slot: 1,
                    entry: Entry::Cmd(8),
                    decided: vec![],
                },
            );
            fx.take();
            let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
            sm.on_message(
                &mut ctx,
                ProcessId(0),
                RsmMsg::Decide {
                    slot: 0,
                    entry: Entry::Cmd(5),
                },
            );
            let out = fx.take();
            assert!(out.outputs.contains(&RsmEvent::Committed {
                slot: 0,
                cmd: Some(5)
            }));
            // Crash: the in-memory replica is dropped, only the WAL survives.
        }
        let mut sm2: Log =
            ReplicatedLog::with_storage(&env, ConsensusParams::default(), store).unwrap();
        assert_eq!(sm2.promised, b(2, 0), "promise must survive the crash");
        assert_eq!(
            sm2.chosen(0),
            Some(&Entry::Cmd(5)),
            "chosen slot must survive the crash"
        );
        assert_eq!(
            sm2.committed_len(),
            1,
            "recovered prefix is advanced past without re-emitting"
        );
        assert_eq!(
            sm2.omega().own_counter(),
            1,
            "incarnation bump: recovered counter 0 + 1"
        );
        // A higher-ballot Prepare reveals the pre-crash accepted suffix.
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm2.on_message(
            &mut ctx,
            ProcessId(2),
            RsmMsg::Prepare {
                b: b(4, 2),
                from_slot: 0,
            },
        );
        let out = fx.take();
        let revealed = out
            .sends
            .iter()
            .find_map(|s| match &s.msg {
                RsmMsg::Promise { accepted, .. } => Some(accepted.clone()),
                _ => None,
            })
            .expect("restarted acceptor must promise the higher ballot");
        assert!(
            revealed.contains(&(1, b(2, 0), Entry::Cmd(8))),
            "pre-crash accepted entry must be revealed: {revealed:?}"
        );
        // A later Decide for slot 1 commits only slot 1 — slot 0 is not
        // re-emitted after recovery.
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm2.on_message(
            &mut ctx,
            ProcessId(0),
            RsmMsg::Decide {
                slot: 1,
                entry: Entry::Cmd(8),
            },
        );
        let out = fx.take();
        let committed: Vec<u64> = out
            .outputs
            .iter()
            .filter_map(|o| match o {
                RsmEvent::Committed { slot, .. } => Some(*slot),
                _ => None,
            })
            .collect();
        assert_eq!(committed, vec![1]);
    }

    /// Decides `slots` commands (value = slot) on `sm` by direct Decide
    /// delivery, oldest first.
    fn decide_prefix(env: &Env, sm: &mut Log, slots: u64) {
        let mut fx: Effects<RsmMsg<u64>, RsmEvent<u64>> = Effects::new();
        for slot in 0..slots {
            let mut ctx = Ctx::new(env, Instant::ZERO, &mut fx);
            sm.on_message(
                &mut ctx,
                ProcessId(0),
                RsmMsg::Decide {
                    slot,
                    entry: Entry::Cmd(slot),
                },
            );
            fx.take();
        }
    }

    #[test]
    fn compaction_prunes_the_wal_and_recovery_starts_from_the_snapshot() {
        use lls_primitives::{SnapshotHandle, StorageHandle};
        let env = Env::new(ProcessId(1), 3);
        let store = StorageHandle::in_memory();
        let snaps = SnapshotHandle::in_memory();
        {
            let mut sm: Log = ReplicatedLog::with_storage_and_snapshots(
                &env,
                ConsensusParams::default(),
                store.clone(),
                snaps.clone(),
            )
            .unwrap();
            decide_prefix(&env, &mut sm, 10);
            let before = sm.wal_stats().live_bytes;
            assert!(sm.compact(8, vec![0xAB; 4]).unwrap(), "compaction runs");
            assert_eq!(sm.watermark(), 8);
            assert!(
                sm.wal_stats().live_bytes < before,
                "live bytes shrink: {} -> {}",
                before,
                sm.wal_stats().live_bytes
            );
            // Re-compacting at a non-advancing watermark declines.
            assert!(!sm.compact(8, vec![]).unwrap());
            // Crash.
        }
        let sm2: Log = ReplicatedLog::with_storage_and_snapshots(
            &env,
            ConsensusParams::default(),
            store,
            snaps,
        )
        .unwrap();
        assert_eq!(sm2.watermark(), 8);
        let snap = sm2.recovered_snapshot().expect("snapshot recovered");
        assert_eq!((snap.watermark, snap.data.clone()), (8, vec![0xAB; 4]));
        assert_eq!(
            sm2.committed_len(),
            10,
            "snapshot watermark + replayed WAL tail"
        );
        assert_eq!(
            sm2.committed_commands_from(sm2.watermark())
                .copied()
                .collect::<Vec<_>>(),
            vec![8, 9],
            "only the post-snapshot tail replays"
        );
    }

    #[test]
    fn compacted_acceptor_still_reveals_its_live_suffix_and_low_slot() {
        use lls_primitives::{SnapshotHandle, StorageHandle};
        let env = Env::new(ProcessId(1), 3);
        let mut sm: Log = ReplicatedLog::with_storage_and_snapshots(
            &env,
            ConsensusParams::default(),
            StorageHandle::in_memory(),
            SnapshotHandle::in_memory(),
        )
        .unwrap();
        let mut fx: Effects<RsmMsg<u64>, RsmEvent<u64>> = Effects::new();
        decide_prefix(&env, &mut sm, 5);
        // An accepted-but-undecided entry above the prefix.
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.on_message(
            &mut ctx,
            ProcessId(0),
            RsmMsg::Accept {
                b: b(1, 0),
                slot: 6,
                entry: Entry::Cmd(60),
                decided: vec![],
            },
        );
        fx.take();
        sm.compact(5, vec![1]).unwrap();
        // A higher-ballot Prepare from scratch: the promise must carry the
        // compaction horizon as low_slot and still reveal the live suffix.
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.on_message(
            &mut ctx,
            ProcessId(2),
            RsmMsg::Prepare {
                b: b(9, 2),
                from_slot: 0,
            },
        );
        let out = fx.take();
        let (low_slot, accepted) = out
            .sends
            .iter()
            .find_map(|s| match &s.msg {
                RsmMsg::Promise {
                    low_slot, accepted, ..
                } => Some((*low_slot, accepted.clone())),
                _ => None,
            })
            .expect("acceptor promises");
        assert_eq!(low_slot, 5, "low_slot reports the compacted watermark");
        assert!(
            accepted.contains(&(6, b(1, 0), Entry::Cmd(60))),
            "the live accepted suffix survives compaction: {accepted:?}"
        );
    }

    #[test]
    fn new_leader_floor_never_proposes_below_a_promised_low_slot() {
        // p0 prepares; p1's promise reports low_slot 4 (its slots 0..4 are
        // compacted away). The new leader must not Noop-fill below 4.
        let mut h = Harness::new(0, 3);
        h.start();
        let fx = h.deliver(
            1,
            RsmMsg::Promise {
                b: b(1, 0),
                accepted: vec![(5, b(1, 1), Entry::Cmd(50))],
                low_slot: 4,
            },
        );
        assert!(h.sm.is_established_leader());
        let proposed: Vec<u64> = fx
            .sends
            .iter()
            .filter_map(|s| match &s.msg {
                RsmMsg::Accept { slot, .. } => Some(*slot),
                _ => None,
            })
            .collect();
        assert!(
            proposed.iter().all(|slot| *slot >= 4),
            "no proposal below the floor: {proposed:?}"
        );
        assert!(
            proposed.contains(&5),
            "the revealed suffix is re-proposed: {proposed:?}"
        );
        // The leader asked the compacted peer nothing, but it *did* ask the
        // cluster to backfill its own gap below the floor.
        assert!(
            fx.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::CatchUp { .. })),
            "leader requests catch-up for slots below its floor"
        );
    }

    #[test]
    fn snapshot_transfer_catches_up_a_far_behind_follower() {
        use lls_primitives::{SnapshotHandle, StorageHandle};
        let env0 = Env::new(ProcessId(0), 3);
        // The sender: a compacted leader-side replica with a snapshot.
        let mut sender: Log = ReplicatedLog::with_storage_and_snapshots(
            &env0,
            ConsensusParams::default(),
            StorageHandle::in_memory(),
            SnapshotHandle::in_memory(),
        )
        .unwrap();
        decide_prefix(&env0, &mut sender, 12);
        sender.compact(12, vec![7; 100]).unwrap();
        // A fresh follower asks for slot 0: below the watermark, so the
        // sender must offer a snapshot, not stream Decides.
        let mut fx: Effects<RsmMsg<u64>, RsmEvent<u64>> = Effects::new();
        let mut ctx = Ctx::new(&env0, Instant::ZERO, &mut fx);
        sender.on_message(&mut ctx, ProcessId(2), RsmMsg::CatchUp { low_slot: 0 });
        let out = fx.take();
        let to_follower: Vec<RsmMsg<u64>> = out
            .sends
            .into_iter()
            .filter(|s| s.to == ProcessId(2))
            .map(|s| s.msg)
            .collect();
        assert!(
            to_follower
                .iter()
                .any(|m| matches!(m, RsmMsg::SnapshotOffer { watermark: 12, .. })),
            "below-watermark catch-up is served by state transfer"
        );
        assert!(
            to_follower
                .iter()
                .any(|m| matches!(m, RsmMsg::SnapshotChunk { .. })),
            "chunks ride along with the offer"
        );

        // The receiver: a fresh replica with its own (empty) stores.
        let env2 = Env::new(ProcessId(2), 3);
        let store2 = StorageHandle::in_memory();
        let snaps2 = SnapshotHandle::in_memory();
        let mut recv: Log = ReplicatedLog::with_storage_and_snapshots(
            &env2,
            ConsensusParams::default(),
            store2.clone(),
            snaps2.clone(),
        )
        .unwrap();
        let mut acks = Vec::new();
        let mut installed = Vec::new();
        for msg in to_follower {
            let mut ctx = Ctx::new(&env2, Instant::ZERO, &mut fx);
            recv.on_message(&mut ctx, ProcessId(0), msg);
            let out = fx.take();
            for s in out.sends {
                if let RsmMsg::SnapshotAck { index, .. } = s.msg {
                    acks.push(index);
                }
            }
            for o in out.outputs {
                if let RsmEvent::SnapshotInstalled { watermark, state } = o {
                    installed.push((watermark, state));
                }
            }
        }
        assert_eq!(
            installed,
            vec![(12, vec![7; 100])],
            "the follower installs the sender's exact state"
        );
        assert_eq!(recv.watermark(), 12);
        assert_eq!(recv.committed_len(), 12);
        assert!(
            acks.contains(&u32::MAX),
            "completion is acked so the sender can retire the transfer: {acks:?}"
        );
        // The install is durable: a crash right after recovers from the
        // installed snapshot.
        drop(recv);
        let recv2: Log = ReplicatedLog::with_storage_and_snapshots(
            &env2,
            ConsensusParams::default(),
            store2,
            snaps2,
        )
        .unwrap();
        assert_eq!(recv2.watermark(), 12, "installed snapshot survives a crash");

        // The completion ack retires the sender's outgoing transfer state.
        let mut ctx = Ctx::new(&env0, Instant::ZERO, &mut fx);
        sender.on_message(
            &mut ctx,
            ProcessId(2),
            RsmMsg::SnapshotAck {
                watermark: 12,
                index: u32::MAX,
            },
        );
        fx.take();
        let mut ctx = Ctx::new(&env0, Instant::ZERO, &mut fx);
        sender.on_timer(&mut ctx, RETRY_TIMER);
        let out = fx.take();
        assert!(
            !out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::SnapshotChunk { .. })),
            "no further chunk retries after completion"
        );
    }

    #[test]
    fn compaction_converts_unacked_decides_into_snapshot_transfers() {
        use lls_primitives::{SnapshotHandle, StorageHandle};
        // Regression: a decider whose un-acked Decide is compacted away must
        // not go silent — a peer missing the *final* slot has no later
        // chosen slot to trigger its own CatchUp, so in a quiet cluster the
        // decider's retry tick is the only remaining delivery path.
        let env = Env::new(ProcessId(0), 3);
        let mut sm: Log = ReplicatedLog::with_storage_and_snapshots(
            &env,
            ConsensusParams::default(),
            StorageHandle::in_memory(),
            SnapshotHandle::in_memory(),
        )
        .unwrap();
        let mut fx: Effects<RsmMsg<u64>, RsmEvent<u64>> = Effects::new();
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.on_start(&mut ctx);
        fx.take();
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.on_message(
            &mut ctx,
            ProcessId(1),
            RsmMsg::Promise {
                b: b(1, 0),
                accepted: vec![],
                low_slot: 0,
            },
        );
        fx.take();
        assert!(sm.is_established_leader());
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.on_request(&mut ctx, 7);
        fx.take();
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.on_message(
            &mut ctx,
            ProcessId(1),
            RsmMsg::Accepted {
                b: b(1, 0),
                slot: 0,
                emitted: 0,
            },
        );
        fx.take();
        assert!(sm.decide_trackers.contains_key(&0), "slot 0 is tracked");
        // p1 acknowledges the Decide; p2 never does.
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.on_message(&mut ctx, ProcessId(1), RsmMsg::DecideAck { slot: 0 });
        fx.take();
        // Compaction prunes the tracker — but remembers who is still owed.
        sm.compact(1, vec![9; 64]).unwrap();
        assert!(sm.decide_trackers.is_empty());
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.on_timer(&mut ctx, RETRY_TIMER);
        let out = fx.take();
        let offered: Vec<ProcessId> = out
            .sends
            .iter()
            .filter(|s| matches!(s.msg, RsmMsg::SnapshotOffer { watermark: 1, .. }))
            .map(|s| s.to)
            .collect();
        assert_eq!(
            offered,
            vec![ProcessId(2)],
            "only the un-acked peer is served a state transfer"
        );
        assert!(
            !out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::Decide { slot: 0, .. })),
            "the compacted Decide itself is not (and cannot be) resent"
        );
    }

    #[test]
    fn overheard_frontier_triggers_catchup_for_a_silent_gap() {
        // Regression: p2 misses the final suffix of the log; the decider
        // crashed, so nobody retransmits. The decider rejoins and broadcasts
        // CatchUp { low_slot: 5 } (it wants nothing — it *has* everything
        // below 5). That advert is p2's only evidence the suffix exists.
        let mut h = Harness::new(2, 3);
        h.start();
        // Quiet replica with no local evidence: retry ticks stay silent.
        let mut ctx = Ctx::new(&h.env, Instant::ZERO, &mut h.fx);
        h.sm.on_timer(&mut ctx, RETRY_TIMER);
        assert!(
            !h.fx
                .take()
                .sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::CatchUp { .. })),
            "no catch-up without evidence of missing slots"
        );
        h.deliver(0, RsmMsg::CatchUp { low_slot: 5 });
        let mut ctx = Ctx::new(&h.env, Instant::ZERO, &mut h.fx);
        h.sm.on_timer(&mut ctx, RETRY_TIMER);
        let out = h.fx.take();
        assert!(
            out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::CatchUp { low_slot: 0 })),
            "an overheard frontier above the cursor asks the cluster: {:?}",
            out.sends
        );
    }

    #[test]
    fn corrupt_chunk_is_ignored_and_retried_round_resends_it() {
        use lls_primitives::{SnapshotHandle, StorageHandle};
        let env0 = Env::new(ProcessId(0), 3);
        let mut sender: Log = ReplicatedLog::with_storage_and_snapshots(
            &env0,
            ConsensusParams::default(),
            StorageHandle::in_memory(),
            SnapshotHandle::in_memory(),
        )
        .unwrap();
        decide_prefix(&env0, &mut sender, 4);
        // A state large enough for several chunks.
        sender.compact(4, vec![9; 80 * 1024]).unwrap();
        let mut fx: Effects<RsmMsg<u64>, RsmEvent<u64>> = Effects::new();
        let mut ctx = Ctx::new(&env0, Instant::ZERO, &mut fx);
        sender.on_message(&mut ctx, ProcessId(2), RsmMsg::CatchUp { low_slot: 0 });
        let out = fx.take();
        let chunks: Vec<RsmMsg<u64>> = out
            .sends
            .into_iter()
            .filter(|s| matches!(s.msg, RsmMsg::SnapshotChunk { .. }))
            .map(|s| s.msg)
            .collect();
        assert!(
            chunks.len() >= 3,
            "32 KiB chunking: {} chunks",
            chunks.len()
        );

        let env2 = Env::new(ProcessId(2), 3);
        let mut recv: Log = ReplicatedLog::with_storage_and_snapshots(
            &env2,
            ConsensusParams::default(),
            StorageHandle::in_memory(),
            SnapshotHandle::in_memory(),
        )
        .unwrap();
        // Corrupt the first chunk's payload; its CRC no longer matches.
        let mut corrupted = chunks.clone();
        if let RsmMsg::SnapshotChunk { data, .. } = &mut corrupted[0] {
            data[0] ^= 0xFF;
        }
        for msg in corrupted {
            let mut ctx = Ctx::new(&env2, Instant::ZERO, &mut fx);
            recv.on_message(&mut ctx, ProcessId(0), msg);
            fx.take();
        }
        assert_eq!(
            recv.watermark(),
            0,
            "a transfer with a corrupt chunk must not install"
        );
        // Redelivering the genuine first chunk completes the transfer.
        let mut ctx = Ctx::new(&env2, Instant::ZERO, &mut fx);
        recv.on_message(&mut ctx, ProcessId(0), chunks[0].clone());
        let out = fx.take();
        assert!(
            out.outputs
                .iter()
                .any(|o| matches!(o, RsmEvent::SnapshotInstalled { watermark: 4, .. })),
            "the repaired chunk completes the install"
        );
        assert_eq!(recv.watermark(), 4);
    }

    #[test]
    fn decides_below_the_watermark_are_dropped() {
        use lls_primitives::{SnapshotHandle, StorageHandle};
        let env = Env::new(ProcessId(1), 3);
        let mut sm: Log = ReplicatedLog::with_storage_and_snapshots(
            &env,
            ConsensusParams::default(),
            StorageHandle::in_memory(),
            SnapshotHandle::in_memory(),
        )
        .unwrap();
        decide_prefix(&env, &mut sm, 6);
        sm.compact(6, vec![]).unwrap();
        let mut fx: Effects<RsmMsg<u64>, RsmEvent<u64>> = Effects::new();
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.on_message(
            &mut ctx,
            ProcessId(0),
            RsmMsg::Decide {
                slot: 2,
                entry: Entry::Cmd(999),
            },
        );
        let out = fx.take();
        assert!(
            out.outputs.is_empty(),
            "a pre-watermark Decide re-emits nothing"
        );
        assert_eq!(sm.chosen(2), None, "and is not re-admitted into the log");
    }

    // ---- Leader leases and the fast read path ----

    use crate::single::LeaseParams;

    fn t(ticks: u64) -> Instant {
        Instant::from_ticks(ticks)
    }

    /// Defaults with leases on: duration 120, skew 8 — blackout ends at
    /// tick 128, serving margin 112, holdoff margin 128.
    fn lease_params() -> ConsensusParams {
        ConsensusParams {
            lease: LeaseParams::enabled(),
            ..ConsensusParams::default()
        }
    }

    /// Drives p0 to `Led` *after* the boot blackout (leases delay the first
    /// election by one lease + skew): start at 0, retry tick at 200 starts
    /// the prepare, p1's promise completes the quorum.
    fn led_leaseholder() -> Harness {
        let mut h = Harness::with_params(0, 3, lease_params());
        h.start();
        let out = h.retry_at(t(200));
        assert!(
            out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::Prepare { .. })),
            "the blackout has expired; the retry tick starts the prepare"
        );
        h.deliver_at(
            t(201),
            1,
            RsmMsg::Promise {
                b: b(1, 0),
                accepted: vec![],
                low_slot: 0,
            },
        );
        assert!(h.sm.is_established_leader());
        h
    }

    #[test]
    fn boot_blackout_delays_the_first_election() {
        let mut h = Harness::with_params(0, 3, lease_params());
        let out = h.start();
        assert!(
            !out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::Prepare { .. })),
            "no prepare may start inside the boot blackout"
        );
        let out = h.retry_at(t(40));
        assert!(
            !out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::Prepare { .. })),
            "still inside the blackout at tick 40"
        );
        let out = h.retry_at(t(129));
        assert!(
            out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::Prepare { .. })),
            "the first tick past duration+skew may elect"
        );
    }

    #[test]
    fn lease_activates_on_quorum_ack_and_expires_conservatively() {
        let mut h = led_leaseholder();
        assert!(!h.sm.lease_read_allowed(t(201)), "no grant round yet");
        let out = h.retry_at(t(210));
        let grants = out
            .sends
            .iter()
            .filter(|s| matches!(s.msg, RsmMsg::LeaseGrant { seq: 1, .. }))
            .count();
        assert_eq!(grants, 2, "one grant per peer, riding the retry tick");
        assert!(
            !h.sm.lease_read_allowed(t(210)),
            "a self-ack alone is not a quorum at n=3"
        );
        h.deliver_at(t(211), 1, RsmMsg::LeaseAck { b: b(1, 0), seq: 1 });
        assert!(h.sm.lease_read_allowed(t(211)));
        // Serving window: round_start (210) + duration (120) - skew (8).
        assert_eq!(h.sm.lease_active_until(), Some(t(322)));
        assert!(h.sm.lease_read_allowed(t(321)));
        assert!(
            !h.sm.lease_read_allowed(t(322)),
            "the conservative local expiry is exclusive"
        );
    }

    #[test]
    fn stale_lease_acks_do_not_activate() {
        let mut h = led_leaseholder();
        h.retry_at(t(210));
        h.retry_at(t(250)); // seq 2 supersedes seq 1
        h.deliver_at(t(251), 1, RsmMsg::LeaseAck { b: b(1, 0), seq: 1 });
        assert!(
            !h.sm.lease_read_allowed(t(251)),
            "an ack of a superseded round must not activate the lease"
        );
        h.deliver_at(t(252), 2, RsmMsg::LeaseAck { b: b(1, 0), seq: 2 });
        assert!(h.sm.lease_read_allowed(t(252)));
    }

    #[test]
    fn granter_nacks_competing_prepares_until_holdoff_expires() {
        let mut h = Harness::with_params(1, 3, lease_params());
        h.start();
        // p0's established leader grants at tick 200: holdoff until
        // 200 + 120 + 8 = 328 on p1's clock.
        let out = h.deliver_at(t(200), 0, RsmMsg::LeaseGrant { b: b(1, 0), seq: 1 });
        assert!(
            out.sends
                .iter()
                .any(|s| s.to == ProcessId(0) && matches!(s.msg, RsmMsg::LeaseAck { seq: 1, .. })),
            "the grant is acked"
        );
        // A competing prepare from p2 is refused while the holdoff runs...
        let out = h.deliver_at(
            t(250),
            2,
            RsmMsg::Prepare {
                b: b(2, 2),
                from_slot: 0,
            },
        );
        assert!(
            out.sends
                .iter()
                .any(|s| s.to == ProcessId(2) && matches!(s.msg, RsmMsg::Nack { .. })),
            "competing prepare must be nacked during the holdoff"
        );
        assert!(
            !out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::Promise { .. })),
            "and certainly not promised"
        );
        // ...while the holder itself may re-prepare (e.g. after a view
        // change bumps its round)...
        let out = h.deliver_at(
            t(251),
            0,
            RsmMsg::Prepare {
                b: b(3, 0),
                from_slot: 0,
            },
        );
        assert!(
            out.sends
                .iter()
                .any(|s| s.to == ProcessId(0) && matches!(s.msg, RsmMsg::Promise { .. })),
            "the leaseholder's own prepare passes the gate"
        );
        // ...and once the holdoff expires, anyone may.
        let out = h.deliver_at(
            t(400),
            2,
            RsmMsg::Prepare {
                b: b(4, 2),
                from_slot: 0,
            },
        );
        assert!(
            out.sends
                .iter()
                .any(|s| s.to == ProcessId(2) && matches!(s.msg, RsmMsg::Promise { .. })),
            "after expiry the competing prepare is promised"
        );
    }

    #[test]
    fn deposed_leader_grant_is_nacked_and_abdication_drops_the_lease() {
        // Granter p1 has already promised a higher ballot: the old leader's
        // renewal must be refused so it learns and abdicates.
        let mut h = Harness::with_params(1, 3, lease_params());
        h.start();
        h.deliver_at(
            t(200),
            2,
            RsmMsg::Prepare {
                b: b(2, 2),
                from_slot: 0,
            },
        );
        let out = h.deliver_at(t(210), 0, RsmMsg::LeaseGrant { b: b(1, 0), seq: 4 });
        assert!(
            out.sends
                .iter()
                .any(|s| s.to == ProcessId(0) && matches!(s.msg, RsmMsg::Nack { .. })),
            "a grant under a superseded ballot is nacked"
        );
        assert!(
            !out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::LeaseAck { .. })),
            "and never acked"
        );
        // The old leader, holding an active lease, abdicates on that Nack
        // and must stop serving immediately.
        let mut leader = led_leaseholder();
        leader.retry_at(t(210));
        leader.deliver_at(t(211), 1, RsmMsg::LeaseAck { b: b(1, 0), seq: 1 });
        assert!(leader.sm.lease_read_allowed(t(212)));
        leader.deliver_at(
            t(213),
            1,
            RsmMsg::Nack {
                b: b(1, 0),
                higher: b(2, 2),
            },
        );
        assert!(
            !leader.sm.lease_read_allowed(t(214)),
            "abdication must drop the lease with it"
        );
    }

    #[test]
    fn newer_leaders_grant_deposes_a_stale_leader_and_keeps_its_holdoff() {
        // Regression: a stale leader that acks a newer leader's grant must
        // not usurp the holdoff it now owes. Before the fix, its next
        // retry tick ran lease_tick, flipped `holdoff_for` back to itself
        // while max-extending `holdoff_until`, and after abdicating it
        // could elect itself inside the new holder's live lease window —
        // overlapping leases at n >= 5.
        let mut h = led_leaseholder();
        h.retry_at(t(210)); // p0 self-grants: holdoff_for = p0 until 338
        h.deliver_at(t(211), 1, RsmMsg::LeaseAck { b: b(1, 0), seq: 1 });
        assert!(h.sm.lease_read_allowed(t(212)));
        // p1 won ballot (2, 1) elsewhere and now grants its lease to p0.
        let out = h.deliver_at(t(230), 1, RsmMsg::LeaseGrant { b: b(2, 1), seq: 1 });
        assert!(
            out.sends
                .iter()
                .any(|s| s.to == ProcessId(1) && matches!(s.msg, RsmMsg::LeaseAck { seq: 1, .. })),
            "the outranking grant is acked"
        );
        assert!(
            !h.sm.is_established_leader(),
            "the outranking grant deposes the stale leader before the ack"
        );
        assert!(
            !h.sm.lease_read_allowed(t(231)),
            "deposed means no more lease-reads"
        );
        // The next retry tick must neither renew the old lease nor start a
        // competing prepare inside p1's holdoff (230 + 128 = 358).
        let out = h.retry_at(t(240));
        assert!(
            !out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::LeaseGrant { .. } | RsmMsg::Prepare { .. })),
            "no self-grant and no election while holding off for p1"
        );
        let out = h.retry_at(t(300));
        assert!(
            !out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::Prepare { .. })),
            "still holding off for p1 deep into its lease window"
        );
        // Once p1's holdoff expires, p0 may run for election again.
        let out = h.retry_at(t(360));
        assert!(
            out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::Prepare { .. })),
            "liveness: elections resume after the owed holdoff expires"
        );
    }

    #[test]
    fn lease_tick_never_usurps_a_holdoff_owed_to_another() {
        // Belt and braces for the same regression, exercising the
        // lease_tick guard directly (white-box: the deposing LeaseGrant
        // handler makes Led-while-owing unreachable through messages,
        // which is exactly what this guard backstops).
        let mut h = led_leaseholder();
        h.sm.holdoff_for = Some(ProcessId(1));
        h.sm.holdoff_until = t(400);
        let out = h.retry_at(t(210));
        assert!(
            !out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::LeaseGrant { .. })),
            "no grant round may start inside an owed holdoff"
        );
        assert_eq!(
            h.sm.holdoff_for,
            Some(ProcessId(1)),
            "the owed holdoff is not replaced by a self-grant"
        );
        // Once the owed holdoff expires, renewals resume.
        let out = h.retry_at(t(410));
        assert!(
            out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::LeaseGrant { .. })),
            "renewals resume once the owed holdoff expires"
        );
        assert_eq!(h.sm.holdoff_for, Some(ProcessId(0)));
    }

    #[test]
    fn read_index_is_answered_only_under_an_active_lease() {
        let mut h = led_leaseholder();
        let out = h.deliver_at(t(205), 2, RsmMsg::ReadIndex { req: 7 });
        assert!(
            out.sends.is_empty(),
            "no lease yet: the read-index request is dropped, not answered"
        );
        h.retry_at(t(210));
        h.deliver_at(t(211), 1, RsmMsg::LeaseAck { b: b(1, 0), seq: 1 });
        let out = h.deliver_at(t(212), 2, RsmMsg::ReadIndex { req: 7 });
        assert!(
            out.sends
                .iter()
                .any(|s| s.to == ProcessId(2)
                    && s.msg == RsmMsg::ReadIndexReply { req: 7, index: 0 }),
            "a leaseholder answers with its committed length"
        );
        // Past the serving window the same request is dropped again.
        let out = h.deliver_at(t(500), 2, RsmMsg::ReadIndex { req: 8 });
        assert!(
            out.sends.is_empty(),
            "an expired lease must not certify reads"
        );
    }

    #[test]
    fn request_read_index_is_synchronous_on_the_leaseholder() {
        let mut h = led_leaseholder();
        h.retry_at(t(210));
        h.deliver_at(t(211), 1, RsmMsg::LeaseAck { b: b(1, 0), seq: 1 });
        let mut ctx = Ctx::new(&h.env, t(212), &mut h.fx);
        h.sm.request_read_index(&mut ctx, 42);
        let out = h.fx.take();
        assert!(
            out.outputs
                .contains(&RsmEvent::ReadIndexAt { req: 42, index: 0 }),
            "the leaseholder certifies its own reads synchronously"
        );
        assert!(out.sends.is_empty());
    }

    #[test]
    fn skew_inversion_widens_the_serving_window_past_the_holdoff() {
        // The sabotage switch recreates the classic broken lease: the
        // leader serves until +skew while granters free themselves at
        // -skew — the E23 violation plane depends on this inversion.
        let params = ConsensusParams {
            lease: LeaseParams {
                unsafe_skew_inversion: true,
                ..LeaseParams::enabled()
            },
            ..ConsensusParams::default()
        };
        let mut h = Harness::with_params(0, 3, params);
        h.start();
        h.retry_at(t(200));
        h.deliver_at(
            t(201),
            1,
            RsmMsg::Promise {
                b: b(1, 0),
                accepted: vec![],
                low_slot: 0,
            },
        );
        h.retry_at(t(210));
        h.deliver_at(t(211), 1, RsmMsg::LeaseAck { b: b(1, 0), seq: 1 });
        // Broken serving window: 210 + 120 + 8 = 338 (safe: 322).
        assert_eq!(h.sm.lease_active_until(), Some(t(338)));
        // Broken granter holdoff, receiving side: a grant at 210 frees the
        // granter at 210 + 120 - 8 = 322 < 338 — the stale-read gap.
        let mut g = Harness::with_params(1, 3, params);
        g.start();
        g.deliver_at(t(210), 0, RsmMsg::LeaseGrant { b: b(1, 0), seq: 1 });
        let out = g.deliver_at(
            t(330),
            2,
            RsmMsg::Prepare {
                b: b(2, 2),
                from_slot: 0,
            },
        );
        assert!(
            out.sends
                .iter()
                .any(|s| s.to == ProcessId(2) && matches!(s.msg, RsmMsg::Promise { .. })),
            "the broken granter frees itself while the leader still serves"
        );
    }
}
