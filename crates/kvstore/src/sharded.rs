//! The sharded key-value store: key-routed client path over S independent
//! replicated logs, one shared Ω per node.
//!
//! This is the `kvstore` half of the shard plane
//! ([`consensus::shard`](consensus::shard)): the consensus layer gives each
//! shard its own slot sequence and multiplexes one Ω across all co-located
//! groups; this module routes *keys* onto those groups:
//!
//! * [`ShardedSubmitQueue`] — the client side. Commands are routed to their
//!   shard by the placement map's stable key hash, each shard gets its own
//!   [`SubmitQueue`] window (per-shard pipelines fill independently), and
//!   replies settle against the shard that owns the key.
//! * [`ShardedKvNode`] — the server side. One
//!   [`ShardedNode`](consensus::ShardedNode) of tagged commands plus one
//!   [`KvState`] **per shard**, so disjoint keys commit and apply in
//!   parallel with no cross-shard ordering (and no cross-shard transactions
//!   — by construction a command touches exactly one key, hence one shard).
//!
//! Exactly-once semantics are preserved per shard: a client's `(client,
//! seq)` tags are deduplicated by the session table of the shard that
//! applies them, and a key always routes to the same shard, so a retry can
//! never double-apply on a different group.

use std::collections::BTreeMap;

use lls_obs::{CmdStage, NoopProbe, Probe, ProbeEvent, ReadMode};
use lls_primitives::wire::Wire;
use lls_primitives::{
    Ctx, Effects, Env, Instant, ProcessId, Sm, SnapshotHandle, StorageError, StorageHandle, TimerId,
};
use serde::{Deserialize, Serialize};

use consensus::shard::{
    PlacementManager, PlacementMap, ShardEvent, ShardId, ShardMsg, ShardRequest, ShardedNode,
};
use consensus::ConsensusParams;
use omega::CommEffOmega;

use crate::command::{ClientId, KvCmd, KvResponse, Tagged};
use crate::state::KvState;
use crate::submit::{Settled, SubmitQueue};

/// Client-side fan-out: one windowed [`SubmitQueue`] per shard, fed by the
/// placement map's key router.
///
/// The caller submits plain tagged commands; the queue decides which shard
/// owns each key, releases up to a per-shard window concurrently (the whole
/// point of sharding: S pipelines fill in parallel), and routes every reply
/// back to the queue of the shard that owns it.
#[derive(Debug, Clone)]
pub struct ShardedSubmitQueue<P: Probe = NoopProbe> {
    map: PlacementMap,
    queues: BTreeMap<ShardId, SubmitQueue<P>>,
    routes: BTreeMap<(ClientId, u64), ShardId>,
}

impl ShardedSubmitQueue {
    /// Creates a queue over `map` with a `window` of in-flight commands
    /// **per shard**.
    pub fn new(map: PlacementMap, window: usize) -> Self {
        ShardedSubmitQueue::with_probe(map, window, ProcessId(0), NoopProbe)
    }
}

impl<P: Probe> ShardedSubmitQueue<P> {
    /// Like [`ShardedSubmitQueue::new`], with a lifecycle probe shared by
    /// every per-shard queue: each submitted command is stamped
    /// `Enqueue` → `ShardRoute` (carrying the owning shard id — the only
    /// place the key→shard decision is visible) and `Reply` on settlement.
    pub fn with_probe(map: PlacementMap, window: usize, node: ProcessId, probe: P) -> Self {
        let queues = map
            .shard_ids()
            .map(|shard| (shard, SubmitQueue::with_probe(window, node, probe.clone())))
            .collect();
        ShardedSubmitQueue {
            map,
            queues,
            routes: BTreeMap::new(),
        }
    }

    /// Sets the timestamp stamped on subsequent lifecycle events, on every
    /// per-shard queue (see [`SubmitQueue::set_now`]).
    pub fn set_now(&mut self, now: Instant) {
        for q in self.queues.values_mut() {
            q.set_now(now);
        }
    }

    /// The shard that owns `cmd`'s key.
    pub fn shard_of(&self, cmd: &Tagged<KvCmd>) -> ShardId {
        self.map.shard_of_key(cmd.cmd.key())
    }

    /// Enqueues a minted command on the queue of the shard owning its key.
    pub fn submit(&mut self, cmd: Tagged<KvCmd>) {
        let shard = self.shard_of(&cmd);
        let (client, seq) = (cmd.client, cmd.seq);
        self.routes.insert((client, seq), shard);
        let q = self
            .queues
            .get_mut(&shard)
            .expect("router is total over the map's shards");
        q.submit(cmd);
        q.note_route(client, seq, shard.0);
    }

    /// Releases queued commands up to each shard's free window and returns
    /// them per shard, for the caller to deliver to that shard's group.
    pub fn drain(&mut self) -> Vec<(ShardId, Vec<Tagged<KvCmd>>)> {
        self.queues
            .iter_mut()
            .filter_map(|(shard, q)| {
                let burst = q.drain();
                (!burst.is_empty()).then_some((*shard, burst))
            })
            .collect()
    }

    /// Routes one applied reply back to the shard that owns the command's
    /// key. Returns the completed pair, or `None` for unknown/duplicate
    /// tags.
    pub fn settle(&mut self, client: ClientId, seq: u64, response: &KvResponse) -> Option<Settled> {
        let shard = self.routes.get(&(client, seq)).copied()?;
        let settled = self.queues.get_mut(&shard)?.settle(client, seq, response);
        if settled.is_some() {
            self.routes.remove(&(client, seq));
        }
        settled
    }

    /// Enables automatic re-submission on every shard queue (see
    /// [`SubmitQueue::set_retry_backoff`]); each shard's jitter stream is
    /// decorrelated by folding the shard id into `seed`, so S queues
    /// recovering from the same leader change don't retry in lockstep.
    pub fn set_retry_backoff(&mut self, base_ticks: u64, seed: u64) {
        for (shard, q) in &mut self.queues {
            q.set_retry_backoff(base_ticks, seed ^ (u64::from(shard.0) << 32));
        }
    }

    /// Notes a leader change on every shard queue (see
    /// [`SubmitQueue::on_leader_change`]): all in-flight commands are
    /// scheduled for re-submission with jittered exponential backoff.
    pub fn on_leader_change(&mut self) {
        for q in self.queues.values_mut() {
            q.on_leader_change();
        }
    }

    /// Advances every shard queue's retry clock by one tick and returns
    /// the commands due for re-delivery, grouped per shard (see
    /// [`SubmitQueue::on_tick`]).
    pub fn on_tick(&mut self) -> Vec<(ShardId, Vec<Tagged<KvCmd>>)> {
        self.queues
            .iter_mut()
            .filter_map(|(shard, q)| {
                let again = q.on_tick();
                (!again.is_empty()).then_some((*shard, again))
            })
            .collect()
    }

    /// Exact copies of every released-but-unsettled command across all
    /// shards, for retry after a timeout or leader change.
    pub fn outstanding(&self) -> Vec<(ShardId, Vec<Tagged<KvCmd>>)> {
        self.queues
            .iter()
            .filter_map(|(shard, q)| {
                let out = q.outstanding();
                (!out.is_empty()).then_some((*shard, out))
            })
            .collect()
    }

    /// Commands waiting locally across all shard queues.
    pub fn queued_len(&self) -> usize {
        self.queues.values().map(SubmitQueue::queued_len).sum()
    }

    /// Commands released to the transport across all shard queues.
    pub fn released_len(&self) -> usize {
        self.queues.values().map(SubmitQueue::released_len).sum()
    }

    /// `true` once every submitted command on every shard has settled.
    pub fn is_idle(&self) -> bool {
        self.queues.values().all(SubmitQueue::is_idle)
    }

    /// The placement map this queue routes with.
    pub fn map(&self) -> &PlacementMap {
        &self.map
    }
}

/// Observable events of a sharded store node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardedKvEvent {
    /// The node's shared Ω detector changed its output (one event per node,
    /// however many shards it hosts).
    Leader(ProcessId),
    /// A command committed in `shard` at `slot` and was applied (or
    /// suppressed as a duplicate) with the given response — or a
    /// fast-path read resolved against that shard.
    Applied {
        /// The shard group that decided the command.
        shard: ShardId,
        /// Log slot within that shard's sequence. For fast-path reads
        /// (lease or read-index), which never enter the log, this is the
        /// shard's apply *watermark* — the slot its next committed write
        /// will occupy — not a unique log position. Correlate
        /// completions by `(client, seq)`, never by `slot` alone.
        slot: u64,
        /// Issuing client.
        client: ClientId,
        /// Client sequence number.
        seq: u64,
        /// The application outcome.
        response: KvResponse,
    },
    /// A peer's snapshot of one shard was installed by state transfer:
    /// that shard's store now materializes every command below
    /// `watermark` without having seen the individual `Applied` events.
    SnapshotInstalled {
        /// The shard whose group installed the snapshot.
        shard: ShardId,
        /// First slot NOT covered by the installed snapshot.
        watermark: u64,
    },
}

/// One node of the sharded key-value store: a
/// [`ShardedNode`](consensus::ShardedNode) of tagged commands plus one
/// materialized [`KvState`] per locally attached shard.
///
/// Requests are plain tagged commands — the node routes each to the shard
/// group owning its key (the *key-routed client path*), so callers need no
/// shard awareness at all.
#[derive(Debug, Clone)]
pub struct ShardedKvNode<P: Probe = NoopProbe> {
    node: ShardedNode<Tagged<KvCmd>, P>,
    states: BTreeMap<ShardId, KvState>,
    compact_every: u64,
    applied_since_compact: BTreeMap<ShardId, u64>,
    /// Per-shard apply watermark (contiguous slots folded into the store,
    /// no-op fillers included) that read-index reads wait on.
    applied_upto: BTreeMap<ShardId, u64>,
    /// Fast-path reads awaiting a read index and/or their shard's apply
    /// watermark, keyed by read token.
    reads: BTreeMap<u64, PendingShardRead>,
    next_read_token: u64,
}

/// A fast-path read parked on one shard group: first for the leaseholder's
/// read-index answer, then for the shard's apply loop to reach it.
#[derive(Debug, Clone)]
struct PendingShardRead {
    shard: ShardId,
    client: ClientId,
    seq: u64,
    key: String,
    index: Option<u64>,
}

impl ShardedKvNode {
    /// Creates a node hosting the shards attached in `placement`.
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters inside `params` are invalid.
    pub fn new(env: &Env, params: ConsensusParams, placement: PlacementManager) -> Self {
        ShardedKvNode::new_with_probe(env, params, placement, NoopProbe)
    }

    /// Creates a node whose shard groups each recover from their own WAL
    /// segment, plus a dedicated segment for the shared Ω counter.
    ///
    /// # Errors
    ///
    /// Fails if any WAL cannot be read or a boot record cannot be written.
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters are invalid or an attached shard has no
    /// storage handle.
    pub fn with_storage(
        env: &Env,
        params: ConsensusParams,
        placement: PlacementManager,
        stores: &BTreeMap<ShardId, StorageHandle>,
        omega_store: StorageHandle,
    ) -> Result<Self, StorageError> {
        let node = ShardedNode::with_storage(env, params, placement, stores, omega_store)?;
        ShardedKvNode::from_node(node)
    }

    /// Like [`ShardedKvNode::with_storage`], additionally attaching a
    /// snapshot store to each shard in `snaps`: those groups recover from
    /// their durable snapshot plus the WAL tail above its watermark, and
    /// may be compacted ([`ShardedKvNode::set_compact_every`],
    /// [`ShardedKvNode::compact_shard_now`]).
    ///
    /// # Errors
    ///
    /// Fails if any WAL or snapshot store cannot be read, a boot record
    /// cannot be written, or a recovered snapshot does not decode as a
    /// [`KvState`].
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters are invalid or an attached shard has no
    /// storage handle.
    pub fn with_storage_and_snapshots(
        env: &Env,
        params: ConsensusParams,
        placement: PlacementManager,
        stores: &BTreeMap<ShardId, StorageHandle>,
        snaps: &BTreeMap<ShardId, SnapshotHandle>,
        omega_store: StorageHandle,
    ) -> Result<Self, StorageError> {
        let node = ShardedNode::with_storage_and_snapshots(
            env,
            params,
            placement,
            stores,
            snaps,
            omega_store,
        )?;
        ShardedKvNode::from_node(node)
    }
}

impl<P: Probe> ShardedKvNode<P> {
    /// Like [`ShardedKvNode::new`], with an observability probe threaded
    /// down through every shard group into the shared Ω detector.
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters inside `params` are invalid.
    pub fn new_with_probe(
        env: &Env,
        params: ConsensusParams,
        placement: PlacementManager,
        probe: P,
    ) -> Self {
        let node = ShardedNode::new_with_probe(env, params, placement, probe);
        let states = node
            .placement()
            .attached()
            .map(|s| (s, KvState::new()))
            .collect();
        ShardedKvNode {
            node,
            states,
            compact_every: 0,
            applied_since_compact: BTreeMap::new(),
            applied_upto: BTreeMap::new(),
            reads: BTreeMap::new(),
            next_read_token: 0,
        }
    }

    /// Wraps a recovered sharded node, rebuilding each shard's store from
    /// its group's recovered snapshot (if any) plus a replay of the
    /// committed prefix above the snapshot watermark.
    fn from_node(node: ShardedNode<Tagged<KvCmd>, P>) -> Result<Self, StorageError> {
        let mut states = BTreeMap::new();
        let mut applied_upto = BTreeMap::new();
        for (shard, group) in node.groups() {
            let mut state = match group.recovered_snapshot() {
                Some(snap) => KvState::from_bytes(&snap.data).map_err(StorageError::Decode)?,
                None => KvState::new(),
            };
            for cmd in group.committed_commands_from(group.watermark()) {
                state.apply(cmd);
            }
            states.insert(shard, state);
            applied_upto.insert(shard, group.committed_len());
        }
        Ok(ShardedKvNode {
            node,
            states,
            compact_every: 0,
            applied_since_compact: BTreeMap::new(),
            applied_upto,
            reads: BTreeMap::new(),
            next_read_token: 0,
        })
    }

    /// Enables automatic compaction: a shard that applies `every` commands
    /// since its last snapshot is snapshotted at its committed prefix and
    /// its WAL rewritten to live records only. 0 disables (the default). A
    /// no-op for shards without a snapshot store.
    pub fn set_compact_every(&mut self, every: u64) {
        self.compact_every = every;
    }

    /// Snapshots `shard`'s store at its committed prefix and compacts its
    /// WAL segment. Returns `Ok(false)` when the shard is not attached or
    /// its group declined (no snapshot store, watermark not advancing,
    /// wedged).
    ///
    /// # Errors
    ///
    /// Propagates a WAL rewrite failure; the group is wedged first.
    pub fn compact_shard_now(&mut self, shard: ShardId) -> Result<bool, StorageError> {
        let Some(state) = self.states.get(&shard) else {
            return Ok(false);
        };
        let Some(watermark) = self.node.group(shard).map(|g| g.committed_len()) else {
            return Ok(false);
        };
        let bytes = state.to_bytes();
        self.node.compact_shard(shard, watermark, bytes)
    }

    /// The materialized store of `shard`, if attached.
    pub fn state(&self, shard: ShardId) -> Option<&KvState> {
        self.states.get(&shard)
    }

    /// The underlying sharded consensus node (for instrumentation).
    pub fn node(&self) -> &ShardedNode<Tagged<KvCmd>, P> {
        &self.node
    }

    /// The node's shared Ω detector (for leader discovery).
    pub fn omega(&self) -> &CommEffOmega<P> {
        self.node.omega()
    }

    /// The placement manager (map + local attachments).
    pub fn placement(&self) -> &PlacementManager {
        self.node.placement()
    }

    /// Contiguous slots folded into `shard`'s store (its apply watermark).
    pub fn applied_upto(&self, shard: ShardId) -> u64 {
        self.applied_upto.get(&shard).copied().unwrap_or(0)
    }

    /// Fast-path reads still waiting on a read index or an apply loop,
    /// across all shards.
    pub fn pending_reads(&self) -> usize {
        self.reads.len()
    }

    /// Answers one read from `shard`'s materialized store and stamps it on
    /// the probe plane — the single exit point of every fast-path read.
    fn serve_read(
        &self,
        ctx: &mut Ctx<'_, <Self as Sm>::Msg, ShardedKvEvent>,
        shard: ShardId,
        client: ClientId,
        seq: u64,
        key: &str,
        mode: ReadMode,
    ) {
        let response = self
            .states
            .get(&shard)
            .map_or(KvResponse::Value { value: None }, |s| s.read(key));
        if P::ENABLED {
            if let Some(group) = self.node.group(shard) {
                group.probe().emit(ProbeEvent::ReadServed {
                    node: ctx.id(),
                    at: ctx.now(),
                    shard: shard.0,
                    mode,
                    watermark: self.applied_upto(shard),
                });
            }
        }
        ctx.output(ShardedKvEvent::Applied {
            shard,
            slot: self.applied_upto(shard),
            client,
            seq,
            response,
        });
    }

    /// Serves every parked read whose resolved index its shard's apply
    /// watermark has reached.
    fn serve_ready_reads(&mut self, ctx: &mut Ctx<'_, <Self as Sm>::Msg, ShardedKvEvent>) {
        let ready: Vec<u64> = self
            .reads
            .iter()
            .filter(|(_, r)| r.index.is_some_and(|i| i <= self.applied_upto(r.shard)))
            .map(|(t, _)| *t)
            .collect();
        for token in ready {
            let read = self.reads.remove(&token).expect("token just listed");
            self.serve_read(
                ctx,
                read.shard,
                read.client,
                read.seq,
                &read.key,
                ReadMode::ReadIndex,
            );
        }
    }

    /// The fast read path, per shard group: the group's leaseholder answers
    /// immediately from the local store; a follower runs a read-index round
    /// against the believed leader; a leader without an active lease falls
    /// back to replicating the read through that group's log.
    fn on_read(
        &mut self,
        ctx: &mut Ctx<'_, <Self as Sm>::Msg, ShardedKvEvent>,
        shard: ShardId,
        req: Tagged<KvCmd>,
    ) {
        if self.node.lease_read_allowed(shard, ctx.now()) {
            self.serve_read(
                ctx,
                shard,
                req.client,
                req.seq,
                req.cmd.key(),
                ReadMode::Lease,
            );
            return;
        }
        if self
            .node
            .group(shard)
            .is_some_and(|g| g.is_established_leader())
        {
            self.drive(ctx, |node, ictx| {
                node.on_request(ictx, ShardRequest { shard, cmd: req })
            });
            return;
        }
        // A retry replaces the client's own parked read: under a stable
        // leader the leader-change purge never fires, so tokens of rounds
        // whose ReadIndex (or its reply) was dropped would otherwise
        // accumulate forever, one per retry.
        self.reads
            .retain(|_, r| r.client != req.client || r.seq != req.seq);
        let token = self.next_read_token;
        self.next_read_token += 1;
        self.reads.insert(
            token,
            PendingShardRead {
                shard,
                client: req.client,
                seq: req.seq,
                key: req.cmd.key().to_owned(),
                index: None,
            },
        );
        self.drive(ctx, |node, ictx| {
            node.request_read_index(ictx, shard, token)
        });
    }

    /// Translates shard-plane events into applied KV events, feeding each
    /// committed command to the state of the shard that decided it.
    fn translate(
        &mut self,
        ctx: &mut Ctx<'_, <Self as Sm>::Msg, ShardedKvEvent>,
        events: Vec<ShardEvent<Tagged<KvCmd>>>,
    ) {
        for ev in events {
            match ev {
                ShardEvent::Leader(l) => {
                    // A forwarded read-index request may have raced the old
                    // leader's fall; the client's retry cadence re-issues.
                    self.reads.retain(|_, r| r.index.is_some());
                    ctx.output(ShardedKvEvent::Leader(l));
                }
                ShardEvent::Committed { shard, slot, cmd } => {
                    let upto = self.applied_upto.entry(shard).or_default();
                    *upto = (*upto).max(slot + 1);
                    if let Some(tagged) = cmd {
                        let state = self.states.entry(shard).or_default();
                        let response = state.apply(&tagged);
                        *self.applied_since_compact.entry(shard).or_default() += 1;
                        if P::ENABLED {
                            if let Some(group) = self.node.group(shard) {
                                group.probe().emit(ProbeEvent::CmdLifecycle {
                                    node: ctx.id(),
                                    at: ctx.now(),
                                    cmd: lls_obs::CmdId {
                                        client: tagged.client.0,
                                        seq: tagged.seq,
                                    },
                                    stage: CmdStage::Apply,
                                    shard: shard.0,
                                });
                                if tagged.cmd.is_read() {
                                    // A read that went through the log: the
                                    // slow baseline the lease path replaces.
                                    group.probe().emit(ProbeEvent::ReadServed {
                                        node: ctx.id(),
                                        at: ctx.now(),
                                        shard: shard.0,
                                        mode: ReadMode::Log,
                                        watermark: *upto,
                                    });
                                }
                            }
                        }
                        ctx.output(ShardedKvEvent::Applied {
                            shard,
                            slot,
                            client: tagged.client,
                            seq: tagged.seq,
                            response,
                        });
                    }
                }
                ShardEvent::SnapshotInstalled {
                    shard,
                    watermark,
                    state,
                } => {
                    // CRC-checked upstream; an undecodable snapshot means an
                    // incompatible sender — diverging silently is worse.
                    let decoded = KvState::from_bytes(&state)
                        .expect("installed snapshot must decode as a KvState");
                    self.states.insert(shard, decoded);
                    self.applied_since_compact.insert(shard, 0);
                    let upto = self.applied_upto.entry(shard).or_default();
                    *upto = (*upto).max(watermark);
                    ctx.output(ShardedKvEvent::SnapshotInstalled { shard, watermark });
                }
                ShardEvent::ReadIndexAt { req, index, .. } => {
                    if let Some(read) = self.reads.get_mut(&req) {
                        read.index = Some(index);
                    }
                }
            }
        }
        self.serve_ready_reads(ctx);
        if self.compact_every > 0 {
            let due: Vec<ShardId> = self
                .applied_since_compact
                .iter()
                .filter(|(_, n)| **n >= self.compact_every)
                .map(|(s, _)| *s)
                .collect();
            for shard in due {
                self.applied_since_compact.insert(shard, 0);
                // On failure the group wedges itself; nothing to unwind.
                let _ = self.compact_shard_now(shard);
            }
        }
    }

    /// Runs one step of the inner sharded node and applies its outputs.
    fn drive(
        &mut self,
        ctx: &mut Ctx<'_, <Self as Sm>::Msg, ShardedKvEvent>,
        step: impl FnOnce(
            &mut ShardedNode<Tagged<KvCmd>, P>,
            &mut Ctx<'_, <Self as Sm>::Msg, ShardEvent<Tagged<KvCmd>>>,
        ),
    ) {
        let env = Env::new(ctx.id(), ctx.n());
        let mut fx = Effects::new();
        {
            let mut ictx = Ctx::new(&env, ctx.now(), &mut fx);
            step(&mut self.node, &mut ictx);
        }
        for s in fx.sends {
            ctx.send(s.to, s.msg);
        }
        for cmd in fx.timers {
            match cmd {
                lls_primitives::TimerCmd::Set { timer, after } => ctx.set_timer(timer, after),
                lls_primitives::TimerCmd::Cancel { timer } => ctx.cancel_timer(timer),
            }
        }
        self.translate(ctx, fx.outputs);
    }
}

impl<P: Probe> Sm for ShardedKvNode<P> {
    type Msg = ShardMsg<Tagged<KvCmd>>;
    type Output = ShardedKvEvent;
    /// A plain tagged command: the node routes it to the shard owning its
    /// key, so clients stay shard-oblivious.
    type Request = Tagged<KvCmd>;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>) {
        self.drive(ctx, |node, ictx| node.on_start(ictx));
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Output>,
        from: ProcessId,
        msg: Self::Msg,
    ) {
        self.drive(ctx, |node, ictx| node.on_message(ictx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, timer: TimerId) {
        self.drive(ctx, |node, ictx| node.on_timer(ictx, timer));
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, req: Self::Request) {
        let shard = self.node.placement().map().shard_of_key(req.cmd.key());
        if req.cmd.is_read() && self.node.group(shard).is_some_and(|g| g.lease_enabled()) {
            self.on_read(ctx, shard, req);
            return;
        }
        self.drive(ctx, |node, ictx| {
            node.on_request(ictx, ShardRequest { shard, cmd: req })
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus::{Ballot, RsmMsg};
    use lls_primitives::Instant;

    fn tag(seq: u64, cmd: KvCmd) -> Tagged<KvCmd> {
        Tagged {
            client: ClientId(1),
            seq,
            cmd,
        }
    }

    /// A key that the 2-shard uniform map routes to each shard.
    fn key_for(map: &PlacementMap, shard: u32) -> String {
        (0..)
            .map(|i| format!("k{i}"))
            .find(|k| map.shard_of_key(k).0 == shard)
            .unwrap()
    }

    #[test]
    fn submit_queue_fans_out_by_key_and_settles_per_shard() {
        let map = PlacementMap::uniform(2, 3);
        let mut q = ShardedSubmitQueue::new(map.clone(), 1); // window 1 per shard
        let k0 = key_for(&map, 0);
        let k1 = key_for(&map, 1);
        q.submit(tag(1, KvCmd::put(&k0, "a")));
        q.submit(tag(2, KvCmd::put(&k1, "b")));
        q.submit(tag(3, KvCmd::put(&k0, "c"))); // behind seq 1 on shard 0
        let burst = q.drain();
        // Both shards release concurrently despite the 1-wide window.
        assert_eq!(burst.len(), 2);
        assert_eq!(q.released_len(), 2);
        assert_eq!(q.queued_len(), 1);
        for (shard, cmds) in &burst {
            for cmd in cmds {
                assert_eq!(map.shard_of_key(cmd.cmd.key()), *shard);
            }
        }
        // Settling shard 0's command reopens only shard 0's window.
        let done = q
            .settle(ClientId(1), 1, &KvResponse::Applied { previous: None })
            .expect("seq 1 settles");
        assert_eq!(done.cmd.seq, 1);
        let burst = q.drain();
        assert_eq!(burst.len(), 1);
        assert_eq!(burst[0].0, ShardId(0));
        assert_eq!(burst[0].1[0].seq, 3);
        // Unknown tags settle nothing.
        assert!(q
            .settle(ClientId(9), 1, &KvResponse::Applied { previous: None })
            .is_none());
    }

    #[test]
    fn node_routes_requests_by_key_and_applies_per_shard() {
        let env = Env::new(ProcessId(0), 3);
        let map = PlacementMap::uniform(2, 3);
        let k0 = key_for(&map, 0);
        let k1 = key_for(&map, 1);
        let mut node = ShardedKvNode::new(
            &env,
            ConsensusParams::default(),
            PlacementManager::with_all_attached(map),
        );
        let mut fx: Effects<_, ShardedKvEvent> = Effects::new();
        node.on_start(&mut Ctx::new(&env, Instant::ZERO, &mut fx));
        fx.take();
        // Establish p0's ballot in both groups (one promise = quorum at p0).
        for shard in [0u32, 1] {
            node.on_message(
                &mut Ctx::new(&env, Instant::ZERO, &mut fx),
                ProcessId(1),
                ShardMsg::Rsm {
                    shard: ShardId(shard),
                    msg: RsmMsg::Promise {
                        b: Ballot::new(1, ProcessId(0)),
                        accepted: vec![],
                        low_slot: 0,
                    },
                },
            );
            fx.take();
        }
        // A put on each key: the node must route each to its own shard.
        node.on_request(
            &mut Ctx::new(&env, Instant::ZERO, &mut fx),
            tag(1, KvCmd::put(&k0, "zero")),
        );
        let out = fx.take();
        assert!(
            out.sends.iter().all(|s| matches!(
                &s.msg,
                ShardMsg::Rsm {
                    shard: ShardId(0),
                    msg: RsmMsg::Accept { .. }
                }
            )),
            "key {k0} must route to shard0: {:?}",
            out.sends
        );
        node.on_request(
            &mut Ctx::new(&env, Instant::ZERO, &mut fx),
            tag(2, KvCmd::put(&k1, "one")),
        );
        fx.take();
        // Ack both slots from p1: each shard commits *its own* slot 0.
        for shard in [0u32, 1] {
            node.on_message(
                &mut Ctx::new(&env, Instant::ZERO, &mut fx),
                ProcessId(1),
                ShardMsg::Rsm {
                    shard: ShardId(shard),
                    msg: RsmMsg::Accepted {
                        b: Ballot::new(1, ProcessId(0)),
                        slot: 0,
                        emitted: 0,
                    },
                },
            );
            let out = fx.take();
            assert!(
                out.outputs.iter().any(|o| matches!(
                    o,
                    ShardedKvEvent::Applied { shard: s, slot: 0, .. } if s.0 == shard
                )),
                "shard{shard} applies its slot 0: {:?}",
                out.outputs
            );
        }
        assert_eq!(node.state(ShardId(0)).unwrap().get(&k0), Some("zero"));
        assert_eq!(node.state(ShardId(1)).unwrap().get(&k1), Some("one"));
        assert_eq!(
            node.state(ShardId(0)).unwrap().len(),
            1,
            "shard stores are disjoint"
        );
    }
}
