//! The replica: a [`ReplicatedLog`] of tagged commands feeding a [`KvState`].

use std::collections::BTreeMap;

use lls_obs::{CmdStage, NoopProbe, Probe, ProbeEvent, ReadMode};
use lls_primitives::wire::Wire;
use lls_primitives::{
    Ctx, Env, ProcessId, Sm, SnapshotHandle, StorageError, StorageHandle, TimerId,
};
use serde::{Deserialize, Serialize};

use consensus::{ConsensusParams, ReplicatedLog, RsmEvent};
use omega::CommEffOmega;

use crate::command::{ClientId, KvCmd, KvResponse, Tagged};
use crate::state::KvState;

/// A fast-path read parked while its linearization point resolves: first
/// for the leaseholder's read-index answer, then (if the index is ahead of
/// the local apply watermark) for the apply loop to catch up.
#[derive(Debug, Clone)]
struct PendingRead {
    client: ClientId,
    seq: u64,
    key: String,
    /// The decided watermark the read must wait for; `None` until the
    /// leaseholder's [`RsmEvent::ReadIndexAt`] arrives.
    index: Option<u64>,
}

/// Observable events of a replica.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum KvEvent {
    /// The underlying Ω detector changed its output.
    Leader(ProcessId),
    /// A command committed at `slot` and was applied (or suppressed as a
    /// duplicate) with the given response — or a fast-path read resolved.
    Applied {
        /// Log slot of the command. For fast-path reads (lease or
        /// read-index), which never enter the log, this is the serving
        /// replica's apply *watermark* — the slot the next committed
        /// write will occupy — not a unique log position. Correlate
        /// completions by `(client, seq)`, never by `slot` alone.
        slot: u64,
        /// Issuing client.
        client: ClientId,
        /// Client sequence number.
        seq: u64,
        /// The application outcome.
        response: KvResponse,
    },
    /// A peer's snapshot was installed by state transfer: the store now
    /// materializes every command below `watermark` without having seen
    /// the individual `Applied` events.
    SnapshotInstalled {
        /// First slot NOT covered by the installed snapshot.
        watermark: u64,
    },
}

/// One replica of the key-value store.
///
/// Wraps [`ReplicatedLog`] and applies committed commands to a [`KvState`]
/// in slot order — no-op filler slots are skipped silently. See the
/// [crate example](crate).
#[derive(Debug, Clone)]
pub struct KvReplica<P: Probe = NoopProbe> {
    log: ReplicatedLog<Tagged<KvCmd>, P>,
    state: KvState,
    compact_every: u64,
    applied_since_compact: u64,
    /// Contiguous slots folded into `state` (no-op fillers included) — the
    /// local apply watermark that read-index reads wait on.
    applied_upto: u64,
    /// Fast-path reads awaiting a read index and/or the apply watermark.
    reads: BTreeMap<u64, PendingRead>,
    next_read_token: u64,
}

impl KvReplica {
    /// Creates a replica.
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters inside `params` are invalid.
    pub fn new(env: &Env, params: ConsensusParams) -> Self {
        KvReplica::new_with_probe(env, params, NoopProbe)
    }

    /// Creates a replica that recovers its log from `storage` and rebuilds
    /// the store by replaying the recovered committed prefix.
    ///
    /// # Errors
    ///
    /// Fails if the log cannot be read or the boot record cannot be
    /// written.
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters inside `params` are invalid.
    pub fn with_storage(
        env: &Env,
        params: ConsensusParams,
        storage: StorageHandle,
    ) -> Result<Self, StorageError> {
        KvReplica::with_storage_and_probe(env, params, storage, NoopProbe)
    }

    /// Creates a replica with both a WAL and a snapshot store: recovery
    /// starts from the durable snapshot's materialized state (if one
    /// exists) and replays only the WAL tail above its watermark.
    ///
    /// # Errors
    ///
    /// Fails if the log or snapshot store cannot be read, or the boot
    /// record cannot be written. Fails with [`StorageError::Decode`] if a
    /// recovered snapshot does not decode as a [`KvState`].
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters inside `params` are invalid.
    pub fn with_storage_and_snapshots(
        env: &Env,
        params: ConsensusParams,
        storage: StorageHandle,
        snapshots: SnapshotHandle,
    ) -> Result<Self, StorageError> {
        KvReplica::with_storage_snapshots_and_probe(env, params, storage, snapshots, NoopProbe)
    }
}

impl<P: Probe> KvReplica<P> {
    /// Like [`KvReplica::new`], with an observability probe threaded down
    /// through the replicated log into the embedded Ω detector.
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters inside `params` are invalid.
    pub fn new_with_probe(env: &Env, params: ConsensusParams, probe: P) -> Self {
        KvReplica::from_log(ReplicatedLog::new_with_probe(env, params, probe))
    }

    /// Like [`KvReplica::with_storage`], with an observability probe.
    ///
    /// # Errors
    ///
    /// Fails if the log cannot be read or the boot record cannot be
    /// written.
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters inside `params` are invalid.
    pub fn with_storage_and_probe(
        env: &Env,
        params: ConsensusParams,
        storage: StorageHandle,
        probe: P,
    ) -> Result<Self, StorageError> {
        Ok(KvReplica::from_log(ReplicatedLog::with_storage_and_probe(
            env, params, storage, probe,
        )?))
    }

    /// Like [`KvReplica::with_storage_and_snapshots`], with an
    /// observability probe.
    ///
    /// # Errors
    ///
    /// Fails if the log or snapshot store cannot be read, the boot record
    /// cannot be written, or a recovered snapshot does not decode as a
    /// [`KvState`].
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters inside `params` are invalid.
    pub fn with_storage_snapshots_and_probe(
        env: &Env,
        params: ConsensusParams,
        storage: StorageHandle,
        snapshots: SnapshotHandle,
        probe: P,
    ) -> Result<Self, StorageError> {
        let log = ReplicatedLog::with_storage_snapshots_and_probe(
            env, params, storage, snapshots, probe,
        )?;
        // Seed the store from the snapshot *before* replaying the WAL tail
        // above its watermark — the reverse order would clobber the
        // replayed suffix with the (older) snapshot state.
        let mut replica = KvReplica {
            log,
            state: KvState::new(),
            compact_every: 0,
            applied_since_compact: 0,
            applied_upto: 0,
            reads: BTreeMap::new(),
            next_read_token: 0,
        };
        if let Some(snap) = replica.log.recovered_snapshot() {
            replica.state = KvState::from_bytes(&snap.data).map_err(StorageError::Decode)?;
        }
        replica.replay_tail();
        Ok(replica)
    }

    /// Wraps a (possibly recovered) log, rebuilding the store by replaying
    /// the committed prefix above the snapshot watermark (0 when no
    /// snapshot store is attached — the full recovered prefix).
    fn from_log(log: ReplicatedLog<Tagged<KvCmd>, P>) -> Self {
        let mut replica = KvReplica {
            log,
            state: KvState::new(),
            compact_every: 0,
            applied_since_compact: 0,
            applied_upto: 0,
            reads: BTreeMap::new(),
            next_read_token: 0,
        };
        replica.replay_tail();
        replica
    }

    /// Replays every committed command above the log's watermark into the
    /// store — the recovery path's second half, after `state` was seeded
    /// from the snapshot (or left empty).
    fn replay_tail(&mut self) {
        let from = self.log.watermark();
        // The iterator borrows the log; buffer the tail (it is exactly the
        // bounded post-snapshot suffix compaction exists to keep small).
        let tail: Vec<Tagged<KvCmd>> = self.log.committed_commands_from(from).cloned().collect();
        for cmd in &tail {
            self.state.apply(cmd);
        }
        self.applied_upto = self.log.committed_len();
    }

    /// Enables automatic compaction: after every `every` applied commands
    /// the replica snapshots its store at the committed prefix and rewrites
    /// the WAL to live records only. 0 disables (the default). A no-op
    /// unless the replica was built with a snapshot store.
    pub fn set_compact_every(&mut self, every: u64) {
        self.compact_every = every;
    }

    /// Snapshots the store at the current committed prefix and compacts
    /// the WAL behind it. Returns `Ok(false)` when the log declined (no
    /// snapshot store, watermark not advancing, wedged).
    ///
    /// # Errors
    ///
    /// Propagates a WAL rewrite failure; the log is wedged first.
    pub fn compact_now(&mut self) -> Result<bool, StorageError> {
        let watermark = self.log.committed_len();
        let state = self.state.to_bytes();
        self.log.compact(watermark, state)
    }

    /// The materialized store.
    pub fn state(&self) -> &KvState {
        &self.state
    }

    /// The underlying replicated log (for instrumentation).
    pub fn log(&self) -> &ReplicatedLog<Tagged<KvCmd>, P> {
        &self.log
    }

    /// The underlying Ω detector (for leader discovery).
    pub fn omega(&self) -> &CommEffOmega<P> {
        self.log.omega()
    }

    /// Contiguous slots folded into the store (the local apply watermark).
    pub fn applied_upto(&self) -> u64 {
        self.applied_upto
    }

    /// Fast-path reads still waiting on a read index or the apply loop.
    pub fn pending_reads(&self) -> usize {
        self.reads.len()
    }

    /// Answers one read from the materialized store and stamps it on the
    /// probe plane — the single exit point of every fast-path read.
    fn serve_read(
        &self,
        ctx: &mut Ctx<'_, <Self as Sm>::Msg, KvEvent>,
        client: ClientId,
        seq: u64,
        key: &str,
        mode: ReadMode,
    ) {
        let response = self.state.read(key);
        if P::ENABLED {
            self.log.probe().emit(ProbeEvent::ReadServed {
                node: ctx.id(),
                at: ctx.now(),
                shard: 0,
                mode,
                watermark: self.applied_upto,
            });
        }
        ctx.output(KvEvent::Applied {
            slot: self.applied_upto,
            client,
            seq,
            response,
        });
    }

    /// Serves every parked read whose resolved index the apply watermark
    /// has reached.
    fn serve_ready_reads(&mut self, ctx: &mut Ctx<'_, <Self as Sm>::Msg, KvEvent>) {
        let ready: Vec<u64> = self
            .reads
            .iter()
            .filter(|(_, r)| r.index.is_some_and(|i| i <= self.applied_upto))
            .map(|(t, _)| *t)
            .collect();
        for token in ready {
            let read = self.reads.remove(&token).expect("token just listed");
            self.serve_read(ctx, read.client, read.seq, &read.key, ReadMode::ReadIndex);
        }
    }

    /// The fast read path. A leaseholder answers immediately from its local
    /// store; a follower runs a read-index round against the believed
    /// leader; a leader *without* an active lease falls back to replicating
    /// the read through the log (safe, merely slow). Reads served here
    /// never enter the log.
    fn on_read(&mut self, ctx: &mut Ctx<'_, <Self as Sm>::Msg, KvEvent>, req: Tagged<KvCmd>) {
        if self.log.lease_read_allowed(ctx.now()) {
            self.serve_read(ctx, req.client, req.seq, req.cmd.key(), ReadMode::Lease);
            return;
        }
        if self.log.is_established_leader() {
            // Leading but the lease has not (re-)activated: the log path is
            // the only linearizable option left.
            self.drive(ctx, |log, ictx| log.on_request(ictx, req));
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
            PendingRead {
                client: req.client,
                seq: req.seq,
                key: req.cmd.key().to_owned(),
                index: None,
            },
        );
        self.drive(ctx, |log, ictx| log.request_read_index(ictx, token));
    }

    /// Translates the log's committed events into applied KV events.
    fn translate(
        &mut self,
        ctx: &mut Ctx<'_, <Self as Sm>::Msg, KvEvent>,
        events: Vec<RsmEvent<Tagged<KvCmd>>>,
    ) {
        for ev in events {
            match ev {
                RsmEvent::Leader(l) => {
                    // A forwarded read-index request may have raced the old
                    // leader's fall; the client's retry cadence re-issues.
                    self.reads.retain(|_, r| r.index.is_some());
                    ctx.output(KvEvent::Leader(l));
                }
                RsmEvent::Committed { slot, cmd } => {
                    self.applied_upto = self.applied_upto.max(slot + 1);
                    if let Some(tagged) = cmd {
                        let response = self.state.apply(&tagged);
                        self.applied_since_compact += 1;
                        if P::ENABLED {
                            self.log.probe().emit(ProbeEvent::CmdLifecycle {
                                node: ctx.id(),
                                at: ctx.now(),
                                cmd: lls_obs::CmdId {
                                    client: tagged.client.0,
                                    seq: tagged.seq,
                                },
                                stage: CmdStage::Apply,
                                shard: 0,
                            });
                            if tagged.cmd.is_read() {
                                // A read that went through the log: the
                                // slow baseline the lease path replaces.
                                self.log.probe().emit(ProbeEvent::ReadServed {
                                    node: ctx.id(),
                                    at: ctx.now(),
                                    shard: 0,
                                    mode: ReadMode::Log,
                                    watermark: self.applied_upto,
                                });
                            }
                        }
                        ctx.output(KvEvent::Applied {
                            slot,
                            client: tagged.client,
                            seq: tagged.seq,
                            response,
                        });
                    }
                }
                RsmEvent::SnapshotInstalled { watermark, state } => {
                    // The chunk and total CRCs were verified by the log, so
                    // a decode failure means a sender at an incompatible
                    // version; keeping the old (now unsound) state would
                    // silently diverge, so wedge application instead.
                    self.state = KvState::from_bytes(&state)
                        .expect("installed snapshot must decode as a KvState");
                    self.applied_since_compact = 0;
                    self.applied_upto = self.applied_upto.max(watermark);
                    ctx.output(KvEvent::SnapshotInstalled { watermark });
                }
                RsmEvent::ReadIndexAt { req, index } => {
                    if let Some(read) = self.reads.get_mut(&req) {
                        read.index = Some(index);
                    }
                }
            }
        }
        self.serve_ready_reads(ctx);
        if self.compact_every > 0 && self.applied_since_compact >= self.compact_every {
            self.applied_since_compact = 0;
            // On failure the log wedges itself (and refuses further
            // mutation); nothing for the replica to unwind.
            let _ = self.compact_now();
        }
    }

    /// Runs one step of the inner log and applies its outputs.
    fn drive(
        &mut self,
        ctx: &mut Ctx<'_, <Self as Sm>::Msg, KvEvent>,
        step: impl FnOnce(
            &mut ReplicatedLog<Tagged<KvCmd>, P>,
            &mut Ctx<'_, <Self as Sm>::Msg, RsmEvent<Tagged<KvCmd>>>,
        ),
    ) {
        let env = Env::new(ctx.id(), ctx.n());
        let mut fx = lls_primitives::Effects::new();
        {
            let mut ictx = Ctx::new(&env, ctx.now(), &mut fx);
            step(&mut self.log, &mut ictx);
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

impl<P: Probe> Sm for KvReplica<P> {
    type Msg = consensus::RsmMsg<Tagged<KvCmd>>;
    type Output = KvEvent;
    type Request = Tagged<KvCmd>;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>) {
        self.drive(ctx, |log, ictx| log.on_start(ictx));
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Output>,
        from: ProcessId,
        msg: Self::Msg,
    ) {
        self.drive(ctx, |log, ictx| log.on_message(ictx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, timer: TimerId) {
        self.drive(ctx, |log, ictx| log.on_timer(ictx, timer));
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, req: Self::Request) {
        if req.cmd.is_read() && self.log.lease_enabled() {
            self.on_read(ctx, req);
            return;
        }
        self.drive(ctx, |log, ictx| log.on_request(ictx, req));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lls_primitives::{Effects, Instant};

    fn tag(seq: u64, cmd: KvCmd) -> Tagged<KvCmd> {
        Tagged {
            client: ClientId(1),
            seq,
            cmd,
        }
    }

    #[test]
    fn replica_starts_and_emits_initial_leader() {
        let env = Env::new(ProcessId(0), 3);
        let mut r = KvReplica::new(&env, ConsensusParams::default());
        let mut fx: Effects<_, KvEvent> = Effects::new();
        r.on_start(&mut Ctx::new(&env, Instant::ZERO, &mut fx));
        assert!(fx
            .outputs
            .iter()
            .any(|o| matches!(o, KvEvent::Leader(l) if *l == ProcessId(0))));
        assert!(r.state().is_empty());
    }

    #[test]
    fn committed_commands_apply_in_order_with_dedup() {
        // Drive the leader replica through a full commit locally by feeding
        // it the peer's protocol messages directly.
        let env = Env::new(ProcessId(0), 3);
        let mut r = KvReplica::new(&env, ConsensusParams::default());
        let mut fx: Effects<_, KvEvent> = Effects::new();
        r.on_start(&mut Ctx::new(&env, Instant::ZERO, &mut fx));
        fx.take();
        // Majority promise → leader established.
        r.on_message(
            &mut Ctx::new(&env, Instant::ZERO, &mut fx),
            ProcessId(1),
            consensus::RsmMsg::Promise {
                b: consensus::Ballot::new(1, ProcessId(0)),
                accepted: vec![],
                low_slot: 0,
            },
        );
        fx.take();
        assert!(r.log().is_established_leader());
        // Submit a command and ack it from p1: commits at slot 0.
        r.on_request(
            &mut Ctx::new(&env, Instant::ZERO, &mut fx),
            tag(1, KvCmd::put("x", "1")),
        );
        fx.take();
        r.on_message(
            &mut Ctx::new(&env, Instant::ZERO, &mut fx),
            ProcessId(1),
            consensus::RsmMsg::Accepted {
                b: consensus::Ballot::new(1, ProcessId(0)),
                slot: 0,
                emitted: 0,
            },
        );
        let out = fx.take();
        assert!(out.outputs.iter().any(|o| matches!(
            o,
            KvEvent::Applied {
                slot: 0,
                seq: 1,
                response: KvResponse::Applied { .. },
                ..
            }
        )));
        assert_eq!(r.state().get("x"), Some("1"));
    }

    #[test]
    fn read_retries_reuse_the_pending_slot() {
        // Regression: under a stable leader, a dropped ReadIndex (or its
        // reply) left the parked read behind forever, and every client
        // retry parked another one — unbounded growth on fair-lossy links.
        use consensus::LeaseParams;
        let env = Env::new(ProcessId(1), 3);
        let params = ConsensusParams {
            lease: LeaseParams::enabled(),
            ..ConsensusParams::default()
        };
        let mut r = KvReplica::new(&env, params);
        let mut fx: Effects<_, KvEvent> = Effects::new();
        r.on_start(&mut Ctx::new(&env, Instant::ZERO, &mut fx));
        fx.take();
        for _ in 0..5 {
            r.on_request(
                &mut Ctx::new(&env, Instant::ZERO, &mut fx),
                tag(1, KvCmd::read("x")),
            );
            fx.take();
        }
        assert_eq!(
            r.pending_reads(),
            1,
            "retries of one read reuse its pending slot"
        );
        r.on_request(
            &mut Ctx::new(&env, Instant::ZERO, &mut fx),
            tag(2, KvCmd::read("x")),
        );
        fx.take();
        assert_eq!(r.pending_reads(), 2, "distinct reads still park separately");
    }

    #[test]
    fn recovery_applies_the_wal_tail_on_top_of_the_snapshot() {
        // Regression: recovery must seed the store from the snapshot and
        // *then* replay the WAL tail above the watermark — the reverse
        // order clobbers the suffix and the store silently reverts to the
        // snapshot (here: losing k4..k6 and the session high-water mark).
        use lls_primitives::{SnapshotHandle, StorageHandle};
        let env = Env::new(ProcessId(2), 3);
        let store = StorageHandle::in_memory();
        let snaps = SnapshotHandle::in_memory();
        {
            let mut r = KvReplica::with_storage_and_snapshots(
                &env,
                ConsensusParams::default(),
                store.clone(),
                snaps.clone(),
            )
            .unwrap();
            let mut fx: Effects<_, KvEvent> = Effects::new();
            for slot in 0..4u64 {
                r.on_message(
                    &mut Ctx::new(&env, Instant::ZERO, &mut fx),
                    ProcessId(0),
                    consensus::RsmMsg::Decide {
                        slot,
                        entry: consensus::Entry::Cmd(tag(
                            slot + 1,
                            KvCmd::put(format!("k{slot}"), "v"),
                        )),
                    },
                );
                fx.take();
            }
            assert!(r.compact_now().unwrap(), "snapshot at watermark 4");
            for slot in 4..7u64 {
                r.on_message(
                    &mut Ctx::new(&env, Instant::ZERO, &mut fx),
                    ProcessId(0),
                    consensus::RsmMsg::Decide {
                        slot,
                        entry: consensus::Entry::Cmd(tag(
                            slot + 1,
                            KvCmd::put(format!("k{slot}"), "v"),
                        )),
                    },
                );
                fx.take();
            }
            assert_eq!(r.state().len(), 7);
        }
        let recovered =
            KvReplica::with_storage_and_snapshots(&env, ConsensusParams::default(), store, snaps)
                .unwrap();
        assert_eq!(recovered.log().watermark(), 4);
        assert_eq!(
            recovered.state().len(),
            7,
            "the WAL tail above the snapshot watermark survives recovery"
        );
        assert_eq!(recovered.state().get("k6"), Some("v"));
        assert_eq!(
            recovered.state().session_seq(ClientId(1)),
            Some(7),
            "session dedup state covers the replayed tail"
        );
    }
}
