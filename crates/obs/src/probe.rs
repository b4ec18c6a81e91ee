//! Typed protocol probes.
//!
//! Every protocol state machine in the workspace (`CommEffOmega`, the
//! consensus machines, the replicated KV store) accepts a [`Probe`] type
//! parameter defaulting to [`NoopProbe`]. At the points where the *paper's*
//! state changes — a leader change, an accusation, an incarnation bump, a
//! ballot phase transition, a decision, a WAL append — the machine calls
//! [`Probe::emit`] with a [`ProbeEvent`]. With the default `NoopProbe` the
//! call monomorphizes to an empty inline function and the protocol code is
//! exactly as fast as before; with a recording probe the events land in a
//! flight recorder and a metrics registry (see [`crate::recorder`]).
//!
//! Per-command latency attribution (E22) rides on the same channel: the
//! client path tags every command with a [`CmdId`] and the machines emit one
//! [`ProbeEvent::CmdLifecycle`] per [`CmdStage`] the command crosses. Loops
//! that emit per-command events are guarded with `if P::ENABLED`, so a
//! `NoopProbe` build does not even iterate the batch.

use lls_primitives::{Duration, Instant, ProcessId};
use std::fmt;

/// Identity of one client command, stable across every stage of its life.
///
/// Assigned at `ShardedSubmitQueue::submit`: `client` is the submitting client's id
/// and `seq` its per-client sequence number — the same pair the KV layer
/// already uses for exactly-once reply routing, so the id needs no extra
/// wire bytes. Raw `u64` command streams (the bench harnesses) use
/// `client = 0` and the command value as `seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CmdId {
    /// Submitting client (0 for untagged bench values).
    pub client: u64,
    /// Per-client sequence number (or the raw value for bench streams).
    pub seq: u64,
}

impl fmt::Display for CmdId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}#{}", self.client, self.seq)
    }
}

/// One stage of the command lifecycle, in path order.
///
/// The stages telescope: the latency attributed to a stage is the gap since
/// the command's *previous* stage event, so summing the per-stage deltas of
/// one command reproduces its end-to-end latency (the E22 gate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CmdStage {
    /// Client enqueued the command into its submit window.
    Enqueue,
    /// The sharded router picked a group for the command's key.
    ShardRoute,
    /// The leader sealed the command into a batch slot.
    BatchSeal,
    /// The leader proposed the sealed slot to the acceptors.
    Propose,
    /// The leader's WAL group-commit covering the command flushed.
    WalCommit,
    /// The slot carrying the command was chosen.
    Decide,
    /// The state machine applied the command.
    Apply,
    /// The client matched the reply and retired the command.
    Reply,
}

impl CmdStage {
    /// All stages in path order.
    pub const ALL: [CmdStage; 8] = [
        CmdStage::Enqueue,
        CmdStage::ShardRoute,
        CmdStage::BatchSeal,
        CmdStage::Propose,
        CmdStage::WalCommit,
        CmdStage::Decide,
        CmdStage::Apply,
        CmdStage::Reply,
    ];

    /// Stable snake-case label — the key lifecycle histograms are named by.
    pub fn label(self) -> &'static str {
        match self {
            CmdStage::Enqueue => "enqueue",
            CmdStage::ShardRoute => "shard_route",
            CmdStage::BatchSeal => "batch_seal",
            CmdStage::Propose => "propose",
            CmdStage::WalCommit => "wal_commit",
            CmdStage::Decide => "decide",
            CmdStage::Apply => "apply",
            CmdStage::Reply => "reply",
        }
    }

    /// Position in the canonical path (0 = `Enqueue` … 7 = `Reply`).
    pub fn index(self) -> usize {
        match self {
            CmdStage::Enqueue => 0,
            CmdStage::ShardRoute => 1,
            CmdStage::BatchSeal => 2,
            CmdStage::Propose => 3,
            CmdStage::WalCommit => 4,
            CmdStage::Decide => 5,
            CmdStage::Apply => 6,
            CmdStage::Reply => 7,
        }
    }
}

impl fmt::Display for CmdStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One structured protocol event, tagged with the emitting process.
///
/// Every event carries the virtual time `at`. Handler-emitted events use
/// the handler's `ctx.now()`; events emitted from construction or recovery
/// paths — which run before any clock exists — use [`Instant::ZERO`], and
/// persistence-path events reuse the time of the mutating handler that
/// triggered them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeEvent {
    /// The process's `leader()` output changed.
    LeaderChange {
        /// Emitting process.
        node: ProcessId,
        /// Virtual time of the change.
        at: Instant,
        /// The newly trusted leader.
        leader: ProcessId,
    },
    /// The process timed out on its leader and sent an `ACCUSE` to it.
    AccusationSent {
        /// Emitting process.
        node: ProcessId,
        /// Virtual time of the accusation.
        at: Instant,
        /// The accused (current leader candidate).
        suspect: ProcessId,
        /// The phase the accusation is tagged with (the suspect's counter
        /// as known here — what makes accusations idempotent per phase).
        phase: u64,
    },
    /// The process absorbed a valid accusation against itself and bumped
    /// its own accusation counter.
    AccusationAbsorbed {
        /// Emitting process.
        node: ProcessId,
        /// Virtual time of the bump.
        at: Instant,
        /// The counter value after the bump.
        new_counter: u64,
    },
    /// A restarted process rejoined with its persisted counter bumped once
    /// (the crash–restart incarnation bump; no clock exists yet).
    IncarnationBump {
        /// Emitting process.
        node: ProcessId,
        /// The counter the new incarnation boots with.
        counter: u64,
    },
    /// A premature suspicion grew the timeout for a suspect.
    TimeoutAdapt {
        /// Emitting process.
        node: ProcessId,
        /// Virtual time of the adaptation.
        at: Instant,
        /// Whose timeout grew.
        suspect: ProcessId,
        /// The new timeout value.
        timeout: Duration,
    },
    /// A consensus machine entered a protocol phase (ballot phase
    /// transition, leadership assumption, round entry).
    PhaseEnter {
        /// Emitting process.
        node: ProcessId,
        /// Virtual time of the transition.
        at: Instant,
        /// Which phase: `"prepare"`, `"accept"`, `"led"`, `"follower"`,
        /// `"round"`.
        label: &'static str,
        /// The ballot (or round) number driving the transition.
        number: u64,
    },
    /// A value was decided (slot 0 for single-shot consensus; the log slot
    /// for the replicated machines).
    Decide {
        /// Emitting process.
        node: ProcessId,
        /// Virtual time of the decision.
        at: Instant,
        /// Which slot decided.
        slot: u64,
    },
    /// A batched slot committed, carrying several client commands at once
    /// (the throughput path measured by E19). Emitted *in addition to* the
    /// per-slot [`ProbeEvent::Decide`].
    BatchCommit {
        /// Emitting process.
        node: ProcessId,
        /// Virtual time of the commit.
        at: Instant,
        /// Which slot committed.
        slot: u64,
        /// How many client commands the batch carried.
        cmds: u64,
    },
    /// A client command crossed one [`CmdStage`] of its lifecycle (the E22
    /// latency-attribution plane). One event per command per stage; batch
    /// operations emit one per carried command, guarded by
    /// [`Probe::ENABLED`] so `NoopProbe` builds skip the loop entirely.
    CmdLifecycle {
        /// Emitting process (the client's process id for `Enqueue`,
        /// `ShardRoute` and `Reply`; the replica otherwise).
        node: ProcessId,
        /// Virtual time the stage was crossed.
        at: Instant,
        /// Which command.
        cmd: CmdId,
        /// Which stage.
        stage: CmdStage,
        /// Consensus group the command routed to (0 when unsharded).
        shard: u32,
    },
    /// One record was appended to the write-ahead log. `at` is the virtual
    /// time of the mutating handler whose persistence triggered the append.
    WalAppend {
        /// Emitting process.
        node: ProcessId,
        /// Virtual time of the triggering handler.
        at: Instant,
    },
    /// A WAL group-commit flushed: one durable `flush` covering a pumped
    /// burst of records. `micros` is wall-clock device time (0 on the
    /// in-memory backends), feeding the `wal_fsync_micros` histogram and
    /// the watchdog's fsync-spike detector.
    WalFsync {
        /// Emitting process.
        node: ProcessId,
        /// Virtual time of the triggering handler.
        at: Instant,
        /// Wall-clock microseconds the flush took on the storage backend.
        micros: u64,
        /// Records the flushed group carried.
        records: u64,
    },
    /// A fresh incarnation replayed its write-ahead log on construction
    /// (`at` is [`Instant::ZERO`]: recovery runs before any clock exists).
    WalRecover {
        /// Emitting process.
        node: ProcessId,
        /// Virtual time of the recovery scan (the clock origin).
        at: Instant,
        /// How many records the recovery scan yielded.
        records: u64,
    },
    /// A WAL append failed and the machine wedged itself (broken disk =
    /// crashed process).
    WalWedge {
        /// Emitting process.
        node: ProcessId,
        /// Virtual time of the failed persistence.
        at: Instant,
    },
    /// A snapshot was durably written and the WAL compacted behind its
    /// watermark. `at` is the virtual time of the handler that scheduled
    /// the compaction.
    SnapshotWrite {
        /// Emitting process.
        node: ProcessId,
        /// Virtual time of the compaction.
        at: Instant,
        /// First slot not covered by the snapshot.
        watermark: u64,
        /// Bytes the WAL retains after compaction (feeds the
        /// `wal_live_bytes` gauge).
        live_bytes: u64,
    },
    /// A snapshot received by state transfer was installed, replacing the
    /// local log prefix below its watermark.
    SnapshotInstall {
        /// Emitting process.
        node: ProcessId,
        /// Virtual time of the install.
        at: Instant,
        /// First slot not covered by the snapshot.
        watermark: u64,
    },
    /// A fresh incarnation replayed this many WAL bytes on construction
    /// (the quantity snapshots are meant to bound; feeds the
    /// `recovery_replay_bytes` counter; `at` is [`Instant::ZERO`]).
    RecoveryReplay {
        /// Emitting process.
        node: ProcessId,
        /// Virtual time of the replay (the clock origin).
        at: Instant,
        /// Bytes of records the recovery scan decoded.
        bytes: u64,
    },
    /// A leader's lease grant round reached a quorum of acks: lease-reads
    /// may now be served locally until `until` on the leader's clock.
    /// Emitted on *every* activating round (renewals included), so the
    /// watchdog's per-shard `until` tracking never goes stale.
    LeaseAcquired {
        /// Emitting process (the leaseholder).
        node: ProcessId,
        /// Virtual time the quorum completed.
        at: Instant,
        /// Consensus group the lease covers (0 when unsharded).
        shard: u32,
        /// The activating grant round.
        seq: u64,
        /// Conservative local expiry of the serving window.
        until: Instant,
    },
    /// This process granted (or renewed) a lease: it promised to hold off
    /// competing elections on `holder`'s behalf for the lease duration plus
    /// the skew bound on its own clock.
    LeaseGranted {
        /// Emitting process (the granter).
        node: ProcessId,
        /// Virtual time of the grant.
        at: Instant,
        /// Consensus group the lease covers (0 when unsharded).
        shard: u32,
        /// The granted round.
        seq: u64,
        /// The leaseholder being protected.
        holder: ProcessId,
    },
    /// A held lease lapsed (conservative expiry passed without renewal) or
    /// was dropped on abdication; lease-reads stop immediately.
    LeaseExpired {
        /// Emitting process (the ex-leaseholder).
        node: ProcessId,
        /// Virtual time of the lapse.
        at: Instant,
        /// Consensus group the lease covered (0 when unsharded).
        shard: u32,
        /// The last grant round of the lapsed lease.
        seq: u64,
    },
    /// A linearizable read was served, and by which path — the `read_path_*`
    /// counters and the watchdog's stale-read detector key off this.
    ReadServed {
        /// Emitting process (the replica that answered).
        node: ProcessId,
        /// Virtual time the read was served.
        at: Instant,
        /// Consensus group that owns the key (0 when unsharded).
        shard: u32,
        /// Which read path served it.
        mode: ReadMode,
        /// Committed length the read was served at.
        watermark: u64,
    },
}

/// Which path served a linearizable read (see [`ProbeEvent::ReadServed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReadMode {
    /// Served locally by a leaseholding leader, never entering the log.
    Lease,
    /// Served by a follower at a leaseholder-certified committed length.
    ReadIndex,
    /// Served through the log as an ordinary command (the slow baseline).
    Log,
}

impl ReadMode {
    /// Stable snake-case label — the key `read_path_*` counters use.
    pub fn label(self) -> &'static str {
        match self {
            ReadMode::Lease => "lease",
            ReadMode::ReadIndex => "read_index",
            ReadMode::Log => "log",
        }
    }
}

impl fmt::Display for ReadMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl ProbeEvent {
    /// The emitting process.
    pub fn node(&self) -> ProcessId {
        match *self {
            ProbeEvent::LeaderChange { node, .. }
            | ProbeEvent::AccusationSent { node, .. }
            | ProbeEvent::AccusationAbsorbed { node, .. }
            | ProbeEvent::IncarnationBump { node, .. }
            | ProbeEvent::TimeoutAdapt { node, .. }
            | ProbeEvent::PhaseEnter { node, .. }
            | ProbeEvent::Decide { node, .. }
            | ProbeEvent::BatchCommit { node, .. }
            | ProbeEvent::CmdLifecycle { node, .. }
            | ProbeEvent::WalAppend { node, .. }
            | ProbeEvent::WalFsync { node, .. }
            | ProbeEvent::WalRecover { node, .. }
            | ProbeEvent::WalWedge { node, .. }
            | ProbeEvent::SnapshotWrite { node, .. }
            | ProbeEvent::SnapshotInstall { node, .. }
            | ProbeEvent::RecoveryReplay { node, .. }
            | ProbeEvent::LeaseAcquired { node, .. }
            | ProbeEvent::LeaseGranted { node, .. }
            | ProbeEvent::LeaseExpired { node, .. }
            | ProbeEvent::ReadServed { node, .. } => node,
        }
    }

    /// Virtual time of the event, when it was emitted from a clocked
    /// handler. Only [`ProbeEvent::IncarnationBump`] predates every clock
    /// and returns `None`; all storage events carry a usable timestamp so
    /// the timeline can plot them.
    pub fn at(&self) -> Option<Instant> {
        match *self {
            ProbeEvent::LeaderChange { at, .. }
            | ProbeEvent::AccusationSent { at, .. }
            | ProbeEvent::AccusationAbsorbed { at, .. }
            | ProbeEvent::TimeoutAdapt { at, .. }
            | ProbeEvent::PhaseEnter { at, .. }
            | ProbeEvent::Decide { at, .. }
            | ProbeEvent::BatchCommit { at, .. }
            | ProbeEvent::CmdLifecycle { at, .. }
            | ProbeEvent::WalAppend { at, .. }
            | ProbeEvent::WalFsync { at, .. }
            | ProbeEvent::WalRecover { at, .. }
            | ProbeEvent::WalWedge { at, .. }
            | ProbeEvent::SnapshotWrite { at, .. }
            | ProbeEvent::SnapshotInstall { at, .. }
            | ProbeEvent::RecoveryReplay { at, .. }
            | ProbeEvent::LeaseAcquired { at, .. }
            | ProbeEvent::LeaseGranted { at, .. }
            | ProbeEvent::LeaseExpired { at, .. }
            | ProbeEvent::ReadServed { at, .. } => Some(at),
            ProbeEvent::IncarnationBump { .. } => None,
        }
    }

    /// A stable snake-case tag for the event kind — the key the recording
    /// probe uses for per-kind metric counters.
    pub fn kind(&self) -> &'static str {
        match self {
            ProbeEvent::LeaderChange { .. } => "leader_change",
            ProbeEvent::AccusationSent { .. } => "accusation_sent",
            ProbeEvent::AccusationAbsorbed { .. } => "accusation_absorbed",
            ProbeEvent::IncarnationBump { .. } => "incarnation_bump",
            ProbeEvent::TimeoutAdapt { .. } => "timeout_adapt",
            ProbeEvent::PhaseEnter { .. } => "phase_enter",
            ProbeEvent::Decide { .. } => "decide",
            ProbeEvent::BatchCommit { .. } => "batch_commit",
            ProbeEvent::CmdLifecycle { .. } => "cmd_lifecycle",
            ProbeEvent::WalAppend { .. } => "wal_append",
            ProbeEvent::WalFsync { .. } => "wal_fsync",
            ProbeEvent::WalRecover { .. } => "wal_recover",
            ProbeEvent::WalWedge { .. } => "wal_wedge",
            ProbeEvent::SnapshotWrite { .. } => "snapshot_write",
            ProbeEvent::SnapshotInstall { .. } => "snapshot_install",
            ProbeEvent::RecoveryReplay { .. } => "recovery_replay",
            ProbeEvent::LeaseAcquired { .. } => "lease_acquired",
            ProbeEvent::LeaseGranted { .. } => "lease_granted",
            ProbeEvent::LeaseExpired { .. } => "lease_expired",
            ProbeEvent::ReadServed { .. } => "read_served",
        }
    }
}

impl fmt::Display for ProbeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ProbeEvent::LeaderChange { node, at, leader } => {
                write!(f, "{at} {node} LEADER    -> {leader}")
            }
            ProbeEvent::AccusationSent {
                node,
                at,
                suspect,
                phase,
            } => write!(f, "{at} {node} ACCUSE    {suspect} phase={phase}"),
            ProbeEvent::AccusationAbsorbed {
                node,
                at,
                new_counter,
            } => write!(f, "{at} {node} ACCUSED   counter={new_counter}"),
            ProbeEvent::IncarnationBump { node, counter } => {
                write!(f, "---- {node} REINCARNATE counter={counter}")
            }
            ProbeEvent::TimeoutAdapt {
                node,
                at,
                suspect,
                timeout,
            } => write!(f, "{at} {node} TIMEOUT   {suspect} -> {timeout}"),
            ProbeEvent::PhaseEnter {
                node,
                at,
                label,
                number,
            } => write!(f, "{at} {node} PHASE     {label} #{number}"),
            ProbeEvent::Decide { node, at, slot } => {
                write!(f, "{at} {node} DECIDE    slot={slot}")
            }
            ProbeEvent::BatchCommit {
                node,
                at,
                slot,
                cmds,
            } => write!(f, "{at} {node} BATCH     slot={slot} cmds={cmds}"),
            ProbeEvent::CmdLifecycle {
                node,
                at,
                cmd,
                stage,
                shard,
            } => write!(f, "{at} {node} CMD       {cmd} {stage} shard={shard}"),
            ProbeEvent::WalAppend { node, at } => write!(f, "{at} {node} WAL-APPEND"),
            ProbeEvent::WalFsync {
                node,
                at,
                micros,
                records,
            } => write!(f, "{at} {node} WAL-FSYNC {micros}us records={records}"),
            ProbeEvent::WalRecover { node, at, records } => {
                write!(f, "{at} {node} WAL-RECOVER records={records}")
            }
            ProbeEvent::WalWedge { node, at } => write!(f, "{at} {node} WAL-WEDGE"),
            ProbeEvent::SnapshotWrite {
                node,
                at,
                watermark,
                live_bytes,
            } => write!(
                f,
                "{at} {node} SNAP-WRITE watermark={watermark} live_bytes={live_bytes}"
            ),
            ProbeEvent::SnapshotInstall {
                node,
                at,
                watermark,
            } => write!(f, "{at} {node} SNAP-INSTALL watermark={watermark}"),
            ProbeEvent::RecoveryReplay { node, at, bytes } => {
                write!(f, "{at} {node} WAL-REPLAY bytes={bytes}")
            }
            ProbeEvent::LeaseAcquired {
                node,
                at,
                shard,
                seq,
                until,
            } => write!(
                f,
                "{at} {node} LEASE-ACQ shard={shard} seq={seq} until={until}"
            ),
            ProbeEvent::LeaseGranted {
                node,
                at,
                shard,
                seq,
                holder,
            } => write!(
                f,
                "{at} {node} LEASE-GRANT shard={shard} seq={seq} holder={holder}"
            ),
            ProbeEvent::LeaseExpired {
                node,
                at,
                shard,
                seq,
            } => write!(f, "{at} {node} LEASE-EXP shard={shard} seq={seq}"),
            ProbeEvent::ReadServed {
                node,
                at,
                shard,
                mode,
                watermark,
            } => write!(
                f,
                "{at} {node} READ      {mode} shard={shard} watermark={watermark}"
            ),
        }
    }
}

/// A sink for [`ProbeEvent`]s, passed *by value* into each state machine.
///
/// `emit` takes `&self` so one recorder can be shared (via `Arc`) among a
/// machine and the nested machines it drives — `Consensus` clones its probe
/// into the embedded `CommEffOmega`, so one recorder sees both layers.
pub trait Probe: Clone + Send + fmt::Debug + 'static {
    /// Whether this probe observes anything at all. Per-command emission
    /// loops (one event per command of a batch) are guarded with
    /// `if P::ENABLED { .. }`, so with [`NoopProbe`] the loop body is a
    /// compile-time `if false` and the optimizer removes the iteration —
    /// the hot path pays nothing, not even the batch walk.
    const ENABLED: bool = true;

    /// Records one event. Must be cheap and non-blocking; called from inside
    /// protocol handlers.
    fn emit(&self, event: ProbeEvent);
}

/// The default probe: does nothing, costs nothing. Monomorphization turns
/// every `probe.emit(..)` through this type into an empty inline call that
/// the optimizer deletes, and `ENABLED = false` removes per-command
/// emission loops wholesale.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&self, _event: ProbeEvent) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct_and_stable() {
        let p = ProcessId(1);
        let t = Instant::from_ticks(5);
        let events = [
            ProbeEvent::LeaderChange {
                node: p,
                at: t,
                leader: p,
            },
            ProbeEvent::AccusationSent {
                node: p,
                at: t,
                suspect: p,
                phase: 0,
            },
            ProbeEvent::AccusationAbsorbed {
                node: p,
                at: t,
                new_counter: 1,
            },
            ProbeEvent::IncarnationBump {
                node: p,
                counter: 2,
            },
            ProbeEvent::TimeoutAdapt {
                node: p,
                at: t,
                suspect: p,
                timeout: Duration::from_ticks(9),
            },
            ProbeEvent::PhaseEnter {
                node: p,
                at: t,
                label: "prepare",
                number: 3,
            },
            ProbeEvent::Decide {
                node: p,
                at: t,
                slot: 0,
            },
            ProbeEvent::BatchCommit {
                node: p,
                at: t,
                slot: 0,
                cmds: 8,
            },
            ProbeEvent::CmdLifecycle {
                node: p,
                at: t,
                cmd: CmdId { client: 3, seq: 9 },
                stage: CmdStage::BatchSeal,
                shard: 0,
            },
            ProbeEvent::WalAppend { node: p, at: t },
            ProbeEvent::WalFsync {
                node: p,
                at: t,
                micros: 120,
                records: 4,
            },
            ProbeEvent::WalRecover {
                node: p,
                at: Instant::ZERO,
                records: 4,
            },
            ProbeEvent::WalWedge { node: p, at: t },
            ProbeEvent::SnapshotWrite {
                node: p,
                at: t,
                watermark: 10,
                live_bytes: 128,
            },
            ProbeEvent::SnapshotInstall {
                node: p,
                at: t,
                watermark: 10,
            },
            ProbeEvent::RecoveryReplay {
                node: p,
                at: Instant::ZERO,
                bytes: 64,
            },
            ProbeEvent::LeaseAcquired {
                node: p,
                at: t,
                shard: 0,
                seq: 1,
                until: Instant::from_ticks(117),
            },
            ProbeEvent::LeaseGranted {
                node: p,
                at: t,
                shard: 0,
                seq: 1,
                holder: p,
            },
            ProbeEvent::LeaseExpired {
                node: p,
                at: t,
                shard: 0,
                seq: 1,
            },
            ProbeEvent::ReadServed {
                node: p,
                at: t,
                shard: 0,
                mode: ReadMode::Lease,
                watermark: 4,
            },
        ];
        let kinds: std::collections::BTreeSet<&str> = events.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), events.len(), "kind tags must be unique");
        for e in &events {
            assert_eq!(e.node(), p);
            assert!(!format!("{e}").is_empty());
        }
    }

    #[test]
    fn read_mode_labels_are_unique_and_stable() {
        let modes = [ReadMode::Lease, ReadMode::ReadIndex, ReadMode::Log];
        let labels: std::collections::BTreeSet<&str> = modes.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), modes.len());
        assert_eq!(ReadMode::Lease.label(), "lease");
        assert_eq!(ReadMode::ReadIndex.label(), "read_index");
        assert_eq!(ReadMode::Log.label(), "log");
    }

    #[test]
    fn every_storage_event_is_plottable() {
        let p = ProcessId(0);
        let t = Instant::from_ticks(7);
        assert_eq!(
            ProbeEvent::Decide {
                node: p,
                at: t,
                slot: 1
            }
            .at(),
            Some(t)
        );
        // Satellite of E22: the storage events used to return None and were
        // unplottable on the timeline. Now only the pre-clock incarnation
        // bump lacks a timestamp.
        assert_eq!(ProbeEvent::WalAppend { node: p, at: t }.at(), Some(t));
        assert_eq!(
            ProbeEvent::WalRecover {
                node: p,
                at: Instant::ZERO,
                records: 0
            }
            .at(),
            Some(Instant::ZERO)
        );
        assert_eq!(ProbeEvent::WalWedge { node: p, at: t }.at(), Some(t));
        assert_eq!(
            ProbeEvent::SnapshotWrite {
                node: p,
                at: t,
                watermark: 1,
                live_bytes: 2
            }
            .at(),
            Some(t)
        );
        assert_eq!(
            ProbeEvent::RecoveryReplay {
                node: p,
                at: Instant::ZERO,
                bytes: 0
            }
            .at(),
            Some(Instant::ZERO)
        );
        assert_eq!(
            ProbeEvent::IncarnationBump {
                node: p,
                counter: 1
            }
            .at(),
            None
        );
    }

    #[test]
    fn stage_order_is_total_and_labels_unique() {
        let labels: std::collections::BTreeSet<&str> =
            CmdStage::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), CmdStage::ALL.len());
        for (i, s) in CmdStage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i, "ALL must list stages in path order");
        }
        assert!(CmdStage::Enqueue < CmdStage::Reply);
    }
}
