//! Durable records for crash–restart survival, with per-field safety
//! arguments.
//!
//! A process that can be killed and restarted is only safe if everything it
//! *told the rest of the system* survives the restart. For the protocols in
//! this crate, that is exactly four kinds of state, each appended to the
//! process's [`StorageHandle`](lls_primitives::StorageHandle) *before* the
//! message that exposes it can leave the process (the runtimes drain effects
//! only after a handler returns, so an append inside the handler is durable
//! first — the write-ahead rule):
//!
//! | field | record | why it must survive |
//! |---|---|---|
//! | Ω own counter | `OmegaCounter` | Peers adopt the largest counter heard from us and accusations only count when they match it (the counter *is* the phase). Regressing it would let a demoted candidate re-claim leadership it lost — breaking eventual agreement — and desynchronise the accusation phase forever. |
//! | promised ballot | `Promised` | A `Promise(b)` tells a proposer "no ballot `< b` can succeed through me". Forgetting it would let a restarted acceptor promise/accept an older ballot, producing two quorums for different values — the classic Paxos split brain. |
//! | accepted ballot/value | `Accepted` | A `Accepted(b)` vote may already be part of a quorum that chose the value. A restarted acceptor must reveal it in future promises, or a later proposer could choose a conflicting value. |
//! | decided value / chosen slot | `Decided` / `Chosen` | Decisions are irrevocable and are announced to peers (and to the local application). A restarted process must not re-decide differently, and must not re-emit its decision output (integrity: decide at most once). |
//!
//! A replicated-log follower usually writes one group per `Accept`:
//! `[Chosen…, Accepted]` — the slots the `Accept`'s `decided` list lets it
//! learn, then its new vote — with a single flush, before the `Committed`
//! outputs and the `Accepted` reply. A crash before the flush loses both
//! (the leader retransmits); after it, both survive. A retransmitted
//! `Accept` whose vote is already durable adds no `Accepted` record.
//!
//! # Recovery ("recovering rejoin mode")
//!
//! Recovery is performed synchronously inside `with_storage` constructors,
//! **before** `on_start` delivers the first stimulus — the machine is never
//! observable in a half-recovered state, so a restart cannot answer a
//! `Prepare`/`Accept` from pre-crash amnesia. Recovered decisions are
//! restored *without* re-emitting their outputs (the trace checkers require
//! each process to decide at most once); and the recovered Ω counter is
//! bumped by one (the incarnation bump), so the restarted process rejoins
//! as a follower and defers to whoever was elected while it was down.
//!
//! If an append fails at runtime, the machine *wedges*: it stops reacting to
//! all stimuli. A process whose durable storage is broken cannot safely keep
//! promises, so it must behave like a crashed process — which the protocols
//! already tolerate.
//!
//! # Compaction (the "durable prefix" envelope)
//!
//! Snapshots and WAL compaction
//! ([`ReplicatedLog::compact`](crate::ReplicatedLog::compact)) *remove*
//! records, so they need their own safety argument on top of the table
//! above. The invariant is an ordering: **the snapshot is durable first**
//! (CRC-checked, tmp-then-rename, directory fsync), then the WAL is
//! rewritten to its *live* records — the latest `OmegaCounter`, the latest
//! `Promised`, and every `Accepted`/`Chosen` at slots ≥ the snapshot
//! watermark — and only then is in-memory state pruned. A crash between any
//! two steps therefore recovers a *superset* of the required state (the
//! "durable prefix" envelope): old snapshot + full WAL, new snapshot + full
//! WAL, or new snapshot + compacted WAL, each of which replays to the same
//! observable state. Nothing an acceptor ever *told the rest of the system*
//! is dropped: the promise and the accepted suffix stay in the rewritten
//! WAL verbatim, and the chosen prefix below the watermark is summarized by
//! the snapshot, whose watermark floors the replica (`low_slot` in
//! `Promise`) so no peer is ever answered from compacted amnesia. A new
//! leader treats the maximum promised `low_slot` as its proposal *floor*:
//! any slot chosen below it had a quorum that intersects the promising
//! quorum, so the choice is either revealed in a promise or lies below some
//! reported `low_slot` — never silently contradicted by a fresh proposal.

use lls_primitives::wire::{Wire, WireError, WireReader};

use crate::ballot::Ballot;
use crate::msg::Entry;

/// One durable record of a single-shot [`Consensus`](crate::Consensus)
/// process. See the module docs for the per-field safety argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcceptorRecord<V> {
    /// The embedded Ω detector's own accusation counter reached this value.
    OmegaCounter(u64),
    /// The acceptor promised this ballot.
    Promised(Ballot),
    /// The acceptor accepted this (ballot, value) pair.
    Accepted(Ballot, V),
    /// This process decided this value.
    Decided(V),
}

impl<V: Wire> Wire for AcceptorRecord<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AcceptorRecord::OmegaCounter(c) => {
                out.push(0);
                c.encode(out);
            }
            AcceptorRecord::Promised(b) => {
                out.push(1);
                b.encode(out);
            }
            AcceptorRecord::Accepted(b, v) => {
                out.push(2);
                b.encode(out);
                v.encode(out);
            }
            AcceptorRecord::Decided(v) => {
                out.push(3);
                v.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(AcceptorRecord::OmegaCounter(u64::decode(r)?)),
            1 => Ok(AcceptorRecord::Promised(Ballot::decode(r)?)),
            2 => Ok(AcceptorRecord::Accepted(Ballot::decode(r)?, V::decode(r)?)),
            3 => Ok(AcceptorRecord::Decided(V::decode(r)?)),
            tag => Err(WireError::BadTag {
                type_name: "AcceptorRecord",
                tag,
            }),
        }
    }
}

/// One durable record of a [`ReplicatedLog`](crate::ReplicatedLog) replica.
/// Same safety arguments as [`AcceptorRecord`], per slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsmRecord<V> {
    /// The embedded Ω detector's own accusation counter reached this value.
    OmegaCounter(u64),
    /// The acceptor promised this ballot (covering all slots).
    Promised(Ballot),
    /// The acceptor accepted `entry` at `slot` under ballot `b`.
    Accepted {
        /// The slot written.
        slot: u64,
        /// The ballot under which it was written.
        b: Ballot,
        /// The accepted entry.
        entry: Entry<V>,
    },
    /// This replica learned that `slot` chose `entry`.
    Chosen {
        /// The decided slot.
        slot: u64,
        /// The chosen entry.
        entry: Entry<V>,
    },
}

impl<V: Wire> Wire for RsmRecord<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RsmRecord::OmegaCounter(c) => {
                out.push(0);
                c.encode(out);
            }
            RsmRecord::Promised(b) => {
                out.push(1);
                b.encode(out);
            }
            RsmRecord::Accepted { slot, b, entry } => {
                out.push(2);
                slot.encode(out);
                b.encode(out);
                entry.encode(out);
            }
            RsmRecord::Chosen { slot, entry } => {
                out.push(3);
                slot.encode(out);
                entry.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(RsmRecord::OmegaCounter(u64::decode(r)?)),
            1 => Ok(RsmRecord::Promised(Ballot::decode(r)?)),
            2 => Ok(RsmRecord::Accepted {
                slot: u64::decode(r)?,
                b: Ballot::decode(r)?,
                entry: Entry::decode(r)?,
            }),
            3 => Ok(RsmRecord::Chosen {
                slot: u64::decode(r)?,
                entry: Entry::decode(r)?,
            }),
            tag => Err(WireError::BadTag {
                type_name: "RsmRecord",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lls_primitives::ProcessId;

    #[test]
    fn acceptor_records_round_trip() {
        let b = Ballot::new(3, ProcessId(1));
        let records: Vec<AcceptorRecord<u64>> = vec![
            AcceptorRecord::OmegaCounter(7),
            AcceptorRecord::Promised(b),
            AcceptorRecord::Accepted(b, 42),
            AcceptorRecord::Decided(42),
        ];
        for rec in records {
            let bytes = rec.to_bytes();
            assert_eq!(AcceptorRecord::<u64>::from_bytes(&bytes).unwrap(), rec);
        }
    }

    #[test]
    fn rsm_records_round_trip() {
        let b = Ballot::new(2, ProcessId(0));
        let records: Vec<RsmRecord<u64>> = vec![
            RsmRecord::OmegaCounter(1),
            RsmRecord::Promised(b),
            RsmRecord::Accepted {
                slot: 5,
                b,
                entry: Entry::Cmd(9),
            },
            RsmRecord::Chosen {
                slot: 5,
                entry: Entry::Noop,
            },
        ];
        for rec in records {
            let bytes = rec.to_bytes();
            assert_eq!(RsmRecord::<u64>::from_bytes(&bytes).unwrap(), rec);
        }
    }

    #[test]
    fn bad_tag_is_rejected() {
        assert!(matches!(
            AcceptorRecord::<u64>::from_bytes(&[9]),
            Err(WireError::BadTag { .. })
        ));
    }
}
