//! Wire messages of the consensus protocols.

use lls_primitives::wire::{put_varint, Wire, WireError, WireReader};
use omega::OmegaMsg;
use serde::{Deserialize, Serialize};

use crate::ballot::Ballot;

/// Messages of the single-shot [`Consensus`](crate::Consensus) protocol over
/// values `V`. The embedded Ω detector's traffic travels in the same
/// envelope (`Omega`), so one transport carries the whole stack.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConsensusMsg<V> {
    /// Embedded leader-election traffic.
    Omega(OmegaMsg),
    /// Phase 1a: the proposer asks acceptors to promise ballot `b`.
    Prepare {
        /// The proposer's ballot.
        b: Ballot,
    },
    /// Phase 1b: the acceptor promises `b` and reveals what it last accepted.
    Promise {
        /// The promised ballot (echoed).
        b: Ballot,
        /// The acceptor's highest accepted (ballot, value), if any.
        accepted: Option<(Ballot, V)>,
    },
    /// Phase 2a: the proposer asks acceptors to accept `v` at ballot `b`.
    Accept {
        /// The proposer's ballot.
        b: Ballot,
        /// The value to accept.
        v: V,
    },
    /// Phase 2b: the acceptor accepted ballot `b`.
    Accepted {
        /// The accepted ballot (echoed).
        b: Ballot,
    },
    /// The acceptor refuses `b` because it promised `higher`.
    Nack {
        /// The refused ballot (echoed).
        b: Ballot,
        /// The ballot the acceptor is promised to.
        higher: Ballot,
    },
    /// The decided value, broadcast (and retransmitted) by the decider.
    Decide {
        /// The chosen value.
        v: V,
    },
    /// Acknowledges a `Decide`, silencing retransmission to the sender.
    DecideAck,
}

/// A slot's content in the replicated log: a client command, a batch of
/// commands decided atomically as one entry, or a no-op filler used by a
/// new leader to close gaps left by its predecessor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Entry<V> {
    /// Gap filler; applied as "skip".
    Noop,
    /// A client command.
    Cmd(V),
    /// Several client commands coalesced into one atomic entry: the whole
    /// batch is chosen (and applied, in vector order) or none of it is.
    /// Leaders only mint batches of two or more — a singleton collapses to
    /// [`Entry::Cmd`], keeping the pre-batching wire shape on that path.
    Batch(Vec<V>),
}

impl<V> Entry<V> {
    /// The single command inside, if this is a [`Entry::Cmd`]. Batches
    /// return `None` — use [`Entry::commands`] to see every command.
    pub fn command(&self) -> Option<&V> {
        match self {
            Entry::Noop => None,
            Entry::Cmd(v) => Some(v),
            Entry::Batch(_) => None,
        }
    }

    /// All commands carried by this entry, in application order: empty for
    /// a no-op, one for a plain command, the whole vector for a batch.
    pub fn commands(&self) -> &[V] {
        match self {
            Entry::Noop => &[],
            Entry::Cmd(v) => std::slice::from_ref(v),
            Entry::Batch(vs) => vs.as_slice(),
        }
    }
}

/// Messages of the [`ReplicatedLog`](crate::ReplicatedLog) (Multi-Paxos
/// style): phase 1 covers all slots from `from_slot` on with one ballot;
/// phase 2 runs per slot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RsmMsg<V> {
    /// Embedded leader-election traffic.
    Omega(OmegaMsg),
    /// Phase 1a for every slot ≥ `from_slot` at once.
    Prepare {
        /// The proposer's ballot.
        b: Ballot,
        /// First slot the ballot claims.
        from_slot: u64,
    },
    /// Phase 1b: promise plus everything the acceptor accepted at or above
    /// `from_slot`.
    Promise {
        /// The promised ballot (echoed).
        b: Ballot,
        /// Accepted `(slot, ballot, entry)` triples at or after `from_slot`.
        accepted: Vec<(u64, Ballot, Entry<V>)>,
        /// The acceptor's first slot not known chosen (hint for the leader).
        low_slot: u64,
    },
    /// Phase 2a for one slot, carrying the decisions the leader has not
    /// yet announced.
    Accept {
        /// The proposer's ballot.
        b: Ballot,
        /// The slot being written.
        slot: u64,
        /// The entry to accept.
        entry: Entry<V>,
        /// Slots this leader chose through its own `Accepted` quorum at
        /// ballot `b`, in ascending order (delta-varint on the wire). An
        /// acceptor holding `(b, e)` at a listed slot learns `e` as chosen;
        /// any other listed slot is ignored.
        decided: Vec<u64>,
    },
    /// Phase 2b for one slot.
    Accepted {
        /// The accepted ballot (echoed).
        b: Ballot,
        /// The slot that was written.
        slot: u64,
        /// The acceptor's emission cursor: it has learned every slot below
        /// this one, which acknowledges the `Decide`s for them.
        emitted: u64,
    },
    /// Refusal: the acceptor is promised to `higher`.
    Nack {
        /// The refused ballot (echoed).
        b: Ballot,
        /// The ballot the acceptor is promised to.
        higher: Ballot,
    },
    /// A chosen slot, broadcast (and retransmitted) by the leader.
    Decide {
        /// The chosen slot.
        slot: u64,
        /// The chosen entry.
        entry: Entry<V>,
    },
    /// Acknowledges `Decide { slot }` to silence retransmission.
    DecideAck {
        /// The acknowledged slot.
        slot: u64,
    },
    /// A laggard asks a peer for everything chosen from `low_slot` on. The
    /// peer answers with `Decide`s, or with a snapshot transfer when its
    /// own log was already compacted past `low_slot`.
    CatchUp {
        /// The requester's first slot not known chosen.
        low_slot: u64,
    },
    /// Announces an incoming snapshot transfer: `chunks` chunks follow,
    /// whose concatenation (CRC `crc`) is the serialized application state
    /// at `watermark`.
    SnapshotOffer {
        /// First slot not covered by the snapshot.
        watermark: u64,
        /// Number of chunks in the transfer.
        chunks: u32,
        /// CRC-32 of the whole reassembled state blob.
        crc: u32,
    },
    /// One chunk of a snapshot transfer. Self-describing (it repeats the
    /// offer's totals), so a transfer completes even if the offer frame
    /// was lost.
    SnapshotChunk {
        /// First slot not covered by the snapshot.
        watermark: u64,
        /// This chunk's index in `0..chunks`.
        index: u32,
        /// Number of chunks in the transfer.
        chunks: u32,
        /// CRC-32 of the whole reassembled state blob.
        crc: u32,
        /// CRC-32 of this chunk's bytes (verified before assembly; the
        /// frame codec's own checksum already covers transport corruption,
        /// this one survives re-framing and storage).
        chunk_crc: u32,
        /// The chunk's bytes.
        data: Vec<u8>,
    },
    /// Acknowledges one snapshot chunk (silencing its retransmission), or
    /// — with `index == u32::MAX` — the whole transfer (received or not
    /// needed), telling the sender to resume Decide streaming at the
    /// watermark.
    SnapshotAck {
        /// The watermark of the transfer being acknowledged.
        watermark: u64,
        /// The chunk received, or `u32::MAX` for "transfer complete".
        index: u32,
    },
    /// The established leader of ballot `b` asks for a lease of round `seq`:
    /// each granter promises to hold off competing elections (Nack any
    /// `Prepare` from a different proposer) for the lease duration plus the
    /// skew bound on its own clock.
    LeaseGrant {
        /// The leader's established ballot.
        b: Ballot,
        /// Monotone renewal-round number under this ballot.
        seq: u64,
    },
    /// A granter's acknowledgement of `LeaseGrant { b, seq }`.
    LeaseAck {
        /// The granted ballot (echoed).
        b: Ballot,
        /// The granted renewal round (echoed).
        seq: u64,
    },
    /// A follower asks the believed leader for a read watermark: "at what
    /// committed length is a read issued now linearizable?"
    ReadIndex {
        /// The follower's opaque request token (echoed in the reply).
        req: u64,
    },
    /// The leaseholder's answer to `ReadIndex { req }`: the read is safe
    /// once the asker has applied `index` contiguous slots. Only a leader
    /// with an *active* lease answers — without the lease its committed
    /// length could be stale.
    ReadIndexReply {
        /// The echoed request token.
        req: u64,
        /// The committed length to wait for before serving the read.
        index: u64,
    },
}

impl<V: Wire> Wire for Entry<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Entry::Noop => out.push(0),
            Entry::Cmd(v) => {
                out.push(1);
                v.encode(out);
            }
            Entry::Batch(vs) => {
                out.push(2);
                vs.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Entry::Noop),
            1 => Ok(Entry::Cmd(V::decode(r)?)),
            2 => Ok(Entry::Batch(Vec::decode(r)?)),
            tag => Err(WireError::BadTag {
                type_name: "Entry",
                tag,
            }),
        }
    }
}

impl<V: Wire> Wire for ConsensusMsg<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ConsensusMsg::Omega(m) => {
                out.push(0);
                m.encode(out);
            }
            ConsensusMsg::Prepare { b } => {
                out.push(1);
                b.encode(out);
            }
            ConsensusMsg::Promise { b, accepted } => {
                out.push(2);
                b.encode(out);
                accepted.encode(out);
            }
            ConsensusMsg::Accept { b, v } => {
                out.push(3);
                b.encode(out);
                v.encode(out);
            }
            ConsensusMsg::Accepted { b } => {
                out.push(4);
                b.encode(out);
            }
            ConsensusMsg::Nack { b, higher } => {
                out.push(5);
                b.encode(out);
                higher.encode(out);
            }
            ConsensusMsg::Decide { v } => {
                out.push(6);
                v.encode(out);
            }
            ConsensusMsg::DecideAck => out.push(7),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(ConsensusMsg::Omega(OmegaMsg::decode(r)?)),
            1 => Ok(ConsensusMsg::Prepare {
                b: Ballot::decode(r)?,
            }),
            2 => Ok(ConsensusMsg::Promise {
                b: Ballot::decode(r)?,
                accepted: Option::decode(r)?,
            }),
            3 => Ok(ConsensusMsg::Accept {
                b: Ballot::decode(r)?,
                v: V::decode(r)?,
            }),
            4 => Ok(ConsensusMsg::Accepted {
                b: Ballot::decode(r)?,
            }),
            5 => Ok(ConsensusMsg::Nack {
                b: Ballot::decode(r)?,
                higher: Ballot::decode(r)?,
            }),
            6 => Ok(ConsensusMsg::Decide { v: V::decode(r)? }),
            7 => Ok(ConsensusMsg::DecideAck),
            tag => Err(WireError::BadTag {
                type_name: "ConsensusMsg",
                tag,
            }),
        }
    }
}

impl<V: Wire> Wire for RsmMsg<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RsmMsg::Omega(m) => {
                out.push(0);
                m.encode(out);
            }
            RsmMsg::Prepare { b, from_slot } => {
                out.push(1);
                b.encode(out);
                from_slot.encode(out);
            }
            RsmMsg::Promise {
                b,
                accepted,
                low_slot,
            } => {
                out.push(2);
                b.encode(out);
                accepted.encode(out);
                low_slot.encode(out);
            }
            RsmMsg::Accept {
                b,
                slot,
                entry,
                decided,
            } => {
                out.push(3);
                b.encode(out);
                slot.encode(out);
                entry.encode(out);
                encode_slots(decided, out);
            }
            RsmMsg::Accepted { b, slot, emitted } => {
                out.push(4);
                b.encode(out);
                slot.encode(out);
                emitted.encode(out);
            }
            RsmMsg::Nack { b, higher } => {
                out.push(5);
                b.encode(out);
                higher.encode(out);
            }
            RsmMsg::Decide { slot, entry } => {
                out.push(6);
                slot.encode(out);
                entry.encode(out);
            }
            RsmMsg::DecideAck { slot } => {
                out.push(7);
                slot.encode(out);
            }
            RsmMsg::CatchUp { low_slot } => {
                out.push(8);
                low_slot.encode(out);
            }
            RsmMsg::SnapshotOffer {
                watermark,
                chunks,
                crc,
            } => {
                out.push(9);
                watermark.encode(out);
                chunks.encode(out);
                crc.encode(out);
            }
            RsmMsg::SnapshotChunk {
                watermark,
                index,
                chunks,
                crc,
                chunk_crc,
                data,
            } => {
                out.push(10);
                watermark.encode(out);
                index.encode(out);
                chunks.encode(out);
                crc.encode(out);
                chunk_crc.encode(out);
                data.encode(out);
            }
            RsmMsg::SnapshotAck { watermark, index } => {
                out.push(11);
                watermark.encode(out);
                index.encode(out);
            }
            RsmMsg::LeaseGrant { b, seq } => {
                out.push(12);
                b.encode(out);
                seq.encode(out);
            }
            RsmMsg::LeaseAck { b, seq } => {
                out.push(13);
                b.encode(out);
                seq.encode(out);
            }
            RsmMsg::ReadIndex { req } => {
                out.push(14);
                req.encode(out);
            }
            RsmMsg::ReadIndexReply { req, index } => {
                out.push(15);
                req.encode(out);
                index.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(RsmMsg::Omega(OmegaMsg::decode(r)?)),
            1 => Ok(RsmMsg::Prepare {
                b: Ballot::decode(r)?,
                from_slot: u64::decode(r)?,
            }),
            2 => Ok(RsmMsg::Promise {
                b: Ballot::decode(r)?,
                accepted: Vec::decode(r)?,
                low_slot: u64::decode(r)?,
            }),
            3 => Ok(RsmMsg::Accept {
                b: Ballot::decode(r)?,
                slot: u64::decode(r)?,
                entry: Entry::decode(r)?,
                decided: decode_slots(r)?,
            }),
            4 => Ok(RsmMsg::Accepted {
                b: Ballot::decode(r)?,
                slot: u64::decode(r)?,
                emitted: u64::decode(r)?,
            }),
            5 => Ok(RsmMsg::Nack {
                b: Ballot::decode(r)?,
                higher: Ballot::decode(r)?,
            }),
            6 => Ok(RsmMsg::Decide {
                slot: u64::decode(r)?,
                entry: Entry::decode(r)?,
            }),
            7 => Ok(RsmMsg::DecideAck {
                slot: u64::decode(r)?,
            }),
            8 => Ok(RsmMsg::CatchUp {
                low_slot: u64::decode(r)?,
            }),
            9 => Ok(RsmMsg::SnapshotOffer {
                watermark: u64::decode(r)?,
                chunks: u32::decode(r)?,
                crc: u32::decode(r)?,
            }),
            10 => Ok(RsmMsg::SnapshotChunk {
                watermark: u64::decode(r)?,
                index: u32::decode(r)?,
                chunks: u32::decode(r)?,
                crc: u32::decode(r)?,
                chunk_crc: u32::decode(r)?,
                data: Vec::<u8>::decode(r)?,
            }),
            11 => Ok(RsmMsg::SnapshotAck {
                watermark: u64::decode(r)?,
                index: u32::decode(r)?,
            }),
            12 => Ok(RsmMsg::LeaseGrant {
                b: Ballot::decode(r)?,
                seq: u64::decode(r)?,
            }),
            13 => Ok(RsmMsg::LeaseAck {
                b: Ballot::decode(r)?,
                seq: u64::decode(r)?,
            }),
            14 => Ok(RsmMsg::ReadIndex {
                req: u64::decode(r)?,
            }),
            15 => Ok(RsmMsg::ReadIndexReply {
                req: u64::decode(r)?,
                index: u64::decode(r)?,
            }),
            tag => Err(WireError::BadTag {
                type_name: "RsmMsg",
                tag,
            }),
        }
    }
}

/// Encodes an ascending slot list as its length, the first slot, then the
/// gap to each next slot, all varints: a run of consecutive slots costs one
/// byte per slot after the first.
fn encode_slots(slots: &[u64], out: &mut Vec<u8>) {
    put_varint(out, slots.len() as u64);
    let mut prev = 0;
    for &slot in slots {
        debug_assert!(slot >= prev, "slot lists are ascending");
        put_varint(out, slot.wrapping_sub(prev));
        prev = slot;
    }
}

/// Decodes [`encode_slots`]. A length beyond the remaining bytes is
/// rejected before allocating, and a gap that would carry a slot past
/// `u64::MAX` is an error rather than a wrap.
fn decode_slots(r: &mut WireReader<'_>) -> Result<Vec<u64>, WireError> {
    let len = usize::decode(r)?;
    if len > r.remaining() {
        return Err(WireError::BadLength {
            announced: len,
            remaining: r.remaining(),
        });
    }
    let mut slots = Vec::with_capacity(len);
    let mut prev = 0u64;
    for _ in 0..len {
        prev = prev
            .checked_add(r.varint()?)
            .ok_or(WireError::VarintOverflow)?;
        slots.push(prev);
    }
    Ok(slots)
}

/// Classifier for per-kind message statistics of [`ConsensusMsg`].
pub fn classify_consensus_msg<V>(msg: &ConsensusMsg<V>) -> &'static str {
    match msg {
        ConsensusMsg::Omega(m) => omega::classify_msg(m),
        ConsensusMsg::Prepare { .. } => "PREPARE",
        ConsensusMsg::Promise { .. } => "PROMISE",
        ConsensusMsg::Accept { .. } => "ACCEPT",
        ConsensusMsg::Accepted { .. } => "ACCEPTED",
        ConsensusMsg::Nack { .. } => "NACK",
        ConsensusMsg::Decide { .. } => "DECIDE",
        ConsensusMsg::DecideAck => "DECIDE_ACK",
    }
}

/// Classifier for per-kind message statistics of [`RsmMsg`].
pub fn classify_rsm_msg<V>(msg: &RsmMsg<V>) -> &'static str {
    match msg {
        RsmMsg::Omega(m) => omega::classify_msg(m),
        RsmMsg::Prepare { .. } => "PREPARE",
        RsmMsg::Promise { .. } => "PROMISE",
        RsmMsg::Accept { .. } => "ACCEPT",
        RsmMsg::Accepted { .. } => "ACCEPTED",
        RsmMsg::Nack { .. } => "NACK",
        RsmMsg::Decide { .. } => "DECIDE",
        RsmMsg::DecideAck { .. } => "DECIDE_ACK",
        RsmMsg::CatchUp { .. } => "CATCH_UP",
        RsmMsg::SnapshotOffer { .. } => "SNAP_OFFER",
        RsmMsg::SnapshotChunk { .. } => "SNAP_CHUNK",
        RsmMsg::SnapshotAck { .. } => "SNAP_ACK",
        RsmMsg::LeaseGrant { .. } => "LEASE_GRANT",
        RsmMsg::LeaseAck { .. } => "LEASE_ACK",
        RsmMsg::ReadIndex { .. } => "READ_INDEX",
        RsmMsg::ReadIndexReply { .. } => "READ_INDEX_REPLY",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lls_primitives::ProcessId;

    #[test]
    fn classify_covers_every_variant() {
        let b = Ballot::new(1, ProcessId(0));
        let msgs: Vec<ConsensusMsg<u64>> = vec![
            ConsensusMsg::Omega(OmegaMsg::Alive { counter: 0 }),
            ConsensusMsg::Prepare { b },
            ConsensusMsg::Promise { b, accepted: None },
            ConsensusMsg::Accept { b, v: 1 },
            ConsensusMsg::Accepted { b },
            ConsensusMsg::Nack { b, higher: b },
            ConsensusMsg::Decide { v: 1 },
            ConsensusMsg::DecideAck,
        ];
        let kinds: Vec<_> = msgs.iter().map(classify_consensus_msg).collect();
        assert_eq!(
            kinds,
            vec![
                "ALIVE",
                "PREPARE",
                "PROMISE",
                "ACCEPT",
                "ACCEPTED",
                "NACK",
                "DECIDE",
                "DECIDE_ACK"
            ]
        );
    }

    #[test]
    fn entry_command_projection() {
        assert_eq!(Entry::<u64>::Noop.command(), None);
        assert_eq!(Entry::Cmd(7).command(), Some(&7));
        assert_eq!(Entry::Batch(vec![1u64, 2]).command(), None);
    }

    #[test]
    fn entry_commands_projection() {
        assert_eq!(Entry::<u64>::Noop.commands(), &[] as &[u64]);
        assert_eq!(Entry::Cmd(7).commands(), &[7]);
        assert_eq!(Entry::Batch(vec![1u64, 2, 3]).commands(), &[1, 2, 3]);
    }

    #[test]
    fn batch_entry_round_trips_on_the_wire() {
        let entry: Entry<u64> = Entry::Batch(vec![10, 20, 30]);
        let decoded = Entry::<u64>::from_bytes(&entry.to_bytes()).unwrap();
        assert_eq!(decoded, entry);
        // Tags 0/1 are untouched: the pre-batching shapes still decode.
        let cmd: Entry<u64> = Entry::Cmd(7);
        assert_eq!(Entry::<u64>::from_bytes(&cmd.to_bytes()).unwrap(), cmd);
    }

    #[test]
    fn rsm_classify_covers_every_variant() {
        let b = Ballot::new(1, ProcessId(0));
        let msgs: Vec<RsmMsg<u64>> = vec![
            RsmMsg::Omega(OmegaMsg::Accuse { counter: 0 }),
            RsmMsg::Prepare { b, from_slot: 0 },
            RsmMsg::Promise {
                b,
                accepted: vec![],
                low_slot: 0,
            },
            RsmMsg::Accept {
                b,
                slot: 0,
                entry: Entry::Cmd(1),
                decided: vec![],
            },
            RsmMsg::Accepted {
                b,
                slot: 0,
                emitted: 0,
            },
            RsmMsg::Nack { b, higher: b },
            RsmMsg::Decide {
                slot: 0,
                entry: Entry::Noop,
            },
            RsmMsg::DecideAck { slot: 0 },
            RsmMsg::CatchUp { low_slot: 3 },
            RsmMsg::SnapshotOffer {
                watermark: 5,
                chunks: 2,
                crc: 0,
            },
            RsmMsg::SnapshotChunk {
                watermark: 5,
                index: 0,
                chunks: 2,
                crc: 0,
                chunk_crc: 0,
                data: vec![1],
            },
            RsmMsg::SnapshotAck {
                watermark: 5,
                index: 0,
            },
            RsmMsg::LeaseGrant { b, seq: 1 },
            RsmMsg::LeaseAck { b, seq: 1 },
            RsmMsg::ReadIndex { req: 9 },
            RsmMsg::ReadIndexReply { req: 9, index: 4 },
        ];
        let kinds: Vec<_> = msgs.iter().map(classify_rsm_msg).collect();
        assert_eq!(
            kinds,
            vec![
                "ACCUSE",
                "PREPARE",
                "PROMISE",
                "ACCEPT",
                "ACCEPTED",
                "NACK",
                "DECIDE",
                "DECIDE_ACK",
                "CATCH_UP",
                "SNAP_OFFER",
                "SNAP_CHUNK",
                "SNAP_ACK",
                "LEASE_GRANT",
                "LEASE_ACK",
                "READ_INDEX",
                "READ_INDEX_REPLY"
            ]
        );
    }

    #[test]
    fn snapshot_messages_round_trip_on_the_wire() {
        let msgs: Vec<RsmMsg<u64>> = vec![
            RsmMsg::CatchUp { low_slot: 17 },
            RsmMsg::SnapshotOffer {
                watermark: 40,
                chunks: 3,
                crc: 0xDEAD_BEEF,
            },
            RsmMsg::SnapshotChunk {
                watermark: 40,
                index: 1,
                chunks: 3,
                crc: 0xDEAD_BEEF,
                chunk_crc: 0x1234_5678,
                data: vec![9, 8, 7],
            },
            RsmMsg::SnapshotAck {
                watermark: 40,
                index: u32::MAX,
            },
        ];
        for msg in msgs {
            let decoded = RsmMsg::<u64>::from_bytes(&msg.to_bytes()).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn decided_lists_round_trip_as_delta_varints() {
        let b = Ballot::new(3, ProcessId(1));
        for decided in [vec![], vec![0], vec![7, 8, 9, 12], vec![5, u64::MAX]] {
            let msg: RsmMsg<u64> = RsmMsg::Accept {
                b,
                slot: 40,
                entry: Entry::Cmd(1),
                decided,
            };
            assert_eq!(RsmMsg::<u64>::from_bytes(&msg.to_bytes()).unwrap(), msg);
        }
        // A dense run costs one byte per slot after the first.
        let mut dense = Vec::new();
        encode_slots(&[1_000_000, 1_000_001, 1_000_002], &mut dense);
        assert_eq!(dense.len(), 1 + 3 + 1 + 1);
    }

    #[test]
    fn hostile_decided_lists_are_rejected_without_allocating() {
        let slots = |bytes: &[u8]| decode_slots(&mut WireReader::new(bytes));
        // A gap that carries the slot past u64::MAX.
        let mut overflow = Vec::new();
        put_varint(&mut overflow, 2);
        put_varint(&mut overflow, u64::MAX);
        put_varint(&mut overflow, 1);
        assert_eq!(slots(&overflow), Err(WireError::VarintOverflow));
        // A count longer than the frame.
        let mut long = Vec::new();
        put_varint(&mut long, u64::from(u32::MAX));
        put_varint(&mut long, 1);
        assert!(matches!(
            slots(&long),
            Err(WireError::BadLength { remaining: 1, .. })
        ));
        // A count that fits the frame but runs out of slots.
        assert_eq!(slots(&[2, 1, 0x80, 0x80]), Err(WireError::Truncated));
    }

    #[test]
    fn lease_and_read_messages_round_trip_on_the_wire() {
        let b = Ballot::new(3, ProcessId(1));
        let msgs: Vec<RsmMsg<u64>> = vec![
            RsmMsg::LeaseGrant { b, seq: 7 },
            RsmMsg::LeaseAck { b, seq: 7 },
            RsmMsg::ReadIndex { req: 0xAB_CDEF },
            RsmMsg::ReadIndexReply {
                req: 0xAB_CDEF,
                index: 42,
            },
        ];
        for msg in msgs {
            let decoded = RsmMsg::<u64>::from_bytes(&msg.to_bytes()).unwrap();
            assert_eq!(decoded, msg);
        }
    }
}
