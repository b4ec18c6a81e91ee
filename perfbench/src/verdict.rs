//! The per-run correctness verdict.
//!
//! From the client's own record of every command and each replica's
//! output stream, a run is correct when:
//!
//! 1. every pair of replicas (dead ones included) agrees on the puts of
//!    every `(shard, slot)` both applied, and every live replica applied
//!    every slot any live replica applied (unless a snapshot install
//!    covered it);
//! 2. every acknowledged put was applied, and every live replica holds it;
//! 3. every read returned the last put acknowledged before the read was
//!    issued, or a put that was not yet acknowledged then (values encode
//!    the writer's seq).

use std::collections::{BTreeMap, HashMap};

use kvstore::{ClientId, KvResponse, ShardedKvEvent};

/// Width of the decimal seq prefix of every value the benchmark writes.
pub const SEQ_DIGITS: usize = 20;

/// The value written by the put with client sequence number `seq`: the
/// seq in decimal, padded to `len` bytes.
pub fn value_for(seq: u64, len: usize) -> String {
    let mut v = format!("{seq:0width$}", width = SEQ_DIGITS);
    while v.len() < len {
        v.push('.');
    }
    v
}

/// The writer's seq encoded in a value written by [`value_for`].
pub fn seq_of_value(value: &str) -> Option<u64> {
    value.get(..SEQ_DIGITS)?.parse().ok()
}

/// The client's record of one command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmdView {
    /// Client sequence number.
    pub seq: u64,
    /// Key index.
    pub key: u32,
    /// A read (otherwise a put).
    pub read: bool,
    /// When the client issued it (ns on the client's clock).
    pub issued: u64,
    /// When its reply arrived, if it did.
    pub acked: Option<u64>,
    /// The reply.
    pub response: Option<KvResponse>,
}

/// One replica's complete output stream, in emission order.
#[derive(Debug, Clone)]
pub struct ReplicaStream {
    /// The replica's process index.
    pub node: u32,
    /// Still running at the end of the run.
    pub alive: bool,
    /// Every output the replica emitted.
    pub events: Vec<ShardedKvEvent>,
}

/// What the verdict checked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checked {
    /// Replica slot pairs compared.
    pub slots: u64,
    /// Acknowledged puts found on every live replica.
    pub acked_puts: u64,
    /// Reads whose value was checked.
    pub reads: u64,
}

/// A log position: shard, slot, index within the slot's batch.
type Pos = (u32, u64, usize);

/// One replica's puts, by slot.
struct Applied {
    slots: BTreeMap<(u32, u64), Vec<(u64, bool)>>,
    /// Per shard, the highest installed snapshot watermark.
    watermark: HashMap<u32, u64>,
}

fn collect(stream: &ReplicaStream, client: ClientId, cmds: &[CmdView]) -> Applied {
    let mut slots: BTreeMap<(u32, u64), Vec<(u64, bool)>> = BTreeMap::new();
    let mut watermark: HashMap<u32, u64> = HashMap::new();
    for ev in &stream.events {
        match ev {
            ShardedKvEvent::Applied {
                shard,
                slot,
                client: c,
                seq,
                response,
            } if *c == client => {
                let is_put = cmd(cmds, *seq).is_some_and(|c| !c.read);
                if is_put {
                    let effective = !matches!(response, KvResponse::Duplicate);
                    let puts = slots.entry((shard.0, *slot)).or_default();
                    // A restarted incarnation may apply a slot again.
                    if !puts.iter().any(|(s, _)| s == seq) {
                        puts.push((*seq, effective));
                    }
                }
            }
            ShardedKvEvent::SnapshotInstalled {
                shard,
                watermark: w,
            } => {
                let e = watermark.entry(shard.0).or_default();
                *e = (*e).max(*w);
            }
            _ => {}
        }
    }
    Applied { slots, watermark }
}

fn cmd(cmds: &[CmdView], seq: u64) -> Option<&CmdView> {
    let i = usize::try_from(seq.checked_sub(1)?).ok()?;
    cmds.get(i).filter(|c| c.seq == seq)
}

fn covered(a: &Applied, shard: u32, slot: u64) -> bool {
    a.watermark.get(&shard).is_some_and(|w| slot < *w)
}

/// Checks one run. `cmds[i]` must be the command with seq `i + 1`.
///
/// # Errors
///
/// Returns every violation found (capped), each as one line.
pub fn check(
    client: ClientId,
    cmds: &[CmdView],
    replicas: &[ReplicaStream],
) -> Result<Checked, Vec<String>> {
    const CAP: usize = 20;
    let mut bad: Vec<String> = Vec::new();
    let mut checked = Checked::default();
    let applied: Vec<Applied> = replicas.iter().map(|r| collect(r, client, cmds)).collect();

    // 1. Agreement on common slots; completeness among live replicas.
    for (i, a) in applied.iter().enumerate() {
        for (j, b) in applied.iter().enumerate().skip(i + 1) {
            for (key, puts) in &a.slots {
                match b.slots.get(key) {
                    Some(other) if other != puts => bad.push(format!(
                        "replicas {} and {} disagree on shard {} slot {}: {:?} vs {:?}",
                        replicas[i].node, replicas[j].node, key.0, key.1, puts, other
                    )),
                    Some(_) => checked.slots += 1,
                    None => {}
                }
            }
        }
    }
    for (i, a) in applied.iter().enumerate() {
        for (j, b) in applied.iter().enumerate() {
            if i == j || !replicas[i].alive || !replicas[j].alive {
                continue;
            }
            for key in a.slots.keys() {
                if !b.slots.contains_key(key) && !covered(b, key.0, key.1) {
                    bad.push(format!(
                        "live replica {} never applied shard {} slot {} (applied by {})",
                        replicas[j].node, key.0, key.1, replicas[i].node
                    ));
                }
            }
        }
    }

    // Effective position of every applied put (union over replicas; the
    // agreement check above makes it unambiguous).
    let mut pos: HashMap<u64, Pos> = HashMap::new();
    for a in &applied {
        for (&(shard, slot), puts) in &a.slots {
            for (idx, &(seq, effective)) in puts.iter().enumerate() {
                if effective {
                    pos.entry(seq).or_insert((shard, slot, idx));
                }
            }
        }
    }

    // 2. Acknowledged puts are durable on every survivor.
    for c in cmds.iter().filter(|c| !c.read && c.acked.is_some()) {
        let Some(&(shard, slot, _)) = pos.get(&c.seq) else {
            bad.push(format!(
                "acknowledged put seq {} was never applied (reply {:?})",
                c.seq, c.response
            ));
            continue;
        };
        for (r, a) in replicas.iter().zip(&applied) {
            let held = a
                .slots
                .get(&(shard, slot))
                .is_some_and(|p| p.iter().any(|(s, _)| *s == c.seq));
            if r.alive && !held && !covered(a, shard, slot) {
                bad.push(format!(
                    "acknowledged put seq {} missing on live replica {}",
                    c.seq, r.node
                ));
            }
        }
        checked.acked_puts += 1;
    }

    // 3. Reads see the latest acknowledged put, or a newer one.
    let mut puts_by_key: HashMap<u32, Vec<(Pos, u64)>> = HashMap::new();
    for c in cmds.iter().filter(|c| !c.read) {
        if let (Some(acked), Some(p)) = (c.acked, pos.get(&c.seq)) {
            puts_by_key.entry(c.key).or_default().push((*p, acked));
        }
    }
    for c in cmds.iter().filter(|c| c.read) {
        let (Some(done), Some(KvResponse::Value { value })) = (c.acked, &c.response) else {
            continue;
        };
        checked.reads += 1;
        let floor = puts_by_key
            .get(&c.key)
            .into_iter()
            .flatten()
            .filter(|(_, acked)| *acked < c.issued)
            .map(|(p, _)| *p)
            .max();
        let ok = match value.as_deref().map(seq_of_value) {
            None => floor.is_none(),
            Some(None) => false,
            Some(Some(w)) => match (cmd(cmds, w), pos.get(&w)) {
                (Some(writer), Some(p)) => {
                    !writer.read
                        && writer.key == c.key
                        && writer.issued <= done
                        && floor.is_none_or(|f| *p >= f)
                }
                _ => false,
            },
        };
        if !ok {
            bad.push(format!(
                "read seq {} of key {} returned {:?}; latest acknowledged put at issue is at {:?}",
                c.seq, c.key, value, floor
            ));
        }
    }

    if bad.is_empty() {
        Ok(checked)
    } else {
        bad.truncate(CAP);
        Err(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus::shard::ShardId;

    const CLIENT: ClientId = ClientId(1);

    fn put(seq: u64, key: u32, issued: u64, acked: u64) -> CmdView {
        CmdView {
            seq,
            key,
            read: false,
            issued,
            acked: Some(acked),
            response: Some(KvResponse::Applied { previous: None }),
        }
    }

    fn read(seq: u64, key: u32, issued: u64, acked: u64, saw: Option<u64>) -> CmdView {
        CmdView {
            seq,
            key,
            read: true,
            issued,
            acked: Some(acked),
            response: Some(KvResponse::Value {
                value: saw.map(|s| value_for(s, 64)),
            }),
        }
    }

    fn applied(slot: u64, seq: u64) -> ShardedKvEvent {
        ShardedKvEvent::Applied {
            shard: ShardId(0),
            slot,
            client: CLIENT,
            seq,
            response: KvResponse::Applied { previous: None },
        }
    }

    fn stream(node: u32, alive: bool, events: Vec<ShardedKvEvent>) -> ReplicaStream {
        ReplicaStream {
            node,
            alive,
            events,
        }
    }

    fn healthy() -> (Vec<CmdView>, Vec<ReplicaStream>) {
        let cmds = vec![
            put(1, 7, 0, 10),
            put(2, 7, 20, 30),
            read(3, 7, 40, 50, Some(2)),
        ];
        let log = vec![applied(0, 1), applied(1, 2)];
        let replicas = (0..3).map(|n| stream(n, true, log.clone())).collect();
        (cmds, replicas)
    }

    #[test]
    fn values_round_trip_their_seq() {
        let v = value_for(42, 64);
        assert_eq!(v.len(), 64);
        assert_eq!(seq_of_value(&v), Some(42));
        assert_eq!(seq_of_value("short"), None);
    }

    #[test]
    fn a_healthy_run_passes() {
        let (cmds, replicas) = healthy();
        let checked = check(CLIENT, &cmds, &replicas).expect("healthy run");
        assert_eq!(checked.acked_puts, 2);
        assert_eq!(checked.reads, 1);
    }

    /// Negative control: a reply stream doctored to drop one acknowledged
    /// put from a survivor must trip the verdict.
    #[test]
    fn a_dropped_acked_put_trips_the_verdict() {
        let (cmds, mut replicas) = healthy();
        replicas[2].events.remove(1);
        let errors = check(CLIENT, &cmds, &replicas).expect_err("must trip");
        assert!(
            errors.iter().any(|e| e.contains("seq 2 missing")),
            "{errors:?}"
        );
    }

    #[test]
    fn a_dead_replica_may_lag_but_not_disagree() {
        let (cmds, mut replicas) = healthy();
        replicas[0].alive = false;
        replicas[0].events.truncate(1);
        assert!(check(CLIENT, &cmds, &replicas).is_ok());
        replicas[0].events = vec![applied(0, 2)];
        let errors = check(CLIENT, &cmds, &replicas).expect_err("must trip");
        assert!(errors.iter().any(|e| e.contains("disagree")), "{errors:?}");
    }

    #[test]
    fn a_stale_read_trips_the_verdict() {
        let (mut cmds, replicas) = healthy();
        cmds[2] = read(3, 7, 40, 50, Some(1));
        let errors = check(CLIENT, &cmds, &replicas).expect_err("must trip");
        assert!(
            errors.iter().any(|e| e.contains("read seq 3")),
            "{errors:?}"
        );
    }

    #[test]
    fn a_read_may_see_an_unacknowledged_put() {
        let (mut cmds, replicas) = healthy();
        // The read overlaps put 2: issued before put 2 was acknowledged.
        cmds[2] = read(3, 7, 25, 50, Some(2));
        assert!(check(CLIENT, &cmds, &replicas).is_ok());
        cmds[2] = read(3, 7, 25, 50, Some(1));
        assert!(check(CLIENT, &cmds, &replicas).is_ok());
    }

    #[test]
    fn an_empty_read_after_an_ack_trips_the_verdict() {
        let (mut cmds, replicas) = healthy();
        cmds[2] = read(3, 7, 40, 50, None);
        assert!(check(CLIENT, &cmds, &replicas).is_err());
    }

    #[test]
    fn a_put_acknowledged_only_as_duplicate_is_a_lost_write() {
        let (mut cmds, mut replicas) = healthy();
        cmds[1].response = Some(KvResponse::Duplicate);
        for r in &mut replicas {
            r.events[1] = ShardedKvEvent::Applied {
                shard: ShardId(0),
                slot: 1,
                client: CLIENT,
                seq: 2,
                response: KvResponse::Duplicate,
            };
        }
        let errors = check(CLIENT, &cmds, &replicas).expect_err("must trip");
        assert!(
            errors.iter().any(|e| e.contains("never applied")),
            "{errors:?}"
        );
    }
}
