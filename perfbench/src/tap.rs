//! The reply tap: a transparent [`Sm`] wrapper around one
//! [`ShardedKvNode`], written in the style of `KvReplica::drive`.
//!
//! Every send, timer command and output of the wrapped node is forwarded
//! unchanged and in order. On the side, the tap pushes [`Note`]s to the
//! client channel: every `Leader` announcement, and the `Applied` reply of
//! each request this node received. With [`NodeCounters`] attached it
//! counts `Applied` outputs and received Ω heartbeats. With a [`Recorder`]
//! attached (traced runs only) it also times each stimulus and records
//! per-link send and receive instants for transit pairing.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::Instant as StdInstant;

use consensus::shard::{classify_shard_msg, ShardMsg};
use consensus::{Entry, RsmMsg};
use kvstore::{ClientId, KvCmd, ShardedKvEvent, ShardedKvNode, Tagged};
use lls_primitives::{Ctx, Effects, Env, ProcessId, Sm, TimerCmd, TimerId};
use omega::OmegaMsg;

/// The node message type.
pub type Msg = ShardMsg<Tagged<KvCmd>>;

/// One reply-channel note: which node emitted which event.
#[derive(Debug, Clone)]
pub struct Note {
    /// The emitting node.
    pub node: ProcessId,
    /// The event, exactly as the node output it.
    pub event: ShardedKvEvent,
}

/// What a span links to: the commands a message carries, or the
/// (shard, slot) it concerns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Link {
    /// No link (timers, Ω traffic).
    None,
    /// Client command ids `(client, seq)` carried by the stimulus.
    Cmds(Vec<(u64, u64)>),
    /// A consensus slot of one shard.
    Slot(u32, u64),
}

/// One timed stimulus of a node's state machine.
#[derive(Debug, Clone)]
pub struct SmSpan {
    /// The delivered message's kind (`ACCEPT`, …), or `request`,
    /// `request.read`, `timer`; reported as `sm.<name>`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start: u64,
    /// End, ns since the recorder's epoch.
    pub end: u64,
    /// What the stimulus carried.
    pub link: Link,
}

/// Everything one node's tap recorded, published when the tap is dropped
/// (that is, when the node's protocol thread ends).
#[derive(Debug, Clone, Default)]
pub struct NodeTrace {
    /// The node.
    pub node: u32,
    /// Stimulus spans while armed.
    pub spans: Vec<SmSpan>,
    /// Per peer: `(send index, ns, kind)` of each send while armed.
    pub sends: Vec<Vec<(u64, u64, &'static str)>>,
    /// Per peer: `(receive index, ns)` of each delivery while armed.
    pub recvs: Vec<Vec<(u64, u64)>>,
    /// Sends by kind while armed.
    pub sent_kinds: BTreeMap<&'static str, u64>,
    /// Sends by kind over the whole run.
    pub sent_kinds_all: BTreeMap<&'static str, u64>,
    /// A few messages of each kind sent while armed (codec timing input).
    pub samples: BTreeMap<&'static str, Vec<Msg>>,
    /// Distinct `(shard, slot)` this node sent `Accept`s for while armed,
    /// with the number of commands each carried.
    pub accept_slots: BTreeMap<(u32, u64), usize>,
}

/// Messages kept per kind for codec timing.
const SAMPLES_PER_KIND: usize = 64;

/// The tracing side of a tap: records while `armed` is set.
#[derive(Debug)]
pub struct Recorder {
    armed: Arc<AtomicBool>,
    epoch: StdInstant,
    sink: Arc<Mutex<Vec<NodeTrace>>>,
    send_idx: Vec<u64>,
    recv_idx: Vec<u64>,
    local: NodeTrace,
}

impl Recorder {
    /// A recorder for node `node` of `n`, publishing into `sink` on drop.
    pub fn new(
        node: ProcessId,
        n: usize,
        armed: Arc<AtomicBool>,
        epoch: StdInstant,
        sink: Arc<Mutex<Vec<NodeTrace>>>,
    ) -> Self {
        Recorder {
            armed,
            epoch,
            sink,
            send_idx: vec![0; n],
            recv_idx: vec![0; n],
            local: NodeTrace {
                node: node.0,
                sends: vec![Vec::new(); n],
                recvs: vec![Vec::new(); n],
                ..NodeTrace::default()
            },
        }
    }

    fn ns(&self, at: StdInstant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        let trace = std::mem::take(&mut self.local);
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(trace);
        }
    }
}

/// The `(client, seq)` ids an entry carries.
fn entry_ids(entry: &Entry<Tagged<KvCmd>>) -> Vec<(u64, u64)> {
    match entry {
        Entry::Noop => Vec::new(),
        Entry::Cmd(c) => vec![(c.client.0, c.seq)],
        Entry::Batch(cs) => cs.iter().map(|c| (c.client.0, c.seq)).collect(),
    }
}

/// Span link of a message: carried commands for Accept/Decide, the slot
/// for other slot-bound consensus traffic.
fn msg_link(msg: &Msg) -> Link {
    let ShardMsg::Rsm { shard, msg } = msg else {
        return Link::None;
    };
    match msg {
        RsmMsg::Accept { entry, .. } | RsmMsg::Decide { entry, .. } => Link::Cmds(entry_ids(entry)),
        RsmMsg::Accepted { slot, .. } | RsmMsg::DecideAck { slot } => Link::Slot(shard.0, *slot),
        _ => Link::None,
    }
}

/// Every kind `classify_shard_msg` can return.
pub const MSG_KINDS: [&str; 17] = [
    "ALIVE",
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
    "READ_INDEX_REPLY",
];

/// Counts a tap keeps for the harness, read while the cluster runs.
#[derive(Debug, Default)]
pub struct NodeCounters {
    /// `Applied` outputs, so the harness can tell when the node has gone
    /// quiet.
    pub applied: AtomicU64,
    /// Ω `ALIVE` heartbeats received, so the harness can tell when the
    /// node has heard from its leader.
    pub heartbeats: AtomicU64,
}

/// A transparent wrapper around one [`ShardedKvNode`].
#[derive(Debug)]
pub struct Tap {
    inner: ShardedKvNode,
    notes: Sender<Note>,
    /// Requests this node received and has not yet answered: the reply to
    /// each comes from the node the client asked.
    asked: HashSet<(ClientId, u64)>,
    rec: Option<Recorder>,
    counters: Option<Arc<NodeCounters>>,
}

impl Tap {
    /// Wraps `inner`; notes go to `notes`, stimuli are timed when `rec` is
    /// given.
    pub fn new(inner: ShardedKvNode, notes: Sender<Note>, rec: Option<Recorder>) -> Self {
        Tap {
            inner,
            notes,
            asked: HashSet::new(),
            rec,
            counters: None,
        }
    }

    /// Counts `Applied` outputs and received heartbeats into `counters`.
    pub fn with_counters(mut self, counters: Arc<NodeCounters>) -> Self {
        self.counters = Some(counters);
        self
    }

    /// Runs one step of the wrapped node into a private effect buffer, then
    /// forwards every effect unchanged and emits the notes.
    fn drive(
        &mut self,
        ctx: &mut Ctx<'_, Msg, ShardedKvEvent>,
        span: Option<(&'static str, Link)>,
        step: impl FnOnce(&mut ShardedKvNode, &mut Ctx<'_, Msg, ShardedKvEvent>),
    ) {
        let armed = self
            .rec
            .as_ref()
            .is_some_and(|r| r.armed.load(Ordering::Relaxed));
        let start = armed.then(StdInstant::now);
        let env = Env::new(ctx.id(), ctx.n());
        let mut fx = Effects::new();
        {
            let mut ictx = Ctx::new(&env, ctx.now(), &mut fx);
            step(&mut self.inner, &mut ictx);
        }
        if let Some(rec) = self.rec.as_mut() {
            let end = StdInstant::now();
            if let (Some(start), Some((name, link))) = (start, span) {
                let (start, end) = (rec.ns(start), rec.ns(end));
                rec.local.spans.push(SmSpan {
                    name,
                    start,
                    end,
                    link,
                });
            }
            let at = rec.ns(end);
            for s in &fx.sends {
                let to = s.to.as_usize();
                let kind = classify_shard_msg(&s.msg);
                *rec.local.sent_kinds_all.entry(kind).or_default() += 1;
                let idx = rec.send_idx[to];
                rec.send_idx[to] += 1;
                if armed {
                    rec.local.sends[to].push((idx, at, kind));
                    *rec.local.sent_kinds.entry(kind).or_default() += 1;
                    let samples = rec.local.samples.entry(kind).or_default();
                    if samples.len() < SAMPLES_PER_KIND {
                        samples.push(s.msg.clone());
                    }
                    if let ShardMsg::Rsm {
                        shard,
                        msg: RsmMsg::Accept { slot, entry, .. },
                    } = &s.msg
                    {
                        rec.local
                            .accept_slots
                            .insert((shard.0, *slot), entry_ids(entry).len());
                    }
                }
            }
        }
        for s in fx.sends {
            ctx.send(s.to, s.msg);
        }
        for cmd in fx.timers {
            match cmd {
                TimerCmd::Set { timer, after } => ctx.set_timer(timer, after),
                TimerCmd::Cancel { timer } => ctx.cancel_timer(timer),
            }
        }
        for out in fx.outputs {
            if let (Some(c), ShardedKvEvent::Applied { .. }) = (&self.counters, &out) {
                c.applied.fetch_add(1, Ordering::Relaxed);
            }
            let wanted = match &out {
                ShardedKvEvent::Leader(_) => true,
                ShardedKvEvent::Applied { client, seq, .. } => self.asked.remove(&(*client, *seq)),
                ShardedKvEvent::SnapshotInstalled { .. } => false,
            };
            if wanted {
                // A gone client only means nobody listens any more.
                let _ = self.notes.send(Note {
                    node: ctx.id(),
                    event: out.clone(),
                });
            }
            ctx.output(out);
        }
    }
}

impl Sm for Tap {
    type Msg = Msg;
    type Output = ShardedKvEvent;
    type Request = Tagged<KvCmd>;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>) {
        self.drive(ctx, None, |node, ictx| node.on_start(ictx));
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Output>,
        from: ProcessId,
        msg: Self::Msg,
    ) {
        if let (Some(c), ShardMsg::Omega(OmegaMsg::Alive { .. })) = (&self.counters, &msg) {
            c.heartbeats.fetch_add(1, Ordering::Relaxed);
        }
        let span = match self.rec.as_mut() {
            Some(rec) => {
                let f = from.as_usize();
                let idx = rec.recv_idx[f];
                rec.recv_idx[f] += 1;
                if rec.armed.load(Ordering::Relaxed) {
                    let at = rec.ns(StdInstant::now());
                    rec.local.recvs[f].push((idx, at));
                    Some((classify_shard_msg(&msg), msg_link(&msg)))
                } else {
                    None
                }
            }
            None => None,
        };
        self.drive(ctx, span, |node, ictx| node.on_message(ictx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, timer: TimerId) {
        let span = self.rec.as_ref().map(|_| ("timer", Link::None));
        self.drive(ctx, span, |node, ictx| node.on_timer(ictx, timer));
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, req: Self::Request) {
        self.asked.insert((req.client, req.seq));
        let span = self.rec.as_ref().map(|_| {
            let name = if req.cmd.is_read() {
                "request.read"
            } else {
                "request"
            };
            (name, Link::Cmds(vec![(req.client.0, req.seq)]))
        });
        self.drive(ctx, span, |node, ictx| node.on_request(ictx, req));
    }
}
