//! The cluster and the client that drives it.
//!
//! A [`Cluster`] is an n=3 `wirenet` cluster of [`ShardedKvNode`]s on
//! loopback, each behind a [`Tap`], with file-backed WALs and snapshot
//! stores in a fresh directory. One [`Client`] on the calling thread feeds
//! it through [`WireCluster::request`] and a [`ShardedSubmitQueue`], and
//! reads replies from the taps' note channel. All client timestamps are
//! taken on the client thread's monotonic clock.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration as StdDuration, Instant as StdInstant};

use consensus::shard::{PlacementManager, PlacementMap, ShardId};
use consensus::{BatchParams, ConsensusParams, LeaseParams};
use kvstore::{
    ClientId, KvCmd, KvResponse, ShardedKvEvent, ShardedKvNode, ShardedSubmitQueue, Tagged,
};
use lls_primitives::{Env, FileSnapshotStore, FileWal, ProcessId, SnapshotHandle, StorageHandle};
use wirenet::{BackoffConfig, ClusterReport, WireCluster, WireConfig};

use crate::store::{StoreRecorder, StoreSpan, TimedSnapshots, TimedStorage};
use crate::tap::{NodeCounters, NodeTrace, Note, Recorder, Tap};
use crate::verdict::{value_for, CmdView};

/// Replicas per cluster.
pub const N: usize = 3;
/// Distinct keys; each command picks one uniformly.
pub const KEYS: u32 = 10_000;
/// Bytes per value.
pub const VALUE_LEN: usize = 64;
/// The benchmark's one client session.
pub const CLIENT: ClientId = ClientId(1);
/// Retry backoff base of the submit queue, in client ticks (1 ms).
const RETRY_BASE_TICKS: u64 = 50;
/// A read unanswered this long is sent again, and again after twice as
/// long each time (at most 2^5 times as long). A leader that is not
/// established parks reads and relies on the client to re-issue them;
/// reads are idempotent, so re-sending one is always safe.
const READ_RETRY: StdDuration = StdDuration::from_millis(200);
/// At most this many reads are re-sent per second, so a long outage does
/// not end in a retry storm against the new leader.
const READ_RETRY_BUDGET: u64 = 2000;
/// Commands an open-loop client keeps released per shard. Healthy runs
/// stay far below it; during an outage it bounds what the client has
/// outstanding at the servers, and later arrivals wait at the client (and
/// are timed from when they were due).
const OPEN_LOOP_WINDOW: usize = 1024;

/// The 16-byte name of key `k`.
pub fn key_name(k: u32) -> String {
    format!("key-{k:012}")
}

/// How the client offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Keep `window` commands in flight; all puts.
    Closed {
        /// Commands in flight.
        window: usize,
    },
    /// Poisson arrivals at `rate` per second, a `read_frac` share reads.
    Open {
        /// Mean arrivals per second.
        rate: f64,
        /// Share of reads in `[0, 1]`.
        read_frac: f64,
    },
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// CLI name.
    pub name: &'static str,
    /// Shard groups.
    pub shards: u32,
    /// Batching knobs of every group.
    pub batch: BatchParams,
    /// Leader leases (the fast read path).
    pub lease: bool,
    /// Compact a shard after this many applied commands (0 = never).
    pub compact_every: u64,
    /// The offered load.
    pub load: Load,
    /// Kill the leader inside the measured window (at this share of it)
    /// rather than after it.
    pub kill_in_window: Option<f64>,
}

const BATCHED: BatchParams = BatchParams {
    max_batch: 32,
    pipeline_depth: 8,
};

/// Every workload, in `BENCHMARK.json` order.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "put-w1",
            shards: 1,
            batch: BatchParams {
                max_batch: 1,
                pipeline_depth: 32,
            },
            lease: false,
            compact_every: 0,
            load: Load::Closed { window: 1 },
            kill_in_window: None,
        },
        Workload {
            name: "put-w256",
            shards: 1,
            batch: BATCHED,
            lease: false,
            compact_every: 10_000,
            load: Load::Closed { window: 256 },
            kill_in_window: None,
        },
        Workload {
            name: "mixed-s4-open",
            shards: 4,
            batch: BATCHED,
            lease: true,
            compact_every: 0,
            load: Load::Open {
                rate: 20_000.0,
                read_frac: 0.9,
            },
            kill_in_window: None,
        },
        Workload {
            name: "failover-open",
            shards: 1,
            batch: BATCHED,
            lease: false,
            compact_every: 0,
            load: Load::Open {
                rate: 2_000.0,
                read_frac: 0.0,
            },
            kill_in_window: Some(0.6),
        },
    ]
}

/// splitmix64: the benchmark's seeded input generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % u64::from(n)) as u32
    }
}

/// Tracing state shared by every tap and storage wrapper of a cluster.
#[derive(Debug, Clone)]
pub struct TraceShared {
    /// Recording happens only while set.
    pub armed: Arc<AtomicBool>,
    /// Node traces, published as each node's protocol thread ends.
    pub nodes: Arc<Mutex<Vec<NodeTrace>>>,
    /// Storage spans.
    pub store: StoreRecorder,
}

impl TraceShared {
    /// Fresh, disarmed tracing state with time origin `epoch`.
    pub fn new(epoch: StdInstant) -> Self {
        let armed = Arc::new(AtomicBool::new(false));
        TraceShared {
            armed: Arc::clone(&armed),
            nodes: Arc::new(Mutex::new(Vec::new())),
            store: StoreRecorder {
                armed,
                epoch,
                spans: Arc::new(Mutex::new(Vec::new())),
            },
        }
    }

    /// Storage spans recorded so far.
    pub fn store_spans(&self) -> Vec<StoreSpan> {
        self.store
            .spans
            .lock()
            .map(|s| s.clone())
            .unwrap_or_default()
    }
}

/// Builds each node of a cluster: its storage under the cluster's
/// directory, its [`ShardedKvNode`] and its [`Tap`].
struct NodeMaker {
    params: ConsensusParams,
    shards: u32,
    compact_every: u64,
    root: PathBuf,
    trace: Option<TraceShared>,
    notes: Sender<Note>,
    /// Per node, what its taps counted so far (all incarnations).
    counters: Vec<Arc<NodeCounters>>,
}

impl NodeMaker {
    /// Opens (or, after a kill, recovers) node `env`'s storage and wraps
    /// the node in a tap. Only first incarnations are traced.
    fn make(&self, env: &Env, traced: bool) -> Result<Tap, String> {
        let me = env.id().0;
        let node_dir = self.root.join(format!("n{me}"));
        std::fs::create_dir_all(&node_dir)
            .map_err(|e| format!("create {}: {e}", node_dir.display()))?;
        let trace = self.trace.as_ref().filter(|_| traced);
        let rec = trace.map(|t| t.store.clone());
        let wal = |name: String| -> Result<StorageHandle, String> {
            let file = FileWal::open(node_dir.join(&name)).map_err(|e| format!("{name}: {e}"))?;
            Ok(StorageHandle::new(TimedStorage::new(file, me, rec.clone())))
        };
        let mut stores = BTreeMap::new();
        let mut snaps = BTreeMap::new();
        for s in 0..self.shards {
            stores.insert(ShardId(s), wal(format!("shard{s}.wal"))?);
            let snap = FileSnapshotStore::open(node_dir.join(format!("snap{s}")))
                .map_err(|e| format!("snapshots of shard {s}: {e}"))?;
            snaps.insert(
                ShardId(s),
                SnapshotHandle::new(TimedSnapshots::new(snap, me, rec.clone())),
            );
        }
        let placement = PlacementManager::with_all_attached(PlacementMap::uniform(self.shards, N));
        let mut node = ShardedKvNode::with_storage_and_snapshots(
            env,
            self.params,
            placement,
            &stores,
            &snaps,
            wal("omega.wal".to_owned())?,
        )
        .map_err(|e| format!("recover node {me}: {e}"))?;
        node.set_compact_every(self.compact_every);
        let recorder = trace.map(|t| {
            Recorder::new(
                env.id(),
                N,
                Arc::clone(&t.armed),
                t.store.epoch,
                Arc::clone(&t.nodes),
            )
        });
        Ok(Tap::new(node, self.notes.clone(), recorder)
            .with_counters(Arc::clone(&self.counters[me as usize])))
    }
}

/// A running cluster plus its reply channel.
pub struct Cluster {
    /// The sockets-and-threads cluster.
    pub wc: WireCluster<Tap>,
    /// Notes from every tap.
    pub notes: Receiver<Note>,
    maker: NodeMaker,
}

/// Spawns a cluster for `w` with storage under `dir`. With `trace`, taps
/// and storage record while it is armed.
///
/// # Errors
///
/// Fails if the directory, a node's storage or a listener cannot be
/// created.
pub fn spawn(w: &Workload, dir: &Path, trace: Option<&TraceShared>) -> Result<Cluster, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let config = WireConfig {
        n: N,
        tick: StdDuration::from_millis(1),
        queue_capacity: 1024,
        backoff: BackoffConfig::default(),
        faults: None,
    };
    let (tx, rx) = mpsc::channel();
    let maker = NodeMaker {
        params: ConsensusParams {
            batch: w.batch,
            lease: if w.lease {
                LeaseParams::enabled()
            } else {
                LeaseParams::default()
            },
            ..ConsensusParams::default()
        },
        shards: w.shards,
        compact_every: w.compact_every,
        root: dir.to_path_buf(),
        trace: trace.cloned(),
        notes: tx,
        counters: (0..N).map(|_| Arc::new(NodeCounters::default())).collect(),
    };
    let mut nodes = (0..N)
        .map(|i| maker.make(&Env::new(ProcessId(i as u32), N), true))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter();
    let wc = WireCluster::try_spawn(config, |_| nodes.next().expect("one node per process"))
        .map_err(|e| format!("spawn cluster: {e}"))?;
    Ok(Cluster {
        wc,
        notes: rx,
        maker,
    })
}

impl Cluster {
    /// Restarts killed node `p` from the storage its last incarnation
    /// wrote.
    ///
    /// # Errors
    ///
    /// Fails if the storage cannot be recovered or the address re-bound.
    pub fn restart(&mut self, p: ProcessId) -> Result<(), String> {
        let tap = self.maker.make(&Env::new(p, N), false)?;
        self.wc
            .restart(p, tap)
            .map_err(|e| format!("restart {p}: {e}"))
    }

    /// Waits until every node but `leader` has received an Ω heartbeat.
    ///
    /// # Errors
    ///
    /// Fails after `limit`.
    pub fn await_heartbeats(&self, leader: ProcessId, limit: StdDuration) -> Result<(), String> {
        let deadline = StdInstant::now() + limit;
        let heard =
            || {
                self.maker.counters.iter().enumerate().all(|(i, c)| {
                    i == leader.as_usize() || c.heartbeats.load(Ordering::Relaxed) > 0
                })
            };
        while !heard() {
            if StdInstant::now() >= deadline {
                return Err(format!(
                    "followers of {leader} heard no heartbeat within {limit:?}"
                ));
            }
            std::thread::sleep(StdDuration::from_micros(100));
        }
        Ok(())
    }

    /// Waits until no node has applied anything for `quiet`, or `limit`
    /// has passed: followers finish applying what the leader decided.
    pub fn settle(&self, quiet: StdDuration, limit: StdDuration) {
        let counts = || -> Vec<u64> {
            self.maker
                .counters
                .iter()
                .map(|c| c.applied.load(Ordering::Relaxed))
                .collect()
        };
        let deadline = StdInstant::now() + limit;
        let mut last = counts();
        let mut since = StdInstant::now();
        while StdInstant::now() < deadline && since.elapsed() < quiet {
            std::thread::sleep(StdDuration::from_millis(10));
            let now = counts();
            if now != last {
                last = now;
                since = StdInstant::now();
            }
        }
    }

    /// Stops every node and removes the storage directory.
    pub fn stop(self) -> ClusterReport<ShardedKvEvent> {
        let report = self.wc.stop();
        let _ = std::fs::remove_dir_all(&self.maker.root);
        report
    }
}

/// The run phase a command was issued in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// The setup put.
    Setup,
    /// Load before the measured window.
    Warmup,
    /// The measured window (untraced).
    Window,
    /// The measured window (traced half of a traced run).
    Traced,
    /// Load around the end-of-run leader kill.
    Failover,
    /// Closing verification reads.
    Verify,
}

/// The client's record of one command. Times are ns since the run epoch;
/// 0 means "not yet".
#[derive(Debug, Clone)]
pub struct Rec {
    /// Key index.
    pub key: u32,
    /// A read.
    pub read: bool,
    /// Phase it was issued in.
    pub phase: Phase,
    /// When it was due (open loop) or submitted (closed loop).
    pub due: u64,
    /// When the client submitted it.
    pub submit: u64,
    /// When the submit queue released it to the transport.
    pub release: u64,
    /// When its reply arrived.
    pub reply: u64,
    /// The reply.
    pub response: Option<KvResponse>,
}

/// What the client saw of one leader kill.
#[derive(Debug, Clone, Copy, Default)]
pub struct Failover {
    /// When the kill was issued.
    pub killed_at: u64,
    /// The killed node.
    pub victim: u32,
    /// When every survivor first named the same new leader.
    pub agreed_at: Option<u64>,
    /// When the first put acknowledged by a survivor arrived.
    pub first_ack: Option<u64>,
}

/// The single client session.
pub struct Client {
    epoch: StdInstant,
    /// Every command, `cmds[seq - 1]`.
    pub cmds: Vec<Rec>,
    queue: ShardedSubmitQueue,
    leaders: Vec<Option<ProcessId>>,
    alive: Vec<bool>,
    target: Option<ProcessId>,
    /// The last leader every live node agreed on (kept across a kill).
    last_agreed: Option<ProcessId>,
    rng: Rng,
    next_due: Option<u64>,
    ticks_done: u64,
    /// Released reads by retry deadline: `(deadline, seq, attempt)`.
    read_timers: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Earliest time the retry budget allows the next read re-send.
    next_read_retry: u64,
    /// Commands re-sent after a leader change or a retry timeout.
    pub retries: u64,
    /// Agreed-leader changes seen after the first agreement.
    pub leader_changes: u64,
    /// The leader kill, once issued.
    pub failover: Option<Failover>,
}

impl Client {
    /// A client for `w` whose clock counts from `epoch`.
    pub fn new(w: &Workload, epoch: StdInstant, seed: u64) -> Self {
        let window = match w.load {
            Load::Closed { window } => window,
            Load::Open { .. } => OPEN_LOOP_WINDOW,
        };
        let mut queue = ShardedSubmitQueue::new(PlacementMap::uniform(w.shards, N), window);
        queue.set_retry_backoff(RETRY_BASE_TICKS, seed);
        Client {
            epoch,
            cmds: Vec::new(),
            queue,
            leaders: vec![None; N],
            alive: vec![true; N],
            target: None,
            last_agreed: None,
            rng: Rng::new(seed),
            next_due: None,
            ticks_done: 0,
            read_timers: BinaryHeap::new(),
            next_read_retry: 0,
            retries: 0,
            leader_changes: 0,
            failover: None,
        }
    }

    /// Now, in ns since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The instant `ns` after the epoch.
    pub fn at(&self, ns: u64) -> StdInstant {
        self.epoch + StdDuration::from_nanos(ns)
    }

    /// The leader every live node currently names, if they agree.
    fn agreed(&self) -> Option<ProcessId> {
        let mut live = (0..N).filter(|&i| self.alive[i]).map(|i| self.leaders[i]);
        let first = live.next()??;
        (live.all(|l| l == Some(first)) && self.alive[first.as_usize()]).then_some(first)
    }

    /// Commands issued and not yet answered.
    pub fn in_flight(&self) -> usize {
        self.queue.queued_len() + self.queue.released_len()
    }

    /// Issues one command due at `due`.
    pub fn issue(&mut self, read: bool, due: u64, phase: Phase) {
        let key = self.rng.below(KEYS);
        let seq = self.cmds.len() as u64 + 1;
        let cmd = if read {
            KvCmd::read(key_name(key))
        } else {
            KvCmd::put(key_name(key), value_for(seq, VALUE_LEN))
        };
        let submit = self.now();
        self.cmds.push(Rec {
            key,
            read,
            phase,
            due,
            submit,
            release: 0,
            reply: 0,
            response: None,
        });
        self.queue.submit(Tagged {
            client: CLIENT,
            seq,
            cmd,
        });
    }

    /// Releases what the submit queue admits to the current leader.
    pub fn flush(&mut self, cl: &Cluster) {
        let Some(target) = self.target else {
            return;
        };
        for (_, burst) in self.queue.drain() {
            let now = self.now();
            for cmd in burst {
                if cmd.cmd.is_read() {
                    let deadline = now + READ_RETRY.as_nanos() as u64;
                    self.read_timers.push(Reverse((deadline, cmd.seq, 0)));
                }
                self.cmds[(cmd.seq - 1) as usize].release = now;
                cl.wc.request(target, cmd);
            }
        }
    }

    fn resend(&mut self, cl: &Cluster, cmds: Vec<Tagged<KvCmd>>) {
        let Some(target) = self.target else {
            return;
        };
        for cmd in cmds {
            self.retries += 1;
            cl.wc.request(target, cmd);
        }
    }

    /// Advances the submit queue's retry clock to the client clock (one
    /// tick per ms) and re-sends what comes due.
    fn tick(&mut self, cl: &Cluster) {
        let now = self.now();
        let budget_ns = 1_000_000_000 / READ_RETRY_BUDGET;
        while let Some(&Reverse((deadline, seq, attempt))) = self.read_timers.peek() {
            if deadline > now || self.target.is_none() {
                break;
            }
            let rec = &self.cmds[(seq - 1) as usize];
            if rec.reply > 0 {
                // Answered: a stale timer, dropped without using the budget.
                self.read_timers.pop();
                continue;
            }
            if self.next_read_retry > now {
                break;
            }
            self.next_read_retry = self.next_read_retry.max(now - budget_ns.min(now)) + budget_ns;
            self.read_timers.pop();
            let cmd = Tagged {
                client: CLIENT,
                seq,
                cmd: KvCmd::read(key_name(rec.key)),
            };
            self.resend(cl, vec![cmd]);
            let attempt = (attempt + 1).min(5);
            let next = now + ((READ_RETRY.as_nanos() as u64) << attempt);
            self.read_timers.push(Reverse((next, seq, attempt)));
        }
        let due_ticks = now / 1_000_000;
        while self.ticks_done < due_ticks {
            self.ticks_done += 1;
            for (_, again) in self.queue.on_tick() {
                self.resend(cl, again);
            }
        }
    }

    fn handle(&mut self, cl: &Cluster, note: Note) {
        match note.event {
            ShardedKvEvent::Leader(l) => {
                self.leaders[note.node.as_usize()] = Some(l);
                if let Some(leader) = self.agreed() {
                    if self.last_agreed.is_some_and(|l| l != leader) {
                        self.leader_changes += 1;
                    }
                    self.last_agreed = Some(leader);
                    if self.target != Some(leader) {
                        self.target = Some(leader);
                        if let Some(f) = self.failover.as_mut() {
                            f.agreed_at
                                .get_or_insert(self.epoch.elapsed().as_nanos() as u64);
                        }
                        // Re-send what the old leader held, release what
                        // queued while there was none, then arm the retry
                        // backstop over everything now in flight (a new
                        // leader may park requests until it is established).
                        let outstanding: Vec<_> = self
                            .queue
                            .outstanding()
                            .into_iter()
                            .flat_map(|(_, c)| c)
                            .collect();
                        self.resend(cl, outstanding);
                        self.flush(cl);
                        self.queue.on_leader_change();
                    }
                }
            }
            ShardedKvEvent::Applied {
                client,
                seq,
                response,
                ..
            } => {
                if self.queue.settle(client, seq, &response).is_some() {
                    let now = self.now();
                    let rec = &mut self.cmds[(seq - 1) as usize];
                    rec.reply = now;
                    let is_put = !rec.read;
                    rec.response = Some(response);
                    if let Some(f) = self.failover.as_mut() {
                        if is_put && f.first_ack.is_none() && note.node.0 != f.victim {
                            f.first_ack = Some(now);
                        }
                    }
                }
            }
            ShardedKvEvent::SnapshotInstalled { .. } => {}
        }
    }

    /// Handles notes until `until` or until at least one arrived.
    pub fn poll(&mut self, cl: &Cluster, until: StdInstant) {
        self.tick(cl);
        let wait = until.saturating_duration_since(StdInstant::now());
        match cl.notes.recv_timeout(wait) {
            Ok(note) => self.handle(cl, note),
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => return,
        }
        self.poll_now(cl);
    }

    /// Handles the notes already queued, without waiting; at most a bounded
    /// number, so a flood of notes cannot starve the caller's deadlines.
    fn poll_now(&mut self, cl: &Cluster) {
        for _ in 0..4096 {
            match cl.notes.try_recv() {
                Ok(note) => self.handle(cl, note),
                Err(_) => return,
            }
        }
    }

    /// Waits until every live node names the same leader, and returns it.
    ///
    /// # Errors
    ///
    /// Fails after `limit`.
    pub fn await_leader(&mut self, cl: &Cluster, limit: StdDuration) -> Result<ProcessId, String> {
        let deadline = StdInstant::now() + limit;
        loop {
            if let Some(leader) = self.target {
                return Ok(leader);
            }
            if StdInstant::now() >= deadline {
                return Err(format!("no agreed leader within {limit:?}"));
            }
            self.poll(cl, deadline);
        }
    }

    /// Waits until nothing is in flight.
    ///
    /// # Errors
    ///
    /// Fails after `limit` with the number still unanswered.
    pub fn drain(&mut self, cl: &Cluster, limit: StdDuration) -> Result<(), String> {
        let deadline = StdInstant::now() + limit;
        while self.in_flight() > 0 {
            if StdInstant::now() >= deadline {
                let reads = self.cmds.iter().filter(|r| r.reply == 0 && r.read).count();
                return Err(format!(
                    "{} commands ({reads} reads) unanswered after {limit:?}; leader {:?}, \
                     nodes name {:?}, {} re-sent, failover {:?}",
                    self.in_flight(),
                    self.target,
                    self.leaders,
                    self.retries,
                    self.failover
                ));
            }
            self.flush(cl);
            self.poll(
                cl,
                deadline.min(StdInstant::now() + StdDuration::from_millis(1)),
            );
        }
        Ok(())
    }

    /// Offers `w`'s load until `until`, tagging commands with `phase`.
    /// With `kill_at`, kills the agreed leader at that instant (once per
    /// client: a kill already issued is not repeated).
    pub fn run_load(
        &mut self,
        cl: &mut Cluster,
        w: &Workload,
        phase: Phase,
        until: StdInstant,
        kill_at: Option<StdInstant>,
    ) {
        let mut kill_at = kill_at.filter(|_| self.failover.is_none());
        loop {
            let now = StdInstant::now();
            if now >= until {
                return;
            }
            if kill_at.is_some_and(|k| now >= k) {
                kill_at = None;
                self.kill_leader(cl);
            }
            let mut wake = until.min(now + StdDuration::from_millis(1));
            if let Some(k) = kill_at {
                wake = wake.min(k);
            }
            match w.load {
                Load::Closed { window } => {
                    while self.in_flight() < window {
                        let t = self.now();
                        self.issue(false, t, phase);
                    }
                }
                Load::Open { rate, read_frac } => {
                    let now_ns = self.now();
                    let mut due = *self.next_due.get_or_insert(now_ns);
                    while due <= now_ns {
                        let read = self.rng.unit() < read_frac;
                        self.issue(read, due, phase);
                        let gap = -(1.0 - self.rng.unit()).ln() / rate;
                        due += (gap * 1e9) as u64;
                    }
                    self.next_due = Some(due);
                    wake = wake.min(self.at(due));
                }
            }
            self.flush(cl);
            self.poll(cl, wake);
        }
    }

    /// Forgets the open-loop schedule, so the next load phase starts now.
    pub fn reset_schedule(&mut self) {
        self.next_due = None;
    }

    /// Kills the agreed leader. The kill counts from when it is issued,
    /// not from when `WireCluster::kill` returns.
    pub fn kill_leader(&mut self, cl: &mut Cluster) {
        let Some(victim) = self.target else {
            return;
        };
        self.poll_now(cl);
        let killed_at = self.now();
        self.failover = Some(Failover {
            killed_at,
            victim: victim.0,
            agreed_at: None,
            first_ack: None,
        });
        cl.wc.kill(victim);
        self.alive[victim.as_usize()] = false;
        self.leaders[victim.as_usize()] = None;
        // Until the survivors agree, there is no one to send to.
        self.target = None;
        if let Some(leader) = self.agreed() {
            self.target = Some(leader);
        }
    }

    /// Restarts the node killed by [`Client::kill_leader`].
    ///
    /// # Errors
    ///
    /// Fails like [`Cluster::restart`].
    pub fn restart_victim(&mut self, cl: &mut Cluster) -> Result<(), String> {
        let Some(f) = self.failover else {
            return Ok(());
        };
        let p = ProcessId(f.victim);
        cl.restart(p)?;
        self.alive[p.as_usize()] = true;
        Ok(())
    }

    /// Whether node `i` is still running.
    pub fn is_alive(&self, i: usize) -> bool {
        self.alive[i]
    }

    /// The client records as the verdict reads them.
    pub fn views(&self) -> Vec<CmdView> {
        self.cmds
            .iter()
            .enumerate()
            .map(|(i, r)| CmdView {
                seq: i as u64 + 1,
                key: r.key,
                read: r.read,
                issued: r.due.min(r.submit),
                acked: (r.reply > 0).then_some(r.reply),
                response: r.response.clone(),
            })
            .collect()
    }
}
