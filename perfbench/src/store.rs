//! Timing wrappers around the file-backed [`Storage`] and
//! [`SnapshotStore`] backends. Each call is forwarded unchanged; while the
//! shared `armed` flag is set, its duration is recorded as a span.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant as StdInstant;

use lls_primitives::storage::{Snapshot, SnapshotStore, Storage, StorageError, StorageStats};

/// What a storage span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOp {
    /// One durable append call (single record or group commit): one flush.
    Append {
        /// Records written by the call.
        records: usize,
    },
    /// A WAL rewrite to live records only.
    Compact,
    /// A snapshot install.
    SnapshotInstall,
}

/// One timed storage call.
#[derive(Debug, Clone, Copy)]
pub struct StoreSpan {
    /// The node whose storage this is.
    pub node: u32,
    /// What was timed.
    pub op: StoreOp,
    /// Start, ns since the shared epoch.
    pub start: u64,
    /// End, ns since the shared epoch.
    pub end: u64,
}

/// Shared recording state of every wrapper in one cluster.
#[derive(Debug, Clone)]
pub struct StoreRecorder {
    /// Records only while set.
    pub armed: Arc<AtomicBool>,
    /// Time origin of the spans.
    pub epoch: StdInstant,
    /// Where spans go.
    pub spans: Arc<Mutex<Vec<StoreSpan>>>,
}

impl StoreRecorder {
    fn time<T>(&self, node: u32, op: StoreOp, f: impl FnOnce() -> T) -> T {
        if !self.armed.load(Ordering::Relaxed) {
            return f();
        }
        let start = StdInstant::now();
        let out = f();
        let end = StdInstant::now();
        let ns = |t: StdInstant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        if let Ok(mut spans) = self.spans.lock() {
            spans.push(StoreSpan {
                node,
                op,
                start: ns(start),
                end: ns(end),
            });
        }
        out
    }
}

/// A [`Storage`] backend that forwards to `inner` and optionally times it.
#[derive(Debug)]
pub struct TimedStorage<S> {
    inner: S,
    node: u32,
    rec: Option<StoreRecorder>,
}

impl<S> TimedStorage<S> {
    /// Wraps `inner`, owned by `node`.
    pub fn new(inner: S, node: u32, rec: Option<StoreRecorder>) -> Self {
        TimedStorage { inner, node, rec }
    }

    fn time<T>(&mut self, op: StoreOp, f: impl FnOnce(&mut S) -> T) -> T {
        match &self.rec {
            Some(rec) => rec.time(self.node, op, || f(&mut self.inner)),
            None => f(&mut self.inner),
        }
    }
}

impl<S: Storage> Storage for TimedStorage<S> {
    fn append(&mut self, record: &[u8]) -> Result<(), StorageError> {
        self.time(StoreOp::Append { records: 1 }, |s| s.append(record))
    }

    fn append_group(&mut self, records: &[Vec<u8>]) -> Result<(), StorageError> {
        let op = StoreOp::Append {
            records: records.len(),
        };
        self.time(op, |s| s.append_group(records))
    }

    fn load(&mut self) -> Result<Vec<Vec<u8>>, StorageError> {
        self.inner.load()
    }

    fn compact_to(&mut self, live: &[Vec<u8>]) -> Result<(), StorageError> {
        self.time(StoreOp::Compact, |s| s.compact_to(live))
    }

    fn stats(&self) -> StorageStats {
        self.inner.stats()
    }
}

/// A [`SnapshotStore`] that forwards to `inner` and optionally times it.
#[derive(Debug)]
pub struct TimedSnapshots<S> {
    inner: S,
    node: u32,
    rec: Option<StoreRecorder>,
}

impl<S> TimedSnapshots<S> {
    /// Wraps `inner`, owned by `node`.
    pub fn new(inner: S, node: u32, rec: Option<StoreRecorder>) -> Self {
        TimedSnapshots { inner, node, rec }
    }
}

impl<S: SnapshotStore> SnapshotStore for TimedSnapshots<S> {
    fn install(&mut self, snap: &Snapshot) -> Result<(), StorageError> {
        match &self.rec {
            Some(rec) => rec.time(self.node, StoreOp::SnapshotInstall, || {
                self.inner.install(snap)
            }),
            None => self.inner.install(snap),
        }
    }

    fn load(&mut self) -> Result<Option<Snapshot>, StorageError> {
        self.inner.load()
    }
}
