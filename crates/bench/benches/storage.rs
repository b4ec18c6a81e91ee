//! Storage microbench: wall-clock cost of one durable WAL call, single
//! record against a two-record group.
//!
//! A replicated-log follower writes its vote (plus any decisions an
//! `Accept` carries) in one call; the leader writes `[Accepted, Chosen]`
//! as one group when its vote completes a quorum. Both backends make a
//! call durable with one `write` plus flush of the whole group (their
//! fsync-equivalent; neither calls `fsync`), so a group should cost about
//! what a single record does. Each iteration times exactly one call, so
//! the reported mean is per call.
//!
//! Run with `cargo bench -p omega-bench --bench storage`. The WALs live in
//! a fresh directory under `std::env::temp_dir()`, removed afterwards.

use std::path::{Path, PathBuf};

use consensus::{Ballot, Entry, RsmRecord};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lls_primitives::{ProcessId, StorageHandle};

/// Segment rotation budget for the segmented backend: large enough that
/// the bench measures appends, not rotations.
const SEGMENT_BUDGET: u64 = 64 * 1024 * 1024;

/// A scratch directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!("lls-storage-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create bench dir");
        TempDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn open(backend: &str, path: &Path) -> StorageHandle {
    match backend {
        "file_wal" => StorageHandle::file_wal(path),
        _ => StorageHandle::segmented_wal(path, SEGMENT_BUDGET),
    }
    .expect("open WAL")
}

fn bench_append(c: &mut Criterion) {
    let dir = TempDir::new();
    let b = Ballot::new(1, ProcessId(0));
    let entry = Entry::Cmd(0xdead_beef_u64);
    let mut group = c.benchmark_group("storage/append");
    group.sample_size(200);
    for backend in ["file_wal", "segmented_wal"] {
        let store = open(backend, &dir.path(&format!("{backend}-record")));
        let mut slot = 0u64;
        group.bench_function(BenchmarkId::new(backend, "append_record"), |bench| {
            slot += 1;
            let rec = RsmRecord::Accepted {
                slot,
                b,
                entry: entry.clone(),
            };
            bench.iter(|| store.append_record(&rec).expect("append"));
        });
        let store = open(backend, &dir.path(&format!("{backend}-group")));
        let mut slot = 0u64;
        group.bench_function(BenchmarkId::new(backend, "append_records_x2"), |bench| {
            slot += 1;
            let recs = [
                RsmRecord::Accepted {
                    slot,
                    b,
                    entry: entry.clone(),
                },
                RsmRecord::Chosen {
                    slot,
                    entry: entry.clone(),
                },
            ];
            bench.iter(|| store.append_records(&recs).expect("append group"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_append);
criterion_main!(benches);
