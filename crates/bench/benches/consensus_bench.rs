//! Criterion benches for consensus: single-shot decision cost and
//! replicated-log steady-state commit throughput (simulated work per
//! command, complementing experiment E7's message counts).

use consensus::shard::{PlacementManager, PlacementMap, ShardId, ShardRequest};
use consensus::{Consensus, ConsensusParams, ShardedNode};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lls_primitives::{Duration, Instant, ProcessId};
use netsim::{SimBuilder, SystemSParams, Topology};

fn bench_single_shot(c: &mut Criterion) {
    let mut group = c.benchmark_group("consensus/single_shot");
    group.sample_size(10);
    for n in [3usize, 5, 7] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let topo = Topology::system_s(n, ProcessId(0), SystemSParams::default());
                let mut sim = SimBuilder::new(n).seed(3).topology(topo).build_with(|env| {
                    Consensus::new(env, ConsensusParams::default(), Some(env.id().0 as u64))
                });
                sim.run_until(Instant::from_ticks(40_000));
                assert!(sim.node(ProcessId(0)).decision().is_some());
            });
        });
    }
    group.finish();
}

fn bench_rsm_steady_state(c: &mut Criterion) {
    let mut group = c.benchmark_group("consensus/rsm_steady_state");
    group.sample_size(10);
    let commands = 200u64;
    group.throughput(Throughput::Elements(commands));
    for n in [3usize, 5] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut sim = SimBuilder::new(n)
                    .seed(3)
                    .topology(Topology::all_timely(n, Duration::from_ticks(2)))
                    .build_with(|env| {
                        let placement =
                            PlacementManager::with_all_attached(PlacementMap::uniform(1, n));
                        ShardedNode::<u64>::new(env, ConsensusParams::default(), placement)
                    });
                sim.run_until(Instant::from_ticks(5_000));
                for k in 0..commands {
                    let put = ShardRequest {
                        shard: ShardId(0),
                        cmd: k,
                    };
                    sim.schedule_request(Instant::from_ticks(5_001 + 50 * k), ProcessId(0), put);
                }
                sim.run_until(Instant::from_ticks(5_000 + 50 * commands + 3_000));
                let log = sim.node(ProcessId(0)).group(ShardId(0)).expect("group 0");
                assert_eq!(log.committed_len(), commands);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_single_shot, bench_rsm_steady_state);
criterion_main!(benches);
