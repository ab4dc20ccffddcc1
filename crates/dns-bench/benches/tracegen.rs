//! Benchmarks for namespace and workload generation.

use criterion::{criterion_group, criterion_main, Criterion};
use dns_trace::{UniverseSpec, WorkloadBuilder};
use std::hint::black_box;

fn bench_tracegen(c: &mut Criterion) {
    c.bench_function("tracegen/universe_small", |b| {
        let spec = UniverseSpec::small();
        b.iter(|| black_box(&spec).build(7))
    });

    let universe = UniverseSpec::small().build(7);
    c.bench_function("tracegen/workload_10k", |b| {
        let builder = WorkloadBuilder::new("bench", 1, 50, 10_000);
        b.iter(|| builder.generate(black_box(&universe), 42))
    });

    c.bench_function("tracegen/build_zones", |b| {
        b.iter(|| black_box(&universe).build_zones(None))
    });

    c.bench_function("tracegen/trace_stats", |b| {
        let trace = WorkloadBuilder::new("bench", 1, 50, 10_000).generate(&universe, 42);
        b.iter(|| black_box(&trace).stats())
    });
}

criterion_group!(benches, bench_tracegen);
criterion_main!(benches);
