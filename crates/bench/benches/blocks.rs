//! Micro-benchmarks: fault-block and MCC construction at the paper's mesh
//! size (200×200) across fault densities.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use emr_fault::{inject, BlockMap, FaultSet, MccMap, MccType};
use emr_mesh::Mesh;

fn fault_sets() -> Vec<(usize, FaultSet)> {
    let mesh = Mesh::square(200);
    [50usize, 100, 200]
        .into_iter()
        .map(|k| {
            let mut rng = StdRng::seed_from_u64(k as u64);
            (k, inject::uniform(mesh, k, &[], &mut rng))
        })
        .collect()
}

fn bench_blocks(c: &mut Criterion) {
    let sets = fault_sets();
    let mut group = c.benchmark_group("block_construction");
    for (k, faults) in &sets {
        group.bench_with_input(BenchmarkId::new("definition1", k), faults, |b, f| {
            b.iter(|| BlockMap::build(f));
        });
        group.bench_with_input(BenchmarkId::new("mcc_type_one", k), faults, |b, f| {
            b.iter(|| MccMap::build(f, MccType::One));
        });
    }
    group.finish();
}

/// The scalar ground-truth builds, kept benchmarked so the speedup of the
/// default (bit-parallel) constructors above stays visible in one report.
fn bench_scalar_builds(c: &mut Criterion) {
    let sets = fault_sets();
    let mut group = c.benchmark_group("block_construction_scalar");
    for (k, faults) in &sets {
        group.bench_with_input(BenchmarkId::new("definition1", k), faults, |b, f| {
            b.iter(|| BlockMap::build_scalar(f));
        });
        group.bench_with_input(BenchmarkId::new("mcc_type_one", k), faults, |b, f| {
            b.iter(|| MccMap::build_scalar(f, MccType::One));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_blocks, bench_scalar_builds);
criterion_main!(benches);
