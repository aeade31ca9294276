//! Reachability-oracle throughput: the scalar per-pair DP, the
//! bit-parallel per-pair kernel, and the batched all-destinations
//! `ReachMap`, at the paper's mesh scale.
//!
//! The per-pair benchmarks answer one random destination per iteration
//! (the sweep engine's per-trial shape); the `ReachMap` benchmark builds
//! the full map once per iteration — the fair comparison for the
//! all-destinations case is `reach_map` against `mesh_size²` per-pair
//! calls. The `reach-bits-matches-dp` conform oracle checks that the
//! kernels agree.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use emr_fault::reach::minimal_path_exists;
use emr_fault::reach_bits::{minimal_path_exists_bits, ReachMap};
use emr_fault::{inject, FaultSet};
use emr_mesh::{Coord, Mesh};

/// One scenario per mesh size: faults equal to the side length (the
/// paper's mid-density regime), source at the center.
fn scenarios() -> Vec<(i32, Mesh, Coord, FaultSet, Vec<Coord>)> {
    [64i32, 100, 200]
        .into_iter()
        .map(|n| {
            let mesh = Mesh::square(n);
            let source = mesh.center();
            let mut rng = StdRng::seed_from_u64(u64::try_from(n).unwrap_or(0));
            let faults = inject::uniform(mesh, n as usize, &[source], &mut rng);
            let dests: Vec<Coord> = (0..64)
                .map(|_| Coord::new(rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            (n, mesh, source, faults, dests)
        })
        .collect()
}

fn bench_reach(c: &mut Criterion) {
    let scenarios = scenarios();
    let mut group = c.benchmark_group("reach_throughput");
    for (n, mesh, source, faults, dests) in &scenarios {
        let blocked = |c: Coord| faults.is_faulty(c);
        group.bench_with_input(BenchmarkId::new("scalar_pair", n), n, |b, _| {
            let mut i = 0;
            b.iter(|| {
                let d = dests[i % dests.len()];
                i += 1;
                minimal_path_exists(mesh, *source, d, blocked)
            });
        });
        group.bench_with_input(BenchmarkId::new("bits_pair", n), n, |b, _| {
            let mut i = 0;
            b.iter(|| {
                let d = dests[i % dests.len()];
                i += 1;
                minimal_path_exists_bits(mesh, *source, d, blocked)
            });
        });
        group.bench_with_input(BenchmarkId::new("reach_map_build", n), n, |b, _| {
            b.iter(|| ReachMap::from_source(mesh, *source, blocked));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_reach);
criterion_main!(benches);
