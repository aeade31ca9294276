//! Micro-benchmarks: safety-level computation and boundary-information
//! distribution — the cost of the paper's information model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use emr_core::{BoundaryMap, SafetyMap, Scenario};
use emr_fault::inject;
use emr_mesh::{Grid, Mesh};

fn bench_safety(c: &mut Criterion) {
    let mesh = Mesh::square(200);
    let mut group = c.benchmark_group("information_model");
    for k in [50usize, 200] {
        let mut rng = StdRng::seed_from_u64(k as u64);
        let faults = inject::uniform(mesh, k, &[], &mut rng);
        let scenario = Scenario::build(faults.clone());
        let blocked = Grid::from_fn(mesh, |c| scenario.blocks().is_blocked(c));
        let packed = scenario.blocks().packed();
        group.bench_with_input(BenchmarkId::new("safety_map", k), packed, |b, p| {
            b.iter(|| SafetyMap::compute_packed(p));
        });
        let rects = scenario.blocks().rects();
        group.bench_with_input(
            BenchmarkId::new("boundary_map", k),
            &(rects, blocked.clone()),
            |b, (rects, g)| {
                b.iter(|| BoundaryMap::compute(&mesh, rects, g));
            },
        );
        group.bench_with_input(BenchmarkId::new("scenario_build", k), &faults, |b, f| {
            b.iter(|| Scenario::build(f.clone()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_safety);
criterion_main!(benches);
