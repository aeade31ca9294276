//! Micro-benchmarks: the per-decision cost of the sufficient safe
//! condition and its extensions — the quantities a source evaluates before
//! injecting a packet.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use emr_core::conditions::{self, PivotPolicy, SegmentSize};
use emr_core::{Model, Scenario};
use emr_fault::{inject, reach};
use emr_mesh::{Coord, Mesh};

fn bench_conditions(c: &mut Criterion) {
    let mesh = Mesh::square(200);
    let s = mesh.center();
    let mut rng = StdRng::seed_from_u64(42);
    let faults = inject::uniform(mesh, 200, &[s], &mut rng);
    let scenario = Scenario::build(faults);
    let view = scenario.view(Model::FaultBlock);
    let d = Coord::new(171, 158);
    let pivots = conditions::select_pivots(
        emr_mesh::Rect::new(s.x, 199, s.y, 199),
        3,
        PivotPolicy::Center,
        &mut rng,
    );

    let mut group = c.benchmark_group("source_decision");
    group.bench_function("safe_source", |b| {
        b.iter(|| conditions::safe_source(&view, s, d))
    });
    group.bench_function("ext1", |b| b.iter(|| conditions::ext1(&view, s, d)));
    for (label, seg) in [
        ("seg1", SegmentSize::Size(1)),
        ("seg5", SegmentSize::Size(5)),
        ("segmax", SegmentSize::Max),
    ] {
        group.bench_with_input(BenchmarkId::new("ext2", label), &seg, |b, &seg| {
            b.iter(|| conditions::ext2(&view, s, d, seg))
        });
    }
    group.bench_function("ext3_level3", |b| {
        b.iter(|| conditions::ext3(&view, s, d, &pivots))
    });
    group.bench_function("strategy4", |b| {
        b.iter(|| conditions::strategy4(&view, s, d))
    });
    // The global-information baseline the paper's conditions avoid.
    group.bench_function("wang_oracle_dp", |b| {
        b.iter(|| reach::minimal_path_exists(&mesh, s, d, |c| view.is_obstacle(c, s, d)))
    });
    group.finish();
}

criterion_group!(benches, bench_conditions);
criterion_main!(benches);
