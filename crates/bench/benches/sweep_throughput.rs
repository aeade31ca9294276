//! End-to-end sweep throughput (trials per second) at several worker
//! counts, for the trial-parallel experiment engine. The repository
//! benchmark's `sweep-paper` workload tracks the same quantity across
//! changes (`BENCHMARK.json`).

use std::num::NonZeroUsize;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use emr_analysis::{sweep, SeriesTable, SweepConfig};
use emr_core::{conditions, Model};

/// A representative measure: the paper's cheapest source-side check plus
/// the global-information oracle (the two extremes every figure compares).
pub fn representative_sweep(cfg: &SweepConfig) -> SeriesTable {
    sweep::run(cfg, &["safe source", "optimal"], |input, _| {
        let (s, d) = (input.source, input.dest);
        let view = input.scenario.view(Model::FaultBlock);
        let yes = |b: bool| f64::from(u8::from(b));
        vec![
            yes(conditions::safe_source(&view, s, d).is_some()),
            yes(input.reach().reachable(d)),
        ]
    })
}

fn bench_sweep_throughput(c: &mut Criterion) {
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let mut counts = vec![1, 2, cores];
    counts.sort_unstable();
    counts.dedup();

    let mut group = c.benchmark_group("sweep_throughput");
    for &threads in &counts {
        let cfg = SweepConfig {
            mesh_size: 60,
            trials: 64,
            fault_counts: vec![0, 30, 60],
            seed: 0xBEEF,
            threads: Some(threads),
            profile: None,
        };
        group.bench_with_input(BenchmarkId::from_parameter(threads), &cfg, |b, cfg| {
            b.iter(|| representative_sweep(cfg))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweep_throughput);
criterion_main!(benches);
