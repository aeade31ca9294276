//! Ablation experiments beyond the paper's figures, probing the design
//! choices DESIGN.md calls out:
//!
//! * [`clustered_faults`] — the paper's evaluation scatters faults
//!   uniformly, which §5 itself notes keeps blocks small; this ablation
//!   re-runs the conditions under spatially clustered faults,
//! * [`pivot_policies`] — extension 3 under the three pivot placement
//!   policies (center / random / distinct rows-and-columns),
//! * [`information_cost`] — the message/round cost of the distributed
//!   information protocols as the fault count grows (the §4
//!   implementation discussion, quantified).

use rand::rngs::StdRng;

use emr_analysis::{sweep, SeriesTable, SweepConfig};
use emr_core::conditions::{self, PivotPolicy};
use emr_core::{Model, Scenario};
use emr_distsim::protocols::{boundary, esl, exchange};
use emr_distsim::Engine;
use emr_fault::inject;
use emr_fault::reach_bits::minimal_path_exists_packed;
use emr_mesh::{Coord, Grid, Mesh, Quadrant, Rect};

/// Builds a table by running `measure` over `cfg.trials` trials per fault
/// count with a custom fault generator, on the shared trial-parallel
/// sweep engine (the default harness hard-codes the paper's uniform
/// injection, ablations need their own).
fn custom_sweep(
    cfg: &SweepConfig,
    series: &[&str],
    generate: impl Fn(Mesh, usize, Coord, &mut StdRng) -> emr_fault::FaultSet + Sync,
    measure: impl Fn(&Scenario, Coord, Coord, &mut StdRng) -> Vec<f64> + Sync,
) -> SeriesTable {
    sweep::run_with(cfg, series, generate, |input, rng| {
        measure(input.scenario, input.source, input.dest, rng)
    })
}

fn yes(b: bool) -> f64 {
    f64::from(u8::from(b))
}

/// Uniform vs clustered fault placement: how much do the guarantees
/// degrade when faults correlate spatially (larger blocks)?
pub fn clustered_faults(cfg: &SweepConfig) -> SeriesTable {
    let names = [
        "safe source (uniform)",
        "strategy 4 (uniform)",
        "optimal (uniform)",
        "safe source (clustered)",
        "strategy 4 (clustered)",
        "optimal (clustered)",
    ];
    // Run the two injection modes as separate sub-sweeps with identical
    // seeds, then join the columns.
    let measure = |sc: &Scenario, s: Coord, d: Coord, _rng: &mut StdRng| {
        let view = sc.view(Model::FaultBlock);
        vec![
            yes(conditions::safe_source(&view, s, d).is_some()),
            yes(matches!(conditions::strategy4(&view, s, d), Some(e) if e.is_minimal())),
            yes(minimal_path_exists_packed(s, d, sc.faults().packed())),
        ]
    };
    let uniform = custom_sweep(
        cfg,
        &names[..3],
        |mesh, k, source, rng| inject::uniform(mesh, k, &[source], rng),
        measure,
    );
    let clustered = custom_sweep(
        cfg,
        &names[3..],
        |mesh, k, source, rng| {
            let centers = (k / 20).max(1);
            inject::clustered(mesh, k, centers, 1.5, &[source], rng)
        },
        measure,
    );
    uniform.joined(&clustered)
}

/// Extension 3 with level-3 pivots under each placement policy.
pub fn pivot_policies(cfg: &SweepConfig) -> SeriesTable {
    let names = ["center", "random", "distinct rows/cols", "optimal"];
    custom_sweep(
        cfg,
        &names,
        |mesh, k, source, rng| inject::uniform(mesh, k, &[source], rng),
        |sc, s, d, rng| {
            let view = sc.view(Model::FaultBlock);
            let bounds = sc.mesh().bounds();
            let q = Quadrant::of(s, d);
            let region = Rect::new(
                if q.x_positive() { s.x } else { bounds.x_min() },
                if q.x_positive() { bounds.x_max() } else { s.x },
                if q.y_positive() { s.y } else { bounds.y_min() },
                if q.y_positive() { bounds.y_max() } else { s.y },
            );
            let mut samples = Vec::with_capacity(4);
            for policy in [
                PivotPolicy::Center,
                PivotPolicy::Random,
                PivotPolicy::DistinctRowsCols,
            ] {
                let pivots = conditions::select_pivots(region, 3, policy, rng);
                samples.push(yes(conditions::ext3(&view, s, d, &pivots).is_some()));
            }
            samples.push(yes(minimal_path_exists_packed(s, d, sc.faults().packed())));
            samples
        },
    )
}

/// The distributed information model's cost: messages and rounds for
/// safety-level formation, boundary propagation and region exchange, plus
/// the boundary-line storage footprint.
pub fn information_cost(cfg: &SweepConfig) -> SeriesTable {
    let names = [
        "esl messages",
        "esl rounds",
        "boundary messages",
        "boundary marks",
        "exchange messages",
        "affected rows frac",
    ];
    custom_sweep(
        cfg,
        &names,
        |mesh, k, source, rng| inject::uniform(mesh, k, &[source], rng),
        |sc, _s, _d, _rng| {
            let mesh = sc.mesh();
            let blocked = Grid::from_fn(mesh, |c| sc.blocks().is_blocked(c));
            let engine = Engine::new(mesh);
            let (levels, esl_stats) = engine.run(&esl::EslFormation::new(blocked.clone()));
            let (marks, b_stats) = engine.run(&boundary::BoundaryPropagation::new(
                sc.blocks().rects().to_vec(),
                blocked.clone(),
            ));
            let mark_count: usize = mesh.nodes().map(|c| marks[c].len()).sum();
            let (_, x_stats) = engine.run(&exchange::RegionExchange::new(blocked, levels));
            let rows = emr_analysis::affected::affected_rows(sc.blocks());
            vec![
                esl_stats.messages as f64,
                f64::from(esl_stats.rounds),
                b_stats.messages as f64,
                mark_count as f64,
                x_stats.messages as f64,
                rows as f64 / f64::from(mesh.height()),
            ]
        },
    )
}
