//! One measurement function per figure of the paper's evaluation.
//!
//! All percentages are fractions in `[0, 1]`; the paper's y-axes are the
//! same quantities. Destinations, fault placement and trial counts follow
//! §5 (see [`emr_analysis::sweep`]).

use rand::rngs::StdRng;

use emr_analysis::{affected, sweep, SeriesTable, SweepConfig};
use emr_core::conditions::{self, PivotPolicy, SegmentSize, StrategyKind, StrategyParams};
use emr_core::{Ensured, Model, Scenario};
use emr_fault::reach_bits::minimal_path_exists_packed;
use emr_mesh::Coord;

use sweep::TrialInput;

/// Ground truth: a minimal path avoiding the *faulty* nodes exists. This
/// equals Wang's necessary-and-sufficient condition under the (exact) MCC
/// labeling; it is the "existence of a minimal path" curve of every
/// figure.
fn optimal_exact(input: &TrialInput<'_>) -> bool {
    input.reach().reachable(input.dest)
}

/// The block-model optimum: a minimal path avoiding whole faulty blocks
/// exists (what a router with global *block* information can achieve).
fn optimal_blocks(input: &TrialInput<'_>) -> bool {
    minimal_path_exists_packed(input.source, input.dest, input.scenario.blocks().packed())
}

fn yes(b: bool) -> f64 {
    f64::from(u8::from(b))
}

/// Figure 7: expected percentage of affected rows (and columns) — the
/// analytical model of Theorem 2 against simulation.
pub fn fig7(cfg: &SweepConfig) -> SeriesTable {
    let n = cfg.mesh_size;
    sweep::run(
        cfg,
        &["analytical", "simulated rows", "simulated columns"],
        |input: &TrialInput<'_>, _| {
            let k = u32::try_from(input.scenario.faults().len()).unwrap_or(u32::MAX);
            let nu = u32::try_from(n).unwrap_or(0);
            vec![
                affected::expected_affected_rows(nu, k) / f64::from(nu),
                affected::affected_rows(input.scenario.blocks()) as f64 / f64::from(nu),
                affected::affected_columns(input.scenario.blocks()) as f64 / f64::from(nu),
            ]
        },
    )
}

/// Figure 8: average number of disabled (healthy but deactivated) nodes
/// per faulty block, under Wu's block model and under the MCC model.
pub fn fig8(cfg: &SweepConfig) -> SeriesTable {
    sweep::run(
        cfg,
        &[
            "Wu's model",
            "MCC",
            "Wu's model (network total)",
            "MCC (network total)",
        ],
        |input: &TrialInput<'_>, _| {
            let sc = input.scenario;
            let per_block = |total: usize, count: usize| {
                if count == 0 {
                    0.0
                } else {
                    total as f64 / count as f64
                }
            };
            let blocks = sc.blocks();
            let fb = per_block(blocks.disabled_count(), blocks.rects().len());
            // Average the two MCC labelings (they are mirror-symmetric, so
            // this only tightens the estimate).
            let mcc: f64 = emr_fault::MccType::ALL
                .iter()
                .map(|&ty| {
                    let m = sc.mcc(ty);
                    per_block(m.disabled_count(), m.rects().len())
                })
                .sum::<f64>()
                / 2.0;
            let mcc_total: f64 = emr_fault::MccType::ALL
                .iter()
                .map(|&ty| sc.mcc(ty).disabled_count() as f64)
                .sum::<f64>()
                / 2.0;
            vec![fb, mcc, blocks.disabled_count() as f64, mcc_total]
        },
    )
}

/// Figure 9: percentage of a minimal/sub-minimal path ensured at the
/// source by the sufficient safe condition and extension 1, under both
/// fault models (panels (a) and (b)), against the optimum.
pub fn fig9(cfg: &SweepConfig) -> SeriesTable {
    sweep::run(
        cfg,
        &[
            "safe source",
            "extension 1 (min)",
            "extension 1 (sub-min)",
            "safe source (MCC)",
            "extension 1a (min)",
            "extension 1a (sub-min)",
            "existence of a minimal path",
            "existence (block model)",
        ],
        |input: &TrialInput<'_>, _| {
            let (s, d) = (input.source, input.dest);
            let mut samples = Vec::with_capacity(8);
            for model in Model::ALL {
                let view = input.scenario.view(model);
                let safe = conditions::safe_source(&view, s, d).is_some();
                let e1 = conditions::ext1(&view, s, d);
                let e1_min = matches!(e1, Some(Ensured::Minimal(_)));
                let e1_sub = e1.is_some();
                samples.extend([yes(safe), yes(e1_min), yes(e1_sub)]);
            }
            samples.push(yes(optimal_exact(input)));
            samples.push(yes(optimal_blocks(input)));
            samples
        },
    )
}

/// Figure 10: percentage of a minimal path ensured by extension 2 with
/// segment sizes 1, 5, 10 and max, under both fault models.
pub fn fig10(cfg: &SweepConfig) -> SeriesTable {
    let sizes = [
        ("(1)", SegmentSize::Size(1)),
        ("(5)", SegmentSize::Size(5)),
        ("(10)", SegmentSize::Size(10)),
        ("(max)", SegmentSize::Max),
    ];
    let mut names = vec!["safe source".to_string()];
    for (label, _) in sizes {
        names.push(format!("extension 2 {label}"));
    }
    for (label, _) in sizes {
        names.push(format!("extension 2a {label}"));
    }
    names.push("existence of a minimal path".to_string());
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    sweep::run(cfg, &name_refs, |input: &TrialInput<'_>, _| {
        let (s, d) = (input.source, input.dest);
        let fb = input.scenario.view(Model::FaultBlock);
        let mut samples = vec![yes(conditions::safe_source(&fb, s, d).is_some())];
        for model in Model::ALL {
            let view = input.scenario.view(model);
            for (_, seg) in sizes {
                samples.push(yes(conditions::ext2(&view, s, d, seg).is_some()));
            }
        }
        samples.push(yes(optimal_exact(input)));
        samples
    })
}

/// Figure 11: percentage of a minimal path ensured by extension 3 with
/// partition levels 1, 2 and 3 (center-placed pivots in the destination's
/// quadrant submesh), under both fault models.
pub fn fig11(cfg: &SweepConfig) -> SeriesTable {
    let names = [
        "safe source",
        "extension 3 (level 1)",
        "extension 3 (level 2)",
        "extension 3 (level 3)",
        "extension 3a (level 1)",
        "extension 3a (level 2)",
        "extension 3a (level 3)",
        "existence of a minimal path",
    ];
    sweep::run(cfg, &names, |input: &TrialInput<'_>, rng: &mut StdRng| {
        let (s, d) = (input.source, input.dest);
        let fb = input.scenario.view(Model::FaultBlock);
        let region = quadrant_region(input.scenario, s, d);
        let mut samples = vec![yes(conditions::safe_source(&fb, s, d).is_some())];
        for model in Model::ALL {
            let view = input.scenario.view(model);
            for level in 1..=3u32 {
                let pivots = conditions::select_pivots(region, level, PivotPolicy::Center, rng);
                samples.push(yes(conditions::ext3(&view, s, d, &pivots).is_some()));
            }
        }
        samples.push(yes(optimal_exact(input)));
        samples
    })
}

/// Figure 12: percentage of a minimal path ensured by the combined
/// strategies 1–4 (segment size 5; random level-3 pivots in the
/// destination's quadrant), under both fault models.
pub fn fig12(cfg: &SweepConfig) -> SeriesTable {
    let names = [
        "strategy 1 (1+2)",
        "strategy 2 (1+3)",
        "strategy 3 (2+3)",
        "strategy 4 (1+2+3)",
        "strategy 1a",
        "strategy 2a",
        "strategy 3a",
        "strategy 4a",
        "existence of a minimal path",
    ];
    sweep::run(cfg, &names, |input: &TrialInput<'_>, rng: &mut StdRng| {
        let (s, d) = (input.source, input.dest);
        let region = quadrant_region(input.scenario, s, d);
        let pivots = conditions::select_pivots(region, 3, PivotPolicy::Random, rng);
        let params = StrategyParams {
            segment: SegmentSize::Size(5),
            pivots,
        };
        let mut samples = Vec::with_capacity(9);
        for model in Model::ALL {
            let view = input.scenario.view(model);
            for kind in StrategyKind::ALL {
                let got = conditions::strategy_with(&view, s, d, kind, &params);
                samples.push(yes(matches!(got, Some(e) if e.is_minimal())));
            }
        }
        samples.push(yes(optimal_exact(input)));
        samples
    })
}

/// The first-quadrant submesh relative to the source (dest is always in
/// quadrant I in the paper's setup, but compute it generally).
fn quadrant_region(sc: &Scenario, s: Coord, d: Coord) -> emr_mesh::Rect {
    use emr_mesh::Quadrant;
    let bounds = sc.mesh().bounds();
    let q = Quadrant::of(s, d);
    let (x0, x1) = if q.x_positive() {
        (s.x, bounds.x_max())
    } else {
        (bounds.x_min(), s.x)
    };
    let (y0, y1) = if q.y_positive() {
        (s.y, bounds.y_max())
    } else {
        (bounds.y_min(), s.y)
    };
    emr_mesh::Rect::new(x0, x1, y0, y1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> SweepConfig {
        SweepConfig {
            mesh_size: 30,
            trials: 25,
            fault_counts: vec![0, 8, 16],
            seed: 99,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn fig7_series_shapes() {
        let t = fig7(&smoke());
        // No faults → no affected rows; analytical tracks simulation.
        assert_eq!(t.mean("simulated rows", 0), Some(0.0));
        assert_eq!(t.mean("analytical", 0), Some(0.0));
        let a = t.mean("analytical", 16).unwrap();
        let s = t.mean("simulated rows", 16).unwrap();
        assert!((a - s).abs() < 0.08, "analytical {a} vs simulated {s}");
    }

    #[test]
    fn fig8_mcc_disables_fewer() {
        let t = fig8(&smoke());
        for k in [8usize, 16] {
            let fb = t.mean("Wu's model", k).unwrap();
            let mcc = t.mean("MCC", k).unwrap();
            assert!(mcc <= fb + 1e-9, "k={k}: MCC {mcc} > FB {fb}");
        }
    }

    #[test]
    fn fig9_ordering_holds() {
        let t = fig9(&smoke());
        for k in [0usize, 8, 16] {
            let safe = t.mean("safe source", k).unwrap();
            let e1 = t.mean("extension 1 (min)", k).unwrap();
            let e1s = t.mean("extension 1 (sub-min)", k).unwrap();
            let opt = t.mean("existence of a minimal path", k).unwrap();
            assert!(safe <= e1 + 1e-9);
            assert!(e1 <= e1s + 1e-9);
            assert!(e1 <= opt + 1e-9, "k={k}: ext1 {e1} > optimal {opt}");
            // MCC panel dominates the block panel pointwise.
            let safe_mcc = t.mean("safe source (MCC)", k).unwrap();
            assert!(safe <= safe_mcc + 1e-9);
            if k == 0 {
                assert_eq!(safe, 1.0);
                assert_eq!(opt, 1.0);
            }
        }
    }

    #[test]
    fn fig10_segment_ordering() {
        let t = fig10(&smoke());
        for k in [8usize, 16] {
            let s1 = t.mean("extension 2 (1)", k).unwrap();
            let s5 = t.mean("extension 2 (5)", k).unwrap();
            let smax = t.mean("extension 2 (max)", k).unwrap();
            let safe = t.mean("safe source", k).unwrap();
            let opt = t.mean("existence of a minimal path", k).unwrap();
            assert!(smax <= s5 + 0.05 && s5 <= s1 + 0.05, "k={k}");
            assert!(safe <= s1 + 1e-9);
            assert!(s1 <= opt + 1e-9);
        }
    }

    #[test]
    fn fig11_level_ordering() {
        let t = fig11(&smoke());
        for k in [8usize, 16] {
            let l1 = t.mean("extension 3 (level 1)", k).unwrap();
            let l3 = t.mean("extension 3 (level 3)", k).unwrap();
            let opt = t.mean("existence of a minimal path", k).unwrap();
            assert!(l1 <= l3 + 1e-9, "k={k}: level1 {l1} > level3 {l3}");
            assert!(l3 <= opt + 1e-9);
        }
    }

    #[test]
    fn fig12_strategy4_dominates() {
        let t = fig12(&smoke());
        for k in [8usize, 16] {
            let s4 = t.mean("strategy 4 (1+2+3)", k).unwrap();
            let opt = t.mean("existence of a minimal path", k).unwrap();
            for name in ["strategy 1 (1+2)", "strategy 2 (1+3)", "strategy 3 (2+3)"] {
                let v = t.mean(name, k).unwrap();
                assert!(v <= s4 + 1e-9, "k={k}: {name} {v} > strategy4 {s4}");
            }
            assert!(s4 <= opt + 1e-9);
        }
    }
}
