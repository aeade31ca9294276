//! End-to-end tests of the conformance harness itself: the pinned
//! regression for the disagreement the harness uncovered, the shrinking
//! acceptance bound, the repro replay loop, and the DESIGN.md oracle
//! table.

use emr_conform::report::{self, Repro};
use emr_conform::runner::trial_seed;
use emr_conform::{
    check_spec, mirrored_spec, oracle_by_name, run, shrink_for_oracle, CheckCtx, RunConfig,
    ScenarioSpec, ORACLES,
};
use emr_core::{conditions, Model, Scenario};
use emr_mesh::Coord;

/// Pinned regression from the first harness run (master seed
/// `0x00c0_4f04_2d5e_ed00`, trial 12): the MCC quadrant fold is chiral.
///
/// `Quadrant::of` folds an axis-aligned leg onto a fixed labeling type in
/// *both* mirror orientations, while the faithful mirror of a type-one
/// check is a type-two check — so for pairs with `|dy| < 2` (here
/// `(2,7) -> (11,8)` on a 17x16 mesh) the MCC `ext1` minimality verdict
/// legitimately differs between a scenario and its Y-mirror. Both folded
/// answers are individually sound; only the symmetry is lost. The mirror
/// oracle therefore compares MCC verdicts only when `|dx| >= 2 &&
/// |dy| >= 2`.
///
/// If the second assertion ever fails, the fold has become
/// mirror-symmetric and the scope in `pair_verdicts` can be tightened.
#[test]
fn mcc_fold_chirality_pinned_counterexample() {
    let seed = trial_seed(RunConfig::default().master_seed, 12);
    assert_eq!(seed, 8841607203061729842, "seed derivation changed");
    let spec = ScenarioSpec::generate(seed);
    // The wide-side draw, from a stream of its own, must leave this seed
    // narrow.
    assert_eq!((spec.width, spec.height), (17, 16), "pinned seed redrawn");
    let (s, d) = (Coord::new(2, 7), Coord::new(11, 8));
    assert!(
        spec.pairs.contains(&(s, d)),
        "expected pinned pair in {:?}",
        spec.pairs
    );

    // The scoped oracle table accepts the scenario...
    assert_eq!(check_spec(&spec, &CheckCtx::default()), vec![]);

    // ...but the unscoped MCC verdict really is asymmetric under the
    // Y-mirror, which is why the scope exists.
    let mirrored = mirrored_spec(&spec, false, true);
    let ms = Coord::new(s.x, spec.height - 1 - s.y);
    let md = Coord::new(d.x, spec.height - 1 - d.y);
    let verdict = |spec: &ScenarioSpec, s: Coord, d: Coord| {
        let sc = Scenario::build(spec.fault_set());
        let view = sc.view(Model::Mcc);
        matches!(conditions::ext1(&view, s, d), Some(e) if e.is_minimal())
    };
    assert_ne!(
        verdict(&spec, s, d),
        verdict(&mirrored, ms, md),
        "fold became mirror-symmetric; tighten the mirror oracle scope"
    );
}

/// Acceptance bound from the issue: corrupting one oracle must shrink to
/// a counterexample no larger than an 8x8 mesh with at most 4 faults.
#[test]
fn sabotaged_oracle_shrinks_to_tiny_counterexample() {
    let config = RunConfig {
        seeds: 64,
        threads: Some(2),
        sabotage: true,
        ..RunConfig::default()
    };
    let outcome = run(&config);
    let failure = outcome
        .failures
        .first()
        .expect("sabotage must produce failures");
    assert!(failure
        .violations
        .iter()
        .all(|v| v.oracle == "sufficient-implies-dp"));

    let ctx = CheckCtx { sabotage: true };
    let (shrunk, violations) = shrink_for_oracle(&failure.spec, "sufficient-implies-dp", &ctx);
    assert!(!violations.is_empty(), "shrunk spec must still fail");
    assert!(
        shrunk.width <= 8 && shrunk.height <= 8,
        "shrunk mesh {}x{} exceeds 8x8",
        shrunk.width,
        shrunk.height
    );
    assert!(
        shrunk.faults.len() <= 4,
        "shrunk fault count {} exceeds 4",
        shrunk.faults.len()
    );
    assert_eq!(shrunk.pairs.len(), 1, "shrinking should isolate one pair");
}

/// The repro replay loop documented in DESIGN.md: a written repro file
/// reproduces its recorded violations from disk alone.
#[test]
fn repro_files_replay_from_disk() {
    let ctx = CheckCtx { sabotage: true };
    let config = RunConfig {
        seeds: 48,
        threads: Some(1),
        sabotage: true,
        ..RunConfig::default()
    };
    let failure = run(&config).failures.into_iter().next().unwrap();
    let oracle = failure.violations[0].oracle.clone();
    let (shrunk, violations) = shrink_for_oracle(&failure.spec, &oracle, &ctx);

    let dir = std::env::temp_dir().join("emr_conform_harness_replay");
    let repro = Repro {
        oracle: oracle.clone(),
        master_seed: config.master_seed,
        trial: failure.trial,
        seed: failure.seed,
        original: failure.spec,
        shrunk,
        violations,
    };
    let path = report::write_repro(&dir, &repro).unwrap();
    let back = report::read_repro(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(back, repro);
    // Replaying the stored shrunk spec reproduces the stored violations.
    let oracle = oracle_by_name(&back.oracle).expect("oracle still exists");
    let replayed = emr_conform::check_oracle(oracle, &back.shrunk, &ctx);
    assert_eq!(replayed, back.violations);
    // The generator still expands the recorded seed to the original spec.
    assert_eq!(ScenarioSpec::generate(back.seed), back.original);
}

/// DESIGN.md § Conformance documents the oracle table: one
/// ``| `name` |`` row per entry of [`ORACLES`], and no row for an oracle
/// that does not exist.
#[test]
fn design_conformance_table_names_every_oracle() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md");
    let design = std::fs::read_to_string(&path).expect("DESIGN.md is readable");
    let section = design
        .split_once("\n## Conformance\n")
        .expect("DESIGN.md has a Conformance section")
        .1;
    let section = section.split("\n## ").next().unwrap_or(section);
    let rows: Vec<&str> = section
        .lines()
        .filter_map(|line| Some(line.strip_prefix("| `")?.split_once("` |")?.0))
        .collect();
    for oracle in ORACLES {
        assert!(
            rows.contains(&oracle.name),
            "DESIGN.md § Conformance has no row for oracle `{}`",
            oracle.name
        );
    }
    for row in rows {
        assert!(
            ORACLES.iter().any(|o| o.name == row),
            "DESIGN.md § Conformance has a row for `{row}`, which names no oracle"
        );
    }
}
