//! Facade-level smoke of the cross-layer conformance harness: a short
//! clean sweep finds no violations, and the sweep's determinism holds at
//! the workspace boundary (the CI job runs the full 1000-seed version).
//! Goes through the facade re-export on purpose — `emr2d::conform` is the
//! supported path to the harness.

use emr2d::conform::{run, RunConfig};

#[test]
fn short_conformance_sweep_is_clean_and_deterministic() {
    let config = RunConfig {
        seeds: 24,
        threads: Some(2),
        ..RunConfig::default()
    };
    let outcome = run(&config);
    assert_eq!(outcome.checked, 24);
    assert!(
        outcome.failures.is_empty(),
        "cross-layer violations: {:?}",
        outcome.failures
    );
    let again = run(&RunConfig {
        threads: Some(1),
        ..config
    });
    assert_eq!(outcome, again, "sweep depends on thread count");
}
