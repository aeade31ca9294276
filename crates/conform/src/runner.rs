//! The multi-threaded conformance sweep.
//!
//! # Parallelism and determinism
//!
//! The trials run on the `emr-analysis` trial pool ([`emr_analysis::pool`])
//! in fixed chunks of 16, each from a scenario seed derived from its trial
//! index alone, and the failures come back in the pool's chunk order, so
//! the outcome is byte-identical for any `--threads` setting.

use crate::oracles::{check_spec, CheckCtx, Violation};
use crate::spec::{derive_seed, ScenarioSpec};

/// Trials per pool chunk. Small enough to balance across threads, large
/// enough to amortize the atomic fetch.
const CHUNK_TRIALS: u32 = 16;

/// Stream index reserved for per-trial seed derivation (streams 0–2 are
/// used inside scenario expansion and the metamorphic oracles).
const TRIAL_STREAM: usize = 3;

/// Configuration of one conformance run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Master seed; every trial's scenario seed is derived from it.
    pub master_seed: u64,
    /// Number of scenarios to generate and check.
    pub seeds: u32,
    /// Worker threads (`None` = one per core).
    pub threads: Option<usize>,
    /// Corrupt the DP comparison to demonstrate shrinking (never in CI).
    pub sabotage: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            master_seed: 0x00c0_4f04_2d5e_ed00,
            seeds: 200,
            threads: None,
            sabotage: false,
        }
    }
}

/// One failing trial: which scenario and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedOutcome {
    /// Trial index within the run.
    pub trial: u32,
    /// The derived scenario seed ([`ScenarioSpec::generate`] input).
    pub seed: u64,
    /// The spec that failed.
    pub spec: ScenarioSpec,
    /// Every oracle violation on this spec.
    pub violations: Vec<Violation>,
}

/// The outcome of a conformance run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Scenarios checked.
    pub checked: u32,
    /// Failing trials in ascending trial order.
    pub failures: Vec<SeedOutcome>,
}

/// The scenario seed of one trial.
pub fn trial_seed(master_seed: u64, trial: u32) -> u64 {
    derive_seed(master_seed, TRIAL_STREAM, trial)
}

fn check_trial(config: &RunConfig, ctx: &CheckCtx, trial: u32) -> Option<SeedOutcome> {
    let seed = trial_seed(config.master_seed, trial);
    let spec = ScenarioSpec::generate(seed);
    let violations = check_spec(&spec, ctx);
    if violations.is_empty() {
        return None;
    }
    Some(SeedOutcome {
        trial,
        seed,
        spec,
        violations,
    })
}

/// Runs the sweep. Deterministic in everything but wall-clock: the same
/// `(master_seed, seeds, sabotage)` produce the same [`RunOutcome`] for
/// any thread count.
pub fn run(config: &RunConfig) -> RunOutcome {
    let ctx = CheckCtx {
        sabotage: config.sabotage,
    };
    let chunks = emr_analysis::pool(
        1,
        config.seeds,
        CHUNK_TRIALS,
        config.threads,
        |_, trials| {
            trials
                .filter_map(|t| check_trial(config, &ctx, t))
                .collect::<Vec<_>>()
        },
    );
    RunOutcome {
        checked: config.seeds,
        failures: chunks.into_iter().flat_map(|(_, f)| f).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_is_thread_count_independent() {
        let base = RunConfig {
            seeds: 48,
            sabotage: true, // Guarantees some failures to compare.
            ..RunConfig::default()
        };
        let single = run(&RunConfig {
            threads: Some(1),
            ..base.clone()
        });
        for t in [2, 4, 7] {
            let multi = run(&RunConfig {
                threads: Some(t),
                ..base.clone()
            });
            assert_eq!(single, multi, "threads={t} diverged");
        }
    }

    #[test]
    fn clean_run_has_no_failures() {
        let outcome = run(&RunConfig {
            seeds: 32,
            threads: Some(2),
            ..RunConfig::default()
        });
        assert_eq!(outcome.checked, 32);
        assert!(
            outcome.failures.is_empty(),
            "violations: {:?}",
            outcome.failures
        );
    }
}
