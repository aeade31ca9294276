//! The conformance sweep binary.
//!
//! ```text
//! conformance --seeds 1000 --threads 8
//! ```
//!
//! Generates `--seeds` random scenarios from `--master-seed`, checks the
//! full oracle table on each, shrinks up to `--max-shrink` failures to
//! minimal counterexamples (written to `--out-dir` as self-contained JSON
//! repros), and writes an aggregate report to `--report` (default
//! `results/conform/BENCH_conform.json`). Exits non-zero
//! when any oracle was violated, so CI can gate on it. `--sabotage`
//! deliberately corrupts one oracle's ground-truth comparison to
//! demonstrate the shrinking machinery end to end.

use std::collections::BTreeMap;
use std::path::PathBuf;

use emr_conform::report::{self, ConformReport, OracleTally, Repro};
use emr_conform::{runner, shrink, CheckCtx, RunConfig, ScenarioSpec};

struct Options {
    run: RunConfig,
    out_dir: PathBuf,
    report_path: PathBuf,
    max_shrink: usize,
}

fn parse_options(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        run: RunConfig::default(),
        out_dir: PathBuf::from("results/conform"),
        report_path: PathBuf::from("results/conform/BENCH_conform.json"),
        max_shrink: 5,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--seeds" => {
                opts.run.seeds = value("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?;
                if opts.run.seeds == 0 {
                    return Err("--seeds must be at least 1".to_string());
                }
            }
            "--threads" => {
                let n: usize = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                opts.run.threads = Some(n);
            }
            "--master-seed" => {
                opts.run.master_seed = value("--master-seed")?
                    .parse()
                    .map_err(|e| format!("--master-seed: {e}"))?
            }
            "--sabotage" => opts.run.sabotage = true,
            "--out-dir" => opts.out_dir = PathBuf::from(value("--out-dir")?),
            "--report" => opts.report_path = PathBuf::from(value("--report")?),
            "--max-shrink" => {
                opts.max_shrink = value("--max-shrink")?
                    .parse()
                    .map_err(|e| format!("--max-shrink: {e}"))?
            }
            "--help" | "-h" => {
                return Err("flags: --seeds N --threads T --master-seed S --sabotage \
                            --out-dir DIR --report FILE --max-shrink K"
                    .to_string())
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_options(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    // Oracle panics are caught and reported as violations; keep the
    // default hook from spamming a backtrace per caught panic (shrinking
    // replays the failing check hundreds of times).
    std::panic::set_hook(Box::new(|_| {}));

    let outcome = runner::run(&opts.run);
    let _ = std::panic::take_hook();

    let ctx = CheckCtx {
        sabotage: opts.run.sabotage,
    };
    let mut per_oracle: BTreeMap<String, u64> = BTreeMap::new();
    for failure in &outcome.failures {
        for v in &failure.violations {
            *per_oracle.entry(v.oracle.clone()).or_default() += 1;
        }
    }
    let total_violations: u64 = per_oracle.values().sum();

    let mut repro_files = Vec::new();
    for failure in outcome.failures.iter().take(opts.max_shrink) {
        // One repro per distinct failing oracle of this trial.
        let mut oracles: Vec<&str> = failure
            .violations
            .iter()
            .map(|v| v.oracle.as_str())
            .collect();
        oracles.sort_unstable();
        oracles.dedup();
        for oracle in oracles {
            let (shrunk, violations) = shrink::shrink_for_oracle(&failure.spec, oracle, &ctx);
            let repro = Repro {
                oracle: oracle.to_string(),
                master_seed: opts.run.master_seed,
                trial: failure.trial,
                seed: failure.seed,
                original: failure.spec.clone(),
                shrunk,
                violations,
            };
            match report::write_repro(&opts.out_dir, &repro) {
                Ok(path) => {
                    eprintln!(
                        "shrunk trial {} oracle {oracle} to {}x{} mesh, {} faults, {} pairs: {}",
                        failure.trial,
                        repro.shrunk.width,
                        repro.shrunk.height,
                        repro.shrunk.faults.len(),
                        repro.shrunk.pairs.len(),
                        path.display()
                    );
                    repro_files.push(path.display().to_string());
                }
                Err(e) => eprintln!("failed to write repro: {e}"),
            }
        }
    }

    let report = ConformReport {
        master_seed: opts.run.master_seed,
        seeds: outcome.checked,
        threads: opts.run.threads.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }),
        sabotage: opts.run.sabotage,
        violations: total_violations,
        per_oracle: per_oracle
            .into_iter()
            .map(|(oracle, violations)| OracleTally { oracle, violations })
            .collect(),
        failing_seeds: outcome.failures.iter().map(|f| f.seed).collect(),
        repro_files,
    };
    if let Err(e) = report::write_report(&opts.report_path, &report) {
        eprintln!("failed to write {}: {e}", opts.report_path.display());
        std::process::exit(2);
    }

    let word_crossing = (0..opts.run.seeds)
        .filter(|&t| {
            ScenarioSpec::generate(runner::trial_seed(opts.run.master_seed, t)).crosses_word()
        })
        .count();
    println!(
        "conformance: {} scenarios ({word_crossing} cross a word), {} violations in {} failing trials -> {}",
        report.seeds,
        report.violations,
        report.failing_seeds.len(),
        opts.report_path.display()
    );
    for tally in &report.per_oracle {
        println!("  {}: {}", tally.oracle, tally.violations);
    }
    if report.violations > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Options, String> {
        parse_options(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn zero_seeds_or_threads_are_rejected() {
        for flag in ["--seeds", "--threads"] {
            let err = parse(&[flag, "0"]).err().expect(flag);
            assert!(err.contains("at least 1"), "{err}");
            assert!(parse(&[flag, "1"]).is_ok(), "{flag} 1");
        }
    }
}
