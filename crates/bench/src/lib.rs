//! Figure-reproduction measurements and the tiny CLI shared by the `fig*`
//! binaries.
//!
//! Each function in [`figures`] regenerates one figure of the paper's
//! evaluation as an [`emr_analysis::SeriesTable`]; the corresponding binary
//! (`cargo run --release -p emr-bench --bin fig9`) prints it. See
//! `EXPERIMENTS.md` for the recorded outputs and the paper-vs-measured
//! comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod figures;

use emr_analysis::SweepConfig;
use emr_serve::store::MAX_MESH_NODES;

/// Command-line options shared by the figure binaries.
///
/// Flags: `--trials N`, `--size N`, `--step N`, `--max-faults N`,
/// `--seed N`, `--threads N` (sweep worker threads; default one per
/// core), `--smoke` (tiny fast run), `--csv` (CSV instead of an aligned
/// table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliOptions {
    /// The sweep configuration assembled from the flags.
    pub config: SweepConfig,
    /// Emit CSV instead of aligned text.
    pub csv: bool,
}

impl CliOptions {
    /// Parses the binaries' flags from an argument iterator (excluding the
    /// program name).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown flags, malformed
    /// numbers, `--trials 0` (every measured rate would read 0), a
    /// `--size` below 3 (the source's first-quadrant submesh would hold no
    /// destination) or above the serve layer's [`MAX_MESH_NODES`] cap,
    /// and fault counts that leave at most the source healthy.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<CliOptions, String> {
        let mut config = SweepConfig::default();
        let mut step = 10usize;
        let mut max_faults = 200usize;
        let mut csv = false;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut take = |name: &str| -> Result<u64, String> {
                args.next()
                    .ok_or_else(|| format!("{name} needs a value"))?
                    .parse::<u64>()
                    .map_err(|e| format!("{name}: {e}"))
            };
            match arg.as_str() {
                "--trials" => {
                    config.trials = u32::try_from(take("--trials")?)
                        .map_err(|e| format!("--trials: {e}"))?;
                }
                "--threads" => {
                    let n = take("--threads")? as usize;
                    if n == 0 {
                        return Err("--threads must be at least 1".to_string());
                    }
                    config.threads = Some(n);
                }
                "--size" => {
                    config.mesh_size = i32::try_from(take("--size")?)
                        .map_err(|e| format!("--size: {e}"))?;
                }
                "--seed" => config.seed = take("--seed")?,
                "--step" => step = take("--step")? as usize,
                "--max-faults" => max_faults = take("--max-faults")? as usize,
                "--smoke" => {
                    config = SweepConfig::smoke();
                    step = 10;
                    max_faults = *config.fault_counts.last().unwrap_or(&0);
                }
                "--csv" => csv = true,
                "--help" | "-h" => {
                    return Err(
                        "flags: --trials N --size N --step N --max-faults N --seed N --threads N --smoke --csv"
                            .to_string(),
                    )
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        config.fault_counts = (0..=max_faults).step_by(step.max(1)).collect();
        if config.trials == 0 {
            return Err("--trials must be at least 1".to_string());
        }
        let side = config.mesh_size;
        if side < 3 {
            return Err(format!("--size {side}: the mesh side must be at least 3"));
        }
        let nodes = u64::from(side.unsigned_abs()).pow(2);
        if nodes > MAX_MESH_NODES.unsigned_abs() {
            return Err(format!(
                "--size {side}: {nodes} nodes exceed the cap of {MAX_MESH_NODES}"
            ));
        }
        if let Some(&k) = config.fault_counts.last() {
            if k as u64 >= nodes - 1 {
                return Err(format!(
                    "{k} faults leave no destination on a {side}x{side} mesh (at most {})",
                    nodes - 2
                ));
            }
        }
        Ok(CliOptions { config, csv })
    }

    /// Parses from the process arguments, exiting with a message on error.
    pub fn from_env() -> CliOptions {
        match CliOptions::parse(std::env::args().skip(1)) {
            Ok(opts) => opts,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Prints a table per the selected output format.
    pub fn emit(&self, table: &emr_analysis::SeriesTable) {
        let mut out = std::io::stdout().lock();
        let result = if self.csv {
            table.write_csv(&mut out)
        } else {
            table.write_plain(&mut out)
        };
        result.expect("writing to stdout");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<CliOptions, String> {
        CliOptions::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_match_paper_setup() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts.config.mesh_size, 200);
        assert_eq!(opts.config.trials, 1000);
        assert_eq!(opts.config.fault_counts.len(), 21);
        assert!(!opts.csv);
    }

    #[test]
    fn flags_override() {
        let opts = parse(&[
            "--trials",
            "50",
            "--size",
            "60",
            "--step",
            "20",
            "--max-faults",
            "100",
            "--csv",
            "--threads",
            "4",
        ])
        .unwrap();
        assert_eq!(opts.config.trials, 50);
        assert_eq!(opts.config.mesh_size, 60);
        assert_eq!(opts.config.fault_counts, vec![0, 20, 40, 60, 80, 100]);
        assert_eq!(opts.config.threads, Some(4));
        assert!(opts.csv);
    }

    #[test]
    fn threads_zero_is_rejected() {
        assert!(parse(&["--threads", "0"]).is_err());
        assert_eq!(parse(&[]).unwrap().config.threads, None);
    }

    #[test]
    fn trials_zero_is_rejected() {
        for words in [&["--trials", "0"][..], &["--smoke", "--trials", "0"]] {
            let err = parse(words).unwrap_err();
            assert!(err.contains("--trials"), "{err}");
        }
        assert!(parse(&["--smoke", "--trials", "1"]).is_ok());
    }

    #[test]
    fn meshes_above_the_node_cap_are_rejected() {
        let err = parse(&["--size", "100000", "--trials", "1", "--max-faults", "0"]).unwrap_err();
        assert!(err.contains("exceed"), "{err}");
        // 4097² is one row and column past the 4096² cap.
        assert!(parse(&["--size", "4097", "--max-faults", "0"]).is_err());
        assert!(parse(&["--size", "4096", "--max-faults", "0"]).is_ok());
    }

    #[test]
    fn smoke_flag() {
        let opts = parse(&["--smoke"]).unwrap();
        assert!(opts.config.mesh_size < 200);
        assert!(opts.config.trials < 1000);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--trials"]).is_err());
        assert!(parse(&["--trials", "abc"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }

    #[test]
    fn meshes_without_a_destination_are_rejected() {
        for size in ["0", "1", "2"] {
            let err = parse(&["--size", size, "--max-faults", "0"]).unwrap_err();
            assert!(err.contains("at least 3"), "{err}");
        }
        assert!(parse(&["--size", "3", "--max-faults", "0"]).is_ok());
    }

    #[test]
    fn fault_counts_that_leave_only_the_source_are_rejected() {
        let err = parse(&["--size", "10", "--step", "1", "--max-faults", "99"]).unwrap_err();
        assert!(err.contains("99 faults"), "{err}");
        assert!(parse(&["--size", "10", "--step", "1", "--max-faults", "98"]).is_ok());
        // The default sweep reaches 200 faults, more than a 14x14 mesh holds.
        assert!(parse(&["--size", "14"]).is_err());
        assert!(parse(&["--size", "15"]).is_ok());
    }
}
