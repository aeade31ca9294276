//! Machine-readable run reports and self-contained reproduction files.
//!
//! A failing run writes one JSON repro per shrunk counterexample to
//! `results/conform/`; every run writes an aggregate report
//! (`results/conform/BENCH_conform.json` by default).
//! A repro file is self-contained: the shrunk [`ScenarioSpec`] is stored
//! explicitly, so it replays with [`crate::oracles::check_spec`] even if
//! the generator's seed expansion changes later.

use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::oracles::Violation;
use crate::spec::ScenarioSpec;

/// A self-contained reproduction of one conformance failure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Repro {
    /// The failing oracle.
    pub oracle: String,
    /// Master seed of the run that found it.
    pub master_seed: u64,
    /// Trial index within that run.
    pub trial: u32,
    /// The derived scenario seed (regenerates `original`).
    pub seed: u64,
    /// The generated spec that first failed.
    pub original: ScenarioSpec,
    /// The shrunk spec (replay this one).
    pub shrunk: ScenarioSpec,
    /// The oracle's violations on the shrunk spec.
    pub violations: Vec<Violation>,
}

/// Per-oracle violation tally.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleTally {
    /// Oracle name.
    pub oracle: String,
    /// Violations across the run (before shrinking).
    pub violations: u64,
}

/// The aggregate report of one conformance run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConformReport {
    /// Master seed.
    pub master_seed: u64,
    /// Scenarios checked.
    pub seeds: u32,
    /// Worker threads used.
    pub threads: usize,
    /// Whether the run deliberately corrupted an oracle.
    pub sabotage: bool,
    /// Total violations (before shrinking).
    pub violations: u64,
    /// Violations grouped by oracle (only oracles that fired).
    pub per_oracle: Vec<OracleTally>,
    /// Scenario seeds of the failing trials.
    pub failing_seeds: Vec<u64>,
    /// Repro files written (relative or absolute paths as configured).
    pub repro_files: Vec<String>,
}

/// The repro filename for a trial/oracle pair.
pub fn repro_file_name(trial: u32, oracle: &str) -> String {
    format!("repro_trial{trial}_{oracle}.json")
}

/// Writes one repro as pretty JSON under `dir` (created if missing) and
/// returns the file path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_repro(dir: &Path, repro: &Repro) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(repro_file_name(repro.trial, &repro.oracle));
    let json = serde_json::to_string_pretty(repro).expect("repro serializes");
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Reads a repro file back.
///
/// # Errors
///
/// Propagates filesystem errors; malformed JSON maps to
/// [`io::ErrorKind::InvalidData`].
pub fn read_repro(path: &Path) -> io::Result<Repro> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Writes the aggregate report as pretty JSON, creating its directory if
/// missing.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_report(path: &Path, report: &ConformReport) -> io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let json = serde_json::to_string_pretty(report).expect("report serializes");
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_repro() -> Repro {
        let original = ScenarioSpec::generate(11);
        let mut shrunk = original.clone();
        shrunk.pairs.truncate(1);
        Repro {
            oracle: "dp-vs-bfs".to_string(),
            master_seed: 1,
            trial: 4,
            seed: 11,
            original,
            shrunk,
            violations: vec![Violation {
                oracle: "dp-vs-bfs".to_string(),
                detail: "example".to_string(),
            }],
        }
    }

    #[test]
    fn repro_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join("emr_conform_test_repro");
        let repro = sample_repro();
        let path = write_repro(&dir, &repro).unwrap();
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "repro_trial4_dp-vs-bfs.json"
        );
        let back = read_repro(&path).unwrap();
        assert_eq!(back, repro);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = ConformReport {
            master_seed: 7,
            seeds: 100,
            threads: 4,
            sabotage: false,
            violations: 0,
            per_oracle: vec![],
            failing_seeds: vec![],
            repro_files: vec![],
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: ConformReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
