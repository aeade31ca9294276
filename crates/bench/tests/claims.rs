//! The paper's numeric claims (§5) as a gate.
//!
//! Each figure function runs at the paper's setup (200×200 mesh, 1000
//! trials, the default seed), but only at the fault counts a claim names.
//! A trial's RNG is keyed by (seed, k, trial), so these rows equal the
//! full tables in `results/`.
//!
//! A proportion claim "≥ t" is *met* when its 99% Wilson interval lies
//! above t, *consistent* when the interval contains t, and *refuted* when
//! it lies below t. Claims about means or orderings have no interval:
//! they are met or refuted. A test fails on any refuted claim; run with
//! `--nocapture` to print every verdict.

use emr_analysis::{SeriesTable, SweepConfig};
use emr_bench::figures;

/// The two-sided 99% normal quantile.
const Z99: f64 = 2.575_829_303_548_901;

/// The paper's setup, evaluated at `fault_counts` only.
fn paper(fault_counts: &[usize]) -> SweepConfig {
    SweepConfig {
        fault_counts: fault_counts.to_vec(),
        ..SweepConfig::default()
    }
}

/// The Wilson score interval at [`Z99`] of a proportion `p` over `n`
/// trials.
fn wilson(p: f64, n: f64) -> (f64, f64) {
    let z2 = Z99 * Z99;
    let centre = (p + z2 / (2.0 * n)) / (1.0 + z2 / n);
    let half = Z99 / (1.0 + z2 / n) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    (centre - half, centre + half)
}

/// One figure's verdicts, printed together when judging ends.
struct Verdicts {
    trials: f64,
    lines: Vec<String>,
    refuted: Vec<String>,
}

impl Verdicts {
    fn new(cfg: &SweepConfig) -> Verdicts {
        Verdicts {
            trials: f64::from(cfg.trials),
            lines: Vec::new(),
            refuted: Vec::new(),
        }
    }

    fn record(&mut self, claim: String, verdict: &str) {
        self.lines.push(format!("{verdict:>10}  {claim}"));
        if verdict == "refuted" {
            self.refuted.push(claim);
        }
    }

    /// "`series` at `k` faults ≥ `t`", judged on its Wilson interval.
    fn at_least(&mut self, table: &SeriesTable, series: &str, k: usize, t: f64) {
        let p = mean(table, series, k);
        let (lo, hi) = wilson(p, self.trials);
        let verdict = if lo > t {
            "met"
        } else if hi >= t {
            "consistent"
        } else {
            "refuted"
        };
        self.record(
            format!("{series} at k = {k}: {p:.3} [{lo:.3}, {hi:.3}] >= {t}"),
            verdict,
        );
    }

    /// A claim without an interval: it holds or it is refuted.
    fn holds(&mut self, claim: String, ok: bool) {
        self.record(claim, if ok { "met" } else { "refuted" });
    }

    fn finish(self) {
        println!("{}", self.lines.join("\n"));
        assert!(self.refuted.is_empty(), "refuted: {:#?}", self.refuted);
    }
}

fn mean(table: &SeriesTable, series: &str, k: usize) -> f64 {
    table
        .mean(series, k)
        .unwrap_or_else(|| panic!("no {series} at k = {k}"))
}

#[test]
fn fig7_affected_rows_match_the_paper_and_the_model() {
    let cfg = paper(&[50, 100, 200]);
    let table = figures::fig7(&cfg);
    let mut verdicts = Verdicts::new(&cfg);
    // "about 20% when faults reach 50", "40% … 100", "60% … 200".
    for (k, paper) in [(50, 0.20), (100, 0.40), (200, 0.60)] {
        let rows = mean(&table, "simulated rows", k);
        let model = mean(&table, "analytical", k);
        verdicts.holds(
            format!("simulated rows at k = {k}: {rows:.4} within 0.05 of {paper}"),
            (rows - paper).abs() <= 0.05,
        );
        verdicts.holds(
            format!("simulated rows at k = {k}: {rows:.4} within 0.01 of the model's {model:.4}"),
            (rows - model).abs() <= 0.01,
        );
    }
    verdicts.finish();
}

#[test]
fn fig9_safe_condition_and_extension_1_at_30_faults() {
    let cfg = paper(&[30]);
    let table = figures::fig9(&cfg);
    let mut verdicts = Verdicts::new(&cfg);
    // "90% by the sufficient safe condition and 99% by extension 1".
    verdicts.at_least(&table, "safe source", 30, 0.90);
    verdicts.at_least(&table, "extension 1 (min)", 30, 0.99);
    verdicts.finish();
}

#[test]
fn fig10_extension_2_with_full_axis_information() {
    let cfg = paper(&[200]);
    let table = figures::fig10(&cfg);
    let mut verdicts = Verdicts::new(&cfg);
    // "≥ 94%" with segment size 1, up to 200 faults.
    verdicts.at_least(&table, "extension 2 (1)", 200, 0.94);
    verdicts.finish();
}

#[test]
fn fig12_combined_strategies() {
    let cfg = paper(&[150, 200]);
    let table = figures::fig12(&cfg);
    let mut verdicts = Verdicts::new(&cfg);
    // "most of cases (> 95%) have a minimal path by using strategy 1".
    verdicts.at_least(&table, "strategy 1 (1+2)", 150, 0.95);
    // "routing strategy 4 has the maximum percentage".
    for k in [150, 200] {
        let s4 = mean(&table, "strategy 4 (1+2+3)", k);
        for other in ["strategy 1 (1+2)", "strategy 2 (1+3)", "strategy 3 (2+3)"] {
            let v = mean(&table, other, k);
            verdicts.holds(
                format!("strategy 4 at k = {k}: {s4:.3} >= {other}'s {v:.3}"),
                s4 >= v,
            );
        }
    }
    // A minimal path "for over 97.5% cases as long as the number of
    // faults stays within 200".
    verdicts.at_least(&table, "strategy 4 (1+2+3)", 200, 0.975);
    verdicts.finish();
}
