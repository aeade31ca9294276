//! `benchmark compare`: two sets of run records, a parent's and a
//! change's, judged metric by metric against the bounds in
//! `BENCHMARK.json`.
//!
//! Per workload and end-to-end metric: each side's median and quartiles,
//! the change's win count over runs paired in record order, and one
//! verdict. A metric whose parent spread (quartile distance over median)
//! exceeds its bound is unresolved unless every change run beats every
//! parent run. Otherwise it is worse when the change's median is worse by
//! more than the bound, better when the change wins at least nine pairs
//! in ten and the medians differ by more than the parent's quartile
//! distance, and within bound in every other case. `setup_s` always
//! gets at least [`SETUP_FLOOR_S`] of slack.
//!
//! The comparison fails when any metric is worse, when any run on either
//! side failed an output check, when a workload or metric the parent
//! reports is missing from the change, or when the parent has no records.

use std::collections::BTreeMap;

use serde::Value;

use crate::stats::{median, quartiles};

/// The judgement on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The absolute slack `setup_s` always gets, in seconds: set-ups of a
/// few milliseconds move by more than any share of themselves.
const SETUP_FLOOR_S: f64 = 0.02;

/// One end-to-end metric's direction and bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_better: bool,
    /// Share of the parent's median.
    pub limit: f64,
    /// Absolute slack in the metric's unit; the larger of the two holds.
    pub floor: f64,
}

impl Bound {
    fn slack(&self, parent_median: f64) -> f64 {
        (self.limit * parent_median.abs()).max(self.floor)
    }
}

/// Judges `change` against `parent` (run values, paired by index).
pub fn verdict(parent: &[f64], change: &[f64], b: &Bound) -> Verdict {
    let beats = |c: f64, p: f64| if b.higher_better { c > p } else { c < p };
    let (mp, mc) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let spread = q3 - q1;
    let slack = b.slack(mp);
    if spread > slack {
        let all_better = change.iter().all(|&c| parent.iter().all(|&p| beats(c, p)));
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = if b.higher_better { mp - mc } else { mc - mp };
    if worse_by > slack {
        return Verdict::Worse;
    }
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| beats(c, p))
        .count();
    if pairs > 0 && wins * 10 >= pairs * 9 && beats(mc, mp) && (mc - mp).abs() > spread {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// The end-to-end bounds listed in a `BENCHMARK.json`.
pub fn bounds_from(json: &str) -> Result<Vec<Bound>, String> {
    let v: Value = serde_json::from_str(json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let field = |m: &[(String, Value)], k: &str| {
        m.iter()
            .find(|(name, _)| name == k)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| format!("BENCHMARK.json: missing {k}"))
    };
    let top = v.as_map().ok_or("BENCHMARK.json: not an object")?;
    let list = field(top, "end_to_end")?;
    list.as_seq()
        .ok_or("BENCHMARK.json: end_to_end is not a list")?
        .iter()
        .map(|m| {
            let m = m
                .as_map()
                .ok_or("BENCHMARK.json: metric is not an object")?;
            let name = field(m, "name")?.as_str().unwrap_or_default().to_string();
            Ok(Bound {
                higher_better: field(m, "better")?.as_str() == Some("higher"),
                limit: field(m, "bound")?.as_f64().unwrap_or(0.0),
                floor: if name == "setup_s" {
                    SETUP_FLOOR_S
                } else {
                    0.0
                },
                name,
            })
        })
        .collect()
}

/// One workload's untraced records from one side.
#[derive(Debug, Default, PartialEq)]
pub struct Records {
    /// Metric → values in record order.
    pub metrics: BTreeMap<String, Vec<f64>>,
    /// Runs.
    pub runs: usize,
    /// Runs that failed an output check (`failed > 0` or not `correct`).
    pub failed_runs: usize,
}

/// Untraced run records by workload.
type Runs = BTreeMap<String, Records>;

/// Reads the untraced records of a JSONL file.
pub fn runs_from(jsonl: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (i, line) in jsonl
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let m = v.as_map().ok_or(format!("line {}: not an object", i + 1))?;
        let get = |k: &str| m.iter().find(|(name, _)| name == k).map(|(_, v)| v);
        if get("trace") == Some(&Value::Bool(true)) {
            continue;
        }
        let workload = get("workload").and_then(Value::as_str).unwrap_or_default();
        let failed = get("failed").and_then(Value::as_f64).unwrap_or(1.0);
        let correct = get("correct") == Some(&Value::Bool(true));
        let metrics = get("metrics").and_then(Value::as_map).unwrap_or_default();
        let slot = runs.entry(workload.to_string()).or_default();
        slot.runs += 1;
        slot.failed_runs += usize::from(failed != 0.0 || !correct);
        for (name, value) in metrics {
            if let Some(x) = value.as_f64() {
                slot.metrics.entry(name.clone()).or_default().push(x);
            }
        }
    }
    Ok(runs)
}

/// Prints the comparison; returns whether the change fails it: a metric
/// got worse, a run on either side failed an output check, a workload or
/// metric the parent has is missing from the change, or the parent has
/// no records at all.
pub fn report(parent: &Runs, change: &Runs, bounds: &[Bound]) -> bool {
    println!(
        "{:<12} {:<18} {:>28} {:>28} {:>8} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "wins"
    );
    let mut fails = parent.is_empty();
    if fails {
        println!("(no untraced parent records)");
    }
    for (side, runs) in [("parent", parent), ("change", change)] {
        for (workload, r) in runs.iter().filter(|(_, r)| r.failed_runs > 0) {
            println!(
                "{workload:<12} {side}: {} of {} runs failed an output check",
                r.failed_runs, r.runs
            );
            fails = true;
        }
    }
    for workload in change.keys().filter(|w| !parent.contains_key(*w)) {
        println!("{workload:<12} (no parent records)");
    }
    for (workload, p_side) in parent {
        let Some(c_side) = change.get(workload) else {
            println!("{workload:<12} missing from the change");
            fails = true;
            continue;
        };
        for b in bounds {
            let Some(p) = p_side.metrics.get(&b.name) else {
                continue;
            };
            let Some(c) = c_side.metrics.get(&b.name) else {
                println!("{workload:<12} {:<18} missing from the change", b.name);
                fails = true;
                continue;
            };
            let v = verdict(p, c, b);
            fails |= v == Verdict::Worse;
            let side = |x: &[f64]| {
                let (q1, q3) = quartiles(x);
                format!("{:.4} [{q1:.4}, {q3:.4}]", median(x))
            };
            let wins = p
                .iter()
                .zip(c)
                .filter(|&(&pv, &cv)| if b.higher_better { cv > pv } else { cv < pv })
                .count();
            println!(
                "{workload:<12} {:<18} {:>28} {:>28} {:>+7.1}% {:>3}/{:<2}  {}",
                b.name,
                side(p),
                side(c),
                100.0 * (median(c) / median(p) - 1.0),
                wins,
                p.len().min(c.len()),
                v.label()
            );
        }
    }
    fails
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEADY: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
    ];

    fn scaled(f: f64) -> Vec<f64> {
        STEADY.iter().map(|x| x * f).collect()
    }

    fn bound(name: &str, higher_better: bool, limit: f64, floor: f64) -> Bound {
        Bound {
            name: name.into(),
            higher_better,
            limit,
            floor,
        }
    }

    fn higher() -> Bound {
        bound("throughput_per_s", true, 0.1, 0.0)
    }

    fn lower() -> Bound {
        bound("op_p50_us", false, 0.1, 0.0)
    }

    #[test]
    fn same_runs_are_within_bound() {
        assert_eq!(verdict(&STEADY, &STEADY, &higher()), Verdict::WithinBound);
    }

    #[test]
    fn small_consistent_gain_is_better() {
        // 5% faster on every pair: a gain, well within any bound.
        assert_eq!(verdict(&STEADY, &scaled(1.05), &higher()), Verdict::Better);
        assert_eq!(verdict(&STEADY, &scaled(0.95), &lower()), Verdict::Better);
    }

    #[test]
    fn drop_beyond_bound_is_worse() {
        assert_eq!(verdict(&STEADY, &scaled(0.85), &higher()), Verdict::Worse);
        assert_eq!(verdict(&STEADY, &scaled(1.15), &lower()), Verdict::Worse);
        // Within the bound but consistently slower: not better, not worse.
        assert_eq!(
            verdict(&STEADY, &scaled(0.95), &higher()),
            Verdict::WithinBound
        );
    }

    #[test]
    fn noisy_parent_is_unresolved_unless_dominated() {
        let noisy = [
            50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0,
        ];
        assert_eq!(verdict(&noisy, &STEADY, &higher()), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &scaled(2.0), &higher()), Verdict::Better);
    }

    #[test]
    fn setup_floor_absorbs_millisecond_noise() {
        // 2 ms set-ups that vary by half and double: within 20 ms.
        let parent = [0.002, 0.001, 0.003, 0.002, 0.0015];
        let change = [0.004, 0.003, 0.002, 0.004, 0.0035];
        let setup = bound("setup_s", false, 0.1, SETUP_FLOOR_S);
        assert_eq!(verdict(&parent, &change, &setup), Verdict::WithinBound);
        // 30 ms more is worse.
        let slower: Vec<f64> = parent.iter().map(|x| x + 0.03).collect();
        assert_eq!(verdict(&parent, &slower, &setup), Verdict::Worse);
    }

    fn record(workload: &str, trace: bool, failed: u64, correct: bool, tput: &str) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"trace\":{trace},\"failed\":{failed},\"correct\":{correct},\"metrics\":{{\"throughput_per_s\":{tput}}}}}\n"
        )
    }

    #[test]
    fn records_and_bounds_parse() {
        let bounds = bounds_from(
            r#"{"end_to_end": [{"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                               {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        assert_eq!(
            bounds,
            vec![higher(), bound("setup_s", false, 0.25, SETUP_FLOOR_S)]
        );
        let runs = runs_from(
            &[
                record("w", false, 0, true, "5.0"),
                record("w", true, 0, true, "1.0"),
                record("w", false, 0, true, "7"),
            ]
            .concat(),
        )
        .unwrap();
        assert_eq!(runs["w"].metrics["throughput_per_s"], vec![5.0, 7.0]);
        assert_eq!((runs["w"].runs, runs["w"].failed_runs), (2, 0));
    }

    #[test]
    fn failed_or_missing_runs_fail_the_comparison() {
        let bounds = [higher()];
        let good = runs_from(&record("w", false, 0, true, "5.0").repeat(3)).unwrap();
        assert!(!report(&good, &good, &bounds));
        // Faster, but a run failed its checks.
        for bad in [
            record("w", false, 2, false, "9.0"),
            record("w", false, 0, false, "9.0"),
        ] {
            let change =
                runs_from(&[bad, record("w", false, 0, true, "9.0").repeat(2)].concat()).unwrap();
            assert_eq!(change["w"].failed_runs, 1);
            assert!(report(&good, &change, &bounds));
            assert!(report(&change, &good, &bounds));
        }
        // No parent records, or a workload the parent ran is missing.
        assert!(report(&Runs::new(), &good, &bounds));
        let other = runs_from(&record("v", false, 0, true, "5.0").repeat(3)).unwrap();
        assert!(report(&good, &other, &bounds));
        // A bound metric the parent reports is missing.
        let bare = runs_from(
            &"{\"workload\":\"w\",\"trace\":false,\"failed\":0,\"correct\":true,\"metrics\":{}}\n"
                .repeat(3),
        )
        .unwrap();
        assert!(report(&good, &bare, &bounds));
    }
}
