//! `benchmark`: one program for the paper sweep, the routing service under
//! fault churn, and Wu traffic, with a traced per-layer run.
//!
//! ```text
//! benchmark run --workload <name|all> [--seed N] [--seconds S] [--trace [0|1]]
//!               [--smoke] [--out f.jsonl]
//! benchmark compare <parent.jsonl> <change.jsonl>
//! ```
//!
//! `run` prints every metric as `workload metric value unit`, then the
//! output checks, and ends with one JSON line: `correct`, `attempted`,
//! `failed` and the metrics (end-to-end untraced, per-layer traced). It
//! exits 1 when any check fails. See README.md next to this file.

#![forbid(unsafe_code)]

mod calibrate;
mod compare;
mod netsim;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::io::Write as _;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::ExitCode;

use serde::Value;

use report::{Outcome, RunConfig, END_TO_END, PER_LAYER};

/// The workloads, each run in its own process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SweepPaper,
    ServeRead,
    ServeChurn,
    NetsimWu,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SweepPaper,
        Workload::ServeRead,
        Workload::ServeChurn,
        Workload::NetsimWu,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SweepPaper => "sweep-paper",
            Workload::ServeRead => "serve-read",
            Workload::ServeChurn => "serve-churn",
            Workload::NetsimWu => "netsim-wu",
        }
    }

    /// The seed a run uses when `--seed` is not given.
    fn default_seed(self) -> u64 {
        match self {
            Workload::SweepPaper => 0x2002_1c05,
            Workload::ServeRead | Workload::ServeChurn => 0x00c0_4f04_2d5e_ed00,
            Workload::NetsimWu => 0x0e7_51a,
        }
    }

    fn run(self, cfg: &RunConfig) -> Outcome {
        match self {
            Workload::SweepPaper => sweep::run(cfg),
            Workload::ServeRead => serve::run(cfg, false),
            Workload::ServeChurn => serve::run(cfg, true),
            Workload::NetsimWu => netsim::run(cfg),
        }
    }
}

/// A parsed `run` command line.
#[derive(Debug, Clone)]
struct RunArgs {
    /// `None` runs every workload.
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: None,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut workload = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: usize| {
            args.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag {
            "--workload" => {
                workload = Some(value(i)?.to_string());
                i += 1;
            }
            "--seed" => {
                parsed.seed = Some(value(i)?.parse().map_err(|e| format!("--seed: {e}"))?);
                i += 1;
            }
            "--seconds" => {
                let s: f64 = value(i)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                parsed.seconds = s;
                i += 1;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    parsed.trace = true;
                    i += 1;
                }
                _ => parsed.trace = true,
            },
            "--smoke" => parsed.smoke = true,
            "--out" => {
                parsed.out = Some(value(i)?.to_string());
                i += 1;
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    parsed.workload = match workload.as_deref() {
        None => return Err("--workload is required".to_string()),
        Some("all") => None,
        Some(name) => Some(
            Workload::ALL
                .into_iter()
                .find(|w| w.name() == name)
                .ok_or_else(|| format!("unknown workload {name}"))?,
        ),
    };
    Ok(parsed)
}

const USAGE: &str =
    "usage: benchmark run --workload <sweep-paper|serve-read|serve-churn|netsim-wu|all> \
[--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out f.jsonl]\n       \
benchmark compare <parent.jsonl> <change.jsonl>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(run) => match run.workload {
                Some(w) => run_one(w, &run),
                None => run_all(&args[1..]),
            },
            Err(msg) => usage_error(&msg),
        },
        Some("compare") => run_compare(&args[1..]),
        _ => usage_error("expected a subcommand"),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}\n{USAGE}");
    ExitCode::from(2)
}

/// `--workload all`: one child process per workload, so each measures
/// its own peak memory.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return usage_error(&format!("cannot locate the benchmark binary: {e}")),
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut child_args = vec!["run".to_string()];
        let mut rest = args.iter();
        while let Some(a) = rest.next() {
            if a == "--workload" {
                rest.next();
                child_args.extend(["--workload".to_string(), w.name().to_string()]);
            } else {
                child_args.push(a.clone());
            }
        }
        let status = std::process::Command::new(&exe).args(&child_args).status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(w: Workload, args: &RunArgs) -> ExitCode {
    let cfg = RunConfig {
        seed: args.seed.unwrap_or_else(|| w.default_seed()),
        seconds: if args.smoke {
            args.seconds.min(0.3)
        } else {
            args.seconds
        },
        trace: args.trace,
        smoke: args.smoke,
        trace_dir: Some(PathBuf::from("results/benchmark")),
    };
    let mut outcome = w.run(&cfg);
    outcome.note("host_speed", format!("{:.4}", outcome.host_speed));
    if cfg.trace {
        outcome
            .metrics
            .insert("bench.host_speed", outcome.host_speed);
    } else {
        for &(metric, _) in &END_TO_END {
            if let Some(v) = outcome.metrics.get(metric) {
                outcome.note(format!("measured {metric}"), v.to_string());
            }
        }
        report::at_nominal_speed(&mut outcome.metrics, outcome.host_speed);
        outcome.metrics.insert("peak_rss_mb", report::peak_rss_mb());
    }
    let names: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };

    let name = w.name();
    for &(metric, unit) in names {
        let value = outcome.metrics.get(metric).copied().unwrap_or(0.0);
        println!("{name} {metric} {value} {unit}");
    }
    for (key, value) in &outcome.info {
        println!("# {name} {key}: {value}");
    }
    for table in &outcome.tables {
        print!("{table}");
    }
    for c in &outcome.checks {
        let status = if c.failures == 0 { "ok" } else { "FAIL" };
        println!(
            "# {name} check {} {status} ({}): {}",
            c.name, c.failures, c.detail
        );
    }

    let metric_map = names
        .iter()
        .map(|&(metric, unit)| {
            let value = outcome.metrics.get(metric).copied().unwrap_or(0.0);
            (
                metric.to_string(),
                Value::Map(vec![
                    ("value".to_string(), Value::Float(value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    let result = Value::Map(vec![
        ("correct".to_string(), Value::Bool(outcome.correct())),
        (
            "attempted".to_string(),
            Value::UInt(outcome.attempted.max(1)),
        ),
        ("failed".to_string(), Value::UInt(outcome.failed)),
        ("metrics".to_string(), Value::Map(metric_map)),
    ]);
    if let Some(path) = &args.out {
        if let Err(e) = append_record(path, w, &cfg, &outcome) {
            eprintln!("writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{}",
        serde_json::to_string(&result).expect("the result serializes")
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The checkout's commit, read from `.git` without running git.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l.split(' ').next().unwrap_or_default().to_string())
            })
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// Appends one JSON record of this run to `path`.
fn append_record(
    path: &str,
    w: Workload,
    cfg: &RunConfig,
    outcome: &Outcome,
) -> std::io::Result<()> {
    let s = |v: &str| Value::Str(v.to_string());
    let record = Value::Map(vec![
        ("workload".into(), s(w.name())),
        ("seed".into(), Value::UInt(cfg.seed)),
        ("trace".into(), Value::Bool(cfg.trace)),
        ("smoke".into(), Value::Bool(cfg.smoke)),
        ("seconds".into(), Value::Float(cfg.seconds)),
        ("nproc".into(), Value::UInt(nproc() as u64)),
        ("git_rev".into(), s(&git_rev())),
        ("attempted".into(), Value::UInt(outcome.attempted)),
        ("failed".into(), Value::UInt(outcome.failed)),
        ("correct".into(), Value::Bool(outcome.correct())),
        (
            "metrics".into(),
            Value::Map(
                outcome
                    .metrics
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), Value::Float(*v)))
                    .collect(),
            ),
        ),
        (
            "checks".into(),
            Value::Map(
                outcome
                    .checks
                    .iter()
                    .map(|c| (c.name.to_string(), Value::UInt(c.failures)))
                    .collect(),
            ),
        ),
        (
            "info".into(),
            Value::Map(
                outcome
                    .info
                    .iter()
                    .map(|(k, v)| (k.clone(), s(v)))
                    .collect(),
            ),
        ),
    ]);
    let line = serde_json::to_string(&record).map_err(std::io::Error::other)?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

/// `compare`: judges two record files against the bounds in the
/// repository's `BENCHMARK.json` (read from the working directory).
fn run_compare(args: &[String]) -> ExitCode {
    let [parent, change] = args else {
        return usage_error("compare needs two record files");
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let loaded = (|| {
        let bounds = compare::bounds_from(&read("BENCHMARK.json")?)?;
        let parent = compare::runs_from(&read(parent)?)?;
        let change = compare::runs_from(&read(change)?)?;
        Ok::<_, String>((bounds, parent, change))
    })();
    match loaded {
        Ok((bounds, parent, change)) => {
            if compare::report(&parent, &change, &bounds) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(msg) => usage_error(&msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn run_flags_parse() {
        let a = parse_run(&args(
            "--workload netsim-wu --seed 7 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::NetsimWu));
        assert_eq!(a.seed, Some(7));
        assert_eq!(a.seconds, 10.0);
        assert!(!a.trace);
        assert!(
            parse_run(&args("--workload serve-read --trace 1"))
                .unwrap()
                .trace
        );
        assert!(
            parse_run(&args("--workload serve-read --trace"))
                .unwrap()
                .trace
        );
        assert!(parse_run(&args("--trace --workload all")).unwrap().trace);
        assert_eq!(parse_run(&args("--workload all")).unwrap().workload, None);
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert!(parse_run(&args("--workload nope")).is_err());
        assert!(parse_run(&args("--seed 1")).is_err());
        assert!(parse_run(&args("--workload serve-read --seconds 0")).is_err());
        assert!(parse_run(&args("--workload serve-read --bogus")).is_err());
        assert!(parse_run(&args("--workload serve-read --seed")).is_err());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let v: Value = serde_json::from_str(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            let top = v.as_map().unwrap();
            let (_, list) = top.iter().find(|(k, _)| k == key).unwrap();
            list.as_seq()
                .unwrap()
                .iter()
                .map(|m| {
                    let m = m.as_map().unwrap();
                    let get = |k: &str| {
                        m.iter()
                            .find(|(n, _)| n == k)
                            .unwrap()
                            .1
                            .as_str()
                            .unwrap()
                            .to_string()
                    };
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|&(a, b)| (a.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn smoke_runs_pass_in_both_modes() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let cfg = RunConfig {
                    seed: w.default_seed(),
                    seconds: 0.05,
                    trace,
                    smoke: true,
                    trace_dir: None,
                };
                let out = w.run(&cfg);
                let failed: Vec<_> = out.checks.iter().filter(|c| c.failures > 0).collect();
                assert!(out.correct(), "{} trace={trace}: {failed:?}", w.name());
                assert!(out.attempted > 0, "{}", w.name());
                if !trace {
                    for (metric, _) in END_TO_END.iter().filter(|(m, _)| *m != "peak_rss_mb") {
                        let v = out.metrics[metric];
                        assert!(v > 0.0, "{} {metric} = {v}", w.name());
                    }
                }
            }
        }
    }
}
