//! `sweep-paper`: the paper's §5 sweep (200×200, k = 0..=200 step 10,
//! source at the center) with Figure 12's measure — strategies 1–4 under
//! both fault models plus the `reach()` oracle.
//!
//! The measured phase runs the sweep in rounds of [`TRIALS_PER_ROUND`]
//! trials per point, each round with a fresh seed, until the run's
//! seconds are spent; a 10 s run covers about the paper's 1000 trials per
//! point. One op is one trial: fault injection, scenario build,
//! destination draw and the measure.

use std::cell::Cell;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;

use emr_analysis::sweep::{self, TrialInput};
use emr_analysis::SweepConfig;
use emr_core::conditions::{self, PivotPolicy, SegmentSize, StrategyKind, StrategyParams};
use emr_core::{Model, Scenario};
use emr_fault::{inject, FaultSet, MccType};
use emr_mesh::{Coord, MemBytes, Mesh, Quadrant, Rect};

use crate::calibrate::Calibrator;
use crate::report::{derive_seed, nanos, Outcome, RunConfig};
use crate::stats::{median, windowed_p90_us, windowed_rate, Timing};
use crate::trace::Tracer;

/// Figure 12's series plus the soundness counter (an ensured minimal
/// route where the oracle says no minimal path exists).
const SERIES: [&str; 10] = [
    "strategy 1 (1+2)",
    "strategy 2 (1+3)",
    "strategy 3 (2+3)",
    "strategy 4 (1+2+3)",
    "strategy 1a",
    "strategy 2a",
    "strategy 3a",
    "strategy 4a",
    "existence of a minimal path",
    "unsound",
];
const UNSOUND: &str = "unsound";

/// Trials per fault count in one round.
const TRIALS_PER_ROUND: u32 = 50;
/// Warm-up sweeps (one trial per point) whose median is `setup_s`.
const WARMUPS: u64 = 9;

const SALT_ROUND: u64 = 0x7377_6565_7072_6e64; // "sweeprnd"
const SALT_WARMUP: u64 = 0x7377_6565_7077_726d; // "sweepwrm"

struct Shape {
    mesh: i32,
    fault_counts: Vec<usize>,
    trials_per_round: u32,
}

fn shape(smoke: bool) -> Shape {
    if smoke {
        Shape {
            mesh: 24,
            fault_counts: vec![0, 8, 16],
            trials_per_round: 3,
        }
    } else {
        Shape {
            mesh: 200,
            fault_counts: (0..=200).step_by(10).collect(),
            trials_per_round: TRIALS_PER_ROUND,
        }
    }
}

impl Shape {
    fn config(&self, trials: u32, seed: u64) -> SweepConfig {
        SweepConfig {
            mesh_size: self.mesh,
            trials,
            fault_counts: self.fault_counts.clone(),
            seed,
            threads: Some(1),
            profile: None,
        }
    }

    fn trials_per_round(&self) -> u64 {
        u64::from(self.trials_per_round) * self.fault_counts.len() as u64
    }
}

thread_local! {
    /// When the current trial's first injection started.
    static TRIAL_START: Cell<Option<Instant>> = const { Cell::new(None) };
    /// When the current trial's latest injection returned.
    static LAST_INJECT_END: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// What the sweep closures report. They run on the sweep's worker
/// thread, so the probe sits behind a mutex; it gathers timings and
/// counts only and never feeds a result.
#[derive(Default)]
struct Probe {
    tracer: Option<Tracer>,
    /// Trials finished so far (the span unit id).
    trial: u64,
    latencies_ns: Vec<u64>,
    /// Wrapping sum of `Scenario::mem_bytes` after each measure: which
    /// lazy maps the measure materialized.
    mem_sum: u64,
    strategy_calls: u64,
    strategy_minimal: u64,
    /// Times host-speed slices between trials, on the worker thread that
    /// runs them (measured phase only).
    cal: Option<Calibrator>,
    /// Time those slices took.
    cal_ns: u64,
}

fn lock(probe: &Mutex<Probe>) -> std::sync::MutexGuard<'_, Probe> {
    probe.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f`, recording it as a span when the trial is traced.
fn timed<T>(tr: Option<(&Mutex<Probe>, u64)>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let Some((probe, unit)) = tr else {
        return f();
    };
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    if let Some(t) = lock(probe).tracer.as_mut() {
        t.record(name, unit, start, end);
    }
    out
}

fn yes(b: bool) -> f64 {
    f64::from(u8::from(b))
}

/// The quadrant submesh on the destination's side of the source, where
/// Figure 12 draws its pivots.
fn quadrant_region(sc: &Scenario, s: Coord, d: Coord) -> Rect {
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
    Rect::new(x0, x1, y0, y1)
}

/// Figure 12's samples for one trial, plus the soundness flag. A traced
/// trial first forces, one span each, exactly the lazy maps the
/// strategies and the oracle read, so each construction kernel is timed
/// on its own.
fn fig12_samples(
    input: &TrialInput<'_>,
    rng: &mut StdRng,
    tr: Option<(&Mutex<Probe>, u64)>,
) -> Vec<f64> {
    let (s, d) = (input.source, input.dest);
    let sc = input.scenario;
    if tr.is_some() {
        let ty = MccType::for_route(s, d);
        timed(tr, "core.safety.build", || {
            sc.block_safety_map().mem_bytes()
        });
        timed(tr, "fault.mcc.build", || sc.mcc(ty).mem_bytes());
        timed(tr, "core.safety.build", || {
            sc.mcc_safety_map(ty).mem_bytes()
        });
        timed(tr, "fault.reach.build", || input.reach().mem_bytes());
    }
    let region = quadrant_region(sc, s, d);
    let params = StrategyParams {
        segment: SegmentSize::Size(5),
        pivots: conditions::select_pivots(region, 3, PivotPolicy::Random, rng),
    };
    let exists = input.reach().reachable(d);
    let mut samples = Vec::with_capacity(SERIES.len());
    let mut unsound = false;
    let mut minimal_count = 0;
    for model in Model::ALL {
        let view = sc.view(model);
        for kind in StrategyKind::ALL {
            let got = timed(tr, "core.conditions.strategy", || {
                conditions::strategy_with(&view, s, d, kind, &params)
            });
            let minimal = matches!(got, Some(e) if e.is_minimal());
            unsound |= minimal && !exists;
            minimal_count += u64::from(minimal);
            samples.push(yes(minimal));
        }
    }
    samples.push(yes(exists));
    samples.push(yes(unsound));
    if let Some((probe, _)) = tr {
        let mut p = lock(probe);
        p.strategy_calls += 2 * StrategyKind::ALL.len() as u64;
        p.strategy_minimal += minimal_count;
    }
    samples
}

/// One round's outputs.
struct Round {
    table: String,
    unsound: u64,
    mem_sum: u64,
    wall: Duration,
    /// `wall` less the calibration slices.
    busy: Duration,
}

/// Runs round number `round`, reporting into `probe` (traced when the
/// probe holds a tracer).
fn run_round(shape: &Shape, cfg: &SweepConfig, round: u64, probe: &Mutex<Probe>) -> Round {
    let traced = lock(probe).tracer.is_some();
    let inject = |mesh: Mesh, k: usize, source: Coord, rng: &mut StdRng| -> FaultSet {
        let start = Instant::now();
        let retry_of = LAST_INJECT_END.get();
        if TRIAL_START.get().is_none() {
            TRIAL_START.set(Some(start));
        }
        let faults = inject::uniform(mesh, k, &[source], rng);
        let end = Instant::now();
        LAST_INJECT_END.set(Some(end));
        if traced {
            let mut p = lock(probe);
            let unit = p.trial;
            if let Some(t) = p.tracer.as_mut() {
                // A retry means the previous scenario was built and
                // rejected (source inside a block).
                if let Some(prev) = retry_of {
                    t.record("core.scenario.build", unit, prev, start);
                }
                t.record("fault.inject", unit, start, end);
            }
        }
        faults
    };
    let measure = |input: &TrialInput<'_>, rng: &mut StdRng| -> Vec<f64> {
        let entry = Instant::now();
        let built_from = LAST_INJECT_END.take();
        let unit = if traced {
            let mut p = lock(probe);
            let unit = p.trial;
            if let Some(t) = p.tracer.as_mut() {
                if let Some(prev) = built_from {
                    t.record("core.scenario.build", unit, prev, entry);
                }
                t.enter("bench.sweep.measure", unit);
            }
            Some(unit)
        } else {
            None
        };
        let samples = fig12_samples(input, rng, unit.map(|u| (probe, u)));
        let end = Instant::now();
        let start = TRIAL_START.take().unwrap_or(entry);
        let mut guard = lock(probe);
        let p = &mut *guard;
        if let Some(t) = p.tracer.as_mut() {
            t.exit();
        }
        p.latencies_ns.push(nanos(end - start));
        p.mem_sum = p.mem_sum.wrapping_add(input.scenario.mem_bytes());
        if let Some((a, b)) = p.cal.as_mut().and_then(Calibrator::tick) {
            p.cal_ns += nanos(b - a);
            if let Some(t) = p.tracer.as_mut() {
                t.record("bench.calibrate", p.trial, a, b);
            }
        }
        p.trial += 1;
        samples
    };

    let (mem_before, cal_before) = {
        let p = lock(probe);
        (p.mem_sum, p.cal_ns)
    };
    if let Some(t) = lock(probe).tracer.as_mut() {
        t.enter("bench.sweep.round", round);
    }
    let started = Instant::now();
    let table = sweep::run_with(cfg, &SERIES, inject, measure);
    let wall = started.elapsed();
    if let Some(t) = lock(probe).tracer.as_mut() {
        t.exit();
    }
    let unsound = cfg
        .fault_counts
        .iter()
        .map(|&k| {
            let mean = table.mean(UNSOUND, k).unwrap_or(1.0);
            (mean * f64::from(shape.trials_per_round)).round() as u64
        })
        .sum();
    let p = lock(probe);
    Round {
        table: table.to_plain_string(),
        unsound,
        mem_sum: p.mem_sum.wrapping_sub(mem_before),
        wall,
        busy: wall.saturating_sub(Duration::from_nanos(p.cal_ns - cal_before)),
    }
}

// emr-lint: allow(A2, "the probe mutex only gathers timings and counts from the sweep's worker threads; tables come from the sweep engine's index-ordered merge")
fn probe(traced: bool) -> Mutex<Probe> {
    Mutex::new(Probe {
        tracer: traced.then(|| Tracer::new(Instant::now(), 0)),
        latencies_ns: Vec::with_capacity(1 << 20),
        ..Probe::default()
    })
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let shape = shape(cfg.smoke);
    let mut out = Outcome::default();

    // Set-up: sweep-paper builds nothing before its trials, so its set-up
    // is a one-trial-per-point warm-up sweep, repeated.
    let setups: Vec<f64> = (0..WARMUPS)
        .map(|rep| {
            let warm = shape.config(1, derive_seed(cfg.seed, SALT_WARMUP, rep));
            let started = Instant::now();
            let _ = sweep::run(&warm, &SERIES, |input, rng| fig12_samples(input, rng, None));
            started.elapsed().as_secs_f64()
        })
        .collect();

    let budget = Duration::from_secs_f64(cfg.seconds);
    let measured_probe = probe(cfg.trace);
    lock(&measured_probe).cal = Some(Calibrator::new());
    let mut measured = Duration::ZERO;
    let mut rounds: Vec<(f64, u64)> = Vec::new();
    let mut trials = 0u64;
    let mut unsound = 0u64;
    let mut first: Option<Round> = None;
    let mut round = 0u64;
    while measured < budget {
        let rc = shape.config(
            shape.trials_per_round,
            derive_seed(cfg.seed, SALT_ROUND, round),
        );
        let r = run_round(&shape, &rc, round, &measured_probe);
        measured += r.wall;
        rounds.push((shape.trials_per_round() as f64, nanos(r.busy)));
        trials += shape.trials_per_round();
        unsound += r.unsound;
        if first.is_none() {
            first = Some(r);
        }
        round += 1;
    }
    out.attempted = trials;
    out.check(
        "sweep.soundness",
        unsound,
        format!("{unsound} ensured minimal routes without a minimal path"),
    );

    // Round 0 again in the other mode, off the clock: tracing must not
    // change the table or which lazy maps the measure builds.
    let rc = shape.config(shape.trials_per_round, derive_seed(cfg.seed, SALT_ROUND, 0));
    let other = run_round(&shape, &rc, 0, &probe(!cfg.trace));
    let first = first.expect("the measured phase runs at least one round");
    out.check_that(
        "sweep.traced_table_identical",
        first.table == other.table,
        "round 0 table, traced vs untraced",
    );
    out.check_that(
        "sweep.traced_mem_bytes_identical",
        first.mem_sum == other.mem_sum,
        format!(
            "round 0 Scenario::mem_bytes sum {} vs {}",
            first.mem_sum, other.mem_sum
        ),
    );

    let mut p = measured_probe
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    out.host_speed = p.cal.as_ref().map_or(1.0, Calibrator::speed);
    out.note("rounds", round.to_string());
    out.note("trials", trials.to_string());
    let timing = Timing::of(&p.latencies_ns);
    out.note("trial_latency", timing.describe());
    if let Some(t) = p.tracer.take() {
        let wall = nanos(measured);
        let m = &mut out.metrics;
        m.insert("fault.inject.us", t.mean_us("fault.inject"));
        m.insert("fault.inject.calls", t.agg("fault.inject").count as f64);
        m.insert(
            "core.scenario.build_us",
            t.agg("core.scenario.build").busy_ns as f64 / 1e3 / trials.max(1) as f64,
        );
        m.insert("fault.mcc.build_us", t.mean_us("fault.mcc.build"));
        m.insert("core.safety.build_us", t.mean_us("core.safety.build"));
        m.insert("fault.reach.build_us", t.mean_us("fault.reach.build"));
        m.insert(
            "core.conditions.strategy_us",
            t.mean_us("core.conditions.strategy"),
        );
        m.insert("core.conditions.calls", p.strategy_calls as f64);
        m.insert(
            "core.conditions.minimal_ratio",
            p.strategy_minimal as f64 / p.strategy_calls.max(1) as f64,
        );
        m.insert("bench.op_p90_us", windowed_p90_us(&p.latencies_ns));
        m.insert(
            "bench.trace_overhead",
            first.busy.as_secs_f64() / other.busy.as_secs_f64(),
        );
        m.insert("bench.trace_coverage", t.self_sum_ns() as f64 / wall as f64);
        out.tables.push(t.table("main", wall));
        if let Some(dir) = &cfg.trace_dir {
            let path = dir.join("trace-sweep-paper.jsonl");
            if let Err(e) = t.write_jsonl(&path, false) {
                out.check_that("trace.written", false, format!("{}: {e}", path.display()));
            }
        }
    } else {
        let m = &mut out.metrics;
        m.insert("setup_s", median(&setups));
        m.insert("throughput_per_s", windowed_rate(&rounds, 1));
        m.insert("op_p50_us", timing.p50_us);
    }
    out
}
