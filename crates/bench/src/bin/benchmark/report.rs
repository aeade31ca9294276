//! What a run reports: the metric names, one workload run's outcome, and
//! the configuration every workload receives.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics, measured with tracing off, reported by every
/// workload: `(name, unit)`. Each workload defines its own unit of work
/// ("op"); see README.md. The timings are reported at the nominal host
/// speed ([`at_nominal_speed`]).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. Every traced run
/// reports all of them; a layer a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("fault.inject.us", "us"),
    ("fault.inject.calls", "count"),
    ("core.scenario.build_us", "us"),
    ("fault.mcc.build_us", "us"),
    ("core.safety.build_us", "us"),
    ("fault.reach.build_us", "us"),
    ("core.conditions.strategy_us", "us"),
    ("core.conditions.calls", "count"),
    ("core.conditions.minimal_ratio", "ratio"),
    ("serve.loopback.encode_us", "us"),
    ("serve.loopback.server_decode_us", "us"),
    ("serve.loopback.server_encode_us", "us"),
    ("serve.loopback.decode_us", "us"),
    ("serve.store.handle_batch_us", "us"),
    ("serve.store.resolve_p50_us", "us"),
    ("serve.store.resolve_p99_us", "us"),
    ("serve.snapshot.route_us", "us"),
    ("serve.snapshot.safety_us", "us"),
    ("serve.snapshot.reach_us", "us"),
    ("serve.route.minimal_ratio", "ratio"),
    ("serve.store.inject_p50_us", "us"),
    ("serve.store.inject_p99_us", "us"),
    ("serve.store.advance_p50_us", "us"),
    ("serve.store.advance_p99_us", "us"),
    ("serve.publish_p50_us", "us"),
    ("serve.publish_p99_us", "us"),
    ("serve.snapshot.bytes", "bytes"),
    ("serve.snapshot.memo_entries", "count"),
    ("netsim.router.next_hop.calls", "count"),
    ("netsim.router.next_hop_ns", "ns"),
    ("netsim.router.err_ratio", "ratio"),
    ("netsim.dynamic.fail_node_us", "us"),
    ("netsim.dynamic.calls", "count"),
    ("netsim.event.self_s", "s"),
    ("netsim.flights_mean", "count"),
    ("netsim.cycles", "count"),
    ("bench.op_p90_us", "us"),
    ("bench.writer.lag_p99_us", "us"),
    ("bench.trace_overhead", "ratio"),
    ("bench.trace_coverage", "ratio"),
    ("bench.host_speed", "ratio"),
];

/// What every workload is given.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Master seed; every input derives from it.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: per-layer spans instead of end-to-end timings.
    pub trace: bool,
    /// Tiny sizes, for tests.
    pub smoke: bool,
    /// Where a traced run writes `trace-<workload>.jsonl` (none in tests).
    pub trace_dir: Option<PathBuf>,
}

/// A named output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Failed operations it found (0 = passed).
    pub failures: u64,
    /// Human detail.
    pub detail: String,
}

/// One workload run's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (trials, queries + publishes, packets).
    pub attempted: u64,
    /// Operations failed, including every failed check.
    pub failed: u64,
    /// Output checks, in the order they ran.
    pub checks: Vec<Check>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Further human-readable results: digests, checksums, tails.
    pub info: Vec<(String, String)>,
    /// Per-layer tables (traced runs).
    pub tables: Vec<String>,
    /// The host's speed during the run (see `calibrate.rs`).
    pub host_speed: f64,
}

impl Outcome {
    /// Records a check that found `failures` failed operations.
    pub fn check(&mut self, name: &'static str, failures: u64, detail: impl Into<String>) {
        self.failed += failures;
        self.checks.push(Check {
            name,
            failures,
            detail: detail.into(),
        });
    }

    /// Records a pass/fail check (a failure counts as one failed
    /// operation).
    pub fn check_that(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.check(name, u64::from(!ok), detail);
    }

    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.failures == 0)
    }

    /// Adds a human-readable result line.
    pub fn note(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.info.push((key.into(), value.into()));
    }
}

/// Scales a run's end-to-end timings, measured on a host running at
/// `speed` (see `calibrate.rs`), to the nominal speed: times are
/// multiplied by it, rates divided.
pub fn at_nominal_speed(metrics: &mut BTreeMap<&'static str, f64>, speed: f64) {
    for (&name, value) in metrics.iter_mut() {
        match name {
            "setup_s" | "op_p50_us" => *value *= speed,
            "throughput_per_s" => *value /= speed,
            _ => {}
        }
    }
}

/// Seeds an independent stream: `master ^ salt`, then `index`, through
/// SplitMix64 (the derivation the sweep engine and load generator use).
pub fn derive_seed(master: u64, salt: u64, index: u64) -> u64 {
    let mut state = master ^ salt;
    let a = rand::splitmix64(&mut state);
    state = a ^ index;
    rand::splitmix64(&mut state)
}

/// Nanoseconds in a duration, saturating.
pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The process's peak resident set (VmHWM) in MB, 0 when unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
