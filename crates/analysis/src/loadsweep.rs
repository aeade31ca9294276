//! The saturation driver: offered-load sweeps over the event-driven
//! network core.
//!
//! For each offered-load point the sweep runs many independent trials;
//! every trial draws one fault configuration and one traffic batch
//! ([`TrafficPattern`]: uniform / transpose / hotspot) and replays the
//! *same* batch through three routers on [`EventSim`]:
//!
//! * `xy` — fault-aware dimension-order ([`XyRouter`]): fails honestly
//!   when a block crosses the dimension-order path,
//! * `wu` — the paper's protocol with epoched incremental fault
//!   absorption ([`EpochedWuRouter`]),
//! * `adaptive` — the adaptive baseline with forced detours around
//!   fault rectangles ([`AdaptiveRouter`]).
//!
//! Trials optionally inject node failures *mid-flight*
//! ([`LoadSweepConfig::midflight_faults`]), staggered across the
//! injection window, through each core's fault calendar. The routers
//! absorb a failure differently ([`DynamicRouter::is_node_blocked`]):
//! Wu re-forms the faulty blocks, XY and adaptive mark the failed node
//! alone, so after a failure that merges blocks they route over
//! different networks.
//!
//! Parallelism and determinism follow [`crate::sweep`] exactly: the
//! trials run on the trial pool ([`crate::pool()`]) in fixed chunks of
//! 32, each draws from SplitMix64-derived RNG streams keyed by
//! `(seed, point, trial)`, and chunk summaries merge in the pool's chunk
//! order — the table is bit-identical for every thread count.

use rand::Rng;

use emr_core::{Model, Scenario, ScenarioState};
use emr_fault::inject;
use emr_mesh::{Coord, Mesh};
use emr_netsim::{
    AdaptiveRouter, DynamicRouter, EpochedWuRouter, EventSim, TrafficPattern, Workload, XyRouter,
};

use crate::stats::Summary;
use crate::sweep::{generation_rng, measurement_rng, SeriesTable};

/// Trials per pool chunk: a constant, so chunk boundaries (and the merge
/// order of partial summaries) depend only on the configuration.
const CHUNK_TRIALS: u32 = 32;

/// The routers the saturation driver compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    /// Fault-aware dimension-order (fails on blocked XY paths).
    Xy,
    /// The paper's protocol with epoched fault absorption.
    Wu,
    /// The adaptive baseline with forced detours.
    Adaptive,
}

impl RouterKind {
    /// All routers, in the column order the table reports.
    pub const ALL: [RouterKind; 3] = [RouterKind::Xy, RouterKind::Wu, RouterKind::Adaptive];

    /// Short column label.
    pub fn label(self) -> &'static str {
        match self {
            RouterKind::Xy => "xy",
            RouterKind::Wu => "wu",
            RouterKind::Adaptive => "adaptive",
        }
    }
}

/// Configuration of one offered-load sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSweepConfig {
    /// Mesh side length.
    pub mesh_size: i32,
    /// Static faults present before any packet is injected.
    pub faults: usize,
    /// Node failures injected mid-flight, staggered across the
    /// injection window (0 disables dynamic faults).
    pub midflight_faults: usize,
    /// Packets per trial.
    pub packets: usize,
    /// The offered-load points (packets per node per cycle).
    pub offered: Vec<f64>,
    /// The spatial traffic pattern.
    pub pattern: TrafficPattern,
    /// Trials per load point.
    pub trials: u32,
    /// Master seed; the table is reproduced exactly for any thread count.
    pub seed: u64,
    /// Worker threads; `None` uses one per available core.
    pub threads: Option<usize>,
    /// Cycle budget per run; budget-exceeded runs count every unresolved
    /// packet as failed (the saturated regime is reported honestly).
    pub max_cycles: u64,
}

impl Default for LoadSweepConfig {
    /// The configuration the `load_curves` binary prints: 32×32 mesh, 8
    /// static + 4 mid-flight faults, 2000 packets × 8 trials, 8 load
    /// points from trickle to saturation.
    fn default() -> Self {
        LoadSweepConfig {
            mesh_size: 32,
            faults: 8,
            midflight_faults: 4,
            packets: 2000,
            offered: vec![0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64],
            pattern: TrafficPattern::Uniform,
            trials: 8,
            seed: 0x0e7_51a,
            threads: None,
            max_cycles: 200_000,
        }
    }
}

impl LoadSweepConfig {
    /// A scaled-down configuration for tests and smoke runs.
    pub fn smoke() -> Self {
        LoadSweepConfig {
            mesh_size: 12,
            faults: 3,
            midflight_faults: 2,
            packets: 150,
            offered: vec![0.01, 0.05, 0.2],
            pattern: TrafficPattern::Uniform,
            trials: 4,
            seed: 11,
            threads: None,
            max_cycles: 50_000,
        }
    }

    /// The row key for a load point: offered load in milli-packets per
    /// node per cycle (the [`SeriesTable`] axis is integral).
    pub fn row_key(offered: f64) -> usize {
        (offered * 1000.0).round() as usize
    }
}

/// Per-trial, per-router samples fed into the series columns.
struct RouterSamples {
    /// Fraction of packets delivered.
    delivered: f64,
    /// Mean latency over delivered packets (`None` when nothing landed).
    latency: Option<f64>,
}

/// One trial: draw faults + workload once, replay through all routers.
fn run_trial(cfg: &LoadSweepConfig, point: usize, trial: u32) -> Vec<RouterSamples> {
    let mesh = Mesh::square(cfg.mesh_size);
    let mut gen_rng = generation_rng(cfg.seed, point, trial);
    let faults = inject::uniform(mesh, cfg.faults, &[], &mut gen_rng);
    let scenario = Scenario::build(faults);
    let offered = cfg.offered[point];
    let load = Workload::offered_load(&scenario, cfg.pattern, cfg.packets, offered, &mut gen_rng);

    // Mid-flight failures: drawn from the measurement stream (so fault
    // placement never perturbs the traffic sequence), staggered across
    // the injection window.
    let mut dyn_rng = measurement_rng(cfg.seed, point, trial);
    let window = load.packets().last().map_or(0, |(c, _)| *c);
    let mut midflight: Vec<(Coord, u64)> = Vec::with_capacity(cfg.midflight_faults);
    let mut guard = 0u32;
    while midflight.len() < cfg.midflight_faults {
        guard += 1;
        assert!(guard < 100_000, "could not draw mid-flight fault nodes");
        let c = Coord::new(
            dyn_rng.gen_range(0..mesh.width()),
            dyn_rng.gen_range(0..mesh.height()),
        );
        if scenario.blocks().is_blocked(c) || midflight.iter().any(|&(f, _)| f == c) {
            continue;
        }
        let j = midflight.len() as u64 + 1;
        let at = window * j / (cfg.midflight_faults as u64 + 1);
        midflight.push((c, at));
    }

    RouterKind::ALL
        .iter()
        .map(|&kind| {
            let report = match kind {
                RouterKind::Xy => replay(cfg, &scenario, &load, &midflight, {
                    XyRouter::new(mesh, scenario.blocks())
                }),
                RouterKind::Wu => replay(cfg, &scenario, &load, &midflight, {
                    EpochedWuRouter::new(
                        ScenarioState::new(scenario.faults().clone()),
                        Model::FaultBlock,
                    )
                }),
                RouterKind::Adaptive => replay(cfg, &scenario, &load, &midflight, {
                    AdaptiveRouter::new(mesh, scenario.blocks())
                }),
            };
            let total = cfg.packets as f64;
            RouterSamples {
                delivered: report.delivered as f64 / total,
                latency: (report.delivered > 0)
                    .then(|| report.total_latency as f64 / report.delivered as f64),
            }
        })
        .collect()
}

/// Replays one workload (and one mid-flight fault schedule) through one
/// router on the event core. Budget-exceeded runs report what resolved
/// before the budget; the unresolved remainder counts as failed.
fn replay<R: DynamicRouter>(
    cfg: &LoadSweepConfig,
    scenario: &Scenario,
    load: &Workload,
    midflight: &[(Coord, u64)],
    router: R,
) -> emr_netsim::SimReport {
    let mut sim = EventSim::new(scenario.mesh(), router);
    load.inject_into(&mut sim);
    for &(c, at) in midflight {
        sim.schedule_fault(c, at);
    }
    match sim.run_dynamic_to_completion(cfg.max_cycles) {
        Ok(report) => report,
        Err(_) => sim.report(),
    }
}

/// Runs the sweep and returns one row per offered-load point (keyed by
/// [`LoadSweepConfig::row_key`], in a column headed `offered`) with two
/// columns per router:
/// `<name>-delivered` (fraction) and `<name>-latency` (mean cycles over
/// delivered packets).
///
/// # Panics
///
/// Panics if `cfg.offered` is empty.
pub fn run(cfg: &LoadSweepConfig) -> SeriesTable {
    assert!(!cfg.offered.is_empty(), "no load points configured");
    let series: Vec<String> = RouterKind::ALL
        .iter()
        .flat_map(|k| {
            [
                format!("{}-delivered", k.label()),
                format!("{}-latency", k.label()),
            ]
        })
        .collect();

    let chunk_sums = crate::pool(
        cfg.offered.len(),
        cfg.trials,
        CHUNK_TRIALS,
        cfg.threads,
        |point, trials| {
            let mut sums = vec![Summary::new(); series.len()];
            for t in trials {
                let samples = run_trial(cfg, point, t);
                for (r, s) in samples.iter().enumerate() {
                    sums[r * 2].add(s.delivered);
                    if let Some(lat) = s.latency {
                        sums[r * 2 + 1].add(lat);
                    }
                }
            }
            sums
        },
    );

    let mut points: Vec<(usize, Vec<Summary>)> = cfg
        .offered
        .iter()
        .map(|&o| {
            (
                LoadSweepConfig::row_key(o),
                vec![Summary::new(); series.len()],
            )
        })
        .collect();
    for (point, sums) in chunk_sums {
        for (acc, s) in points[point].1.iter_mut().zip(&sums) {
            acc.merge(s);
        }
    }
    SeriesTable::from_parts(series, points).with_key("offered")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_produces_sane_curves() {
        let table = run(&LoadSweepConfig::smoke());
        // One row per load point, keyed in milli-load.
        let keys: Vec<usize> = table.rows().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![10, 50, 200]);
        for (k, means) in table.rows() {
            for (s, m) in table.series().iter().zip(&means) {
                if s.ends_with("-delivered") {
                    assert!((0.0..=1.0).contains(m), "{s}@{k} = {m}");
                } else {
                    assert!(*m >= 0.0, "{s}@{k} = {m}");
                }
            }
        }
        // Wu (fault-absorbing, minimal) must not deliver less than the
        // fault-oblivious XY path under static blocks.
        let xy = table.mean("xy-delivered", 10).unwrap();
        let wu = table.mean("wu-delivered", 10).unwrap();
        assert!(wu >= xy, "wu {wu} < xy {xy}");
    }

    #[test]
    fn sweep_is_bit_identical_for_any_thread_count() {
        let table_for = |threads: usize| {
            let mut cfg = LoadSweepConfig::smoke();
            cfg.threads = Some(threads);
            run(&cfg).to_plain_string()
        };
        let single = table_for(1);
        assert_eq!(single, table_for(8));
        assert_eq!(single, table_for(3));
    }

    #[test]
    fn latency_rises_with_offered_load() {
        // Saturation sanity on a clean mesh: higher offered load cannot
        // make uniform traffic *faster* once queues form.
        let mut cfg = LoadSweepConfig::smoke();
        cfg.faults = 0;
        cfg.midflight_faults = 0;
        cfg.offered = vec![0.01, 0.5];
        let table = run(&cfg);
        let lo = table.mean("wu-latency", 10).unwrap();
        let hi = table.mean("wu-latency", 500).unwrap();
        assert!(hi >= lo, "latency fell under load: {lo} -> {hi}");
    }

    #[test]
    fn patterns_all_run_under_midflight_faults() {
        for pattern in [
            TrafficPattern::Uniform,
            TrafficPattern::Transpose,
            TrafficPattern::Hotspot {
                spots: 2,
                fraction: 0.3,
            },
        ] {
            let mut cfg = LoadSweepConfig::smoke();
            cfg.pattern = pattern;
            cfg.offered = vec![0.05];
            cfg.trials = 2;
            let table = run(&cfg);
            let delivered = table.mean("adaptive-delivered", 50).unwrap();
            assert!(delivered > 0.0, "{pattern:?} delivered nothing");
        }
    }
}
