//! The shared experiment harness for the paper's §5 simulation setup.
//!
//! Every figure uses the same protocol: an `n × n` mesh (the paper uses
//! `n = 200`) with the source at the center; for each fault count `k`,
//! many trials each generate `k` random faults (re-drawn if the source
//! ends up inside a faulty block), build the [`Scenario`], pick a random
//! destination in the first-quadrant submesh outside every faulty block,
//! and record one sample per series.
//!
//! # Parallelism and determinism
//!
//! Trials are independent, so the sweep runs on a worker pool over
//! *(point, trial-chunk)* items rather than one thread per fault count:
//! load stays balanced when fault counts (and therefore per-trial cost)
//! differ wildly, and the sweep scales past the number of points.
//!
//! Results are bit-identical for every thread count, including 1:
//!
//! * each trial owns two private RNG streams (generation and measurement)
//!   whose seeds are derived from `(cfg.seed, k, trial index)` with a
//!   SplitMix64 chain — no stream ever depends on scheduling,
//! * trials are grouped into fixed-size chunks determined only by the
//!   configuration, and per-chunk [`Summary`]s are merged in ascending
//!   trial order after all workers finish, so the floating-point
//!   reduction tree is fixed too.

use std::cell::OnceCell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use emr_core::{BuildProfile, Scenario};
use emr_fault::{inject, FaultSet, ReachMap};
use emr_mesh::{Coord, Mesh};

use crate::stats::Summary;

/// Trials per work item. A constant (rather than `trials / threads`) so
/// the chunk boundaries — and with them the merge order of partial
/// summaries — depend only on the configuration, never on the thread
/// count.
const CHUNK_TRIALS: u32 = 32;

/// Domain-separation salts for the two per-trial RNG streams.
const SALT_GENERATE: u64 = 0x67656E_7374726D; // "gen strm"
const SALT_MEASURE: u64 = 0x6D6561_7374726D; // "mea strm"

/// Configuration of one figure sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepConfig {
    /// Mesh side length (`200` in the paper).
    pub mesh_size: i32,
    /// Trials per fault-count point.
    pub trials: u32,
    /// The fault counts to sweep (the paper plots 0..=200).
    pub fault_counts: Vec<usize>,
    /// Master seed; every run with the same configuration reproduces the
    /// same numbers exactly, regardless of `threads`.
    pub seed: u64,
    /// Worker threads; `None` uses one per available core.
    pub threads: Option<usize>,
    /// Build strategy for each trial's [`Scenario`]; `None` picks
    /// [`BuildProfile::auto`] per mesh. Banded builds are bit-identical
    /// to sequential ones, so this never changes the table — but sweeps
    /// already parallelize across trials, so giant-mesh runs that want
    /// intra-trial bands should set `threads` low to avoid
    /// oversubscription.
    pub profile: Option<BuildProfile>,
}

impl Default for SweepConfig {
    /// The paper's setup: 200×200 mesh, fault counts 0..=200 in steps of
    /// 10, 1000 trials per point.
    fn default() -> Self {
        SweepConfig {
            mesh_size: 200,
            trials: 1000,
            fault_counts: (0..=200).step_by(10).collect(),
            seed: 0x2002_1c05,
            threads: None,
            profile: None,
        }
    }
}

impl SweepConfig {
    /// A scaled-down configuration for tests and smoke runs.
    pub fn smoke() -> Self {
        SweepConfig {
            mesh_size: 40,
            trials: 40,
            fault_counts: vec![0, 10, 20, 40],
            seed: 7,
            threads: None,
            profile: None,
        }
    }

    /// Overrides the trial count (used by the figure binaries' CLI).
    pub fn with_trials(mut self, trials: u32) -> Self {
        self.trials = trials;
        self
    }

    /// Overrides the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// The worker count this configuration resolves to.
    fn resolved_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
            .max(1)
    }
}

/// Derives an independent RNG seed for one trial's stream.
///
/// Chains SplitMix64 through `(master ⊕ salt, k, trial)` sequentially so
/// no component can cancel another; every (point, trial, stream) triple
/// gets a decorrelated generator.
fn derive_seed(master: u64, k: usize, trial: u32, salt: u64) -> u64 {
    let mut state = master ^ salt;
    let a = rand::splitmix64(&mut state);
    state = a ^ (k as u64);
    let b = rand::splitmix64(&mut state);
    state = b ^ u64::from(trial);
    rand::splitmix64(&mut state)
}

/// The RNG driving fault injection and destination choice for one trial.
pub fn generation_rng(seed: u64, k: usize, trial: u32) -> StdRng {
    StdRng::seed_from_u64(derive_seed(seed, k, trial, SALT_GENERATE))
}

/// The RNG handed to `measure` for one trial (independent of the
/// generation stream, so measurement draws never perturb the scenario
/// sequence).
pub fn measurement_rng(seed: u64, k: usize, trial: u32) -> StdRng {
    StdRng::seed_from_u64(derive_seed(seed, k, trial, SALT_MEASURE))
}

/// One generated trial: the decomposed scenario plus the paper's
/// source/destination pair.
#[derive(Debug)]
pub struct TrialInput<'a> {
    /// The fault configuration decomposed under both models.
    pub scenario: &'a Scenario,
    /// The source (mesh center).
    pub source: Coord,
    /// A destination in the source's first-quadrant submesh, outside every
    /// faulty block.
    pub dest: Coord,
    /// Batched ground truth from the source against the raw fault set,
    /// built on first use (measures that never consult it pay nothing).
    reach: OnceCell<ReachMap>,
}

impl<'a> TrialInput<'a> {
    /// Assembles a trial input; the batched reachability map stays unbuilt
    /// until [`TrialInput::reach`] is first called.
    pub fn new(scenario: &'a Scenario, source: Coord, dest: Coord) -> TrialInput<'a> {
        TrialInput {
            scenario,
            source,
            dest,
            reach: OnceCell::new(),
        }
    }

    /// The word-parallel all-destinations ground truth for this trial:
    /// `reach().reachable(d)` equals
    /// `reach::minimal_path_exists(mesh, source, d, faults)` for every
    /// `d`, at O(1) per lookup after one build.
    pub fn reach(&self) -> &ReachMap {
        self.reach
            .get_or_init(|| ReachMap::from_packed(self.source, self.scenario.faults().packed()))
    }
}

/// Runs a sweep with the paper's uniform fault injection: `measure`
/// receives each trial plus a per-trial RNG and returns one sample per
/// entry of `series` (typically 0/1 indicator values; the table reports
/// means).
///
/// # Panics
///
/// Panics if `measure` returns the wrong number of samples.
pub fn run<F>(cfg: &SweepConfig, series: &[&str], measure: F) -> SeriesTable
where
    F: Fn(&TrialInput<'_>, &mut StdRng) -> Vec<f64> + Sync,
{
    run_with(
        cfg,
        series,
        |mesh, k, source, rng| inject::uniform(mesh, k, &[source], rng),
        measure,
    )
}

/// [`run`] with a custom fault generator (the ablation experiments swap
/// in clustered injection).
///
/// # Panics
///
/// Panics if `measure` returns the wrong number of samples.
pub fn run_with<G, F>(cfg: &SweepConfig, series: &[&str], inject: G, measure: F) -> SeriesTable
where
    G: Fn(Mesh, usize, Coord, &mut StdRng) -> FaultSet + Sync,
    F: Fn(&TrialInput<'_>, &mut StdRng) -> Vec<f64> + Sync,
{
    let mesh = Mesh::square(cfg.mesh_size);
    let profile = cfg.profile.unwrap_or_else(|| BuildProfile::auto(mesh));

    // One work item per (point, chunk of trials).
    struct Item {
        point: usize,
        k: usize,
        first_trial: u32,
        trials: u32,
    }
    let mut items = Vec::new();
    for (point, &k) in cfg.fault_counts.iter().enumerate() {
        let mut first_trial = 0;
        while first_trial < cfg.trials {
            let trials = CHUNK_TRIALS.min(cfg.trials - first_trial);
            items.push(Item {
                point,
                k,
                first_trial,
                trials,
            });
            first_trial += trials;
        }
    }

    let threads = cfg.resolved_threads().min(items.len().max(1));
    // emr-lint: allow(A2, "work-stealing cursor: claim order is nondeterministic but chunk results land at chunk_sums[index] and merge in item order")
    let next = AtomicUsize::new(0);
    let mut chunk_sums: Vec<Option<Vec<Summary>>> = Vec::new();
    chunk_sums.resize_with(items.len(), || None);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (inject, measure, items, next) = (&inject, &measure, &items, &next);
                scope.spawn(move || {
                    // Each worker is its own thread, so every trial's
                    // maps reuse that thread's scratch workspace.
                    let mut done: Vec<(usize, Vec<Summary>)> = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(index) else {
                            break;
                        };
                        let mut sums = vec![Summary::new(); series.len()];
                        for t in item.first_trial..item.first_trial + item.trials {
                            let mut gen_rng = generation_rng(cfg.seed, item.k, t);
                            let (scenario, source, dest) =
                                generate_trial(mesh, item.k, profile, inject, &mut gen_rng);
                            let input = TrialInput::new(&scenario, source, dest);
                            let mut measure_rng = measurement_rng(cfg.seed, item.k, t);
                            let samples = measure(&input, &mut measure_rng);
                            assert_eq!(
                                samples.len(),
                                series.len(),
                                "measure returned {} samples for {} series",
                                samples.len(),
                                series.len()
                            );
                            for (sum, v) in sums.iter_mut().zip(samples) {
                                sum.add(v);
                            }
                        }
                        done.push((index, sums));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            // Forward worker panics verbatim instead of wrapping them in
            // a second panic, so the original trial failure surfaces.
            let done = match h.join() {
                Ok(done) => done,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            for (index, sums) in done {
                chunk_sums[index] = Some(sums);
            }
        }
    });

    // Merge per-chunk summaries in ascending trial order — `items` is
    // already sorted by (point, first_trial), so a linear pass gives every
    // point the same reduction tree a single thread would.
    let mut points: Vec<(usize, Vec<Summary>)> = cfg
        .fault_counts
        .iter()
        .map(|&k| (k, vec![Summary::new(); series.len()]))
        .collect();
    for (item, sums) in items.iter().zip(chunk_sums) {
        // Every index was claimed exactly once by the cursor loop above.
        // emr-lint: allow(A1, "the cursor loop claims every chunk index exactly once before the scope joins")
        let sums = sums.expect("every chunk was processed");
        for (acc, s) in points[item.point].1.iter_mut().zip(&sums) {
            acc.merge(s);
        }
    }
    points.sort_by_key(|&(k, _)| k);
    SeriesTable {
        series: series.iter().map(|s| s.to_string()).collect(),
        points,
    }
}

/// Generates one trial exactly as §5 prescribes, with a pluggable fault
/// injector.
fn generate_trial<G>(
    mesh: Mesh,
    k: usize,
    profile: BuildProfile,
    inject: &G,
    rng: &mut StdRng,
) -> (Scenario, Coord, Coord)
where
    G: Fn(Mesh, usize, Coord, &mut StdRng) -> FaultSet,
{
    let source = mesh.center();
    let scenario = loop {
        let faults = inject(mesh, k, source, rng);
        let sc = Scenario::build_profiled(faults, profile);
        // The paper assumes the source is outside every faulty block.
        if !sc.blocks().is_blocked(source) {
            break sc;
        }
    };
    // Destination uniform in the first-quadrant submesh, outside blocks.
    let dest = loop {
        let d = Coord::new(
            rng.gen_range(source.x..mesh.width()),
            rng.gen_range(source.y..mesh.height()),
        );
        if d != source && !scenario.blocks().is_blocked(d) {
            break d;
        }
    };
    (scenario, source, dest)
}

/// The result of a sweep: one row per fault count, one column per series.
#[derive(Debug, Clone)]
pub struct SeriesTable {
    series: Vec<String>,
    points: Vec<(usize, Vec<Summary>)>,
}

impl SeriesTable {
    /// Assembles a table from raw parts (used by custom sweeps such as the
    /// ablation experiments).
    ///
    /// # Panics
    ///
    /// Panics if any row's width differs from the series count.
    pub fn from_parts(series: Vec<String>, points: Vec<(usize, Vec<Summary>)>) -> SeriesTable {
        for (k, sums) in &points {
            assert_eq!(
                sums.len(),
                series.len(),
                "row k={k} has {} entries for {} series",
                sums.len(),
                series.len()
            );
        }
        SeriesTable { series, points }
    }

    /// Joins two tables over the same fault counts into one wide table.
    ///
    /// # Panics
    ///
    /// Panics if the fault-count axes differ.
    pub fn joined(&self, other: &SeriesTable) -> SeriesTable {
        assert_eq!(
            self.points.iter().map(|p| p.0).collect::<Vec<_>>(),
            other.points.iter().map(|p| p.0).collect::<Vec<_>>(),
            "fault-count axes differ"
        );
        let series = self.series.iter().chain(&other.series).cloned().collect();
        let points = self
            .points
            .iter()
            .zip(&other.points)
            .map(|((k, a), (_, b))| (*k, a.iter().chain(b).copied().collect()))
            .collect();
        SeriesTable { series, points }
    }

    /// The series names (column headers).
    pub fn series(&self) -> &[String] {
        &self.series
    }

    /// The mean of `series` at fault count `k`, if present.
    pub fn mean(&self, series: &str, k: usize) -> Option<f64> {
        let col = self.series.iter().position(|s| s == series)?;
        let (_, sums) = self.points.iter().find(|&&(pk, _)| pk == k)?;
        Some(sums[col].mean())
    }

    /// Iterates `(k, means-per-series)` rows.
    pub fn rows(&self) -> impl Iterator<Item = (usize, Vec<f64>)> + '_ {
        self.points
            .iter()
            .map(|(k, sums)| (*k, sums.iter().map(Summary::mean).collect()))
    }

    /// Writes the table as aligned text (the format the `fig*` binaries
    /// print and `EXPERIMENTS.md` records).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_plain(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        write!(out, "{:>8}", "faults")?;
        for s in &self.series {
            write!(out, "  {s:>24}")?;
        }
        writeln!(out)?;
        for (k, means) in self.rows() {
            write!(out, "{k:>8}")?;
            for m in means {
                write!(out, "  {m:>24.4}")?;
            }
            writeln!(out)?;
        }
        Ok(())
    }

    /// Renders [`SeriesTable::write_plain`] to a string.
    pub fn to_plain_string(&self) -> String {
        let mut buf = Vec::new();
        self.write_plain(&mut buf).expect("writing to a Vec");
        String::from_utf8(buf).expect("ASCII output")
    }

    /// Writes the table as CSV (header row, then one row per fault count).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_csv(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        write!(out, "faults")?;
        for s in &self.series {
            write!(out, ",{s}")?;
        }
        writeln!(out)?;
        for (k, means) in self.rows() {
            write!(out, "{k}")?;
            for m in means {
                write!(out, ",{m:.6}")?;
            }
            writeln!(out)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(mesh: Mesh, k: usize, source: Coord, rng: &mut StdRng) -> FaultSet {
        inject::uniform(mesh, k, &[source], rng)
    }

    #[test]
    fn trial_generation_respects_invariants() {
        let mesh = Mesh::square(30);
        let mut rng = StdRng::seed_from_u64(3);
        for k in [0usize, 5, 25] {
            let (sc, s, d) = generate_trial(mesh, k, BuildProfile::SCALAR, &uniform, &mut rng);
            assert_eq!(s, mesh.center());
            assert!(!sc.blocks().is_blocked(s));
            assert!(!sc.blocks().is_blocked(d));
            assert!(d.x >= s.x && d.y >= s.y, "dest {d} not in quadrant I");
            assert_eq!(sc.faults().len(), k);
        }
    }

    #[test]
    fn sweep_is_deterministic_and_sorted() {
        let cfg = SweepConfig::smoke();
        let run1 = run(&cfg, &["frac"], |input, _| {
            vec![f64::from(u8::from(input.dest.x % 2 == 0))]
        });
        let run2 = run(&cfg, &["frac"], |input, _| {
            vec![f64::from(u8::from(input.dest.x % 2 == 0))]
        });
        let rows1: Vec<_> = run1.rows().collect();
        let rows2: Vec<_> = run2.rows().collect();
        assert_eq!(rows1, rows2);
        let ks: Vec<usize> = rows1.iter().map(|&(k, _)| k).collect();
        assert_eq!(ks, cfg.fault_counts);
    }

    #[test]
    fn rng_streams_are_decorrelated() {
        use rand::RngCore;
        // Same (seed, k, trial) but different stream → different output;
        // and the measurement stream never collides with generation.
        let mut g = generation_rng(7, 10, 3);
        let mut m = measurement_rng(7, 10, 3);
        let gv: Vec<u64> = (0..8).map(|_| g.next_u64()).collect();
        let mv: Vec<u64> = (0..8).map(|_| m.next_u64()).collect();
        assert_ne!(gv, mv);
        // Adjacent trials differ too.
        let mut g2 = generation_rng(7, 10, 4);
        let g2v: Vec<u64> = (0..8).map(|_| g2.next_u64()).collect();
        assert_ne!(gv, g2v);
    }

    #[test]
    fn measurement_draws_do_not_perturb_trials() {
        // A measure that consumes RNG values must not change the trial
        // sequence (destinations, scenarios) other measures observe.
        let cfg = SweepConfig::smoke();
        let greedy = run(&cfg, &["x"], |input, rng| {
            let _ = rng.gen_range(0..1_000_000);
            let _ = rng.gen_range(0..1_000_000);
            vec![f64::from(input.dest.x)]
        });
        let frugal = run(&cfg, &["x"], |input, _| vec![f64::from(input.dest.x)]);
        assert_eq!(
            greedy.rows().collect::<Vec<_>>(),
            frugal.rows().collect::<Vec<_>>()
        );
    }

    /// A measure exercising every determinism-relevant path: scenario
    /// geometry, the reachability oracle, and the measurement RNG stream.
    fn golden_measure(input: &TrialInput<'_>, rng: &mut StdRng) -> Vec<f64> {
        let (s, d) = (input.source, input.dest);
        let reachable = emr_fault::reach::minimal_path_exists(&input.scenario.mesh(), s, d, |c| {
            input.scenario.faults().is_faulty(c)
        });
        vec![
            f64::from(d.x + d.y),
            f64::from(u8::from(reachable)),
            f64::from(rng.gen_range(0..1000u32)),
        ]
    }

    const GOLDEN_SERIES: [&str; 3] = ["dist", "optimal", "draw"];

    #[test]
    fn results_are_identical_for_any_thread_count() {
        // The engine's core guarantee: the table is byte-identical no
        // matter how many workers ran it (chunking and merge order depend
        // only on the configuration).
        let table_for = |threads: usize| {
            let mut cfg = SweepConfig::smoke();
            cfg.threads = Some(threads);
            run(&cfg, &GOLDEN_SERIES, golden_measure).to_plain_string()
        };
        let single = table_for(1);
        assert_eq!(single, table_for(8));
        assert_eq!(single, table_for(3));
    }

    #[test]
    fn profiled_sweeps_match_scalar_tables() {
        // Banded construction and lean safety storage must leave every
        // sweep table byte-identical to the sequential dense run.
        let mut cfg = SweepConfig::smoke();
        cfg.profile = Some(BuildProfile::SCALAR);
        let scalar = run(&cfg, &GOLDEN_SERIES, golden_measure).to_plain_string();
        cfg.profile = Some(BuildProfile {
            bands: 3,
            lean_safety: true,
        });
        let tiled = run(&cfg, &GOLDEN_SERIES, golden_measure).to_plain_string();
        assert_eq!(tiled, scalar);
    }

    #[test]
    fn smoke_config_matches_pinned_golden() {
        // Pins the exact output of `SweepConfig::smoke()` under the
        // deterministic seed→trial RNG derivation. If this changes, the
        // RNG derivation (or the smoke config) changed — update
        // EXPERIMENTS.md's recorded numbers along with this constant.
        let golden = concat!(
            "  faults                      dist                   optimal                      draw\n",
            "       0                   59.3750                    1.0000                  402.7000\n",
            "      10                   60.4500                    0.9750                  596.7250\n",
            "      20                   60.1000                    1.0000                  511.5250\n",
            "      40                   59.6750                    0.9750                  528.6750\n",
        );
        let table = run(&SweepConfig::smoke(), &GOLDEN_SERIES, golden_measure);
        assert_eq!(table.to_plain_string(), golden);
    }

    #[test]
    fn table_lookup_and_formats() {
        let cfg = SweepConfig {
            mesh_size: 20,
            trials: 10,
            fault_counts: vec![0, 5],
            seed: 1,
            threads: None,
            profile: None,
        };
        let table = run(&cfg, &["ones", "halves"], |_, _| vec![1.0, 0.5]);
        assert_eq!(table.mean("ones", 0), Some(1.0));
        assert_eq!(table.mean("halves", 5), Some(0.5));
        assert_eq!(table.mean("missing", 0), None);
        let plain = table.to_plain_string();
        assert!(plain.contains("faults"));
        assert!(plain.contains("ones"));
        let mut csv = Vec::new();
        table.write_csv(&mut csv).unwrap();
        let csv = String::from_utf8(csv).unwrap();
        assert!(csv.starts_with("faults,ones,halves"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "measure returned 1 samples for 2 series")]
    fn wrong_sample_count_panics() {
        let cfg = SweepConfig {
            mesh_size: 10,
            trials: 1,
            fault_counts: vec![0],
            seed: 1,
            threads: None,
            profile: None,
        };
        let _ = run(&cfg, &["a", "b"], |_, _| vec![1.0]);
    }
}
