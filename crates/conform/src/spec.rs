//! Seeded scenario specifications.
//!
//! Every randomized input the harness ever feeds an oracle is derived from
//! one `u64` seed through the same splitmix64 chain the sweep engine uses
//! (`emr-analysis`), so a failure report's seed alone reproduces the run.
//! The expanded [`ScenarioSpec`] is also serializable: a shrunk
//! counterexample is stored as explicit JSON, independent of the generator
//! version that produced it.

use rand::rngs::StdRng;
use rand::seq::SliceRandom as _;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use emr_core::Scenario;
use emr_fault::FaultSet;
use emr_mesh::{Coord, Mesh};

/// Domain-separation salt for scenario expansion (mirrors the sweep
/// engine's `SALT_GENERATE` convention).
pub const SALT_CONFORM: u64 = 0x636F_6E66_6F72_6D00;

/// Chains a master seed, a stream index, and a trial index into one
/// per-trial seed (the PR 1 derivation scheme).
pub fn derive_seed(master: u64, stream: usize, trial: u32) -> u64 {
    let mut state = master ^ SALT_CONFORM;
    let a = rand::splitmix64(&mut state);
    state = a ^ (stream as u64);
    let b = rand::splitmix64(&mut state);
    state = b ^ u64::from(trial);
    rand::splitmix64(&mut state)
}

/// How the faults of a scenario were placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Injection {
    /// Independent uniform placement.
    Uniform,
    /// Clustered placement around random centers.
    Clustered,
    /// Hand-written fault list (shrunk counterexamples land here: after
    /// shrinking the fault set no longer matches any injection law).
    Explicit,
}

/// A fully expanded, self-contained scenario: mesh dimensions, the exact
/// fault list, and the source/destination pairs to check. Serializable so
/// counterexamples survive generator changes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// The seed this spec was expanded from (kept for provenance; a shrunk
    /// spec keeps its ancestor's seed).
    pub seed: u64,
    /// Mesh width (≥ 1; degenerate 1×n meshes are generated on purpose).
    pub width: i32,
    /// Mesh height (≥ 1).
    pub height: i32,
    /// How the faults were placed.
    pub injection: Injection,
    /// The exact faulty nodes.
    pub faults: Vec<Coord>,
    /// Source/destination pairs to check (both raw-fault-free, s ≠ d).
    pub pairs: Vec<(Coord, Coord)>,
}

impl ScenarioSpec {
    /// Expands a seed into a concrete scenario specification.
    ///
    /// Dimension draws deliberately include degenerate shapes: roughly one
    /// mesh in seven has a side of length 1 or 2, the rest are 3–18 per
    /// side. One mesh in eight is then redrawn with one side of 63–66 or
    /// 127–130 nodes, so its rows or its columns (the safety transposes'
    /// lanes) reach or cross a 64-bit word boundary, and the other side
    /// of 1–6 nodes, so the spec stays cheap. Fault counts go up to a
    /// fifth of the mesh; placement is uniform or clustered.
    pub fn generate(seed: u64) -> ScenarioSpec {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0, 0));
        let (mut width, mut height) = (draw_side(&mut rng), draw_side(&mut rng));
        // The wide draw has a seed stream of its own, so a narrow spec is
        // exactly what the main stream draws (pinned seeds rely on it).
        let mut wide = StdRng::seed_from_u64(derive_seed(seed, 4, 0));
        if wide.gen_range(0..8u32) == 0 {
            (width, height) = (
                63 + wide.gen_range(0..4) + 64 * wide.gen_range(0..2),
                wide.gen_range(1..=6),
            );
            if wide.gen_bool(0.5) {
                (width, height) = (height, width);
            }
        }
        let mesh = Mesh::new(width, height);
        let nodes = (width as usize) * (height as usize);
        let max_faults = nodes / 5;
        let count = if max_faults == 0 {
            0
        } else {
            rng.gen_range(0..=max_faults)
        };
        let (injection, faults) = if count > 0 && rng.gen_bool(0.35) {
            let centers = 1 + usize::from(rng.gen_bool(0.4));
            let spread = 1.0 + rng.gen_range(0.0..2.0);
            (
                Injection::Clustered,
                emr_fault::inject::clustered(mesh, count, centers, spread, &[], &mut rng),
            )
        } else {
            (
                Injection::Uniform,
                emr_fault::inject::uniform(mesh, count, &[], &mut rng),
            )
        };
        let fault_coords: Vec<Coord> = faults.iter().collect();
        let healthy: Vec<Coord> = mesh.nodes().filter(|&c| !faults.is_faulty(c)).collect();
        let mut pairs = Vec::new();
        if healthy.len() >= 2 {
            let want = rng.gen_range(4..=8usize);
            let mut guard = 0;
            while pairs.len() < want && guard < 200 {
                guard += 1;
                let s = *healthy.choose(&mut rng).expect("non-empty");
                let d = *healthy.choose(&mut rng).expect("non-empty");
                if s != d {
                    pairs.push((s, d));
                }
            }
        }
        ScenarioSpec {
            seed,
            width,
            height,
            injection,
            faults: fault_coords,
            pairs,
        }
    }

    /// The mesh this spec lives in.
    pub fn mesh(&self) -> Mesh {
        Mesh::new(self.width, self.height)
    }

    /// The spec's fault list as a [`FaultSet`].
    pub fn fault_set(&self) -> FaultSet {
        FaultSet::from_coords(self.mesh(), self.faults.iter().copied())
    }

    /// Builds the full two-model [`Scenario`] decomposition.
    pub fn scenario(&self) -> Scenario {
        Scenario::build(self.fault_set())
    }

    /// Whether a row or a column of the mesh is longer than one 64-bit
    /// word.
    pub fn crosses_word(&self) -> bool {
        self.width.max(self.height) > 64
    }

    /// A coarse size measure the shrinker drives toward zero:
    /// nodes + faults + pairs + total pair separation.
    pub fn weight(&self) -> u64 {
        let nodes = (self.width as u64) * (self.height as u64);
        let sep: u64 = self
            .pairs
            .iter()
            .map(|&(s, d)| u64::from(s.manhattan(d)))
            .sum();
        nodes + self.faults.len() as u64 + self.pairs.len() as u64 + sep
    }
}

fn draw_side(rng: &mut StdRng) -> i32 {
    match rng.gen_range(0..14u32) {
        0 => 1,
        1 => 2,
        _ => rng.gen_range(3..=18),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_deterministic() {
        for seed in [0u64, 1, 42, u64::MAX] {
            assert_eq!(ScenarioSpec::generate(seed), ScenarioSpec::generate(seed));
        }
    }

    #[test]
    fn specs_are_well_formed() {
        for seed in 0..200u64 {
            let spec = ScenarioSpec::generate(seed);
            let mesh = spec.mesh();
            for &f in &spec.faults {
                assert!(mesh.contains(f), "seed {seed}: fault {f} off-mesh");
            }
            let set = spec.fault_set();
            for &(s, d) in &spec.pairs {
                assert!(mesh.contains(s) && mesh.contains(d));
                assert_ne!(s, d, "seed {seed}");
                assert!(!set.is_faulty(s) && !set.is_faulty(d), "seed {seed}");
            }
        }
    }

    #[test]
    fn degenerate_meshes_do_occur() {
        let thin = (0..300u64)
            .map(ScenarioSpec::generate)
            .filter(|s| s.width.min(s.height) == 1)
            .count();
        assert!(thin > 5, "only {thin} 1×n meshes in 300 seeds");
    }

    #[test]
    fn word_crossing_meshes_occur_on_both_axes() {
        let specs: Vec<ScenarioSpec> = (0..200u64).map(ScenarioSpec::generate).collect();
        assert!(
            specs.iter().any(|s| s.width > 64),
            "no wide mesh in 200 seeds"
        );
        assert!(
            specs.iter().any(|s| s.height > 64),
            "no tall mesh in 200 seeds"
        );
        // The other side stays small, so a wide spec stays cheap.
        for s in specs.iter().filter(|s| s.crosses_word()) {
            assert!(s.width.min(s.height) <= 6, "{}x{}", s.width, s.height);
        }
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = ScenarioSpec::generate(7);
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }
}
