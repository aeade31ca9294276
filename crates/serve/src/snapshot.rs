//! Epoch-tagged immutable snapshots.
//!
//! A [`Snapshot`] freezes one tenant's world at one epoch: the warmed
//! [`Scenario`] (fault set, the block and MCC planes, and the transposes
//! the three safety maps scan beside them) plus a read-only memo of
//! routing decisions that were provably fresh at publish time.
//! Snapshots are shared behind
//! `Arc` and never mutated — readers answer queries against them without
//! holding any lock, while the writer keeps repairing its *working*
//! [`emr_core::ScenarioState`] incrementally and publishes the next
//! epoch as a brand-new `Arc`.
//!
//! Bit-identity: a snapshot's answers are exactly what a freshly built
//! `Scenario` at the same fault prefix would answer. The scenario is a
//! warmed clone (value-carrying `OnceLock`s, no rebuild on first use),
//! and every memo entry passed the band-disjointness freshness predicate
//! (`ScenarioState::decision_fresh`), which makes the cached decision
//! bit-identical to a [`decide_local`] recompute — the
//! `serve-matches-direct` conformance oracle replays served sessions
//! against fresh scenarios to enforce exactly this.

use std::collections::BTreeMap;

use emr_core::{
    decide_local, DecisionCache, Ensured, Epoch, Model, SafetyLevel, Scenario, ScenarioState,
};
use emr_fault::reach_bits::minimal_path_exists_packed;
use emr_fault::MccType;
use emr_mesh::{Coord, MemBytes, Mesh};

use crate::api::ServeError;

/// One tenant's immutable world at one published epoch.
#[derive(Debug, Clone)]
pub struct Snapshot {
    epoch: Epoch,
    scenario: Scenario,
    memo: BTreeMap<(Model, Coord, Coord), Option<Ensured>>,
}

impl Snapshot {
    /// Captures the state's current epoch: a warmed scenario clone plus
    /// every provably fresh entry of the writer's decision cache.
    pub fn capture(state: &ScenarioState, cache: &DecisionCache) -> Snapshot {
        Snapshot {
            epoch: state.epoch(),
            scenario: state.export_scenario(),
            memo: cache.export_fresh(state).into_iter().collect(),
        }
    }

    /// The epoch this snapshot was published at.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The frozen scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The mesh.
    pub fn mesh(&self) -> Mesh {
        self.scenario.mesh()
    }

    /// Memoized decisions exported at publish time.
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// The routing decision for `(s, d)` under `model`: the publish-time
    /// memo when it holds the pair (bit-identical to a recompute by the
    /// freshness invariant), [`decide_local`] otherwise.
    pub fn route(&self, model: Model, s: Coord, d: Coord) -> Result<Option<Ensured>, ServeError> {
        self.check_on_mesh(s)?;
        self.check_on_mesh(d)?;
        if let Some(&decision) = self.memo.get(&(model, s, d)) {
            return Ok(decision);
        }
        Ok(decide_local(&self.scenario.view(model), s, d))
    }

    /// The extended safety level of `at` under `model`. The MCC model
    /// answers from the type-one labeling (the canonical quadrant-I/III
    /// case: a query names a node, not a route).
    pub fn safety(&self, model: Model, at: Coord) -> Result<SafetyLevel, ServeError> {
        self.check_on_mesh(at)?;
        Ok(match model {
            Model::FaultBlock => self.scenario.block_safety_map().level(at),
            Model::Mcc => self.scenario.mcc_safety_map(MccType::One).level(at),
        })
    }

    /// Whether a minimal path from `s` to `d` exists avoiding the raw
    /// faulty nodes (not whole blocks) — the exact reachability ground
    /// truth at this epoch, run on the packed fault bits.
    pub fn reach(&self, s: Coord, d: Coord) -> Result<bool, ServeError> {
        self.check_on_mesh(s)?;
        self.check_on_mesh(d)?;
        Ok(minimal_path_exists_packed(
            s,
            d,
            self.scenario.faults().packed(),
        ))
    }

    /// Approximate heap bytes held by this snapshot (an estimate for
    /// capacity planning, not an allocator measurement): the scenario's
    /// [`MemBytes`] payload accounting — the packed fault, block and MCC
    /// planes (block and component rectangles only once something reads
    /// them), and the three safety maps' transposes, one bit per node
    /// each, like the planes they transpose — plus 40 bytes per memo
    /// entry (key + value).
    pub fn approx_bytes(&self) -> u64 {
        self.scenario.mem_bytes() + self.memo.len() as u64 * 40
    }

    fn check_on_mesh(&self, c: Coord) -> Result<(), ServeError> {
        if self.mesh().contains(c) {
            Ok(())
        } else {
            Err(ServeError::OffMesh(c))
        }
    }
}
