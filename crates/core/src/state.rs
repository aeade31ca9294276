//! Epoched dynamic-fault scenarios (the paper's §1 information model).
//!
//! A [`crate::Scenario`] is a frozen snapshot: one fault set, decomposed
//! once. Real fault-tolerant routing faces *accumulating* faults — "when
//! a disturbance occurs, only those affected nodes update their
//! information". [`ScenarioState`] is the mutable counterpart: faults
//! arrive one at a time, each arrival bumps a monotonically increasing
//! [`Epoch`], and every derived structure is repaired incrementally:
//!
//! * the block/MCC decompositions resume their fix-points from the
//!   disturbance ([`emr_fault::BlockMap::insert_fault`],
//!   [`emr_fault::MccMap::insert_fault`]),
//! * the safety maps resweep only the lanes crossing the changed
//!   rectangles ([`crate::SafetyMap::resweep_rect_packed`]),
//! * boundary maps and per-pair routing decisions are cached under an
//!   epoch tag and recomputed only when actually invalidated — unaffected
//!   `(s, d)` work survives an epoch bump ([`DecisionCache`]).
//!
//! Every delta records its *dirty rectangles*: per fault model, a bound
//! on every node whose membership (blocked vs usable) changed. A cached
//! decision for `(s, d)` stays fresh as long as no newer dirty rectangle
//! shares a row band or column band with the route's neighborhood — see
//! [`ScenarioState::decision_fresh`] for why that predicate makes the
//! cached value *bit-identical* to a recompute, not merely plausible.
//! The incremental ≡ rebuild equivalence is property-tested here and
//! enforced after every epoch by the `state-matches-rebuild` oracle in
//! `emr-conform`.

use std::collections::BTreeMap;

use emr_fault::{FaultSet, MccType};
use emr_mesh::{Coord, Mesh, Rect};

use crate::boundary::BoundaryMap;
use crate::conditions::{ext1, ext3, safe_source, select_pivots, Ensured, PivotPolicy};
use crate::scenario::{Model, ModelView, Scenario};

/// A monotonically increasing fault-arrival counter. Epoch 0 is the
/// initial fault set; each accepted [`ScenarioState::insert_fault`]
/// increments it by exactly one.
pub type Epoch = u64;

/// The record of one fault arrival: which node failed at which epoch, and
/// the per-model disturbance footprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochDelta {
    /// The epoch this arrival created (contiguous from 1).
    pub epoch: Epoch,
    /// The node that failed.
    pub fault: Coord,
    /// The merged faulty-block rectangle containing the fault; bounds
    /// every block-model membership change.
    pub block: Rect,
    /// Membership-change bounds per MCC labeling (`[One, Two]`); `None`
    /// when that labeling's membership did not change.
    pub mcc: [Option<Rect>; 2],
}

impl EpochDelta {
    /// The dirty rectangles of this delta under one fault model: every
    /// node whose membership changed under `model` lies in one of them.
    pub fn dirty_rects(&self, model: Model) -> impl Iterator<Item = Rect> {
        match model {
            Model::FaultBlock => [Some(self.block), None],
            Model::Mcc => self.mcc,
        }
        .into_iter()
        .flatten()
    }
}

/// A scenario that accumulates faults over time, repairing its derived
/// maps incrementally and exposing epoch-tagged caches.
///
/// Construction warms every lazy map of the underlying [`Scenario`] so
/// that all later arrivals take the incremental path (and so the dirty
/// rectangles of the MCC labelings are always exact — a labeling that was
/// never materialized could not report its membership changes).
#[derive(Debug, Clone)]
pub struct ScenarioState {
    scenario: Scenario,
    epoch: Epoch,
    deltas: Vec<EpochDelta>,
    // Epoch-tagged boundary maps: [blocks, MCC one, MCC two].
    boundary: [Option<(Epoch, BoundaryMap)>; 3],
}

impl ScenarioState {
    /// Builds the epoch-0 state from an initial fault set and warms every
    /// derived map.
    pub fn new(faults: FaultSet) -> ScenarioState {
        ScenarioState::from_scenario(Scenario::build(faults))
    }

    /// [`ScenarioState::new`] under an explicit build profile: giant-mesh
    /// callers pick banded construction and lean safety storage here, and
    /// every epoch resweep then repairs the profiled maps in place.
    pub fn with_profile(faults: FaultSet, profile: crate::scenario::BuildProfile) -> ScenarioState {
        ScenarioState::from_scenario(Scenario::build_profiled(faults, profile))
    }

    fn from_scenario(scenario: Scenario) -> ScenarioState {
        scenario.warm();
        ScenarioState {
            scenario,
            epoch: 0,
            deltas: Vec::new(),
            boundary: [None, None, None],
        }
    }

    /// The current epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The mesh.
    pub fn mesh(&self) -> Mesh {
        self.scenario.mesh()
    }

    /// The underlying scenario at the current epoch.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Every fault arrival so far, in epoch order.
    pub fn deltas(&self) -> &[EpochDelta] {
        &self.deltas
    }

    /// The arrivals newer than `since` (epochs are contiguous, so this is
    /// a slice index, not a search).
    pub fn deltas_since(&self, since: Epoch) -> &[EpochDelta] {
        let start = (since as usize).min(self.deltas.len());
        &self.deltas[start..]
    }

    /// Records a newly failed node. Every already-built map is repaired
    /// incrementally (clipped to the disturbance), the epoch advances by
    /// one, and the delta is recorded. Returns the new epoch, or `None`
    /// when `c` was already faulty (state and epoch unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `c` lies outside the mesh.
    pub fn insert_fault(&mut self, c: Coord) -> Option<Epoch> {
        let delta = self.scenario.apply_fault(c)?;
        self.epoch += 1;
        self.deltas.push(EpochDelta {
            epoch: self.epoch,
            fault: c,
            block: delta.block,
            mcc: delta.mcc,
        });
        Some(self.epoch)
    }

    /// The boundary map for `model` (MCC routes use the type-one
    /// labeling, mirroring [`Scenario::boundary_map`]), rebuilt only when
    /// a fault arrived since it was last built.
    pub fn boundary_map(&mut self, model: Model) -> &BoundaryMap {
        let ty = match model {
            Model::FaultBlock => None,
            Model::Mcc => Some(MccType::One),
        };
        self.boundary_slot(ty)
    }

    /// The boundary map matching routes from `s` to `d` under `model`
    /// (picks the MCC labeling from the route's quadrant), epoch-cached
    /// like [`ScenarioState::boundary_map`].
    pub fn boundary_map_for(&mut self, model: Model, s: Coord, d: Coord) -> &BoundaryMap {
        let ty = match model {
            Model::FaultBlock => None,
            Model::Mcc => Some(MccType::for_route(s, d)),
        };
        self.boundary_slot(ty)
    }

    fn boundary_slot(&mut self, ty: Option<MccType>) -> &BoundaryMap {
        let slot = match ty {
            None => 0,
            Some(MccType::One) => 1,
            Some(MccType::Two) => 2,
        };
        let stale = !matches!(&self.boundary[slot], Some((e, _)) if *e == self.epoch);
        if stale {
            let map = match ty {
                None => self.scenario.boundary_map(Model::FaultBlock),
                Some(t) => self.scenario.mcc_boundary_map(t),
            };
            self.boundary[slot] = Some((self.epoch, map));
        }
        match &self.boundary[slot] {
            Some((_, map)) => map,
            // emr-lint: allow(A1, "the branch above fills this slot before the match when it is empty or stale")
            None => unreachable!("slot filled above"),
        }
    }

    /// An immutable export of the current epoch: the underlying scenario,
    /// fully warmed and cloned, so the caller can freeze it behind an
    /// `Arc` while this state keeps accumulating faults.
    ///
    /// Warming before the clone matters: a `OnceLock` clone carries the
    /// *value* (initialized or not), so exporting a warmed scenario hands
    /// out every packed map by copy — later queries on the export never
    /// rebuild anything, and `insert_fault` on this state can never be
    /// observed by a holder of the export. This is the snapshot-publish
    /// primitive of `emr-serve`.
    pub fn export_scenario(&self) -> Scenario {
        self.scenario.warm();
        self.scenario.clone()
    }

    /// Whether a decision for `(s, d)` computed at epoch `since` is still
    /// exact at the current epoch.
    ///
    /// [`decide_local`] reads only (a) obstacle membership of nodes in
    /// `Q = bbox(s, d)` inflated by one, and (b) safety levels of nodes in
    /// `Q`. A node's safety level depends solely on the obstacle pattern
    /// of its own row and column. So if every delta newer than `since` has
    /// all its dirty rectangles disjoint from `Q` in *both* the x-range
    /// and the y-range, none of those reads can have changed — no changed
    /// node lies in `Q`, and no changed node shares a row or column with
    /// any node of `Q`. The cached decision is then bit-identical to a
    /// recompute (no monotonicity argument needed).
    pub fn decision_fresh(&self, model: Model, s: Coord, d: Coord, since: Epoch) -> bool {
        let q = Rect::point(s).expanded_to(d).inflated(1);
        self.deltas_since(since).iter().all(|delta| {
            delta.dirty_rects(model).all(|r| {
                let x_disjoint = r.x_max() < q.x_min() || r.x_min() > q.x_max();
                let y_disjoint = r.y_max() < q.y_min() || r.y_min() > q.y_max();
                x_disjoint && y_disjoint
            })
        })
    }
}

/// The band-local decision pipeline the [`DecisionCache`] memoizes:
/// safe-source (Theorem 1), extension 1, then extension 3 with
/// deterministic level-2 center pivots inside `bbox(s, d)` (extension 1's
/// sub-minimal rescue is kept as the fallback, mirroring the strategy
/// preference for minimal guarantees).
///
/// Extension 2 is deliberately *excluded*: its representative-section walk
/// reads obstacles along the source's whole row/column region, far outside
/// `bbox(s, d)`, which would defeat the rectangle-disjointness freshness
/// predicate of [`ScenarioState::decision_fresh`]. Everything here reads
/// only within `bbox(s, d)` inflated by one.
pub fn decide_local(view: &ModelView<'_>, s: Coord, d: Coord) -> Option<Ensured> {
    if let Some(plan) = safe_source(view, s, d) {
        return Some(Ensured::Minimal(plan));
    }
    let mut sub_minimal = None;
    match ext1(view, s, d) {
        Some(e @ Ensured::Minimal(_)) => return Some(e),
        Some(e @ Ensured::SubMinimal(_)) => sub_minimal = Some(e),
        None => {}
    }
    let region = Rect::point(s).expanded_to(d);
    let mut rng = rand::rngs::mock::StepRng::new(0, 1);
    let pivots = select_pivots(region, 2, PivotPolicy::Center, &mut rng);
    if let Some(plan) = ext3(view, s, d, &pivots) {
        return Some(Ensured::Minimal(plan));
    }
    sub_minimal
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CacheEntry {
    epoch: Epoch,
    decision: Option<Ensured>,
}

/// An epoch-tagged memo of [`decide_local`] results, keyed by
/// `(model, s, d)`.
///
/// On lookup the entry's epoch tag is checked through
/// [`ScenarioState::decision_fresh`]; a fresh entry is returned as-is
/// (and re-tagged to the current epoch so later freshness checks scan
/// fewer deltas), a stale one is recomputed. This is the paper's "only
/// those affected nodes update their information" applied to source
/// decisions: an epoch bump invalidates only the pairs whose neighborhood
/// the new fault actually disturbed.
#[derive(Debug, Clone, Default)]
pub struct DecisionCache {
    entries: BTreeMap<(Model, Coord, Coord), CacheEntry>,
    hits: u64,
    misses: u64,
}

impl DecisionCache {
    /// An empty cache.
    pub fn new() -> DecisionCache {
        DecisionCache::default()
    }

    /// The routing decision for `(s, d)` under `model` at the state's
    /// current epoch, from cache when provably unaffected by the faults
    /// that arrived since it was computed.
    pub fn decide(
        &mut self,
        state: &ScenarioState,
        model: Model,
        s: Coord,
        d: Coord,
    ) -> Option<Ensured> {
        let key = (model, s, d);
        if let Some(entry) = self.entries.get_mut(&key) {
            if state.decision_fresh(model, s, d, entry.epoch) {
                entry.epoch = state.epoch();
                self.hits += 1;
                return entry.decision;
            }
        }
        self.misses += 1;
        let view = state.scenario().view(model);
        let decision = decide_local(&view, s, d);
        self.entries.insert(
            key,
            CacheEntry {
                epoch: state.epoch(),
                decision,
            },
        );
        decision
    }

    /// The cached decision for `(s, d)` if present *and* provably fresh;
    /// never recomputes and never mutates the cache. The conformance
    /// oracle uses this to check cached values against recomputation.
    pub fn peek_fresh(
        &self,
        state: &ScenarioState,
        model: Model,
        s: Coord,
        d: Coord,
    ) -> Option<Option<Ensured>> {
        let entry = self.entries.get(&(model, s, d))?;
        state
            .decision_fresh(model, s, d, entry.epoch)
            .then_some(entry.decision)
    }

    /// Every memoized decision that is still provably fresh at `state`'s
    /// current epoch, in key order.
    ///
    /// Each returned decision is bit-identical to what [`decide_local`]
    /// would recompute right now (the [`ScenarioState::decision_fresh`]
    /// guarantee), so the export can seed a read-only memo for an
    /// immutable snapshot of the state — stale entries are simply
    /// dropped rather than recomputed.
    pub fn export_fresh(
        &self,
        state: &ScenarioState,
    ) -> Vec<((Model, Coord, Coord), Option<Ensured>)> {
        self.entries
            .iter()
            .filter(|((model, s, d), entry)| state.decision_fresh(*model, *s, *d, entry.epoch))
            .map(|(&key, entry)| (key, entry.decision))
            .collect()
    }

    /// Number of memoized pairs (fresh or stale).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups answered from cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that recomputed.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emr_mesh::Mesh;

    fn state_with(mesh: Mesh, faults: &[(i32, i32)]) -> ScenarioState {
        ScenarioState::new(FaultSet::from_coords(
            mesh,
            faults.iter().map(|&c| Coord::from(c)),
        ))
    }

    #[test]
    fn epochs_advance_only_on_new_faults() {
        let mut st = state_with(Mesh::square(8), &[(4, 4)]);
        assert_eq!(st.epoch(), 0);
        assert_eq!(st.insert_fault(Coord::new(4, 4)), None);
        assert_eq!(st.epoch(), 0);
        assert_eq!(st.insert_fault(Coord::new(2, 2)), Some(1));
        assert_eq!(st.insert_fault(Coord::new(6, 1)), Some(2));
        assert_eq!(st.deltas().len(), 2);
        assert_eq!(st.deltas()[0].fault, Coord::new(2, 2));
        assert!(st.deltas().windows(2).all(|w| w[1].epoch == w[0].epoch + 1));
        assert_eq!(st.deltas_since(1).len(), 1);
        assert_eq!(st.deltas_since(99).len(), 0);
    }

    #[test]
    fn state_matches_fresh_scenario_after_insertions() {
        let mesh = Mesh::square(10);
        let mut st = state_with(mesh, &[(5, 5)]);
        for &(x, y) in &[(6, 6), (2, 8), (6, 5), (0, 0)] {
            st.insert_fault(Coord::new(x, y));
        }
        let rebuilt = Scenario::build(st.scenario().faults().clone());
        for c in mesh.nodes() {
            assert_eq!(
                st.scenario().blocks().state(c),
                rebuilt.blocks().state(c),
                "block state at {c}"
            );
            for ty in MccType::ALL {
                assert_eq!(
                    st.scenario().mcc(ty).status(c),
                    rebuilt.mcc(ty).status(c),
                    "{ty:?} status at {c}"
                );
                assert_eq!(
                    st.scenario().mcc_safety_map(ty).level(c),
                    rebuilt.mcc_safety_map(ty).level(c),
                    "{ty:?} safety at {c}"
                );
            }
            assert_eq!(
                st.scenario().block_safety_map().level(c),
                rebuilt.block_safety_map().level(c),
                "block safety at {c}"
            );
        }
    }

    #[test]
    fn profiled_state_repairs_match_scalar_rebuild() {
        use crate::scenario::BuildProfile;
        let mesh = Mesh::square(20);
        let profile = BuildProfile {
            bands: 3,
            lean_safety: true,
        };
        let mut st =
            ScenarioState::with_profile(FaultSet::from_coords(mesh, [Coord::new(5, 5)]), profile);
        for &(x, y) in &[(6, 6), (2, 8), (6, 5), (17, 12)] {
            st.insert_fault(Coord::new(x, y));
        }
        assert!(st.scenario().block_safety_map().is_lean());
        let rebuilt =
            crate::Scenario::build_profiled(st.scenario().faults().clone(), BuildProfile::SCALAR);
        for c in mesh.nodes() {
            assert_eq!(
                st.scenario().block_safety_map().level(c),
                rebuilt.block_safety_map().level(c),
                "block safety at {c}"
            );
            for ty in MccType::ALL {
                assert_eq!(
                    st.scenario().mcc_safety_map(ty).level(c),
                    rebuilt.mcc_safety_map(ty).level(c),
                    "{ty:?} safety at {c}"
                );
            }
        }
    }

    #[test]
    fn boundary_cache_tracks_epochs() {
        let mesh = Mesh::square(10);
        let mut st = state_with(mesh, &[(5, 5)]);
        let assert_marks_match = |st: &mut ScenarioState, ctx: &str| {
            for model in Model::ALL {
                let fresh = st.scenario().boundary_map(model);
                let cached = st.boundary_map(model);
                for c in mesh.nodes() {
                    assert_eq!(cached.marks_at(c), fresh.marks_at(c), "{ctx} {model:?} {c}");
                }
            }
        };
        assert_marks_match(&mut st, "epoch 0");
        st.insert_fault(Coord::new(6, 6));
        assert_marks_match(&mut st, "epoch 1");
        st.insert_fault(Coord::new(2, 8));
        assert_marks_match(&mut st, "epoch 2");
    }

    #[test]
    fn exported_scenario_is_isolated_from_later_faults() {
        let mesh = Mesh::square(12);
        let mut st = state_with(mesh, &[(5, 5), (6, 6)]);
        let exported = st.export_scenario();
        let before: Vec<_> = mesh
            .nodes()
            .map(|c| {
                (
                    exported.blocks().state(c),
                    exported.block_safety_map().level(c),
                    exported.mcc_safety_map(MccType::One).level(c),
                )
            })
            .collect();
        // Mutating the state must not be visible through the export.
        st.insert_fault(Coord::new(5, 6));
        st.insert_fault(Coord::new(1, 9));
        let after: Vec<_> = mesh
            .nodes()
            .map(|c| {
                (
                    exported.blocks().state(c),
                    exported.block_safety_map().level(c),
                    exported.mcc_safety_map(MccType::One).level(c),
                )
            })
            .collect();
        assert_eq!(before, after);
        // And the export matches a from-scratch build of its epoch.
        let rebuilt = Scenario::build(FaultSet::from_coords(
            mesh,
            [Coord::new(5, 5), Coord::new(6, 6)],
        ));
        for c in mesh.nodes() {
            assert_eq!(exported.blocks().state(c), rebuilt.blocks().state(c));
            assert_eq!(
                exported.block_safety_map().level(c),
                rebuilt.block_safety_map().level(c)
            );
        }
    }

    #[test]
    fn export_fresh_keeps_only_provably_fresh_entries() {
        let mesh = Mesh::square(16);
        let mut st = state_with(mesh, &[(3, 3)]);
        let mut cache = DecisionCache::new();
        let near = (Coord::new(1, 1), Coord::new(6, 6));
        let far = (Coord::new(12, 10), Coord::new(15, 15));
        cache.decide(&st, Model::FaultBlock, near.0, near.1);
        cache.decide(&st, Model::FaultBlock, far.0, far.1);
        assert_eq!(cache.len(), 2);
        assert!(!cache.is_empty());
        // A fault inside `near`'s band stales that entry only.
        st.insert_fault(Coord::new(5, 2));
        let fresh = cache.export_fresh(&st);
        assert_eq!(fresh.len(), 1);
        let ((model, s, d), decision) = fresh[0];
        assert_eq!((model, s, d), (Model::FaultBlock, far.0, far.1));
        // The exported value is bit-identical to a recompute right now.
        let view = st.scenario().view(Model::FaultBlock);
        assert_eq!(decision, decide_local(&view, s, d));
    }

    #[test]
    fn distant_fault_keeps_decisions_fresh_and_identical() {
        let mesh = Mesh::square(16);
        let mut st = state_with(mesh, &[(3, 3), (4, 4)]);
        let mut cache = DecisionCache::new();
        let (s, d) = (Coord::new(1, 1), Coord::new(6, 6));
        let first = cache.decide(&st, Model::FaultBlock, s, d);
        assert_eq!(cache.misses(), 1);
        // A fault far outside bbox(s,d)'s bands cannot disturb the pair.
        st.insert_fault(Coord::new(14, 14));
        assert!(st.decision_fresh(Model::FaultBlock, s, d, 0));
        let again = cache.decide(&st, Model::FaultBlock, s, d);
        assert_eq!(cache.hits(), 1);
        assert_eq!(again, first);
        let view = st.scenario().view(Model::FaultBlock);
        assert_eq!(decide_local(&view, s, d), first);
        // A fault inside the band invalidates.
        st.insert_fault(Coord::new(5, 2));
        assert!(!st.decision_fresh(Model::FaultBlock, s, d, st.epoch() - 1));
        cache.decide(&st, Model::FaultBlock, s, d);
        assert_eq!(cache.misses(), 2);
    }
}
