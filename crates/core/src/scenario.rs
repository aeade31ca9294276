use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use emr_fault::{BlockMap, FaultSet, MccMap, MccType};
use emr_mesh::{BitGrid, Coord, MemBytes, Mesh, Rect};

use crate::boundary::BoundaryMap;
use crate::safety::{refresh_columns, SafetyLevel, SafetyMap};

/// Which fault model a computation runs under.
///
/// The paper evaluates everything twice: under the rectangular
/// faulty-block model (Definition 1) and under Wang's MCC refinement
/// (Definition 2, the `a`-suffixed extensions and strategies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Model {
    /// Rectangular faulty blocks.
    FaultBlock,
    /// Minimal connected components.
    Mcc,
}

impl Model {
    /// Both models.
    pub const ALL: [Model; 2] = [Model::FaultBlock, Model::Mcc];
}

/// One fault configuration, decomposed under both fault models with the
/// corresponding safety maps.
///
/// Building a scenario runs Definition 1 block formation eagerly (every
/// consumer needs it — trial generation rejects scenarios whose source
/// lands in a block); the block map's planes are built, its block list
/// only when read. The MCC labelings and the transposes of the three
/// obstacle planes (blocks, MCC type-one, MCC type-two), the column half
/// of each safety map, are computed lazily on first use: most sweep
/// measures touch only one model, and the experiment engine discards
/// rejected scenarios before any of them is consulted. Boundary maps are
/// likewise built on demand via [`Scenario::boundary_map`].
#[derive(Debug, Clone)]
pub struct Scenario {
    faults: FaultSet,
    blocks: BlockMap,
    mcc: [OnceLock<MccMap>; 2],
    block_safety: OnceLock<BitGrid>,
    mcc_safety: [OnceLock<BitGrid>; 2],
}

impl Scenario {
    /// Decomposes a fault set under both models. The block map is built
    /// here, the MCC and safety maps on first use; each build runs on the
    /// thread that triggers it, with that thread's scratch workspace.
    pub fn build(faults: FaultSet) -> Scenario {
        Scenario {
            blocks: BlockMap::build(&faults),
            faults,
            mcc: [OnceLock::new(), OnceLock::new()],
            block_safety: OnceLock::new(),
            mcc_safety: [OnceLock::new(), OnceLock::new()],
        }
    }

    /// The safety map under the faulty-block model: the block plane and
    /// its transpose (built on first use).
    pub fn block_safety_map(&self) -> SafetyMap<'_> {
        let plane = self.blocks.packed();
        let transposed = self
            .block_safety
            .get_or_init(|| SafetyMap::transpose(plane, &self.faults));
        SafetyMap::new(plane, transposed)
    }

    /// The safety map under one MCC labeling: the labeling's plane and its
    /// transpose (both built on first use).
    // emr-lint: allow(A1, "mcc_index maps the two labeling types to 0 and 1, matching the two-slot arrays")
    pub fn mcc_safety_map(&self, ty: MccType) -> SafetyMap<'_> {
        let plane = self.mcc(ty).packed();
        let transposed = self.mcc_safety[mcc_index(ty)]
            .get_or_init(|| SafetyMap::transpose(plane, &self.faults));
        SafetyMap::new(plane, transposed)
    }

    /// Forces both MCC labelings and all three safety maps so that later
    /// [`Scenario::apply_fault`] calls repair them incrementally instead
    /// of deferring full rebuilds to first use. Block and component
    /// rectangles stay lazy: an insert drops them anyway.
    pub(crate) fn warm(&self) {
        self.block_safety_map();
        for ty in MccType::ALL {
            self.mcc_safety_map(ty);
        }
    }

    /// Incrementally records a newly failed node across every *already
    /// built* map: the block decomposition (always), the MCC labelings,
    /// and the safety maps' transposes (the columns crossing the changed
    /// rects re-extracted).
    /// Maps that are still lazy stay lazy — they will build from the
    /// updated fault set on first use.
    ///
    /// Returns `None` when `c` was already faulty (no state changes),
    /// otherwise the per-model disturbance footprints.
    ///
    /// # Panics
    ///
    /// Panics if `c` lies outside the mesh.
    // emr-lint: allow(A1, "documented panic contract: a safety slot is only initialized after its MCC map (the get_or_init above it)")
    pub(crate) fn apply_fault(&mut self, c: Coord) -> Option<FaultDelta> {
        if !self.faults.insert(c) {
            return None;
        }
        let Scenario {
            blocks,
            mcc,
            block_safety,
            mcc_safety,
            ..
        } = self;
        let block_rect = blocks.insert_fault(c);
        if let Some(transposed) = block_safety.get_mut() {
            refresh_columns(transposed, blocks.packed(), block_rect);
        }
        let mut mcc_rects = [None, None];
        for (i, lock) in mcc.iter_mut().enumerate() {
            if let Some(m) = lock.get_mut() {
                mcc_rects[i] = m.insert_fault(c);
            }
        }
        for (i, lock) in mcc_safety.iter_mut().enumerate() {
            if let (Some(transposed), Some(rect)) = (lock.get_mut(), mcc_rects[i]) {
                let m = mcc[i]
                    .get()
                    .expect("MCC map initialized before its safety map");
                refresh_columns(transposed, m.packed(), rect);
            }
        }
        Some(FaultDelta {
            block: block_rect,
            mcc: mcc_rects,
        })
    }

    /// The mesh this scenario lives in.
    pub fn mesh(&self) -> Mesh {
        self.faults.mesh()
    }

    /// The injected faults.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// The faulty-block decomposition.
    pub fn blocks(&self) -> &BlockMap {
        &self.blocks
    }

    /// The MCC decomposition for one labeling type (built on first use).
    // emr-lint: allow(A1, "mcc_index maps the two labeling types to 0 and 1, matching the two-slot arrays")
    pub fn mcc(&self, ty: MccType) -> &MccMap {
        self.mcc[mcc_index(ty)].get_or_init(|| MccMap::build(&self.faults, ty))
    }

    /// A view of this scenario under one fault model; most conditions and
    /// routers operate on views.
    pub fn view(&self, model: Model) -> ModelView<'_> {
        ModelView {
            scenario: self,
            model,
        }
    }

    /// The boundary-line information for one model, as the straight lane
    /// runs of every block's rays walked over the model's packed blocked
    /// plane (see [`BoundaryMap`]). Under the MCC model this uses the
    /// **type-one** labeling (quadrant I/III routes, the paper's canonical
    /// case); use [`Scenario::boundary_map_for`] to get the map matching
    /// an arbitrary route.
    ///
    /// Boundary lines always carry *bounding rectangles*; under MCC these
    /// are the component bounding boxes, whose veto geometry does not
    /// always match the staircase obstacle shapes. MCC routing is
    /// therefore *sound but incomplete*: every path produced is minimal,
    /// but the router can occasionally report `Stuck` for an ensured pair
    /// (exact staircase boundary information is future work; the paper
    /// only states that boundary information "is the same" under MCC).
    pub fn boundary_map(&self, model: Model) -> BoundaryMap {
        match model {
            Model::FaultBlock => self.block_boundary_map(),
            Model::Mcc => self.mcc_boundary_map(MccType::One),
        }
    }

    /// The boundary-line information matching routes from `s` to `d` under
    /// `model`: [`Scenario::boundary_map`], except that under MCC the
    /// labeling type follows the route's quadrant.
    pub fn boundary_map_for(&self, model: Model, s: Coord, d: Coord) -> BoundaryMap {
        match model {
            Model::FaultBlock => self.block_boundary_map(),
            Model::Mcc => self.mcc_boundary_map(MccType::for_route(s, d)),
        }
    }

    fn block_boundary_map(&self) -> BoundaryMap {
        BoundaryMap::compute(self.blocks.rects(), self.blocks.packed())
    }

    fn mcc_boundary_map(&self, ty: MccType) -> BoundaryMap {
        let mcc = self.mcc(ty);
        BoundaryMap::compute(mcc.rects(), mcc.packed())
    }
}

/// Resident payload bytes of the fault set, the block decomposition, and
/// every *materialized* lazy map (still-lazy maps contribute nothing, so
/// a freshly built scenario reports only its eager state).
impl MemBytes for Scenario {
    fn mem_bytes(&self) -> u64 {
        let mut total = self.faults.mem_bytes() + self.blocks.mem_bytes();
        for lock in &self.mcc {
            if let Some(m) = lock.get() {
                total += m.mem_bytes();
            }
        }
        if let Some(m) = self.block_safety.get() {
            total += m.mem_bytes();
        }
        for lock in &self.mcc_safety {
            if let Some(m) = lock.get() {
                total += m.mem_bytes();
            }
        }
        total
    }
}

fn mcc_index(ty: MccType) -> usize {
    match ty {
        MccType::One => 0,
        MccType::Two => 1,
    }
}

/// The per-model disturbance footprint of one [`Scenario::apply_fault`]:
/// each rect bounds every node whose *membership* (blocked vs usable)
/// changed under that model. `None` means no membership change (for MCC,
/// also when that labeling was never built).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FaultDelta {
    /// The merged faulty-block rectangle containing the new fault.
    pub block: Rect,
    /// Membership-change bounds per MCC labeling (`[One, Two]` order).
    pub mcc: [Option<Rect>; 2],
}

/// A scenario seen through one fault model: answers "is this node an
/// obstacle for this route?" and "what is this node's safety level?"
/// consistently with that model.
///
/// Under the MCC model both answers depend on the route's quadrant pair
/// (type-one for I/III, type-two for II/IV), so the accessors take the
/// route's endpoints.
#[derive(Debug, Clone, Copy)]
pub struct ModelView<'a> {
    scenario: &'a Scenario,
    model: Model,
}

impl<'a> ModelView<'a> {
    /// The underlying scenario.
    pub fn scenario(&self) -> &'a Scenario {
        self.scenario
    }

    /// The model this view applies.
    pub fn model(&self) -> Model {
        self.model
    }

    /// The mesh.
    pub fn mesh(&self) -> Mesh {
        self.scenario.mesh()
    }

    /// Whether `c` is an obstacle for routes from `s` to `d`.
    pub fn is_obstacle(&self, c: Coord, s: Coord, d: Coord) -> bool {
        match self.model {
            Model::FaultBlock => self.scenario.blocks.is_blocked(c),
            Model::Mcc => self.scenario.mcc(MccType::for_route(s, d)).is_blocked(c),
        }
    }

    /// The safety level of `u` for routes from `s` to `d`.
    pub fn level_for(&self, u: Coord, s: Coord, d: Coord) -> SafetyLevel {
        self.safety_for(s, d).level(u)
    }

    /// The safety map routes from `s` to `d` read: the block map, or under
    /// MCC the labeling [`MccType::for_route`] picks.
    pub(crate) fn safety_for(&self, s: Coord, d: Coord) -> SafetyMap<'a> {
        match self.model {
            Model::FaultBlock => self.scenario.block_safety_map(),
            Model::Mcc => self.scenario.mcc_safety_map(MccType::for_route(s, d)),
        }
    }

    /// Whether both endpoints have fault-free status under this model (the
    /// paper's standing assumption on sources and destinations).
    pub fn endpoints_usable(&self, s: Coord, d: Coord) -> bool {
        !self.is_obstacle(s, s, d) && !self.is_obstacle(d, s, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> Scenario {
        let mesh = Mesh::square(12);
        let faults =
            FaultSet::from_coords(mesh, [Coord::new(5, 5), Coord::new(6, 6), Coord::new(2, 9)]);
        Scenario::build(faults)
    }

    #[test]
    fn mem_bytes_grows_as_lazy_maps_materialize() {
        let sc = scenario();
        let eager = sc.mem_bytes();
        // A safety map adds its transpose, counted once: 12 columns of
        // one word each.
        let block_safety = sc.block_safety_map().mem_bytes();
        assert_eq!(block_safety, 12 * 8);
        let with_safety = sc.mem_bytes();
        assert_eq!(with_safety, eager + block_safety);
        sc.mcc(MccType::One);
        let with_mcc = sc.mem_bytes();
        assert!(with_mcc > with_safety);
        sc.mcc_safety_map(MccType::One);
        assert_eq!(sc.mem_bytes(), with_mcc + 12 * 8);
    }

    #[test]
    fn warmed_512_mesh_stays_within_byte_budget() {
        use rand::SeedableRng;
        // One fault per side-length unit, so the per-fault lists grow
        // with the side, not the node count. The caps sit about 95% and
        // 60% above the measured 1.14 and 1.52 B/node: the three safety
        // transposes are one bit per node each (0.375 B/node), and
        // neither map builds its rectangles here (reading them all would
        // add 0.09 B/node).
        let mesh = Mesh::square(512);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5ca1_e000 ^ 512);
        let faults = emr_fault::inject::uniform(mesh, 512, &[], &mut rng);
        let nodes = mesh.node_count() as f64;
        let sc = Scenario::build(faults);
        let standard = sc.faults().mem_bytes()
            + sc.blocks().mem_bytes()
            + MccType::ALL
                .iter()
                .map(|&ty| sc.mcc(ty).mem_bytes())
                .sum::<u64>();
        sc.block_safety_map();
        for ty in MccType::ALL {
            sc.mcc_safety_map(ty);
        }
        let standard = standard as f64 / nodes;
        let total = sc.mem_bytes() as f64 / nodes;
        assert!(standard <= 2.25, "standard {standard:.4} B/node");
        assert!(total <= 2.42, "warmed total {total:.4} B/node");
    }

    #[test]
    fn views_agree_with_their_models() {
        let sc = scenario();
        let fb = sc.view(Model::FaultBlock);
        let mc = sc.view(Model::Mcc);
        let s = Coord::new(0, 0);
        let d = Coord::new(11, 11); // quadrant I → MCC type-one
                                    // The diagonal pocket (5,6) is disabled under blocks.
        let pocket = Coord::new(5, 6);
        assert!(fb.is_obstacle(pocket, s, d));
        assert_eq!(
            mc.is_obstacle(pocket, s, d),
            sc.mcc(MccType::One).is_blocked(pocket)
        );
    }

    #[test]
    fn mcc_view_switches_type_with_quadrant() {
        let sc = scenario();
        let mc = sc.view(Model::Mcc);
        let s = Coord::new(8, 3);
        let d1 = Coord::new(11, 11); // quadrant I
        let d2 = Coord::new(0, 11); // quadrant II
        for c in sc.mesh().nodes() {
            assert_eq!(mc.is_obstacle(c, s, d1), sc.mcc(MccType::One).is_blocked(c));
            assert_eq!(mc.is_obstacle(c, s, d2), sc.mcc(MccType::Two).is_blocked(c));
        }
    }

    #[test]
    fn lazy_maps_are_stable_and_shared_across_views() {
        let sc = scenario();
        // Repeated access returns the same lazily-built map, not a rebuild.
        let p1: *const MccMap = sc.mcc(MccType::One);
        let p2: *const MccMap = sc.mcc(MccType::One);
        assert_eq!(p1, p2);
        // A clone (initialized or not) answers identically.
        let fresh = Scenario::build(sc.faults().clone());
        let (s, d) = (Coord::new(0, 0), Coord::new(11, 11));
        for c in sc.mesh().nodes() {
            assert_eq!(
                sc.view(Model::Mcc).level_for(c, s, d),
                fresh.view(Model::Mcc).level_for(c, s, d)
            );
            assert_eq!(
                sc.view(Model::FaultBlock).is_obstacle(c, s, d),
                fresh.view(Model::FaultBlock).is_obstacle(c, s, d)
            );
        }
    }

    #[test]
    fn endpoint_usability() {
        let sc = scenario();
        let fb = sc.view(Model::FaultBlock);
        assert!(fb.endpoints_usable(Coord::new(0, 0), Coord::new(11, 11)));
        assert!(!fb.endpoints_usable(Coord::new(5, 5), Coord::new(11, 11)));
        assert!(!fb.endpoints_usable(Coord::new(0, 0), Coord::new(5, 6)));
    }

    #[test]
    fn safety_levels_differ_between_models() {
        let sc = scenario();
        let s = Coord::new(4, 6); // west of the disabled pocket (5,6)
        let d = Coord::new(9, 9);
        let fb = sc.view(Model::FaultBlock).level_for(s, s, d);
        let mc = sc.view(Model::Mcc).level_for(s, s, d);
        use emr_mesh::Direction;
        assert!(mc.toward(Direction::East) >= fb.toward(Direction::East));
    }
}
