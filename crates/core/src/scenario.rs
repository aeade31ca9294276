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
/// corresponding safety and boundary maps.
///
/// Building a scenario runs Definition 1 block formation eagerly (every
/// consumer needs it — trial generation rejects scenarios whose source
/// lands in a block); the block map's planes are built, its block list
/// only when read. The MCC labelings and, for each of the three obstacle
/// planes (blocks, MCC type-one, MCC type-two), the plane's transpose
/// (the column half of its safety map) and its [`BoundaryMap`] are
/// computed lazily on first use: most sweep measures touch only one
/// model, and the experiment engine discards rejected scenarios before
/// any of them is consulted.
#[derive(Debug, Clone)]
pub struct Scenario {
    faults: FaultSet,
    blocks: BlockMap,
    block_maps: PlaneMaps,
    mcc: [Labeling; 2],
}

/// The maps built lazily from one obstacle plane: its transpose and its
/// boundary map (boxed, so an unbuilt slot costs a pointer, not the map).
#[derive(Debug, Clone, Default)]
struct PlaneMaps {
    transposed: OnceLock<BitGrid>,
    boundary: OnceLock<Box<BoundaryMap>>,
}

impl PlaneMaps {
    /// The safety map over `plane`, transposing it on first use.
    fn safety<'a>(&'a self, plane: &'a BitGrid, faults: &FaultSet) -> SafetyMap<'a> {
        let transposed = self
            .transposed
            .get_or_init(|| SafetyMap::transpose(plane, faults));
        SafetyMap::new(plane, transposed)
    }

    /// Follows a fault that changed the plane's membership inside `rect`
    /// (`None`: no change): re-extracts the transposed columns crossing
    /// it and drops the boundary map, which the next read rebuilds.
    fn repair(&mut self, plane: &BitGrid, rect: Option<Rect>) {
        if let (Some(transposed), Some(rect)) = (self.transposed.get_mut(), rect) {
            refresh_columns(transposed, plane, rect);
        }
        self.boundary.take();
    }

    fn mem_bytes(&self) -> u64 {
        self.transposed.get().map_or(0, MemBytes::mem_bytes)
            + self.boundary.get().map_or(0, |b| b.mem_bytes())
    }
}

/// One MCC labeling and the maps built from its plane, all on first use.
#[derive(Debug, Clone, Default)]
struct Labeling {
    map: OnceLock<MccMap>,
    maps: PlaneMaps,
}

impl Scenario {
    /// Decomposes a fault set under both models. The block map is built
    /// here, every other map on first use; each build runs on the thread
    /// that triggers it, with that thread's scratch workspace.
    pub fn build(faults: FaultSet) -> Scenario {
        Scenario {
            blocks: BlockMap::build(&faults),
            faults,
            block_maps: PlaneMaps::default(),
            mcc: Default::default(),
        }
    }

    /// The safety map under the faulty-block model: the block plane and
    /// its transpose (built on first use).
    pub fn block_safety_map(&self) -> SafetyMap<'_> {
        self.block_maps.safety(self.blocks.packed(), &self.faults)
    }

    /// The safety map under one MCC labeling: the labeling's plane and its
    /// transpose (both built on first use).
    pub fn mcc_safety_map(&self, ty: MccType) -> SafetyMap<'_> {
        self.labeling(ty)
            .maps
            .safety(self.mcc(ty).packed(), &self.faults)
    }

    /// The boundary information under the faulty-block model: the lane
    /// runs of every block's rays over the block plane (built on first
    /// use, dropped by each new fault).
    pub fn block_boundary_map(&self) -> &BoundaryMap {
        let blocks = &self.blocks;
        self.block_maps
            .boundary
            .get_or_init(|| Box::new(BoundaryMap::compute(blocks.rects(), blocks.packed())))
    }

    /// The boundary information under one MCC labeling: the lane runs of
    /// every component's rays over the labeling's plane (built on first
    /// use, dropped by each new fault).
    ///
    /// The rays carry *bounding rectangles*, whose veto geometry does not
    /// always match the staircase components, so MCC routing is sound
    /// but incomplete: every path produced is minimal, but Wu's router
    /// can occasionally report `Stuck` for an ensured pair (the paper
    /// only states that boundary information "is the same" under MCC;
    /// DESIGN.md § Known deviations).
    pub fn mcc_boundary_map(&self, ty: MccType) -> &BoundaryMap {
        let mcc = self.mcc(ty);
        self.labeling(ty)
            .maps
            .boundary
            .get_or_init(|| Box::new(BoundaryMap::compute(mcc.rects(), mcc.packed())))
    }

    /// Forces both MCC labelings and all three safety maps so that later
    /// [`Scenario::apply_fault`] calls repair them incrementally instead
    /// of deferring full rebuilds to first use. Block and component
    /// rectangles and the boundary maps stay lazy: an insert drops them
    /// anyway.
    pub(crate) fn warm(&self) {
        self.block_safety_map();
        for ty in MccType::ALL {
            self.mcc_safety_map(ty);
        }
    }

    /// Incrementally records a newly failed node across every *already
    /// built* map: the block decomposition (always), the MCC labelings,
    /// and the safety maps' transposes (the columns crossing the changed
    /// rects re-extracted). Every boundary map is dropped.
    /// Maps that are still lazy stay lazy — they will build from the
    /// updated fault set on first use.
    ///
    /// Returns `None` when `c` was already faulty (no state changes),
    /// otherwise the per-model disturbance footprints.
    ///
    /// # Panics
    ///
    /// Panics if `c` lies outside the mesh.
    pub(crate) fn apply_fault(&mut self, c: Coord) -> Option<FaultDelta> {
        if !self.faults.insert(c) {
            return None;
        }
        let block_rect = self.blocks.insert_fault(c);
        self.block_maps
            .repair(self.blocks.packed(), Some(block_rect));
        let mut mcc_rects = [None, None];
        for (rect, labeling) in mcc_rects.iter_mut().zip(&mut self.mcc) {
            if let Some(m) = labeling.map.get_mut() {
                *rect = m.insert_fault(c);
                labeling.maps.repair(m.packed(), *rect);
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
    pub fn mcc(&self, ty: MccType) -> &MccMap {
        self.labeling(ty)
            .map
            .get_or_init(|| MccMap::build(&self.faults, ty))
    }

    /// The slot of one labeling type.
    fn labeling(&self, ty: MccType) -> &Labeling {
        let [one, two] = &self.mcc;
        match ty {
            MccType::One => one,
            MccType::Two => two,
        }
    }

    /// A view of this scenario under one fault model; most conditions and
    /// routers operate on views.
    pub fn view(&self, model: Model) -> ModelView<'_> {
        ModelView {
            scenario: self,
            model,
        }
    }
}

/// Resident payload bytes of the fault set, the block decomposition, and
/// every *materialized* lazy map (still-lazy maps contribute nothing, so
/// a freshly built scenario reports only its eager state).
impl MemBytes for Scenario {
    fn mem_bytes(&self) -> u64 {
        let mcc: u64 = self
            .mcc
            .iter()
            .map(|l| l.map.get().map_or(0, MemBytes::mem_bytes) + l.maps.mem_bytes())
            .sum();
        self.faults.mem_bytes() + self.blocks.mem_bytes() + self.block_maps.mem_bytes() + mcc
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
        self.plane_for(s, d).get(c) == Some(true)
    }

    /// The obstacle plane routes from `s` to `d` read: the blocked plane
    /// of the blocks, or of the MCC labeling their quadrant picks.
    pub(crate) fn plane_for(&self, s: Coord, d: Coord) -> &'a BitGrid {
        match self.labeling(s, d) {
            None => self.scenario.blocks.packed(),
            Some(ty) => self.scenario.mcc(ty).packed(),
        }
    }

    /// The safety level of `u` for routes from `s` to `d`.
    pub fn level_for(&self, u: Coord, s: Coord, d: Coord) -> SafetyLevel {
        self.safety_for(s, d).level(u)
    }

    /// The safety map routes from `s` to `d` read: their obstacle plane's.
    pub(crate) fn safety_for(&self, s: Coord, d: Coord) -> SafetyMap<'a> {
        match self.labeling(s, d) {
            None => self.scenario.block_safety_map(),
            Some(ty) => self.scenario.mcc_safety_map(ty),
        }
    }

    /// The boundary map routes from `s` to `d` read: their obstacle
    /// plane's, so each leg of a route reads the map of the obstacles
    /// its own test uses.
    pub(crate) fn boundary_for(&self, s: Coord, d: Coord) -> &'a BoundaryMap {
        match self.labeling(s, d) {
            None => self.scenario.block_boundary_map(),
            Some(ty) => self.scenario.mcc_boundary_map(ty),
        }
    }

    /// The obstacle plane routes from `s` to `d` read under this view's
    /// model: the block plane (`None`), or under MCC the labeling
    /// [`MccType::for_route`] picks by the route's quadrant. Every
    /// per-route read of the view goes through this one choice.
    fn labeling(&self, s: Coord, d: Coord) -> Option<MccType> {
        match self.model {
            Model::FaultBlock => None,
            Model::Mcc => Some(MccType::for_route(s, d)),
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

    /// The marks of a boundary map at every node, for comparisons.
    fn all_marks(map: &BoundaryMap, mesh: Mesh) -> Vec<Vec<crate::boundary::BoundaryMark>> {
        mesh.nodes().map(|c| map.marks_at(c).collect()).collect()
    }

    #[test]
    fn boundary_maps_are_cached_counted_and_dropped_by_each_fault() {
        let mut sc = scenario();
        let mesh = sc.mesh();
        // The maps' inputs first, so that the count below grows by the
        // maps alone.
        sc.blocks().rects();
        for ty in MccType::ALL {
            sc.mcc(ty).rects();
        }
        let before = sc.mem_bytes();
        let p1: *const BoundaryMap = sc.block_boundary_map();
        let p2: *const BoundaryMap = sc.block_boundary_map();
        assert_eq!(p1, p2, "a second read rebuilds the map");
        let read_all = |sc: &Scenario| {
            [
                all_marks(sc.block_boundary_map(), mesh),
                all_marks(sc.mcc_boundary_map(MccType::One), mesh),
                all_marks(sc.mcc_boundary_map(MccType::Two), mesh),
            ]
        };
        read_all(&sc);
        let maps = sc.block_boundary_map().mem_bytes()
            + MccType::ALL
                .iter()
                .map(|&ty| sc.mcc_boundary_map(ty).mem_bytes())
                .sum::<u64>();
        assert!(maps > 0);
        assert_eq!(sc.mem_bytes(), before + maps);
        // Each accepted fault drops all three maps: the next read equals
        // a fresh build's, for a fault that merges blocks, one beside
        // them and one far away.
        for c in [(4, 6), (7, 4), (10, 1)].map(Coord::from) {
            assert!(sc.apply_fault(c).is_some());
            let fresh = Scenario::build(sc.faults().clone());
            assert!(read_all(&sc) == read_all(&fresh), "stale map after {c}");
        }
    }

    #[test]
    fn boundary_for_reads_the_plane_of_the_obstacle_test() {
        let sc = scenario();
        let s = Coord::new(6, 3);
        let fb = sc.view(Model::FaultBlock);
        let mc = sc.view(Model::Mcc);
        for d in sc.mesh().nodes() {
            assert!(std::ptr::eq(fb.boundary_for(s, d), sc.block_boundary_map()));
            assert!(std::ptr::eq(fb.plane_for(s, d), sc.blocks().packed()));
            let ty = MccType::ALL
                .into_iter()
                .find(|&ty| std::ptr::eq(mc.boundary_for(s, d), sc.mcc_boundary_map(ty)))
                .expect("an MCC view reads one labeling's map");
            assert!(std::ptr::eq(mc.plane_for(s, d), sc.mcc(ty).packed()));
            for c in sc.mesh().nodes() {
                assert_eq!(mc.is_obstacle(c, s, d), sc.mcc(ty).is_blocked(c));
            }
        }
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
