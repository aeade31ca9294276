use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use emr_fault::{BlockMap, FaultSet, MccMap, MccType};
use emr_mesh::{Coord, Grid, MemBytes, Mesh, Rect};

use crate::boundary::BoundaryMap;
use crate::safety::{SafetyLevel, SafetyMap};

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

/// How a [`Scenario`] builds and stores its derived maps.
///
/// The default profile ([`BuildProfile::auto`]) keeps small meshes on the
/// exact code paths they always used — sequential single-band builds and
/// dense safety grids — and switches giant meshes to the banded
/// construction kernels and the lean sorted-lane safety storage. Banded
/// builds are bit-identical to sequential ones for every band count and
/// lean maps answer every query identically to dense ones, so the
/// profile affects wall-clock time and resident bytes, never results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BuildProfile {
    /// Horizontal row bands for the tiled construction kernels
    /// (block fix-point, MCC label planes, safety fills); `1` selects the
    /// sequential kernels.
    pub bands: usize,
    /// Store safety maps as sorted obstacle lanes (bytes ∝ faults)
    /// instead of dense level grids (16 bytes per node).
    pub lean_safety: bool,
}

impl BuildProfile {
    /// The sequential dense profile: exactly the pre-tiling behavior.
    pub const SCALAR: BuildProfile = BuildProfile {
        bands: 1,
        lean_safety: false,
    };

    /// Picks a profile for `mesh`: sequential and dense below 2¹⁸ nodes
    /// (≈ 512×512, where per-round thread-scope overhead and lane binary
    /// searches cost more than they save), banded across the machine's
    /// cores from there, and lean safety storage from 2²⁰ nodes
    /// (≥ 1024×1024, where three dense maps alone exceed 48 bytes/node).
    pub fn auto(mesh: Mesh) -> BuildProfile {
        let nodes = mesh.node_count();
        let bands = if nodes >= 1 << 18 {
            std::thread::available_parallelism().map_or(1, |n| n.get().min(16))
        } else {
            1
        };
        BuildProfile {
            bands,
            lean_safety: nodes >= 1 << 20,
        }
    }
}

impl Default for BuildProfile {
    fn default() -> BuildProfile {
        BuildProfile::SCALAR
    }
}

/// One fault configuration, decomposed under both fault models with the
/// corresponding safety maps.
///
/// Building a scenario runs Definition 1 block formation eagerly (every
/// consumer needs it — trial generation rejects scenarios whose source
/// lands in a block). The MCC labelings and the three safety-level sweeps
/// (blocks, MCC type-one, MCC type-two) are computed lazily on first use:
/// most sweep measures touch only one model, and the experiment engine
/// discards rejected scenarios before any of them is consulted. Boundary
/// maps are likewise built on demand via [`Scenario::boundary_map`].
#[derive(Debug, Clone)]
pub struct Scenario {
    faults: FaultSet,
    blocks: BlockMap,
    profile: BuildProfile,
    mcc: [OnceLock<MccMap>; 2],
    block_safety: OnceLock<SafetyMap>,
    mcc_safety: [OnceLock<SafetyMap>; 2],
}

impl Scenario {
    /// Decomposes a fault set under both models, with the build strategy
    /// picked by [`BuildProfile::auto`] for the mesh size.
    pub fn build(faults: FaultSet) -> Scenario {
        let profile = BuildProfile::auto(faults.mesh());
        Scenario::build_profiled(faults, profile)
    }

    /// Decomposes a fault set under an explicit [`BuildProfile`]. Every
    /// map, eager or lazy, borrows the building thread's scratch
    /// workspace.
    pub fn build_profiled(faults: FaultSet, profile: BuildProfile) -> Scenario {
        Scenario {
            blocks: BlockMap::build_banded(&faults, profile.bands),
            faults,
            profile,
            mcc: [OnceLock::new(), OnceLock::new()],
            block_safety: OnceLock::new(),
            mcc_safety: [OnceLock::new(), OnceLock::new()],
        }
    }

    /// The build strategy this scenario was constructed with (its lazy
    /// maps inherit it).
    pub fn profile(&self) -> BuildProfile {
        self.profile
    }

    fn safety_for(&self, packed: &emr_mesh::BitGrid) -> SafetyMap {
        if self.profile.lean_safety {
            SafetyMap::compute_packed_lean(packed)
        } else {
            SafetyMap::compute_packed_banded(packed, self.profile.bands)
        }
    }

    fn block_safety(&self) -> &SafetyMap {
        self.block_safety
            .get_or_init(|| self.safety_for(self.blocks.packed()))
    }

    // emr-lint: allow(A1, "mcc_index maps the two labeling types to 0 and 1, matching the two-slot arrays")
    fn mcc_safety(&self, ty: MccType) -> &SafetyMap {
        self.mcc_safety[mcc_index(ty)].get_or_init(|| self.safety_for(self.mcc(ty).packed()))
    }

    /// The safety map under the faulty-block model (built on first use).
    pub fn block_safety_map(&self) -> &SafetyMap {
        self.block_safety()
    }

    /// The safety map under one MCC labeling (built on first use).
    pub fn mcc_safety_map(&self, ty: MccType) -> &SafetyMap {
        self.mcc_safety(ty)
    }

    /// Forces every lazy map (both MCC labelings and all three safety
    /// maps) so that later [`Scenario::apply_fault`] calls repair them
    /// incrementally instead of deferring full rebuilds to first use.
    pub(crate) fn warm(&self) {
        self.block_safety();
        for ty in MccType::ALL {
            self.mcc_safety(ty);
        }
    }

    /// Incrementally records a newly failed node across every *already
    /// built* map: the block decomposition (always), the MCC labelings,
    /// and the safety maps (lane resweep clipped to the changed rects).
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
        if let Some(map) = block_safety.get_mut() {
            map.resweep_rect_packed(blocks.packed(), block_rect);
        }
        let mut mcc_rects = [None, None];
        for (i, lock) in mcc.iter_mut().enumerate() {
            if let Some(m) = lock.get_mut() {
                mcc_rects[i] = m.insert_fault(c);
            }
        }
        for (i, lock) in mcc_safety.iter_mut().enumerate() {
            if let (Some(map), Some(rect)) = (lock.get_mut(), mcc_rects[i]) {
                let m = mcc[i]
                    .get()
                    .expect("MCC map initialized before its safety map");
                map.resweep_rect_packed(m.packed(), rect);
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
        self.mcc[mcc_index(ty)]
            .get_or_init(|| MccMap::build_banded(&self.faults, ty, self.profile.bands))
    }

    /// A view of this scenario under one fault model; most conditions and
    /// routers operate on views.
    pub fn view(&self, model: Model) -> ModelView<'_> {
        ModelView {
            scenario: self,
            model,
        }
    }

    /// The boundary-line information for one model. Under the MCC model
    /// this uses the **type-one** labeling (quadrant I/III routes, the
    /// paper's canonical case); use [`Scenario::boundary_map_for`] to get
    /// the map matching an arbitrary route.
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
    /// `model` (picks the MCC labeling type from the route's quadrant).
    pub fn boundary_map_for(&self, model: Model, s: Coord, d: Coord) -> BoundaryMap {
        match model {
            Model::FaultBlock => self.block_boundary_map(),
            Model::Mcc => self.mcc_boundary_map(MccType::for_route(s, d)),
        }
    }

    fn block_boundary_map(&self) -> BoundaryMap {
        let mesh = self.mesh();
        let blocked = Grid::from_fn(mesh, |c| self.blocks.is_blocked(c));
        BoundaryMap::compute(&mesh, self.blocks.rects(), &blocked)
    }

    pub(crate) fn mcc_boundary_map(&self, ty: MccType) -> BoundaryMap {
        let mesh = self.mesh();
        let mcc = self.mcc(ty);
        let blocked = Grid::from_fn(mesh, |c| mcc.is_blocked(c));
        BoundaryMap::compute(&mesh, mcc.rects(), &blocked)
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
        match self.model {
            Model::FaultBlock => self.scenario.block_safety().level(u),
            Model::Mcc => self.scenario.mcc_safety(MccType::for_route(s, d)).level(u),
        }
    }

    /// The obstacle bounding rectangles relevant to routes from `s` to
    /// `d` — borrowed from the model's cache, no per-call allocation.
    pub fn rects_for(&self, s: Coord, d: Coord) -> &'a [Rect] {
        match self.model {
            Model::FaultBlock => self.scenario.blocks.rects(),
            Model::Mcc => self.scenario.mcc(MccType::for_route(s, d)).rects(),
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
    fn profiled_builds_match_scalar() {
        let mesh = Mesh::new(70, 40);
        let faults = FaultSet::from_coords(
            mesh,
            [
                Coord::new(5, 5),
                Coord::new(6, 6),
                Coord::new(64, 30),
                Coord::new(65, 31),
                Coord::new(2, 39),
            ],
        );
        let scalar = Scenario::build_profiled(faults.clone(), BuildProfile::SCALAR);
        let profiles = [
            BuildProfile {
                bands: 3,
                lean_safety: false,
            },
            BuildProfile {
                bands: 4,
                lean_safety: true,
            },
        ];
        for profile in profiles {
            let sc = Scenario::build_profiled(faults.clone(), profile);
            assert_eq!(sc.profile(), profile);
            assert_eq!(sc.blocks(), scalar.blocks(), "{profile:?}");
            assert_eq!(
                sc.block_safety_map(),
                scalar.block_safety_map(),
                "{profile:?}"
            );
            for ty in MccType::ALL {
                assert_eq!(sc.mcc(ty), scalar.mcc(ty), "{profile:?} {ty:?}");
                assert_eq!(
                    sc.mcc_safety_map(ty),
                    scalar.mcc_safety_map(ty),
                    "{profile:?} {ty:?}"
                );
            }
            assert_eq!(
                sc.block_safety_map().is_lean(),
                profile.lean_safety,
                "{profile:?}"
            );
        }
    }

    #[test]
    fn mem_bytes_grows_as_lazy_maps_materialize() {
        let sc = scenario();
        let eager = sc.mem_bytes();
        sc.block_safety_map();
        let with_safety = sc.mem_bytes();
        assert!(with_safety > eager);
        sc.mcc(MccType::One);
        assert!(sc.mem_bytes() > with_safety);
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
