use std::sync::OnceLock;

use serde::{Deserialize, Deserializer, Error, Serialize, Serializer};

use emr_mesh::{BitGrid, Coord, Direction, Grid, MemBytes, Mesh, Quadrant, Rect};

use crate::component::{component_rects, scalar_component_rects};
use crate::workspace::{with_scratch, Workspace};
use crate::FaultSet;

/// Which pair of routing quadrants an MCC labeling serves.
///
/// Wang's refinement "removes corner sections" of a faulty block depending
/// on the relative source/destination location: quadrant I/III routing uses
/// *type-one* MCCs (NW and SE corner sections removed), quadrant II/IV uses
/// *type-two* (SW and NE removed). Each node therefore carries two statuses,
/// one per type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MccType {
    /// For quadrant I and III routing.
    One,
    /// For quadrant II and IV routing.
    Two,
}

impl MccType {
    /// Both labelings.
    pub const ALL: [MccType; 2] = [MccType::One, MccType::Two];

    /// The labeling used when routing from `source` towards `dest`.
    pub fn for_route(source: Coord, dest: Coord) -> MccType {
        if Quadrant::of(source, dest).is_type_one() {
            MccType::One
        } else {
            MccType::Two
        }
    }
}

/// The status of a node under one MCC labeling (Definition 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MccStatus {
    /// Healthy and usable for minimal routing.
    FaultFree,
    /// A failed node.
    Faulty,
    /// Entering this node forces a non-minimal next move
    /// (its "forward" neighbors are blocked).
    Useless,
    /// Entering this node already required a non-minimal move
    /// (its "backward" neighbors are blocked).
    CantReach,
}

impl MccStatus {
    /// Whether the node belongs to an MCC (anything but fault-free).
    pub fn is_blocked(self) -> bool {
        !matches!(self, MccStatus::FaultFree)
    }
}

/// The MCC decomposition of a mesh for one labeling type: three packed
/// planes — Definition 2's two label planes and the blocked bits (the
/// faults and both labels) — off which a node's [`MccStatus`] is read. A
/// minimal connected component is a maximal connected set of faulty,
/// useless and can't-reach nodes, a rectilinear-monotone staircase
/// polygon; [`MccMap::rects`] lists their bounding rectangles, while the
/// exact shapes stay in the planes. Like [`crate::BlockMap`], the
/// rectangles are built on first call, cached in a `OnceLock`, and
/// dropped by the next [`MccMap::insert_fault`].
///
/// # Examples
///
/// ```
/// use emr_mesh::{Coord, Mesh};
/// use emr_fault::{FaultSet, MccMap, MccStatus, MccType};
///
/// // A NE-facing corner: the node tucked under it is useless for
/// // quadrant-I routing but usable for quadrant-II/IV routing.
/// let mesh = Mesh::square(5);
/// let faults = FaultSet::from_coords(mesh, [Coord::new(2, 3), Coord::new(3, 2)]);
/// let one = MccMap::build(&faults, MccType::One);
/// let two = MccMap::build(&faults, MccType::Two);
/// assert_eq!(one.status(Coord::new(2, 2)), MccStatus::Useless);
/// assert_eq!(two.status(Coord::new(2, 2)), MccStatus::FaultFree);
/// ```
#[derive(Debug, Clone)]
pub struct MccMap {
    mesh: Mesh,
    ty: MccType,
    /// The blocked (faulty ∪ useless ∪ can't-reach) bits, the input of
    /// the word-parallel downstream passes.
    packed: BitGrid,
    // The two label planes of Definition 2. They never hold a faulty
    // node, so the faults are the blocked nodes that carry neither label.
    // A node can carry *both* labels while `status` only shows the
    // higher-priority one (faulty > useless > can't-reach); the
    // incremental fix-point in [`MccMap::insert_fault`] resumes from the
    // exact planes.
    useless: BitGrid,
    cant_reach: BitGrid,
    /// The component rectangles, built on first read so hot loops can
    /// borrow them without a per-call allocation.
    rects: OnceLock<Vec<Rect>>,
}

/// Forward neighbors (blocking "useless") and backward neighbors
/// (blocking "can't-reach") for one labeling type. Type-one quadrant I:
/// forward = {N, E}; type-two (quadrant II): forward = {N, W}.
fn type_dirs(ty: MccType) -> ([Direction; 2], [Direction; 2]) {
    match ty {
        MccType::One => (
            [Direction::North, Direction::East],
            [Direction::South, Direction::West],
        ),
        MccType::Two => (
            [Direction::North, Direction::West],
            [Direction::South, Direction::East],
        ),
    }
}

impl MccMap {
    /// Runs the Definition 2 labeling to its fix-point.
    ///
    /// For type-one: a fault-free node is `useless` when its north and east
    /// neighbors are both faulty-or-useless, and `can't-reach` when its
    /// south and west neighbors are both faulty-or-can't-reach. Type-two
    /// exchanges the roles of east and west. Off-mesh neighbors count as
    /// fault-free, per the definition's literal reading; this keeps the
    /// labeling exact for minimal routing (property-tested against the
    /// monotone-reachability oracle).
    ///
    /// Each label plane runs the worklist [`MccMap::insert_fault`] resumes,
    /// seeded at the nodes that see a fault as a rule neighbour, for each fault
    /// with another fault in its 3×3 box: a node the faults alone label has its
    /// two rule neighbours faulty, on a diagonal of each other, and later gains
    /// re-enqueue the nodes that see the gainer as a rule neighbour. The build
    /// costs one copy of the fault plane plus `O(faults + blocked nodes)`,
    /// whatever the mesh size; the rectangles are built on first use.
    /// [`MccMap::build_scalar`] is the reference (`conform` oracle
    /// `mcc-bits-matches-scalar` pins the equivalence).
    pub fn build(faults: &FaultSet, ty: MccType) -> MccMap {
        let mesh = faults.mesh();
        let (fwd, bwd) = type_dirs(ty);
        let mut useless = BitGrid::new(mesh);
        let mut cant_reach = BitGrid::new(mesh);
        let mut packed = faults.packed().clone();
        let seeds: Vec<Coord> = faults.paired().collect();
        label_fixpoint(&mut packed, &mut useless, &cant_reach, fwd, &seeds, None);
        label_fixpoint(&mut packed, &mut cant_reach, &useless, bwd, &seeds, None);
        MccMap {
            mesh,
            ty,
            packed,
            useless,
            cant_reach,
            rects: OnceLock::new(),
        }
    }

    /// The original per-node sweep over dense label grids, with an eager
    /// dense-grid BFS extraction of the rectangles over every node — the
    /// ground truth the fault-seeded [`MccMap::build`] is differentially
    /// tested against. Produces an equal map.
    pub fn build_scalar(faults: &FaultSet, ty: MccType) -> MccMap {
        let mesh = faults.mesh();
        let (fwd, bwd) = type_dirs(ty);
        let (planes, rects) = with_scratch(|ws| {
            let Workspace {
                mark_a: faulty,
                mark_b: useless,
                mark_c: cant_reach,
                queue,
                visited,
                ..
            } = ws;
            faulty.reset(mesh, false);
            for c in mesh.nodes() {
                faulty[c] = faults.is_faulty(c);
            }
            sweep_label_into(mesh, faulty, fwd, useless);
            sweep_label_into(mesh, faulty, bwd, cant_reach);
            let blocked = |c: Coord| faulty[c] || useless[c] || cant_reach[c];
            let planes = [
                BitGrid::from_blocked(mesh, blocked),
                BitGrid::from_blocked(mesh, |c| useless[c]),
                BitGrid::from_blocked(mesh, |c| cant_reach[c]),
            ];
            (
                planes,
                scalar_component_rects(mesh, blocked, queue, visited),
            )
        });
        let [packed, useless, cant_reach] = planes;
        MccMap {
            mesh,
            ty,
            packed,
            useless,
            cant_reach,
            rects: OnceLock::from(rects),
        }
    }

    /// The mesh this decomposition covers.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// The status of node `c`: a blocked node carrying neither label is
    /// faulty.
    ///
    /// # Panics
    ///
    /// Panics if `c` is outside the mesh.
    pub fn status(&self, c: Coord) -> MccStatus {
        assert!(self.mesh.contains(c), "{c} outside {:?}", self.mesh);
        if !self.is_blocked(c) {
            MccStatus::FaultFree
        } else if self.useless.get(c) == Some(true) {
            MccStatus::Useless
        } else if self.cant_reach.get(c) == Some(true) {
            MccStatus::CantReach
        } else {
            MccStatus::Faulty
        }
    }

    /// Whether `c` belongs to an MCC. Off-mesh positions do not.
    pub fn is_blocked(&self, c: Coord) -> bool {
        self.packed.get(c) == Some(true)
    }

    /// The bounding rectangles of the components, in the row-major order
    /// of their first nodes, built on first call.
    pub fn rects(&self) -> &[Rect] {
        self.rects.get_or_init(|| component_rects(&self.packed))
    }

    /// The MCC-blocked nodes as a packed bit grid — the input the
    /// word-parallel safety pass starts from.
    pub fn packed(&self) -> &BitGrid {
        &self.packed
    }

    /// The total number of healthy nodes swallowed by MCCs (useless or
    /// can't-reach), the MCC series of the paper's Figure 8: the popcount
    /// of the two label planes' union. It builds no rectangles.
    pub fn disabled_count(&self) -> usize {
        (0..self.mesh.height())
            .flat_map(|y| self.useless.row(y).iter().zip(self.cant_reach.row(y)))
            .map(|(u, c)| (u | c).count_ones() as usize)
            .sum()
    }

    /// Incrementally records a newly failed node, resuming the Definition 2
    /// label fix-point from the disturbance instead of rebuilding the grid.
    ///
    /// Both label planes are monotone under fault insertion (labels only
    /// ever appear), so a clipped worklist seeded at the new fault reaches
    /// exactly the fix-point a full [`MccMap::build`] computes — the
    /// equivalence is property-tested here and in `emr-conform`.
    /// Rectangles already built are dropped; the next read rebuilds them
    /// in the order a fresh build gives.
    ///
    /// Returns the bounding rectangle of every node whose *membership*
    /// changed (fault-free ↔ blocked), or `None` when nothing entered an
    /// MCC that was not already in one (including re-inserting a faulty
    /// node). Status refinements between blocked kinds (e.g. useless →
    /// faulty) do not count: they are invisible to `is_blocked` and to the
    /// safety maps derived from it.
    ///
    /// # Panics
    ///
    /// Panics if `c` lies outside the mesh.
    pub fn insert_fault(&mut self, c: Coord) -> Option<Rect> {
        if self.status(c) == MccStatus::Faulty {
            return None;
        }
        let MccMap {
            ty,
            packed,
            useless,
            cant_reach,
            rects,
            ..
        } = self;
        // A fault carries neither label.
        let changed = (!packed.test_and_set(c)).then(|| Rect::point(c));
        useless.set(c, false);
        cant_reach.set(c, false);

        let (fwd, bwd) = type_dirs(*ty);
        let changed = label_fixpoint(packed, useless, cant_reach, fwd, &[c], changed);
        let changed = label_fixpoint(packed, cant_reach, useless, bwd, &[c], changed);
        rects.take();
        changed
    }
}

/// Two maps are equal when their type, planes and rectangles are; a map
/// whose rectangles are not built yet builds them to compare.
impl PartialEq for MccMap {
    fn eq(&self, other: &MccMap) -> bool {
        self.ty == other.ty
            && self.packed == other.packed
            && self.useless == other.useless
            && self.cant_reach == other.cant_reach
            && self.rects() == other.rects()
    }
}

impl Eq for MccMap {}

/// Writes the type and the planes under the field names `mesh`, `ty`,
/// `packed`, `useless` and `cant_reach`.
impl Serialize for MccMap {
    fn serialize(&self, out: &mut Serializer) {
        let mut map = out.map();
        map.field("mesh", &self.mesh);
        map.field("ty", &self.ty);
        map.field("packed", &self.packed);
        map.field("useless", &self.useless);
        map.field("cant_reach", &self.cant_reach);
        map.end();
    }
}

/// The serialized form of an [`MccMap`]; the rectangles are rebuilt on
/// first read.
#[derive(Deserialize)]
struct MccMapWire {
    mesh: Mesh,
    ty: MccType,
    packed: BitGrid,
    useless: BitGrid,
    cant_reach: BitGrid,
}

impl Deserialize for MccMap {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<MccMap, Error> {
        let MccMapWire {
            mesh,
            ty,
            packed,
            useless,
            cant_reach,
        } = MccMapWire::deserialize(de)?;
        Ok(MccMap {
            mesh,
            ty,
            packed,
            useless,
            cant_reach,
            rects: OnceLock::new(),
        })
    }
}

impl MemBytes for MccMap {
    /// The three packed planes, plus the rectangles once built.
    fn mem_bytes(&self) -> u64 {
        let rects = self.rects.get().map_or(0, Vec::len) * std::mem::size_of::<Rect>();
        [&self.packed, &self.useless, &self.cant_reach]
            .iter()
            .map(|plane| plane.mem_bytes())
            .sum::<u64>()
            + rects as u64
    }
}

/// Runs one label plane's Definition-2 worklist to its fix-point, seeded
/// at the nodes that see a node of `seeds` as a `dirs` neighbour. A
/// candidate that is fault-free and unlabeled gains the label, and its
/// `blocked` bit, when both `dirs` neighbours are faulty-or-labeled, and
/// the nodes that see it as a `dirs` neighbour then become candidates.
/// The label planes never hold a fault, so the faults are the `blocked`
/// nodes in neither `label` nor `other`, and faulty-or-labeled reads
/// `label(v) || (blocked(v) && !other(v))`. Labels only ever appear, so
/// the worklist reaches the least fix-point above `label` as long as the
/// seeded candidates include every node the faults alone label. Returns
/// `joined` widened to cover each gainer that was not blocked before.
fn label_fixpoint(
    blocked: &mut BitGrid,
    label: &mut BitGrid,
    other: &BitGrid,
    dirs: [Direction; 2],
    seeds: &[Coord],
    mut joined: Option<Rect>,
) -> Option<Rect> {
    let [vertical, horizontal] = dirs;
    let seen_by = |u: Coord| dirs.map(|d| u.step(d.opposite()));
    with_scratch(|ws| {
        let queue = &mut ws.queue;
        queue.clear();
        queue.extend(seeds.iter().flat_map(|&f| seen_by(f)));
        while let Some(u) = queue.pop_front() {
            let blocks = |v: Coord| {
                label.get(v) == Some(true)
                    || (blocked.get(v) == Some(true) && other.get(v) != Some(true))
            };
            if !blocked.mesh().contains(u) || blocks(u) {
                continue;
            }
            if blocks(u.step(vertical)) && blocks(u.step(horizontal)) {
                label.set(u, true);
                if !blocked.test_and_set(u) {
                    joined = Some(joined.map_or(Rect::point(u), |r| r.expanded_to(u)));
                }
                queue.extend(seen_by(u));
            }
        }
    });
    joined
}

/// One monotone sweep computes a label whose rule is "fault-free node with
/// both `dirs` neighbors faulty-or-labeled". Processing nodes in an order
/// where both `dirs` neighbors come first makes a single pass reach the
/// fix-point. Writes into a caller-provided grid (reset here) so the hot
/// path allocates nothing.
fn sweep_label_into(mesh: Mesh, faulty: &Grid<bool>, dirs: [Direction; 2], label: &mut Grid<bool>) {
    label.reset(mesh, false);
    let x_rev = dirs.contains(&Direction::East);
    let y_rev = dirs.contains(&Direction::North);
    for yi in 0..mesh.height() {
        let y = if y_rev { mesh.height() - 1 - yi } else { yi };
        for xi in 0..mesh.width() {
            let x = if x_rev { mesh.width() - 1 - xi } else { xi };
            let u = Coord::new(x, y);
            if faulty[u] {
                continue;
            }
            let blocked = |c: Coord| mesh.contains(c) && (faulty[c] || label[c]);
            if blocked(u.step(dirs[0])) && blocked(u.step(dirs[1])) {
                label[u] = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faults(mesh: Mesh, coords: &[(i32, i32)]) -> FaultSet {
        FaultSet::from_coords(mesh, coords.iter().map(|&c| Coord::from(c)))
    }

    /// The Figure 1(a) fault pattern used across the paper's examples.
    fn figure_1_faults() -> FaultSet {
        faults(
            Mesh::square(10),
            &[
                (3, 3),
                (3, 4),
                (4, 4),
                (5, 4),
                (6, 4),
                (2, 5),
                (5, 5),
                (3, 6),
            ],
        )
    }

    #[test]
    fn paper_figure_1_node_statuses() {
        // The paper reads off: (2,6) is (fault-free, disabled),
        // (4,5) is (disabled, disabled), (2,3) is (disabled, fault-free).
        // It also claims (4,3) is (fault-free, fault-free); however,
        // Definition 2 applied literally makes (4,3) useless under
        // type-two (its north (4,4) and west (3,3) neighbors are both
        // faulty, so entering it on a quadrant-II route forces a
        // non-minimal move). We follow the definition; the semantic
        // property tests against the monotone-reachability oracle confirm
        // the labeling is exact.
        let f = figure_1_faults();
        let one = MccMap::build(&f, MccType::One);
        let two = MccMap::build(&f, MccType::Two);
        assert!(!one.is_blocked(Coord::new(4, 3)));
        assert_eq!(two.status(Coord::new(4, 3)), MccStatus::Useless);
        assert!(!one.is_blocked(Coord::new(2, 6)));
        assert!(two.is_blocked(Coord::new(2, 6)));
        assert!(one.is_blocked(Coord::new(4, 5)));
        assert!(two.is_blocked(Coord::new(4, 5)));
        assert!(one.is_blocked(Coord::new(2, 3)));
        assert!(!two.is_blocked(Coord::new(2, 3)));
    }

    #[test]
    fn mcc_is_subset_of_faulty_block() {
        let f = figure_1_faults();
        let blocks = crate::BlockMap::build(&f);
        for ty in MccType::ALL {
            let mcc = MccMap::build(&f, ty);
            for c in f.mesh().nodes() {
                if mcc.is_blocked(c) {
                    assert!(blocks.is_blocked(c), "{c} in MCC but not in block");
                }
            }
            assert!(mcc.disabled_count() <= blocks.disabled_count());
        }
    }

    #[test]
    fn useless_corner_type_one() {
        // North and east neighbors faulty → useless under type-one only.
        let f = faults(Mesh::square(5), &[(2, 3), (3, 2)]);
        let one = MccMap::build(&f, MccType::One);
        assert_eq!(one.status(Coord::new(2, 2)), MccStatus::Useless);
        let two = MccMap::build(&f, MccType::Two);
        assert_eq!(two.status(Coord::new(2, 2)), MccStatus::FaultFree);
    }

    #[test]
    fn cant_reach_corner_type_one() {
        // South and west neighbors faulty → can't-reach under type-one.
        let f = faults(Mesh::square(5), &[(2, 1), (1, 2)]);
        let one = MccMap::build(&f, MccType::One);
        assert_eq!(one.status(Coord::new(2, 2)), MccStatus::CantReach);
        let two = MccMap::build(&f, MccType::Two);
        assert_eq!(two.status(Coord::new(2, 2)), MccStatus::FaultFree);
    }

    #[test]
    fn type_two_mirrors_type_one() {
        // NW corner pocket: useless under type-two.
        let f = faults(Mesh::square(5), &[(2, 3), (1, 2)]);
        let two = MccMap::build(&f, MccType::Two);
        assert_eq!(two.status(Coord::new(2, 2)), MccStatus::Useless);
        let one = MccMap::build(&f, MccType::One);
        assert_eq!(one.status(Coord::new(2, 2)), MccStatus::FaultFree);
    }

    #[test]
    fn labels_chain_transitively() {
        // A staircase of faults; the diagonal pockets chain useless labels.
        let f = faults(Mesh::square(6), &[(1, 4), (2, 3), (3, 2), (4, 1)]);
        let one = MccMap::build(&f, MccType::One);
        assert_eq!(one.status(Coord::new(1, 3)), MccStatus::Useless);
        assert_eq!(one.status(Coord::new(2, 2)), MccStatus::Useless);
        assert_eq!(one.status(Coord::new(3, 1)), MccStatus::Useless);
        // And the other side chains can't-reach.
        assert_eq!(one.status(Coord::new(2, 4)), MccStatus::CantReach);
        assert_eq!(one.status(Coord::new(3, 3)), MccStatus::CantReach);
        assert_eq!(one.status(Coord::new(4, 2)), MccStatus::CantReach);
        // Everything is one connected component.
        assert_eq!(one.rects(), [Rect::new(1, 4, 1, 4)]);
    }

    #[test]
    fn labels_chain_onto_a_fault_with_no_fault_in_its_box() {
        // (1,2) has no other fault in its 3×3 box, so it seeds no
        // candidate. (1,1) turns useless only once the chain (2,3) →
        // (2,2) → (2,1) reaches its east neighbour.
        let f = faults(Mesh::square(6), &[(1, 2), (2, 4), (3, 3), (3, 2), (3, 1)]);
        let one = MccMap::build(&f, MccType::One);
        assert_eq!(one, MccMap::build_scalar(&f, MccType::One));
        assert_eq!(one.status(Coord::new(1, 1)), MccStatus::Useless);
    }

    #[test]
    fn no_faults_no_components() {
        let f = FaultSet::new(Mesh::square(4));
        for ty in MccType::ALL {
            let mcc = MccMap::build(&f, ty);
            assert!(mcc.rects().is_empty());
            assert_eq!(mcc.disabled_count(), 0);
        }
    }

    #[test]
    fn for_route_selects_type() {
        let s = Coord::new(5, 5);
        assert_eq!(MccType::for_route(s, Coord::new(8, 8)), MccType::One);
        assert_eq!(MccType::for_route(s, Coord::new(2, 2)), MccType::One);
        assert_eq!(MccType::for_route(s, Coord::new(2, 8)), MccType::Two);
        assert_eq!(MccType::for_route(s, Coord::new(8, 2)), MccType::Two);
    }

    /// Equivalence of two maps, down to the private label planes (a node
    /// can be useless *and* can't-reach while `status` only shows one; the
    /// planes must still match exactly) and the rectangle order.
    fn assert_equivalent(incremental: &MccMap, rebuilt: &MccMap, ctx: &str) {
        for n in incremental.mesh().nodes() {
            assert_eq!(incremental.status(n), rebuilt.status(n), "{ctx} at {n}");
            assert_eq!(
                incremental.useless.get(n),
                rebuilt.useless.get(n),
                "{ctx} at {n}"
            );
            assert_eq!(
                incremental.cant_reach.get(n),
                rebuilt.cant_reach.get(n),
                "{ctx} at {n}"
            );
        }
        assert_eq!(incremental.rects(), rebuilt.rects(), "{ctx}");
        assert_eq!(
            incremental.disabled_count(),
            rebuilt.disabled_count(),
            "{ctx}"
        );
        assert_eq!(incremental, rebuilt, "{ctx}");
    }

    /// The number of nodes `m` labels useless or can't-reach, by status.
    fn labeled(m: &MccMap) -> usize {
        m.mesh()
            .nodes()
            .filter(|&n| matches!(m.status(n), MccStatus::Useless | MccStatus::CantReach))
            .count()
    }

    #[test]
    fn incremental_insert_matches_rebuild() {
        let mesh = Mesh::square(12);
        // Grows, merges, and converts already-disabled nodes, like the
        // block-map twin of this test.
        let sequence = [
            (3, 3),
            (4, 4),
            (8, 8),
            (8, 7),
            (5, 5),
            (6, 6),
            (7, 7),
            (4, 3),
            (0, 0),
        ];
        for ty in MccType::ALL {
            let mut incremental = MccMap::build(&FaultSet::new(mesh), ty);
            let mut all = Vec::new();
            for &(x, y) in &sequence {
                let c = Coord::new(x, y);
                all.push(c);
                let before = Grid::from_fn(mesh, |n| incremental.status(n));
                let changed = incremental.insert_fault(c);
                let rebuilt = MccMap::build(&FaultSet::from_coords(mesh, all.iter().copied()), ty);
                assert_equivalent(&incremental, &rebuilt, &format!("{ty:?} after {c}"));
                // The returned rect covers every membership change.
                for n in mesh.nodes() {
                    if incremental.status(n).is_blocked() != before[n].is_blocked() {
                        let r = changed.expect("membership changed but no rect");
                        assert!(r.contains(n), "{ty:?}: changed node {n} outside {r:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn insert_keeps_a_component_inside_the_merged_bounding_box() {
        // An L of faults with box [2:5, 2:5] and a lone fault (2,5) inside
        // that box. Failing (6,2) grows the L to [2:6, 2:5]; the lone
        // fault's component shares no node with it and must survive.
        let mesh = Mesh::square(8);
        let l_and_lone = [
            (2, 2),
            (3, 2),
            (4, 2),
            (5, 2),
            (5, 3),
            (5, 4),
            (5, 5),
            (2, 5),
        ];
        let mut map = MccMap::build(&faults(mesh, &l_and_lone), MccType::One);
        map.insert_fault(Coord::new(6, 2));
        let rebuilt = MccMap::build(
            &faults(mesh, &[l_and_lone.as_slice(), &[(6, 2)]].concat()),
            MccType::One,
        );
        assert_equivalent(&map, &rebuilt, "L grown around a lone fault");
        assert_eq!(map.rects(), [Rect::new(2, 6, 2, 5), Rect::new(2, 2, 5, 5)]);
        assert_eq!(map.disabled_count(), 3);
    }

    #[test]
    fn rects_are_built_on_first_read() {
        let f = figure_1_faults();
        for ty in MccType::ALL {
            let map = MccMap::build(&f, ty);
            let planes = map.mem_bytes();
            let count = map.disabled_count();
            assert_eq!(map.mem_bytes(), planes, "the count builds no rectangles");
            let scalar = MccMap::build_scalar(&f, ty);
            assert_eq!(map.rects(), scalar.rects(), "{ty:?}");
            assert!(
                map.mem_bytes() > planes,
                "the first read builds the rectangles"
            );
            assert_eq!(map, scalar, "{ty:?}");
            assert_eq!(count, labeled(&map), "{ty:?}");
        }
    }

    #[test]
    fn disabled_count_tracks_inserts_without_building_rects() {
        let mesh = Mesh::square(10);
        // (2,2) fails after the first two faults label it useless under
        // type-one; the rest grow and merge components.
        let sequence = [(2, 3), (3, 2), (2, 2), (5, 5), (6, 4), (4, 6), (7, 7)];
        for ty in MccType::ALL {
            let mut map = MccMap::build(&FaultSet::new(mesh), ty);
            let planes = map.mem_bytes();
            for &(x, y) in &sequence {
                map.rects();
                map.insert_fault(Coord::new(x, y));
                assert_eq!(map.mem_bytes(), planes, "an insert drops the rectangles");
                let count = map.disabled_count();
                assert_eq!(map.mem_bytes(), planes, "the count builds no rectangles");
                assert_eq!(count, labeled(&map), "{ty:?} after ({x}, {y})");
            }
        }
    }

    #[test]
    fn incremental_insert_is_idempotent() {
        let mesh = Mesh::square(6);
        let mut map = MccMap::build(&FaultSet::new(mesh), MccType::One);
        assert!(map.insert_fault(Coord::new(2, 2)).is_some());
        assert_eq!(map.insert_fault(Coord::new(2, 2)), None);
        assert_eq!(map.rects(), [Rect::point(Coord::new(2, 2))]);
        assert_eq!(map.status(Coord::new(2, 2)), MccStatus::Faulty);
        assert_eq!(map.disabled_count(), 0);
    }

    #[test]
    fn insert_into_own_label_pocket_reports_no_membership_change() {
        // (2,2) is useless under type-one once (2,3)/(3,2) fail; failing
        // it afterwards refines the status but changes no membership.
        let mesh = Mesh::square(5);
        let mut map = MccMap::build(&faults(mesh, &[(2, 3), (3, 2)]), MccType::One);
        assert_eq!(map.status(Coord::new(2, 2)), MccStatus::Useless);
        assert_eq!(map.insert_fault(Coord::new(2, 2)), None);
        assert_eq!(map.status(Coord::new(2, 2)), MccStatus::Faulty);
        let rebuilt = MccMap::build(&faults(mesh, &[(2, 3), (3, 2), (2, 2)]), MccType::One);
        assert_equivalent(&map, &rebuilt, "pocket fill");
    }

    #[test]
    fn random_incremental_sequences_match_rebuild() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for (w, h) in [(16, 16), (1, 9), (9, 1), (2, 13)] {
            let mesh = Mesh::new(w, h);
            for seed in 0..12u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                for ty in MccType::ALL {
                    let mut incremental = MccMap::build(&FaultSet::new(mesh), ty);
                    let mut all = Vec::new();
                    for _ in 0..((w * h / 4).clamp(2, 25)) {
                        let c = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
                        all.push(c);
                        incremental.insert_fault(c);
                    }
                    let rebuilt =
                        MccMap::build(&FaultSet::from_coords(mesh, all.iter().copied()), ty);
                    assert_equivalent(
                        &incremental,
                        &rebuilt,
                        &format!("{w}x{h} seed {seed} {ty:?}"),
                    );
                }
            }
        }
    }

    #[test]
    fn bit_build_matches_scalar_on_random_and_edge_densities() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Mirror of the block-map differential test: every shape takes
        // every random density (0%, the paper's 0.5%, 5%, 10%, ~50%), each
        // with and without a fully-faulty middle row, across the paper's
        // 200×200 mesh, word-boundary-straddling widths (4095/4097 non-×64
        // tails on thin meshes among them) and 1-wide meshes.
        // Map equality pins all three planes and the rectangles in order.
        let shapes = [
            (16, 16),
            (65, 3),
            (63, 4),
            (64, 5),
            (130, 3),
            (1, 9),
            (9, 1),
            (128, 2),
            (200, 200),
            (65, 7),
            (127, 5),
            (130, 4),
            (4095, 2),
            (4097, 2),
        ];
        for (i, &(w, h)) in shapes.iter().enumerate() {
            let mesh = Mesh::new(w, h);
            for (j, density) in [0.0, 0.005, 0.05, 0.1, 0.5].into_iter().enumerate() {
                for full_row in [false, true] {
                    let seed = (i * 10 + j * 2 + usize::from(full_row)) as u64;
                    let mut rng = StdRng::seed_from_u64(0xA11C + seed);
                    let mut f = FaultSet::new(mesh);
                    for c in mesh.nodes() {
                        if rng.gen_bool(density) {
                            f.insert(c);
                        }
                    }
                    if full_row {
                        let y = h / 2;
                        for x in 0..w {
                            f.insert(Coord::new(x, y));
                        }
                    }
                    for ty in MccType::ALL {
                        let bits = MccMap::build(&f, ty);
                        let scalar = MccMap::build_scalar(&f, ty);
                        let ctx = format!("{w}x{h} density {density} row {full_row} {ty:?}");
                        assert_eq!(bits, scalar, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn rects_and_counts_match_status() {
        let f = figure_1_faults();
        let one = MccMap::build(&f, MccType::One);
        let blocked: Vec<Coord> = f.mesh().nodes().filter(|&c| one.is_blocked(c)).collect();
        assert_eq!(one.disabled_count() + f.len(), blocked.len());
        assert_eq!(one.disabled_count(), labeled(&one));
        for c in blocked {
            assert!(one.rects().iter().any(|r| r.contains(c)), "{c}");
        }
    }
}
