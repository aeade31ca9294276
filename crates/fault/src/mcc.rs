use std::collections::VecDeque;
use std::sync::OnceLock;

use serde::{Deserialize, Deserializer, Error, Serialize, Serializer};

use emr_mesh::{BitGrid, Coord, Direction, Grid, MemBytes, Mesh, Quadrant, Rect};

use crate::block::{for_each_set_bit, with_rects};
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

/// One minimal connected component: a maximal connected set of faulty,
/// useless and can't-reach nodes. MCCs are rectilinear-monotone staircase
/// polygons; a component keeps its bounding rectangle and its node counts,
/// while its exact shape stays in the map's planes ([`MccMap::status`],
/// [`MccMap::packed`]). [`MccMap`] builds these records on first read.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mcc {
    rect: Rect,
    faulty_nodes: usize,
    disabled_nodes: usize,
}

impl Mcc {
    /// The bounding rectangle of the component.
    pub fn rect(&self) -> Rect {
        self.rect
    }

    /// The number of genuinely faulty nodes.
    pub fn faulty_nodes(&self) -> usize {
        self.faulty_nodes
    }

    /// The number of healthy nodes swallowed by the component
    /// (useless + can't-reach), the MCC series of the paper's Figure 8.
    pub fn disabled_nodes(&self) -> usize {
        self.disabled_nodes
    }
}

/// The MCC decomposition of a mesh for one labeling type: four packed
/// planes — the faulty bits, Definition 2's two label planes, and their
/// union, the blocked bits — plus the component list. A node's
/// [`MccStatus`] is read off the planes. Like [`crate::BlockMap`],
/// [`MccMap::build`] and [`MccMap::insert_fault`] keep only the planes and
/// the count of labeled nodes current: the components are built on the
/// first call that needs them ([`MccMap::components`],
/// [`MccMap::rects`]), cached in a `OnceLock`, and dropped by the next
/// insert.
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
    faulty: BitGrid,
    // The two label planes of Definition 2. They never hold a faulty
    // node, but a node can carry *both* labels while `status` only shows
    // the higher-priority one (faulty > useless > can't-reach); the
    // incremental fix-point in [`MccMap::insert_fault`] resumes from the
    // exact planes.
    useless: BitGrid,
    cant_reach: BitGrid,
    /// The blocked nodes that are not faulty, kept by the fix-point.
    disabled: usize,
    /// The components and their bounding rectangles in the same order,
    /// built on first read so hot loops can borrow the rectangles without
    /// a per-call allocation.
    records: OnceLock<(Vec<Mcc>, Vec<Rect>)>,
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
    /// costs one copy of each plane plus `O(faults + blocked nodes)`, whatever
    /// the mesh size; the components are built on first use.
    /// [`MccMap::build_scalar`] is the reference (`conform` oracle
    /// `mcc-bits-matches-scalar` pins the equivalence).
    pub fn build(faults: &FaultSet, ty: MccType) -> MccMap {
        let mesh = faults.mesh();
        let (fwd, bwd) = type_dirs(ty);
        let mut useless = BitGrid::new(mesh);
        let mut cant_reach = BitGrid::new(mesh);
        let mut packed = faults.packed().clone();
        let mut disabled = 0;
        with_scratch(|ws| {
            let seeds: Vec<Coord> = faults.paired().collect();
            for (label, dirs) in [(&mut useless, fwd), (&mut cant_reach, bwd)] {
                ws.queue.clear();
                ws.queue.extend(
                    seeds
                        .iter()
                        .flat_map(|f| dirs.map(|d| f.step(d.opposite()))),
                );
                // A node can gain both labels; it counts once.
                label_fixpoint(faults.packed(), label, dirs, &mut ws.queue, |u| {
                    disabled += usize::from(!packed.test_and_set(u));
                });
            }
        });
        MccMap {
            mesh,
            ty,
            packed,
            faulty: faults.packed().clone(),
            useless,
            cant_reach,
            disabled,
            records: OnceLock::new(),
        }
    }

    /// The original per-node sweep over dense label grids, with an eager
    /// BFS component extraction over every node — the ground truth the
    /// fault-seeded [`MccMap::build`] is differentially tested against.
    /// Produces an equal map.
    pub fn build_scalar(faults: &FaultSet, ty: MccType) -> MccMap {
        let mesh = faults.mesh();
        let (fwd, bwd) = type_dirs(ty);
        let (planes, components) = with_scratch(|ws| {
            let Workspace {
                mark_a: faulty,
                mark_b: useless,
                mark_c: cant_reach,
                ..
            } = ws;
            faulty.reset(mesh, false);
            for c in mesh.nodes() {
                faulty[c] = faults.is_faulty(c);
            }
            sweep_label_into(mesh, faulty, fwd, useless);
            sweep_label_into(mesh, faulty, bwd, cant_reach);

            let status = Grid::from_fn(mesh, |c| {
                if faulty[c] {
                    MccStatus::Faulty
                } else if useless[c] {
                    MccStatus::Useless
                } else if cant_reach[c] {
                    MccStatus::CantReach
                } else {
                    MccStatus::FaultFree
                }
            });
            let planes = [&*faulty, &*useless, &*cant_reach]
                .map(|plane| BitGrid::from_blocked(mesh, |c| plane[c]));
            (planes, extract_components(mesh, &status, ws))
        });
        let [faulty, useless, cant_reach] = planes;
        let mut packed = faulty.clone();
        let mut disabled = 0;
        for c in mesh.nodes() {
            if useless.get(c) == Some(true) || cant_reach.get(c) == Some(true) {
                packed.set(c, true);
                disabled += 1;
            }
        }
        MccMap {
            mesh,
            ty,
            packed,
            faulty,
            useless,
            cant_reach,
            disabled,
            records: OnceLock::from(with_rects(components, |m| m.rect)),
        }
    }

    /// The components and their rectangles, built on first call: a BFS
    /// starts at each still-unvisited node of a row-major scan of the
    /// blocked plane, with a packed visited mask from this thread's scratch
    /// workspace, so the components come out in `build_scalar`'s order.
    fn records(&self) -> &(Vec<Mcc>, Vec<Rect>) {
        self.records.get_or_init(|| {
            let components = with_scratch(|ws| {
                let Workspace {
                    queue,
                    visited_mask: visited,
                    ..
                } = ws;
                visited.reset(self.mesh);
                let mut components = Vec::new();
                for_each_set_bit(&self.packed, |start| {
                    if !visited.test_and_set(start) {
                        components.push(bfs_component(
                            start,
                            &self.packed,
                            &self.faulty,
                            queue,
                            |v| !visited.test_and_set(v),
                        ));
                    }
                });
                components
            });
            debug_assert_eq!(
                components.iter().map(Mcc::disabled_nodes).sum::<usize>(),
                self.disabled
            );
            with_rects(components, |m| m.rect)
        })
    }

    /// The mesh this decomposition covers.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// The status of node `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is outside the mesh.
    pub fn status(&self, c: Coord) -> MccStatus {
        assert!(self.mesh.contains(c), "{c} outside {:?}", self.mesh);
        if self.faulty.get(c) == Some(true) {
            MccStatus::Faulty
        } else if self.useless.get(c) == Some(true) {
            MccStatus::Useless
        } else if self.cant_reach.get(c) == Some(true) {
            MccStatus::CantReach
        } else {
            MccStatus::FaultFree
        }
    }

    /// Whether `c` belongs to an MCC. Off-mesh positions do not.
    pub fn is_blocked(&self, c: Coord) -> bool {
        self.packed.get(c) == Some(true)
    }

    /// The components in the row-major order of their first nodes, built
    /// on first call.
    pub fn components(&self) -> &[Mcc] {
        &self.records().0
    }

    /// Bounding rectangles of all components, in [`MccMap::components`]
    /// order and built with them — no per-call allocation.
    pub fn rects(&self) -> &[Rect] {
        &self.records().1
    }

    /// The MCC-blocked nodes as a packed bit grid — the input the
    /// word-parallel safety pass starts from.
    pub fn packed(&self) -> &BitGrid {
        &self.packed
    }

    /// The total number of healthy nodes swallowed by MCCs, read off a
    /// counter the fix-point keeps: it builds no components.
    pub fn disabled_count(&self) -> usize {
        self.disabled
    }

    /// Incrementally records a newly failed node, resuming the Definition 2
    /// label fix-point from the disturbance instead of rebuilding the grid.
    ///
    /// Both label planes are monotone under fault insertion (labels only
    /// ever appear), so a clipped worklist seeded at the new fault reaches
    /// exactly the fix-point a full [`MccMap::build`] computes — the
    /// equivalence is property-tested here and in `emr-conform`. Components
    /// already built are dropped; the next read rebuilds them in the order
    /// a fresh build gives.
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
            faulty,
            useless,
            cant_reach,
            disabled,
            records,
            ..
        } = self;
        let was_blocked = packed.get(c) == Some(true);
        faulty.set(c, true);
        packed.set(c, true);
        useless.set(c, false);
        cant_reach.set(c, false);
        // A labeled node that fails stops counting as swallowed.
        *disabled -= usize::from(was_blocked);
        let mut changed: Option<Rect> = (!was_blocked).then(|| Rect::point(c));

        let (fwd, bwd) = type_dirs(*ty);
        with_scratch(|ws| {
            for (label, dirs) in [(&mut *useless, fwd), (&mut *cant_reach, bwd)] {
                ws.queue.clear();
                ws.queue.extend(dirs.map(|d| c.step(d.opposite())));
                label_fixpoint(faulty, label, dirs, &mut ws.queue, |u| {
                    if !packed.test_and_set(u) {
                        *disabled += 1;
                        changed = Some(changed.map_or(Rect::point(u), |r| r.expanded_to(u)));
                    }
                });
            }
        });
        records.take();
        changed
    }
}

/// Two maps are equal when their type, planes, counters and components
/// are; a map whose components are not built yet builds them to compare.
impl PartialEq for MccMap {
    fn eq(&self, other: &MccMap) -> bool {
        self.ty == other.ty
            && self.packed == other.packed
            && self.faulty == other.faulty
            && self.useless == other.useless
            && self.cant_reach == other.cant_reach
            && self.disabled == other.disabled
            && self.components() == other.components()
    }
}

impl Eq for MccMap {}

/// Writes the type, the planes and the components (built first if need
/// be) under the field names `mesh`, `ty`, `packed`, `faulty`, `useless`,
/// `cant_reach`, `components` and `rects`.
impl Serialize for MccMap {
    fn serialize(&self, out: &mut Serializer) {
        let mut map = out.map();
        map.field("mesh", &self.mesh);
        map.field("ty", &self.ty);
        map.field("packed", &self.packed);
        map.field("faulty", &self.faulty);
        map.field("useless", &self.useless);
        map.field("cant_reach", &self.cant_reach);
        map.field("components", self.components());
        map.field("rects", self.rects());
        map.end();
    }
}

/// The serialized form of an [`MccMap`]; the rectangles are rebuilt
/// from the components.
#[derive(Deserialize)]
struct MccMapWire {
    mesh: Mesh,
    ty: MccType,
    packed: BitGrid,
    faulty: BitGrid,
    useless: BitGrid,
    cant_reach: BitGrid,
    components: Vec<Mcc>,
}

impl Deserialize for MccMap {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<MccMap, Error> {
        let wire = MccMapWire::deserialize(de)?;
        Ok(MccMap {
            mesh: wire.mesh,
            ty: wire.ty,
            disabled: wire
                .packed
                .count_ones()
                .saturating_sub(wire.faulty.count_ones()),
            packed: wire.packed,
            faulty: wire.faulty,
            useless: wire.useless,
            cant_reach: wire.cant_reach,
            records: OnceLock::from(with_rects(wire.components, |m| m.rect)),
        })
    }
}

impl MemBytes for MccMap {
    /// The four packed planes, plus the component list and its rects once
    /// built.
    fn mem_bytes(&self) -> u64 {
        let records = self.records.get().map_or(0, |(components, rects)| {
            components.len() * std::mem::size_of::<Mcc>()
                + rects.len() * std::mem::size_of::<Rect>()
        });
        [&self.packed, &self.faulty, &self.useless, &self.cant_reach]
            .iter()
            .map(|plane| plane.mem_bytes())
            .sum::<u64>()
            + records as u64
    }
}

/// The component of the set bits of `blocked` containing `start`, by BFS
/// with neighbors in E, N, W, S order. `first_visit(v)` marks `v` visited
/// and reports whether it was unvisited; `start` must be marked already.
fn bfs_component(
    start: Coord,
    blocked: &BitGrid,
    faulty: &BitGrid,
    queue: &mut VecDeque<Coord>,
    mut first_visit: impl FnMut(Coord) -> bool,
) -> Mcc {
    let mut rect = Rect::point(start);
    let mut nodes = 0;
    let mut faulty_nodes = 0;
    queue.clear();
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        rect = rect.expanded_to(u);
        nodes += 1;
        faulty_nodes += usize::from(faulty.get(u) == Some(true));
        for v in blocked.mesh().neighbors(u) {
            if blocked.get(v) == Some(true) && first_visit(v) {
                queue.push_back(v);
            }
        }
    }
    Mcc {
        rect,
        faulty_nodes,
        disabled_nodes: nodes - faulty_nodes,
    }
}

/// Runs one label plane's Definition-2 worklist to its fix-point. A
/// candidate off `queue` that is fault-free and unlabeled gains the label
/// when both `dirs` neighbours are faulty-or-labeled, and the nodes that
/// see it as a `dirs` neighbour then become candidates. Labels only ever
/// appear, so the worklist reaches the least fix-point above `label` as
/// long as the initial candidates include every node `faulty` alone
/// labels. Calls `gain` on each gainer, in discovery order.
fn label_fixpoint(
    faulty: &BitGrid,
    label: &mut BitGrid,
    dirs: [Direction; 2],
    queue: &mut VecDeque<Coord>,
    mut gain: impl FnMut(Coord),
) {
    let [vertical, horizontal] = dirs;
    while let Some(u) = queue.pop_front() {
        if faulty.get(u) != Some(false) || label.get(u) == Some(true) {
            continue;
        }
        let blocked = |v: Coord| faulty.get(v) == Some(true) || label.get(v) == Some(true);
        if blocked(u.step(vertical)) && blocked(u.step(horizontal)) {
            label.set(u, true);
            gain(u);
            queue.extend(dirs.map(|d| u.step(d.opposite())));
        }
    }
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

// emr-lint: allow(A1, "component ids index the vector they were pushed into, and the status grid covers the mesh")
fn extract_components(mesh: Mesh, status: &Grid<MccStatus>, ws: &mut Workspace) -> Vec<Mcc> {
    let Workspace { queue, visited, .. } = ws;
    visited.reset(mesh, false);
    let mut components = Vec::new();
    for start in mesh.nodes() {
        if visited[start] || !status[start].is_blocked() {
            continue;
        }
        let mut rect = Rect::point(start);
        let mut faulty_nodes = 0;
        let mut disabled_nodes = 0;
        queue.clear();
        queue.push_back(start);
        visited[start] = true;
        while let Some(u) = queue.pop_front() {
            rect = rect.expanded_to(u);
            match status[u] {
                MccStatus::Faulty => faulty_nodes += 1,
                MccStatus::Useless | MccStatus::CantReach => disabled_nodes += 1,
                MccStatus::FaultFree => unreachable!("fault-free node in MCC"),
            }
            for v in mesh.neighbors(u) {
                if !visited[v] && status[v].is_blocked() {
                    visited[v] = true;
                    queue.push_back(v);
                }
            }
        }
        components.push(Mcc {
            rect,
            faulty_nodes,
            disabled_nodes,
        });
    }
    components
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
        assert_eq!(one.components().len(), 1);
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
            assert!(mcc.components().is_empty());
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
    /// planes must still match exactly) and the component order.
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
        assert_eq!(records(incremental), records(rebuilt), "{ctx}");
        assert_eq!(incremental, rebuilt, "{ctx}");
    }

    /// The `(rect, faulty, disabled)` record of every component, in order.
    fn records(m: &MccMap) -> Vec<(Rect, usize, usize)> {
        m.components()
            .iter()
            .map(|c| (c.rect(), c.faulty_nodes(), c.disabled_nodes()))
            .collect()
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
        assert_eq!(
            records(&map),
            [(Rect::new(2, 6, 2, 5), 8, 3), (Rect::new(2, 2, 5, 5), 1, 0)]
        );
    }

    #[test]
    fn components_are_built_on_first_read() {
        let f = figure_1_faults();
        for ty in MccType::ALL {
            let map = MccMap::build(&f, ty);
            let planes = map.mem_bytes();
            let count = map.disabled_count();
            assert_eq!(map.mem_bytes(), planes, "the counter builds no components");
            let scalar = MccMap::build_scalar(&f, ty);
            assert_eq!(map.rects(), scalar.rects(), "{ty:?}");
            assert!(
                map.mem_bytes() > planes,
                "the first read builds the components"
            );
            assert_eq!(map, scalar, "{ty:?}");
            let sum: usize = map.components().iter().map(Mcc::disabled_nodes).sum();
            assert_eq!(count, sum, "{ty:?}");
        }
    }

    #[test]
    fn disabled_count_tracks_inserts_without_building_components() {
        let mesh = Mesh::square(10);
        // (2,2) fails after the first two faults label it useless under
        // type-one; the rest grow and merge components.
        let sequence = [(2, 3), (3, 2), (2, 2), (5, 5), (6, 4), (4, 6), (7, 7)];
        for ty in MccType::ALL {
            let mut map = MccMap::build(&FaultSet::new(mesh), ty);
            let planes = map.mem_bytes();
            for &(x, y) in &sequence {
                map.components();
                map.insert_fault(Coord::new(x, y));
                assert_eq!(map.mem_bytes(), planes, "an insert drops the components");
                let count = map.disabled_count();
                assert_eq!(map.mem_bytes(), planes, "the counter builds no components");
                let sum: usize = map.components().iter().map(Mcc::disabled_nodes).sum();
                assert_eq!(count, sum, "{ty:?} after ({x}, {y})");
            }
        }
    }

    #[test]
    fn incremental_insert_is_idempotent() {
        let mesh = Mesh::square(6);
        let mut map = MccMap::build(&FaultSet::new(mesh), MccType::One);
        assert!(map.insert_fault(Coord::new(2, 2)).is_some());
        assert_eq!(map.insert_fault(Coord::new(2, 2)), None);
        assert_eq!(map.components().len(), 1);
        assert_eq!(map.components()[0].faulty_nodes(), 1);
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
        // Map equality pins all four planes, the disabled-node counter
        // and the components in order.
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
    fn component_counts_match_status() {
        let f = figure_1_faults();
        let one = MccMap::build(&f, MccType::One);
        let counted: usize = one
            .components()
            .iter()
            .map(|m| m.faulty_nodes() + m.disabled_nodes())
            .sum();
        let blocked: Vec<Coord> = f.mesh().nodes().filter(|&c| one.is_blocked(c)).collect();
        assert_eq!(counted, blocked.len());
        for c in blocked {
            assert!(one.rects().iter().any(|r| r.contains(c)), "{c}");
        }
    }
}
