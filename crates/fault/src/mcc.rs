use serde::{Deserialize, Serialize};

use emr_mesh::{BitGrid, Coord, Direction, Grid, MemBytes, Mesh, Quadrant, Rect};

use crate::workspace::{with_scratch, Workspace};
use crate::{block_bits, mcc_bits, FaultSet};

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
/// polygons, so unlike [`crate::FaultyBlock`]s they carry their exact node
/// set in addition to a bounding rectangle.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mcc {
    rect: Rect,
    nodes: Vec<Coord>,
    faulty_nodes: usize,
    disabled_nodes: usize,
}

impl Mcc {
    /// The bounding rectangle of the component.
    pub fn rect(&self) -> Rect {
        self.rect
    }

    /// Every node of the component, in BFS discovery order.
    pub fn nodes(&self) -> &[Coord] {
        &self.nodes
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

/// The MCC decomposition of a mesh for one labeling type.
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MccMap {
    mesh: Mesh,
    ty: MccType,
    status: Grid<MccStatus>,
    /// The blocked (faulty ∪ useless ∪ can't-reach) bits, kept in
    /// lock-step with `status` for the word-parallel downstream passes.
    packed: BitGrid,
    components: Vec<Mcc>,
    /// Component bounding rectangles cached in `components` order, so hot
    /// loops can borrow them without a per-call allocation.
    rects: Vec<Rect>,
    // The two label planes of Definition 2, kept alongside `status`
    // because a node can carry *both* labels while `status` only shows
    // the higher-priority one (faulty > useless > can't-reach). The
    // incremental fix-point in [`MccMap::insert_fault`] needs the exact
    // planes to resume from.
    useless: Grid<bool>,
    cant_reach: Grid<bool>,
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
    /// Runs the Definition 2 labeling to its fix-point and extracts the
    /// components.
    ///
    /// For type-one: a fault-free node is `useless` when its north and east
    /// neighbors are both faulty-or-useless, and `can't-reach` when its
    /// south and west neighbors are both faulty-or-can't-reach. Type-two
    /// exchanges the roles of east and west. Off-mesh neighbors count as
    /// fault-free, per the definition's literal reading; this keeps the
    /// labeling exact for minimal routing (property-tested against the
    /// monotone-reachability oracle).
    ///
    /// Runs the word-parallel sweeps of the `mcc_bits` kernel; the scalar
    /// per-node sweep survives as [`MccMap::build_scalar`], the
    /// differential anchor (`conform` oracle `mcc-bits-matches-scalar`
    /// pins the equivalence). This is [`MccMap::build_banded`] with one
    /// band.
    pub fn build(faults: &FaultSet, ty: MccType) -> MccMap {
        MccMap::build_banded(faults, ty, 1)
    }

    /// [`MccMap::build`] with both label-plane sweeps split into `bands`
    /// horizontal row bands relaxed on scoped threads — intra-mesh
    /// parallelism for giant meshes. Bit-identical for every band count
    /// (see `mcc_bits::label_plane` for the fix-point uniqueness
    /// argument); `bands` is clamped to the mesh height, and 1 band runs
    /// the sequential sweeps without spawning. The label planes, the
    /// single-band row buffers, and the component-extraction buffers
    /// come from this thread's scratch workspace.
    pub fn build_banded(faults: &FaultSet, ty: MccType, bands: usize) -> MccMap {
        let mesh = faults.mesh();
        let (fwd, bwd) = type_dirs(ty);
        let (status, useless, cant_reach, packed, components) = with_scratch(|ws| {
            let Workspace {
                bits_a,
                bits_b,
                row_open,
                row_cur,
                ..
            } = ws;
            mcc_bits::label_plane(faults.packed(), fwd, bits_a, bands, row_open, row_cur);
            mcc_bits::label_plane(faults.packed(), bwd, bits_b, bands, row_open, row_cur);
            let (status, useless, cant_reach, packed) = decode_planes(faults, bits_a, bits_b);
            let components = extract_components(mesh, &status, ws);
            (status, useless, cant_reach, packed, components)
        });
        let rects = components.iter().map(|m| m.rect).collect();
        MccMap {
            mesh,
            ty,
            status,
            packed,
            components,
            rects,
            useless,
            cant_reach,
        }
    }

    /// The original per-node sweep — the ground truth the word-parallel
    /// [`MccMap::build`] is differentially tested against. Produces a
    /// structurally identical map.
    pub fn build_scalar(faults: &FaultSet, ty: MccType) -> MccMap {
        let mesh = faults.mesh();
        let (fwd, bwd) = type_dirs(ty);
        let (status, useless, cant_reach, components) = with_scratch(|ws| {
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
            let (useless, cant_reach) = (useless.clone(), cant_reach.clone());
            let components = extract_components(mesh, &status, ws);
            (status, useless, cant_reach, components)
        });
        let packed = BitGrid::from_blocked(mesh, |c| status[c].is_blocked());
        let rects = components.iter().map(|m| m.rect).collect();
        MccMap {
            mesh,
            ty,
            status,
            packed,
            components,
            rects,
            useless,
            cant_reach,
        }
    }

    /// The mesh this decomposition covers.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// Which labeling this map holds.
    pub fn mcc_type(&self) -> MccType {
        self.ty
    }

    /// The status of node `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is outside the mesh.
    pub fn status(&self, c: Coord) -> MccStatus {
        self.status[c]
    }

    /// Whether `c` belongs to an MCC. Off-mesh positions do not.
    pub fn is_blocked(&self, c: Coord) -> bool {
        self.status.get(c).is_some_and(|s| s.is_blocked())
    }

    /// The components, in discovery order: row-major after a full build;
    /// after [`MccMap::insert_fault`] the touched (possibly merged)
    /// component is re-appended at the end, so compare component lists
    /// order-insensitively.
    pub fn components(&self) -> &[Mcc] {
        &self.components
    }

    /// Bounding rectangles of all components, cached in
    /// [`MccMap::components`] order — no per-call allocation.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// The MCC-blocked nodes as a packed bit grid — the input the
    /// word-parallel safety pass starts from.
    pub fn packed(&self) -> &BitGrid {
        &self.packed
    }

    /// The total number of healthy nodes swallowed by MCCs.
    pub fn disabled_count(&self) -> usize {
        self.components.iter().map(|m| m.disabled_nodes()).sum()
    }

    /// Incrementally records a newly failed node, resuming the Definition 2
    /// label fix-point from the disturbance instead of rebuilding the grid.
    ///
    /// Both label planes are monotone under fault insertion (labels only
    /// ever appear), so a clipped worklist seeded at the new fault reaches
    /// exactly the fix-point a full [`MccMap::build`] computes — the
    /// equivalence is property-tested here and in `emr-conform`.
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
    // emr-lint: allow(A1, "worklist invariant: only blocked-status nodes enter the component queue, so a fault-free node there is a labeling bug")
    pub fn insert_fault(&mut self, c: Coord) -> Option<Rect> {
        assert!(self.mesh.contains(c), "fault {c} outside mesh");
        if self.status[c] == MccStatus::Faulty {
            return None;
        }
        let MccMap {
            mesh,
            ty,
            status,
            packed,
            components,
            rects,
            useless,
            cant_reach,
        } = self;
        let mesh = *mesh;
        let was_blocked = status[c].is_blocked();
        status[c] = MccStatus::Faulty;
        packed.set(c, true);
        useless[c] = false;
        cant_reach[c] = false;
        let mut changed: Option<Rect> = (!was_blocked).then(|| Rect::point(c));
        let grow = |changed: &mut Option<Rect>, u: Coord| {
            *changed = Some(match changed.take() {
                Some(r) => r.expanded_to(u),
                None => Rect::point(u),
            });
        };

        let (fwd, bwd) = type_dirs(*ty);
        for u in relabel_from(mesh, status, useless, fwd, c) {
            if !status[u].is_blocked() {
                grow(&mut changed, u);
            }
            // Useless outranks can't-reach in the status projection.
            status[u] = MccStatus::Useless;
            packed.set(u, true);
        }
        for u in relabel_from(mesh, status, cant_reach, bwd, c) {
            if !status[u].is_blocked() {
                grow(&mut changed, u);
                status[u] = MccStatus::CantReach;
                packed.set(u, true);
            }
        }

        // Re-extract the single component containing the fault: every
        // newly labeled node is adjacent to a previously changed blocked
        // node, so all changes merge into this one component.
        let mut rect = Rect::point(c);
        let mut nodes = Vec::new();
        let mut faulty_nodes = 0;
        let mut disabled_nodes = 0;
        let mut visited = std::collections::BTreeSet::from([c]);
        let mut queue = std::collections::VecDeque::from([c]);
        while let Some(u) = queue.pop_front() {
            rect = rect.expanded_to(u);
            nodes.push(u);
            match status[u] {
                MccStatus::Faulty => faulty_nodes += 1,
                MccStatus::Useless | MccStatus::CantReach => disabled_nodes += 1,
                MccStatus::FaultFree => unreachable!("fault-free node in MCC"),
            }
            for v in mesh.neighbors(u) {
                if status[v].is_blocked() && visited.insert(v) {
                    queue.push_back(v);
                }
            }
        }
        components.retain(|m| !visited.contains(&m.nodes[0]));
        components.push(Mcc {
            rect,
            nodes,
            faulty_nodes,
            disabled_nodes,
        });
        rects.clear();
        rects.extend(components.iter().map(|m| m.rect));
        changed
    }
}

impl MemBytes for MccMap {
    /// The status grid, both exact label planes, the packed bits, and
    /// the component list (each component carries its node set).
    fn mem_bytes(&self) -> u64 {
        let components: usize = self
            .components
            .iter()
            .map(|m| std::mem::size_of::<Mcc>() + m.nodes.len() * std::mem::size_of::<Coord>())
            .sum();
        self.status.mem_bytes()
            + self.useless.mem_bytes()
            + self.cant_reach.mem_bytes()
            + self.packed.mem_bytes()
            + (components + self.rects.len() * std::mem::size_of::<Rect>()) as u64
    }
}

/// Decodes the two packed label planes into the per-node status grid,
/// the exact per-plane boolean grids, and the combined packed blocked
/// bits. Write order encodes the status priority:
/// faulty > useless > can't-reach.
#[allow(clippy::type_complexity)]
// emr-lint: allow(A1, "plane indices come from the label grid the same pass wrote; every coordinate is in-mesh")
fn decode_planes(
    faults: &FaultSet,
    bits_a: &BitGrid,
    bits_b: &BitGrid,
) -> (Grid<MccStatus>, Grid<bool>, Grid<bool>, BitGrid) {
    let mesh = faults.mesh();
    let mut status = Grid::new(mesh, MccStatus::FaultFree);
    let mut useless = Grid::new(mesh, false);
    let mut cant_reach = Grid::new(mesh, false);
    let mut packed = faults.packed().clone();
    let width = mesh.width() as usize;
    {
        let st = status.as_mut_slice();
        let ul = useless.as_mut_slice();
        let cr = cant_reach.as_mut_slice();
        for y in 0..mesh.height() {
            let base = y as usize * width;
            block_bits::for_each_set_bit(bits_b.row(y), |x| {
                cr[base + x] = true;
                st[base + x] = MccStatus::CantReach;
            });
            block_bits::for_each_set_bit(bits_a.row(y), |x| {
                ul[base + x] = true;
                st[base + x] = MccStatus::Useless;
            });
            block_bits::for_each_set_bit(faults.packed().row(y), |x| {
                st[base + x] = MccStatus::Faulty;
            });
            let packed_row = packed.row_mut(y);
            for (i, w) in packed_row.iter_mut().enumerate() {
                *w |= bits_a.row(y)[i] | bits_b.row(y)[i];
            }
        }
    }
    (status, useless, cant_reach, packed)
}

/// Resumes one label plane's fix-point after `seed` turned faulty. A node
/// gains the label when both `dirs` neighbors are faulty-or-labeled; each
/// gain re-enqueues the nodes that see the gainer as a `dirs` neighbor.
/// Returns the nodes that gained the label, in discovery order.
fn relabel_from(
    mesh: Mesh,
    status: &Grid<MccStatus>,
    label: &mut Grid<bool>,
    dirs: [Direction; 2],
    seed: Coord,
) -> Vec<Coord> {
    let mut gained = Vec::new();
    let mut queue: std::collections::VecDeque<Coord> =
        dirs.iter().map(|&d| seed.step(d.opposite())).collect();
    while let Some(u) = queue.pop_front() {
        if !mesh.contains(u) || status[u] == MccStatus::Faulty || label[u] {
            continue;
        }
        let blocked = |v: Coord| mesh.contains(v) && (status[v] == MccStatus::Faulty || label[v]);
        if blocked(u.step(dirs[0])) && blocked(u.step(dirs[1])) {
            label[u] = true;
            gained.push(u);
            queue.push_back(u.step(dirs[0].opposite()));
            queue.push_back(u.step(dirs[1].opposite()));
        }
    }
    gained
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
        let mut nodes = Vec::new();
        let mut faulty_nodes = 0;
        let mut disabled_nodes = 0;
        queue.clear();
        queue.push_back(start);
        visited[start] = true;
        while let Some(u) = queue.pop_front() {
            rect = rect.expanded_to(u);
            nodes.push(u);
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
            nodes,
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

    /// Order-insensitive equivalence of two maps, down to the private
    /// label planes (a node can be useless *and* can't-reach while
    /// `status` only shows one; the planes must still match exactly).
    fn assert_equivalent(incremental: &MccMap, rebuilt: &MccMap, ctx: &str) {
        for n in incremental.mesh().nodes() {
            assert_eq!(incremental.status(n), rebuilt.status(n), "{ctx} at {n}");
            assert_eq!(incremental.useless[n], rebuilt.useless[n], "{ctx} at {n}");
            assert_eq!(
                incremental.cant_reach[n], rebuilt.cant_reach[n],
                "{ctx} at {n}"
            );
        }
        let sorted = |m: &MccMap| {
            let mut comps: Vec<(Rect, usize, usize, Vec<Coord>)> = m
                .components()
                .iter()
                .map(|c| {
                    let mut nodes = c.nodes().to_vec();
                    nodes.sort_by_key(|n| (n.y, n.x));
                    (c.rect(), c.faulty_nodes(), c.disabled_nodes(), nodes)
                })
                .collect();
            comps.sort_by_key(|(r, ..)| (r.x_min(), r.y_min()));
            comps
        };
        assert_eq!(sorted(incremental), sorted(rebuilt), "{ctx}");
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
                let before = incremental.status.clone();
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
        // Mirror of the block-map differential test: random densities
        // (including 0% and ~50%) plus fully-faulty middle rows, across
        // word-boundary-straddling and degenerate shapes. Full struct
        // equality pins status, both label planes, packed bits,
        // components, and rect order.
        let shapes = [(16, 16), (65, 3), (63, 4), (1, 9), (9, 1), (128, 2)];
        for seed in 0..12u64 {
            let (w, h) = shapes[seed as usize % shapes.len()];
            let mesh = Mesh::new(w, h);
            let mut rng = StdRng::seed_from_u64(0xA11C + seed);
            let density = [0.0, 0.1, 0.5][seed as usize % 3];
            let mut f = FaultSet::new(mesh);
            for c in mesh.nodes() {
                if rng.gen_bool(density) {
                    f.insert(c);
                }
            }
            if seed % 4 == 3 {
                let y = h / 2;
                for x in 0..w {
                    f.insert(Coord::new(x, y));
                }
            }
            for ty in MccType::ALL {
                let bits = MccMap::build(&f, ty);
                let scalar = MccMap::build_scalar(&f, ty);
                assert_eq!(bits, scalar, "{w}x{h} seed {seed} {ty:?}");
            }
        }
    }

    #[test]
    fn banded_build_matches_scalar_for_every_band_count() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Awkward widths (word boundaries plus 4095/4097 non-×64 tails on
        // thin meshes) under band counts from 1 to beyond-height; full
        // struct equality against the scalar ground truth.
        let shapes = [
            (16, 16),
            (65, 7),
            (127, 5),
            (130, 4),
            (4095, 2),
            (4097, 2),
            (1, 9),
        ];
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(0xBA4D + seed);
            for &(w, h) in &shapes {
                let mesh = Mesh::new(w, h);
                let mut f = FaultSet::new(mesh);
                for c in mesh.nodes() {
                    if rng.gen_bool(0.12) {
                        f.insert(c);
                    }
                }
                for ty in MccType::ALL {
                    let scalar = MccMap::build_scalar(&f, ty);
                    for bands in [1, 2, 3, 5, 64] {
                        let banded = MccMap::build_banded(&f, ty, bands);
                        assert_eq!(banded, scalar, "seed {seed} {w}x{h} {ty:?} bands {bands}");
                    }
                }
            }
        }
    }

    #[test]
    fn component_nodes_match_status() {
        let f = figure_1_faults();
        let one = MccMap::build(&f, MccType::One);
        let total: usize = one.components().iter().map(|m| m.nodes().len()).sum();
        let blocked = f.mesh().nodes().filter(|&c| one.is_blocked(c)).count();
        assert_eq!(total, blocked);
        for m in one.components() {
            for &c in m.nodes() {
                assert!(m.rect().contains(c));
                assert!(one.is_blocked(c));
            }
        }
    }
}
