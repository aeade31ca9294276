use std::collections::VecDeque;
use std::sync::OnceLock;

use serde::{Deserialize, Deserializer, Error, Serialize, Serializer};

use emr_mesh::{BitGrid, Coord, Direction, Grid, MemBytes, Mesh, Rect};

use crate::workspace::{with_scratch, Workspace};
use crate::FaultSet;

/// The status of a node under the faulty-block model (Definition 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeState {
    /// A healthy, usable node (the paper's *enabled*).
    Enabled,
    /// A failed node.
    Faulty,
    /// A healthy node deactivated because it has faulty/disabled neighbors
    /// in both dimensions.
    Disabled,
}

impl NodeState {
    /// Whether the node belongs to a faulty block (faulty or disabled).
    pub fn is_blocked(self) -> bool {
        !matches!(self, NodeState::Enabled)
    }
}

/// One faulty block: a maximal connected component of faulty and disabled
/// nodes. Under Definition 1 every component converges to a full rectangle;
/// [`BlockMap`] asserts this invariant in debug builds wherever it builds
/// its blocks, and the test suite property-checks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultyBlock {
    rect: Rect,
    faulty_nodes: usize,
    disabled_nodes: usize,
}

impl FaultyBlock {
    /// The rectangle `[x_min:x_max, y_min:y_max]` covered by the block.
    pub fn rect(&self) -> Rect {
        self.rect
    }

    /// The number of genuinely faulty nodes inside the block.
    pub fn faulty_nodes(&self) -> usize {
        self.faulty_nodes
    }

    /// The number of healthy-but-disabled nodes inside the block
    /// (the quantity plotted in the paper's Figure 8).
    pub fn disabled_nodes(&self) -> usize {
        self.disabled_nodes
    }
}

/// The faulty-block decomposition of a mesh: the packed blocked and
/// faulty planes, off which a node's [`NodeState`] is read, plus the list
/// of disjoint rectangular blocks. [`BlockMap::build`] and
/// [`BlockMap::insert_fault`] keep only the planes and the count of
/// disabled nodes current: the blocks are read off the planes on the
/// first call that needs them ([`BlockMap::blocks`], [`BlockMap::rects`],
/// [`BlockMap::block_containing`]), cached, and dropped by the next
/// insert. The cache is a `OnceLock`, so a map shared across threads
/// builds its blocks once.
///
/// # Examples
///
/// ```
/// use emr_mesh::{Coord, Mesh};
/// use emr_fault::{BlockMap, FaultSet, NodeState};
///
/// // Two diagonal faults close into a 2×2 block.
/// let mesh = Mesh::square(5);
/// let faults = FaultSet::from_coords(mesh, [Coord::new(1, 1), Coord::new(2, 2)]);
/// let map = BlockMap::build(&faults);
/// assert_eq!(map.state(Coord::new(1, 2)), NodeState::Disabled);
/// assert_eq!(map.blocks().len(), 1);
/// assert_eq!(map.blocks()[0].rect().node_count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct BlockMap {
    mesh: Mesh,
    /// The blocked (faulty ∪ disabled) bits. Downstream word-parallel
    /// passes (safety levels, the reachability sweeps) consume this
    /// directly.
    packed: BitGrid,
    /// The genuinely faulty bits, a subset of `packed`.
    faulty: BitGrid,
    /// The blocked nodes that are not faulty, kept by the fix-point.
    disabled: usize,
    /// The blocks and their rectangles in the same order, built on first
    /// read so hot loops can borrow the rectangles without a per-call
    /// allocation.
    records: OnceLock<(Vec<FaultyBlock>, Vec<Rect>)>,
}

impl BlockMap {
    /// Runs Definition 1 to its fix-point.
    ///
    /// A non-faulty node is disabled when it has at least one faulty or
    /// disabled neighbor along X *and* one along Y ("two or more disabled or
    /// faulty neighbors in different dimensions"). Off-mesh positions count
    /// as healthy.
    ///
    /// Runs the worklist [`BlockMap::insert_fault`] resumes on a copy of the
    /// faulty plane, seeded at the neighbours of each fault with another fault
    /// in its 3×3 box: a node the faults alone disable has two faulty
    /// neighbours on a diagonal of each other, and later growth re-enqueues the
    /// neighbours of each changed node. The build costs one copy of each plane
    /// plus `O(faults + blocked nodes)`, whatever the mesh size; the blocks
    /// are read off the planes on first use. [`BlockMap::build_scalar`] is
    /// the reference (`conform` oracle `block-bits-matches-scalar` pins the
    /// equivalence).
    pub fn build(faults: &FaultSet) -> BlockMap {
        let mesh = faults.mesh();
        let mut packed = faults.packed().clone();
        let disabled = with_scratch(|ws| {
            ws.queue.clear();
            ws.queue
                .extend(faults.paired().flat_map(|f| mesh.neighbors(f)));
            disable_fixpoint(&mut packed, &mut ws.queue)
        });
        BlockMap {
            mesh,
            packed,
            faulty: faults.packed().clone(),
            disabled,
            records: OnceLock::new(),
        }
    }

    /// The original per-node worklist fix-point over a dense state grid,
    /// with an eager BFS component extraction — the ground truth the
    /// fault-seeded [`BlockMap::build`] is differentially tested against.
    /// Produces an equal map (same planes, same blocks in the same order).
    pub fn build_scalar(faults: &FaultSet) -> BlockMap {
        let mesh = faults.mesh();
        let mut state = Grid::from_fn(mesh, |c| {
            if faults.is_faulty(c) {
                NodeState::Faulty
            } else {
                NodeState::Enabled
            }
        });

        let blocks = with_scratch(|ws| {
            // Worklist fix-point: whenever a node turns faulty/disabled
            // its enabled neighbors become candidates.
            let queue = &mut ws.queue;
            queue.clear();
            queue.extend(faults.iter().flat_map(|f| mesh.neighbors(f)));
            while let Some(u) = queue.pop_front() {
                if state[u] != NodeState::Enabled {
                    continue;
                }
                let blocked = |c: Coord| state.get(c).is_some_and(|s| s.is_blocked());
                let x_blocked =
                    blocked(u.step(Direction::East)) || blocked(u.step(Direction::West));
                let y_blocked =
                    blocked(u.step(Direction::North)) || blocked(u.step(Direction::South));
                if x_blocked && y_blocked {
                    state[u] = NodeState::Disabled;
                    queue.extend(mesh.neighbors(u));
                }
            }
            extract_blocks(mesh, &state, ws)
        });
        let map = BlockMap {
            mesh,
            packed: BitGrid::from_blocked(mesh, |c| state[c].is_blocked()),
            faulty: BitGrid::from_blocked(mesh, |c| state[c] == NodeState::Faulty),
            disabled: mesh
                .nodes()
                .filter(|&c| state[c] == NodeState::Disabled)
                .count(),
            records: OnceLock::from(with_rects(blocks, |b| b.rect)),
        };
        debug_assert!(map.rect_invariant_holds());
        map
    }

    /// The blocks and their rectangles, read off the planes on first call:
    /// `block_through` runs on each fault of a row-major scan of the faulty
    /// plane that no block already read contains. Read in that order, the
    /// blocks come out in `build_scalar`'s (y_min, x_min) order: every row
    /// of a block holds a fault (the first node of a row to be disabled
    /// needs a faulty neighbour along X), and blocks sharing a bottom row
    /// are disjoint along it.
    fn records(&self) -> &(Vec<FaultyBlock>, Vec<Rect>) {
        self.records.get_or_init(|| {
            let blocks = with_scratch(|ws| {
                let read = &mut ws.visited_mask;
                read.reset(self.mesh);
                let mut blocks = Vec::new();
                for_each_set_bit(&self.faulty, |f| {
                    if read.get(f) == Some(true) {
                        return;
                    }
                    let block = block_through(&self.packed, &self.faulty, f);
                    for u in &block.rect {
                        read.set(u, true);
                    }
                    blocks.push(block);
                });
                blocks
            });
            debug_assert!(self.blocks_match_planes(&blocks));
            with_rects(blocks, |b| b.rect)
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
    pub fn state(&self, c: Coord) -> NodeState {
        assert!(self.mesh.contains(c), "{c} outside {:?}", self.mesh);
        if self.faulty.get(c) == Some(true) {
            NodeState::Faulty
        } else if self.is_blocked(c) {
            NodeState::Disabled
        } else {
            NodeState::Enabled
        }
    }

    /// Whether `c` is part of a faulty block. Off-mesh positions are not.
    pub fn is_blocked(&self, c: Coord) -> bool {
        self.packed.get(c) == Some(true)
    }

    /// The disjoint rectangular blocks in (y_min, x_min) order, built on
    /// first call.
    pub fn blocks(&self) -> &[FaultyBlock] {
        &self.records().0
    }

    /// The block rectangles only (the representation routing code
    /// consumes), in [`BlockMap::blocks`] order and built with them — no
    /// per-call allocation.
    pub fn rects(&self) -> &[Rect] {
        &self.records().1
    }

    /// The blocked (faulty ∪ disabled) nodes as a packed bit grid — the
    /// input the word-parallel safety and reachability passes start from.
    pub fn packed(&self) -> &BitGrid {
        &self.packed
    }

    /// The block containing `c`, if any.
    pub fn block_containing(&self, c: Coord) -> Option<&FaultyBlock> {
        self.blocks().iter().find(|b| b.rect().contains(c))
    }

    /// The total number of disabled (healthy but deactivated) nodes, read
    /// off a counter the fix-point keeps: it builds no blocks.
    pub fn disabled_count(&self) -> usize {
        self.disabled
    }

    /// Incrementally records a newly failed node, updating the labeling
    /// without rebuilding the whole decomposition — the paper's §1
    /// information-model claim ("when a disturbance occurs, only those
    /// affected nodes update their information").
    ///
    /// The cost is proportional to the affected region: the fix-point
    /// worklist [`BlockMap::build`] runs, seeded at the new fault's
    /// neighbours, plus one read of the (possibly merged) block containing
    /// it. Blocks already built are dropped; the next read rebuilds them
    /// in the order a fresh build gives. Equivalence with a full rebuild
    /// is property-tested.
    ///
    /// Returns the rectangle of the (possibly merged) block containing
    /// `c` after the update — the disturbance footprint callers use to
    /// clip downstream recomputation. Every node whose state changed lies
    /// inside it.
    ///
    /// # Panics
    ///
    /// Panics if `c` lies outside the mesh.
    pub fn insert_fault(&mut self, c: Coord) -> Rect {
        match self.state(c) {
            NodeState::Faulty => return block_through(&self.packed, &self.faulty, c).rect,
            NodeState::Disabled => self.disabled -= 1,
            NodeState::Enabled => {}
        }
        self.faulty.set(c, true);
        self.packed.set(c, true);
        let mesh = self.mesh;
        self.disabled += with_scratch(|ws| {
            ws.queue.clear();
            ws.queue.extend(mesh.neighbors(c));
            disable_fixpoint(&mut self.packed, &mut ws.queue)
        });
        self.records.take();
        block_through(&self.packed, &self.faulty, c).rect
    }

    /// Checks the paper's structural claim: each connected component of
    /// faulty∪disabled nodes fills its bounding rectangle, which also makes
    /// the blocks pairwise disjoint. Also checks that the faulty plane
    /// lies inside the blocked one and that the per-block counts and the
    /// disabled-node counter match the planes. Builds the blocks if they
    /// are not built yet.
    pub fn rect_invariant_holds(&self) -> bool {
        self.blocks_match_planes(self.blocks())
    }

    /// [`BlockMap::rect_invariant_holds`] for a block list about to be
    /// cached.
    fn blocks_match_planes(&self, blocks: &[FaultyBlock]) -> bool {
        let faulty_in = |r: Rect| {
            r.iter()
                .filter(|&c| self.faulty.get(c) == Some(true))
                .count()
        };
        let sum = |count: fn(&FaultyBlock) -> usize| blocks.iter().map(count).sum::<usize>();
        blocks.iter().all(|b| {
            b.rect().iter().all(|c| self.is_blocked(c))
                && faulty_in(b.rect()) == b.faulty_nodes()
                && b.faulty_nodes() + b.disabled_nodes() == b.rect().node_count()
        }) && self.packed.count_ones() == sum(|b| b.rect().node_count())
            && self.faulty.count_ones() == sum(FaultyBlock::faulty_nodes)
            && self.disabled == sum(FaultyBlock::disabled_nodes)
    }
}

/// Two maps are equal when their planes, counters and blocks are; a map
/// whose blocks are not built yet builds them to compare.
impl PartialEq for BlockMap {
    fn eq(&self, other: &BlockMap) -> bool {
        self.packed == other.packed
            && self.faulty == other.faulty
            && self.disabled == other.disabled
            && self.blocks() == other.blocks()
    }
}

impl Eq for BlockMap {}

/// Writes the planes and the blocks (built first if need be) under the
/// field names `mesh`, `packed`, `faulty`, `blocks` and `rects`.
impl Serialize for BlockMap {
    fn serialize(&self, out: &mut Serializer) {
        let mut map = out.map();
        map.field("mesh", &self.mesh);
        map.field("packed", &self.packed);
        map.field("faulty", &self.faulty);
        map.field("blocks", self.blocks());
        map.field("rects", self.rects());
        map.end();
    }
}

/// The serialized form of a [`BlockMap`]; the rectangles are rebuilt
/// from the blocks.
#[derive(Deserialize)]
struct BlockMapWire {
    mesh: Mesh,
    packed: BitGrid,
    faulty: BitGrid,
    blocks: Vec<FaultyBlock>,
}

impl Deserialize for BlockMap {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<BlockMap, Error> {
        let wire = BlockMapWire::deserialize(de)?;
        Ok(BlockMap {
            mesh: wire.mesh,
            disabled: wire
                .packed
                .count_ones()
                .saturating_sub(wire.faulty.count_ones()),
            packed: wire.packed,
            faulty: wire.faulty,
            records: OnceLock::from(with_rects(wire.blocks, |b| b.rect)),
        })
    }
}

impl MemBytes for BlockMap {
    /// The packed blocked and faulty planes, plus the block list and its
    /// rectangles once built.
    fn mem_bytes(&self) -> u64 {
        let records = self.records.get().map_or(0, |(blocks, rects)| {
            blocks.len() * std::mem::size_of::<FaultyBlock>()
                + rects.len() * std::mem::size_of::<Rect>()
        });
        self.packed.mem_bytes() + self.faulty.mem_bytes() + records as u64
    }
}

/// A record list with its rectangles, in the same order.
pub(crate) fn with_rects<T>(records: Vec<T>, rect: impl Fn(&T) -> Rect) -> (Vec<T>, Vec<Rect>) {
    let rects = records.iter().map(rect).collect();
    (records, rects)
}

/// Calls `f` on every set bit of `plane`, row-major: the node order of
/// the scalar builders' scans.
pub(crate) fn for_each_set_bit(plane: &BitGrid, mut f: impl FnMut(Coord)) {
    for y in 0..plane.mesh().height() {
        for (x0, &word) in (0i32..).step_by(64).zip(plane.row(y)) {
            let mut bits = word;
            while bits != 0 {
                f(Coord::new(
                    x0 + i32::try_from(bits.trailing_zeros()).unwrap_or(0),
                    y,
                ));
                bits &= bits - 1;
            }
        }
    }
}

/// Runs Definition 1's worklist to its fix-point on the blocked plane
/// `packed`. A candidate off `queue` that is still enabled turns disabled
/// when it has a blocked neighbour along X and one along Y, and its
/// neighbours then become candidates. Blocking is monotone, so the
/// worklist reaches the least fix-point above `packed` as long as the
/// initial candidates include every node the blocked plane alone
/// disables. Returns the number of nodes it disabled.
fn disable_fixpoint(packed: &mut BitGrid, queue: &mut VecDeque<Coord>) -> usize {
    let mesh = packed.mesh();
    let mut disabled = 0;
    while let Some(u) = queue.pop_front() {
        if packed.get(u) != Some(false) {
            continue;
        }
        let blocked = |c: Coord| packed.get(c) == Some(true);
        let x_blocked = blocked(u.step(Direction::East)) || blocked(u.step(Direction::West));
        let y_blocked = blocked(u.step(Direction::North)) || blocked(u.step(Direction::South));
        if x_blocked && y_blocked {
            packed.set(u, true);
            disabled += 1;
            queue.extend(mesh.neighbors(u));
        }
    }
    disabled
}

/// The block holding the blocked node `c` of a converged plane: by the
/// rectangle invariant the blocked runs through `c` along X and along Y
/// span it, and `faulty` gives its fault count.
fn block_through(packed: &BitGrid, faulty: &BitGrid, c: Coord) -> FaultyBlock {
    let end = |dir: Direction| {
        let mut u = c;
        while packed.get(u.step(dir)) == Some(true) {
            u = u.step(dir);
        }
        u
    };
    let rect = Rect::new(
        end(Direction::West).x,
        end(Direction::East).x,
        end(Direction::South).y,
        end(Direction::North).y,
    );
    let faulty_nodes = rect.iter().filter(|&u| faulty.get(u) == Some(true)).count();
    FaultyBlock {
        rect,
        faulty_nodes,
        disabled_nodes: rect.node_count() - faulty_nodes,
    }
}

fn extract_blocks(mesh: Mesh, state: &Grid<NodeState>, ws: &mut Workspace) -> Vec<FaultyBlock> {
    let Workspace { queue, visited, .. } = ws;
    visited.reset(mesh, false);
    let mut blocks = Vec::new();
    for start in mesh.nodes() {
        if visited[start] || !state[start].is_blocked() {
            continue;
        }
        // BFS over the component, tracking the bounding box and node kinds.
        let mut rect = Rect::point(start);
        let mut faulty_nodes = 0;
        let mut disabled_nodes = 0;
        queue.clear();
        queue.push_back(start);
        visited[start] = true;
        while let Some(u) = queue.pop_front() {
            rect = rect.expanded_to(u);
            match state[u] {
                NodeState::Faulty => faulty_nodes += 1,
                NodeState::Disabled => disabled_nodes += 1,
                NodeState::Enabled => unreachable!("enabled node in component"),
            }
            for v in mesh.neighbors(u) {
                if !visited[v] && state[v].is_blocked() {
                    visited[v] = true;
                    queue.push_back(v);
                }
            }
        }
        blocks.push(FaultyBlock {
            rect,
            faulty_nodes,
            disabled_nodes,
        });
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(mesh: Mesh, coords: &[(i32, i32)]) -> BlockMap {
        let faults = FaultSet::from_coords(mesh, coords.iter().map(|&c| Coord::from(c)));
        BlockMap::build(&faults)
    }

    #[test]
    fn paper_figure_1a_block() {
        // Eight faults of Figure 1(a) form the rectangle [2:6, 3:6].
        let map = build(
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
        );
        assert_eq!(map.blocks().len(), 1);
        let b = map.blocks()[0];
        assert_eq!(b.rect(), Rect::new(2, 6, 3, 6));
        assert_eq!(b.faulty_nodes(), 8);
        assert_eq!(b.disabled_nodes(), 20 - 8);
        assert!(map.rect_invariant_holds());
    }

    #[test]
    fn isolated_fault_is_a_unit_block() {
        let map = build(Mesh::square(5), &[(2, 2)]);
        assert_eq!(map.blocks().len(), 1);
        assert_eq!(map.blocks()[0].rect(), Rect::new(2, 2, 2, 2));
        assert_eq!(map.blocks()[0].disabled_nodes(), 0);
        assert_eq!(map.state(Coord::new(2, 3)), NodeState::Enabled);
    }

    #[test]
    fn diagonal_faults_close_into_square() {
        let map = build(Mesh::square(5), &[(1, 1), (2, 2)]);
        assert_eq!(map.blocks().len(), 1);
        assert_eq!(map.blocks()[0].rect(), Rect::new(1, 2, 1, 2));
        assert_eq!(map.state(Coord::new(1, 2)), NodeState::Disabled);
        assert_eq!(map.state(Coord::new(2, 1)), NodeState::Disabled);
    }

    #[test]
    fn same_dimension_neighbors_do_not_disable() {
        // Two faults flanking a node in the same dimension leave it enabled.
        let map = build(Mesh::square(5), &[(1, 2), (3, 2)]);
        assert_eq!(map.state(Coord::new(2, 2)), NodeState::Enabled);
        assert_eq!(map.blocks().len(), 2);
    }

    #[test]
    fn u_shape_cavity_fills() {
        // A U of faults; the cavity nodes must be disabled transitively.
        let map = build(
            Mesh::square(6),
            &[(1, 1), (1, 2), (1, 3), (2, 3), (3, 3), (3, 2), (3, 1)],
        );
        assert_eq!(map.blocks().len(), 1);
        assert_eq!(map.blocks()[0].rect(), Rect::new(1, 3, 1, 3));
        assert_eq!(map.state(Coord::new(2, 1)), NodeState::Disabled);
        assert_eq!(map.state(Coord::new(2, 2)), NodeState::Disabled);
    }

    #[test]
    fn corner_of_mesh_uses_existing_neighbors_only() {
        // Faults at (1,0) and (0,1) disable the mesh corner (0,0).
        let map = build(Mesh::square(4), &[(1, 0), (0, 1)]);
        assert_eq!(map.state(Coord::new(0, 0)), NodeState::Disabled);
        assert_eq!(map.blocks().len(), 1);
        assert_eq!(map.blocks()[0].rect(), Rect::new(0, 1, 0, 1));
    }

    #[test]
    fn growth_reaches_a_fault_with_no_fault_in_its_box() {
        // (0,4) has no other fault in its 3×3 box, so it seeds no
        // candidate; the block grows to it through disabled nodes, and the
        // four faults close into one block.
        let faults = FaultSet::from_coords(
            Mesh::square(6),
            [(1, 2), (2, 1), (3, 3), (0, 4)].map(Coord::from),
        );
        let map = BlockMap::build(&faults);
        assert_eq!(map, BlockMap::build_scalar(&faults));
        assert_eq!(map.rects(), [Rect::new(0, 3, 1, 4)]);
        assert_eq!(map.blocks()[0].faulty_nodes(), 4);
    }

    #[test]
    fn no_faults_no_blocks() {
        let map = BlockMap::build(&FaultSet::new(Mesh::square(4)));
        assert!(map.blocks().is_empty());
        assert_eq!(map.disabled_count(), 0);
        assert!(map.rect_invariant_holds());
    }

    #[test]
    fn block_containing_lookup() {
        let map = build(Mesh::square(5), &[(1, 1), (2, 2)]);
        assert!(map.block_containing(Coord::new(2, 1)).is_some());
        assert!(map.block_containing(Coord::new(4, 4)).is_none());
    }

    #[test]
    fn is_blocked_off_mesh_is_false() {
        let map = build(Mesh::square(3), &[(0, 0)]);
        assert!(!map.is_blocked(Coord::new(-1, 0)));
        assert!(map.is_blocked(Coord::new(0, 0)));
    }
    #[test]
    fn incremental_insert_matches_rebuild() {
        let mesh = Mesh::square(12);
        // A fault sequence that grows, merges and converts disabled nodes.
        let sequence = [
            (3, 3),
            (4, 4),
            (8, 8),
            (8, 7),
            (5, 5),
            (6, 6),
            (7, 7), // bridges the two clusters
            (4, 3), // already-disabled node fails for real
            (0, 0),
        ];
        let mut incremental = BlockMap::build(&FaultSet::new(mesh));
        let mut all = Vec::new();
        for &(x, y) in &sequence {
            let c = Coord::new(x, y);
            all.push(c);
            incremental.insert_fault(c);
            let rebuilt = BlockMap::build(&FaultSet::from_coords(mesh, all.iter().copied()));
            // Same states everywhere…
            for n in mesh.nodes() {
                assert_eq!(incremental.state(n), rebuilt.state(n), "after {c} at {n}");
            }
            // …and the same blocks in the same order.
            assert_eq!(incremental.blocks(), rebuilt.blocks(), "after {c}");
            assert_eq!(
                incremental.disabled_count(),
                rebuilt.disabled_count(),
                "after {c}"
            );
            assert!(incremental.rect_invariant_holds());
        }
    }

    #[test]
    fn blocks_are_built_on_first_read() {
        let faults = FaultSet::from_coords(
            Mesh::square(12),
            [(1, 1), (2, 2), (8, 3), (5, 9), (6, 9)].map(Coord::from),
        );
        let map = BlockMap::build(&faults);
        let planes = map.mem_bytes();
        assert_eq!(map.disabled_count(), 2);
        assert_eq!(map.mem_bytes(), planes, "the counter builds no blocks");
        let scalar = BlockMap::build_scalar(&faults);
        assert_eq!(map.rects(), scalar.rects());
        assert!(map.mem_bytes() > planes, "the first read builds the blocks");
        assert_eq!(map, scalar);
    }

    #[test]
    fn disabled_count_tracks_inserts_without_building_blocks() {
        let mesh = Mesh::square(12);
        let mut map = BlockMap::build(&FaultSet::new(mesh));
        let planes = map.mem_bytes();
        // Grows, fails a disabled node, and merges two blocks.
        for (x, y) in [(3, 3), (4, 4), (4, 3), (8, 8), (7, 7), (6, 6), (0, 0)] {
            map.blocks();
            map.insert_fault(Coord::new(x, y));
            assert_eq!(map.mem_bytes(), planes, "an insert drops the blocks");
            let count = map.disabled_count();
            assert_eq!(map.mem_bytes(), planes, "the counter builds no blocks");
            let sum: usize = map.blocks().iter().map(FaultyBlock::disabled_nodes).sum();
            assert_eq!(count, sum, "after ({x}, {y})");
        }
    }

    #[test]
    fn bit_build_matches_scalar_on_random_and_edge_densities() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Random fills at 0%, the paper's 0.5%, 5%, ~10%, ~50%, plus fully
        // faulty rows — the carry/fix-point edge cases — across the
        // paper's 200×200 mesh, word-boundary widths (4095/4097-style
        // non-×64 tails on thin meshes among them) and degenerate
        // meshes. Twenty seeds give every density four fills on every
        // shape, one of them (seed % 4 == 3) with a fully faulty row.
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
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            for &(w, h) in &shapes {
                let mesh = Mesh::new(w, h);
                let density = [0.0, 0.005, 0.05, 0.1, 0.5][seed as usize % 5];
                let mut faults = FaultSet::new(mesh);
                for c in mesh.nodes() {
                    if rng.gen_bool(density) {
                        faults.insert(c);
                    }
                }
                if seed % 4 == 3 && h > 1 {
                    // A fully faulty row seals the mesh in two.
                    for x in 0..w {
                        faults.insert(Coord::new(x, h / 2));
                    }
                }
                let bits = BlockMap::build(&faults);
                let scalar = BlockMap::build_scalar(&faults);
                assert_eq!(bits, scalar, "seed {seed} {w}x{h}");
                assert!(bits.rect_invariant_holds());
            }
        }
    }

    #[test]
    fn incremental_insert_is_idempotent() {
        let mesh = Mesh::square(6);
        let mut map = BlockMap::build(&FaultSet::new(mesh));
        let first = map.insert_fault(Coord::new(2, 2));
        let again = map.insert_fault(Coord::new(2, 2));
        assert_eq!(map.blocks().len(), 1);
        assert_eq!(map.blocks()[0].faulty_nodes(), 1);
        assert_eq!(first, Rect::point(Coord::new(2, 2)));
        assert_eq!(again, first, "re-inserting returns the containing rect");
    }

    #[test]
    fn insert_fault_rect_covers_every_changed_node() {
        let mesh = Mesh::square(12);
        let sequence = [(3, 3), (4, 4), (5, 3), (3, 5), (8, 8), (7, 7)];
        let mut map = BlockMap::build(&FaultSet::new(mesh));
        for &(x, y) in &sequence {
            let before = Grid::from_fn(mesh, |n| map.state(n));
            let rect = map.insert_fault(Coord::new(x, y));
            for n in mesh.nodes() {
                if map.state(n) != before[n] {
                    assert!(rect.contains(n), "changed node {n} outside {rect:?}");
                }
            }
        }
    }

    #[test]
    fn random_incremental_sequences_match_rebuild() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mesh = Mesh::square(16);
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut incremental = BlockMap::build(&FaultSet::new(mesh));
            let mut all = Vec::new();
            for _ in 0..25 {
                let c = Coord::new(rng.gen_range(0..16), rng.gen_range(0..16));
                all.push(c);
                incremental.insert_fault(c);
            }
            let rebuilt = BlockMap::build(&FaultSet::from_coords(mesh, all.iter().copied()));
            for n in mesh.nodes() {
                assert_eq!(incremental.state(n), rebuilt.state(n), "seed {seed} at {n}");
            }
            assert_eq!(
                incremental.blocks().len(),
                rebuilt.blocks().len(),
                "seed {seed}"
            );
        }
    }
}
