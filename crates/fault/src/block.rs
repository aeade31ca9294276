use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use emr_mesh::{BitGrid, Coord, Direction, Grid, MemBytes, Mesh, Rect};

use crate::block_bits;
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
/// [`BlockMap::build`] asserts this invariant in debug builds and the test
/// suite property-checks it.
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

/// The faulty-block decomposition of a mesh: per-node states plus the list
/// of disjoint rectangular blocks.
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockMap {
    mesh: Mesh,
    state: Grid<NodeState>,
    /// The blocked (faulty ∪ disabled) bits, kept in lock-step with
    /// `state`. Downstream word-parallel passes (safety levels, the
    /// reachability sweeps) consume this directly.
    packed: BitGrid,
    blocks: Vec<FaultyBlock>,
    /// The block rectangles, cached in `blocks` order so hot loops can
    /// borrow them without a per-call allocation.
    rects: Vec<Rect>,
}

impl BlockMap {
    /// Runs Definition 1 to its fix-point and extracts the blocks.
    ///
    /// A non-faulty node is disabled when it has at least one faulty or
    /// disabled neighbor along X *and* one along Y ("two or more disabled or
    /// faulty neighbors in different dimensions"). Off-mesh positions count
    /// as healthy.
    ///
    /// Runs the word-parallel fix-point of the `block_bits` kernel; the
    /// scalar worklist survives as [`BlockMap::build_scalar`], the
    /// differential anchor (`conform` oracle `block-bits-matches-scalar`
    /// pins the equivalence). This is [`BlockMap::build_banded`] with one band.
    pub fn build(faults: &FaultSet) -> BlockMap {
        BlockMap::build_banded(faults, 1)
    }

    /// [`BlockMap::build`] with the fix-point split into `bands`
    /// horizontal row bands relaxed on scoped threads — intra-mesh
    /// parallelism for giant meshes, where one build dominates a trial.
    /// The result is bit-identical for every band count (the fix-point is
    /// unique; see `block_bits::disable_fixpoint` for the argument);
    /// `bands` is clamped to the mesh height, and 1 band runs the
    /// sequential sweep on this thread's scratch rows without spawning.
    pub fn build_banded(faults: &FaultSet, bands: usize) -> BlockMap {
        let mut packed = faults.packed().clone();
        with_scratch(|ws| {
            block_bits::disable_fixpoint(&mut packed, bands, &mut ws.row_open, &mut ws.row_cur);
        });
        BlockMap::decode(packed, faults)
    }

    /// Decodes a converged packed blocked labeling into the full map:
    /// per-node states, packed bits, and the extracted block rectangles.
    fn decode(packed: BitGrid, faults: &FaultSet) -> BlockMap {
        let mesh = faults.mesh();
        // Blocked bits are Disabled unless genuinely faulty.
        let mut state = Grid::new(mesh, NodeState::Enabled);
        let width = mesh.width() as usize;
        {
            let cells = state.as_mut_slice();
            for y in 0..mesh.height() {
                let base = y as usize * width;
                block_bits::for_each_set_bit(packed.row(y), |x| {
                    cells[base + x] = NodeState::Disabled;
                });
                block_bits::for_each_set_bit(faults.packed().row(y), |x| {
                    cells[base + x] = NodeState::Faulty;
                });
            }
        }

        let blocks: Vec<FaultyBlock> = block_bits::extract_rects(&packed, faults.packed())
            .into_iter()
            .map(|(rect, faulty_nodes, disabled_nodes)| FaultyBlock {
                rect,
                faulty_nodes,
                disabled_nodes,
            })
            .collect();
        let rects = blocks.iter().map(|b| b.rect).collect();
        let map = BlockMap {
            mesh,
            state,
            packed,
            blocks,
            rects,
        };
        debug_assert!(map.rect_invariant_holds());
        map
    }

    /// The original per-node worklist fix-point — the ground truth the
    /// word-parallel [`BlockMap::build`] is differentially tested
    /// against. Produces a structurally identical map (same states, same
    /// blocks in the same order).
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
        let packed = BitGrid::from_blocked(mesh, |c| state[c].is_blocked());
        let rects = blocks.iter().map(|b| b.rect).collect();
        let map = BlockMap {
            mesh,
            state,
            packed,
            blocks,
            rects,
        };
        debug_assert!(map.rect_invariant_holds());
        map
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
        self.state[c]
    }

    /// Whether `c` is part of a faulty block. Off-mesh positions are not.
    pub fn is_blocked(&self, c: Coord) -> bool {
        self.state.get(c).is_some_and(|s| s.is_blocked())
    }

    /// The disjoint rectangular blocks, in discovery (row-major) order.
    pub fn blocks(&self) -> &[FaultyBlock] {
        &self.blocks
    }

    /// The block rectangles only (the representation routing code
    /// consumes), cached in [`BlockMap::blocks`] order — no per-call
    /// allocation.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// The blocked (faulty ∪ disabled) nodes as a packed bit grid — the
    /// input the word-parallel safety and reachability passes start from.
    pub fn packed(&self) -> &BitGrid {
        &self.packed
    }

    /// The block containing `c`, if any.
    pub fn block_containing(&self, c: Coord) -> Option<&FaultyBlock> {
        self.blocks.iter().find(|b| b.rect().contains(c))
    }

    /// The total number of disabled (healthy but deactivated) nodes.
    pub fn disabled_count(&self) -> usize {
        self.blocks.iter().map(|b| b.disabled_nodes()).sum()
    }

    /// Incrementally records a newly failed node, updating the labeling
    /// and block list without rebuilding the whole decomposition — the
    /// paper's §1 information-model claim ("when a disturbance occurs,
    /// only those affected nodes update their information").
    ///
    /// The cost is proportional to the affected region: the relabeling
    /// worklist plus one BFS over the (possibly merged) block containing
    /// the new fault. Equivalence with a full rebuild is property-tested.
    ///
    /// Returns the rectangle of the (possibly merged) block containing
    /// `c` after the update — the disturbance footprint callers use to
    /// clip downstream recomputation. Every node whose state changed lies
    /// inside it.
    ///
    /// # Panics
    ///
    /// Panics if `c` lies outside the mesh.
    // emr-lint: allow(A1, "documented panic contract plus worklist invariants: a faulty node always belongs to a block, and only blocked nodes enter the component queue")
    pub fn insert_fault(&mut self, c: Coord) -> Rect {
        assert!(self.mesh.contains(c), "fault {c} outside mesh");
        if self.state[c] == NodeState::Faulty {
            return self
                .block_containing(c)
                .expect("faulty node belongs to a block")
                .rect();
        }
        self.state[c] = NodeState::Faulty;
        self.packed.set(c, true);

        // Re-run the Definition 1 worklist from the disturbance.
        let mut queue: VecDeque<Coord> = self.mesh.neighbors(c).collect();
        while let Some(u) = queue.pop_front() {
            if self.state[u] != NodeState::Enabled {
                continue;
            }
            let blocked = |v: Coord| self.state.get(v).is_some_and(|s| s.is_blocked());
            let x_blocked = blocked(u.step(Direction::East)) || blocked(u.step(Direction::West));
            let y_blocked = blocked(u.step(Direction::North)) || blocked(u.step(Direction::South));
            if x_blocked && y_blocked {
                self.state[u] = NodeState::Disabled;
                self.packed.set(u, true);
                queue.extend(self.mesh.neighbors(u));
            }
        }

        // The new/merged component containing the fault.
        let mut rect = Rect::point(c);
        let mut faulty_nodes = 0;
        let mut disabled_nodes = 0;
        let mut visited = std::collections::BTreeSet::from([c]);
        let mut queue = VecDeque::from([c]);
        while let Some(u) = queue.pop_front() {
            rect = rect.expanded_to(u);
            match self.state[u] {
                NodeState::Faulty => faulty_nodes += 1,
                NodeState::Disabled => disabled_nodes += 1,
                NodeState::Enabled => unreachable!("enabled node in component"),
            }
            for v in self.mesh.neighbors(u) {
                if self.state[v].is_blocked() && visited.insert(v) {
                    queue.push_back(v);
                }
            }
        }
        // Absorb the blocks the new component swallowed (by the rectangle
        // invariant, rect intersection ⟺ absorption).
        self.blocks.retain(|b| !b.rect().intersects(&rect));
        self.blocks.push(FaultyBlock {
            rect,
            faulty_nodes,
            disabled_nodes,
        });
        self.rects.clear();
        self.rects.extend(self.blocks.iter().map(|b| b.rect));
        debug_assert!(self.rect_invariant_holds());
        rect
    }

    /// Checks the paper's structural claim: each connected component of
    /// faulty∪disabled nodes fills its bounding rectangle, which also makes
    /// the blocks pairwise disjoint.
    pub fn rect_invariant_holds(&self) -> bool {
        self.blocks.iter().all(|b| {
            b.rect()
                .iter()
                .all(|c| self.mesh.contains(c) && self.state[c].is_blocked())
        }) && {
            let total_blocked = self.state.count(|s| s.is_blocked());
            let in_rects: usize = self.blocks.iter().map(|b| b.rect().node_count()).sum();
            total_blocked == in_rects
        } && self
            .mesh
            .nodes()
            .all(|c| self.packed.get(c) == Some(self.state[c].is_blocked()))
            && self
                .rects
                .iter()
                .copied()
                .eq(self.blocks.iter().map(|b| b.rect))
    }
}

impl MemBytes for BlockMap {
    /// The per-node state grid, the packed blocked bits, and the block
    /// list with its cached rectangles.
    fn mem_bytes(&self) -> u64 {
        self.state.mem_bytes()
            + self.packed.mem_bytes()
            + (self.blocks.len() * std::mem::size_of::<FaultyBlock>()) as u64
            + (self.rects.len() * std::mem::size_of::<Rect>()) as u64
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
            // …and the same block set (order-insensitive).
            let mut a = incremental.rects().to_vec();
            let mut b = rebuilt.rects().to_vec();
            a.sort_by_key(|r| (r.x_min(), r.y_min()));
            b.sort_by_key(|r| (r.x_min(), r.y_min()));
            assert_eq!(a, b, "after {c}");
            assert_eq!(
                incremental.disabled_count(),
                rebuilt.disabled_count(),
                "after {c}"
            );
            assert!(incremental.rect_invariant_holds());
        }
    }

    #[test]
    fn bit_build_matches_scalar_on_random_and_edge_densities() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Random fills at 0%, ~10%, ~50%, plus fully faulty rows — the
        // carry/fix-point edge cases — across word-boundary widths and
        // degenerate meshes.
        let shapes = [(16, 16), (65, 3), (63, 4), (1, 9), (9, 1), (128, 2)];
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            for &(w, h) in &shapes {
                let mesh = Mesh::new(w, h);
                let density = [0.0, 0.1, 0.5][seed as usize % 3];
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
    fn banded_build_matches_scalar_for_every_band_count() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Awkward widths (word boundaries, 4095/4097-style non-×64 tails
        // on thin meshes) and band counts from degenerate to
        // beyond-height.
        let shapes = [
            (16, 16),
            (65, 7),
            (127, 5),
            (130, 4),
            (4095, 2),
            (4097, 2),
            (1, 9),
        ];
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            for &(w, h) in &shapes {
                let mesh = Mesh::new(w, h);
                let mut faults = FaultSet::new(mesh);
                for c in mesh.nodes() {
                    if rng.gen_bool(0.12) {
                        faults.insert(c);
                    }
                }
                let scalar = BlockMap::build_scalar(&faults);
                for bands in [1, 2, 3, 5, 64] {
                    let banded = BlockMap::build_banded(&faults, bands);
                    assert_eq!(banded, scalar, "seed {seed} {w}x{h} bands {bands}");
                }
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
            let before = map.state.clone();
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
