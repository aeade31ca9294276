use std::collections::VecDeque;
use std::sync::OnceLock;

use serde::{Deserialize, Deserializer, Error, Serialize, Serializer};

use emr_mesh::{BitGrid, Coord, Direction, Grid, MemBytes, Mesh, Rect};

use crate::component::{component_rect_through, component_rects, scalar_component_rects};
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

/// The faulty-block decomposition of a mesh: the packed blocked and
/// faulty planes, off which a node's [`NodeState`] is read. A faulty
/// block is a maximal connected component of faulty and disabled nodes;
/// under Definition 1 every component fills its bounding rectangle, and
/// [`BlockMap::rects`] lists those rectangles. They are read off the
/// blocked plane on first call, cached, and dropped by the next
/// [`BlockMap::insert_fault`]; the cache is a `OnceLock`, so a map shared
/// across threads builds them once. The rectangle invariant is asserted
/// in debug builds wherever the rectangles are built, and the test suite
/// property-checks it.
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
/// assert_eq!(map.rects().len(), 1);
/// assert_eq!(map.rects()[0].node_count(), 4);
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
    /// The block rectangles, built on first read so hot loops can borrow
    /// them without a per-call allocation.
    rects: OnceLock<Vec<Rect>>,
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
    /// plus `O(faults + blocked nodes)`, whatever the mesh size; the block
    /// rectangles are read off the planes on first use.
    /// [`BlockMap::build_scalar`] is the reference (`conform` oracle
    /// `block-bits-matches-scalar` pins the equivalence).
    pub fn build(faults: &FaultSet) -> BlockMap {
        let mesh = faults.mesh();
        let mut packed = faults.packed().clone();
        with_scratch(|ws| {
            ws.queue.clear();
            ws.queue
                .extend(faults.paired().flat_map(|f| mesh.neighbors(f)));
            disable_fixpoint(&mut packed, &mut ws.queue);
        });
        BlockMap {
            mesh,
            packed,
            faulty: faults.packed().clone(),
            rects: OnceLock::new(),
        }
    }

    /// The original per-node worklist fix-point over a dense state grid,
    /// with an eager dense-grid BFS extraction of the rectangles — the
    /// ground truth the fault-seeded [`BlockMap::build`] is differentially
    /// tested against. Produces an equal map (same planes, same rectangles
    /// in the same order).
    pub fn build_scalar(faults: &FaultSet) -> BlockMap {
        let mesh = faults.mesh();
        let mut state = Grid::from_fn(mesh, |c| {
            if faults.is_faulty(c) {
                NodeState::Faulty
            } else {
                NodeState::Enabled
            }
        });

        let rects = with_scratch(|ws| {
            // Worklist fix-point: whenever a node turns faulty/disabled
            // its enabled neighbors become candidates.
            let Workspace { queue, visited, .. } = ws;
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
            scalar_component_rects(mesh, |c| state[c].is_blocked(), queue, visited)
        });
        let map = BlockMap {
            mesh,
            packed: BitGrid::from_blocked(mesh, |c| state[c].is_blocked()),
            faulty: BitGrid::from_blocked(mesh, |c| state[c] == NodeState::Faulty),
            rects: OnceLock::from(rects),
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

    /// The disjoint block rectangles (the representation routing code
    /// consumes) in (y_min, x_min) order, built on first call: the bounding
    /// boxes of the blocked plane's components, in the row-major order of
    /// each component's first node.
    pub fn rects(&self) -> &[Rect] {
        self.rects.get_or_init(|| {
            let rects = component_rects(&self.packed);
            debug_assert!(self.rects_match_planes(&rects));
            rects
        })
    }

    /// The blocked (faulty ∪ disabled) nodes as a packed bit grid — the
    /// input the word-parallel safety and reachability passes start from.
    pub fn packed(&self) -> &BitGrid {
        &self.packed
    }

    /// The total number of disabled (healthy but deactivated) nodes: the
    /// blocked plane's popcount less the faulty plane's. It builds no
    /// rectangles.
    pub fn disabled_count(&self) -> usize {
        self.packed
            .count_ones()
            .saturating_sub(self.faulty.count_ones())
    }

    /// Incrementally records a newly failed node, updating the labeling
    /// without rebuilding the whole decomposition — the paper's §1
    /// information-model claim ("when a disturbance occurs, only those
    /// affected nodes update their information").
    ///
    /// The cost is proportional to the affected region: the fix-point
    /// worklist [`BlockMap::build`] runs, seeded at the new fault's
    /// neighbours, plus one BFS over the (possibly merged) block containing
    /// it. Rectangles already built are dropped; the next read rebuilds
    /// them in the order a fresh build gives. Equivalence with a full
    /// rebuild is property-tested.
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
        if self.state(c) != NodeState::Faulty {
            self.faulty.set(c, true);
            self.packed.set(c, true);
            let mesh = self.mesh;
            with_scratch(|ws| {
                ws.queue.clear();
                ws.queue.extend(mesh.neighbors(c));
                disable_fixpoint(&mut self.packed, &mut ws.queue);
            });
            self.rects.take();
        }
        component_rect_through(&self.packed, c)
    }

    /// Checks the paper's structural claim: each connected component of
    /// faulty∪disabled nodes fills its bounding rectangle, which also makes
    /// the blocks pairwise disjoint. It holds when every rectangle is
    /// blocked throughout and their areas sum to the blocked popcount.
    /// Also checks that the faulty plane lies inside the blocked one.
    /// Builds the rectangles if they are not built yet.
    pub fn rect_invariant_holds(&self) -> bool {
        self.rects_match_planes(self.rects())
    }

    /// [`BlockMap::rect_invariant_holds`] for rectangles about to be
    /// cached.
    fn rects_match_planes(&self, rects: &[Rect]) -> bool {
        rects.iter().all(|r| r.iter().all(|c| self.is_blocked(c)))
            && rects.iter().map(Rect::node_count).sum::<usize>() == self.packed.count_ones()
            && (0..self.mesh.height()).all(|y| {
                let blocked = self.packed.row(y);
                self.faulty
                    .row(y)
                    .iter()
                    .zip(blocked)
                    .all(|(f, b)| f & !b == 0)
            })
    }
}

/// Two maps are equal when their planes and rectangles are; a map whose
/// rectangles are not built yet builds them to compare.
impl PartialEq for BlockMap {
    fn eq(&self, other: &BlockMap) -> bool {
        self.packed == other.packed && self.faulty == other.faulty && self.rects() == other.rects()
    }
}

impl Eq for BlockMap {}

/// Writes the planes under the field names `mesh`, `packed` and
/// `faulty`.
impl Serialize for BlockMap {
    fn serialize(&self, out: &mut Serializer) {
        let mut map = out.map();
        map.field("mesh", &self.mesh);
        map.field("packed", &self.packed);
        map.field("faulty", &self.faulty);
        map.end();
    }
}

/// The serialized form of a [`BlockMap`]; the rectangles are rebuilt on
/// first read.
#[derive(Deserialize)]
struct BlockMapWire {
    mesh: Mesh,
    packed: BitGrid,
    faulty: BitGrid,
}

impl Deserialize for BlockMap {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<BlockMap, Error> {
        let BlockMapWire {
            mesh,
            packed,
            faulty,
        } = BlockMapWire::deserialize(de)?;
        Ok(BlockMap {
            mesh,
            packed,
            faulty,
            rects: OnceLock::new(),
        })
    }
}

impl MemBytes for BlockMap {
    /// The packed blocked and faulty planes, plus the rectangles once
    /// built.
    fn mem_bytes(&self) -> u64 {
        let rects = self.rects.get().map_or(0, Vec::len) * std::mem::size_of::<Rect>();
        self.packed.mem_bytes() + self.faulty.mem_bytes() + rects as u64
    }
}

/// Runs Definition 1's worklist to its fix-point on the blocked plane
/// `packed`. A candidate off `queue` that is still enabled turns disabled
/// when it has a blocked neighbour along X and one along Y, and its
/// neighbours then become candidates. Blocking is monotone, so the
/// worklist reaches the least fix-point above `packed` as long as the
/// initial candidates include every node the blocked plane alone
/// disables.
fn disable_fixpoint(packed: &mut BitGrid, queue: &mut VecDeque<Coord>) {
    let mesh = packed.mesh();
    while let Some(u) = queue.pop_front() {
        if packed.get(u) != Some(false) {
            continue;
        }
        let blocked = |c: Coord| packed.get(c) == Some(true);
        let x_blocked = blocked(u.step(Direction::East)) || blocked(u.step(Direction::West));
        let y_blocked = blocked(u.step(Direction::North)) || blocked(u.step(Direction::South));
        if x_blocked && y_blocked {
            packed.set(u, true);
            queue.extend(mesh.neighbors(u));
        }
    }
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
        assert_eq!(map.rects(), [Rect::new(2, 6, 3, 6)]);
        assert_eq!(map.disabled_count(), 20 - 8);
        assert!(map.rect_invariant_holds());
    }

    #[test]
    fn isolated_fault_is_a_unit_block() {
        let map = build(Mesh::square(5), &[(2, 2)]);
        assert_eq!(map.rects(), [Rect::new(2, 2, 2, 2)]);
        assert_eq!(map.disabled_count(), 0);
        assert_eq!(map.state(Coord::new(2, 3)), NodeState::Enabled);
    }

    #[test]
    fn diagonal_faults_close_into_square() {
        let map = build(Mesh::square(5), &[(1, 1), (2, 2)]);
        assert_eq!(map.rects(), [Rect::new(1, 2, 1, 2)]);
        assert_eq!(map.disabled_count(), 2);
        assert_eq!(map.state(Coord::new(1, 2)), NodeState::Disabled);
        assert_eq!(map.state(Coord::new(2, 1)), NodeState::Disabled);
    }

    #[test]
    fn same_dimension_neighbors_do_not_disable() {
        // Two faults flanking a node in the same dimension leave it enabled.
        let map = build(Mesh::square(5), &[(1, 2), (3, 2)]);
        assert_eq!(map.state(Coord::new(2, 2)), NodeState::Enabled);
        assert_eq!(map.rects(), [Rect::new(1, 1, 2, 2), Rect::new(3, 3, 2, 2)]);
    }

    #[test]
    fn u_shape_cavity_fills() {
        // A U of faults; the cavity nodes must be disabled transitively.
        let map = build(
            Mesh::square(6),
            &[(1, 1), (1, 2), (1, 3), (2, 3), (3, 3), (3, 2), (3, 1)],
        );
        assert_eq!(map.rects(), [Rect::new(1, 3, 1, 3)]);
        assert_eq!(map.disabled_count(), 2);
        assert_eq!(map.state(Coord::new(2, 1)), NodeState::Disabled);
        assert_eq!(map.state(Coord::new(2, 2)), NodeState::Disabled);
    }

    #[test]
    fn corner_of_mesh_uses_existing_neighbors_only() {
        // Faults at (1,0) and (0,1) disable the mesh corner (0,0).
        let map = build(Mesh::square(4), &[(1, 0), (0, 1)]);
        assert_eq!(map.state(Coord::new(0, 0)), NodeState::Disabled);
        assert_eq!(map.rects(), [Rect::new(0, 1, 0, 1)]);
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
        assert_eq!(map.disabled_count(), 16 - 4);
    }

    #[test]
    fn no_faults_no_blocks() {
        let map = BlockMap::build(&FaultSet::new(Mesh::square(4)));
        assert!(map.rects().is_empty());
        assert_eq!(map.disabled_count(), 0);
        assert!(map.rect_invariant_holds());
    }

    #[test]
    fn rects_locate_blocked_nodes() {
        let map = build(Mesh::square(5), &[(1, 1), (2, 2)]);
        let in_a_block = |c: Coord| map.rects().iter().any(|r| r.contains(c));
        assert!(in_a_block(Coord::new(2, 1)));
        assert!(!in_a_block(Coord::new(4, 4)));
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
            // …and the same rectangles in the same order.
            assert_eq!(incremental.rects(), rebuilt.rects(), "after {c}");
            assert_eq!(
                incremental.disabled_count(),
                rebuilt.disabled_count(),
                "after {c}"
            );
            assert!(incremental.rect_invariant_holds());
        }
    }

    #[test]
    fn rects_are_built_on_first_read() {
        let faults = FaultSet::from_coords(
            Mesh::square(12),
            [(1, 1), (2, 2), (8, 3), (5, 9), (6, 9)].map(Coord::from),
        );
        let map = BlockMap::build(&faults);
        let planes = map.mem_bytes();
        assert_eq!(map.disabled_count(), 2);
        assert_eq!(map.mem_bytes(), planes, "the count builds no rectangles");
        let scalar = BlockMap::build_scalar(&faults);
        assert_eq!(map.rects(), scalar.rects());
        assert!(
            map.mem_bytes() > planes,
            "the first read builds the rectangles"
        );
        assert_eq!(map, scalar);
    }

    #[test]
    fn disabled_count_tracks_inserts_without_building_rects() {
        let mesh = Mesh::square(12);
        let mut map = BlockMap::build(&FaultSet::new(mesh));
        let planes = map.mem_bytes();
        // Grows, fails a disabled node, and merges two blocks.
        let sequence = [(3, 3), (4, 4), (4, 3), (8, 8), (7, 7), (6, 6), (0, 0)];
        for (k, &(x, y)) in sequence.iter().enumerate() {
            map.rects();
            map.insert_fault(Coord::new(x, y));
            assert_eq!(map.mem_bytes(), planes, "an insert drops the rectangles");
            let count = map.disabled_count();
            assert_eq!(map.mem_bytes(), planes, "the count builds no rectangles");
            let disabled = mesh
                .nodes()
                .filter(|&n| map.state(n) == NodeState::Disabled)
                .count();
            assert_eq!(count, disabled, "after ({x}, {y})");
            // The blocks fill their rectangles: faults plus disabled nodes.
            let area: usize = map.rects().iter().map(Rect::node_count).sum();
            assert_eq!(area, k + 1 + count, "after ({x}, {y})");
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
        assert_eq!(map.rects(), [Rect::point(Coord::new(2, 2))]);
        assert_eq!(map.disabled_count(), 0);
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
            assert_eq!(incremental.rects(), rebuilt.rects(), "seed {seed}");
        }
    }
}
