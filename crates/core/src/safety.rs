use std::fmt;
use std::mem::size_of;

use serde::{Deserialize, Serialize};

use emr_distsim::protocols::EslTuple;
use emr_mesh::{
    for_each_set_bit, BitGrid, Coord, Direction, Dist, Frame, MemBytes, Mesh, Rect, UNBOUNDED,
};

/// The **extended safety level** of a node: the 4-tuple `(E, S, W, N)` of
/// hop distances to the closest faulty block (or MCC) in each direction
/// along the node's own row/column, `∞` when that direction is clear to the
/// mesh edge (paper §2).
///
/// # Examples
///
/// ```
/// use emr_core::SafetyLevel;
/// use emr_mesh::{Coord, Direction, Frame, UNBOUNDED};
///
/// let esl = SafetyLevel::new(5, UNBOUNDED, UNBOUNDED, 3);
/// assert_eq!(esl.toward(Direction::East), 5);
/// // Definition 3: safe for destinations strictly inside the clear
/// // sections of both axes.
/// let frame = Frame::at(Coord::ORIGIN);
/// assert!(esl.safe_for(&frame, Coord::new(4, 2)));
/// assert!(!esl.safe_for(&frame, Coord::new(5, 2))); // xd == E
/// assert!(!esl.safe_for(&frame, Coord::new(4, 3))); // yd == N
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SafetyLevel {
    // Indexed by `Direction::index()`: [E, N, W, S].
    dists: [Dist; 4],
}

impl SafetyLevel {
    /// The default level `(∞, ∞, ∞, ∞)` of a node with no block in sight.
    pub const UNBOUNDED: SafetyLevel = SafetyLevel {
        dists: [UNBOUNDED; 4],
    };

    /// Creates a level from its components in the paper's `(E, S, W, N)`
    /// order.
    pub fn new(e: Dist, s: Dist, w: Dist, n: Dist) -> Self {
        let mut dists = [UNBOUNDED; 4];
        dists[Direction::East.index()] = e;
        dists[Direction::South.index()] = s;
        dists[Direction::West.index()] = w;
        dists[Direction::North.index()] = n;
        SafetyLevel { dists }
    }

    /// Creates a level from a direction-indexed tuple (the wire format of
    /// the distributed formation protocol).
    pub fn from_tuple(dists: EslTuple) -> Self {
        SafetyLevel { dists }
    }

    /// The distance to the nearest block in `dir`.
    // emr-lint: allow(A1, "the four per-direction distances are indexed by Direction::index(), always 0..4")
    pub fn toward(&self, dir: Direction) -> Dist {
        self.dists[dir.index()]
    }

    /// Definition 3 generalized to any quadrant: with `rel_d` the
    /// destination's coordinates in `frame` (so `rel_d.x, rel_d.y ≥ 0`),
    /// this node is *safe with respect to the destination* when
    /// `rel_d.x < E'` and `rel_d.y < N'`, where `E'`/`N'` are this level's
    /// entries toward the frame's relative East/North.
    ///
    /// # Panics
    ///
    /// Panics if `rel_d` has a negative component (the caller must
    /// normalize first).
    pub fn safe_for(&self, frame: &Frame, rel_d: Coord) -> bool {
        assert!(
            rel_d.x >= 0 && rel_d.y >= 0,
            "destination {rel_d} not normalized to quadrant I"
        );
        let e = self.toward(frame.dir_to_abs(Direction::East));
        let n = self.toward(frame.dir_to_abs(Direction::North));
        (rel_d.x as Dist) < e && (rel_d.y as Dist) < n
    }
}

impl Default for SafetyLevel {
    fn default() -> Self {
        SafetyLevel::UNBOUNDED
    }
}

impl fmt::Display for SafetyLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = |d: Dist| -> String {
            if d == UNBOUNDED {
                "∞".to_owned()
            } else {
                d.to_string()
            }
        };
        write!(
            f,
            "(E:{}, S:{}, W:{}, N:{})",
            p(self.toward(Direction::East)),
            p(self.toward(Direction::South)),
            p(self.toward(Direction::West)),
            p(self.toward(Direction::North)),
        )
    }
}

/// The extended safety levels of every node of a mesh for one obstacle map.
///
/// A safety level is a pure function of the obstacle pattern of the
/// node's own row and column, so the map stores exactly that: the
/// ascending obstacle positions of every row and every column, built in
/// `O(words + obstacles)` from a packed obstacle grid. Each axis is one
/// offset array over one contiguous position array, so a build makes a
/// handful of allocations whatever the mesh size, and with `f` obstacles
/// the map holds `2f` `u32` positions plus `width + height + 2` offsets.
/// [`SafetyMap::level`] derives a node's four distances with one binary
/// search per axis. The levels equal the paper's distributed FORMATION
/// protocol run to quiescence and its centralized sweep,
/// `emr_distsim::protocols::esl::compute_global` — the ground truth of the
/// `safety-bits-matches-scalar` conform oracle and the differential tests
/// below.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SafetyMap {
    mesh: Mesh,
    /// Row `y`: the columns of its obstacles.
    rows: Lanes,
    /// Column `x`: the rows of its obstacles.
    cols: Lanes,
}

/// One axis of a [`SafetyMap`]: lane `i` is `pos[start[i]..start[i + 1]]`,
/// ascending.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Lanes {
    start: Vec<usize>,
    pos: Vec<u32>,
}

impl Lanes {
    // emr-lint: allow(A1, "callers check the lane against the mesh; start has one entry per lane plus one")
    fn lane(&self, i: usize) -> &[u32] {
        &self.pos[self.start[i]..self.start[i + 1]]
    }

    /// Rewrites lanes `first, first + 1, …` from `lanes`, one packed bit
    /// lane each (bit `p` set ⟺ position `p` is an obstacle): the slot
    /// range of the rewritten lanes is resized to their new obstacle
    /// count, moving the positions and offsets of every later lane, and
    /// refilled in place.
    // emr-lint: allow(A1, "the rewritten lanes lie inside the mesh, so every offset index is in range and each slot was counted")
    fn refill<'a>(&mut self, first: usize, lanes: impl Iterator<Item = &'a [u64]> + Clone) {
        let count: usize = lanes
            .clone()
            .flatten()
            .map(|w| w.count_ones() as usize)
            .sum();
        let end = first + lanes.clone().count();
        let (lo, hi) = (self.start[first], self.start[end]);
        let new_hi = lo + count;
        // Grow the slot range by inserting zeros at its end, or shrink it
        // by removing its tail.
        self.pos.splice(
            new_hi.min(hi)..hi,
            std::iter::repeat_n(0, new_hi.saturating_sub(hi)),
        );
        for s in &mut self.start[end..] {
            *s = *s - hi + new_hi;
        }
        let mut at = lo;
        for (i, bits) in lanes.enumerate() {
            self.start[first + i] = at;
            for_each_set_bit(bits, |p| {
                self.pos[at] = lane_pos(p);
                at += 1;
            });
        }
    }

    fn mem_bytes(&self) -> u64 {
        (self.start.len() * size_of::<usize>() + self.pos.len() * size_of::<u32>()) as u64
    }
}

impl SafetyMap {
    /// Computes the safety levels from a packed obstacle grid: one
    /// row-major pass fills the row lanes and counts the obstacles per
    /// column, and one pass over the row lanes (ascending rows) fills each
    /// column lane in order.
    // emr-lint: allow(A1, "column offsets have one entry per column plus one, and every scanned bit is an in-mesh column")
    pub fn compute_packed(blocked: &BitGrid) -> SafetyMap {
        let mesh = blocked.mesh();
        let width = usize::try_from(mesh.width()).unwrap_or(0);
        let mut rows = Lanes {
            start: Vec::with_capacity(usize::try_from(mesh.height()).unwrap_or(0) + 1),
            pos: Vec::with_capacity(blocked.count_ones()),
        };
        let mut col_start = vec![0usize; width + 1];
        rows.start.push(0);
        for y in 0..mesh.height() {
            for_each_set_bit(blocked.row(y), |x| {
                rows.pos.push(lane_pos(x));
                col_start[x + 1] += 1;
            });
            rows.start.push(rows.pos.len());
        }
        // Prefix sums make `col_start[x]` the first slot of column x. The
        // fill uses it as that column's cursor, which leaves it at the
        // first slot of column x + 1; shifting by one restores it.
        for x in 0..width {
            col_start[x + 1] += col_start[x];
        }
        let mut col_pos = vec![0u32; rows.pos.len()];
        for y in 0..mesh.height() {
            for &x in rows.lane(y as usize) {
                let slot = &mut col_start[x as usize];
                col_pos[*slot] = lane_pos(y as usize);
                *slot += 1;
            }
        }
        col_start.copy_within(0..width, 1);
        col_start[0] = 0;
        SafetyMap {
            mesh,
            rows,
            cols: Lanes {
                start: col_start,
                pos: col_pos,
            },
        }
    }

    /// The mesh covered.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// The safety level of node `c`: the nearest obstacle on either side
    /// along its row and its column. Obstacle nodes answer all-`∞`, as
    /// the FORMATION protocol leaves them.
    ///
    /// # Panics
    ///
    /// Panics if `c` is outside the mesh.
    // emr-lint: allow(A1, "documented panic contract: lane positions are sorted mesh offsets, and ri/ci are partition points into them")
    pub fn level(&self, c: Coord) -> SafetyLevel {
        assert!(self.mesh.contains(c), "{c} outside {:?}", self.mesh);
        let row = self.rows.lane(c.y as usize);
        let x = u32::try_from(c.x).unwrap_or(u32::MAX);
        let ri = row.partition_point(|&p| p < x);
        if row.get(ri) == Some(&x) {
            return SafetyLevel::UNBOUNDED;
        }
        let mut dists = [UNBOUNDED; 4];
        if let Some(&p) = row.get(ri) {
            dists[Direction::East.index()] = p - x;
        }
        if ri > 0 {
            dists[Direction::West.index()] = x - row[ri - 1];
        }
        let col = self.cols.lane(c.x as usize);
        let y = u32::try_from(c.y).unwrap_or(u32::MAX);
        let ci = col.partition_point(|&p| p < y);
        if let Some(&p) = col.get(ci) {
            dists[Direction::North.index()] = p - y;
        }
        if ci > 0 {
            dists[Direction::South.index()] = y - col[ci - 1];
        }
        SafetyLevel { dists }
    }

    /// Incrementally repairs the map after obstacles changed inside
    /// `changed`, re-extracting only the lanes that cross it.
    ///
    /// A node's East/West entries depend solely on its own row's obstacle
    /// pattern and its North/South entries on its own column's, so after a
    /// membership change confined to `changed` it suffices to re-extract
    /// the row lanes of the changed rows and the column lanes of the
    /// changed columns from `packed` and rewrite them in place; lanes
    /// outside the rectangle keep their positions and only their offsets
    /// move. The result is identical to a from-scratch
    /// [`SafetyMap::compute_packed`] (property-tested and oracle-checked in
    /// `emr-conform`).
    ///
    /// `packed` must be the *post-change* obstacle grid for the whole
    /// mesh; `changed` must contain every flipped node (extra area is
    /// harmless, just slower, and may overhang the mesh edge).
    ///
    /// # Panics
    ///
    /// Panics if `packed` covers a different mesh than this map.
    pub fn resweep_rect_packed(&mut self, packed: &BitGrid, changed: Rect) {
        let mesh = self.mesh;
        assert_eq!(mesh, packed.mesh(), "packed grid covers another mesh");
        let x_min = changed.x_min().max(0);
        let x_max = changed.x_max().min(mesh.width() - 1);
        let y_min = changed.y_min().max(0);
        let y_max = changed.y_max().min(mesh.height() - 1);
        if x_min > x_max || y_min > y_max {
            return; // the rectangle misses the mesh
        }
        self.rows
            .refill(y_min as usize, (y_min..=y_max).map(|y| packed.row(y)));
        let words = (mesh.height() as usize).div_ceil(64);
        let mut cols = vec![0u64; (x_max - x_min + 1) as usize * words];
        for (x, col) in (x_min..).zip(cols.chunks_mut(words)) {
            packed.column(x, col);
        }
        self.cols.refill(x_min as usize, cols.chunks(words));
    }
}

impl MemBytes for SafetyMap {
    /// Two `u32` positions per obstacle plus one offset per lane and axis.
    fn mem_bytes(&self) -> u64 {
        self.rows.mem_bytes() + self.cols.mem_bytes()
    }
}

/// A lane position as stored: mesh coordinates are `i32`, so every
/// in-mesh offset fits a `u32`.
fn lane_pos(i: usize) -> u32 {
    u32::try_from(i).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emr_distsim::protocols::esl;
    use emr_fault::{BlockMap, FaultSet, MccMap};

    #[test]
    fn paper_order_constructor_matches_directions() {
        let esl = SafetyLevel::new(1, 2, 3, 4);
        assert_eq!(esl.toward(Direction::East), 1);
        assert_eq!(esl.toward(Direction::South), 2);
        assert_eq!(esl.toward(Direction::West), 3);
        assert_eq!(esl.toward(Direction::North), 4);
        assert_eq!(esl.to_string(), "(E:1, S:2, W:3, N:4)");
    }

    #[test]
    fn unbounded_display_and_default() {
        assert_eq!(SafetyLevel::default(), SafetyLevel::UNBOUNDED);
        assert_eq!(SafetyLevel::UNBOUNDED.to_string(), "(E:∞, S:∞, W:∞, N:∞)");
    }

    #[test]
    fn safe_for_in_mirrored_frames() {
        // A node with a block 3 hops to its West and 4 to its South is
        // safe for quadrant-III destinations within those bounds.
        let esl = SafetyLevel::new(UNBOUNDED, 4, 3, UNBOUNDED);
        let s = Coord::new(10, 10);
        let frame = Frame::normalizing(s, Coord::new(5, 5));
        assert!(esl.safe_for(&frame, Coord::new(2, 3)));
        assert!(!esl.safe_for(&frame, Coord::new(3, 3))); // W limit
        assert!(!esl.safe_for(&frame, Coord::new(2, 4))); // S limit
    }

    #[test]
    #[should_panic(expected = "not normalized")]
    fn safe_for_rejects_unnormalized_destination() {
        let frame = Frame::at(Coord::ORIGIN);
        let _ = SafetyLevel::UNBOUNDED.safe_for(&frame, Coord::new(-1, 0));
    }

    #[test]
    fn map_distances_around_a_block() {
        let mesh = Mesh::square(8);
        let faults = FaultSet::from_coords(mesh, [Coord::new(4, 4), Coord::new(5, 5)]);
        let blocks = BlockMap::build(&faults);
        // The two diagonal faults close into the block [4:5, 4:5].
        let map = SafetyMap::compute_packed(blocks.packed());
        let at = |x, y| map.level(Coord::new(x, y));
        assert_eq!(at(0, 4).toward(Direction::East), 4);
        assert_eq!(at(3, 4).toward(Direction::East), 1);
        assert_eq!(at(4, 0).toward(Direction::North), 4);
        assert_eq!(at(4, 7).toward(Direction::South), 2);
        assert_eq!(at(0, 0), SafetyLevel::UNBOUNDED);
        // East of the block, W is small and E unbounded.
        assert_eq!(at(7, 5).toward(Direction::West), 2);
        assert_eq!(at(7, 5).toward(Direction::East), UNBOUNDED);
    }

    /// Shapes of the differential tests: the paper's 200×200 mesh, widths
    /// around the 64-bit word boundary, and 1-wide meshes.
    const SHAPES: [(i32, i32); 7] = [
        (200, 200),
        (63, 9),
        (64, 9),
        (65, 9),
        (130, 5),
        (1, 40),
        (40, 1),
    ];

    /// A fault set with each node faulty with probability `density`.
    fn random_faults(mesh: Mesh, density: f64, seed: u64) -> FaultSet {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut faults = FaultSet::new(mesh);
        for c in mesh.nodes() {
            if rng.gen_bool(density) {
                faults.insert(c);
            }
        }
        faults
    }

    /// Asserts that `map` equals the scalar ESL sweep over `blocked` at
    /// every node, obstacle nodes (all-∞) included.
    fn assert_matches_esl(map: &SafetyMap, blocked: &BitGrid, ctx: &str) {
        let mesh = blocked.mesh();
        assert_eq!(map.mesh(), mesh, "{ctx}");
        let grid = emr_mesh::Grid::from_fn(mesh, |c| blocked.get(c) == Some(true));
        let truth = esl::compute_global(&grid);
        for c in mesh.nodes() {
            assert_eq!(
                map.level(c),
                SafetyLevel::from_tuple(truth[c]),
                "{ctx} at {c}"
            );
        }
    }

    #[test]
    fn levels_match_esl_sweep_on_block_and_mcc_maps() {
        for (w, h) in SHAPES {
            let mesh = Mesh::new(w, h);
            for (seed, density) in [0.005, 0.05, 0.3].into_iter().enumerate() {
                let faults = random_faults(mesh, density, 0x5AFE + seed as u64);
                let blocks = BlockMap::build(&faults);
                let ctx = format!("{w}x{h} density {density}");
                assert_matches_esl(
                    &SafetyMap::compute_packed(blocks.packed()),
                    blocks.packed(),
                    &ctx,
                );
                for ty in emr_fault::MccType::ALL {
                    let mcc = MccMap::build(&faults, ty);
                    let map = SafetyMap::compute_packed(mcc.packed());
                    assert_matches_esl(&map, mcc.packed(), &format!("{ctx} {ty:?}"));
                }
            }
        }
    }

    #[test]
    fn edge_density_grids_match_esl_sweep() {
        // Empty, full, and fully blocked middle rows and columns.
        for (w, h) in SHAPES {
            let mesh = Mesh::new(w, h);
            for blocked in [
                BitGrid::new(mesh),
                BitGrid::from_blocked(mesh, |_| true),
                BitGrid::from_blocked(mesh, |c| c.y == h / 2 || c.x == w / 2),
            ] {
                let map = SafetyMap::compute_packed(&blocked);
                assert_matches_esl(&map, &blocked, &format!("{w}x{h}"));
            }
        }
    }

    #[test]
    fn resweep_sequences_match_esl_sweep_and_fresh_builds() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for (w, h) in SHAPES {
            let mesh = Mesh::new(w, h);
            for (seed, density) in [0.005, 0.05].into_iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(0x4E5 + seed as u64);
                let steps = ((f64::from(w * h) * density).ceil() as usize).max(4);
                let mut blocks = BlockMap::build(&FaultSet::new(mesh));
                let mut mccs =
                    emr_fault::MccType::ALL.map(|ty| MccMap::build(&FaultSet::new(mesh), ty));
                let mut block_map = SafetyMap::compute_packed(blocks.packed());
                let mut mcc_maps = mccs
                    .each_ref()
                    .map(|m| SafetyMap::compute_packed(m.packed()));
                for step in 0..steps {
                    let c = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
                    let rect = blocks.insert_fault(c);
                    block_map.resweep_rect_packed(blocks.packed(), rect);
                    for (mcc, map) in mccs.iter_mut().zip(&mut mcc_maps) {
                        if let Some(rect) = mcc.insert_fault(c) {
                            map.resweep_rect_packed(mcc.packed(), rect);
                        }
                    }
                    assert_eq!(
                        block_map,
                        SafetyMap::compute_packed(blocks.packed()),
                        "{w}x{h} after {c}"
                    );
                    for (mcc, map) in mccs.iter().zip(&mcc_maps) {
                        assert_eq!(
                            *map,
                            SafetyMap::compute_packed(mcc.packed()),
                            "{w}x{h} after {c}"
                        );
                    }
                    // The scalar sweep is slow on 200×200: check it at
                    // the end and at a few points along the way.
                    if step + 1 == steps || step % 64 == 7 {
                        let ctx = format!("{w}x{h} step {step}");
                        assert_matches_esl(&block_map, blocks.packed(), &ctx);
                        for (mcc, map) in mccs.iter().zip(&mcc_maps) {
                            assert_matches_esl(map, mcc.packed(), &ctx);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn resweep_accepts_rects_overhanging_the_mesh() {
        let mesh = Mesh::new(70, 3);
        let mut blocks = BlockMap::build(&FaultSet::new(mesh));
        let mut map = SafetyMap::compute_packed(blocks.packed());
        blocks.insert_fault(Coord::new(69, 0));
        map.resweep_rect_packed(blocks.packed(), Rect::new(60, 80, -5, 1));
        assert_eq!(map, SafetyMap::compute_packed(blocks.packed()));
        map.resweep_rect_packed(blocks.packed(), Rect::new(75, 80, 0, 1));
        assert_eq!(
            map,
            SafetyMap::compute_packed(blocks.packed()),
            "rect off the mesh"
        );
    }

    #[test]
    fn resweep_tracks_obstacles_cleared_and_set() {
        // Flip patches of bits (growing and shrinking lanes, across word
        // boundaries and at the mesh edges) and resweep only each patch.
        let mesh = Mesh::new(130, 40);
        let mut packed = BitGrid::from_blocked(mesh, |c| (c.x * 31 + c.y * 17) % 9 < 2);
        let mut map = SafetyMap::compute_packed(&packed);
        for rect in [
            Rect::new(62, 66, 10, 12),
            Rect::new(0, 0, 0, 39),
            Rect::new(0, 129, 39, 39),
            Rect::new(127, 129, 0, 2),
            Rect::new(5, 70, 20, 20),
        ] {
            for c in rect.iter() {
                let cur = packed.get(c) == Some(true);
                packed.set(c, !cur);
            }
            map.resweep_rect_packed(&packed, rect);
            assert_eq!(map, SafetyMap::compute_packed(&packed), "{rect:?}");
            assert_matches_esl(&map, &packed, &format!("{rect:?}"));
        }
    }

    #[test]
    fn mem_bytes_scale_with_obstacles_not_nodes() {
        let mesh = Mesh::new(64, 64);
        let packed = BitGrid::from_blocked(mesh, |c| c.x == 10 && c.y == 20);
        let map = SafetyMap::compute_packed(&packed);
        // One obstacle: two u32 positions plus the lane offsets.
        let offsets = (64 + 1) * 2 * std::mem::size_of::<usize>() as u64;
        assert_eq!(map.mem_bytes(), offsets + 8);
    }

    #[test]
    fn mcc_map_is_no_more_restrictive_than_block_map() {
        let mesh = Mesh::square(10);
        let faults = FaultSet::from_coords(
            mesh,
            [
                Coord::new(3, 3),
                Coord::new(4, 4),
                Coord::new(5, 3),
                Coord::new(8, 8),
            ],
        );
        let blocks = BlockMap::build(&faults);
        let mcc = MccMap::build(&faults, emr_fault::MccType::One);
        let bm = SafetyMap::compute_packed(blocks.packed());
        let mm = SafetyMap::compute_packed(mcc.packed());
        for c in mesh.nodes() {
            if blocks.is_blocked(c) || mcc.is_blocked(c) {
                continue;
            }
            for dir in Direction::ALL {
                assert!(
                    mm.level(c).toward(dir) >= bm.level(c).toward(dir),
                    "MCC tighter than blocks at {c} toward {dir}"
                );
            }
        }
    }
}
