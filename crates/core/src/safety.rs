use std::fmt;

use serde::{Deserialize, Serialize};

use emr_distsim::protocols::EslTuple;
use emr_fault::FaultSet;
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

/// The extended safety levels of one obstacle plane, as a view.
///
/// A level is the distance to the nearest obstacle on either side of the
/// node along its own row and its own column, so it is four
/// nearest-set-bit scans: East and West along row `y` of the row-major
/// obstacle plane, North and South along lane `x` of the plane's
/// transpose (lane `x` is column `x`, bit `y` row `y`). The view borrows
/// both: the plane belongs to its model's map
/// ([`emr_fault::BlockMap::packed`], [`emr_fault::MccMap::packed`]), the
/// transpose to the [`crate::Scenario`], which keeps one per model. A
/// scan masks its first word, then reads whole words until it meets a
/// set bit or the lane's end. The conditions read less: Definition 3 is
/// a masked range test on each lane, over the nodes between the node and
/// the destination only. The levels equal the paper's distributed
/// FORMATION protocol run to quiescence and its centralized sweep,
/// `emr_distsim::protocols::esl::compute_global` — the ground truth of the
/// `safety-bits-matches-scalar` conform oracle and the differential tests
/// below.
#[derive(Debug, Clone, Copy)]
pub struct SafetyMap<'a> {
    rows: &'a BitGrid,
    cols: &'a BitGrid,
}

impl<'a> SafetyMap<'a> {
    /// The view over the obstacle plane `blocked` and its transpose, as
    /// [`SafetyMap::transpose`] builds it.
    ///
    /// # Panics
    ///
    /// Panics if `transposed` does not cover `blocked`'s mesh with its
    /// axes exchanged.
    pub(crate) fn new(blocked: &'a BitGrid, transposed: &'a BitGrid) -> SafetyMap<'a> {
        let mesh = blocked.mesh();
        assert_eq!(
            transposed.mesh(),
            Mesh::new(mesh.height(), mesh.width()),
            "transpose covers another mesh"
        );
        SafetyMap {
            rows: blocked,
            cols: transposed,
        }
    }

    /// The transpose of the obstacle plane `blocked`, over the mesh with
    /// its axes exchanged: row `x` of the result is column `x` of the
    /// plane. The faults' bits are set first, one each; then each word of
    /// the plane is read less the fault plane, so only the obstacles the
    /// model adds to its faults are decoded. Every fault must be an
    /// obstacle, as under both fault models; a caller that holds only a
    /// plane passes an empty fault set.
    ///
    /// # Panics
    ///
    /// Panics if `faults` covers another mesh than `blocked`.
    pub(crate) fn transpose(blocked: &BitGrid, faults: &FaultSet) -> BitGrid {
        let mesh = blocked.mesh();
        assert_eq!(faults.mesh(), mesh, "faults cover another mesh");
        let mut t = BitGrid::new(Mesh::new(mesh.height(), mesh.width()));
        let mut set = |x: i32, y: i32| t.set(Coord::new(y, x), true);
        for c in faults.iter() {
            set(c.x, c.y);
        }
        for y in 0..mesh.height() {
            let words = blocked.row(y).iter().zip(faults.packed().row(y));
            for (wi, (&b, &f)) in words.enumerate() {
                for_each_set_bit(&[b & !f], |p| {
                    // A column index fits `i32`, as the mesh width does.
                    set(i32::try_from(wi * 64 + p).unwrap_or(i32::MAX), y);
                });
            }
        }
        t
    }

    /// The mesh covered.
    pub fn mesh(&self) -> Mesh {
        self.rows.mesh()
    }

    /// The safety level of node `c`: the nearest obstacle on either side
    /// along its row and its column. Obstacle nodes answer all-`∞`, as
    /// the FORMATION protocol leaves them.
    ///
    /// # Panics
    ///
    /// Panics if `c` is outside the mesh.
    pub fn level(&self, c: Coord) -> SafetyLevel {
        let mesh = self.mesh();
        assert!(mesh.contains(c), "{c} outside {mesh:?}");
        let (x, y) = (c.x as usize, c.y as usize);
        let row = self.rows.row(c.y);
        let east = next_set_bit(row, x);
        if east == Some(x) {
            return SafetyLevel::UNBOUNDED;
        }
        // `c` is clear in both lanes, so a scan from it finds the nearest
        // obstacle strictly past it.
        let col = self.cols.row(c.x);
        // In `Direction::index()` order: E, N, W, S.
        SafetyLevel {
            dists: [
                hops(east, x),
                hops(next_set_bit(col, y), y),
                hops(prev_set_bit(row, x), x),
                hops(prev_set_bit(col, y), y),
            ],
        }
    }

    /// One entry of [`SafetyLevel`] for the clear node `c`: the hops to
    /// the nearest obstacle toward `dir`, `∞` when the lane is clear to
    /// the mesh edge. One nearest-set-bit scan of `c`'s row (East, West)
    /// or of its transposed column (North, South).
    pub(crate) fn toward(&self, c: Coord, dir: Direction) -> Dist {
        let (lane, at) = if dir.is_horizontal() {
            (self.rows.row(c.y), c.x as usize)
        } else {
            (self.cols.row(c.x), c.y as usize)
        };
        let hit = match dir {
            Direction::East | Direction::North => next_set_bit(lane, at),
            Direction::West | Direction::South => prev_set_bit(lane, at),
        };
        hops(hit, at)
    }

    /// Definition 3 for the clear node `u` and destination `d` as two
    /// masked range tests: no obstacle on `u`'s row strictly past `u.x` up
    /// to and including `d.x`, nor on its column strictly past `u.y` up to
    /// and including `d.y` (an empty range is clear). Equals
    /// `level(u).safe_for(..)` in the frame normalizing `(u, d)`, and
    /// reads at most ⌈|dx|/64⌉ + 1 words per axis.
    pub(crate) fn clear_toward(&self, u: Coord, d: Coord) -> bool {
        clear_past(self.rows.row(u.y), u.x as usize, d.x as usize)
            && clear_past(self.cols.row(u.x), u.y as usize, d.y as usize)
    }
}

/// The transpose the view borrows; the plane belongs to its model's map.
impl MemBytes for SafetyMap<'_> {
    fn mem_bytes(&self) -> u64 {
        self.cols.mem_bytes()
    }
}

/// Re-extracts into `transposed` every column of `blocked` that crosses
/// `changed`, clipped to the mesh. A node's North/South entries depend on
/// its own column only, so after obstacles changed inside `changed` the
/// repaired transpose equals a fresh [`SafetyMap::transpose`]; the
/// row-major plane is the model map's own, which its `insert_fault`
/// repairs.
pub(crate) fn refresh_columns(transposed: &mut BitGrid, blocked: &BitGrid, changed: Rect) {
    let width = blocked.mesh().width();
    for x in changed.x_min().max(0)..=changed.x_max().min(width - 1) {
        blocked.column(x, transposed.row_mut(x));
    }
}

/// The position of the first set bit of `lane` at or after `from`, or
/// `None` when every bit from there to the lane's end is clear.
fn next_set_bit(lane: &[u64], from: usize) -> Option<usize> {
    let mut wi = from / 64;
    let mut word = lane.get(wi)? & u64::MAX << (from % 64);
    while word == 0 {
        wi += 1;
        word = *lane.get(wi)?;
    }
    Some(wi * 64 + word.trailing_zeros() as usize)
}

/// The position of the last set bit of `lane` at or before `to`, or
/// `None` when every bit from the lane's start to there is clear. `to`
/// must lie inside the lane.
fn prev_set_bit(lane: &[u64], to: usize) -> Option<usize> {
    let mut wi = to / 64;
    let mut word = lane.get(wi)? & u64::MAX >> (63 - to % 64);
    while word == 0 {
        wi = wi.checked_sub(1)?;
        word = *lane.get(wi)?;
    }
    Some(wi * 64 + 63 - word.leading_zeros() as usize)
}

/// The hops from lane position `at` to the set bit a scan from it found,
/// `∞` when it found none.
fn hops(hit: Option<usize>, at: usize) -> Dist {
    hit.map_or(UNBOUNDED, |p| {
        Dist::try_from(p.abs_diff(at)).unwrap_or(UNBOUNDED)
    })
}

/// Whether no bit of `lane` is set strictly past `from` up to and
/// including `to`, in whichever direction `to` lies: the range's first
/// and last words masked, the words between read whole.
fn clear_past(lane: &[u64], from: usize, to: usize) -> bool {
    // `from + 1 ..= to` upward, `to ..= from - 1` downward.
    let (lo, hi) = ((from + 1).min(to), from.saturating_sub(1).max(to));
    to == from
        || (lo / 64..=hi / 64).all(|wi| {
            let mut word = lane.get(wi).copied().unwrap_or(0);
            if wi == lo / 64 {
                word &= u64::MAX << (lo % 64);
            }
            if wi == hi / 64 {
                word &= u64::MAX >> (63 - hi % 64);
            }
            word == 0
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use emr_distsim::protocols::esl;
    use emr_fault::{BlockMap, MccMap};

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

    /// The transpose of `blocked` built from the plane alone.
    fn plane_transpose(blocked: &BitGrid) -> BitGrid {
        SafetyMap::transpose(blocked, &FaultSet::new(blocked.mesh()))
    }

    #[test]
    fn map_distances_around_a_block() {
        let mesh = Mesh::square(8);
        let faults = FaultSet::from_coords(mesh, [Coord::new(4, 4), Coord::new(5, 5)]);
        let blocks = BlockMap::build(&faults);
        // The two diagonal faults close into the block [4:5, 4:5].
        let transposed = SafetyMap::transpose(blocks.packed(), &faults);
        let map = SafetyMap::new(blocks.packed(), &transposed);
        let at = |x, y| map.level(Coord::new(x, y));
        assert_eq!(at(0, 4).toward(Direction::East), 4);
        assert_eq!(at(3, 4).toward(Direction::East), 1);
        assert_eq!(at(4, 0).toward(Direction::North), 4);
        assert_eq!(at(4, 7).toward(Direction::South), 2);
        assert_eq!(at(0, 0), SafetyLevel::UNBOUNDED);
        // East of the block, W is small and E unbounded.
        assert_eq!(at(7, 5).toward(Direction::West), 2);
        assert_eq!(at(7, 5).toward(Direction::East), UNBOUNDED);
        // A disabled node of the block answers all-∞ like a fault.
        assert_eq!(at(4, 5), SafetyLevel::UNBOUNDED);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn level_outside_the_mesh_panics() {
        let plane = BitGrid::new(Mesh::new(5, 4));
        let transposed = plane_transpose(&plane);
        SafetyMap::new(&plane, &transposed).level(Coord::new(5, 0));
    }

    #[test]
    fn set_bit_scans_cross_word_boundaries() {
        // A 130-bit lane: three words, the last one partial.
        let lane = |bits: &[usize]| {
            let mut words = vec![0u64; 3];
            for &p in bits {
                words[p / 64] |= 1 << (p % 64);
            }
            words
        };
        let empty = lane(&[]);
        for p in [0, 63, 64, 129] {
            assert_eq!(next_set_bit(&empty, p), None, "empty from {p}");
            assert_eq!(prev_set_bit(&empty, p), None, "empty to {p}");
        }
        let full = lane(&(0..130).collect::<Vec<_>>());
        for p in [0, 63, 64, 129] {
            assert_eq!(next_set_bit(&full, p), Some(p), "full from {p}");
            assert_eq!(prev_set_bit(&full, p), Some(p), "full to {p}");
        }
        for p in [0, 63, 64, 129] {
            let one = lane(&[p]);
            // The bit itself, from either side, across whole words.
            assert_eq!(next_set_bit(&one, p), Some(p), "{p} from itself");
            assert_eq!(prev_set_bit(&one, p), Some(p), "{p} to itself");
            assert_eq!(next_set_bit(&one, 0), Some(p), "{p} from 0");
            assert_eq!(prev_set_bit(&one, 129), Some(p), "{p} to 129");
            if p > 0 {
                assert_eq!(prev_set_bit(&one, p - 1), None, "{p} to below");
            }
            assert_eq!(next_set_bit(&one, p + 1), None, "{p} from above");
        }
        // The nearest of two bits, seen from between them.
        let two = lane(&[63, 64]);
        assert_eq!(prev_set_bit(&two, 63), Some(63));
        assert_eq!(next_set_bit(&two, 64), Some(64));
        assert_eq!(prev_set_bit(&lane(&[0, 63]), 62), Some(0));
        assert_eq!(next_set_bit(&lane(&[64, 129]), 65), Some(129));
    }

    /// Shapes of the differential tests: the paper's 200×200 mesh, widths
    /// and heights around the 64-bit word boundary (a row scan or a
    /// column scan that crosses words), and 1-wide meshes.
    const SHAPES: [(i32, i32); 11] = [
        (200, 200),
        (63, 9),
        (64, 9),
        (65, 9),
        (130, 5),
        (9, 63),
        (9, 64),
        (9, 65),
        (5, 130),
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

    /// Asserts that the map over `blocked` and `transposed` equals the
    /// scalar ESL sweep over `blocked` at every node, obstacle nodes
    /// (all-∞) included.
    fn assert_matches_esl(blocked: &BitGrid, transposed: &BitGrid, ctx: &str) {
        let map = SafetyMap::new(blocked, transposed);
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

    /// Asserts that the map's single scans equal its levels, and its
    /// range tests equal Definition 3 over those levels, from every clear
    /// node (a sample of 200×200) toward every node of its row and its
    /// column (ranges of every length on either side) and toward the four
    /// mesh corners (one per quadrant).
    fn assert_reads_match_levels(blocked: &BitGrid, transposed: &BitGrid, ctx: &str) {
        let map = SafetyMap::new(blocked, transposed);
        let mesh = blocked.mesh();
        let (w, h) = (mesh.width(), mesh.height());
        let stride = if w * h > 10_000 { 37 } else { 1 };
        let corners = [(0, 0), (w - 1, 0), (0, h - 1), (w - 1, h - 1)].map(Coord::from);
        let clear = mesh.nodes().filter(|&u| blocked.get(u) == Some(false));
        for u in clear.step_by(stride) {
            let level = map.level(u);
            for dir in Direction::ALL {
                assert_eq!(map.toward(u, dir), level.toward(dir), "{ctx} {u} {dir}");
            }
            let row = (0..w).map(|x| Coord::new(x, u.y));
            let col = (0..h).map(|y| Coord::new(u.x, y));
            for d in row.chain(col).chain(corners) {
                let frame = Frame::normalizing(u, d);
                let want = level.safe_for(&frame, frame.to_rel(d));
                assert_eq!(map.clear_toward(u, d), want, "{ctx} {u} -> {d}");
            }
        }
    }

    #[test]
    fn levels_match_esl_sweep_on_block_and_mcc_maps() {
        for (w, h) in SHAPES {
            let mesh = Mesh::new(w, h);
            for (seed, density) in [0.005, 0.05, 0.3].into_iter().enumerate() {
                let faults = random_faults(mesh, density, 0x5AFE + seed as u64);
                let blocks = BlockMap::build(&faults);
                let [one, two] = emr_fault::MccType::ALL.map(|ty| MccMap::build(&faults, ty));
                for (model, plane) in [
                    ("blocks", blocks.packed()),
                    ("type one", one.packed()),
                    ("type two", two.packed()),
                ] {
                    let ctx = format!("{w}x{h} density {density} {model}");
                    // Seeding with the faults changes how the transpose is
                    // built, not what it holds.
                    let transposed = SafetyMap::transpose(plane, &faults);
                    assert_eq!(transposed, plane_transpose(plane), "{ctx}");
                    assert_matches_esl(plane, &transposed, &ctx);
                    assert_reads_match_levels(plane, &transposed, &ctx);
                }
            }
        }
    }

    #[test]
    fn range_tests_cross_word_boundaries() {
        // One obstacle at each position around the word boundaries of a
        // 130-node row, and of a 130-node column (a transposed lane): a
        // range from either side sees it exactly when the range reaches
        // it.
        let row = |i| Coord::new(i, 0);
        let col = |i| Coord::new(0, i);
        for (mesh, at) in [
            (Mesh::new(130, 1), &row as &dyn Fn(i32) -> Coord),
            (Mesh::new(1, 130), &col),
        ] {
            for p in [0, 1, 62, 63, 64, 65, 127, 128, 129] {
                let plane = BitGrid::from_blocked(mesh, |c| c == at(p));
                let transposed = plane_transpose(&plane);
                let map = SafetyMap::new(&plane, &transposed);
                for u in (0..130).filter(|&i| i != p) {
                    for d in 0..130 {
                        let blocked = (u < p && p <= d) || (d <= p && p < u);
                        assert_eq!(
                            map.clear_toward(at(u), at(d)),
                            !blocked,
                            "{mesh:?} obstacle {p}: {u} -> {d}"
                        );
                    }
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
                let transposed = plane_transpose(&blocked);
                assert_matches_esl(&blocked, &transposed, &format!("{w}x{h}"));
                assert_reads_match_levels(&blocked, &transposed, &format!("{w}x{h}"));
            }
        }
    }

    #[test]
    fn column_refresh_sequences_match_esl_sweep_and_fresh_transposes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for (w, h) in SHAPES {
            let mesh = Mesh::new(w, h);
            for (seed, density) in [0.005, 0.05].into_iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(0x4E5 + seed as u64);
                let steps = ((f64::from(w * h) * density).ceil() as usize).max(4);
                let mut faults = FaultSet::new(mesh);
                let mut blocks = BlockMap::build(&faults);
                let mut mccs = emr_fault::MccType::ALL.map(|ty| MccMap::build(&faults, ty));
                let mut block_t = plane_transpose(blocks.packed());
                let mut mcc_ts = mccs.each_ref().map(|m| plane_transpose(m.packed()));
                for step in 0..steps {
                    let c = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
                    faults.insert(c);
                    let rect = blocks.insert_fault(c);
                    refresh_columns(&mut block_t, blocks.packed(), rect);
                    for (mcc, t) in mccs.iter_mut().zip(&mut mcc_ts) {
                        if let Some(rect) = mcc.insert_fault(c) {
                            refresh_columns(t, mcc.packed(), rect);
                        }
                    }
                    assert_eq!(
                        block_t,
                        SafetyMap::transpose(blocks.packed(), &faults),
                        "{w}x{h} after {c}"
                    );
                    for (mcc, t) in mccs.iter().zip(&mcc_ts) {
                        assert_eq!(
                            *t,
                            SafetyMap::transpose(mcc.packed(), &faults),
                            "{w}x{h} after {c}"
                        );
                    }
                    // The scalar sweep is slow on 200×200: check it at
                    // the end and at a few points along the way.
                    if step + 1 == steps || step % 64 == 7 {
                        let ctx = format!("{w}x{h} step {step}");
                        assert_matches_esl(blocks.packed(), &block_t, &ctx);
                        for (mcc, t) in mccs.iter().zip(&mcc_ts) {
                            assert_matches_esl(mcc.packed(), t, &ctx);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn column_refresh_accepts_rects_overhanging_the_mesh() {
        let mesh = Mesh::new(70, 3);
        let mut blocks = BlockMap::build(&FaultSet::new(mesh));
        let mut transposed = plane_transpose(blocks.packed());
        blocks.insert_fault(Coord::new(69, 0));
        refresh_columns(&mut transposed, blocks.packed(), Rect::new(60, 80, -5, 1));
        assert_eq!(transposed, plane_transpose(blocks.packed()));
        refresh_columns(&mut transposed, blocks.packed(), Rect::new(75, 80, 0, 1));
        assert_eq!(
            transposed,
            plane_transpose(blocks.packed()),
            "rect off the mesh"
        );
    }

    #[test]
    fn column_refresh_tracks_obstacles_cleared_and_set() {
        // Flip patches of bits (across word boundaries and at the mesh
        // edges) and refresh only each patch's columns.
        let mesh = Mesh::new(130, 70);
        let mut packed = BitGrid::from_blocked(mesh, |c| (c.x * 31 + c.y * 17) % 9 < 2);
        let mut transposed = plane_transpose(&packed);
        for rect in [
            Rect::new(62, 66, 10, 12),
            Rect::new(0, 0, 0, 69),
            Rect::new(0, 129, 69, 69),
            Rect::new(127, 129, 0, 2),
            Rect::new(5, 70, 63, 64),
        ] {
            for c in rect.iter() {
                let cur = packed.get(c) == Some(true);
                packed.set(c, !cur);
            }
            refresh_columns(&mut transposed, &packed, rect);
            assert_eq!(transposed, plane_transpose(&packed), "{rect:?}");
            assert_matches_esl(&packed, &transposed, &format!("{rect:?}"));
        }
    }

    #[test]
    fn a_map_costs_one_transposed_plane() {
        // 130 columns of 70 rows: two words per column, whatever the
        // obstacles; the row-major plane is its model map's.
        let mesh = Mesh::new(130, 70);
        for blocked in [
            BitGrid::new(mesh),
            BitGrid::from_blocked(mesh, |c| c.x == 10 && c.y == 20),
            BitGrid::from_blocked(mesh, |_| true),
        ] {
            let transposed = plane_transpose(&blocked);
            assert_eq!(
                SafetyMap::new(&blocked, &transposed).mem_bytes(),
                130 * 2 * 8
            );
        }
    }

    #[test]
    #[should_panic(expected = "transpose covers another mesh")]
    fn a_transpose_of_another_mesh_is_refused() {
        let plane = BitGrid::new(Mesh::new(6, 4));
        SafetyMap::new(&plane, &plane);
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
        let (bt, mt) = (
            SafetyMap::transpose(blocks.packed(), &faults),
            SafetyMap::transpose(mcc.packed(), &faults),
        );
        let bm = SafetyMap::new(blocks.packed(), &bt);
        let mm = SafetyMap::new(mcc.packed(), &mt);
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
