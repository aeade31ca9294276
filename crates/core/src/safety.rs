use std::fmt;

use serde::{Deserialize, Serialize};

use emr_distsim::protocols::{esl, EslTuple};
use emr_fault::workspace::with_scratch;
use emr_fault::{BlockMap, MccMap};
use emr_mesh::{
    BitGrid, Coord, Direction, Dist, Frame, Grid, LaneIndex, MemBytes, Mesh, Rect, UNBOUNDED,
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

    /// The raw direction-indexed tuple.
    pub fn as_tuple(&self) -> EslTuple {
        self.dists
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

/// The storage behind a [`SafetyMap`]: a dense per-node level grid, or
/// the memory-lean sorted-lane index the levels are derived from on
/// demand. Both answer [`SafetyMap::level`] identically; the two forms
/// compare equal whenever they describe the same levels.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Repr {
    /// 16 bytes per node, O(1) lookups — the default at bench-scale
    /// meshes and the layout every scalar ground-truth builder produces.
    Dense(Grid<SafetyLevel>),
    /// Two `u32` entries per *obstacle*, O(log f) lookups via binary
    /// search in the node's row and column lanes — the giant-mesh form.
    Lean(LaneIndex),
}

/// The extended safety levels of every node of a mesh for one obstacle map.
///
/// Computed by directional sweeps (identical, by the `emr-distsim` test
/// suite, to running the paper's distributed FORMATION protocol to
/// quiescence). A safety level is a pure function of the obstacle
/// pattern of the node's own row and column, which admits two storage
/// layouts: the default dense grid, and the lean sorted-lane form built
/// by [`SafetyMap::compute_packed_lean`] whose footprint scales with the
/// obstacle count instead of the node count. Equality is semantic: maps
/// with the same per-node levels are equal regardless of layout.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SafetyMap {
    repr: Repr,
}

impl SafetyMap {
    /// Computes the safety levels for an arbitrary obstacle grid — the
    /// scalar ESL sweep, kept as the ground truth the packed kernel is
    /// tested against.
    pub fn compute(blocked: &Grid<bool>) -> SafetyMap {
        with_scratch(|ws| {
            esl::compute_global_into(blocked, &mut ws.tuples);
            SafetyMap {
                repr: Repr::Dense(ws.tuples.map(|&t| SafetyLevel::from_tuple(t))),
            }
        })
    }

    /// Computes the safety levels from a packed obstacle grid.
    ///
    /// Each direction entry is a run length along the node's own row or
    /// column, so the kernel decodes the blocked positions of a packed
    /// lane with trailing-zero counts and fills the gaps between
    /// consecutive obstacles arithmetically — empty lanes (the common
    /// case under sparse faults) cost one word scan and write nothing.
    /// N/S lanes reuse the same row kernel over a 64×64 bit-transposed
    /// copy of the grid. The scalar [`SafetyMap::compute`] stays the
    /// ground truth; the `safety-bits-matches-scalar` conform oracle and
    /// the in-crate differential tests pin the equivalence. This is
    /// [`SafetyMap::compute_packed_banded`] with one band.
    pub fn compute_packed(blocked: &BitGrid) -> SafetyMap {
        SafetyMap::compute_packed_banded(blocked, 1)
    }

    /// [`SafetyMap::compute_packed`] filling the dense level grid in
    /// `bands` horizontal bands of whole rows on scoped threads; `bands`
    /// is clamped to the mesh height.
    ///
    /// One band sweeps the packed rows, then the columns of a transposed
    /// copy held in this thread's scratch workspace. With more bands,
    /// each band is independent — East/West entries come straight off
    /// its own packed rows, and North/South entries off per-column
    /// cursors into a shared [`LaneIndex`] of the obstacles (a column's
    /// nearest-obstacle distances need only the sorted obstacle rows of
    /// that column, not the rows of other bands) — so the result is
    /// bit-identical for every band count
    /// (`banded_compute_matches_scalar_for_every_band_count` and the
    /// `tiled-matches-scalar` conform oracle pin this).
    // emr-lint: allow(A1, "scratch planes are resized to the mesh at entry and band bounds are clamped to it, so every cursor stays inside them")
    pub fn compute_packed_banded(blocked: &BitGrid, bands: usize) -> SafetyMap {
        let mesh = blocked.mesh();
        let height = usize::try_from(mesh.height()).unwrap_or(1);
        let rows_per_band = height.div_ceil(bands.clamp(1, height));
        let width = usize::try_from(mesh.width()).unwrap_or(0);
        let mut levels = Grid::new(mesh, SafetyLevel::UNBOUNDED);
        if height.div_ceil(rows_per_band) == 1 {
            let slice = levels.as_mut_slice();
            for y in 0..mesh.height() {
                let base = usize::try_from(y).unwrap_or(0) * width;
                sweep_row_packed(blocked.row(y), &mut slice[base..base + width], true);
            }
            with_scratch(|ws| {
                let transposed = &mut ws.bits_a;
                blocked.transpose_into(transposed);
                for x in 0..mesh.width() {
                    let xi = usize::try_from(x).unwrap_or(0);
                    sweep_col_packed(transposed.row(x), slice, xi, width, true);
                }
            });
        } else {
            let lanes = LaneIndex::from_packed(blocked);
            std::thread::scope(|s| {
                for (b, band) in levels
                    .as_mut_slice()
                    .chunks_mut(rows_per_band * width)
                    .enumerate()
                {
                    let lanes = &lanes;
                    s.spawn(move || fill_band(blocked, lanes, band, b * rows_per_band, width));
                }
            });
        }
        SafetyMap {
            repr: Repr::Dense(levels),
        }
    }

    /// Computes the memory-lean form: the sorted-lane obstacle index
    /// itself, with levels derived per query. One row-major pass over the
    /// packed grid; the footprint is two `u32` entries per obstacle plus
    /// one spine per lane — at the paper's fault rates orders of magnitude
    /// below the 16 bytes per node of the dense layout.
    pub fn compute_packed_lean(blocked: &BitGrid) -> SafetyMap {
        SafetyMap {
            repr: Repr::Lean(LaneIndex::from_packed(blocked)),
        }
    }

    /// Whether this map uses the lean sorted-lane storage.
    pub fn is_lean(&self) -> bool {
        matches!(self.repr, Repr::Lean(_))
    }

    /// Computes the safety levels under the faulty-block model.
    pub fn for_blocks(blocks: &BlockMap) -> SafetyMap {
        SafetyMap::compute_packed(blocks.packed())
    }

    /// Computes the safety levels under one MCC labeling.
    pub fn for_mcc(mcc: &MccMap) -> SafetyMap {
        SafetyMap::compute_packed(mcc.packed())
    }

    /// The mesh covered.
    pub fn mesh(&self) -> Mesh {
        match &self.repr {
            Repr::Dense(levels) => levels.mesh(),
            Repr::Lean(lanes) => lanes.mesh(),
        }
    }

    /// The safety level of node `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is outside the mesh.
    // emr-lint: allow(A1, "documented panic contract: `c` lies inside the mesh, so the dense row-major index is in range")
    pub fn level(&self, c: Coord) -> SafetyLevel {
        match &self.repr {
            Repr::Dense(levels) => levels[c],
            Repr::Lean(lanes) => lean_level(lanes, c),
        }
    }

    /// Incrementally repairs the map after obstacles changed inside
    /// `changed`, resweeping only the affected lanes.
    ///
    /// A node's East/West entries depend solely on its own row's obstacle
    /// pattern and its North/South entries on its own column's, so after a
    /// membership change confined to `changed` it suffices to resweep the
    /// E/W lanes of the changed rows and the N/S lanes of the changed
    /// columns — `O((w + h) · diameter)` instead of a full `O(w · h)`
    /// rebuild. The E/W lanes come straight off the packed rows, the N/S
    /// lanes off per-column bit gathers — no predicate calls. The lane
    /// kernels run in overwrite mode, explicitly restoring `∞` on blocked
    /// nodes and cleared run tails, so the result is bit-identical to a
    /// from-scratch [`SafetyMap::compute_packed`] (property-tested and
    /// oracle-checked in `emr-conform`).
    ///
    /// `packed` must be the *post-change* obstacle grid for the whole
    /// mesh; `changed` must contain every flipped node (extra area is
    /// harmless, just slower).
    pub fn resweep_rect_packed(&mut self, packed: &BitGrid, changed: Rect) {
        let mesh = self.mesh();
        debug_assert_eq!(mesh, packed.mesh(), "packed grid covers another mesh");
        let levels = match &mut self.repr {
            Repr::Dense(levels) => levels,
            Repr::Lean(lanes) => {
                lanes.refresh_rect(packed, clip_rect(changed, mesh));
                return;
            }
        };
        let width = usize::try_from(mesh.width()).unwrap_or(0);
        let slice = levels.as_mut_slice();
        let y_lo = changed.y_min().max(0);
        let y_hi = changed.y_max().min(mesh.height() - 1);
        for y in y_lo..=y_hi {
            let base = usize::try_from(y).unwrap_or(0) * width;
            sweep_row_packed(packed.row(y), &mut slice[base..base + width], false);
        }
        let x_lo = changed.x_min().max(0);
        let x_hi = changed.x_max().min(mesh.width() - 1);
        with_scratch(|ws| {
            let col = &mut ws.row_open;
            col.clear();
            col.resize(usize::try_from(mesh.height()).unwrap_or(0).div_ceil(64), 0);
            for x in x_lo..=x_hi {
                packed.column(x, col);
                sweep_col_packed(col, slice, usize::try_from(x).unwrap_or(0), width, false);
            }
        });
    }
}

/// Maps with the same per-node levels are equal regardless of storage
/// layout: same-layout pairs compare their representations directly
/// (both are canonical for the level function), mixed pairs compare
/// node by node.
impl PartialEq for SafetyMap {
    fn eq(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Dense(a), Repr::Dense(b)) => a == b,
            (Repr::Lean(a), Repr::Lean(b)) => a == b,
            _ => {
                self.mesh() == other.mesh()
                    && self.mesh().nodes().all(|c| self.level(c) == other.level(c))
            }
        }
    }
}

impl Eq for SafetyMap {}

impl MemBytes for SafetyMap {
    fn mem_bytes(&self) -> u64 {
        match &self.repr {
            Repr::Dense(levels) => levels.mem_bytes(),
            Repr::Lean(lanes) => lanes.mem_bytes(),
        }
    }
}

/// `rect` intersected with `mesh`'s bounds (the resweep accepts rects
/// that overhang the mesh edge; the lane refresh does not).
fn clip_rect(rect: Rect, mesh: Mesh) -> Rect {
    Rect::new(
        rect.x_min().max(0),
        rect.x_max().min(mesh.width() - 1),
        rect.y_min().max(0),
        rect.y_max().min(mesh.height() - 1),
    )
}

/// The safety level of `c` derived from the sorted obstacle lanes: one
/// binary search per axis finds the nearest obstacle on either side.
/// Obstacle nodes answer all-`∞`, matching the dense sweeps, which never
/// write them.
///
/// # Panics
///
/// Panics if `c` is outside the mesh.
// emr-lint: allow(A1, "documented panic contract: lane pivots are sorted mesh offsets, and ri/ci are partition points into them")
fn lean_level(lanes: &LaneIndex, c: Coord) -> SafetyLevel {
    let row = lanes.row(c.y);
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
    let col = lanes.col(c.x);
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

/// Fills one row band of the dense level grid for
/// [`SafetyMap::compute_packed_banded`]: East/West off the band's packed
/// rows, North/South via amortized cursors into the sorted column lanes
/// (each cursor starts at the first obstacle at or below the band and
/// only ever advances). Virgin semantics: only finite entries are
/// written; obstacle nodes keep the `∞` fill.
// emr-lint: allow(A1, "band bounds are clamped to the mesh before the loop, so every lane index is in range")
fn fill_band(
    blocked: &BitGrid,
    lanes: &LaneIndex,
    band: &mut [SafetyLevel],
    r0: usize,
    width: usize,
) {
    let nrows = band.len() / width;
    for r in 0..nrows {
        let y = i32::try_from(r0 + r).unwrap_or(i32::MAX);
        sweep_row_packed(blocked.row(y), &mut band[r * width..(r + 1) * width], true);
    }
    let n = Direction::North.index();
    let s = Direction::South.index();
    let mut cursor: Vec<usize> = (0..width)
        .map(|x| {
            lanes
                .col(i32::try_from(x).unwrap_or(i32::MAX))
                .partition_point(|&p| (p as usize) < r0)
        })
        .collect();
    for r in 0..nrows {
        let y = u32::try_from(r0 + r).unwrap_or(u32::MAX);
        let row = &mut band[r * width..(r + 1) * width];
        for (x, l) in row.iter_mut().enumerate() {
            let col = lanes.col(i32::try_from(x).unwrap_or(i32::MAX));
            let k = &mut cursor[x];
            while *k < col.len() && col[*k] < y {
                *k += 1;
            }
            match col.get(*k) {
                Some(&p) if p == y => continue, // obstacle node: stays ∞
                Some(&p) => l.dists[n] = p - y,
                None => {}
            }
            if *k > 0 {
                l.dists[s] = y - col[*k - 1];
            }
        }
    }
}

/// A lane run length as a [`Dist`]; lanes are far shorter than `Dist`'s
/// range, so the fallback is unreachable.
fn lane_dist(n: usize) -> Dist {
    Dist::try_from(n).unwrap_or(UNBOUNDED)
}

/// Calls `f(i)` for every set bit position of a packed lane, ascending.
fn each_set_bit(lane: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &word) in lane.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            f(wi * 64 + w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

/// Fills the East/West entries of one row from its packed obstacle bits:
/// for each gap between consecutive obstacles, East counts down to the
/// right obstacle and West up from the left one. With `virgin` set the
/// levels are fresh `∞` fills and only finite entries are written; in
/// overwrite mode (resweeps) every entry of the lane is written,
/// including the `∞` of blocked nodes, head/tail segments, and fully
/// clear lanes.
// emr-lint: allow(A1, "lane has one level per column and the word loop is bounded by the packed row length")
fn sweep_row_packed(row: &[u64], lane: &mut [SafetyLevel], virgin: bool) {
    let e = Direction::East.index();
    let w = Direction::West.index();
    let mut prev: Option<usize> = None;
    each_set_bit(row, |p| {
        let start = prev.map_or(0, |q| q + 1);
        for (x, l) in lane.iter_mut().enumerate().take(p).skip(start) {
            l.dists[e] = lane_dist(p - x);
            match prev {
                Some(q) => l.dists[w] = lane_dist(x - q),
                None if !virgin => l.dists[w] = UNBOUNDED,
                None => {}
            }
        }
        if !virgin {
            lane[p].dists[e] = UNBOUNDED;
            lane[p].dists[w] = UNBOUNDED;
        }
        prev = Some(p);
    });
    match prev {
        Some(q) => {
            for (x, l) in lane.iter_mut().enumerate().skip(q + 1) {
                l.dists[w] = lane_dist(x - q);
                if !virgin {
                    l.dists[e] = UNBOUNDED;
                }
            }
        }
        None if !virgin => {
            for l in lane.iter_mut() {
                l.dists[e] = UNBOUNDED;
                l.dists[w] = UNBOUNDED;
            }
        }
        None => {}
    }
}

/// The column twin of [`sweep_row_packed`]: fills the North/South entries
/// of column `x` from that column's packed bits (`col[i]` holds rows
/// `64i..64i+63`), writing through the row-major `levels` slice with
/// stride `width`.
// emr-lint: allow(A1, "levels holds width*height entries and the sweep walks y through 0..height at a fixed in-range x")
fn sweep_col_packed(col: &[u64], levels: &mut [SafetyLevel], x: usize, width: usize, virgin: bool) {
    let n = Direction::North.index();
    let s = Direction::South.index();
    let height = levels.len() / width;
    let mut prev: Option<usize> = None;
    each_set_bit(col, |p| {
        let start = prev.map_or(0, |q| q + 1);
        for y in start..p {
            let l = &mut levels[y * width + x];
            l.dists[n] = lane_dist(p - y);
            match prev {
                Some(q) => l.dists[s] = lane_dist(y - q),
                None if !virgin => l.dists[s] = UNBOUNDED,
                None => {}
            }
        }
        if !virgin {
            let l = &mut levels[p * width + x];
            l.dists[n] = UNBOUNDED;
            l.dists[s] = UNBOUNDED;
        }
        prev = Some(p);
    });
    match prev {
        Some(q) => {
            for y in q + 1..height {
                let l = &mut levels[y * width + x];
                l.dists[s] = lane_dist(y - q);
                if !virgin {
                    l.dists[n] = UNBOUNDED;
                }
            }
        }
        None if !virgin => {
            for y in 0..height {
                let l = &mut levels[y * width + x];
                l.dists[n] = UNBOUNDED;
                l.dists[s] = UNBOUNDED;
            }
        }
        None => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emr_fault::FaultSet;

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
        let map = SafetyMap::for_blocks(&blocks);
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

    #[test]
    fn packed_compute_matches_scalar() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Word-boundary shapes and edge densities, plus a fully-blocked
        // middle row: the bit kernel must equal the scalar ESL sweep
        // everywhere, including blocked nodes (all-∞) and clear lanes.
        let shapes = [(8, 8), (65, 3), (63, 4), (1, 9), (9, 1), (130, 2)];
        for seed in 0..12u64 {
            let (w, h) = shapes[seed as usize % shapes.len()];
            let mesh = Mesh::new(w, h);
            let mut rng = StdRng::seed_from_u64(0x5AFE + seed);
            let density = [0.0, 0.1, 0.5][seed as usize % 3];
            let mut blocked = Grid::new(mesh, false);
            for c in mesh.nodes() {
                if rng.gen_bool(density) {
                    blocked[c] = true;
                }
            }
            if seed % 4 == 3 {
                for x in 0..w {
                    blocked[Coord::new(x, h / 2)] = true;
                }
            }
            let packed = BitGrid::from_blocked(mesh, |c| blocked[c]);
            assert_eq!(
                SafetyMap::compute_packed(&packed),
                SafetyMap::compute(&blocked),
                "{w}x{h} seed {seed}"
            );
        }
    }

    #[test]
    fn packed_resweep_matches_full_recompute() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for (w, h) in [(8, 8), (1, 9), (11, 3), (70, 2)] {
            let mesh = Mesh::new(w, h);
            for seed in 0..10u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut blocks = BlockMap::build(&FaultSet::new(mesh));
                let mut map = SafetyMap::for_blocks(&blocks);
                for _ in 0..(w * h / 5).clamp(2, 12) {
                    let c = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
                    let rect = blocks.insert_fault(c);
                    map.resweep_rect_packed(blocks.packed(), rect);
                    // Compare against the scalar path, keeping the check
                    // independent of the packed builder under test.
                    let full = SafetyMap::compute(&Grid::from_fn(mesh, |v| blocks.is_blocked(v)));
                    assert_eq!(map, full, "{w}x{h} seed {seed} after {c}");
                }
            }
        }
    }

    #[test]
    fn banded_compute_matches_scalar_for_every_band_count() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Word-straddling widths (4095/4097 cross the ×64 boundary) and
        // heights that leave ragged final bands.
        let shapes = [
            (8, 8),
            (65, 7),
            (130, 4),
            (1, 9),
            (4095, 2),
            (4097, 2),
            (3, 70),
        ];
        for (w, h) in shapes {
            let mesh = Mesh::new(w, h);
            for seed in 0..4u64 {
                let mut rng = StdRng::seed_from_u64(0x5CA1E + seed);
                let cells: Vec<bool> = (0..mesh.node_count()).map(|_| rng.gen_bool(0.12)).collect();
                let packed = BitGrid::from_blocked(mesh, |c| cells[mesh.index_of(c)]);
                let scalar = SafetyMap::compute_packed(&packed);
                for bands in [1, 2, 3, 5, 64] {
                    assert_eq!(
                        SafetyMap::compute_packed_banded(&packed, bands),
                        scalar,
                        "{w}x{h} seed {seed} bands {bands}"
                    );
                }
            }
        }
    }

    #[test]
    fn lean_levels_match_dense_everywhere() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for (w, h) in [(8, 8), (65, 7), (1, 9), (70, 3)] {
            let mesh = Mesh::new(w, h);
            for seed in 0..4u64 {
                let mut rng = StdRng::seed_from_u64(0x1EA4 + seed);
                let cells: Vec<bool> = (0..mesh.node_count()).map(|_| rng.gen_bool(0.15)).collect();
                let packed = BitGrid::from_blocked(mesh, |c| cells[mesh.index_of(c)]);
                let dense = SafetyMap::compute_packed(&packed);
                let lean = SafetyMap::compute_packed_lean(&packed);
                assert!(lean.is_lean() && !dense.is_lean());
                for c in mesh.nodes() {
                    assert_eq!(lean.level(c), dense.level(c), "{w}x{h} seed {seed} {c}");
                }
                // Semantic equality crosses storage layouts, both ways.
                assert_eq!(lean, dense);
                assert_eq!(dense, lean);
            }
        }
    }

    #[test]
    fn lean_resweeps_match_fresh_builds() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for (w, h) in [(8, 8), (11, 3), (70, 2)] {
            let mesh = Mesh::new(w, h);
            for seed in 0..6u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut blocks = BlockMap::build(&FaultSet::new(mesh));
                let mut packed_swept = SafetyMap::compute_packed_lean(blocks.packed());
                for _ in 0..(w * h / 5).clamp(2, 10) {
                    let c = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
                    let rect = blocks.insert_fault(c);
                    packed_swept.resweep_rect_packed(blocks.packed(), rect);
                    let fresh = SafetyMap::compute_packed_lean(blocks.packed());
                    assert_eq!(packed_swept, fresh, "{w}x{h} seed {seed} after {c}");
                    // And the lean state agrees with the dense truth.
                    assert_eq!(packed_swept, SafetyMap::compute_packed(blocks.packed()));
                }
            }
        }
    }

    #[test]
    fn mem_bytes_tracks_storage_layout() {
        let mesh = Mesh::new(64, 64);
        let packed = BitGrid::from_blocked(mesh, |c| c.x == 10 && c.y == 20);
        let dense = SafetyMap::compute_packed(&packed);
        let lean = SafetyMap::compute_packed_lean(&packed);
        assert_eq!(dense.mem_bytes(), 64 * 64 * 16);
        // One obstacle: two u32 entries plus the per-lane spines.
        assert!(lean.mem_bytes() < dense.mem_bytes() / 4);
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
        let bm = SafetyMap::for_blocks(&blocks);
        let mm = SafetyMap::for_mcc(&mcc);
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
