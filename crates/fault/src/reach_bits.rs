//! Word-parallel (bit-packed) monotone-reachability kernels.
//!
//! The scalar oracle in [`crate::reach`] fills a boolean DP table one node
//! at a time. Packing each row of the route rectangle into `u64` words
//! (see [`BitGrid`]) turns the recurrence
//!
//! ```text
//! reach(x, y) = open(x, y) && (reach(x, y−1) || reach(x−1, y))
//! ```
//!
//! into three word-parallel steps per row — the classic bitboard
//! flood-fill trick. With `south` the packed reach bits of the previous
//! row and `open` the packed non-blocked mask of this row:
//!
//! ```text
//! seed = south & open            // entries from the south
//! row  = open & (seed | east_propagate(seed, open))
//! ```
//!
//! where `east_propagate` rides the adder's carry chain: `open + seed`
//! flips exactly the open bits east of each seed up to the first closed
//! bit, so `open & ((open + seed) ^ open) | seed` is the full monotone
//! reach of the row, 64 columns per add. A carry flag extends the ripple
//! across word boundaries.
//!
//! Three oracles sit on top of [`reach_row`], and all three run one row
//! loop over the rectangle a source and a far corner span:
//!
//! * [`minimal_path_exists_bits`] — drop-in replacement for
//!   [`crate::reach::minimal_path_exists`], same per-pair O(area) shape
//!   but ~64 columns per instruction,
//! * [`minimal_path_exists_packed`] — the same per-pair kernel over an
//!   already-packed obstacle grid, copying each rectangle row as words
//!   instead of calling a predicate per node, and
//! * [`ReachMap`] — the same sweep, keeping every row: reachability from
//!   one source to **every** node of its rectangle, after which each
//!   query is an O(1) bit lookup.

use emr_mesh::{BitGrid, Coord, MemBytes, Mesh, Rect};

use crate::workspace::{with_scratch, Workspace};

/// Advances the reachability DP by one row, in place.
///
/// On entry `row` holds the packed reach bits of the southern neighbor
/// row (for the source row itself: just the source bit); `open` holds the
/// packed non-blocked mask of the current row. On exit `row` holds the
/// packed reach bits of the current row. Bit index increases eastward
/// (away from the source); both slices must have equal length and keep
/// any tail bits beyond the rectangle width zero.
pub fn reach_row(open: &[u64], row: &mut [u64]) {
    debug_assert_eq!(open.len(), row.len());
    let mut carry = false;
    for (r, &o) in row.iter_mut().zip(open) {
        let seed = *r & o;
        // `o + seed` ripples a carry through the contiguous open run east
        // of every seed; the flipped bits (xor) are exactly that run. The
        // xor drops seeds that sit inside another seed's run, so they are
        // or-ed back in. A run reaching bit 63 overflows into `carry`,
        // which re-seeds bit 0 of the next word.
        let (t, c1) = o.overflowing_add(seed);
        let (t, c2) = t.overflowing_add(u64::from(carry));
        carry = c1 || c2;
        *r = (o & (t ^ o)) | seed;
    }
}

/// Packs one rectangle row: bit `x` of `dst` is set iff `open_at(x)` for
/// `x < width`; bits at and beyond `width` are cleared.
fn fill_open_row(dst: &mut [u64], width: i32, open_at: impl Fn(i32) -> bool) {
    let mut x = 0;
    for word in dst.iter_mut() {
        let mut bits = 0u64;
        let mut b = 0;
        while b < 64 && x < width {
            if open_at(x) {
                bits |= 1u64 << b;
            }
            b += 1;
            x += 1;
        }
        *word = bits;
    }
}

/// A mask of the low `width mod 64` bits (all ones when `width` fills the
/// word exactly).
fn low_mask(width: i32) -> u64 {
    match width % 64 {
        0 => u64::MAX,
        rem => (1u64 << rem) - 1,
    }
}

/// Bit-parallel drop-in for [`crate::reach::minimal_path_exists`]: whether
/// a minimal path from `s` to `d` exists avoiding every node for which
/// `blocked` returns true.
///
/// Same contract as the scalar oracle: `false` when either endpoint is
/// blocked or outside the mesh, `s == d` (unblocked) counts as reachable.
/// Each rectangle row is packed through the predicate (one call per
/// node); with an already-packed obstacle grid,
/// [`minimal_path_exists_packed`] skips that.
///
/// # Examples
///
/// ```
/// use emr_mesh::{Coord, Mesh};
/// use emr_fault::reach_bits::minimal_path_exists_bits;
///
/// let mesh = Mesh::square(4);
/// let full_wall = |c: Coord| c.x == 1;
/// assert!(!minimal_path_exists_bits(&mesh, Coord::new(0, 0), Coord::new(3, 3), full_wall));
/// ```
pub fn minimal_path_exists_bits(
    mesh: &Mesh,
    s: Coord,
    d: Coord,
    blocked: impl Fn(Coord) -> bool,
) -> bool {
    if !mesh.contains(s) || !mesh.contains(d) || blocked(s) || blocked(d) {
        return false;
    }
    let xs = if d.x >= s.x { 1 } else { -1 };
    let open_row = |ay, width, open: &mut [u64]| {
        fill_open_row(open, width, |rx| !blocked(Coord::new(s.x + xs * rx, ay)));
    };
    with_scratch(|ws| sweep_rect(s, d, ws, open_row, |_, _| {}))
}

/// [`minimal_path_exists_bits`] over an already-packed obstacle grid (the
/// set bits of `blocked` are the obstacles; the mesh is its mesh): each
/// rectangle row is one word-level span copy, so a query costs
/// `O(rows × words)` with no per-node work and no allocation. Serve's
/// reach queries pass [`crate::FaultSet::packed`] directly.
///
/// # Examples
///
/// ```
/// use emr_mesh::{BitGrid, Coord, Mesh};
/// use emr_fault::reach_bits::minimal_path_exists_packed;
///
/// let wall = BitGrid::from_blocked(Mesh::square(4), |c| c.x == 1);
/// assert!(!minimal_path_exists_packed(Coord::new(0, 0), Coord::new(3, 3), &wall));
/// assert!(minimal_path_exists_packed(Coord::new(0, 0), Coord::new(0, 3), &wall));
/// ```
pub fn minimal_path_exists_packed(s: Coord, d: Coord, blocked: &BitGrid) -> bool {
    if blocked.get(s) != Some(false) || blocked.get(d) != Some(false) {
        return false;
    }
    with_scratch(|ws| sweep_rect(s, d, ws, packed_rows(s, d, blocked), |_, _| {}))
}

/// The row loop of all three kernels, on the scratch rows of `ws`: one
/// sweep of the rectangle spanned by `s` and `corner` in the relative
/// frame, returning whether `corner` is reachable (the caller has checked
/// that `s` is open and both ends lie in the mesh). `open_row(ay, width,
/// dst)` packs the open mask of mesh row `ay` in travel order: bit `j` is
/// column `s.x ± j` toward `corner`, for `j < width`. `keep_row(ry, row)`
/// receives the reach bits of relative row `ry` (mesh row `s.y ± ry`);
/// the sweep stops at the first sealed row, whose successors stay
/// unreached.
// emr-lint: allow(A1, "frontier and obstacle rows share the packed width, so word offsets are always in range")
fn sweep_rect(
    s: Coord,
    corner: Coord,
    ws: &mut Workspace,
    open_row: impl Fn(i32, i32, &mut [u64]),
    mut keep_row: impl FnMut(i32, &[u64]),
) -> bool {
    let ys = if corner.y >= s.y { 1 } else { -1 };
    let dx = (corner.x - s.x).abs();
    let dy = (corner.y - s.y).abs();
    let width = dx + 1;
    let words = (width as usize).div_ceil(64);
    let Workspace {
        row_open, row_cur, ..
    } = ws;
    row_open.clear();
    row_open.resize(words, 0);
    row_cur.clear();
    row_cur.resize(words, 0);
    row_cur[0] = 1; // the source seeds the carry chain of its own row
    for ry in 0..=dy {
        open_row(s.y + ys * ry, width, row_open);
        reach_row(row_open, row_cur);
        if row_cur.iter().all(|&w| w == 0) {
            return false; // a sealed row kills every monotone path
        }
        keep_row(ry, row_cur);
    }
    row_cur[dx as usize / 64] >> (dx % 64) & 1 == 1
}

/// The `open_row` of [`sweep_rect`] over a packed obstacle grid: row `ay`
/// is the open (non-blocked) mask of the span from column `s.x` toward
/// `corner.x`, read with one `span_east` / `span_west` word copy.
fn packed_rows(s: Coord, corner: Coord, blocked: &BitGrid) -> impl Fn(i32, i32, &mut [u64]) + '_ {
    let east = corner.x >= s.x;
    move |ay, width, dst| {
        let from = Coord::new(s.x, ay);
        if east {
            blocked.span_east(from, width, dst);
        } else {
            blocked.span_west(from, width, dst);
        }
        for w in dst.iter_mut() {
            *w = !*w;
        }
        if let Some(last) = dst.last_mut() {
            *last &= low_mask(width);
        }
    }
}

/// Reachability from one source to every node of one route rectangle.
///
/// [`ReachMap::from_packed`] sweeps the rectangle spanned by the source
/// and a corner once, in the source-relative frame, into one packed
/// [`BitGrid`]: the bit of node `v` sits at `(|v.x − s.x|, |v.y − s.y|)`,
/// so each row's write-back is a plain word copy and
/// [`ReachMap::reachable`] is one bit lookup. A minimal path never leaves
/// the rectangle its endpoints span, so the map toward `d` answers every
/// destination on the way to `d`; the sweep engine builds one per trial
/// toward the trial's destination. A whole-mesh answer is the four maps
/// toward the mesh corners (the source's row and column lie in two).
///
/// # Examples
///
/// ```
/// use emr_mesh::{BitGrid, Coord, Mesh, Rect};
/// use emr_fault::reach_bits::ReachMap;
/// use emr_fault::reach::minimal_path_exists;
///
/// let mesh = Mesh::square(9);
/// let blocked = |c: Coord| c.x == 4 && c.y >= 2;
/// let packed = BitGrid::from_blocked(mesh, blocked);
/// let s = mesh.center();
/// for corner in [(0, 0), (8, 0), (0, 8), (8, 8)].map(Coord::from) {
///     let map = ReachMap::from_packed(s, corner, &packed);
///     for d in Rect::point(s).expanded_to(corner).iter() {
///         assert_eq!(map.reachable(d), minimal_path_exists(&mesh, s, d, blocked));
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ReachMap {
    mesh: Mesh,
    source: Coord,
    /// The rectangle spanned by the source and the corner.
    rect: Rect,
    /// False when the source is blocked or either end lies outside the
    /// mesh: then nothing is reachable and the grid stays a zero 1×1.
    live: bool,
    /// The reach bits in relative coordinates `(|dx|, |dy|)`. Relative
    /// frames keep the row write-back a plain word copy, with no per-row
    /// bit reversal toward the west.
    grid: BitGrid,
}

impl ReachMap {
    /// Sweeps the rectangle spanned by `source` and `corner` once over a
    /// packed obstacle grid (the set bits of `blocked` are the obstacles;
    /// the mesh is its mesh), copying each row as words with no per-node
    /// work. The sweep harness hands in [`crate::FaultSet::packed`]
    /// directly; an obstacle predicate packs once through
    /// [`BitGrid::from_blocked`]. A source that is blocked or off the
    /// mesh, or a corner off the mesh, gives a dead map that answers
    /// `false` everywhere, as the pair kernels do.
    pub fn from_packed(source: Coord, corner: Coord, blocked: &BitGrid) -> ReachMap {
        let mesh = blocked.mesh();
        let rect = Rect::point(source).expanded_to(corner);
        let live = mesh.contains(corner) && blocked.get(source) == Some(false);
        let mut grid = BitGrid::new(if live {
            Mesh::new(rect.width(), rect.height())
        } else {
            Mesh::new(1, 1)
        });
        if live {
            let rows = packed_rows(source, corner, blocked);
            with_scratch(|ws| {
                sweep_rect(source, corner, ws, rows, |ry, row| {
                    grid.row_mut(ry).copy_from_slice(row);
                })
            });
        }
        ReachMap {
            mesh,
            source,
            rect,
            live,
            grid,
        }
    }

    /// Whether a minimal path from the source to `v` exists — identical
    /// to [`crate::reach::minimal_path_exists`] for the same obstacle set.
    /// Off the mesh, and anywhere on a dead map, the answer is `false`.
    ///
    /// # Panics
    ///
    /// Panics if the map is live and `v` lies inside the mesh but outside
    /// its rectangle: the sweep never looked there, so any answer would be
    /// a guess.
    pub fn reachable(&self, v: Coord) -> bool {
        if !self.live || !self.mesh.contains(v) {
            return false;
        }
        assert!(
            self.rect.contains(v),
            "{v} lies outside the reach map's rectangle {}",
            self.rect
        );
        let rel = Coord::new((v.x - self.source.x).abs(), (v.y - self.source.y).abs());
        self.grid.get(rel) == Some(true)
    }
}

impl MemBytes for ReachMap {
    /// The packed grid: one bit per node of the rectangle, padded to
    /// whole words per row.
    fn mem_bytes(&self) -> u64 {
        self.grid.mem_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reach::minimal_path_exists;

    /// The four maps from `s` toward the corners of `mesh`: together they
    /// answer every node, and the source's row and column lie in two.
    fn corner_maps(s: Coord, packed: &BitGrid) -> [ReachMap; 4] {
        let (w, h) = (packed.mesh().width(), packed.mesh().height());
        [(0, 0), (w - 1, 0), (0, h - 1), (w - 1, h - 1)]
            .map(|corner| ReachMap::from_packed(s, Coord::from(corner), packed))
    }

    /// Every (pair oracle, map lookup) agrees with the scalar DP over all
    /// destinations from `s` under `blocked`; a node answers in every
    /// corner map whose rectangle holds it.
    fn assert_matches_scalar(mesh: &Mesh, s: Coord, blocked: impl Fn(Coord) -> bool + Copy) {
        let packed = BitGrid::from_blocked(*mesh, blocked);
        let maps = corner_maps(s, &packed);
        for d in mesh.nodes() {
            let want = minimal_path_exists(mesh, s, d, blocked);
            assert_eq!(
                minimal_path_exists_bits(mesh, s, d, blocked),
                want,
                "pair oracle s={s} d={d}"
            );
            assert_eq!(
                minimal_path_exists_packed(s, d, &packed),
                want,
                "packed pair oracle s={s} d={d}"
            );
            for map in maps.iter().filter(|m| m.rect.contains(d)) {
                assert_eq!(map.reachable(d), want, "map lookup s={s} d={d}");
            }
        }
    }

    #[test]
    fn reach_row_propagates_east_through_open_runs() {
        // One word: open 0b0111_0110, seed at bit 1 → bits 1..=2 reach,
        // the closed bit 3 stops the ripple, bits 4..=6 stay dark.
        let open = [0b0111_0110u64];
        let mut row = [0b0000_0010u64];
        reach_row(&open, &mut row);
        assert_eq!(row[0], 0b0000_0110);
    }

    #[test]
    fn reach_row_carries_across_word_boundaries() {
        // Open run covering bits 60..=63 of word 0 and 0..=2 of word 1,
        // seeded at bit 60: the carry must light up word 1's low run.
        let open = [0b1111u64 << 60, 0b0111u64];
        let mut row = [1u64 << 60, 0];
        reach_row(&open, &mut row);
        assert_eq!(row, [0b1111u64 << 60, 0b0111]);
        // Same shapes but word 1's bit 0 closed: the carry dies.
        let open = [0b1111u64 << 60, 0b0110u64];
        let mut row = [1u64 << 60, 0];
        reach_row(&open, &mut row);
        assert_eq!(row, [0b1111u64 << 60, 0]);
    }

    #[test]
    fn reach_row_multiple_seeds_in_one_run_survive() {
        // The naive `o & !(o + s)` identity drops the east seed; the xor
        // form must keep both.
        let open = [0b1111u64];
        let mut row = [0b0101u64];
        reach_row(&open, &mut row);
        assert_eq!(row[0], 0b1111);
    }

    #[test]
    fn from_packed_matches_scalar_on_odd_shapes() {
        for (w, h) in [(9, 9), (130, 4), (1, 7), (70, 1)] {
            let mesh = Mesh::new(w, h);
            let s = Coord::new(w / 2, h / 2);
            assert_matches_scalar(&mesh, s, |c| (c.x * 13 + c.y * 7) % 5 == 0 && c != s);
            // Blocked source: nothing reachable.
            let mut dead = BitGrid::new(mesh);
            dead.set(s, true);
            for map in corner_maps(s, &dead) {
                assert!(mesh.nodes().all(|d| !map.reachable(d)), "{w}x{h}");
            }
        }
    }

    #[test]
    fn matches_scalar_on_clear_and_walled_meshes() {
        let mesh = Mesh::square(9);
        assert_matches_scalar(&mesh, mesh.center(), |_| false);
        assert_matches_scalar(&mesh, mesh.center(), |c| c.x == 2);
        assert_matches_scalar(&mesh, Coord::new(0, 0), |c| {
            (c.x + c.y) % 3 == 0 && c != Coord::ORIGIN
        });
    }

    #[test]
    fn matches_scalar_across_word_boundary_widths() {
        for width in [63, 64, 65, 130] {
            let mesh = Mesh::new(width, 3);
            assert_matches_scalar(&mesh, Coord::new(1, 1), |c| c.x % 61 == 59);
        }
    }

    #[test]
    fn degenerate_rectangles() {
        // Single row: reachability is pure east/west propagation.
        let mesh = Mesh::new(70, 1);
        assert_matches_scalar(&mesh, Coord::new(35, 0), |c| c.x == 10 || c.x == 64);
        // Single column.
        let mesh = Mesh::new(1, 70);
        assert_matches_scalar(&mesh, Coord::new(0, 35), |c| c.y == 10 || c.y == 64);
    }

    #[test]
    fn blocked_or_outside_endpoints() {
        let mesh = Mesh::square(5);
        let s = Coord::new(2, 2);
        let blocked = |c: Coord| c == Coord::new(4, 4) || c == s;
        assert!(!minimal_path_exists_bits(
            &mesh,
            s,
            Coord::new(0, 0),
            blocked
        ));
        let packed = BitGrid::from_blocked(mesh, blocked);
        // Blocked source, off-mesh source and off-mesh corner: dead maps
        // answer `false` everywhere, off their rectangles too.
        for (from, corner) in [
            (s, Coord::new(4, 4)),
            (Coord::new(-1, 2), s),
            (s, Coord::new(9, 9)),
        ] {
            let map = ReachMap::from_packed(from, corner, &packed);
            assert!(
                mesh.nodes().all(|d| !map.reachable(d)),
                "{from} -> {corner}"
            );
            assert!(!map.reachable(Coord::new(9, 9)), "outside mesh");
        }
        // A live map answers `false` off the mesh, as the DP does.
        let open = Coord::new(1, 1);
        let map = ReachMap::from_packed(open, Coord::new(4, 4), &packed);
        assert!(map.reachable(open));
        assert!(!map.reachable(Coord::new(5, 5)), "outside mesh");
        assert!(!minimal_path_exists_bits(
            &mesh,
            Coord::new(0, 0),
            Coord::new(9, 9),
            |_| false
        ));
    }

    #[test]
    fn clear_rectangle_is_fully_reachable() {
        let mesh = Mesh::new(13, 7);
        let s = Coord::new(5, 3);
        let map = ReachMap::from_packed(s, Coord::new(0, 6), &BitGrid::new(mesh));
        assert_eq!(map.grid.mesh(), Mesh::new(6, 4));
        assert_eq!(map.grid.count_ones(), 6 * 4);
    }

    #[test]
    #[should_panic(expected = "lies outside the reach map's rectangle")]
    fn query_inside_mesh_outside_rectangle_panics() {
        let mesh = Mesh::square(8);
        let map = ReachMap::from_packed(Coord::new(3, 3), Coord::new(6, 6), &BitGrid::new(mesh));
        let _ = map.reachable(Coord::new(2, 4));
    }
}
