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
//! Two oracles sit on top of [`reach_row`]:
//!
//! * [`minimal_path_exists_bits`] — drop-in replacement for
//!   [`crate::reach::minimal_path_exists`], same per-pair O(area) shape
//!   but ~64 columns per instruction, and
//! * [`ReachMap`] — four quadrant sweeps from one source answering
//!   reachability to **every** node, after which each query is an O(1)
//!   bit lookup. Build it whenever several destinations share a source.

use emr_mesh::{BitGrid, Coord, MemBytes, Mesh, Quadrant};

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

/// The westward mirror of [`reach_row`]: propagation runs toward *lower*
/// bit indices. Implemented by bit-reversing each word and walking the
/// words high to low, so the same adder carry chain applies; the carry
/// now ripples from a word's bit 0 into the previous word's bit 63.
///
/// Used by the construction kernels (the `block_bits` and `mcc_bits`
/// fix-points) whose fills run in mesh coordinates rather than
/// the source-relative frames of the reach sweeps (those mirror the
/// coordinates instead, keeping every fill eastward).
pub fn reach_row_west(open: &[u64], row: &mut [u64]) {
    debug_assert_eq!(open.len(), row.len());
    let mut carry = false;
    for (r, &o) in row.iter_mut().rev().zip(open.iter().rev()) {
        let o = o.reverse_bits();
        let seed = r.reverse_bits() & o;
        let (t, c1) = o.overflowing_add(seed);
        let (t, c2) = t.overflowing_add(u64::from(carry));
        carry = c1 || c2;
        *r = ((o & (t ^ o)) | seed).reverse_bits();
    }
}

/// `dst[x+1] = src[x]` across the whole packed row (shift one column
/// east), rippling across word boundaries. Bits shifted past the last
/// word are dropped; callers mask against an in-mesh lane, so a bit
/// pushed into a row's tail position is harmless.
pub fn shift_east_row(src: &[u64], dst: &mut [u64]) {
    debug_assert_eq!(src.len(), dst.len());
    let mut carry = 0u64;
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = s << 1 | carry;
        carry = s >> 63;
    }
}

/// `dst[x-1] = src[x]` across the whole packed row (shift one column
/// west), rippling across word boundaries; bit 0 is dropped.
pub fn shift_west_row(src: &[u64], dst: &mut [u64]) {
    debug_assert_eq!(src.len(), dst.len());
    let mut carry = 0u64;
    for (d, &s) in dst.iter_mut().zip(src).rev() {
        *d = s >> 1 | carry << 63;
        carry = s & 1;
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
    with_scratch(|ws| pair_bits(mesh, s, d, blocked, ws))
}

/// The body of [`minimal_path_exists_bits`] on this thread's scratch
/// rows. A function rather than the `with_scratch` closure body: as a
/// closure, the per-bit `blocked` loop compiled to slower code (about
/// 10% on the serve reach span).
// emr-lint: allow(A1, "frontier and obstacle rows share the packed width, so word offsets are always in range")
fn pair_bits(
    mesh: &Mesh,
    s: Coord,
    d: Coord,
    blocked: impl Fn(Coord) -> bool,
    ws: &mut Workspace,
) -> bool {
    if !mesh.contains(s) || !mesh.contains(d) || blocked(s) || blocked(d) {
        return false;
    }
    let q = Quadrant::of(s, d);
    let xs = if q.x_positive() { 1 } else { -1 };
    let ys = if q.y_positive() { 1 } else { -1 };
    let dx = (d.x - s.x).abs();
    let dy = (d.y - s.y).abs();
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
        let ay = s.y + ys * ry;
        fill_open_row(row_open, width, |rx| {
            !blocked(Coord::new(s.x + xs * rx, ay))
        });
        reach_row(row_open, row_cur);
        if row_cur.iter().all(|&w| w == 0) {
            return false; // a sealed row kills every monotone path
        }
    }
    row_cur[dx as usize / 64] >> (dx % 64) & 1 == 1
}

/// Reachability from one source to **every** node of the mesh.
///
/// Four word-parallel quadrant sweeps (one per [`Quadrant`], each in the
/// source-relative frame with the axes mirrored toward the quadrant) fill
/// four packed [`BitGrid`]s; afterwards [`ReachMap::reachable`] is an O(1)
/// bit lookup. This is the batched ground-truth oracle: when many
/// destinations share a source — the sweep engine's per-trial series, the
/// conformance oracles, the epoch rebuild baseline — one `ReachMap` build
/// replaces a per-pair DP per destination.
///
/// # Examples
///
/// ```
/// use emr_mesh::{Coord, Mesh};
/// use emr_fault::reach_bits::ReachMap;
/// use emr_fault::reach::minimal_path_exists;
///
/// let mesh = Mesh::square(9);
/// let blocked = |c: Coord| c.x == 4 && c.y >= 2;
/// let map = ReachMap::from_source(&mesh, mesh.center(), blocked);
/// for d in mesh.nodes() {
///     assert_eq!(
///         map.reachable(d),
///         minimal_path_exists(&mesh, mesh.center(), d, blocked),
///     );
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ReachMap {
    mesh: Mesh,
    source: Coord,
    /// False when the source itself is blocked or outside the mesh — then
    /// nothing is reachable and the grids stay empty.
    live: bool,
    /// Per-quadrant reach bits in *relative* coordinates `(|dx|, |dy|)`,
    /// indexed I, II, III, IV. Relative frames keep the row write-back a
    /// plain word copy — no per-row bit reversal for the mirrored sweeps.
    grids: [BitGrid; 4],
}

impl ReachMap {
    /// Builds the map for the obstacle predicate `blocked`, packing it
    /// once (one closure call per node) into this thread's scratch grid;
    /// the four sweeps then run purely on words.
    pub fn from_source(mesh: &Mesh, source: Coord, blocked: impl Fn(Coord) -> bool) -> ReachMap {
        let live = mesh.contains(source) && !blocked(source);
        with_scratch(|ws| {
            let Workspace {
                packed,
                row_open,
                row_cur,
                ..
            } = ws;
            if live {
                packed.refill_from_blocked(*mesh, &blocked);
            }
            ReachMap::sweep(*mesh, source, live, packed, row_open, row_cur)
        })
    }

    /// Builds the map from an already-packed obstacle grid — no per-node
    /// predicate calls at all, so the whole build runs at word speed.
    /// This is the per-trial fast path: the sweep harness hands in
    /// [`crate::FaultSet::packed`] directly.
    pub fn from_packed(source: Coord, blocked: &BitGrid) -> ReachMap {
        let mesh = blocked.mesh();
        let live = mesh.contains(source) && blocked.get(source) == Some(false);
        with_scratch(|ws| {
            ReachMap::sweep(
                mesh,
                source,
                live,
                blocked,
                &mut ws.row_open,
                &mut ws.row_cur,
            )
        })
    }

    /// Runs the four quadrant sweeps over `packed` when `live`; a dead
    /// map keeps empty grids.
    fn sweep(
        mesh: Mesh,
        source: Coord,
        live: bool,
        packed: &BitGrid,
        row_open: &mut Vec<u64>,
        row_cur: &mut Vec<u64>,
    ) -> ReachMap {
        let mut grids: [BitGrid; 4] = std::array::from_fn(|_| BitGrid::new(Mesh::new(1, 1)));
        if live {
            for (grid, &q) in grids.iter_mut().zip(Quadrant::ALL.iter()) {
                sweep_quadrant(grid, q, source, mesh, packed, row_open, row_cur);
            }
        }
        ReachMap {
            mesh,
            source,
            live,
            grids,
        }
    }

    /// The source this map was built from.
    pub fn source(&self) -> Coord {
        self.source
    }

    /// The mesh this map covers.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// Whether a minimal path from the source to `d` exists — identical
    /// to [`crate::reach::minimal_path_exists`] for the same obstacle set.
    pub fn reachable(&self, d: Coord) -> bool {
        if !self.live || !self.mesh.contains(d) {
            return false;
        }
        let q = Quadrant::of(self.source, d);
        let rel = Coord::new((d.x - self.source.x).abs(), (d.y - self.source.y).abs());
        let gi = match q {
            Quadrant::I => 0,
            Quadrant::II => 1,
            Quadrant::III => 2,
            Quadrant::IV => 3,
        };
        self.grids[gi].get(rel) == Some(true)
    }

    /// The number of mesh nodes reachable from the source (the source
    /// itself included when it is open).
    pub fn count_reachable(&self) -> usize {
        self.mesh.nodes().filter(|&d| self.reachable(d)).count()
    }
}

impl MemBytes for ReachMap {
    /// The four packed quadrant grids (together about one bit per node
    /// plus the overlap of the shared source row and column).
    fn mem_bytes(&self) -> u64 {
        self.grids.iter().map(MemBytes::mem_bytes).sum()
    }
}

/// One quadrant's reachability sweep: resets `grid` to the quadrant's
/// relative frame and fills it row by row with the carry-chain kernel.
/// `row_open`/`row_cur` are row-sized scratch buffers.
fn sweep_quadrant(
    grid: &mut BitGrid,
    q: Quadrant,
    source: Coord,
    mesh: Mesh,
    packed: &BitGrid,
    row_open: &mut Vec<u64>,
    row_cur: &mut Vec<u64>,
) {
    let ys = if q.y_positive() { 1 } else { -1 };
    let qw = if q.x_positive() {
        mesh.width() - source.x
    } else {
        source.x + 1
    };
    let qh = if q.y_positive() {
        mesh.height() - source.y
    } else {
        source.y + 1
    };
    grid.reset(Mesh::new(qw, qh));
    let words = grid.words_per_row();
    row_open.clear();
    row_open.resize(words, 0);
    row_cur.clear();
    row_cur.resize(words, 0);
    row_cur[0] = 1; // the source seeds its own row
    for ry in 0..qh {
        let from = Coord::new(source.x, source.y + ys * ry);
        if q.x_positive() {
            packed.span_east(from, qw, row_open);
        } else {
            packed.span_west(from, qw, row_open);
        }
        // The packed grid holds *blocked* bits; open = complement
        // within the quadrant width.
        for w in row_open.iter_mut() {
            *w = !*w;
        }
        row_open[words - 1] &= low_mask(qw);
        reach_row(row_open, row_cur);
        if row_cur.iter().all(|&w| w == 0) {
            break; // rows beyond a sealed row stay all-zero
        }
        grid.row_mut(ry).copy_from_slice(row_cur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reach::minimal_path_exists;

    /// Every (pair oracle, map lookup) agrees with the scalar DP over all
    /// destinations from `s` under `blocked`.
    fn assert_matches_scalar(mesh: &Mesh, s: Coord, blocked: impl Fn(Coord) -> bool + Copy) {
        let map = ReachMap::from_source(mesh, s, blocked);
        for d in mesh.nodes() {
            let want = minimal_path_exists(mesh, s, d, blocked);
            assert_eq!(
                minimal_path_exists_bits(mesh, s, d, blocked),
                want,
                "pair oracle s={s} d={d}"
            );
            assert_eq!(map.reachable(d), want, "map lookup s={s} d={d}");
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
    fn reach_row_west_propagates_toward_bit_zero() {
        // Open 0b0110_1110, seed at bit 3 → bits 1..=3 light up; the
        // closed bit 0 and the gap at bit 4 stop the fill.
        let open = [0b0110_1110u64];
        let mut row = [0b0000_1000u64];
        reach_row_west(&open, &mut row);
        assert_eq!(row[0], 0b0000_1110);
    }

    #[test]
    fn reach_row_west_carries_across_word_boundaries() {
        // Open run covering bits 62..=63 of word 0 and 0..=1 of word 1,
        // seeded at word 1 bit 1: the borrow must light word 0's high run.
        let open = [0b11u64 << 62, 0b11u64];
        let mut row = [0, 0b10u64];
        reach_row_west(&open, &mut row);
        assert_eq!(row, [0b11u64 << 62, 0b11]);
        // Close word 0's bit 63: the cross-word fill dies.
        let open = [0b01u64 << 62, 0b11u64];
        let mut row = [0, 0b10u64];
        reach_row_west(&open, &mut row);
        assert_eq!(row, [0, 0b11]);
    }

    #[test]
    fn reach_row_west_mirrors_reach_row() {
        // On mirrored inputs the two kernels must produce mirrored output.
        let open = [0x00FF_33AA_0F0F_5935u64, 0xFFF0_0F0F_1234_9ABCu64];
        let seeds = [
            open[0] & 0x0000_1200_0101_0010u64,
            open[1] & 0x0100_0001_0200_1000u64,
        ];
        let mut east = seeds;
        reach_row(&open, &mut east);
        // Build the bit-reversed, word-swapped mirror.
        let open_m = [open[1].reverse_bits(), open[0].reverse_bits()];
        let mut west = [seeds[1].reverse_bits(), seeds[0].reverse_bits()];
        reach_row_west(&open_m, &mut west);
        assert_eq!(west, [east[1].reverse_bits(), east[0].reverse_bits()]);
    }

    #[test]
    fn shift_rows_move_bits_across_words() {
        let src = [1u64 << 63, 0b1u64];
        let mut dst = [0u64; 2];
        shift_east_row(&src, &mut dst);
        assert_eq!(dst, [0, 0b11], "bit 63 carries into word 1's bit 0");
        shift_west_row(&src, &mut dst);
        assert_eq!(
            dst,
            [1 << 62 | 1 << 63, 0],
            "word 1's bit 0 carries into bit 63"
        );
        let src = [0b1u64, 0];
        shift_west_row(&src, &mut dst);
        assert_eq!(dst, [0, 0], "bit 0 falls off the west edge");
    }

    #[test]
    fn from_packed_matches_closure_build() {
        use emr_mesh::BitGrid;
        for (w, h) in [(9, 9), (130, 4), (1, 7), (70, 1)] {
            let mesh = Mesh::new(w, h);
            let blocked = |c: Coord| (c.x * 13 + c.y * 7) % 5 == 0 && c != Coord::new(w / 2, h / 2);
            let packed = BitGrid::from_blocked(mesh, blocked);
            let s = Coord::new(w / 2, h / 2);
            let from_closure = ReachMap::from_source(&mesh, s, blocked);
            let from_packed = ReachMap::from_packed(s, &packed);
            for d in mesh.nodes() {
                assert_eq!(
                    from_packed.reachable(d),
                    from_closure.reachable(d),
                    "{w}x{h} d={d}"
                );
            }
            // Blocked source: nothing reachable.
            let mut dead = BitGrid::new(mesh);
            dead.set(s, true);
            assert_eq!(ReachMap::from_packed(s, &dead).count_reachable(), 0);
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
        let map = ReachMap::from_source(&mesh, s, blocked);
        assert_eq!(map.count_reachable(), 0, "blocked source reaches nothing");
        assert!(!map.reachable(Coord::new(9, 9)), "outside mesh");
        assert!(!minimal_path_exists_bits(
            &mesh,
            Coord::new(0, 0),
            Coord::new(9, 9),
            |_| false
        ));
    }

    #[test]
    fn count_reachable_on_clear_mesh_is_node_count() {
        let mesh = Mesh::new(13, 7);
        let map = ReachMap::from_source(&mesh, Coord::new(5, 3), |_| false);
        assert_eq!(map.count_reachable(), mesh.node_count());
    }
}
