use serde::{Deserialize, Serialize};

use crate::{Coord, Mesh};

/// One bit per node of a [`Mesh`], packed row-major into `u64` words.
///
/// A `BitGrid` is the packed sibling of [`crate::Grid<bool>`]: each mesh row
/// occupies `⌈width / 64⌉` consecutive words, bit `x mod 64` of word
/// `x / 64` holds column `x`, and the unused tail bits of a row's last word
/// are always zero. The layout makes the monotone-reachability recurrence
/// word-parallel (64 columns per AND/OR/ADD — see `emr_fault::reach_bits`)
/// and turns whole-row set operations into short word loops.
///
/// # Examples
///
/// ```
/// use emr_mesh::{BitGrid, Coord, Mesh};
///
/// let mesh = Mesh::new(130, 3); // rows span three words
/// let mut g = BitGrid::new(mesh);
/// g.set(Coord::new(129, 2), true);
/// assert_eq!(g.get(Coord::new(129, 2)), Some(true));
/// assert_eq!(g.get(Coord::new(130, 2)), None); // outside the mesh
/// assert_eq!(g.count_ones(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitGrid {
    mesh: Mesh,
    words_per_row: usize,
    words: Vec<u64>,
}

/// Calls `f(p)` for every set bit position `p` of a packed lane (bit
/// `p mod 64` of word `p / 64`), ascending. Over [`BitGrid::row`] it
/// visits a row's set columns west to east.
///
/// # Examples
///
/// ```
/// use emr_mesh::for_each_set_bit;
///
/// let mut seen = Vec::new();
/// for_each_set_bit(&[0b1010, 1], |p| seen.push(p));
/// assert_eq!(seen, [1, 3, 64]);
/// ```
pub fn for_each_set_bit(lane: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &word) in lane.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(wi * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Words needed for `len` bits.
fn words_for(len: usize) -> usize {
    len.div_ceil(64)
}

/// A mask of the low `len mod 64` bits, or all ones when `len` fills its
/// last word exactly.
fn tail_mask(len: usize) -> u64 {
    let rem = len % 64;
    if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}

impl BitGrid {
    /// Creates an all-zero grid over `mesh`.
    pub fn new(mesh: Mesh) -> BitGrid {
        let words_per_row = words_for(mesh.width() as usize);
        BitGrid {
            mesh,
            words_per_row,
            words: vec![0; words_per_row * mesh.height() as usize],
        }
    }

    /// Builds a grid with the bit of every node for which `blocked`
    /// returns true set (the packed form of an obstacle predicate).
    pub fn from_blocked(mesh: Mesh, blocked: impl Fn(Coord) -> bool) -> BitGrid {
        let mut grid = BitGrid::new(mesh);
        let width = mesh.width() as usize;
        for y in 0..mesh.height() {
            let row = grid.row_mut(y);
            for (wi, word) in row.iter_mut().enumerate() {
                let mut bits = 0u64;
                let x0 = wi * 64;
                for b in 0..64.min(width - x0) {
                    // Row width fits i32 (mesh dimensions are i32), so the
                    // sum stays in range.
                    let x = i32::try_from(x0 + b).unwrap_or(i32::MAX);
                    if blocked(Coord::new(x, y)) {
                        bits |= 1u64 << b;
                    }
                }
                *word = bits;
            }
        }
        grid
    }

    /// Retargets this grid to `mesh` with every bit cleared, reusing the
    /// existing allocation when it is large enough.
    pub fn reset(&mut self, mesh: Mesh) {
        self.mesh = mesh;
        self.words_per_row = words_for(mesh.width() as usize);
        self.words.clear();
        self.words
            .resize(self.words_per_row * mesh.height() as usize, 0);
    }

    /// The mesh this grid covers.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// The number of `u64` words backing one row.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The bit at `c`, or `None` when `c` is outside the mesh.
    #[inline]
    // emr-lint: allow(A1, "the word offset is derived from a coordinate already checked by contains")
    pub fn get(&self, c: Coord) -> Option<bool> {
        self.mesh.contains(c).then(|| {
            let (wi, bit) = self.word_index(c);
            self.words[wi] >> bit & 1 == 1
        })
    }

    /// Sets the bit at `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is outside the mesh; use [`BitGrid::get`] for checked
    /// reads.
    #[inline]
    // emr-lint: allow(A1, "documented panic contract: asserts `c` is inside the grid before computing the word offset")
    pub fn set(&mut self, c: Coord, value: bool) {
        assert!(self.mesh.contains(c), "{c} outside {:?}", self.mesh);
        let (wi, bit) = self.word_index(c);
        if value {
            self.words[wi] |= 1u64 << bit;
        } else {
            self.words[wi] &= !(1u64 << bit);
        }
    }

    /// Sets the bit at `c` and reports whether it was already set — the
    /// claim primitive for per-direction link-occupancy planes: the first
    /// claimant of a link lane in a cycle sees `false`, every later
    /// requester sees `true`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is outside the mesh.
    #[inline]
    // emr-lint: allow(A1, "documented panic contract: asserts `c` is inside the grid before computing the word offset")
    pub fn test_and_set(&mut self, c: Coord) -> bool {
        assert!(self.mesh.contains(c), "{c} outside {:?}", self.mesh);
        let (wi, bit) = self.word_index(c);
        let prev = self.words[wi] >> bit & 1 == 1;
        self.words[wi] |= 1u64 << bit;
        prev
    }

    /// Sets every node's bit to `value` (tail bits stay zero).
    // emr-lint: allow(A1, "fill walks exactly the words the grid owns")
    pub fn fill(&mut self, value: bool) {
        if value {
            let mask = tail_mask(self.mesh.width() as usize);
            for y in 0..self.mesh.height() {
                let last = self.words_per_row - 1;
                let row = self.row_mut(y);
                for w in row.iter_mut() {
                    *w = u64::MAX;
                }
                row[last] &= mask;
            }
        } else {
            self.words.fill(0);
        }
    }

    /// The packed words of row `y`, bit `x mod 64` of word `x / 64` holding
    /// column `x`.
    ///
    /// # Panics
    ///
    /// Panics if `y` is outside the mesh.
    #[inline]
    // emr-lint: allow(A1, "documented panic contract: asserts the row is in range before slicing its words")
    pub fn row(&self, y: i32) -> &[u64] {
        let start = self.row_start(y);
        &self.words[start..start + self.words_per_row]
    }

    /// Mutable access to the packed words of row `y`. Callers must keep
    /// the row's unused tail bits zero.
    ///
    /// # Panics
    ///
    /// Panics if `y` is outside the mesh.
    // emr-lint: allow(A1, "documented panic contract: asserts the row is in range before slicing its words")
    pub fn row_mut(&mut self, y: i32) -> &mut [u64] {
        let start = self.row_start(y);
        &mut self.words[start..start + self.words_per_row]
    }

    /// The number of set bits over the whole grid.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Extracts column `x` as a packed bit vector: bit `y mod 64` of
    /// `dst[y / 64]` holds the node at `(x, y)`. All of `dst` is
    /// overwritten; bits at and beyond the mesh height are cleared.
    ///
    /// This is the column-direction counterpart of [`BitGrid::row`] for
    /// kernels that scan vertical lanes.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside the mesh or `dst` is shorter than
    /// `⌈height / 64⌉` words.
    pub fn column(&self, x: i32, dst: &mut [u64]) {
        assert!(
            (0..self.mesh.width()).contains(&x),
            "column {x} outside {:?}",
            self.mesh
        );
        let height = self.mesh.height() as usize;
        assert!(
            dst.len() >= words_for(height),
            "column destination too short"
        );
        for w in dst.iter_mut() {
            *w = 0;
        }
        let wi = x as usize / 64;
        let bit = x.rem_euclid(64);
        for y in 0..height {
            let b = self.words[y * self.words_per_row + wi] >> bit & 1;
            dst[y / 64] |= b << (y % 64);
        }
    }

    /// Copies the `len` bits at `(from.x .. from.x + len, from.y)` into
    /// `dst`, bit `j` of `dst` holding column `from.x + j`. Columns outside
    /// the mesh read as zero; `dst` bits at and beyond `len` are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `from.y` is outside the mesh, `len` is not positive, or
    /// `dst` is shorter than `⌈len / 64⌉` words.
    pub fn span_east(&self, from: Coord, len: i32, dst: &mut [u64]) {
        self.span(from, len, dst, false);
    }

    /// Copies the `len` bits at `(from.x - len + 1 ..= from.x, from.y)`
    /// into `dst` *in westward order*: bit `j` of `dst` holds column
    /// `from.x - j`. Columns outside the mesh read as zero; `dst` bits at
    /// and beyond `len` are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `from.y` is outside the mesh, `len` is not positive, or
    /// `dst` is shorter than `⌈len / 64⌉` words.
    pub fn span_west(&self, from: Coord, len: i32, dst: &mut [u64]) {
        self.span(from, len, dst, true);
    }

    // emr-lint: allow(A1, "documented panic contract: asserts len > 0 and dst.len() >= n before writing dst[n - 1]")
    fn span(&self, from: Coord, len: i32, dst: &mut [u64], west: bool) {
        assert!(len > 0, "span length must be positive");
        let len = len as usize;
        let n = words_for(len);
        assert!(
            (0..self.mesh.height()).contains(&from.y),
            "row {} outside {:?}",
            from.y,
            self.mesh
        );
        assert!(dst.len() >= n, "span destination too short");
        let mut offset = 0i64;
        for slot in dst.iter_mut().take(n) {
            // Word j of an eastward span covers source bits
            // [from.x + 64j, from.x + 64j + 63]; a westward span reads the
            // mirrored window [from.x - 64j - 63, from.x - 64j] and
            // reverses it so bit order matches travel order.
            *slot = if west {
                self.word_at(from.y, i64::from(from.x) - offset - 63)
                    .reverse_bits()
            } else {
                self.word_at(from.y, i64::from(from.x) + offset)
            };
            offset += 64;
        }
        dst[n - 1] &= tail_mask(len);
        for slot in dst.iter_mut().skip(n) {
            *slot = 0;
        }
    }

    /// The 64 bits of row `y` starting at column `start` (which may be
    /// negative or beyond the row; out-of-row columns read as zero).
    fn word_at(&self, y: i32, start: i64) -> u64 {
        let row = self.row(y);
        let wi = start.div_euclid(64);
        let sh = start.rem_euclid(64);
        let pick = |k: i64| -> u64 {
            usize::try_from(k)
                .ok()
                .and_then(|k| row.get(k))
                .copied()
                .unwrap_or(0)
        };
        let lo = pick(wi);
        if sh == 0 {
            lo
        } else {
            lo >> sh | pick(wi + 1) << (64 - sh)
        }
    }

    #[inline]
    fn row_start(&self, y: i32) -> usize {
        assert!(
            (0..self.mesh.height()).contains(&y),
            "row {y} outside {:?}",
            self.mesh
        );
        y as usize * self.words_per_row
    }

    #[inline]
    fn word_index(&self, c: Coord) -> (usize, i32) {
        (self.row_start(c.y) + c.x as usize / 64, c.x.rem_euclid(64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reference span built bit by bit through `get`.
    fn naive_span(g: &BitGrid, from: Coord, len: i32, west: bool) -> Vec<u64> {
        let mut out = vec![0u64; (len as usize).div_ceil(64)];
        for j in 0..len {
            let x = if west { from.x - j } else { from.x + j };
            if g.get(Coord::new(x, from.y)) == Some(true) {
                out[j as usize / 64] |= 1u64 << (j % 64);
            }
        }
        out
    }

    #[test]
    fn set_get_roundtrip_across_word_boundaries() {
        let mesh = Mesh::new(200, 3);
        let mut g = BitGrid::new(mesh);
        for x in [0, 1, 63, 64, 65, 127, 128, 199] {
            g.set(Coord::new(x, 1), true);
        }
        for x in 0..200 {
            let expect = [0, 1, 63, 64, 65, 127, 128, 199].contains(&x);
            assert_eq!(g.get(Coord::new(x, 1)), Some(expect), "x={x}");
            assert_eq!(g.get(Coord::new(x, 0)), Some(false));
        }
        assert_eq!(g.count_ones(), 8);
        g.set(Coord::new(64, 1), false);
        assert_eq!(g.get(Coord::new(64, 1)), Some(false));
        assert_eq!(g.count_ones(), 7);
    }

    #[test]
    fn get_outside_is_none() {
        let g = BitGrid::new(Mesh::new(5, 4));
        assert_eq!(g.get(Coord::new(5, 0)), None);
        assert_eq!(g.get(Coord::new(0, 4)), None);
        assert_eq!(g.get(Coord::new(-1, 2)), None);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn set_outside_panics() {
        let mut g = BitGrid::new(Mesh::new(5, 4));
        g.set(Coord::new(5, 0), true);
    }

    #[test]
    fn from_blocked_matches_predicate() {
        // Width 130 exercises a partial tail word.
        let mesh = Mesh::new(130, 4);
        let pred = |c: Coord| (c.x + 3 * c.y) % 7 == 0;
        let g = BitGrid::from_blocked(mesh, pred);
        for c in mesh.nodes() {
            assert_eq!(g.get(c), Some(pred(c)), "{c}");
        }
        assert_eq!(g.count_ones(), mesh.nodes().filter(|&c| pred(c)).count());
    }

    #[test]
    fn fill_keeps_tail_bits_clear() {
        for width in [1, 63, 64, 65, 128, 130] {
            let mesh = Mesh::new(width, 2);
            let mut g = BitGrid::new(mesh);
            g.fill(true);
            assert_eq!(g.count_ones(), mesh.node_count(), "width {width}");
            for c in mesh.nodes() {
                assert_eq!(g.get(c), Some(true));
            }
            g.fill(false);
            assert_eq!(g.count_ones(), 0);
        }
    }

    #[test]
    fn reset_reuses_and_clears() {
        let mut g = BitGrid::from_blocked(Mesh::new(70, 3), |_| true);
        g.reset(Mesh::new(66, 2));
        assert_eq!(g.mesh(), Mesh::new(66, 2));
        assert_eq!(g.count_ones(), 0);
        assert_eq!(g.words_per_row(), 2);
        // Growing again still starts from zero.
        g.reset(Mesh::new(129, 5));
        assert_eq!(g.count_ones(), 0);
        assert_eq!(g.words_per_row(), 3);
    }

    #[test]
    fn row_slices_are_word_aligned() {
        let mesh = Mesh::new(65, 3);
        let mut g = BitGrid::new(mesh);
        g.set(Coord::new(64, 1), true);
        g.set(Coord::new(0, 2), true);
        assert_eq!(g.row(0), &[0, 0]);
        assert_eq!(g.row(1), &[0, 1]);
        assert_eq!(g.row(2), &[1, 0]);
        g.row_mut(0)[0] = 0b110;
        assert_eq!(g.get(Coord::new(1, 0)), Some(true));
        assert_eq!(g.get(Coord::new(2, 0)), Some(true));
    }

    #[test]
    fn spans_match_naive_extraction() {
        let mesh = Mesh::new(150, 3);
        let g = BitGrid::from_blocked(mesh, |c| (c.x * 31 + c.y * 17) % 5 < 2);
        let mut dst = vec![0u64; 3];
        for &x0 in &[0, 1, 63, 64, 70, 149] {
            for &len in &[1, 2, 63, 64, 65, 128, 150] {
                let from = Coord::new(x0, 1);
                g.span_east(from, len, &mut dst);
                assert_eq!(
                    dst[..(len as usize).div_ceil(64)],
                    naive_span(&g, from, len, false),
                    "east x0={x0} len={len}"
                );
                g.span_west(from, len, &mut dst);
                assert_eq!(
                    dst[..(len as usize).div_ceil(64)],
                    naive_span(&g, from, len, true),
                    "west x0={x0} len={len}"
                );
            }
        }
    }

    #[test]
    fn spans_read_zero_outside_the_mesh() {
        let mesh = Mesh::new(10, 2);
        let g = BitGrid::from_blocked(mesh, |_| true);
        let mut dst = vec![u64::MAX; 2];
        // Eastward span runs off the east edge: only 10 in-mesh columns.
        g.span_east(Coord::new(0, 0), 64, &mut dst);
        assert_eq!(dst[0], (1 << 10) - 1);
        // Westward span runs off the west edge from column 3.
        g.span_west(Coord::new(3, 1), 64, &mut dst);
        assert_eq!(dst[0], 0b1111);
        // And the tail words beyond the span are cleared.
        g.span_east(Coord::new(0, 0), 10, &mut dst);
        assert_eq!(dst[1], 0);
    }

    #[test]
    fn column_matches_per_bit_reads() {
        // Heights straddling the word boundary, including 1×n and n×1.
        for (width, height) in [(5, 63), (3, 64), (2, 65), (1, 130), (130, 1), (67, 70)] {
            let mesh = Mesh::new(width, height);
            let g = BitGrid::from_blocked(mesh, |c| (c.x * 7 + c.y * 13) % 5 < 2);
            let words = (height as usize).div_ceil(64);
            let mut dst = vec![u64::MAX; words + 1];
            for x in 0..width {
                g.column(x, &mut dst);
                for y in 0..height {
                    let got = dst[y as usize / 64] >> (y % 64) & 1 == 1;
                    assert_eq!(Some(got), g.get(Coord::new(x, y)), "x={x} y={y}");
                }
                // Bits at and beyond the height — and whole extra words —
                // must come back cleared.
                if height % 64 != 0 {
                    assert_eq!(dst[words - 1] & !tail_mask(height as usize), 0);
                }
                assert_eq!(dst[words], 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn column_outside_panics() {
        let g = BitGrid::new(Mesh::new(4, 4));
        g.column(4, &mut [0u64]);
    }

    #[test]
    fn span_clears_bits_beyond_len() {
        let g = BitGrid::from_blocked(Mesh::new(100, 1), |_| true);
        let mut dst = vec![u64::MAX; 2];
        g.span_east(Coord::new(0, 0), 65, &mut dst);
        assert_eq!(dst[1], 1, "bits past len must be cleared");
    }

    #[test]
    fn test_and_set_reports_prior_claim() {
        let mut g = BitGrid::new(Mesh::new(130, 2));
        let c = Coord::new(100, 1);
        assert!(!g.test_and_set(c), "first claim must see a free lane");
        assert!(g.test_and_set(c), "second claim must see it taken");
        assert_eq!(g.get(c), Some(true));
        assert_eq!(g.count_ones(), 1);
    }
}
