use std::mem::size_of;

use serde::{Deserialize, Serialize};

use crate::membytes::MemBytes;
use crate::{BitGrid, Coord, Mesh, Rect};

/// Sorted per-lane obstacle positions: the memory-lean alternative to a
/// dense per-node map.
///
/// A `LaneIndex` stores, for every row `y`, the ascending column indices
/// of the set bits of a packed obstacle grid, and for every column `x`
/// the ascending row indices. Any per-node quantity that is a pure
/// function of the node's row and column obstacle lists — notably the
/// extended safety level, whose four entries are the distances to the
/// nearest obstacle in each direction — can be answered from this index
/// with one binary search per direction instead of a dense lookup.
///
/// With `f` obstacles the index holds `2f` `u32` entries plus one spine
/// vector per lane, so at the paper's fault rates (hundreds of faults on
/// millions of nodes) it is orders of magnitude smaller than the dense
/// 16-byte-per-node safety map it replaces at giant mesh sizes.
///
/// # Examples
///
/// ```
/// use emr_mesh::{BitGrid, Coord, LaneIndex, Mesh};
///
/// let mesh = Mesh::new(100, 100);
/// let packed = BitGrid::from_blocked(mesh, |c| c.x == 40 && c.y == 7);
/// let lanes = LaneIndex::from_packed(&packed);
/// assert_eq!(lanes.row(7), &[40]);
/// assert_eq!(lanes.col(40), &[7]);
/// assert!(lanes.row(8).is_empty());
/// assert!(lanes.contains(Coord::new(40, 7)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneIndex {
    mesh: Mesh,
    rows: Vec<Vec<u32>>,
    cols: Vec<Vec<u32>>,
}

impl LaneIndex {
    /// Builds the index of every set bit of `packed` in one row-major
    /// pass (both the row and the column lists come out sorted for free).
    pub fn from_packed(packed: &BitGrid) -> LaneIndex {
        let mut index = LaneIndex {
            mesh: packed.mesh(),
            rows: Vec::new(),
            cols: Vec::new(),
        };
        index.refresh_from_packed(packed);
        index
    }

    /// Retargets this index to `packed`'s mesh and re-extracts every
    /// lane, reusing the existing lane allocations where possible.
    // emr-lint: allow(A1, "lane vectors are rebuilt to one entry per row and column of the packed grid")
    pub fn refresh_from_packed(&mut self, packed: &BitGrid) {
        let mesh = packed.mesh();
        self.mesh = mesh;
        self.rows.truncate(mesh.height() as usize);
        self.rows.resize_with(mesh.height() as usize, Vec::new);
        self.cols.truncate(mesh.width() as usize);
        self.cols.resize_with(mesh.width() as usize, Vec::new);
        for lane in self.rows.iter_mut().chain(self.cols.iter_mut()) {
            lane.clear();
        }
        for y in 0..mesh.height() {
            let yu = u32::try_from(y).unwrap_or(u32::MAX);
            scan_row(packed.row(y), |x| {
                self.rows[y as usize].push(x);
                self.cols[x as usize].push(yu);
            });
        }
    }

    /// Re-extracts only the lanes that cross `rect` (its rows and its
    /// columns) from `packed`, after a localized obstacle change. Lanes
    /// outside the rectangle are untouched.
    ///
    /// # Panics
    ///
    /// Panics if `packed` covers a different mesh than this index or
    /// `rect` is not contained in the mesh.
    pub fn refresh_rect(&mut self, packed: &BitGrid, rect: Rect) {
        assert_eq!(self.mesh, packed.mesh(), "mesh mismatch");
        assert!(
            self.mesh.contains(Coord::new(rect.x_min(), rect.y_min()))
                && self.mesh.contains(Coord::new(rect.x_max(), rect.y_max())),
            "{rect:?} outside {:?}",
            self.mesh
        );
        for y in rect.y_min()..=rect.y_max() {
            let lane = &mut self.rows[y as usize];
            lane.clear();
            scan_row(packed.row(y), |x| lane.push(x));
        }
        for x in rect.x_min()..=rect.x_max() {
            let wi = x as usize / 64;
            let bit = x.rem_euclid(64);
            let lane = &mut self.cols[x as usize];
            lane.clear();
            for y in 0..self.mesh.height() {
                if packed.row(y)[wi] >> bit & 1 == 1 {
                    lane.push(u32::try_from(y).unwrap_or(u32::MAX));
                }
            }
        }
    }

    /// The mesh this index covers.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// The ascending column indices of the obstacles in row `y`.
    ///
    /// # Panics
    ///
    /// Panics if `y` is outside the mesh.
    // emr-lint: allow(A1, "documented panic contract: asserts the row is in range before returning its lane")
    pub fn row(&self, y: i32) -> &[u32] {
        assert!(
            (0..self.mesh.height()).contains(&y),
            "row {y} outside {:?}",
            self.mesh
        );
        &self.rows[y as usize]
    }

    /// The ascending row indices of the obstacles in column `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside the mesh.
    // emr-lint: allow(A1, "documented panic contract: asserts the column is in range before returning its lane")
    pub fn col(&self, x: i32) -> &[u32] {
        assert!(
            (0..self.mesh.width()).contains(&x),
            "column {x} outside {:?}",
            self.mesh
        );
        &self.cols[x as usize]
    }

    /// Whether the node at `c` is an obstacle (a set bit of the source
    /// grid). `false` for coordinates outside the mesh.
    // emr-lint: allow(A1, "row() asserts the coordinate is in range; the binary search stays inside the lane")
    pub fn contains(&self, c: Coord) -> bool {
        self.mesh.contains(c)
            && self.rows[c.y as usize]
                .binary_search(&u32::try_from(c.x).unwrap_or(u32::MAX))
                .is_ok()
    }

    /// The total number of indexed obstacles.
    pub fn count(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }
}

impl MemBytes for LaneIndex {
    /// Two `u32` entries per obstacle plus one `Vec` spine per lane.
    fn mem_bytes(&self) -> u64 {
        let spine = (self.rows.len() + self.cols.len()) * size_of::<Vec<u32>>();
        let entries: usize = self
            .rows
            .iter()
            .chain(self.cols.iter())
            .map(|lane| lane.len() * size_of::<u32>())
            .sum();
        (spine + entries) as u64
    }
}

/// Calls `f` with the column index of every set bit of one packed row,
/// in ascending order.
fn scan_row(row: &[u64], mut f: impl FnMut(u32)) {
    for (wi, &word) in row.iter().enumerate() {
        let mut bits = word;
        let base = u32::try_from(wi).unwrap_or(u32::MAX) * 64;
        while bits != 0 {
            let b = bits.trailing_zeros();
            f(base + b);
            bits &= bits - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(mesh: Mesh) -> BitGrid {
        BitGrid::from_blocked(mesh, |c| (c.x * 31 + c.y * 17) % 9 < 2)
    }

    #[test]
    fn lanes_match_per_bit_reads() {
        // Widths straddling word boundaries, including degenerate lanes.
        for (w, h) in [(1, 1), (65, 3), (130, 5), (64, 64), (7, 70), (1, 130)] {
            let mesh = Mesh::new(w, h);
            let packed = pattern(mesh);
            let lanes = LaneIndex::from_packed(&packed);
            assert_eq!(lanes.mesh(), mesh);
            assert_eq!(lanes.count(), packed.count_ones(), "{w}x{h}");
            for c in mesh.nodes() {
                assert_eq!(lanes.contains(c), packed.get(c) == Some(true), "{c}");
            }
            for y in 0..h {
                let expect: Vec<u32> = (0..w)
                    .filter(|&x| packed.get(Coord::new(x, y)) == Some(true))
                    .map(|x| x as u32)
                    .collect();
                assert_eq!(lanes.row(y), expect, "{w}x{h} row {y}");
            }
            for x in 0..w {
                let expect: Vec<u32> = (0..h)
                    .filter(|&y| packed.get(Coord::new(x, y)) == Some(true))
                    .map(|y| y as u32)
                    .collect();
                assert_eq!(lanes.col(x), expect, "{w}x{h} col {x}");
            }
        }
    }

    #[test]
    fn refresh_rect_tracks_localized_changes() {
        let mesh = Mesh::new(130, 40);
        let mut packed = pattern(mesh);
        let mut lanes = LaneIndex::from_packed(&packed);
        // Flip a small patch of bits and refresh only its rectangle.
        let rect = Rect::new(62, 66, 10, 12);
        for y in rect.y_min()..=rect.y_max() {
            for x in rect.x_min()..=rect.x_max() {
                let c = Coord::new(x, y);
                let cur = packed.get(c) == Some(true);
                packed.set(c, !cur);
            }
        }
        lanes.refresh_rect(&packed, rect);
        assert_eq!(lanes, LaneIndex::from_packed(&packed));
    }

    #[test]
    fn refresh_from_packed_retargets_meshes() {
        let mut lanes = LaneIndex::from_packed(&pattern(Mesh::new(70, 9)));
        for (w, h) in [(3, 80), (130, 2), (64, 64)] {
            let packed = pattern(Mesh::new(w, h));
            lanes.refresh_from_packed(&packed);
            assert_eq!(lanes, LaneIndex::from_packed(&packed), "{w}x{h}");
        }
    }

    #[test]
    fn mem_bytes_counts_entries_and_spines() {
        let mesh = Mesh::new(10, 4);
        let packed = BitGrid::from_blocked(mesh, |c| c.x == c.y);
        let lanes = LaneIndex::from_packed(&packed);
        let spine = (4 + 10) as u64 * size_of::<Vec<u32>>() as u64;
        assert_eq!(lanes.mem_bytes(), spine + 2 * 4 * 4);
    }
}
