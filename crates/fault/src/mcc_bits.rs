//! Word-parallel Definition-2 (MCC) label sweeps.
//!
//! Each MCC label plane has the rule "fault-free node whose two `dirs`
//! neighbors are both faulty-or-labeled", with one vertical and one
//! horizontal direction per plane. The scalar sweep in [`crate::mcc`]
//! visits nodes one at a time in an order where both neighbors are final;
//! this module keeps exactly that order but processes 64 columns per word
//! operation:
//!
//! For a row `y` whose vertical `dirs` neighbor row `yn` is already
//! labeled (packed faulty bits `f`, packed labels `l`):
//!
//! ```text
//! elig  = !f(y) & (f(yn) | l(yn))     // vertical condition holds
//! seeds = elig & shift(f(y))          // horizontal neighbor faulty now
//! l(y)  = directional_fill(elig, seeds)
//! ```
//!
//! The fill runs *against* the horizontal direction (an east-facing rule
//! propagates labels westward: a node gains the label when its **east**
//! neighbor has it), so plane `{N, E}` uses [`reach_row_west`] and plane
//! `{N, W}` uses [`reach_row`]. One pass per plane reaches the fix-point,
//! exactly like the scalar sweep — the `mcc-bits-matches-scalar` conform
//! oracle and the in-crate differential tests pin the equivalence.

use emr_mesh::{BitGrid, Direction};

use crate::reach_bits::{reach_row, reach_row_west, shift_east_row, shift_west_row};

/// Computes one label plane into `out` (retargeted to `f`'s mesh).
/// `dirs` holds exactly one vertical and one horizontal direction. Sweeps
/// the rows once in the plane's order, with `elig` and `seeds` as its
/// row-sized scratch buffers.
// emr-lint: allow(A1, "word indices are bounded by words_per_row * height, the exact size of every plane buffer")
pub(crate) fn label_plane(
    f: &BitGrid,
    dirs: [Direction; 2],
    out: &mut BitGrid,
    elig: &mut Vec<u64>,
    seeds: &mut Vec<u64>,
) {
    let mesh = f.mesh();
    out.reset(mesh);
    let wpr = f.words_per_row();
    // The vertical rule neighbor must be final before its dependent row:
    // a North rule looks at y+1, so rows run top-down; South bottom-up.
    let y_rev = dirs.contains(&Direction::North);
    let h_east = dirs.contains(&Direction::East);
    let rows = mesh.height();
    elig.clear();
    elig.resize(wpr, 0);
    seeds.clear();
    seeds.resize(wpr, 0);
    for yi in 0..rows {
        let y = if y_rev { rows - 1 - yi } else { yi };
        let yn = if y_rev { y + 1 } else { y - 1 };
        if !(0..rows).contains(&yn) {
            continue; // off-mesh neighbors are fault-free: no labels
        }
        let frow = f.row(y);
        // elig: not faulty, vertical neighbor faulty-or-labeled. `!frow`
        // raises tail bits, but the neighbor rows' tails are zero.
        for (i, e) in elig.iter_mut().enumerate() {
            *e = !frow[i] & (f.row(yn)[i] | out.row(yn)[i]);
        }
        // seeds: the horizontal neighbor is faulty outright. Labeled
        // horizontal neighbors are handled by the fill below.
        if h_east {
            shift_west_row(frow, seeds);
        } else {
            shift_east_row(frow, seeds);
        }
        let mut any = 0u64;
        for (s, &e) in seeds.iter_mut().zip(elig.iter()) {
            *s &= e;
            any |= *s;
        }
        if any == 0 {
            continue;
        }
        // Labels chain against the horizontal direction through elig runs.
        if h_east {
            reach_row_west(elig, seeds);
        } else {
            reach_row(elig, seeds);
        }
        out.row_mut(y).copy_from_slice(seeds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emr_mesh::{Coord, Mesh};

    #[test]
    fn corner_pocket_labels_type_one_useless() {
        // Faults at (2,3) and (3,2): (2,2) has its north and east
        // neighbors faulty → labeled under the {N, E} plane.
        let mesh = Mesh::square(5);
        let mut f = BitGrid::new(mesh);
        f.set(Coord::new(2, 3), true);
        f.set(Coord::new(3, 2), true);
        let mut out = BitGrid::new(Mesh::new(1, 1));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        label_plane(
            &f,
            [Direction::North, Direction::East],
            &mut out,
            &mut a,
            &mut b,
        );
        assert_eq!(out.get(Coord::new(2, 2)), Some(true));
        assert_eq!(out.count_ones(), 1);
        // The mirrored {N, W} plane labels nothing here.
        label_plane(
            &f,
            [Direction::North, Direction::West],
            &mut out,
            &mut a,
            &mut b,
        );
        assert_eq!(out.count_ones(), 0);
    }

    #[test]
    fn staircase_chains_through_the_fill() {
        // The diagonal staircase from the scalar tests: pockets chain.
        let mesh = Mesh::square(6);
        let mut f = BitGrid::new(mesh);
        for (x, y) in [(1, 4), (2, 3), (3, 2), (4, 1)] {
            f.set(Coord::new(x, y), true);
        }
        let mut out = BitGrid::new(Mesh::new(1, 1));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        label_plane(
            &f,
            [Direction::North, Direction::East],
            &mut out,
            &mut a,
            &mut b,
        );
        for (x, y) in [(1, 3), (2, 2), (3, 1)] {
            assert_eq!(out.get(Coord::new(x, y)), Some(true), "({x},{y})");
        }
        label_plane(
            &f,
            [Direction::South, Direction::West],
            &mut out,
            &mut a,
            &mut b,
        );
        for (x, y) in [(2, 4), (3, 3), (4, 2)] {
            assert_eq!(out.get(Coord::new(x, y)), Some(true), "({x},{y})");
        }
    }
}
