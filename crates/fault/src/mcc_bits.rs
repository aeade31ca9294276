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
/// `dirs` holds exactly one vertical and one horizontal direction;
/// `bands` is clamped to the mesh height.
///
/// One band sweeps the rows once in the plane's order, with `elig` and
/// `seeds` as its row-sized scratch buffers. More bands split `out` into
/// horizontal bands of whole rows labeled on scoped threads, repeating
/// rounds with frozen halo rows until nothing changes (each band
/// allocates its own row buffers).
///
/// Each band sweeps its rows in the plane's order (Gauss–Seidel within
/// the band: in-band dependency rows are already final this round) and
/// reads its one out-of-band dependency row — the row past the band in
/// the sweep direction — from a halo frozen at round start. Labels only
/// grow between rounds (the rule is monotone in the neighbor row), so a
/// round that changes nothing has every row equal to the rule applied to
/// its true neighbor row: the unique fix-point, which induction along
/// the sweep direction shows is exactly the single-band result.
/// Information crosses one band boundary per round, so at most `bands`
/// rounds run. The skip-empty-seed shortcut stays sound under
/// re-relaxation because recomputed seeds are a superset of the stored
/// row: empty seeds imply the stored row was empty too.
// emr-lint: allow(A1, "word indices are bounded by words_per_row * height, the exact size of every plane buffer, and band bounds come from row_bands_mut")
pub(crate) fn label_plane(
    f: &BitGrid,
    dirs: [Direction; 2],
    out: &mut BitGrid,
    bands: usize,
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
    let height = mesh.height() as usize;
    let rows_per_band = height.div_ceil(bands.clamp(1, height));
    let n_bands = height.div_ceil(rows_per_band);
    if n_bands == 1 {
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
            // elig: not faulty, vertical neighbor faulty-or-labeled.
            // `!frow` raises tail bits, but the neighbor rows' tails are
            // zero.
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
            // Labels chain against the horizontal direction through elig
            // runs.
            if h_east {
                reach_row_west(elig, seeds);
            } else {
                reach_row(elig, seeds);
            }
            out.row_mut(y).copy_from_slice(seeds);
        }
        return;
    }
    // One frozen dependency halo row per band per round.
    let mut halo = vec![0u64; n_bands * wpr];
    loop {
        for b in 0..n_bands {
            let r0 = b * rows_per_band;
            let r1 = (r0 + rows_per_band).min(height);
            let dst = &mut halo[b * wpr..(b + 1) * wpr];
            // A North-rule sweep runs top-down: the band's edge row r1−1
            // depends on row r1. A South-rule sweep depends on r0−1.
            let src = if y_rev {
                (r1 < height).then_some(r1)
            } else {
                r0.checked_sub(1)
            };
            match src {
                Some(y) => dst.copy_from_slice(out.row(i32::try_from(y).unwrap_or(i32::MAX))),
                None => dst.fill(0),
            }
        }
        let mut changed = false;
        std::thread::scope(|s| {
            let workers: Vec<_> = out
                .row_bands_mut(rows_per_band)
                .zip(halo.chunks(wpr))
                .enumerate()
                .map(|(b, (band, halo_row))| {
                    let r0 = b * rows_per_band;
                    s.spawn(move || label_band(f, band, r0, halo_row, y_rev, h_east))
                })
                .collect();
            for w in workers {
                // Forward band-worker panics verbatim so the original
                // failure (not a join wrapper) reaches the caller.
                changed |= match w.join() {
                    Ok(c) => c,
                    Err(payload) => std::panic::resume_unwind(payload),
                };
            }
        });
        if !changed {
            break;
        }
    }
}

/// One round of label relaxation over one band of whole rows; the
/// per-row body mirrors [`label_plane`]'s single-band sweep, with the
/// out-of-band dependency row read from `halo`. Returns whether any row
/// changed.
// emr-lint: allow(A1, "the band label loop only touches rows y0..y1 handed to it by the banded driver")
fn label_band(
    f: &BitGrid,
    band: &mut [u64],
    r0: usize,
    halo: &[u64],
    y_rev: bool,
    h_east: bool,
) -> bool {
    let height = f.mesh().height() as usize;
    let wpr = f.words_per_row();
    let nrows = band.len() / wpr;
    let mut elig = vec![0u64; wpr];
    let mut seeds = vec![0u64; wpr];
    let mut changed = false;
    for step in 0..nrows {
        let r = if y_rev { nrows - 1 - step } else { step };
        let y = r0 + r;
        let yn = if y_rev { y + 1 } else { y.wrapping_sub(1) };
        if yn >= height {
            continue; // off-mesh neighbors are fault-free: no labels
        }
        let frow = f.row(i32::try_from(y).unwrap_or(i32::MAX));
        let fn_row = f.row(i32::try_from(yn).unwrap_or(i32::MAX));
        let rn = if y_rev { r + 1 } else { r.wrapping_sub(1) };
        for (i, e) in elig.iter_mut().enumerate() {
            let out_n = if rn < nrows {
                band[rn * wpr + i]
            } else {
                halo[i]
            };
            *e = !frow[i] & (fn_row[i] | out_n);
        }
        if h_east {
            shift_west_row(frow, &mut seeds);
        } else {
            shift_east_row(frow, &mut seeds);
        }
        let mut any = 0u64;
        for (s, &e) in seeds.iter_mut().zip(elig.iter()) {
            *s &= e;
            any |= *s;
        }
        if any == 0 {
            continue;
        }
        if h_east {
            reach_row_west(&elig, &mut seeds);
        } else {
            reach_row(&elig, &mut seeds);
        }
        if band[r * wpr..(r + 1) * wpr] != seeds[..wpr] {
            band[r * wpr..(r + 1) * wpr].copy_from_slice(&seeds[..wpr]);
            changed = true;
        }
    }
    changed
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
            1,
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
            1,
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
            1,
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
            1,
            &mut a,
            &mut b,
        );
        for (x, y) in [(2, 4), (3, 3), (4, 2)] {
            assert_eq!(out.get(Coord::new(x, y)), Some(true), "({x},{y})");
        }
    }
}
