//! Word-parallel Definition-1 faulty-block labeling.
//!
//! The scalar fix-point in [`crate::block`] disables nodes one at a time
//! off a worklist. This module runs the same fix-point 64 columns at a
//! time on a packed [`BitGrid`]:
//!
//! For a row `y` with packed blocked bits `cur` and vertical neighbors
//! `up`/`down` (off-mesh rows read as zero):
//!
//! ```text
//! elig  = (up | down) & !cur          // has a blocked neighbor along Y
//! seeds = elig & (cur≪1 | cur≫1)      // …and one along X, right now
//! fill  = run_fill(elig, seeds)       // within-row propagation
//! cur  |= fill
//! ```
//!
//! The run fill is exact: inside a maximal run of `elig` bits every newly
//! blocked node hands the disable condition to its run neighbors in both
//! directions, so the whole run blocks iff it contains a seed —
//! [`reach_row`] (eastward) followed by [`reach_row_west`] (westward over
//! the east-closed result) computes precisely that. Rows are swept in
//! alternating directions (ascending, then descending) until a full pass
//! changes nothing; blocking is monotone, so the fix-point terminates and
//! is order-independent — it equals the scalar worklist result.
//!
//! Component extraction exploits the rectangle invariant instead of a
//! BFS: every maximal bit run of a row either exactly matches an open
//! rectangle's span (extending it one row) or opens a new rectangle.
//! Blocks therefore come out in `(y_min, x_min)` order — the same
//! row-major discovery order as the scalar BFS extraction.

use emr_mesh::{BitGrid, Rect};

use crate::reach_bits::{reach_row, reach_row_west, shift_east_row};

/// One row relaxation of the fix-point; returns whether any bit turned on.
fn relax_row(cur: &mut BitGrid, y: i32, elig: &mut [u64], seeds: &mut [u64]) -> bool {
    let height = cur.mesh().height();
    let wpr = cur.words_per_row();
    {
        let row = cur.row(y);
        // elig = blocked along Y, not yet blocked itself. Tail bits stay
        // zero because every row's tail bits are zero.
        for (i, e) in elig.iter_mut().enumerate() {
            let up = if y + 1 < height { cur.row(y + 1)[i] } else { 0 };
            let down = if y > 0 { cur.row(y - 1)[i] } else { 0 };
            *e = (up | down) & !row[i];
        }
        // seeds = elig with a currently blocked neighbor along X. The
        // shifted row may leak a bit into the tail position; the AND with
        // `elig` scrubs it.
        shift_east_row(row, seeds);
        let mut any = 0u64;
        for i in 0..wpr {
            let east_nb = row[i] >> 1 | if i + 1 < wpr { row[i + 1] << 63 } else { 0 };
            seeds[i] = elig[i] & (seeds[i] | east_nb);
            any |= seeds[i];
        }
        if any == 0 {
            return false;
        }
        // Within-row closure: a whole elig run blocks iff it holds a seed.
        reach_row(elig, seeds);
        reach_row_west(elig, seeds);
    }
    let row = cur.row_mut(y);
    let mut changed = false;
    for (r, &s) in row.iter_mut().zip(seeds.iter()) {
        let add = s & !*r;
        if add != 0 {
            changed = true;
            *r |= add;
        }
    }
    changed
}

/// Runs the Definition-1 disable fix-point on `cur` in place: on entry
/// `cur` holds the faulty bits, on exit the blocked (faulty ∪ disabled)
/// bits. Sweeps the rows in alternating directions (ascending, then
/// descending) until a full pass changes nothing, with `elig` and
/// `seeds` as its row-sized scratch buffers.
pub(crate) fn disable_fixpoint(cur: &mut BitGrid, elig: &mut Vec<u64>, seeds: &mut Vec<u64>) {
    let rows = cur.mesh().height();
    let wpr = cur.words_per_row();
    elig.clear();
    elig.resize(wpr, 0);
    seeds.clear();
    seeds.resize(wpr, 0);
    let mut descending = false;
    loop {
        let mut changed = false;
        for step in 0..rows {
            let y = if descending { rows - 1 - step } else { step };
            changed |= relax_row(cur, y, elig, seeds);
        }
        if !changed {
            return;
        }
        descending = !descending;
    }
}

/// Extracts the rectangular components of `blocked` by run-merging rows,
/// returning `(rect, faulty_nodes, disabled_nodes)` per block in
/// row-major discovery order. `faults` supplies the genuinely faulty
/// bits for the per-block counts.
pub(crate) fn extract_rects(blocked: &BitGrid, faults: &BitGrid) -> Vec<(Rect, usize, usize)> {
    struct Acc {
        x_min: i32,
        x_max: i32,
        y_min: i32,
        y_max: i32,
        faulty: usize,
        disabled: usize,
    }
    let mesh = blocked.mesh();
    let mut accs: Vec<Acc> = Vec::new();
    // Indices of rectangles whose last filled row is the previous one,
    // ordered by x_min (runs and open rects share the left-to-right
    // order, so the merge below is a linear scan).
    let mut open: Vec<usize> = Vec::new();
    let mut next_open: Vec<usize> = Vec::new();
    for y in 0..mesh.height() {
        next_open.clear();
        let row = blocked.row(y);
        let frow = faults.row(y);
        let mut oi = 0;
        for_each_run(row, |s, e| {
            while oi < open.len() && accs[open[oi]].x_min < s {
                oi += 1;
            }
            let faulty = popcount_range(frow, s, e);
            let len = usize::try_from(e - s + 1).unwrap_or(0);
            if oi < open.len() && accs[open[oi]].x_min == s {
                let a = &mut accs[open[oi]];
                debug_assert_eq!(a.x_max, e, "rectangle invariant: spans must align");
                a.y_max = y;
                a.faulty += faulty;
                a.disabled += len - faulty;
                next_open.push(open[oi]);
                oi += 1;
            } else {
                accs.push(Acc {
                    x_min: s,
                    x_max: e,
                    y_min: y,
                    y_max: y,
                    faulty,
                    disabled: len - faulty,
                });
                next_open.push(accs.len() - 1);
            }
        });
        std::mem::swap(&mut open, &mut next_open);
    }
    accs.into_iter()
        .map(|a| {
            (
                Rect::new(a.x_min, a.x_max, a.y_min, a.y_max),
                a.faulty,
                a.disabled,
            )
        })
        .collect()
}

/// Calls `f(start, end)` for every maximal run of set bits in a packed
/// row (inclusive bit positions). Requires the row's tail bits zero
/// unless the width is a word multiple.
pub(crate) fn for_each_run(row: &[u64], mut f: impl FnMut(i32, i32)) {
    let mut start: Option<i32> = None;
    for (wi, &word) in row.iter().enumerate() {
        let base = i32::try_from(64 * wi).unwrap_or(i32::MAX);
        let mut offset: u32 = 0;
        while offset < 64 {
            let rem = word >> offset;
            if let Some(s) = start {
                let ones = (!rem).trailing_zeros();
                offset += ones;
                if offset < 64 {
                    // Offsets stay ≤ 64, well inside i32.
                    f(s, base + i32::try_from(offset).unwrap_or(64) - 1);
                    start = None;
                } // else: the run continues into the next word
            } else {
                if rem == 0 {
                    break;
                }
                offset += rem.trailing_zeros();
                start = Some(base + i32::try_from(offset).unwrap_or(64));
            }
        }
    }
    if let Some(s) = start {
        // Only reachable when the final word ends in a one, i.e. the row
        // width is an exact word multiple.
        f(s, i32::try_from(64 * row.len()).unwrap_or(i32::MAX) - 1);
    }
}

/// The number of set bits of `row` at positions `start ..= end`.
pub(crate) fn popcount_range(row: &[u64], start: i32, end: i32) -> usize {
    debug_assert!(0 <= start && start <= end);
    let (start, end) = (start as usize, end as usize);
    let mut total = 0usize;
    let words = &row[start / 64..=end / 64];
    for (i, &word) in words.iter().enumerate() {
        let mut w = word;
        let lo = (start / 64 + i) * 64;
        if start > lo {
            w &= !((1u64 << (start - lo)) - 1);
        }
        if end < lo + 63 {
            w &= (1u64 << (end - lo + 1)) - 1;
        }
        total += w.count_ones() as usize;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use emr_mesh::{Coord, Mesh};

    #[test]
    fn runs_cover_word_boundaries_and_tails() {
        // Width 130: runs inside, across, and ending at the last column.
        let mesh = Mesh::new(130, 1);
        let mut g = BitGrid::new(mesh);
        for x in [0, 62, 63, 64, 65, 128, 129] {
            g.set(Coord::new(x, 0), true);
        }
        let mut runs = Vec::new();
        for_each_run(g.row(0), |s, e| runs.push((s, e)));
        assert_eq!(runs, vec![(0, 0), (62, 65), (128, 129)]);
        // Exact word-multiple width with a run touching the last bit.
        let mesh = Mesh::new(128, 1);
        let mut g = BitGrid::new(mesh);
        for x in 120..128 {
            g.set(Coord::new(x, 0), true);
        }
        let mut runs = Vec::new();
        for_each_run(g.row(0), |s, e| runs.push((s, e)));
        assert_eq!(runs, vec![(120, 127)]);
    }

    #[test]
    fn popcount_range_matches_naive() {
        let mesh = Mesh::new(150, 1);
        let g = BitGrid::from_blocked(mesh, |c| (c.x * 29) % 3 == 0);
        for &(s, e) in &[(0, 0), (0, 149), (63, 64), (10, 70), (64, 127), (130, 149)] {
            let naive = (s..=e)
                .filter(|&x| g.get(Coord::new(x, 0)) == Some(true))
                .count();
            assert_eq!(popcount_range(g.row(0), s, e), naive, "[{s}, {e}]");
        }
    }
}
