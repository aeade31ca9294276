//! Extension 3 (Theorem 1c): pivot nodes.

use rand::Rng;
use serde::{Deserialize, Serialize};

use emr_mesh::{Coord, Frame, Rect};

use crate::conditions::{node_safe_for, safe_source, RoutePlan};
use crate::scenario::ModelView;

/// How pivot nodes are placed inside each (sub)region during the recursive
/// partition (paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PivotPolicy {
    /// The center node of each region (the paper's primary description).
    Center,
    /// A uniformly random node of each region (used for the strategies in
    /// §5).
    Random,
    /// Random, but no two pivots share a row or a column (the paper's
    /// "evenly distributed" variation).
    DistinctRowsCols,
}

/// Selects pivot nodes by recursive 4-way partition: one pivot in `region`,
/// then (for `level > 1`) recursion into the four subregions the pivot
/// induces. Levels 1, 2, 3 give 1, 5, 21 pivots on a large-enough region
/// (degenerate subregions are skipped).
///
/// `rng` is only consulted by the random policies; pass any RNG for
/// [`PivotPolicy::Center`].
///
/// # Examples
///
/// ```
/// use emr_core::conditions::{select_pivots, PivotPolicy};
/// use emr_mesh::Rect;
///
/// let mut rng = rand::thread_rng();
/// let region = Rect::new(0, 99, 0, 99);
/// assert_eq!(select_pivots(region, 1, PivotPolicy::Center, &mut rng).len(), 1);
/// assert_eq!(select_pivots(region, 3, PivotPolicy::Center, &mut rng).len(), 21);
/// ```
pub fn select_pivots(
    region: Rect,
    level: u32,
    policy: PivotPolicy,
    rng: &mut impl Rng,
) -> Vec<Coord> {
    if policy == PivotPolicy::DistinctRowsCols {
        return latin_pivots(region, level, rng);
    }
    let mut pivots = Vec::new();
    recurse(region, level, policy, rng, &mut pivots);
    pivots
}

/// The "evenly distributed, distinct rows and columns" variation: one
/// pivot per (column band, row band) pair of a random permutation, a
/// jittered Latin arrangement. Distinctness is guaranteed whenever the
/// region is at least `Σ 4^(i−1)` nodes wide and tall.
// emr-lint: allow(A1, "pivot coordinates are drawn inside `region`, which the caller clips to the mesh")
fn latin_pivots(region: Rect, level: u32, rng: &mut impl Rng) -> Vec<Coord> {
    let total: i64 = (0..level).map(|i| 4i64.pow(i)).sum();
    let clipped = total
        .min(i64::from(region.width()))
        .min(i64::from(region.height()));
    let count = i32::try_from(clipped).unwrap_or(i32::MAX).max(1);
    // A random permutation of row bands.
    let mut perm: Vec<i32> = (0..count).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    // The i-th of `count` bands of [lo, lo+extent): sample inside it.
    fn band(lo: i32, extent: i32, count: i32, i: i32, rng: &mut impl Rng) -> i32 {
        let a = lo + (extent * i) / count;
        let b = lo + (extent * (i + 1)) / count - 1;
        rng.gen_range(a..=b.max(a))
    }
    (0..count)
        .map(|i| {
            Coord::new(
                band(region.x_min(), region.width(), count, i, rng),
                band(
                    region.y_min(),
                    region.height(),
                    count,
                    perm[i as usize],
                    rng,
                ),
            )
        })
        .collect()
}

fn recurse(
    region: Rect,
    level: u32,
    policy: PivotPolicy,
    rng: &mut impl Rng,
    pivots: &mut Vec<Coord>,
) {
    if level == 0 {
        return;
    }
    let pick = |rng: &mut dyn rand::RngCore| match policy {
        PivotPolicy::Center => Coord::new(
            i32::midpoint(region.x_min(), region.x_max()),
            i32::midpoint(region.y_min(), region.y_max()),
        ),
        PivotPolicy::Random | PivotPolicy::DistinctRowsCols => Coord::new(
            rng.gen_range(region.x_min()..=region.x_max()),
            rng.gen_range(region.y_min()..=region.y_max()),
        ),
    };
    let p = pick(rng);
    pivots.push(p);
    if level == 1 {
        return;
    }
    // The four subregions strictly beside the pivot.
    let (x0, x1, y0, y1) = (
        region.x_min(),
        region.x_max(),
        region.y_min(),
        region.y_max(),
    );
    let horizontal = [(x0, p.x - 1), (p.x + 1, x1)];
    let vertical = [(y0, p.y - 1), (p.y + 1, y1)];
    for &(xa, xb) in &horizontal {
        for &(ya, yb) in &vertical {
            if xa <= xb && ya <= yb {
                recurse(Rect::new(xa, xb, ya, yb), level - 1, policy, rng, pivots);
            }
        }
    }
}

/// Extension 3 (Theorem 1c).
///
/// Minimal routing is ensured when the source is safe, **or** when some
/// pivot `(xi, yi)` inside the source–destination rectangle satisfies both
/// halves of the two-phase guarantee: the source is safe with respect to
/// the pivot and the pivot is safe with respect to the destination.
///
/// The pivots' safety levels are assumed broadcast to the source (the
/// `emr-distsim` pivot-broadcast protocol); only pivots inside the
/// rectangle can participate in a minimal two-phase route.
///
/// # Examples
///
/// ```
/// use emr_core::{conditions, Model, RoutePlan, Scenario};
/// use emr_fault::FaultSet;
/// use emr_mesh::{Coord, Mesh};
///
/// let mesh = Mesh::square(12);
/// // Blocks on both of the source's axis sections: extensions 1 and 2 are
/// // helpless, but an interior pivot sees around them.
/// let faults = FaultSet::from_coords(mesh, [Coord::new(6, 2), Coord::new(2, 6)]);
/// let sc = Scenario::build(faults);
/// let view = sc.view(Model::FaultBlock);
/// let (s, d) = (Coord::new(2, 2), Coord::new(9, 9));
/// let pivot = Coord::new(4, 4);
/// let plan = conditions::ext3(&view, s, d, &[pivot]).unwrap();
/// assert_eq!(plan, RoutePlan::ViaPivot(pivot));
/// ```
pub fn ext3(view: &ModelView<'_>, s: Coord, d: Coord, pivots: &[Coord]) -> Option<RoutePlan> {
    if !view.endpoints_usable(s, d) {
        return None;
    }
    if safe_source(view, s, d).is_some() {
        return Some(RoutePlan::Direct);
    }
    let frame = Frame::normalizing(s, d);
    let rel_d = frame.to_rel(d);
    let rect = Rect::new(0, rel_d.x, 0, rel_d.y);
    for &p in pivots {
        if !view.mesh().contains(p) || !rect.contains(frame.to_rel(p)) {
            continue;
        }
        if p == s || p == d {
            continue;
        }
        if node_safe_for(view, s, p) && node_safe_for(view, p, d) {
            return Some(RoutePlan::ViaPivot(p));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, Scenario};
    use emr_fault::FaultSet;
    use emr_mesh::Mesh;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scenario(coords: &[(i32, i32)]) -> Scenario {
        let mesh = Mesh::square(12);
        Scenario::build(FaultSet::from_coords(
            mesh,
            coords.iter().map(|&c| Coord::from(c)),
        ))
    }

    #[test]
    fn pivot_counts_match_levels() {
        let mut rng = StdRng::seed_from_u64(1);
        let region = Rect::new(0, 63, 0, 63);
        for (level, count) in [(1u32, 1usize), (2, 5), (3, 21)] {
            let ps = select_pivots(region, level, PivotPolicy::Center, &mut rng);
            assert_eq!(ps.len(), count, "Center level {level}");
            assert!(ps.iter().all(|p| region.contains(*p)));
            // Random placement can lose a few pivots to degenerate
            // subregions when a pivot lands on a region edge.
            let ps = select_pivots(region, level, PivotPolicy::Random, &mut rng);
            assert!(ps.len() <= count && !ps.is_empty(), "Random level {level}");
            assert!(ps.iter().all(|p| region.contains(*p)));
        }
    }

    #[test]
    fn tiny_region_degenerates_gracefully() {
        let mut rng = StdRng::seed_from_u64(2);
        let region = Rect::new(5, 5, 5, 5);
        let ps = select_pivots(region, 3, PivotPolicy::Center, &mut rng);
        assert_eq!(ps, vec![Coord::new(5, 5)]);
    }

    #[test]
    fn distinct_rows_cols_policy_holds_when_possible() {
        let mut rng = StdRng::seed_from_u64(3);
        let region = Rect::new(0, 99, 0, 99);
        let ps = select_pivots(region, 3, PivotPolicy::DistinctRowsCols, &mut rng);
        assert_eq!(ps.len(), 21);
        for (i, a) in ps.iter().enumerate() {
            for b in &ps[i + 1..] {
                assert!(a.x != b.x && a.y != b.y, "{a} and {b} collide");
            }
        }
    }

    #[test]
    fn pivot_rescues_when_both_axes_blocked() {
        let sc = scenario(&[(6, 2), (2, 6)]);
        let view = sc.view(Model::FaultBlock);
        let (s, d) = (Coord::new(2, 2), Coord::new(9, 9));
        assert!(safe_source(&view, s, d).is_none());
        assert_eq!(
            ext3(&view, s, d, &[Coord::new(4, 4)]),
            Some(RoutePlan::ViaPivot(Coord::new(4, 4)))
        );
    }

    #[test]
    fn pivot_outside_rectangle_is_ignored() {
        let sc = scenario(&[(6, 2), (2, 6)]);
        let view = sc.view(Model::FaultBlock);
        let (s, d) = (Coord::new(2, 2), Coord::new(9, 9));
        // (10, 4) is east of the destination column.
        assert_eq!(ext3(&view, s, d, &[Coord::new(10, 4)]), None);
    }

    #[test]
    fn pivot_must_be_safe_for_both_phases() {
        // A pivot whose own column is blocked toward d does not qualify.
        let sc = scenario(&[(6, 2), (2, 6), (4, 7)]);
        let view = sc.view(Model::FaultBlock);
        let (s, d) = (Coord::new(2, 2), Coord::new(9, 9));
        // (4,4): source-safe, but its N is 3 < yd-yi = 5.
        assert_eq!(ext3(&view, s, d, &[Coord::new(4, 4)]), None);
        // A pivot further east dodges the extra block.
        assert_eq!(
            ext3(&view, s, d, &[Coord::new(5, 4)]),
            Some(RoutePlan::ViaPivot(Coord::new(5, 4)))
        );
    }

    #[test]
    fn blocked_pivot_is_ignored() {
        let sc = scenario(&[(6, 2), (2, 6), (4, 4)]);
        let view = sc.view(Model::FaultBlock);
        let (s, d) = (Coord::new(2, 2), Coord::new(9, 9));
        assert_eq!(ext3(&view, s, d, &[Coord::new(4, 4)]), None);
    }

    #[test]
    fn works_in_quadrant_four() {
        // Destination SE of the source; pivot inside the mirrored
        // rectangle.
        let sc = scenario(&[(6, 9), (2, 5)]);
        let view = sc.view(Model::FaultBlock);
        let (s, d) = (Coord::new(2, 9), Coord::new(9, 2));
        assert!(safe_source(&view, s, d).is_none());
        let plan = ext3(&view, s, d, &[Coord::new(4, 6)]);
        assert_eq!(plan, Some(RoutePlan::ViaPivot(Coord::new(4, 6))));
    }

    #[test]
    fn more_pivots_never_hurt() {
        let mut rng = StdRng::seed_from_u64(9);
        let mesh = Mesh::square(16);
        let s = mesh.center();
        for seed in 0..20u64 {
            let mut frng = StdRng::seed_from_u64(seed);
            let faults = emr_fault::inject::uniform(mesh, 14, &[s], &mut frng);
            let sc = Scenario::build(faults);
            let view = sc.view(Model::FaultBlock);
            let region = Rect::new(8, 15, 8, 15);
            let l1 = select_pivots(region, 1, PivotPolicy::Center, &mut rng);
            let l3 = select_pivots(region, 3, PivotPolicy::Center, &mut rng);
            for d in [Coord::new(15, 15), Coord::new(12, 14)] {
                if !view.endpoints_usable(s, d) {
                    continue;
                }
                if ext3(&view, s, d, &l1).is_some() {
                    assert!(
                        ext3(&view, s, d, &l3).is_some(),
                        "seed {seed}: level 3 lost a level-1 rescue"
                    );
                }
            }
        }
    }
}
