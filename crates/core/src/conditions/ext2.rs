//! Extension 2 (Theorem 1b): axis-section safety with segment sampling.

use serde::{Deserialize, Serialize};

use emr_mesh::{Coord, Direction, Frame};

use crate::conditions::{node_safe_for, RoutePlan};
use crate::scenario::ModelView;

/// How much extension 2 samples from each block-free region of the
/// source's row/column (paper §4, Figure 10).
///
/// Each region is partitioned into consecutive segments and one safety
/// level per segment — the one with the highest safety toward the
/// crossing direction — is made available to the source. `Size(1)` is full
/// information; `Max` treats the whole region as a single segment (the
/// paper's weakest variation, close to the plain sufficient condition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SegmentSize {
    /// Segments of this many nodes.
    Size(u32),
    /// One segment spanning the whole region.
    Max,
}

/// How many safety levels each segment contributes (paper §4's two
/// sampling variations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SegmentPolicy {
    /// One representative per segment: the node with the highest safety
    /// toward the crossing dimension (the default variation).
    SingleBest,
    /// Up to one representative per *direction* per segment ("select up to
    /// four extended safety levels within each region, each one
    /// corresponds to the highest safety level along a particular
    /// direction").
    PerDirection,
}

/// Extension 2 (Theorem 1b).
///
/// Minimal routing is ensured when the source is safe, **or** when one
/// axis section toward the destination is clear (`xd < E`) and some node
/// `(k, 0)` on that clear section (with `k ≤ xd`) is safe with respect to
/// the destination — then the route travels the axis to that node and runs
/// Wu's protocol from there. The symmetric form uses the other axis.
///
/// `segment` selects the paper's sampling variation: with larger segments
/// the source sees fewer candidate safety levels and ensures fewer routes.
/// This entry point uses [`SegmentPolicy::SingleBest`]; see
/// [`ext2_with_policy`] for the per-direction variation.
///
/// # Examples
///
/// ```
/// use emr_core::{conditions, Model, RoutePlan, Scenario};
/// use emr_core::conditions::SegmentSize;
/// use emr_fault::FaultSet;
/// use emr_mesh::{Coord, Mesh};
///
/// // A block above the source's column makes it unsafe, but a node a few
/// // hops east on its (clear) row has a clear column: extension 2 routes
/// // via the axis.
/// let mesh = Mesh::square(12);
/// let faults = FaultSet::from_coords(mesh, [Coord::new(2, 6)]);
/// let sc = Scenario::build(faults);
/// let view = sc.view(Model::FaultBlock);
/// let (s, d) = (Coord::new(2, 2), Coord::new(8, 8));
/// assert!(conditions::safe_source(&view, s, d).is_none());
/// let plan = conditions::ext2(&view, s, d, SegmentSize::Size(1)).unwrap();
/// assert!(matches!(plan, RoutePlan::ViaAxis(_)));
/// ```
pub fn ext2(view: &ModelView<'_>, s: Coord, d: Coord, segment: SegmentSize) -> Option<RoutePlan> {
    ext2_with_policy(view, s, d, segment, SegmentPolicy::SingleBest)
}

/// Extension 2 with an explicit sampling policy; see [`ext2`].
///
/// The region along each axis comes from two scans of the source's lane.
/// A segment whose offsets miss `[1, xd]` is never scored: its
/// representative lies inside it, so it could never be the witness. Each
/// representative is tested as soon as it is chosen, so the first witness
/// in region order wins.
pub fn ext2_with_policy(
    view: &ModelView<'_>,
    s: Coord,
    d: Coord,
    segment: SegmentSize,
    policy: SegmentPolicy,
) -> Option<RoutePlan> {
    if !view.endpoints_usable(s, d) {
        return None;
    }
    let map = view.safety_for(s, d);
    if map.clear_toward(s, d) {
        return Some(RoutePlan::Direct);
    }
    let frame = Frame::normalizing(s, d);
    let rel_d = frame.to_rel(d);
    let bounds = frame.bounds_to_rel(&view.mesh());

    // Try the x axis (travel relative East first), then the y axis.
    for (axis_dir, limit, edges) in [
        (Direction::East, rel_d.x, (bounds.x_min(), bounds.x_max())),
        (Direction::North, rel_d.y, (bounds.y_min(), bounds.y_max())),
    ] {
        let axis = frame.dir_to_abs(axis_dir);
        // The axis section [0, limit] must be clear: limit < ESL toward it.
        if limit.unsigned_abs() >= map.toward(s, axis) {
            continue;
        }
        // The block-free region of the source's lane: the offsets
        // -behind..=forward, up to the nearest obstacle or the mesh edge.
        let room = |dir: Direction, edge: i32| {
            i32::try_from(map.toward(s, dir) - 1).map_or(edge, |r| r.min(edge))
        };
        let behind = room(axis.opposite(), -edges.0);
        let forward = room(axis, edges.1);
        let len = match segment {
            SegmentSize::Size(n) => i32::try_from(n.max(1)).unwrap_or(i32::MAX),
            SegmentSize::Max => behind + forward + 1,
        };
        // The crossing direction: the perpendicular safety that phase 2
        // needs. We pick by the larger of the two perpendicular entries
        // to stay destination-agnostic, exactly one value per segment.
        let perp = if axis.is_horizontal() {
            [Direction::North, Direction::South]
        } else {
            [Direction::East, Direction::West]
        };
        let scorings: &[&[Direction]] = match policy {
            SegmentPolicy::SingleBest => &[&perp],
            SegmentPolicy::PerDirection => &[&perp[..1], &perp[1..]],
        };
        // Segments are chunked from the region's back end; the first that
        // can hold a witness is the one holding offset 1.
        let mut lo = -behind + (behind + 1) / len * len;
        while lo <= limit {
            let hi = lo.saturating_add(len - 1).min(forward);
            let mut tried = None;
            for dirs in scorings {
                // `max_by_key` keeps the last maximum, so walking the
                // segment back to front keeps the first: ties go toward
                // the region's back end.
                let k = (lo..=hi).rev().max_by_key(|&k| {
                    let c = s.step_by(axis, k);
                    dirs.iter().map(|&dir| map.toward(c, dir)).max()
                });
                // Both directions of `PerDirection` may choose one node.
                if k == tried {
                    continue;
                }
                tried = k;
                let Some(k) = k.filter(|k| (1..=limit).contains(k)) else {
                    continue;
                };
                // `node_safe_for` also rejects candidates that are
                // obstacles for the (w, d) route — under MCC the phase-2
                // quadrant type can differ from the (s, d) type, so this
                // matters.
                let w = s.step_by(axis, k);
                if node_safe_for(view, w, d) {
                    return Some(RoutePlan::ViaAxis(w));
                }
            }
            lo = hi + 1;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions::safe_source;
    use crate::{Model, Scenario};
    use emr_fault::FaultSet;
    use emr_mesh::{Dist, Mesh};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Definition 3 from the full safety level, as the conditions read it
    /// before the range tests.
    fn level_safe(view: &ModelView<'_>, u: Coord, d: Coord) -> bool {
        let frame = Frame::normalizing(u, d);
        view.endpoints_usable(u, d) && view.level_for(u, u, d).safe_for(&frame, frame.to_rel(d))
    }

    /// Extension 2 as a node walk: the region collected node by node
    /// through `is_obstacle`, every node of every segment scored from its
    /// full safety level, and each representative kept in region order
    /// before any is tested. The reference of the differential test
    /// below.
    fn ext2_walk(
        view: &ModelView<'_>,
        s: Coord,
        d: Coord,
        segment: SegmentSize,
        policy: SegmentPolicy,
    ) -> Option<RoutePlan> {
        if !view.endpoints_usable(s, d) {
            return None;
        }
        if level_safe(view, s, d) {
            return Some(RoutePlan::Direct);
        }
        let mesh = view.mesh();
        let frame = Frame::normalizing(s, d);
        let rel_d = frame.to_rel(d);
        let esl_s = view.level_for(s, s, d);
        for (axis_dir, limit) in [(Direction::East, rel_d.x), (Direction::North, rel_d.y)] {
            let abs_axis = frame.dir_to_abs(axis_dir);
            if limit as Dist >= esl_s.toward(abs_axis) {
                continue;
            }
            let back = abs_axis.opposite();
            let mut start = s;
            while mesh.contains(start.step(back)) && !view.is_obstacle(start.step(back), s, d) {
                start = start.step(back);
            }
            let mut region = vec![start];
            let mut cur = start;
            while mesh.contains(cur.step(abs_axis)) && !view.is_obstacle(cur.step(abs_axis), s, d) {
                cur = cur.step(abs_axis);
                region.push(cur);
            }
            let seg_len = match segment {
                SegmentSize::Size(n) => (n.max(1)) as usize,
                SegmentSize::Max => region.len(),
            };
            let (perp_a, perp_b) = if abs_axis.is_horizontal() {
                (Direction::North, Direction::South)
            } else {
                (Direction::East, Direction::West)
            };
            let best_by = |seg: &[Coord], score: &dyn Fn(Coord) -> u32| -> Coord {
                let mut best = seg[0];
                let mut best_score = 0;
                for &c in seg {
                    let sc = score(c);
                    if sc > best_score {
                        best = c;
                        best_score = sc;
                    }
                }
                best
            };
            let mut reps = Vec::new();
            for seg in region.chunks(seg_len) {
                match policy {
                    SegmentPolicy::SingleBest => reps.push(best_by(seg, &|c| {
                        let l = view.level_for(c, s, d);
                        l.toward(perp_a).max(l.toward(perp_b))
                    })),
                    SegmentPolicy::PerDirection => {
                        for dir in [perp_a, perp_b] {
                            let w = best_by(seg, &|c| view.level_for(c, s, d).toward(dir));
                            if !reps.contains(&w) {
                                reps.push(w);
                            }
                        }
                    }
                }
            }
            for w in reps {
                let rel_w = frame.to_rel(w);
                let k = if axis_dir == Direction::East {
                    rel_w.x
                } else {
                    rel_w.y
                };
                if (1..=limit).contains(&k) && level_safe(view, w, d) {
                    return Some(RoutePlan::ViaAxis(w));
                }
            }
        }
        None
    }

    #[test]
    fn range_reads_match_the_node_walk() {
        // Shapes around the 64-bit word on either axis, the paper's mesh,
        // and 1-wide lanes; destinations in every quadrant of the source,
        // on its row and on its column.
        let shapes = [
            (200, 200),
            (130, 70),
            (65, 9),
            (9, 65),
            (64, 64),
            (1, 40),
            (40, 1),
        ];
        let segments = [
            SegmentSize::Size(1),
            SegmentSize::Size(5),
            SegmentSize::Size(10),
            SegmentSize::Max,
        ];
        let (mut calls, mut via_axis) = (0u32, 0u32);
        for (w, h) in shapes {
            let mesh = Mesh::new(w, h);
            for (i, density) in [0.01, 0.04, 0.12].into_iter().enumerate() {
                let mut rng =
                    StdRng::seed_from_u64(0xE2_0000 + (w * 1000 + h) as u64 * 4 + i as u64);
                let count = (mesh.node_count() as f64 * density) as usize;
                let sc = Scenario::build(emr_fault::inject::uniform(mesh, count, &[], &mut rng));
                for _ in 0..100 {
                    let s = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
                    let ds = [
                        Coord::new(rng.gen_range(s.x..w), rng.gen_range(s.y..h)),
                        Coord::new(rng.gen_range(0..=s.x), rng.gen_range(s.y..h)),
                        Coord::new(rng.gen_range(0..=s.x), rng.gen_range(0..=s.y)),
                        Coord::new(rng.gen_range(s.x..w), rng.gen_range(0..=s.y)),
                        Coord::new(rng.gen_range(0..w), s.y),
                        Coord::new(s.x, rng.gen_range(0..h)),
                    ];
                    for d in ds {
                        for model in Model::ALL {
                            let view = sc.view(model);
                            for policy in [SegmentPolicy::SingleBest, SegmentPolicy::PerDirection] {
                                for seg in segments {
                                    let got = ext2_with_policy(&view, s, d, seg, policy);
                                    let want = ext2_walk(&view, s, d, seg, policy);
                                    assert_eq!(
                                        got, want,
                                        "{w}x{h} density {density} {model:?} {policy:?} {seg:?}: {s} -> {d}"
                                    );
                                    calls += 1;
                                    via_axis +=
                                        u32::from(matches!(got, Some(RoutePlan::ViaAxis(_))));
                                }
                            }
                        }
                    }
                }
            }
        }
        // The verdicts must include many axis witnesses, or the test
        // compares little beyond Definition 3.
        assert!(
            via_axis * 25 > calls,
            "{via_axis} axis witnesses in {calls} calls"
        );
    }

    fn scenario(coords: &[(i32, i32)]) -> Scenario {
        let mesh = Mesh::square(14);
        Scenario::build(FaultSet::from_coords(
            mesh,
            coords.iter().map(|&c| Coord::from(c)),
        ))
    }

    #[test]
    fn axis_node_rescues_unsafe_source() {
        // Block at (2,6): source column blocked at N=4, row clear.
        let sc = scenario(&[(2, 6)]);
        let view = sc.view(Model::FaultBlock);
        let s = Coord::new(2, 2);
        let d = Coord::new(9, 9);
        assert!(safe_source(&view, s, d).is_none());
        let plan = ext2(&view, s, d, SegmentSize::Size(1)).unwrap();
        match plan {
            RoutePlan::ViaAxis(w) => {
                assert_eq!(w.y, 2, "witness must be on the source's row");
                assert!(w.x > 2 && w.x <= 9, "witness within [1, xd]: {w}");
            }
            other => panic!("expected ViaAxis, got {other:?}"),
        }
    }

    #[test]
    fn requires_a_clear_axis() {
        // Blocks on both the row and the column section: extension 2 has
        // nothing to work with.
        let sc = scenario(&[(5, 2), (2, 5)]);
        let view = sc.view(Model::FaultBlock);
        let s = Coord::new(2, 2);
        let d = Coord::new(9, 9);
        assert_eq!(ext2(&view, s, d, SegmentSize::Size(1)), None);
    }

    #[test]
    fn witness_must_be_within_destination_offset() {
        // The only helpful axis node would be past the destination's
        // column, which two-phase minimal routing cannot use.
        // Wall spanning columns 0..=10 at y=6 except a gap at x=11,12.
        let mut wall: Vec<(i32, i32)> = (0..=10).map(|x| (x, 6)).collect();
        wall.push((5, 2)); // also make the source row unhelpful east of d
        let sc = scenario(&wall);
        let view = sc.view(Model::FaultBlock);
        let s = Coord::new(2, 2);
        let d = Coord::new(4, 9);
        // Row section toward d: E = 3 > xd = 2, clear; but nodes (3,2),
        // (4,2) have their columns blocked by the wall (N = 4 ≤ yd = 7).
        assert_eq!(ext2(&view, s, d, SegmentSize::Size(1)), None);
    }

    #[test]
    fn larger_segments_are_weaker() {
        // With full info a rescue exists; with one segment per region the
        // chosen representative may not qualify. Use a region whose
        // max-safety node sits west of the source.
        let sc = scenario(&[(2, 6), (6, 8)]);
        let view = sc.view(Model::FaultBlock);
        let s = Coord::new(2, 2);
        let d = Coord::new(9, 9);
        let full = ext2(&view, s, d, SegmentSize::Size(1));
        assert!(full.is_some());
        // Max segments may or may not find it — but can never find MORE
        // than full information.
        if let Some(RoutePlan::ViaAxis(w)) = ext2(&view, s, d, SegmentSize::Max) {
            let wf = Frame::normalizing(w, d);
            assert!(view.level_for(w, w, d).safe_for(&wf, wf.to_rel(d)));
        }
    }

    #[test]
    fn segment_monotonicity_over_many_configs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mesh = Mesh::square(16);
        let s = mesh.center();
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let faults = emr_fault::inject::uniform(mesh, 12, &[s], &mut rng);
            let sc = Scenario::build(faults);
            let view = sc.view(Model::FaultBlock);
            for d in [Coord::new(15, 15), Coord::new(12, 9), Coord::new(9, 14)] {
                if !view.endpoints_usable(s, d) {
                    continue;
                }
                let full = ext2(&view, s, d, SegmentSize::Size(1)).is_some();
                for seg in [
                    SegmentSize::Size(5),
                    SegmentSize::Size(10),
                    SegmentSize::Max,
                ] {
                    if ext2(&view, s, d, seg).is_some() {
                        assert!(
                            full,
                            "seed {seed}: segment {seg:?} found what full info missed"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn works_in_quadrant_two() {
        // Destination NW: the row section runs west.
        let sc = scenario(&[(10, 8)]); // blocks the source's column north
        let view = sc.view(Model::FaultBlock);
        let s = Coord::new(10, 2);
        let d = Coord::new(3, 9);
        assert!(safe_source(&view, s, d).is_none());
        let plan = ext2(&view, s, d, SegmentSize::Size(1)).unwrap();
        match plan {
            RoutePlan::ViaAxis(w) => {
                assert_eq!(w.y, 2);
                assert!(w.x < 10 && w.x >= 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn safe_source_returns_direct() {
        let sc = scenario(&[]);
        let view = sc.view(Model::FaultBlock);
        assert_eq!(
            ext2(&view, Coord::new(1, 1), Coord::new(9, 9), SegmentSize::Max),
            Some(RoutePlan::Direct)
        );
    }
    #[test]
    fn per_direction_policy_dominates_single_best() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mesh = Mesh::square(16);
        let s = mesh.center();
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(400 + seed);
            let faults = emr_fault::inject::uniform(mesh, 14, &[s], &mut rng);
            let sc = Scenario::build(faults);
            let view = sc.view(Model::FaultBlock);
            for d in [Coord::new(15, 13), Coord::new(11, 15)] {
                if !view.endpoints_usable(s, d) {
                    continue;
                }
                for seg in [SegmentSize::Size(5), SegmentSize::Max] {
                    let single = ext2_with_policy(&view, s, d, seg, SegmentPolicy::SingleBest);
                    let per_dir = ext2_with_policy(&view, s, d, seg, SegmentPolicy::PerDirection);
                    // The per-direction variation sees a superset of the
                    // single-best candidates for the relevant direction, so
                    // anything single-best ensures, it ensures.
                    if single.is_some() {
                        assert!(per_dir.is_some(), "seed {seed} seg {seg:?}");
                    }
                    // Both remain sound.
                    for plan in [single, per_dir].into_iter().flatten() {
                        if let RoutePlan::ViaAxis(w) = plan {
                            let wf = Frame::normalizing(w, d);
                            assert!(view.level_for(w, w, d).safe_for(&wf, wf.to_rel(d)));
                        }
                    }
                }
            }
        }
    }
}
