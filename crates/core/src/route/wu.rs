//! Wu's boundary-information routing protocol.

use emr_mesh::{Coord, Direction, Frame, Path, Rect};

use crate::route::RouteError;
use crate::scenario::ModelView;

/// Routes a packet from `s` to `d` with Wu's protocol: adaptive minimal
/// routing, consulting the boundary information at each hop.
///
/// Normalized to the destination's quadrant, the per-hop rule is the
/// paper's (§2, WU'S PROTOCOL):
///
/// * on the lower section of a block's L3 contour with the destination in
///   that block's region R4 (north of the block, within its column span) —
///   the positive-X move is *preferred but detour*: stay on the contour;
/// * on the left section of a block's L1 contour with the destination in
///   its region R6 (east of the block, within its row span) — the
///   positive-Y move is the detour: stay on the contour;
/// * otherwise any preferred direction may be taken (non-critical).
///
/// Every move is preferred, so a completed route is minimal by
/// construction.
///
/// # Errors
///
/// [`RouteError::BlockedEndpoint`] when an endpoint is inside an obstacle;
/// [`RouteError::Stuck`]/[`RouteError::Conflict`] when no allowed preferred
/// move remains — possible only from sources whose safety the conditions
/// did not ensure.
pub fn wu_route(view: &ModelView<'_>, s: Coord, d: Coord) -> Result<Path, RouteError> {
    if !view.endpoints_usable(s, d) {
        return Err(RouteError::BlockedEndpoint);
    }
    let mut path = Path::singleton(s);
    let mut u = s;
    while u != d {
        let dir = wu_step(view, s, d, u)?;
        u = u.step(dir);
        path.push(u);
    }
    Ok(path)
}

/// One hop of Wu's protocol: the direction a packet at `u`, en route from
/// `s` to `d`, must take next. This is the per-node routing function a
/// mesh router implements; [`wu_route`] is simply its fix-point, and the
/// packet-level network simulator (`emr-netsim`) drives it hop by hop with
/// many packets in flight.
///
/// A hop reads two lanes of the leg's [`crate::BoundaryMap`] (the map of
/// the obstacle plane its own obstacle test reads), picked by the route's
/// frame mirroring: the straight runs in column `u.x` that lie on a lower
/// L3 section, and those in row `u.y` that lie on a left L1 section. A run
/// covering `u` vetoes the preferred East (North) move when `d` lies in
/// its block's R4 (R6), two bound comparisons against `d`. Bend steps
/// never veto: an L3 contour's bends all point East in the relative
/// frame, an L1 contour's all North, which is exactly the move the rule
/// leaves open.
///
/// # Errors
///
/// [`RouteError::Stuck`]/[`RouteError::Conflict`] as for [`wu_route`].
///
/// # Panics
///
/// Panics if `u == d` (there is no next hop at the destination).
pub fn wu_step(
    view: &ModelView<'_>,
    s: Coord,
    d: Coord,
    u: Coord,
) -> Result<Direction, RouteError> {
    assert_ne!(u, d, "no next hop at the destination");
    let mesh = view.mesh();
    let boundary = view.boundary_for(s, d);
    let frame = Frame::normalizing(s, d);
    let rel_d = frame.to_rel(d);
    let rel_u = frame.to_rel(u);
    // Preferred directions (relative frame).
    let east_pref = rel_u.x < rel_d.x;
    let north_pref = rel_u.y < rel_d.y;

    // Boundary constraints: a veto forbids one preferred direction.
    // Lower L3 contour, destination in R4: crossing east of the contour
    // makes the block uncrossable within the destination's column. Left
    // L1 contour, destination in R6: symmetric.
    let east_vetoed = east_pref
        && boundary
            .lower_l3_runs(&frame, u.x)
            .iter()
            .any(|r| r.covers(u.y) && in_r4(&r.block, d, &frame));
    let north_vetoed = north_pref
        && boundary
            .left_l1_runs(&frame, u.y)
            .iter()
            .any(|r| r.covers(u.x) && in_r6(&r.block, d, &frame));

    let open = |dir: Direction| {
        let v = u.step(frame.dir_to_abs(dir));
        mesh.contains(v) && !view.is_obstacle(v, s, d)
    };
    let east_ok = east_pref && !east_vetoed && open(Direction::East);
    let north_ok = north_pref && !north_vetoed && open(Direction::North);

    let rel_dir = match (east_ok, north_ok) {
        (true, true) => {
            // Non-critical: adaptive choice. Balance the remaining
            // offsets (deterministic: larger remaining distance first).
            if rel_d.x - rel_u.x >= rel_d.y - rel_u.y {
                Direction::East
            } else {
                Direction::North
            }
        }
        (true, false) => Direction::East,
        (false, true) => Direction::North,
        (false, false) => {
            // Distinguish a genuine conflict (both vetoed) from a dead
            // end for the error message.
            return if east_pref && north_pref && east_vetoed && north_vetoed {
                Err(RouteError::Conflict(u))
            } else {
                Err(RouteError::Stuck(u))
            };
        }
    };
    Ok(frame.dir_to_abs(rel_dir))
}

/// Whether `d` lies in the paper's region R4 of `block` as `frame` sees
/// it: strictly beyond the block along the relative Y axis, and not past
/// its far column along the relative X axis.
fn in_r4(block: &Rect, d: Coord, frame: &Frame) -> bool {
    past(d.y, block.y_min(), block.y_max(), frame.flips_y())
        && !past(d.x, block.x_min(), block.x_max(), frame.flips_x())
}

/// Whether `d` lies in region R6 of `block` as `frame` sees it: R4 with
/// the axes exchanged.
fn in_r6(block: &Rect, d: Coord, frame: &Frame) -> bool {
    past(d.x, block.x_min(), block.x_max(), frame.flips_x())
        && !past(d.y, block.y_min(), block.y_max(), frame.flips_y())
}

/// Whether `v` lies strictly past the far end of `lo..=hi` along an axis
/// the route's frame mirrors when `flip`: one bound comparison.
fn past(v: i32, lo: i32, hi: i32, flip: bool) -> bool {
    if flip {
        v < lo
    } else {
        v > hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions;
    use crate::{Model, Scenario};
    use emr_fault::{reach, FaultSet};
    use emr_mesh::Mesh;

    fn scenario(n: i32, coords: &[(i32, i32)]) -> Scenario {
        let mesh = Mesh::square(n);
        Scenario::build(FaultSet::from_coords(
            mesh,
            coords.iter().map(|&c| Coord::from(c)),
        ))
    }

    fn route_ok(sc: &Scenario, s: Coord, d: Coord) -> Path {
        let view = sc.view(Model::FaultBlock);
        let p = wu_route(&view, s, d).expect("route");
        assert!(p.is_minimal());
        assert!(p.avoids(|c| view.is_obstacle(c, s, d)));
        assert_eq!(p.source(), Some(s));
        assert_eq!(p.dest(), Some(d));
        p
    }

    #[test]
    fn clear_mesh_routes_everywhere() {
        let sc = scenario(8, &[]);
        let s = Coord::new(3, 3);
        for d in sc.mesh().nodes() {
            route_ok(&sc, s, d);
        }
    }

    #[test]
    fn critical_selection_stays_on_l3() {
        // Figure 3(a)'s situation: destination in R4 of a block; a greedy
        // east-first router would die in the pocket, Wu's protocol hugs L3.
        let sc = scenario(12, &[(4, 5), (5, 5), (6, 5), (4, 6), (5, 6), (6, 6)]);
        // Block [4:6, 5:6]; source SW of it, destination due north of the
        // block's span.
        let s = Coord::new(1, 1);
        let d = Coord::new(5, 9);
        let p = route_ok(&sc, s, d);
        // The path must cross the block's rows west of column 4.
        for w in p.nodes().windows(2) {
            if (5..=6).contains(&w[1].y) {
                assert!(w[1].x < 4, "crossed the band at {}", w[1]);
            }
        }
    }

    #[test]
    fn critical_selection_stays_on_l1() {
        // Destination in R6: east of the block within its row span.
        let sc = scenario(12, &[(5, 4), (5, 5), (5, 6), (6, 4), (6, 5), (6, 6)]);
        let s = Coord::new(1, 1);
        let d = Coord::new(10, 5);
        let p = route_ok(&sc, s, d);
        // The path must cross the block's columns south of row 4.
        for w in p.nodes().windows(2) {
            if (5..=6).contains(&w[1].x) {
                assert!(w[1].y < 4, "crossed the span at {}", w[1]);
            }
        }
    }

    #[test]
    fn joined_boundaries_route_around_two_blocks() {
        // Figure 3(b): block i's L3 joins block j's; destination in R4 of
        // both.
        let sc = scenario(
            14,
            &[
                // block i = [3:7, 4:5]
                (3, 4),
                (4, 4),
                (5, 4),
                (6, 4),
                (7, 4),
                (3, 5),
                (4, 5),
                (5, 5),
                (6, 5),
                (7, 5),
                // block j = [5:8, 8:9]
                (5, 8),
                (6, 8),
                (7, 8),
                (8, 8),
                (5, 9),
                (6, 9),
                (7, 9),
                (8, 9),
            ],
        );
        let s = Coord::new(0, 0);
        let d = Coord::new(6, 12);
        let p = route_ok(&sc, s, d);
        // Must pass west of block i (x < 3) while on rows 4..=5 and west of
        // block j (x < 5) while on rows 8..=9.
        for c in p.nodes() {
            if (4..=5).contains(&c.y) {
                assert!(c.x < 3, "entered i's shadow at {c}");
            }
            if (8..=9).contains(&c.y) {
                assert!(c.x < 5, "entered j's shadow at {c}");
            }
        }
    }

    #[test]
    fn non_critical_block_is_passed_adaptively() {
        // Destination beyond the NE corner (region R5): either way around
        // works and the route stays minimal.
        let sc = scenario(10, &[(4, 4), (5, 5)]);
        let s = Coord::new(1, 1);
        let d = Coord::new(8, 8);
        route_ok(&sc, s, d);
    }

    #[test]
    fn all_quadrants_route_minimally() {
        let sc = scenario(
            13,
            &[(4, 4), (4, 5), (8, 8), (8, 7), (4, 8), (8, 4), (6, 6)],
        );
        let s = sc.mesh().center();
        let view = sc.view(Model::FaultBlock);
        for d in sc.mesh().nodes() {
            if view.is_obstacle(d, s, d) {
                continue;
            }
            // Route whenever the safe condition ensures it.
            if conditions::safe_source(&view, s, d).is_some() {
                let p = wu_route(&view, s, d).expect("ensured route");
                assert!(p.is_minimal(), "non-minimal to {d}");
                assert!(p.avoids(|c| view.is_obstacle(c, s, d)));
            }
        }
    }

    #[test]
    fn unsafe_source_may_fail_but_never_lies() {
        // From an unsafe source the router either yields a genuine minimal
        // path or errors; it never returns a bogus path.
        let wall: Vec<(i32, i32)> = (0..10).map(|y| (4, y)).collect();
        let sc = scenario(10, &wall);
        let view = sc.view(Model::FaultBlock);
        let s = Coord::new(1, 1);
        let d = Coord::new(8, 8);
        // The full-height wall seals the mesh: the oracle confirms no
        // minimal path exists.
        assert!(!reach::minimal_path_exists(&sc.mesh(), s, d, |c| view.is_obstacle(c, s, d)));
        assert!(wu_route(&view, s, d).is_err());
    }

    #[test]
    fn blocked_endpoints_error() {
        let sc = scenario(6, &[(3, 3)]);
        let view = sc.view(Model::FaultBlock);
        assert_eq!(
            wu_route(&view, Coord::new(3, 3), Coord::new(5, 5)),
            Err(RouteError::BlockedEndpoint)
        );
    }

    #[test]
    fn source_equals_destination() {
        let sc = scenario(6, &[]);
        let view = sc.view(Model::FaultBlock);
        let p = wu_route(&view, Coord::new(2, 2), Coord::new(2, 2)).unwrap();
        assert_eq!(p.hops(), 0);
    }

    #[test]
    fn r4_helper_matches_definition() {
        let rb = Rect::new(3, 6, 4, 5);
        let identity = Frame::at(Coord::ORIGIN);
        assert!(in_r4(&rb, Coord::new(5, 9), &identity));
        assert!(in_r4(&rb, Coord::new(6, 6), &identity));
        assert!(!in_r4(&rb, Coord::new(7, 9), &identity)); // east of span
        assert!(!in_r4(&rb, Coord::new(5, 5), &identity)); // inside rows

        // Under every mirroring, the bound comparisons agree with the
        // definition applied to the relative rectangle, and R6 is R4
        // with the axes exchanged.
        let s = Coord::new(8, 7);
        for d in Mesh::square(16).nodes() {
            let frame = Frame::normalizing(s, d);
            let (rel_d, rel_b) = (frame.to_rel(d), frame.rect_to_rel(&rb));
            let r4 = rel_d.y > rel_b.y_max() && rel_d.x <= rel_b.x_max();
            let r6 = rel_d.x > rel_b.x_max() && rel_d.y <= rel_b.y_max();
            assert_eq!(in_r4(&rb, d, &frame), r4, "R4 of {rb} for {d}");
            assert_eq!(in_r6(&rb, d, &frame), r6, "R6 of {rb} for {d}");
        }
    }
}
