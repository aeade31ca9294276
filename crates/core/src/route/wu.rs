//! Wu's boundary-information routing protocol.

use emr_mesh::{BitGrid, Coord, Direction, Path};

use crate::boundary::LegVetoes;
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
    let leg = Leg::new(view, s, d);
    let mut path = Path::singleton(s);
    let mut u = s;
    while u != d {
        u = u.step(leg.hop(u)?);
        path.push(u);
    }
    Ok(path)
}

/// One hop of Wu's protocol: the direction a packet at `u`, en route from
/// `s` to `d`, must take next. This is the per-node routing function a
/// mesh router implements; [`wu_route`] is simply its fix-point, and the
/// packet-level network simulator (`emr-netsim`) drives it with many
/// packets in flight, a stretch of hops at a time through [`wu_walk`].
///
/// A hop works in the route's frame without branching on its quadrant.
/// The frame's mirrorings are two signs; the remaining offsets and the
/// two preferred neighbours are plain arithmetic on them, and each
/// neighbour is one bit of the leg's obstacle plane. The hop then reads
/// the veto of the move Wu's adaptive rule tries first: the one with the
/// larger remaining offset, East on a tie. The veto lives in one lane of
/// the leg's [`crate::BoundaryMap`] (the map of the obstacle plane the
/// neighbours are read from), picked by select: the straight runs in
/// column `u.x` on a lower L3 section for the East move, those in row
/// `u.y` on a left L1 section for the North move. A run covering `u`
/// vetoes the move when `d` lies in its block's R4 (R6). The other lane
/// is read only when the first move is closed or vetoed, and both only
/// to tell a [`RouteError::Conflict`] from a [`RouteError::Stuck`]. The
/// absolute direction comes from a four-entry table. Bend steps never
/// veto: an L3 contour's bends all point East in the relative frame, an
/// L1 contour's all North, which is exactly the move the rule leaves
/// open.
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
    Leg::new(view, s, d).hop(u)
}

/// Walks Wu's protocol along the leg from `s` to `d`, starting at `u`:
/// writes into `hops` what [`wu_step`] answers at `u`, then at the node
/// that hop reaches, and so on, and returns how many it wrote. The walk
/// stops at `d`, at the first error (returned beside the count, at the
/// node the written hops reach) or when `hops` is full. The leg's
/// frame, obstacle plane and boundary tables are resolved once for the
/// whole walk, where [`wu_step`] resolves them per hop.
pub fn wu_walk(
    view: &ModelView<'_>,
    s: Coord,
    d: Coord,
    u: Coord,
    hops: &mut [Direction],
) -> (usize, Option<RouteError>) {
    let leg = Leg::new(view, s, d);
    let mut at = u;
    for (n, slot) in hops.iter_mut().enumerate() {
        if at == d {
            return (n, None);
        }
        match leg.hop(at) {
            Ok(dir) => {
                *slot = dir;
                at = at.step(dir);
            }
            Err(e) => return (n, Some(e)),
        }
    }
    (hops.len(), None)
}

/// One leg of Wu's protocol, resolved once: the route's frame as two
/// flips and their signs, its destination, and the obstacle plane and
/// boundary tables it reads. [`Leg::hop`] is Wu's per-hop rule, the one
/// [`wu_step`], [`wu_route`] and [`wu_walk`] all run.
struct Leg<'a> {
    d: Coord,
    /// The route's frame (`Frame::normalizing(s, d)`) as the axes it
    /// mirrors.
    flips: (bool, bool),
    /// The flips' signs: +1 along an axis the frame keeps, -1 along one
    /// it mirrors.
    signs: (i32, i32),
    plane: &'a BitGrid,
    vetoes: LegVetoes<'a>,
}

impl<'a> Leg<'a> {
    fn new(view: &ModelView<'a>, s: Coord, d: Coord) -> Leg<'a> {
        let flips = (d.x < s.x, d.y < s.y);
        Leg {
            d,
            flips,
            signs: (sign(flips.0), sign(flips.1)),
            plane: view.plane_for(s, d),
            vetoes: view.boundary_for(s, d).leg(flips, d),
        }
    }

    /// The hop at `u` (not `d`); see [`wu_step`].
    fn hop(&self, u: Coord) -> Result<Direction, RouteError> {
        let (d, flips, (sx, sy)) = (self.d, self.flips, self.signs);
        // The remaining offsets in the relative frame. A move is
        // preferred while its offset is positive, and open when its
        // neighbour is a usable node of the plane (off the mesh, the
        // plane reads `None`). `&` reads the bit of a move that is not
        // preferred too, so the test does not branch.
        let (rx, ry) = ((d.x - u.x) * sx, (d.y - u.y) * sy);
        let usable = |v: Coord| self.plane.get(v) == Some(false);
        let east_open = (rx > 0) & usable(Coord::new(u.x + sx, u.y));
        let north_open = (ry > 0) & usable(Coord::new(u.x, u.y + sy));

        // Boundary constraints: a veto forbids one preferred direction.
        // Lower L3 contour, destination in R4: crossing east of the
        // contour makes the block uncrossable within the destination's
        // column. Left L1 contour, destination in R6: symmetric.
        let vetoed = |east: bool| self.vetoes.vetoes(east, u);
        // Wu's adaptive choice: the move with the larger remaining offset
        // first (East on a tie), the other when the first is closed or
        // vetoed. The offsets never put a move that is not preferred
        // first.
        let east_first = rx >= ry;
        let (first_open, second_open) = if east_first {
            (east_open, north_open)
        } else {
            (north_open, east_open)
        };
        if first_open && !vetoed(east_first) {
            return Ok(absolute(east_first, flips));
        }
        if second_open && !vetoed(!east_first) {
            return Ok(absolute(!east_first, flips));
        }
        // Every open preferred move is vetoed. A genuine conflict vetoes
        // both preferred moves, closed ones included; anything else is a
        // dead end.
        let conflict =
            rx > 0 && ry > 0 && (east_open || vetoed(true)) && (north_open || vetoed(false));
        Err(if conflict {
            RouteError::Conflict(u)
        } else {
            RouteError::Stuck(u)
        })
    }
}

/// The sign of an axis the route's frame mirrors when `flip`.
fn sign(flip: bool) -> i32 {
    1 - 2 * i32::from(flip)
}

/// The absolute direction of the relative East (`east`) or North move
/// under the frame's `(flips_x, flips_y)`: the entry of a four-entry
/// table the move and the flip of its axis pick.
fn absolute(east: bool, (flips_x, flips_y): (bool, bool)) -> Direction {
    const MOVES: [Direction; 4] = [
        Direction::East,
        Direction::West,
        Direction::North,
        Direction::South,
    ];
    let flip = if east { flips_x } else { flips_y };
    MOVES[usize::from(!east) << 1 | usize::from(flip)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions;
    use crate::{Model, Scenario};
    use emr_fault::{reach, FaultSet};
    use emr_mesh::{Frame, Mesh, Rect};

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

    /// Whether `d` lies in the paper's region R4 of `block` as `frame`
    /// sees it: strictly beyond the block along the relative Y axis, and
    /// not past its far column along the relative X axis.
    fn in_r4(block: &Rect, d: Coord, frame: &Frame) -> bool {
        past(d.y, block.y_min(), block.y_max(), frame.flips_y())
            && !past(d.x, block.x_min(), block.x_max(), frame.flips_x())
    }

    /// Whether `d` lies in region R6 of `block` as `frame` sees it: R4
    /// with the axes exchanged.
    fn in_r6(block: &Rect, d: Coord, frame: &Frame) -> bool {
        past(d.x, block.x_min(), block.x_max(), frame.flips_x())
            && !past(d.y, block.y_min(), block.y_max(), frame.flips_y())
    }

    /// Whether `v` lies strictly past the far end of `lo..=hi` along an
    /// axis the route's frame mirrors when `flip`.
    fn past(v: i32, lo: i32, hi: i32, flip: bool) -> bool {
        if flip {
            v < lo
        } else {
            v > hi
        }
    }

    /// The eager two-lane rule's verdict, with what it saw of the two
    /// relative moves, indexed `[East, North]`: whether each is
    /// preferred, open (its neighbour a usable node) and vetoed.
    struct TwoLanes {
        verdict: Result<Direction, RouteError>,
        east_first: bool,
        preferred: [bool; 2],
        open: [bool; 2],
        vetoed: [bool; 2],
    }

    /// The eager two-lane rule, the reference for [`wu_step`]'s lazy
    /// veto: both lanes scanned on every hop, each covering run's R4/R6
    /// tested against its block's rectangle, then both moves weighed.
    fn wu_step_two_lanes(view: &ModelView<'_>, s: Coord, d: Coord, u: Coord) -> TwoLanes {
        let mesh = view.mesh();
        let boundary = view.boundary_for(s, d);
        let frame = Frame::normalizing(s, d);
        let rel_d = frame.to_rel(d);
        let rel_u = frame.to_rel(u);
        let east_pref = rel_u.x < rel_d.x;
        let north_pref = rel_u.y < rel_d.y;
        let east_vetoed = east_pref
            && boundary
                .lower_l3_runs(&frame, u.x)
                .iter()
                .any(|&(lo, hi, block)| (lo..=hi).contains(&u.y) && in_r4(&block, d, &frame));
        let north_vetoed = north_pref
            && boundary
                .left_l1_runs(&frame, u.y)
                .iter()
                .any(|&(lo, hi, block)| (lo..=hi).contains(&u.x) && in_r6(&block, d, &frame));
        let open = |dir: Direction| {
            let v = u.step(frame.dir_to_abs(dir));
            mesh.contains(v) && !view.is_obstacle(v, s, d)
        };
        let (east_open, north_open) = (open(Direction::East), open(Direction::North));
        let east_ok = east_pref && !east_vetoed && east_open;
        let north_ok = north_pref && !north_vetoed && north_open;
        let east_first = rel_d.x - rel_u.x >= rel_d.y - rel_u.y;
        let rel_dir = match (east_ok, north_ok) {
            (true, true) => {
                if east_first {
                    Ok(Direction::East)
                } else {
                    Ok(Direction::North)
                }
            }
            (true, false) => Ok(Direction::East),
            (false, true) => Ok(Direction::North),
            (false, false) => {
                if east_pref && north_pref && east_vetoed && north_vetoed {
                    Err(RouteError::Conflict(u))
                } else {
                    Err(RouteError::Stuck(u))
                }
            }
        };
        TwoLanes {
            verdict: rel_dir.map(|dir| frame.dir_to_abs(dir)),
            east_first,
            preferred: [east_pref, north_pref],
            open: [east_open, north_open],
            vetoed: [east_vetoed, north_vetoed],
        }
    }

    #[test]
    fn lazy_veto_matches_the_two_lane_rule() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x1a2e_5eed);
        // Hops compared, hops a veto fired at, and the two errors.
        let (mut hops, mut vetoed, mut stuck, mut conflicts) = (0u64, 0u64, 0u64, 0u64);
        let mut quadrants = Vec::new();
        for (w, h) in [(128, 128), (65, 9), (9, 65), (1, 40), (40, 1)] {
            let mesh = Mesh::new(w, h);
            for percent in [1, 5, 15] {
                let count = mesh.node_count() * percent / 100;
                let sc = Scenario::build(emr_fault::inject::uniform(mesh, count, &[], &mut rng));
                for model in Model::ALL {
                    let view = sc.view(model);
                    for _ in 0..24 {
                        let (x1, x2) = (rng.gen_range(0..w), rng.gen_range(0..w));
                        let (y1, y2) = (rng.gen_range(0..h), rng.gen_range(0..h));
                        // One box, routed corner to corner in all four
                        // quadrants.
                        let routes = [
                            ((x1, y1), (x2, y2)),
                            ((x2, y2), (x1, y1)),
                            ((x1, y2), (x2, y1)),
                            ((x2, y1), (x1, y2)),
                        ];
                        for (s, d) in routes.map(|(s, d)| (Coord::from(s), Coord::from(d))) {
                            if !view.endpoints_usable(s, d) {
                                continue;
                            }
                            let quadrant = emr_mesh::Quadrant::of(s, d);
                            if !quadrants.contains(&quadrant) {
                                quadrants.push(quadrant);
                            }
                            for u in Rect::point(s).expanded_to(d).iter() {
                                if u == d || view.is_obstacle(u, s, d) {
                                    continue;
                                }
                                let eager = wu_step_two_lanes(&view, s, d, u);
                                let want = eager.verdict;
                                assert_eq!(
                                    wu_step(&view, s, d, u),
                                    want,
                                    "{model:?} on {w}x{h} at {percent}%: {s}->{d} at {u}"
                                );
                                hops += 1;
                                vetoed += u64::from(eager.vetoed.contains(&true));
                                stuck += u64::from(matches!(want, Err(RouteError::Stuck(_))));
                                conflicts +=
                                    u64::from(matches!(want, Err(RouteError::Conflict(_))));
                            }
                        }
                    }
                }
            }
        }
        // 851,920 hops, 27,965 vetoed and 2,975 `Stuck` at this seed. No
        // hop returns `Conflict`: a vetoed move's other preferred move is
        // open and unvetoed wherever this sweep looks.
        println!("{hops} hops, {vetoed} vetoed, {stuck} stuck, {conflicts} conflicts");
        assert_eq!(quadrants.len(), 4, "every quadrant routed");
        assert!(hops >= 500_000, "{hops} hops compared");
        assert!(vetoed >= 10_000, "{vetoed} vetoed hops");
        assert!(stuck >= 1_000, "{stuck} stuck hops");
    }

    /// What one start's walks met: the hops they wrote over every
    /// buffer length, the hops iterated [`wu_step`] takes from the start
    /// (up to the longest buffer), and the error that ends those.
    #[derive(Clone, Copy)]
    struct Walked {
        written: usize,
        steps: usize,
        error: Option<RouteError>,
    }

    /// Walks from `u` with every buffer length `1..=longest` and checks
    /// each walk against iterated [`wu_step`]: the same hops, the same
    /// stop, and an error only where the steps meet one within the
    /// buffer, at the same node with the same variant.
    fn walks_match_steps(
        view: &ModelView<'_>,
        s: Coord,
        d: Coord,
        u: Coord,
        longest: usize,
        at: &dyn Fn() -> String,
    ) -> Walked {
        let (mut steps, mut error, mut node) = (Vec::new(), None, u);
        while steps.len() < longest && node != d {
            match wu_step(view, s, d, node) {
                Ok(dir) => {
                    steps.push(dir);
                    node = node.step(dir);
                }
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        let mut buffer = [Direction::East; 32];
        let mut written = 0;
        for len in 1..=longest {
            let (n, walk_error) = wu_walk(view, s, d, u, &mut buffer[..len]);
            let want = steps.len().min(len);
            assert_eq!(&buffer[..n], &steps[..want], "{}, buffer {len}", at());
            let want_error = error.filter(|_| steps.len() < len);
            assert_eq!(walk_error, want_error, "{}, buffer {len}", at());
            written += n;
        }
        Walked {
            written,
            steps: steps.len(),
            error,
        }
    }

    /// Starts walked, hops the walks wrote, and the errors met at a start
    /// and after at least one hop.
    #[derive(Debug, Default)]
    struct Tally {
        starts: u64,
        hops: u64,
        at_start: u64,
        mid_walk: u64,
    }

    impl Tally {
        fn add(&mut self, walked: Walked) {
            self.starts += 1;
            self.hops += walked.written as u64;
            if walked.error.is_some() {
                if walked.steps == 0 {
                    self.at_start += 1;
                } else {
                    self.mid_walk += 1;
                }
            }
        }
    }

    #[test]
    fn walks_match_iterated_steps() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x3a1c_5eed);
        let mut boxes = Tally::default();
        for (w, h) in [(128, 128), (65, 9), (9, 65), (1, 40), (40, 1)] {
            let mesh = Mesh::new(w, h);
            for percent in [1, 5, 15] {
                let count = mesh.node_count() * percent / 100;
                let sc = Scenario::build(emr_fault::inject::uniform(mesh, count, &[], &mut rng));
                for model in Model::ALL {
                    let view = sc.view(model);
                    for _ in 0..16 {
                        let (x1, x2) = (rng.gen_range(0..w), rng.gen_range(0..w));
                        let (y1, y2) = (rng.gen_range(0..h), rng.gen_range(0..h));
                        let routes = [
                            ((x1, y1), (x2, y2)),
                            ((x2, y2), (x1, y1)),
                            ((x1, y2), (x2, y1)),
                            ((x2, y1), (x1, y2)),
                        ];
                        for (s, d) in routes.map(|(s, d)| (Coord::from(s), Coord::from(d))) {
                            if s == d || !view.endpoints_usable(s, d) {
                                continue;
                            }
                            // The leg source and three random usable
                            // nodes of the box.
                            let usable: Vec<Coord> = Rect::point(s)
                                .expanded_to(d)
                                .iter()
                                .filter(|&u| u != d && !view.is_obstacle(u, s, d))
                                .collect();
                            let picks = (0..3).map(|_| usable[rng.gen_range(0..usable.len())]);
                            for u in std::iter::once(s).chain(picks) {
                                let at = || {
                                    format!("{model:?} on {w}x{h} at {percent}%: {s}->{d} from {u}")
                                };
                                boxes.add(walks_match_steps(&view, s, d, u, 32, &at));
                            }
                        }
                    }
                }
            }
        }
        // Every fault set of up to three faults on 4x4, both models, every
        // usable (s, d) and every usable u in their box. Every hop is
        // preferred, so a walk from u takes at most |u d| hops, and a
        // buffer one longer stands for every longer one.
        let mut small = Tally::default();
        let mesh = Mesh::square(4);
        let nodes: Vec<Coord> = mesh.nodes().collect();
        for mask in (0u32..1 << nodes.len()).filter(|m| m.count_ones() <= 3) {
            let faults = nodes
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask >> i & 1 == 1)
                .map(|(_, &c)| c);
            let sc = Scenario::build(FaultSet::from_coords(mesh, faults));
            for model in Model::ALL {
                let view = sc.view(model);
                for (&s, &d) in nodes.iter().flat_map(|s| nodes.iter().map(move |d| (s, d))) {
                    if s == d || !view.endpoints_usable(s, d) {
                        continue;
                    }
                    for u in Rect::point(s).expanded_to(d).iter() {
                        if u == d || view.is_obstacle(u, s, d) {
                            continue;
                        }
                        let at = || format!("{model:?} with faults {mask:#06x}: {s}->{d} from {u}");
                        let longest = u.manhattan(d) as usize + 1;
                        small.add(walks_match_steps(&view, s, d, u, longest, &at));
                    }
                }
            }
        }
        // Random boxes: 6,272 starts, 1,618,155 hops written, errors at
        // 183 starts and from 1,002 after at least one hop. On 4x4:
        // 745,976 starts, 4,179,080 hops, errors at 30,472 and from
        // 12,040. The floors keep the check from passing on walks that
        // never meet an error.
        println!("random boxes: {boxes:?}\n4x4: {small:?}");
        assert!(boxes.hops >= 1_000_000, "{boxes:?}");
        assert!(boxes.at_start >= 100 && boxes.mid_walk >= 500, "{boxes:?}");
        assert!(small.hops >= 3_000_000, "{small:?}");
        assert!(
            small.at_start >= 20_000 && small.mid_walk >= 8_000,
            "{small:?}"
        );
    }

    #[test]
    fn every_small_fault_set_agrees_and_never_conflicts() {
        // Every fault set of up to three faults on 4x4, both models,
        // every usable (s, d) and every usable u in their box: the lazy
        // hop equals the eager rule, no hop returns `Conflict`, and a
        // closed first move never meets a vetoed second one.
        let mesh = Mesh::square(4);
        let nodes: Vec<Coord> = mesh.nodes().collect();
        // Hops compared, hops a veto fired at, and the `Stuck` verdicts.
        let (mut hops, mut vetoed, mut stuck) = (0u64, 0u64, 0u64);
        for mask in (0u32..1 << nodes.len()).filter(|m| m.count_ones() <= 3) {
            let faults = nodes
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask >> i & 1 == 1)
                .map(|(_, &c)| c);
            let sc = Scenario::build(FaultSet::from_coords(mesh, faults));
            for model in Model::ALL {
                let view = sc.view(model);
                for (&s, &d) in nodes.iter().flat_map(|s| nodes.iter().map(move |d| (s, d))) {
                    if s == d || !view.endpoints_usable(s, d) {
                        continue;
                    }
                    for u in Rect::point(s).expanded_to(d).iter() {
                        if u == d || view.is_obstacle(u, s, d) {
                            continue;
                        }
                        let eager = wu_step_two_lanes(&view, s, d, u);
                        let at = format!("{model:?} with faults {mask:#06x}: {s}->{d} at {u}");
                        assert_eq!(wu_step(&view, s, d, u), eager.verdict, "{at}");
                        assert!(
                            !matches!(eager.verdict, Err(RouteError::Conflict(_))),
                            "{at}: Conflict"
                        );
                        let (first, second) = if eager.east_first { (0, 1) } else { (1, 0) };
                        let first_closed = eager.preferred[first] && !eager.open[first];
                        assert!(
                            !(first_closed && eager.vetoed[second]),
                            "{at}: a closed first move meets a vetoed second one"
                        );
                        hops += 1;
                        vetoed += u64::from(eager.vetoed.contains(&true));
                        stuck += u64::from(eager.verdict.is_err());
                    }
                }
            }
        }
        // 745,976 hops, 22,536 of them vetoed and 30,472 `Stuck`. The
        // floors keep the check from passing on a sweep that never vetoes.
        println!("{hops} hops, {vetoed} vetoed, {stuck} stuck");
        assert!(hops >= 700_000, "{hops} hops compared");
        assert!(vetoed >= 20_000, "{vetoed} vetoed hops");
        assert!(stuck >= 20_000, "{stuck} stuck hops");
    }
}
