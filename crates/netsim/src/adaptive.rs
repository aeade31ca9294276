//! A Stroobant-style adaptive, fault-tolerant, deadlock-free router.
//!
//! [`AdaptiveRouter`] follows the virtual-channel discipline of
//! Stroobant et al. ("A General, Fault tolerant, Adaptive, Deadlock-free
//! Routing Protocol for Network-on-chip"): packets normally travel on
//! *adaptive* channels, free to take any open minimal hop; when every
//! minimal hop is closed by a fault region, they fall back to the
//! *escape* channel (channel 0), which runs deterministic
//! dimension-order routing extended with a geometric detour around the
//! blocking rectangle. Fault regions are the paper's own faulty-block
//! decomposition — the router reuses [`emr_fault::BlockMap`]'s packed
//! bit plane and rectangle list, so its fault knowledge is exactly the
//! Definition-1 blocks the rest of the system reasons about.
//!
//! Deadlock freedom in this simulator is structural: buffers are
//! unbounded and every link is re-arbitrated from scratch each cycle,
//! so no packet ever *holds* a link while waiting for another (no
//! hold-and-wait, hence no resource deadlock); the round-robin channel
//! allocator ([`crate::vc::VcTable`]) gives the escape channel a `1/vcs`
//! bandwidth floor on every contended link, so escape traffic cannot be
//! starved by the adaptive flood. What the escape rule must add is
//! *progress around faults*: its detour walks a consistent side of the
//! blocking rectangle (a function of the rectangle and the destination
//! only, never of the packet's history), so successive hops agree and
//! the packet cannot oscillate around a single block. Adversarial
//! multi-rectangle mazes can still livelock a non-minimal packet in
//! principle; runs bound this with their cycle budget and count such
//! packets as failed — the honest cost of a stateless per-hop rule.

use emr_core::route::RouteError;
use emr_fault::BlockMap;
use emr_mesh::{BitGrid, Coord, Direction, Mesh, Rect};

use crate::dynamic::DynamicRouter;
use crate::packet::PacketId;
use crate::router::Router;

/// Adaptive minimal routing over fault rectangles with a
/// dimension-order escape channel.
#[derive(Debug, Clone)]
pub struct AdaptiveRouter {
    mesh: Mesh,
    /// Unusable nodes (failed or deactivated by convexification).
    blocked: BitGrid,
    /// The fault rectangles the escape detour walks around.
    rects: Vec<Rect>,
}

impl AdaptiveRouter {
    /// A router over one scenario's faulty-block decomposition.
    pub fn new(mesh: Mesh, blocks: &BlockMap) -> AdaptiveRouter {
        AdaptiveRouter {
            mesh,
            blocked: blocks.packed().clone(),
            rects: blocks.rects().to_vec(),
        }
    }

    /// A router over a fault-free mesh (faults can arrive later through
    /// [`DynamicRouter::fail_node`]).
    pub fn fault_free(mesh: Mesh) -> AdaptiveRouter {
        AdaptiveRouter {
            mesh,
            blocked: BitGrid::new(mesh),
            rects: Vec::new(),
        }
    }

    fn open(&self, c: Coord) -> bool {
        self.mesh.contains(c) && self.blocked.get(c) != Some(true)
    }

    /// The fault rectangle covering `c`, if any. Only consulted when
    /// `c`'s blocked bit is set, so the linear scan is off the fast path.
    fn rect_at(&self, c: Coord) -> Option<&Rect> {
        self.rects.iter().find(|r| r.contains(c))
    }

    /// The forced-detour check for one axis: progress along `toward` is
    /// needed, the next node that way is closed by rectangle `r`, and
    /// the destination's cross-coordinate lies inside `r`'s band — so
    /// every minimal path must round `r`, and any minimal cross-move
    /// would be undone next hop (that is the oscillation a naive escape
    /// livelocks on). Returns the detour direction: the walk rounds the
    /// band side nearer the destination among the sides the mesh leaves
    /// open — a function of `(r, t, mesh)` only, never of the packet's
    /// history, so successive hops agree and the detour is monotone.
    fn forced_detour(
        &self,
        r: &Rect,
        t: Coord,
        u: Coord,
        horizontal_progress: bool,
    ) -> Option<Direction> {
        let (lo_ok, hi_ok, lo_gain, hi_gain) = if horizontal_progress {
            // Round the rectangle's row band: walk south or north.
            (
                r.y_min() > 0,
                r.y_max() < self.mesh.height() - 1,
                t.y - r.y_min(),
                r.y_max() - t.y,
            )
        } else {
            // Round the rectangle's column band: walk west or east.
            (
                r.x_min() > 0,
                r.x_max() < self.mesh.width() - 1,
                t.x - r.x_min(),
                r.x_max() - t.x,
            )
        };
        let hi = match (hi_ok, lo_ok) {
            (true, false) => true,
            (false, true) => false,
            (false, false) => return None, // band spans the whole mesh
            _ => hi_gain < lo_gain,
        };
        let first = match (horizontal_progress, hi) {
            (true, true) => Direction::North,
            (true, false) => Direction::South,
            (false, true) => Direction::East,
            (false, false) => Direction::West,
        };
        [first, first.opposite()]
            .into_iter()
            .find(|&d| self.open(u.step(d)))
    }

    /// The routing decision: a direction plus whether it is an escape
    /// (non-minimal detour) hop.
    ///
    /// # Errors
    ///
    /// [`RouteError::Stuck`] when the destination is inside a fault
    /// region or every candidate hop is closed.
    pub fn classify(&self, t: Coord, u: Coord) -> Result<(Direction, bool), RouteError> {
        if !self.open(t) {
            // The destination itself was swallowed: no route exists.
            return Err(RouteError::Stuck(u));
        }
        let (dx, dy) = (t.x - u.x, t.y - u.y);
        let xcand = (dx != 0).then_some({
            if dx > 0 {
                Direction::East
            } else {
                Direction::West
            }
        });
        let ycand = (dy != 0).then_some({
            if dy > 0 {
                Direction::North
            } else {
                Direction::South
            }
        });
        // Forced detours come first — X axis, then Y (dimension order):
        // when the destination's own row (column) is inside the blocking
        // rectangle's band, the adaptive minimal rule below would undo
        // any detour progress, so the escape walk takes precedence.
        if let Some(xdir) = xcand {
            let v = u.step(xdir);
            if !self.open(v) {
                if let Some(r) = self.rect_at(v) {
                    if t.y >= r.y_min() && t.y <= r.y_max() {
                        return self
                            .forced_detour(r, t, u, true)
                            .map(|d| (d, true))
                            .ok_or(RouteError::Stuck(u));
                    }
                }
            }
        }
        if let Some(ydir) = ycand {
            let v = u.step(ydir);
            if !self.open(v) {
                if let Some(r) = self.rect_at(v) {
                    if t.x >= r.x_min() && t.x <= r.x_max() {
                        return self
                            .forced_detour(r, t, u, false)
                            .map(|d| (d, true))
                            .ok_or(RouteError::Stuck(u));
                    }
                }
            }
        }
        // Adaptive minimal: any open minimal hop, preferring the axis
        // with the larger remaining offset (ties go horizontal).
        let ordered = if dx.abs() >= dy.abs() {
            [xcand, ycand]
        } else {
            [ycand, xcand]
        };
        for d in ordered.into_iter().flatten() {
            if self.open(u.step(d)) {
                return Ok((d, false));
            }
        }
        Err(RouteError::Stuck(u))
    }
}

impl Router for AdaptiveRouter {
    fn next_hop(
        &self,
        _leg_source: Coord,
        leg_target: Coord,
        u: Coord,
    ) -> Result<Direction, RouteError> {
        self.classify(leg_target, u).map(|(d, _)| d)
    }

    fn next_hop_vc(
        &self,
        _leg_source: Coord,
        leg_target: Coord,
        u: Coord,
        id: PacketId,
        vcs: usize,
    ) -> Result<(Direction, usize), RouteError> {
        let (dir, escape) = self.classify(leg_target, u)?;
        let vc = if escape || vcs <= 1 {
            0
        } else {
            // Spread adaptive traffic over the non-escape channels.
            1 + usize::try_from(id % (vcs as u64 - 1)).unwrap_or(0)
        };
        Ok((dir, vc))
    }
}

impl DynamicRouter for AdaptiveRouter {
    fn fail_node(&mut self, c: Coord) {
        if self.blocked.get(c) != Some(true) {
            self.blocked.set(c, true);
            // A point rectangle: no convexification — the adaptive rule
            // only needs to know which cells a detour must round.
            self.rects.push(Rect::point(c));
        }
    }

    fn is_node_blocked(&self, c: Coord) -> bool {
        self.blocked.get(c) == Some(true)
    }
}

/// Classic dimension-order (XY) routing: exhaust the X offset, then the
/// Y offset, failing as soon as the next hop is blocked. Fault-oblivious
/// apart from that check — the baseline that shows why the paper's
/// machinery is needed, and the one the load sweep runs: it drops every
/// packet whose L-path crosses a faulty block. Owns its blocked bits, so
/// it also serves as a [`DynamicRouter`].
#[derive(Debug, Clone)]
pub struct XyRouter {
    mesh: Mesh,
    blocked: BitGrid,
}

impl XyRouter {
    /// A router over one scenario's faulty-block decomposition.
    pub fn new(mesh: Mesh, blocks: &BlockMap) -> XyRouter {
        XyRouter {
            mesh,
            blocked: blocks.packed().clone(),
        }
    }

    /// A router over a fault-free mesh.
    pub fn fault_free(mesh: Mesh) -> XyRouter {
        XyRouter {
            mesh,
            blocked: BitGrid::new(mesh),
        }
    }
}

impl Router for XyRouter {
    fn next_hop(
        &self,
        _leg_source: Coord,
        leg_target: Coord,
        u: Coord,
    ) -> Result<Direction, RouteError> {
        let dir = if u.x != leg_target.x {
            if leg_target.x > u.x {
                Direction::East
            } else {
                Direction::West
            }
        } else if leg_target.y > u.y {
            Direction::North
        } else {
            Direction::South
        };
        let v = u.step(dir);
        if self.mesh.contains(v) && self.blocked.get(v) != Some(true) {
            Ok(dir)
        } else {
            Err(RouteError::Stuck(u))
        }
    }
}

impl DynamicRouter for XyRouter {
    fn fail_node(&mut self, c: Coord) {
        self.blocked.set(c, true);
    }

    fn is_node_blocked(&self, c: Coord) -> bool {
        self.blocked.get(c) == Some(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use crate::sim::NetSim;
    use emr_core::Scenario;
    use emr_fault::FaultSet;

    fn router(side: i32, coords: &[(i32, i32)]) -> AdaptiveRouter {
        let mesh = Mesh::square(side);
        let sc = Scenario::build(FaultSet::from_coords(
            mesh,
            coords.iter().map(|&c| Coord::from(c)),
        ));
        AdaptiveRouter::new(mesh, sc.blocks())
    }

    /// Walks hop by hop from s to d; returns hops or the stuck error.
    fn walk(r: &AdaptiveRouter, s: Coord, d: Coord, limit: u32) -> Result<u32, RouteError> {
        let mut u = s;
        let mut hops = 0;
        while u != d {
            if hops > limit {
                return Err(RouteError::Stuck(u));
            }
            u = u.step(r.next_hop(s, d, u)?);
            assert!(r.open(u), "stepped onto blocked {u}");
            hops += 1;
        }
        Ok(hops)
    }

    #[test]
    fn fault_free_routes_are_minimal() {
        let r = router(10, &[]);
        for (s, d) in [
            ((0, 0), (7, 4)),
            ((7, 4), (0, 0)),
            ((3, 9), (9, 0)),
            ((5, 5), (5, 1)),
        ] {
            let (s, d) = (Coord::from(s), Coord::from(d));
            assert_eq!(walk(&r, s, d, 40), Ok(s.manhattan(d)));
        }
    }

    #[test]
    fn single_block_stays_minimal_when_possible() {
        // Block off-row: adaptivity slides around it minimally.
        let r = router(10, &[(5, 3), (5, 4)]);
        let (s, d) = (Coord::new(1, 2), Coord::new(9, 6));
        assert_eq!(walk(&r, s, d, 60), Ok(s.manhattan(d)));
    }

    #[test]
    fn dest_row_inside_block_forces_escape_detour() {
        // The rectangle spans rows 2..=5 and the destination row 3 is
        // inside the band: XY dies here, the escape detour rounds the
        // rectangle (non-minimal) and still delivers.
        let faults: Vec<(i32, i32)> = (2..=5).map(|y| (5, y)).collect();
        let r = router(12, &faults);
        let (s, d) = (Coord::new(1, 3), Coord::new(10, 3));
        let hops = walk(&r, s, d, 80).expect("adaptive router must deliver");
        assert!(
            hops > s.manhattan(d),
            "the detour is non-minimal by construction"
        );
        // XY on the same scenario drops the packet.
        let sc = Scenario::build(FaultSet::from_coords(
            Mesh::square(12),
            faults.iter().map(|&c| Coord::from(c)),
        ));
        let xy = XyRouter::new(Mesh::square(12), sc.blocks());
        let mut sim = NetSim::new(Mesh::square(12), xy);
        sim.inject(Packet::direct(s, d), 0);
        let report = sim.run_to_completion(200).unwrap();
        assert_eq!(report.failed, 1);
    }

    #[test]
    fn vertical_leg_blocked_by_band_escapes_sideways() {
        // Destination straight above, rectangle in between spanning the
        // destination column.
        let r = router(12, &[(4, 5), (5, 5), (6, 5)]);
        let (s, d) = (Coord::new(5, 2), Coord::new(5, 9));
        let hops = walk(&r, s, d, 80).expect("must deliver around the band");
        assert!(hops >= s.manhattan(d));
    }

    #[test]
    fn destination_inside_block_is_stuck_immediately() {
        let r = router(10, &[(5, 5), (6, 5), (5, 6), (6, 6)]);
        assert!(matches!(
            r.next_hop(Coord::new(0, 0), Coord::new(5, 5), Coord::new(0, 0)),
            Err(RouteError::Stuck(_))
        ));
    }

    #[test]
    fn dynamic_fail_node_reroutes() {
        let mesh = Mesh::square(10);
        let mut r = AdaptiveRouter::fault_free(mesh);
        let (s, d) = (Coord::new(0, 0), Coord::new(9, 0));
        r.fail_node(Coord::new(4, 0));
        assert!(r.is_node_blocked(Coord::new(4, 0)));
        let hops = walk(&r, s, d, 60).expect("route survives the fault");
        assert!(hops > s.manhattan(d), "must round the failed node");
    }

    #[test]
    fn escape_hops_ride_channel_zero() {
        let faults: Vec<(i32, i32)> = (2..=5).map(|y| (5, y)).collect();
        let r = router(12, &faults);
        let (s, d) = (Coord::new(4, 3), Coord::new(10, 3));
        // At (4,3) the East hop is closed and the destination row is in
        // the band: the request must be an escape on vc 0.
        let (dir, vc) = r.next_hop_vc(s, d, s, 7, 4).unwrap();
        assert!(matches!(dir, Direction::North | Direction::South));
        assert_eq!(vc, 0);
        // A free minimal hop spreads over the adaptive channels 1..vcs.
        let (_, vc) = r
            .next_hop_vc(Coord::new(0, 0), Coord::new(3, 9), Coord::new(0, 0), 7, 4)
            .unwrap();
        assert!((1..4).contains(&vc));
    }
}
