//! Routing: Wu's protocol and the two-phase plan executor.
//!
//! Wu's protocol ([`wu_route`]) is the paper's minimal router: adaptive
//! minimal routing that consults the faulty-block boundary information
//! ([`crate::BoundaryMap`]) to recognize *critical* selections — nodes
//! where one preferred direction would make a minimal route impossible —
//! and stays on the boundary line instead. Every move is a preferred move,
//! so any route it completes is minimal by construction; from a source
//! satisfying the sufficient safe condition it always completes
//! (property-tested against the exact DP).
//!
//! [`execute`] realizes a [`RoutePlan`] witness from the conditions module
//! as an actual path: the extensions' two-phase routes hop/travel to the
//! witness node first and run Wu's protocol per phase.
//!
//! Every leg reads the boundary map of its own obstacle plane through the
//! view (the block plane, or under MCC the labeling of the leg's
//! quadrant), so a leg is never paired with another plane's map.

mod wu;

pub use wu::{wu_route, wu_step, wu_walk};

use std::fmt;

use emr_mesh::{Coord, Path};

use crate::conditions::RoutePlan;
use crate::scenario::ModelView;

/// Why a routing attempt failed.
///
/// From sources whose conditions ensured the route these never occur; they
/// arise when routing is attempted from unsafe sources (where minimal
/// routes may simply not exist).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// The source or destination is inside an obstacle.
    BlockedEndpoint,
    /// Every allowed preferred direction at this node is blocked.
    Stuck(Coord),
    /// Two boundary constraints at this node veto both preferred
    /// directions — no minimal route exists through it.
    Conflict(Coord),
    /// A two-phase plan's first leg is invalid (e.g. an axis witness not on
    /// the source's row/column, or a non-adjacent neighbor witness).
    BadPlan,
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::BlockedEndpoint => write!(f, "endpoint inside an obstacle"),
            RouteError::Stuck(at) => write!(f, "no usable preferred direction at {at}"),
            RouteError::Conflict(at) => write!(f, "conflicting boundary constraints at {at}"),
            RouteError::BadPlan => write!(f, "invalid two-phase routing plan"),
        }
    }
}

impl std::error::Error for RouteError {}

/// Executes a [`RoutePlan`] from `s` to `d`: runs Wu's protocol directly or
/// realizes the two-phase route through the plan's witness node. Each Wu
/// leg (`s→d`, `s→p` and `p→d`, or `w→d`) reads its own boundary map.
///
/// # Errors
///
/// Returns [`RouteError::BadPlan`] when the witness does not fit the plan's
/// shape, and propagates Wu-protocol failures from either phase.
///
/// # Examples
///
/// See the crate-level quickstart.
pub fn execute(
    view: &ModelView<'_>,
    s: Coord,
    d: Coord,
    plan: &RoutePlan,
) -> Result<Path, RouteError> {
    match *plan {
        RoutePlan::Direct => wu_route(view, s, d),
        RoutePlan::ViaNeighbor(w) => {
            if !s.is_adjacent(w) || view.is_obstacle(w, s, d) {
                return Err(RouteError::BadPlan);
            }
            let first = Path::new(vec![s, w]);
            Ok(first.join(wu_route(view, w, d)?))
        }
        RoutePlan::ViaAxis(w) => {
            let first = axis_leg(view, s, d, w)?;
            Ok(first.join(wu_route(view, w, d)?))
        }
        RoutePlan::ViaPivot(p) => {
            let first = wu_route(view, s, p)?;
            Ok(first.join(wu_route(view, p, d)?))
        }
    }
}

/// The straight axis leg of an extension-2 route: `w` must share a row or
/// column with `s` and the section between them must be clear.
fn axis_leg(view: &ModelView<'_>, s: Coord, d: Coord, w: Coord) -> Result<Path, RouteError> {
    if s == w {
        return Ok(Path::singleton(s));
    }
    let dir = if w.y == s.y {
        if w.x > s.x {
            emr_mesh::Direction::East
        } else {
            emr_mesh::Direction::West
        }
    } else if w.x == s.x {
        if w.y > s.y {
            emr_mesh::Direction::North
        } else {
            emr_mesh::Direction::South
        }
    } else {
        return Err(RouteError::BadPlan);
    };
    let mut path = Path::singleton(s);
    let mut cur = s;
    while cur != w {
        cur = cur.step(dir);
        if !view.mesh().contains(cur) || view.is_obstacle(cur, s, d) {
            return Err(RouteError::Stuck(cur));
        }
        path.push(cur);
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, Scenario};
    use emr_fault::FaultSet;
    use emr_mesh::Mesh;

    fn scenario(coords: &[(i32, i32)]) -> Scenario {
        let mesh = Mesh::square(12);
        Scenario::build(FaultSet::from_coords(
            mesh,
            coords.iter().map(|&c| Coord::from(c)),
        ))
    }

    #[test]
    fn axis_leg_walks_straight() {
        let sc = scenario(&[]);
        let view = sc.view(Model::FaultBlock);
        let p = axis_leg(&view, Coord::new(2, 2), Coord::new(9, 9), Coord::new(6, 2)).unwrap();
        assert!(p.is_minimal());
        assert_eq!(p.hops(), 4);
        assert_eq!(p.dest(), Some(Coord::new(6, 2)));
    }

    #[test]
    fn axis_leg_rejects_diagonal_witness() {
        let sc = scenario(&[]);
        let view = sc.view(Model::FaultBlock);
        assert_eq!(
            axis_leg(&view, Coord::new(2, 2), Coord::new(9, 9), Coord::new(3, 3)),
            Err(RouteError::BadPlan)
        );
    }

    #[test]
    fn via_neighbor_rejects_distant_witness() {
        let sc = scenario(&[]);
        let view = sc.view(Model::FaultBlock);
        assert_eq!(
            execute(
                &view,
                Coord::new(2, 2),
                Coord::new(9, 9),
                &RoutePlan::ViaNeighbor(Coord::new(5, 5))
            ),
            Err(RouteError::BadPlan)
        );
    }

    #[test]
    fn error_display() {
        assert_eq!(
            RouteError::Stuck(Coord::new(1, 2)).to_string(),
            "no usable preferred direction at (1, 2)"
        );
        assert!(RouteError::BadPlan.to_string().contains("plan"));
    }
}
