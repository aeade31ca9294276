//! The layered 3-D router: realize a [`crate::conditions::layered_safe`]
//! guarantee as an actual minimal path.
//!
//! Phase 1 climbs the plan's clear axis from the source to the
//! destination's layer; phase 2 runs the full 2-D machinery — Wu's
//! protocol with boundary information — *inside* that layer, whose
//! obstacle cross-sections are disjoint rectangles. This is literally
//! "apply Theorem 1 in the layer": the 2-D crates are reused unchanged on
//! the projected problem.

use std::fmt;

use emr_core::{route as route2, Model, Scenario};
use emr_fault::FaultSet;
use emr_mesh::{Coord, Mesh};

use crate::block::Scenario3;
use crate::conditions::{layered_safe, LayeredPlan};
use crate::geometry::{Axis3, Coord3, Dir3};

/// Why a 3-D route attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route3Error {
    /// The layered sufficient condition does not hold for this pair — the
    /// router has no guarantee to realize.
    NotEnsured,
    /// The in-layer 2-D phase failed (impossible for ensured pairs; kept
    /// for diagnostics).
    LayerPhase(route2::RouteError),
}

impl fmt::Display for Route3Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Route3Error::NotEnsured => write!(f, "layered safe condition does not hold"),
            Route3Error::LayerPhase(e) => write!(f, "in-layer phase failed: {e}"),
        }
    }
}

impl std::error::Error for Route3Error {}

/// Routes `s → d` by climbing the plan's axis and then running the 2-D
/// protocol in the destination's layer. The result is minimal, avoids
/// every obstacle cuboid, and exists whenever [`layered_safe`] ensures it
/// (property-tested).
///
/// # Errors
///
/// [`Route3Error::NotEnsured`] when the layered condition fails.
///
/// # Examples
///
/// ```
/// use emr_mesh3::{route, Coord3, FaultSet3, Mesh3, Scenario3};
///
/// let mesh = Mesh3::cube(10);
/// let sc = Scenario3::build(FaultSet3::from_coords(mesh, [Coord3::new(4, 4, 2)]));
/// let path = route::layered_route(&sc, Coord3::ORIGIN, Coord3::new(8, 8, 8)).unwrap();
/// assert_eq!(path.len() as u32, 25); // Manhattan 24 + 1 nodes
/// ```
pub fn layered_route(sc: &Scenario3, s: Coord3, d: Coord3) -> Result<Vec<Coord3>, Route3Error> {
    let plan = layered_safe(sc, s, d).ok_or(Route3Error::NotEnsured)?;
    let mut path = axis_leg(s, plan.waypoint, plan.axis);
    let layer = layer_route(sc, &plan, d)?;
    path.extend(layer.into_iter().skip(1));
    Ok(path)
}

/// The straight climb from `s` to the waypoint along `axis`.
fn axis_leg(s: Coord3, waypoint: Coord3, axis: Axis3) -> Vec<Coord3> {
    let delta = waypoint.along(axis) - s.along(axis);
    let dir = Dir3 {
        axis,
        sign: if delta >= 0 { 1 } else { -1 },
    };
    let mut path = vec![s];
    let mut cur = s;
    for _ in 0..delta.unsigned_abs() {
        cur = cur.step(dir);
        path.push(cur);
    }
    path
}

/// Phase 2: project the layer onto a 2-D scenario and run Wu's protocol.
fn layer_route(sc: &Scenario3, plan: &LayeredPlan, d: Coord3) -> Result<Vec<Coord3>, Route3Error> {
    let axis = plan.axis;
    let level = d.along(axis);
    let [b, c] = axis.others();
    let mesh3 = sc.mesh();
    let mesh2 = Mesh::new(mesh3.extent(b), mesh3.extent(c));
    let to3 = |p: Coord| -> Coord3 {
        Coord3::ORIGIN
            .with_along(axis, level)
            .with_along(b, p.x)
            .with_along(c, p.y)
    };
    // The layer's obstacle cross-sections as 2-D faults. Because the plan
    // passed the diagonal-contact check, Definition 1 re-labeling adds no
    // nodes and reproduces exactly these rectangles as its blocks.
    let faults2 = FaultSet::from_coords(
        mesh2,
        mesh2.nodes().filter(|&p| sc.blocks().is_blocked(to3(p))),
    );
    let sc2 = Scenario::build(faults2);
    let view = sc2.view(Model::FaultBlock);
    let s2 = Coord::new(plan.waypoint.along(b), plan.waypoint.along(c));
    let d2 = Coord::new(d.along(b), d.along(c));
    let path2 = route2::wu_route(&view, s2, d2).map_err(Route3Error::LayerPhase)?;
    Ok(path2.nodes().iter().map(|&p| to3(p)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::FaultSet3;
    use crate::geometry::Mesh3;
    use crate::{inject, reach};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn valid_path(sc: &Scenario3, s: Coord3, d: Coord3, path: &[Coord3]) {
        assert_eq!(path.first(), Some(&s));
        assert_eq!(path.last(), Some(&d));
        assert_eq!(path.len() as u32, s.manhattan(d) + 1, "not minimal");
        assert!(path.windows(2).all(|w| w[0].manhattan(w[1]) == 1));
        assert!(
            path.iter().all(|&n| !sc.blocks().is_blocked(n)),
            "path enters an obstacle"
        );
    }

    #[test]
    fn clear_cube_routes_everywhere() {
        let mesh = Mesh3::cube(6);
        let sc = Scenario3::build(FaultSet3::new(mesh));
        let s = mesh.center();
        for d in mesh.nodes() {
            let path = layered_route(&sc, s, d).expect("clear cube");
            valid_path(&sc, s, d, &path);
        }
    }

    #[test]
    fn routes_around_a_plate() {
        let mesh = Mesh3::cube(10);
        // A plate blocking the middle of the cube.
        let plate: Vec<Coord3> = (3..=6)
            .flat_map(|x| (3..=6).map(move |y| Coord3::new(x, y, 5)))
            .collect();
        let sc = Scenario3::build(FaultSet3::from_coords(mesh, plate));
        let s = Coord3::new(1, 1, 1);
        let d = Coord3::new(8, 8, 8);
        let path = layered_route(&sc, s, d).expect("route exists");
        valid_path(&sc, s, d, &path);
    }

    #[test]
    fn not_ensured_is_reported() {
        let mesh = Mesh3::cube(8);
        let sc = Scenario3::build(FaultSet3::from_coords(
            mesh,
            [
                Coord3::new(3, 0, 0),
                Coord3::new(0, 3, 0),
                Coord3::new(0, 0, 3),
            ],
        ));
        assert_eq!(
            layered_route(&sc, Coord3::ORIGIN, Coord3::new(7, 7, 7)),
            Err(Route3Error::NotEnsured)
        );
    }

    /// The big soundness sweep: whenever the condition ensures, the router
    /// delivers a valid minimal path — and the oracle agrees one exists.
    #[test]
    fn ensured_routes_always_succeed_randomly() {
        let mesh = Mesh3::cube(10);
        let s = mesh.center();
        let mut routed = 0u32;
        for seed in 0..120u64 {
            let mut rng = StdRng::seed_from_u64(3_000 + seed);
            let faults = inject::uniform(mesh, 16, &[s], &mut rng);
            let sc = Scenario3::build(faults);
            if sc.blocks().is_blocked(s) {
                continue;
            }
            for d in [
                Coord3::new(9, 9, 9),
                Coord3::new(0, 0, 0),
                Coord3::new(9, 0, 9),
                Coord3::new(2, 9, 3),
            ] {
                if sc.blocks().is_blocked(d) {
                    continue;
                }
                match layered_route(&sc, s, d) {
                    Ok(path) => {
                        valid_path(&sc, s, d, &path);
                        assert!(reach::minimal_path_exists(&mesh, s, d, |c| sc
                            .blocks()
                            .is_blocked(c)));
                        routed += 1;
                    }
                    Err(Route3Error::NotEnsured) => {}
                    Err(e) => panic!("seed {seed}: ensured route failed: {e}"),
                }
            }
        }
        assert!(routed > 250, "only {routed} ensured routes exercised");
    }
}
