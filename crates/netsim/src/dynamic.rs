//! Routers that absorb node failures while traffic is in flight.
//!
//! Every router in this crate is a [`DynamicRouter`]: besides answering
//! [`Router`] questions it accepts node failures *during* a run. The
//! simulator applies each scheduled failure at its cycle, drops the
//! packets caught on nodes swallowed by the fault, and lets every
//! surviving packet re-evaluate its next hop against the repaired
//! information (see `NetSim::schedule_fault`). A run with no failure
//! scheduled routes over the fault set the router was built with.
//!
//! [`EpochedWuRouter`] is the paper-faithful implementation: it owns an
//! [`emr_core::ScenarioState`], so each failure is absorbed through the
//! incremental epoch machinery (clipped block/MCC relabeling, transposed
//! columns re-extracted, the boundary maps dropped and rebuilt by the
//! next hop that reads one) rather than a from-scratch scenario build.
//! [`crate::OracleRouter`] absorbs failures the same way.

use emr_core::route::{self, RouteError};
use emr_core::{Epoch, Model, ScenarioState};
use emr_mesh::{Coord, Direction};

use crate::router::Router;

/// A per-hop routing function that can absorb node failures mid-run.
pub trait DynamicRouter: Router {
    /// Records that `c` failed. A no-op when `c` already failed.
    ///
    /// # Panics
    ///
    /// Panics if `c` lies outside the mesh.
    fn fail_node(&mut self, c: Coord);

    /// Whether `c` is currently unusable as a packet location. What that
    /// covers differs per router, a known deviation (DESIGN.md § Traffic
    /// simulation):
    ///
    /// * [`EpochedWuRouter`] and [`crate::OracleRouter`]: failed, or
    ///   inside a faulty block (Definition 1) of the current fault set,
    ///   whichever model routes. A failure re-forms the blocks, so the
    ///   healthy nodes a merge deactivates are blocked too.
    /// * [`crate::XyRouter`] and [`crate::AdaptiveRouter`]: inside a
    ///   faulty block of the fault set the router was built with, or
    ///   failed since. A failure marks only the failed node (the adaptive
    ///   router also records it as a point rectangle to detour around);
    ///   blocks are not re-formed.
    ///
    /// So after a mid-flight failure that merges blocks, the routers
    /// disagree on which nodes a packet can occupy.
    fn is_node_blocked(&self, c: Coord) -> bool;
}

/// Wu's protocol over an epoched dynamic scenario: boundary-information
/// routing whose fault knowledge is repaired incrementally as failures
/// arrive.
///
/// The router owns its [`ScenarioState`]; each [`DynamicRouter::fail_node`]
/// bumps the epoch through the incremental path, which drops the
/// scenario's [`emr_core::BoundaryMap`]s. The next hop that reads a map
/// rebuilds it: one walk of every block's rays over the repaired blocked
/// plane, keeping their straight lane runs. Under MCC a leg reads the
/// map of the labeling its quadrant picks, as its obstacle test does. A
/// repeat failure of a node that already failed changes nothing. Per-hop
/// routing pays no staleness checks and reads one lane per hop, the veto
/// of the move it takes ([`route::wu_step`]); a walk resolves the leg's
/// view, frame, plane and map once for all its hops ([`route::wu_walk`]).
#[derive(Debug, Clone)]
pub struct EpochedWuRouter {
    state: ScenarioState,
    model: Model,
}

impl EpochedWuRouter {
    /// Creates the router over an epoched state under one fault model.
    pub fn new(state: ScenarioState, model: Model) -> EpochedWuRouter {
        EpochedWuRouter { state, model }
    }

    /// The underlying epoched state.
    pub fn state(&self) -> &ScenarioState {
        &self.state
    }

    /// The current fault epoch.
    pub fn epoch(&self) -> Epoch {
        self.state.epoch()
    }

    /// The fault model the router routes under.
    pub fn model(&self) -> Model {
        self.model
    }
}

impl Router for EpochedWuRouter {
    fn next_hop(
        &self,
        leg_source: Coord,
        leg_target: Coord,
        u: Coord,
    ) -> Result<Direction, RouteError> {
        let view = self.state.scenario().view(self.model);
        route::wu_step(&view, leg_source, leg_target, u)
    }

    fn next_hops(
        &self,
        leg_source: Coord,
        leg_target: Coord,
        u: Coord,
        hops: &mut [Direction],
    ) -> (usize, Option<RouteError>) {
        let view = self.state.scenario().view(self.model);
        route::wu_walk(&view, leg_source, leg_target, u, hops)
    }
}

impl DynamicRouter for EpochedWuRouter {
    fn fail_node(&mut self, c: Coord) {
        self.state.insert_fault(c);
    }

    fn is_node_blocked(&self, c: Coord) -> bool {
        // Physical deactivation follows the faulty-block decomposition:
        // a node inside a block is unusable regardless of which labeling
        // the routing decisions run under.
        self.state.scenario().blocks().is_blocked(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emr_fault::{FaultSet, MccType};
    use emr_mesh::Mesh;

    #[test]
    fn fail_node_bumps_epoch_once() {
        let mesh = Mesh::square(10);
        let mut r = EpochedWuRouter::new(
            ScenarioState::new(FaultSet::from_coords(mesh, [Coord::new(5, 5)])),
            Model::FaultBlock,
        );
        assert_eq!(r.epoch(), 0);
        r.fail_node(Coord::new(2, 2));
        assert_eq!(r.epoch(), 1);
        // Already-faulty: no epoch bump.
        r.fail_node(Coord::new(2, 2));
        assert_eq!(r.epoch(), 1);
        assert!(r.is_node_blocked(Coord::new(2, 2)));
        assert!(!r.is_node_blocked(Coord::new(3, 3)));
    }

    #[test]
    fn blocked_includes_deactivated_nodes() {
        // (1,1)+(2,2) convexify into a 2×2 block: the healthy corners are
        // deactivated and must count as blocked for packet placement.
        let mesh = Mesh::square(8);
        let mut r = EpochedWuRouter::new(
            ScenarioState::new(FaultSet::from_coords(mesh, [Coord::new(1, 1)])),
            Model::FaultBlock,
        );
        r.fail_node(Coord::new(2, 2));
        assert!(r.is_node_blocked(Coord::new(1, 2)));
        assert!(r.is_node_blocked(Coord::new(2, 1)));
    }

    #[test]
    fn routing_tracks_new_faults() {
        // Before the failure the XY-ish preferred hop east of (4,4) is
        // open; after (5,4) fails the router must steer around it and the
        // walked route must still reach the destination.
        let mesh = Mesh::square(12);
        let mut r =
            EpochedWuRouter::new(ScenarioState::new(FaultSet::new(mesh)), Model::FaultBlock);
        let (s, d) = (Coord::new(1, 4), Coord::new(9, 8));
        r.fail_node(Coord::new(5, 4));
        let mut u = s;
        let mut hops = 0;
        while u != d {
            let dir = r.next_hop(s, d, u).expect("route survives the fault");
            u = u.step(dir);
            assert!(!r.is_node_blocked(u), "stepped onto blocked {u}");
            hops += 1;
            assert!(hops <= 2 * s.manhattan(d), "walk diverged");
        }
        assert_eq!(hops, s.manhattan(d), "single block keeps the route minimal");
    }

    #[test]
    fn mcc_legs_read_the_boundary_map_of_their_labeling_type() {
        // The quadrant-IV leg (0,2) → (2,0) routes round type-two MCCs.
        // The two labelings' maps differ at its source; through its own
        // map the leg rounds the west and south edges. One router is
        // built with all three faults; the other absorbs the last through
        // `fail_node`, so the map its next hop rebuilds is the leg's too.
        let mesh = Mesh::square(5);
        let faults = [(3, 0), (1, 1), (2, 1)].map(Coord::from);
        let built = FaultSet::from_coords(mesh, faults);
        let mut absorbed = EpochedWuRouter::new(
            ScenarioState::new(FaultSet::from_coords(mesh, faults[..2].iter().copied())),
            Model::Mcc,
        );
        absorbed.fail_node(faults[2]);
        let (s, d) = (Coord::new(0, 2), Coord::new(2, 0));
        let via = [(0, 2), (0, 1), (0, 0), (1, 0), (2, 0)].map(Coord::from);
        for r in [
            EpochedWuRouter::new(ScenarioState::new(built), Model::Mcc),
            absorbed,
        ] {
            let mut path = vec![s];
            while let Some(&u) = path.last().filter(|&&u| u != d) {
                path.push(u.step(r.next_hop(s, d, u).expect("the leg is delivered")));
            }
            assert_eq!(path, via);
            let sc = r.state().scenario();
            let marks = |ty| sc.mcc_boundary_map(ty).marks_at(s).collect::<Vec<_>>();
            assert_ne!(marks(MccType::One), marks(MccType::Two));
        }
    }
}
