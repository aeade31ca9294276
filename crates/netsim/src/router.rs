use emr_core::route::RouteError;
use emr_core::{Model, ScenarioState};
use emr_fault::reach_bits;
use emr_mesh::{Coord, Direction};

use crate::dynamic::DynamicRouter;

/// A per-hop routing function: the logic one mesh router executes for the
/// packet at its head-of-line.
///
/// `leg_source` and `leg_target` are the endpoints of the packet's current
/// leg (for two-phase plans the leg target is the witness node first); `u`
/// is the router's own position, never equal to `leg_target`.
///
/// A hop is a function of the router's state and these three arguments,
/// never of the packet's history or of how often the question was asked;
/// every router here meets that contract. [`crate::EventSim`] relies on
/// it: a flight walks its leg ahead with [`Router::next_hops`] and takes
/// the hops it was given, one per cycle it wins its link, until a failure
/// changes the router's state, where [`crate::NetSim`] asks again every
/// cycle.
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

    /// Walks the leg from `u`: writes into `hops` what [`Router::next_hop`]
    /// answers at `u`, then at the node that hop reaches, and so on, and
    /// returns how many hops it wrote. The walk stops at `leg_target`, at
    /// an error, which it returns beside the count (the error
    /// `next_hop` gives at the node the written hops reach), or when
    /// `hops` is full. So with `u != leg_target` and room for one hop, a
    /// walk writes a hop or returns an error.
    ///
    /// The provided walk asks `next_hop` once per hop; a router that can
    /// resolve a leg once for many hops overrides it, and must write
    /// exactly what successive `next_hop` calls would answer.
    fn next_hops(
        &self,
        leg_source: Coord,
        leg_target: Coord,
        u: Coord,
        hops: &mut [Direction],
    ) -> (usize, Option<RouteError>) {
        let mut at = u;
        for (n, slot) in hops.iter_mut().enumerate() {
            if at == leg_target {
                return (n, None);
            }
            match self.next_hop(leg_source, leg_target, at) {
                Ok(dir) => {
                    *slot = dir;
                    at = at.step(dir);
                }
                Err(e) => return (n, Some(e)),
            }
        }
        (hops.len(), None)
    }
}

/// Global-information routing: at each hop, move to a preferred neighbor
/// from which the destination is still monotonically reachable (one
/// word-parallel reachability sweep per hop, see
/// [`reach_bits::minimal_path_exists_bits`] — expensive, exact; the
/// comparison baseline).
///
/// Like [`crate::EpochedWuRouter`] it owns a [`ScenarioState`] and
/// absorbs each failure through [`ScenarioState::insert_fault`], so its
/// hops read the repaired scenario's obstacles.
#[derive(Debug, Clone)]
pub struct OracleRouter {
    state: ScenarioState,
    model: Model,
}

impl OracleRouter {
    /// Creates the router over an epoched state under one fault model.
    pub fn new(state: ScenarioState, model: Model) -> OracleRouter {
        OracleRouter { state, model }
    }
}

impl Router for OracleRouter {
    fn next_hop(
        &self,
        leg_source: Coord,
        leg_target: Coord,
        u: Coord,
    ) -> Result<Direction, RouteError> {
        let view = self.state.scenario().view(self.model);
        let mesh = view.mesh();
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
                view.is_obstacle(c, leg_source, leg_target)
            }) {
                return Ok(abs);
            }
        }
        Err(RouteError::Stuck(u))
    }
}

impl DynamicRouter for OracleRouter {
    fn fail_node(&mut self, c: Coord) {
        self.state.insert_fault(c);
    }

    fn is_node_blocked(&self, c: Coord) -> bool {
        self.state.scenario().blocks().is_blocked(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::XyRouter;
    use crate::dynamic::EpochedWuRouter;
    use emr_fault::{reach, FaultSet};
    use emr_mesh::Mesh;

    fn state(coords: &[(i32, i32)]) -> ScenarioState {
        let mesh = Mesh::square(10);
        ScenarioState::new(FaultSet::from_coords(
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
        let st = state(&[]);
        let r = XyRouter::new(st.mesh(), st.scenario().blocks());
        assert_eq!(walk(&r, Coord::new(1, 1), Coord::new(7, 4), 20), Ok(9));
        assert_eq!(walk(&r, Coord::new(7, 4), Coord::new(1, 1), 20), Ok(9));
    }

    #[test]
    fn xy_router_dies_on_blocks() {
        // A block exactly on the XY path's corner column.
        let st = state(&[(7, 2), (7, 3)]);
        let r = XyRouter::new(st.mesh(), st.scenario().blocks());
        assert!(walk(&r, Coord::new(1, 2), Coord::new(9, 2), 30).is_err());
        // The safe condition doesn't hold here (the block is on the row),
        // but the oracle router always finds the path when one exists.
        let oracle = OracleRouter::new(st, Model::FaultBlock);
        assert!(walk(&oracle, Coord::new(1, 1), Coord::new(9, 2), 30).is_ok());
    }

    #[test]
    fn wu_and_oracle_routers_deliver_minimally() {
        let st = state(&[(4, 4), (5, 5), (4, 6)]);
        let sc = st.scenario();
        let view = sc.view(Model::FaultBlock);
        let wu = EpochedWuRouter::new(st.clone(), Model::FaultBlock);
        let oracle = OracleRouter::new(st.clone(), Model::FaultBlock);
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
    fn oracle_router_absorbs_a_merging_failure() {
        // (4,1) then (3,0) convexify into the 2×2 block at (3..=4,0..=1):
        // the oracle re-forms blocks, so the healthy corners are blocked
        // too, and a leg that ran East along row 0 now rounds the block
        // on a minimal path.
        let mut oracle = OracleRouter::new(state(&[(4, 1)]), Model::FaultBlock);
        let (s, d) = (Coord::new(2, 0), Coord::new(9, 3));
        assert_eq!(oracle.next_hop(s, d, s), Ok(Direction::East));
        oracle.fail_node(Coord::new(3, 0));
        for c in [(3, 0), (4, 0), (3, 1), (4, 1)] {
            assert!(oracle.is_node_blocked(Coord::from(c)), "{c:?}");
        }
        assert_eq!(oracle.next_hop(s, d, s), Ok(Direction::North));
        assert_eq!(walk(&oracle, s, d, 20), Ok(s.manhattan(d)));
    }

    /// Forwards `next_hop` alone, so it walks with the provided
    /// [`Router::next_hops`].
    struct PerHop<'r, R>(&'r R);

    impl<R: Router> Router for PerHop<'_, R> {
        fn next_hop(&self, s: Coord, t: Coord, u: Coord) -> Result<Direction, RouteError> {
            self.0.next_hop(s, t, u)
        }
    }

    /// The hops and the error of one walk with a `len`-hop buffer.
    fn walk_of(
        router: &impl Router,
        (s, d, u): (Coord, Coord, Coord),
        len: usize,
    ) -> (Vec<Direction>, Option<RouteError>) {
        let mut hops = vec![Direction::East; len];
        let (n, error) = router.next_hops(s, d, u, &mut hops);
        hops.truncate(n);
        (hops, error)
    }

    #[test]
    fn provided_walk_agrees_with_the_wu_overrides() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mesh = Mesh::square(24);
        let mut rng = StdRng::seed_from_u64(0x3a1c_0024);
        let node = |rng: &mut StdRng| Coord::new(rng.gen_range(0..24), rng.gen_range(0..24));
        // Walks compared, hops written, and walks that met an error.
        let (mut walks, mut hops, mut errors) = (0u64, 0u64, 0u64);
        for _ in 0..4 {
            let faults = emr_fault::inject::uniform(mesh, 40, &[], &mut rng);
            for model in Model::ALL {
                let mut wu = EpochedWuRouter::new(ScenarioState::new(faults.clone()), model);
                for _ in 0..3 {
                    for _ in 0..200 {
                        let (s, d) = (node(&mut rng), node(&mut rng));
                        let u = Coord::new(
                            rng.gen_range(s.x.min(d.x)..=s.x.max(d.x)),
                            rng.gen_range(s.y.min(d.y)..=s.y.max(d.y)),
                        );
                        for len in [1, 2, 7, 32] {
                            let leg = (s, d, u);
                            let want = walk_of(&PerHop(&wu), leg, len);
                            assert_eq!(walk_of(&wu, leg, len), want, "{leg:?}, buffer {len}");
                            walks += 1;
                            hops += want.0.len() as u64;
                            errors += u64::from(want.1.is_some());
                        }
                    }
                    // Later rounds read the repaired maps.
                    wu.fail_node(node(&mut rng));
                }
            }
        }
        // 19,200 walks, 69,184 hops written and 2,092 errors at this seed.
        println!("{walks} walks, {hops} hops, {errors} errors");
        assert!(
            hops >= 50_000 && errors >= 1_000,
            "{hops} hops, {errors} errors"
        );
    }
}
