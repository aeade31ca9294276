//! FORMATION-EXTENDED-SAFETY-LEVEL-INFORMATION (paper §4).
//!
//! Every enabled node maintains a 4-tuple `(E, N, W, S)` of hop distances
//! to the nearest faulty block in each direction along its own row/column,
//! defaulting to `∞`. Nodes adjacent to a block start with distance 1 and
//! propagate away from the block: a node receiving a distance `d` toward
//! some direction from the neighbor on that side updates its own entry to
//! `d + 1` and forwards. Block nodes do not participate, so propagation
//! naturally stops at the next block — exactly the "shadow region between
//! two parallel boundary lines" of the paper's Figure 6.

use emr_mesh::{Coord, Direction, Grid, Mesh, UNBOUNDED};

use crate::engine::{Protocol, ProtocolError};
use crate::protocols::{EslTuple, ESL_DEFAULT};

/// The safety-level formation protocol over a fixed obstacle map.
#[derive(Debug, Clone)]
pub struct EslFormation {
    blocked: Grid<bool>,
}

/// One hop of safety-level information: "my distance toward `dir` is
/// `dist`", sent to the neighbor on the opposite side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EslMsg {
    dir: Direction,
    dist: u32,
}

impl EslFormation {
    /// Creates the protocol for the given obstacle map (block or MCC
    /// membership per node).
    pub fn new(blocked: Grid<bool>) -> Self {
        EslFormation { blocked }
    }

    fn is_blocked(&self, c: Coord) -> bool {
        self.blocked.get(c).copied().unwrap_or(false)
    }

    /// Propagation step shared by init and receive: record `dist` toward
    /// `dir` and forward `dist` to the opposite neighbor if it improved.
    fn update(
        &self,
        mesh: &Mesh,
        c: Coord,
        state: &mut EslTuple,
        dir: Direction,
        dist: u32,
    ) -> Vec<(Coord, EslMsg)> {
        if dist >= state[dir.index()] {
            return Vec::new();
        }
        state[dir.index()] = dist;
        let away = c.step(dir.opposite());
        if mesh.contains(away) && !self.is_blocked(away) {
            vec![(away, EslMsg { dir, dist })]
        } else {
            Vec::new()
        }
    }
}

impl Protocol for EslFormation {
    type State = EslTuple;
    type Msg = EslMsg;

    fn init(&self, mesh: &Mesh, c: Coord) -> (EslTuple, Vec<(Coord, EslMsg)>) {
        let mut state = ESL_DEFAULT;
        if self.is_blocked(c) {
            // Block nodes carry no safety level and never send.
            return (state, Vec::new());
        }
        let mut sends = Vec::new();
        for dir in Direction::ALL {
            let toward = c.step(dir);
            if mesh.contains(toward) && self.is_blocked(toward) {
                sends.extend(self.update(mesh, c, &mut state, dir, 1));
            }
        }
        (state, sends)
    }

    fn on_message(
        &self,
        mesh: &Mesh,
        c: Coord,
        state: &mut EslTuple,
        _from: Coord,
        msg: EslMsg,
    ) -> Result<Vec<(Coord, EslMsg)>, ProtocolError> {
        // The sender sits one hop closer to the block than we do.
        Ok(self.update(mesh, c, state, msg.dir, msg.dist + 1))
    }
}

/// The global (non-distributed) reference computation: directional sweeps
/// filling in the distance to the nearest blocked node along each
/// row/column. Used to validate the protocol, and as the scalar reference
/// the safety-map tests and the conformance oracles check `emr-core`'s
/// word scans against.
pub fn compute_global(blocked: &Grid<bool>) -> Grid<EslTuple> {
    let mesh = blocked.mesh();
    let mut out = Grid::new(mesh, ESL_DEFAULT);
    for dir in Direction::ALL {
        // Sweep opposite to `dir`: distances toward `dir` grow as we move
        // away from each block.
        let horizontal = dir.is_horizontal();
        let lanes = if horizontal {
            mesh.height()
        } else {
            mesh.width()
        };
        let len = if horizontal {
            mesh.width()
        } else {
            mesh.height()
        };
        for lane in 0..lanes {
            let mut dist = UNBOUNDED;
            for i in 0..len {
                // Walk starting from the `dir` end of the lane.
                let along = match dir {
                    Direction::East => mesh.width() - 1 - i,
                    Direction::West => i,
                    Direction::North => mesh.height() - 1 - i,
                    Direction::South => i,
                };
                let c = if horizontal {
                    Coord::new(along, lane)
                } else {
                    Coord::new(lane, along)
                };
                if blocked[c] {
                    dist = 0;
                } else {
                    if dist != UNBOUNDED {
                        dist += 1;
                    }
                    out[c][dir.index()] = dist;
                }
            }
        }
    }
    out
}

/// The disturbance messages a *newly formed* block injects into an
/// already-converged safety-level state: distance-0 announcements from the
/// block's border cells to their enabled orthogonal neighbors (who then
/// record distance 1 and propagate). Feed these to
/// [`crate::Engine::resume`] after updating the protocol's obstacle grid —
/// only the affected shadow regions recompute.
pub fn disturbance_for_block(
    mesh: &Mesh,
    blocked: &Grid<bool>,
    block: emr_mesh::Rect,
) -> Vec<(Coord, Coord, EslMsg)> {
    let mut out = Vec::new();
    for c in block.iter() {
        for dir in Direction::ALL {
            let adj = c.step(dir);
            if !mesh.contains(adj) || blocked[adj] || block.contains(adj) {
                continue;
            }
            // From `adj`, the new block lies toward `dir.opposite()`.
            out.push((
                c,
                adj,
                EslMsg {
                    dir: dir.opposite(),
                    dist: 0,
                },
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;

    fn blocked_grid(mesh: Mesh, coords: &[(i32, i32)]) -> Grid<bool> {
        Grid::from_fn(mesh, |c| coords.contains(&(c.x, c.y)))
    }

    #[test]
    fn single_block_shadow_distances() {
        let mesh = Mesh::square(7);
        let blocked = blocked_grid(mesh, &[(3, 3)]);
        let (esl, stats) = Engine::new(mesh).run(&EslFormation::new(blocked));
        // West of the block: E distances 1, 2, 3.
        assert_eq!(esl[Coord::new(2, 3)][Direction::East.index()], 1);
        assert_eq!(esl[Coord::new(1, 3)][Direction::East.index()], 2);
        assert_eq!(esl[Coord::new(0, 3)][Direction::East.index()], 3);
        // Off the block's row, E stays unbounded.
        assert_eq!(esl[Coord::new(0, 2)][Direction::East.index()], UNBOUNDED);
        // North of the block, S distance.
        assert_eq!(esl[Coord::new(3, 5)][Direction::South.index()], 2);
        assert!(stats.messages > 0);
    }

    #[test]
    fn matches_global_computation() {
        let mesh = Mesh::square(9);
        let blocked = blocked_grid(mesh, &[(2, 2), (2, 3), (3, 2), (3, 3), (6, 6), (0, 8)]);
        let global = compute_global(&blocked);
        let (dist, _) = Engine::new(mesh).run(&EslFormation::new(blocked.clone()));
        for c in mesh.nodes() {
            if !blocked[c] {
                assert_eq!(dist[c], global[c], "mismatch at {c}");
            }
        }
    }

    #[test]
    fn propagation_stops_at_blocks() {
        // Row: block at x=2 and x=5; node at x=0 sees E=2 (to x=2), node at
        // x=3 (between blocks) sees E=2 (to x=5) and W=1.
        let mesh = Mesh::new(8, 1);
        let blocked = blocked_grid(mesh, &[(2, 0), (5, 0)]);
        let (esl, _) = Engine::new(mesh).run(&EslFormation::new(blocked));
        assert_eq!(esl[Coord::new(0, 0)][Direction::East.index()], 2);
        assert_eq!(esl[Coord::new(3, 0)][Direction::East.index()], 2);
        assert_eq!(esl[Coord::new(3, 0)][Direction::West.index()], 1);
        assert_eq!(esl[Coord::new(4, 0)][Direction::East.index()], 1);
        assert_eq!(esl[Coord::new(4, 0)][Direction::West.index()], 2);
    }

    #[test]
    fn no_blocks_means_no_messages() {
        let mesh = Mesh::square(5);
        let blocked = Grid::new(mesh, false);
        let (esl, stats) = Engine::new(mesh).run(&EslFormation::new(blocked));
        assert_eq!(stats.messages, 0);
        for c in mesh.nodes() {
            assert_eq!(esl[c], ESL_DEFAULT);
        }
    }

    #[test]
    fn rounds_scale_with_shadow_length() {
        let mesh = Mesh::new(12, 1);
        let blocked = blocked_grid(mesh, &[(11, 0)]);
        let (_, stats) = Engine::new(mesh).run(&EslFormation::new(blocked));
        // Distance must travel 10 hops beyond the first (init) node.
        assert_eq!(stats.rounds, 10);
    }
    #[test]
    fn incremental_update_matches_recompute() {
        // Converge, then a new block appears; resuming with only the
        // disturbance messages reaches the same fix-point as a full rerun.
        let mesh = Mesh::square(16);
        let mut blocked = blocked_grid(mesh, &[(3, 3), (12, 12)]);
        let engine = Engine::new(mesh);
        let (states, _) = engine.run(&EslFormation::new(blocked.clone()));

        // New 2x1 block appears at (8,5)-(9,5).
        let block = emr_mesh::Rect::new(8, 9, 5, 5);
        for c in block.iter() {
            blocked[c] = true;
        }
        let proto = EslFormation::new(blocked.clone());
        let disturbances = disturbance_for_block(&mesh, &blocked, block);
        let (incremental, inc_stats) = engine.resume(&proto, states, disturbances);
        let (full, full_stats) = engine.run(&proto);
        for c in mesh.nodes() {
            if !blocked[c] {
                assert_eq!(incremental[c], full[c], "mismatch at {c}");
            }
        }
        // The disturbance costs strictly fewer messages than recomputing
        // everything from scratch.
        assert!(inc_stats.messages < full_stats.messages);
    }
}
