//! Boundary-line propagation of faulty-block information (paper §2).
//!
//! Every faulty block `[x_min:x_max, y_min:y_max]` owns four boundary
//! lines:
//!
//! * `L1` — the row `y = y_min − 1` below the block,
//! * `L2` — the row `y = y_max + 1` above it,
//! * `L3` — the column `x = x_min − 1` to its west,
//! * `L4` — the column `x = x_max + 1` to its east.
//!
//! Each line is propagated as two *rays* leaving the block's outside
//! corners and carrying the block's rectangle hop-by-hop until the mesh
//! edge. When a ray runs into another block it bends around it toward the
//! same line of the encountered block and joins it (the paper's
//! "turn towards `L_i` of the encountered faulty block"), so nodes on the
//! joined contour carry both blocks' information.
//!
//! Each visited node records the block, the line, and the direction along
//! the contour *toward* the block — exactly what Wu's routing protocol
//! needs to "stay on the line".

use serde::{Deserialize, Serialize};

use emr_mesh::{Coord, Direction, Grid, Mesh, Rect};

use crate::engine::{Protocol, ProtocolError};

/// One of the four boundary lines of a faulty block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BoundaryLine {
    /// The row below the block (`y = y_min − 1`).
    L1,
    /// The row above the block (`y = y_max + 1`).
    L2,
    /// The column west of the block (`x = x_min − 1`).
    L3,
    /// The column east of the block (`x = x_max + 1`).
    L4,
}

impl BoundaryLine {
    /// All four lines.
    pub const ALL: [BoundaryLine; 4] = [
        BoundaryLine::L1,
        BoundaryLine::L2,
        BoundaryLine::L3,
        BoundaryLine::L4,
    ];

    /// The direction a ray of this line bends when it hits another block:
    /// around the *near* side, so that it joins the same line of the
    /// encountered block (L1 stays low, L2 stays high, L3 stays west, L4
    /// stays east).
    pub fn bend_direction(self) -> Direction {
        match self {
            BoundaryLine::L1 => Direction::South,
            BoundaryLine::L2 => Direction::North,
            BoundaryLine::L3 => Direction::West,
            BoundaryLine::L4 => Direction::East,
        }
    }

    /// The two rays of this line for block `rect`: `(start, travel)`.
    pub fn rays(self, rect: &Rect) -> [(Coord, Direction); 2] {
        let sw = rect.sw_corner_outside();
        let ne = rect.ne_corner_outside();
        let nw = Coord::new(rect.x_min() - 1, rect.y_max() + 1);
        let se = Coord::new(rect.x_max() + 1, rect.y_min() - 1);
        match self {
            BoundaryLine::L1 => [(sw, Direction::West), (se, Direction::East)],
            BoundaryLine::L2 => [(nw, Direction::West), (ne, Direction::East)],
            BoundaryLine::L3 => [(sw, Direction::South), (nw, Direction::North)],
            BoundaryLine::L4 => [(se, Direction::South), (ne, Direction::North)],
        }
    }
}

/// What a node on a boundary contour records: whose block, which line, and
/// the next hop along the contour toward the block (the direction a packet
/// "staying on the line" must take).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BoundaryMark {
    /// The block this contour belongs to.
    pub block: Rect,
    /// Which of the block's four lines the contour extends.
    pub line: BoundaryLine,
    /// The direction along the contour toward the block.
    pub toward_block: Direction,
}

/// A ray in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RayMsg {
    block: Rect,
    line: BoundaryLine,
    travel: Direction,
    bending: bool,
}

/// The boundary-information distribution protocol.
///
/// Blocks are an input: the paper distributes boundary information *after*
/// block formation, and a block's outside corner nodes (which learned the
/// block's extent during formation) initiate the rays.
#[derive(Debug, Clone)]
pub struct BoundaryPropagation {
    blocks: Vec<Rect>,
    blocked: Grid<bool>,
}

impl BoundaryPropagation {
    /// Creates the protocol for the given blocks over the given obstacle
    /// map (the obstacle map tells rays where to bend; it must mark exactly
    /// the nodes covered by `blocks`).
    pub fn new(blocks: Vec<Rect>, blocked: Grid<bool>) -> Self {
        BoundaryPropagation { blocks, blocked }
    }

    fn is_blocked(&self, c: Coord) -> bool {
        self.blocked.get(c).copied().unwrap_or(false)
    }

    /// Computes the next hop of a ray currently at `c`, if any.
    fn next_hop(&self, mesh: &Mesh, c: Coord, msg: RayMsg) -> Option<(Coord, RayMsg)> {
        let ahead = c.step(msg.travel);
        let ahead_open = mesh.contains(ahead) && !self.is_blocked(ahead);
        if ahead_open {
            // Straight travel (or resuming straight after a bend).
            return Some((
                ahead,
                RayMsg {
                    bending: false,
                    ..msg
                },
            ));
        }
        if mesh.contains(ahead) {
            // Blocked ahead: bend around the encountered block toward this
            // line's own side. Block geometry (no diagonally adjacent
            // blocks survive Definition 1) guarantees the bend target is
            // never blocked; guard anyway.
            let around = c.step(msg.line.bend_direction());
            if mesh.contains(around) && !self.is_blocked(around) {
                return Some((
                    around,
                    RayMsg {
                        bending: true,
                        ..msg
                    },
                ));
            }
        }
        // Mesh edge (or defensive stop): the ray ends.
        None
    }

    /// Records the mark at `c` for an arriving/starting ray.
    fn record(state: &mut Vec<BoundaryMark>, mark: BoundaryMark) -> bool {
        if state.contains(&mark) {
            false
        } else {
            state.push(mark);
            true
        }
    }
}

impl Protocol for BoundaryPropagation {
    type State = Vec<BoundaryMark>;
    type Msg = RayMsg;

    fn init(&self, mesh: &Mesh, c: Coord) -> (Vec<BoundaryMark>, Vec<(Coord, RayMsg)>) {
        let mut state = Vec::new();
        let mut sends = Vec::new();
        if self.is_blocked(c) {
            return (state, sends);
        }
        for block in &self.blocks {
            for line in BoundaryLine::ALL {
                for (start, travel) in line.rays(block) {
                    if start != c {
                        continue;
                    }
                    // The corner records the contour pointing back along
                    // the line toward the block side.
                    Self::record(
                        &mut state,
                        BoundaryMark {
                            block: *block,
                            line,
                            toward_block: travel.opposite(),
                        },
                    );
                    let msg = RayMsg {
                        block: *block,
                        line,
                        travel,
                        bending: false,
                    };
                    if let Some(hop) = self.next_hop(mesh, c, msg) {
                        sends.push(hop);
                    }
                }
            }
        }
        (state, sends)
    }

    fn on_message(
        &self,
        mesh: &Mesh,
        c: Coord,
        state: &mut Vec<BoundaryMark>,
        from: Coord,
        msg: RayMsg,
    ) -> Result<Vec<(Coord, RayMsg)>, ProtocolError> {
        let toward_block = c
            .direction_to(from)
            .ok_or(ProtocolError::NonNeighborDelivery { node: c, from })?;
        let fresh = Self::record(
            state,
            BoundaryMark {
                block: msg.block,
                line: msg.line,
                toward_block,
            },
        );
        if !fresh {
            // Already visited by this contour (e.g. overlapping rays):
            // stop to guarantee termination.
            return Ok(Vec::new());
        }
        Ok(self.next_hop(mesh, c, msg).into_iter().collect())
    }
}

/// The global (non-distributed) reference computation: walks every ray of
/// every block directly. Produces exactly the marks the protocol produces
/// (the tests check equality). It is the ground truth for `emr-core`'s
/// `BoundaryMap`, which keeps only the straight runs of the same rays
/// per lane (the `boundary-segments-match-rays` conformance oracle).
pub fn compute_global(
    mesh: &Mesh,
    blocks: &[Rect],
    blocked: &Grid<bool>,
) -> Grid<Vec<BoundaryMark>> {
    let is_blocked = |c: Coord| blocked.get(c).copied().unwrap_or(false);
    let mut out: Grid<Vec<BoundaryMark>> = Grid::new(*mesh, Vec::new());
    let record = |c: Coord, mark: BoundaryMark, out: &mut Grid<Vec<BoundaryMark>>| -> bool {
        let cell = &mut out[c];
        if cell.contains(&mark) {
            false
        } else {
            cell.push(mark);
            true
        }
    };
    for block in blocks {
        for line in BoundaryLine::ALL {
            for (start, travel) in line.rays(block) {
                if !mesh.contains(start) || is_blocked(start) {
                    continue;
                }
                let mut mark = BoundaryMark {
                    block: *block,
                    line,
                    toward_block: travel.opposite(),
                };
                if !record(start, mark, &mut out) {
                    continue;
                }
                let mut cur = start;
                loop {
                    // Try to travel straight; bend around an in-mesh block.
                    let ahead = cur.step(travel);
                    let next = if mesh.contains(ahead) && !is_blocked(ahead) {
                        ahead
                    } else if mesh.contains(ahead) {
                        let around = cur.step(line.bend_direction());
                        if mesh.contains(around) && !is_blocked(around) {
                            around
                        } else {
                            break;
                        }
                    } else {
                        break;
                    };
                    // `next` is one step from `cur`, so the direction
                    // always exists; stop the ray defensively otherwise.
                    let Some(toward_block) = next.direction_to(cur) else {
                        break;
                    };
                    mark = BoundaryMark {
                        block: *block,
                        line,
                        toward_block,
                    };
                    if !record(next, mark, &mut out) {
                        break;
                    }
                    cur = next;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;

    fn setup(mesh: Mesh, blocks: Vec<Rect>) -> (Grid<Vec<BoundaryMark>>, Grid<bool>) {
        let blocked = Grid::from_fn(mesh, |c| blocks.iter().any(|b| b.contains(c)));
        let proto = BoundaryPropagation::new(blocks, blocked.clone());
        let (marks, _) = Engine::new(mesh).run(&proto);
        (marks, blocked)
    }

    #[test]
    fn straight_rays_cover_full_lines() {
        let mesh = Mesh::square(9);
        let block = Rect::new(3, 4, 3, 4);
        let (marks, _) = setup(mesh, vec![block]);
        // L3 (west column x=2): lower section y=0..2 plus upper y=5..8.
        for y in [0, 1, 2, 5, 6, 7, 8] {
            let ms = &marks[Coord::new(2, y)];
            assert!(
                ms.iter()
                    .any(|m| m.line == BoundaryLine::L3 && m.block == block),
                "missing L3 mark at y={y}"
            );
        }
        // The lower L3 section points north (toward the block).
        let m = marks[Coord::new(2, 0)]
            .iter()
            .find(|m| m.line == BoundaryLine::L3)
            .unwrap();
        assert_eq!(m.toward_block, Direction::North);
        // L1 (row y=2) west section points east.
        let m = marks[Coord::new(0, 2)]
            .iter()
            .find(|m| m.line == BoundaryLine::L1)
            .unwrap();
        assert_eq!(m.toward_block, Direction::East);
        // Nodes off the lines carry nothing.
        assert!(marks[Coord::new(0, 0)].is_empty());
        assert!(marks[Coord::new(4, 6)]
            .iter()
            .all(|m| m.line == BoundaryLine::L2 || m.line == BoundaryLine::L4));
    }

    #[test]
    fn ray_bends_around_block_and_joins_its_line() {
        // Figure 3(b): L3 of block j going south meets block i and joins
        // L3 of block i.
        let mesh = Mesh::square(12);
        let j = Rect::new(5, 7, 8, 9); // upper block
        let i = Rect::new(2, 6, 3, 5); // lower block straddling x=4
        let (marks, _) = setup(mesh, vec![i, j]);
        // L3(j) travels south along x=4 from (4,7); at (4,6) the node below
        // is in block i, so it bends west along y=6 (= L2(i)) to x=1, then
        // resumes south along x=1 (= L3(i)).
        let has_j_l3 = |c: Coord| {
            marks[c]
                .iter()
                .any(|m| m.block == j && m.line == BoundaryLine::L3)
        };
        assert!(has_j_l3(Coord::new(4, 7)));
        assert!(has_j_l3(Coord::new(4, 6)));
        assert!(has_j_l3(Coord::new(3, 6)));
        assert!(has_j_l3(Coord::new(2, 6)));
        assert!(has_j_l3(Coord::new(1, 6)));
        assert!(has_j_l3(Coord::new(1, 5)));
        assert!(has_j_l3(Coord::new(1, 0)));
        // The contour directions point back toward block j.
        let at = |c: Coord| {
            marks[c]
                .iter()
                .find(|m| m.block == j && m.line == BoundaryLine::L3)
                .unwrap()
                .toward_block
        };
        assert_eq!(at(Coord::new(1, 0)), Direction::North);
        assert_eq!(at(Coord::new(1, 6)), Direction::East);
        assert_eq!(at(Coord::new(3, 6)), Direction::East);
        assert_eq!(at(Coord::new(4, 6)), Direction::North);
        // And the joined segment also carries block i's own L3.
        assert!(marks[Coord::new(1, 0)]
            .iter()
            .any(|m| m.block == i && m.line == BoundaryLine::L3));
    }

    #[test]
    fn distributed_matches_global() {
        let mesh = Mesh::square(12);
        let blocks = vec![
            Rect::new(2, 6, 3, 5),
            Rect::new(5, 7, 8, 9),
            Rect::new(9, 10, 1, 2),
        ];
        let blocked = Grid::from_fn(mesh, |c| blocks.iter().any(|b| b.contains(c)));
        let global = compute_global(&mesh, &blocks, &blocked);
        let proto = BoundaryPropagation::new(blocks, blocked);
        let (dist, stats) = Engine::new(mesh).run(&proto);
        for c in mesh.nodes() {
            let mut a = dist[c].clone();
            let mut b = global[c].clone();
            let key = |m: &BoundaryMark| (m.block.to_string(), m.line as u8, m.toward_block);
            a.sort_by_key(key);
            b.sort_by_key(key);
            assert_eq!(a, b, "mismatch at {c}");
        }
        assert!(stats.messages > 0);
    }

    #[test]
    fn block_at_mesh_edge_skips_offmesh_rays() {
        let mesh = Mesh::square(6);
        let block = Rect::new(0, 1, 0, 1); // corner block
        let (marks, _) = setup(mesh, vec![block]);
        // Only L2 (row 2) and L4 (column 2) exist; nothing panics.
        assert!(marks[Coord::new(4, 2)]
            .iter()
            .any(|m| m.line == BoundaryLine::L2));
        assert!(marks[Coord::new(2, 4)]
            .iter()
            .any(|m| m.line == BoundaryLine::L4));
    }

    #[test]
    fn rays_of_all_lines_have_consistent_geometry() {
        let mesh = Mesh::square(9);
        let block = Rect::new(3, 5, 3, 5);
        let (marks, _) = setup(mesh, vec![block]);
        for (c, ms) in marks.iter() {
            for m in ms {
                match m.line {
                    BoundaryLine::L1 => assert_eq!(c.y, block.y_min() - 1),
                    BoundaryLine::L2 => assert_eq!(c.y, block.y_max() + 1),
                    BoundaryLine::L3 => assert_eq!(c.x, block.x_min() - 1),
                    BoundaryLine::L4 => assert_eq!(c.x, block.x_max() + 1),
                }
            }
        }
    }
}
