use std::mem::size_of;

use emr_mesh::{BitGrid, Coord, Direction, Frame, MemBytes, Rect};

pub use emr_distsim::protocols::boundary::{BoundaryLine, BoundaryMark};

/// One straight run of a boundary ray: nodes `lo..=hi` of the lane (a
/// column for L3/L4 rays, a row for L1/L2 rays) the ray travels along its
/// own line, all on a contour of `block`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LaneRun {
    /// The run's first node along its lane (least y in a column, least
    /// x in a row).
    pub lo: i32,
    /// The run's last node along its lane.
    pub hi: i32,
    /// The block whose contour the run belongs to.
    pub block: Rect,
}

impl LaneRun {
    /// Whether the run covers position `at` of its lane.
    pub(crate) fn covers(&self, at: i32) -> bool {
        self.lo <= at && at <= self.hi
    }
}

/// The runs of one ray family grouped by lane (CSR): lane `i` holds
/// `runs[starts[i]..starts[i + 1]]`, in walk order.
#[derive(Debug, Clone)]
struct LaneTable {
    starts: Vec<usize>,
    runs: Vec<LaneRun>,
}

impl LaneTable {
    /// Groups `(lane, run)` pairs over `lanes` lanes, keeping walk order
    /// within a lane (the sort is stable).
    fn grouped(lanes: usize, mut pairs: Vec<(usize, LaneRun)>) -> LaneTable {
        pairs.sort_by_key(|&(lane, _)| lane);
        LaneTable {
            starts: (0..=lanes)
                .map(|l| pairs.partition_point(|&(lane, _)| lane < l))
                .collect(),
            runs: pairs.into_iter().map(|(_, run)| run).collect(),
        }
    }

    /// The runs in lane `lane` (empty off the mesh).
    fn lane(&self, lane: i32) -> &[LaneRun] {
        let Ok(i) = usize::try_from(lane) else {
            return &[];
        };
        match (self.starts.get(i), self.starts.get(i + 1)) {
            (Some(&a), Some(&b)) => self.runs.get(a..b).unwrap_or(&[]),
            _ => &[],
        }
    }

    fn mem_bytes(&self) -> u64 {
        (self.starts.len() * size_of::<usize>() + self.runs.len() * size_of::<LaneRun>()) as u64
    }
}

/// The lane and run of the straight stretch from `first` to `last`, along
/// a column when `vertical`, else along a row.
fn lane_run(first: Coord, last: Coord, vertical: bool, block: Rect) -> (usize, LaneRun) {
    let (lane, a, b) = if vertical {
        (first.x, first.y, last.y)
    } else {
        (first.y, first.x, last.x)
    };
    // Runs lie on mesh lanes, so the lane is non-negative.
    let lane = usize::try_from(lane).unwrap_or(0);
    (
        lane,
        LaneRun {
            lo: a.min(b),
            hi: a.max(b),
            block,
        },
    )
}

/// The slot of the frame flips `(flips_x, flips_y)` in the four-table
/// arrays.
fn flip_slot(flips_x: bool, flips_y: bool) -> usize {
    usize::from(flips_x) << 1 | usize::from(flips_y)
}

/// The ray each column table holds, by [`flip_slot`]: the lower section
/// of the relative L3 line is the absolute L4 line when the frame mirrors
/// X, and its north ray when it mirrors Y.
const COLUMN_RAYS: [(BoundaryLine, Direction); 4] = [
    (BoundaryLine::L3, Direction::South),
    (BoundaryLine::L3, Direction::North),
    (BoundaryLine::L4, Direction::South),
    (BoundaryLine::L4, Direction::North),
];

/// The ray each row table holds, by [`flip_slot`]: the left section of
/// the relative L1 line is the absolute L2 line when the frame mirrors Y,
/// and its east ray when it mirrors X.
const ROW_RAYS: [(BoundaryLine, Direction); 4] = [
    (BoundaryLine::L1, Direction::West),
    (BoundaryLine::L2, Direction::West),
    (BoundaryLine::L1, Direction::East),
    (BoundaryLine::L2, Direction::East),
];

/// The faulty-block boundary information of a whole mesh, stored as the
/// straight runs of every boundary ray, per lane.
///
/// Each line L1–L4 of a block is two rays that leave its outside corners,
/// travel along the line and bend around any block they meet to join that
/// block's same line (the paper's Figure 6; [`BoundaryLine::rays`]). A ray
/// is a staircase of *straight runs* along its own line joined by *bend
/// steps*. Only straight runs can veto a Wu hop, so only they are kept,
/// as `(lo, hi, block)`: the L3/L4 rays' runs per column, the L1/L2 rays'
/// runs per row, one table for each of the four frame mirrorings that
/// read them. A hop of [`crate::route::wu_step`] reads two lanes, not
/// every contour through its node.
///
/// The node-by-node marks, bends included, are what the distributed
/// propagation protocol in `emr-distsim` delivers
/// (`emr_distsim::protocols::boundary::compute_global` is its global
/// form); the `boundary-segments-match-rays` conformance oracle checks
/// [`BoundaryMap::marks_at`] against their straight subset.
///
/// # Examples
///
/// ```
/// use emr_core::{Model, Scenario};
/// use emr_fault::FaultSet;
/// use emr_mesh::{Coord, Mesh};
///
/// let mesh = Mesh::square(10);
/// let faults = FaultSet::from_coords(mesh, [Coord::new(5, 5)]);
/// let scenario = Scenario::build(faults);
/// let boundary = scenario.boundary_map(Model::FaultBlock);
/// // The node south of the block's SW corner lies on its L3 line.
/// assert_eq!(boundary.marks_at(Coord::new(4, 3)).count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct BoundaryMap {
    /// The L3/L4 rays' runs per column, one table per [`COLUMN_RAYS`] slot.
    columns: [LaneTable; 4],
    /// The L1/L2 rays' runs per row, one table per [`ROW_RAYS`] slot.
    rows: [LaneTable; 4],
}

impl BoundaryMap {
    /// Walks every ray of every block once over the packed blocked plane
    /// (bending around blocked nodes, ending at the mesh edge) and keeps
    /// its straight runs. A ray whose corner is off the mesh or blocked
    /// does not start.
    pub fn compute(blocks: &[Rect], blocked: &BitGrid) -> BoundaryMap {
        let mesh = blocked.mesh();
        let open = |c: Coord| blocked.get(c) == Some(false);
        let mut columns: [Vec<(usize, LaneRun)>; 4] = Default::default();
        let mut rows: [Vec<(usize, LaneRun)>; 4] = Default::default();
        for block in blocks {
            for line in BoundaryLine::ALL {
                let bend = line.bend_direction();
                for (start, travel) in line.rays(block) {
                    if !open(start) {
                        continue;
                    }
                    let vertical = travel.is_vertical();
                    let (tables, rays) = if vertical {
                        (&mut columns, &COLUMN_RAYS)
                    } else {
                        (&mut rows, &ROW_RAYS)
                    };
                    // Every ray has exactly one slot.
                    let Some(slot) = rays.iter().position(|&r| r == (line, travel)) else {
                        continue;
                    };
                    let out = &mut tables[slot];
                    // The first node of the straight run in progress; a
                    // bend step ends the run, the next straight step
                    // starts one.
                    let mut first = Some(start);
                    let mut cur = start;
                    loop {
                        let ahead = cur.step(travel);
                        if open(ahead) {
                            first.get_or_insert(ahead);
                            cur = ahead;
                            continue;
                        }
                        // Blocked ahead: bend around the block; at the
                        // mesh edge (or with no way around) the ray ends.
                        let around = cur.step(bend);
                        if !mesh.contains(ahead) || !open(around) {
                            break;
                        }
                        if let Some(f) = first.take() {
                            out.push(lane_run(f, cur, vertical, *block));
                        }
                        cur = around;
                    }
                    if let Some(f) = first {
                        out.push(lane_run(f, cur, vertical, *block));
                    }
                }
            }
        }
        let width = usize::try_from(mesh.width()).unwrap_or(0);
        let height = usize::try_from(mesh.height()).unwrap_or(0);
        BoundaryMap {
            columns: columns.map(|pairs| LaneTable::grouped(width, pairs)),
            rows: rows.map(|pairs| LaneTable::grouped(height, pairs)),
        }
    }

    /// The straight runs in column `x` that lie on the *lower section of
    /// a block's L3 line* as `frame` sees it: the absolute L3 (or, when
    /// the frame mirrors X, L4) line's south (or, mirroring Y, north)
    /// ray. These are the only contours that can veto a relative East
    /// move (Wu's R4 rule).
    pub(crate) fn lower_l3_runs(&self, frame: &Frame, x: i32) -> &[LaneRun] {
        self.columns[flip_slot(frame.flips_x(), frame.flips_y())].lane(x)
    }

    /// The straight runs in row `y` that lie on the *left section of a
    /// block's L1 line* as `frame` sees it: the absolute L1 (or, when the
    /// frame mirrors Y, L2) line's west (or, mirroring X, east) ray. These
    /// are the only contours that can veto a relative North move (Wu's R6
    /// rule).
    pub(crate) fn left_l1_runs(&self, frame: &Frame, y: i32) -> &[LaneRun] {
        self.rows[flip_slot(frame.flips_x(), frame.flips_y())].lane(y)
    }

    /// The marks of the straight runs through `c`: one per run, with the
    /// run's block, its line, and the direction back along the line
    /// toward the block. Bend steps carry no mark here (none can veto a
    /// hop); off the lines, and off the mesh, there are none.
    pub fn marks_at(&self, c: Coord) -> impl Iterator<Item = BoundaryMark> + '_ {
        family_marks(&self.columns, &COLUMN_RAYS, c.x, c.y)
            .chain(family_marks(&self.rows, &ROW_RAYS, c.y, c.x))
    }
}

/// The marks of one table family's runs in lane `lane` that cover
/// position `at`; `rays` names each table's ray.
fn family_marks<'a>(
    tables: &'a [LaneTable; 4],
    rays: &'a [(BoundaryLine, Direction); 4],
    lane: i32,
    at: i32,
) -> impl Iterator<Item = BoundaryMark> + 'a {
    tables
        .iter()
        .zip(rays)
        .flat_map(move |(table, &(line, travel))| {
            table
                .lane(lane)
                .iter()
                .filter(move |r| r.covers(at))
                .map(move |r| BoundaryMark {
                    block: r.block,
                    line,
                    toward_block: travel.opposite(),
                })
        })
}

/// Payload bytes of the eight lane tables: their lane offsets and runs.
impl MemBytes for BoundaryMap {
    fn mem_bytes(&self) -> u64 {
        self.columns
            .iter()
            .chain(&self.rows)
            .map(LaneTable::mem_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, Scenario};
    use emr_fault::FaultSet;
    use emr_mesh::Mesh;

    #[test]
    fn lines_of_a_single_block() {
        let mesh = Mesh::square(9);
        let faults = FaultSet::from_coords(mesh, [Coord::new(4, 4)]);
        let sc = Scenario::build(faults);
        let map = sc.boundary_map(Model::FaultBlock);
        // L3 column (x=3): south and north sections.
        for y in [0, 1, 2, 3, 5, 6, 7, 8] {
            assert!(
                map.marks_at(Coord::new(3, y))
                    .any(|m| m.line == BoundaryLine::L3),
                "no L3 mark at y={y}"
            );
        }
        // A node far off any line has no marks.
        assert_eq!(map.marks_at(Coord::new(0, 0)).count(), 0);
        // Marks total: 4 lines × 8 nodes each (full row/column minus the
        // block's own row/column node), all on straight runs.
        let total: usize = mesh.nodes().map(|c| map.marks_at(c).count()).sum();
        assert_eq!(total, 4 * 8);
    }

    #[test]
    fn off_mesh_query_is_empty() {
        let mesh = Mesh::square(5);
        let sc = Scenario::build(FaultSet::from_coords(mesh, [Coord::new(2, 2)]));
        let map = sc.boundary_map(Model::FaultBlock);
        assert_eq!(map.marks_at(Coord::new(-1, -1)).count(), 0);
        assert_eq!(map.marks_at(Coord::new(1, -1)).count(), 0);
        assert_eq!(map.marks_at(Coord::new(5, 1)).count(), 0);
    }

    #[test]
    fn joined_lines_carry_both_blocks() {
        // Two stacked blocks: the upper block's L3 bends around the lower
        // one and joins its L3; nodes below carry both marks.
        let mesh = Mesh::square(14);
        let faults = FaultSet::from_coords(
            mesh,
            (2..=6)
                .flat_map(|x| (3..=5).map(move |y| Coord::new(x, y)))
                .chain((5..=7).flat_map(|x| (8..=9).map(move |y| Coord::new(x, y))))
                .collect::<Vec<_>>(),
        );
        let sc = Scenario::build(faults);
        assert_eq!(
            sc.blocks().rects(),
            [Rect::new(2, 6, 3, 5), Rect::new(5, 7, 8, 9)]
        );
        let map = sc.boundary_map(Model::FaultBlock);
        // Column x=1 is L3 of the lower block; below the lower block the
        // joined contour of the upper block passes through it too.
        let blocks_here: std::collections::BTreeSet<_> =
            map.marks_at(Coord::new(1, 0)).map(|m| m.block).collect();
        assert_eq!(blocks_here.len(), 2, "joined contour carries both blocks");
    }

    #[test]
    fn total_marks_scale_with_block_count() {
        let mesh = Mesh::square(30);
        let one = Scenario::build(FaultSet::from_coords(mesh, [Coord::new(15, 15)]));
        let two = Scenario::build(FaultSet::from_coords(
            mesh,
            [Coord::new(10, 10), Coord::new(20, 20)],
        ));
        let total = |sc: &Scenario| -> usize {
            let map = sc.boundary_map(Model::FaultBlock);
            mesh.nodes().map(|c| map.marks_at(c).count()).sum()
        };
        let (m1, m2) = (total(&one), total(&two));
        assert!(m2 > m1, "more blocks, more boundary information");
        // A single unit block's lines cover 4 × (n − 1) nodes.
        assert_eq!(m1, 4 * 29);
    }

    #[test]
    fn a_bent_ray_splits_into_runs_on_two_lanes() {
        // The upper block [5:7, 8:9]'s L3 south ray runs down column 4
        // from y = 7, meets the lower block [2:6, 3:5] below y = 6, bends
        // west along row 6 to x = 1 and runs down column 1. Its two
        // straight runs are (4, 6..=7) and (1, 0..=5); the bend nodes
        // (3..=1, 6) carry no run.
        let mesh = Mesh::square(14);
        let faults = FaultSet::from_coords(
            mesh,
            (2..=6)
                .flat_map(|x| (3..=5).map(move |y| Coord::new(x, y)))
                .chain((5..=7).flat_map(|x| (8..=9).map(move |y| Coord::new(x, y))))
                .collect::<Vec<_>>(),
        );
        let sc = Scenario::build(faults);
        let map = sc.boundary_map(Model::FaultBlock);
        let upper = Rect::new(5, 7, 8, 9);
        let identity = Frame::at(Coord::ORIGIN);
        let runs_of = |x: i32| -> Vec<(i32, i32)> {
            map.lower_l3_runs(&identity, x)
                .iter()
                .filter(|r| r.block == upper)
                .map(|r| (r.lo, r.hi))
                .collect()
        };
        assert_eq!(runs_of(4), [(6, 7)]);
        assert_eq!(runs_of(1), [(0, 5)]);
        for x in [2, 3] {
            assert!(runs_of(x).is_empty(), "bend column {x} has a run");
        }
        // A frame mirrored in Y reads the north ray instead: one run from
        // the block's NW corner to the mesh edge.
        let flipped = Frame::normalizing(Coord::new(0, 13), Coord::new(13, 0));
        assert!(flipped.flips_y() && !flipped.flips_x());
        let north: Vec<(i32, i32)> = map
            .lower_l3_runs(&flipped, 4)
            .iter()
            .filter(|r| r.block == upper)
            .map(|r| (r.lo, r.hi))
            .collect();
        assert_eq!(north, [(10, 13)]);
    }

    #[test]
    fn mcc_boundary_uses_component_bounding_rects() {
        let mesh = Mesh::square(12);
        // A diagonal pair: FB block is 2×2; MCC type-one components are
        // smaller, so the advertised rects differ.
        let sc = Scenario::build(FaultSet::from_coords(
            mesh,
            [Coord::new(5, 5), Coord::new(6, 6)],
        ));
        let fb = sc.boundary_map(Model::FaultBlock);
        let mcc = sc.boundary_map(Model::Mcc);
        let fb_rects: std::collections::BTreeSet<_> = mesh
            .nodes()
            .flat_map(|c| fb.marks_at(c).map(|m| m.block).collect::<Vec<_>>())
            .collect();
        let mcc_rects: std::collections::BTreeSet<_> = mesh
            .nodes()
            .flat_map(|c| mcc.marks_at(c).map(|m| m.block).collect::<Vec<_>>())
            .collect();
        assert!(fb_rects.contains(&Rect::new(5, 6, 5, 6)));
        assert_ne!(fb_rects, mcc_rects);
    }

    #[test]
    fn map_at_netsim_scale_stays_within_byte_budget() {
        use rand::SeedableRng;
        // The netsim-wu shape: 128×128 with 128 uniform faults. The runs
        // take 42.7 KB at this seed; a per-node mark grid held about 63k
        // marks here, over 1.2 MB of payload.
        let mesh = Mesh::square(128);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0b0d_0128);
        let sc = Scenario::build(emr_fault::inject::uniform(mesh, 128, &[], &mut rng));
        let bytes = sc.boundary_map(Model::FaultBlock).mem_bytes();
        assert!(bytes <= 128 * 1024, "boundary map holds {bytes} B");
        assert!(bytes > 0);
    }
}
