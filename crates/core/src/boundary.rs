use std::mem::size_of;
use std::ops::Range;

use emr_mesh::{BitGrid, Coord, Direction, MemBytes, Rect};

pub use emr_distsim::protocols::boundary::{BoundaryLine, BoundaryMark};

/// The veto fields of one straight run of a boundary ray, as the frame
/// mirroring of its table reads them. The run covers nodes `lo..=hi` of
/// its lane (a column for L3/L4 rays, a row for L1/L2 rays), and its
/// block's two far edges are stored mirrored into that frame: an axis the
/// frame mirrors is negated, so `d` lies strictly past the block along an
/// axis exactly when its mirrored coordinate exceeds the stored edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct VetoRun {
    /// The run's first node along its lane (least y in a column, least
    /// x in a row).
    lo: i32,
    /// The run's last node along its lane.
    hi: i32,
    /// The block's far edge along the lane's axis, mirrored.
    along: i32,
    /// The block's far edge across the lane, mirrored.
    across: i32,
}

impl VetoRun {
    /// The run that pads a lane's last chunk: it covers no position and
    /// no `d` lies past its edge, so it never vetoes.
    const PAD: VetoRun = VetoRun {
        lo: i32::MAX,
        hi: i32::MIN,
        along: i32::MAX,
        across: i32::MIN,
    };

    /// Whether the run covers position `at` of its lane with `d` in its
    /// block's R4 (a column run) or R6 (a row run), given `d`'s mirrored
    /// coordinates along and across the lane: four comparisons, no branch.
    // `&` instead of `&&` keeps the four comparisons free of branches.
    #[allow(clippy::needless_bitwise_bool)]
    fn vetoes(&self, at: i32, along: i32, across: i32) -> bool {
        (self.lo <= at) & (at <= self.hi) & (along > self.along) & (across <= self.across)
    }
}

/// Runs per chunk: a lane's runs are stored in chunks of this many (64
/// bytes of veto fields), its last chunk padded with [`VetoRun::PAD`].
const CHUNK: usize = 4;

/// The block index of a padding run (no block).
const NO_BLOCK: u32 = u32::MAX;

/// The runs of one ray family grouped by lane in chunks (CSR): lane `i`
/// holds `chunks[starts[i]..starts[i + 1]]`, its runs in walk order and
/// its last chunk padded. Every lane on the mesh holds at least one
/// chunk (an empty lane one chunk of padding), so a lane's fold reads
/// one chunk unless the lane holds more than [`CHUNK`] runs. `blocks`
/// holds each run's block as an index into [`BoundaryMap::blocks`]
/// ([`NO_BLOCK`] for padding), kept apart from the veto fields a hop
/// reads.
#[derive(Debug, Clone)]
struct LaneTable {
    starts: Vec<u32>,
    chunks: Vec<[VetoRun; CHUNK]>,
    blocks: Vec<[u32; CHUNK]>,
}

impl LaneTable {
    /// Groups `(lane, run, block)` triples over `lanes` lanes, keeping
    /// walk order within a lane (the sort is stable).
    fn grouped(lanes: usize, mut triples: Vec<(usize, VetoRun, u32)>) -> LaneTable {
        triples.sort_by_key(|&(lane, ..)| lane);
        let mut table = LaneTable {
            starts: Vec::with_capacity(lanes + 1),
            chunks: Vec::new(),
            blocks: Vec::new(),
        };
        let mut rest = triples.as_slice();
        for lane in 0..lanes {
            table.push_start();
            let count = rest.partition_point(|&(l, ..)| l == lane);
            let (runs, tail) = rest.split_at(count);
            rest = tail;
            // An empty lane still takes one chunk, all padding.
            let parts = runs.chunks(CHUNK).chain(runs.is_empty().then_some(&[][..]));
            for part in parts {
                let mut chunk = [VetoRun::PAD; CHUNK];
                let mut blocks = [NO_BLOCK; CHUNK];
                for (k, &(_, run, block)) in part.iter().enumerate() {
                    chunk[k] = run;
                    blocks[k] = block;
                }
                table.chunks.push(chunk);
                table.blocks.push(blocks);
            }
        }
        table.push_start();
        table
    }

    /// Opens the next lane at the current chunk count.
    fn push_start(&mut self) {
        self.starts
            .push(u32::try_from(self.chunks.len()).unwrap_or(u32::MAX));
    }

    /// The chunk index range of lane `lane` (empty off the mesh).
    fn lane(&self, lane: i32) -> Range<usize> {
        let start = |i: usize| self.starts.get(i).map(|&s| s as usize);
        match usize::try_from(lane).map(|i| (start(i), start(i + 1))) {
            Ok((Some(a), Some(b))) => a..b,
            _ => 0..0,
        }
    }

    /// Whether a run of lane `lane` vetoes (see [`VetoRun::vetoes`]): a
    /// fold over all four runs of each of the lane's chunks, padding
    /// included, without an early exit.
    fn vetoes(&self, lane: i32, at: i32, along: i32, across: i32) -> bool {
        let chunks = self.chunks.get(self.lane(lane)).unwrap_or(&[]);
        chunks.iter().fold(false, |v, chunk| {
            chunk.iter().fold(v, |v, r| v | r.vetoes(at, along, across))
        })
    }

    fn mem_bytes(&self) -> u64 {
        (self.starts.len() * size_of::<u32>()
            + self.chunks.len() * size_of::<[VetoRun; CHUNK]>()
            + self.blocks.len() * size_of::<[u32; CHUNK]>()) as u64
    }
}

/// `v` as a frame that mirrors its axis when `flip` sees it (up to the
/// frame's translation, which every comparison here cancels).
fn mirror(v: i32, flip: bool) -> i32 {
    if flip {
        -v
    } else {
        v
    }
}

/// The far edge of `lo..=hi` as a frame that mirrors the axis when `flip`
/// sees it: the mirrored bound the frame puts last.
fn far_edge(lo: i32, hi: i32, flip: bool) -> i32 {
    mirror(lo, flip).max(mirror(hi, flip))
}

/// The lane and veto fields of the straight stretch from `first` to
/// `last` of a ray of `block`, along a column when `vertical`, else along
/// a row, for the table of frame flips `(flips_x, flips_y)`.
fn veto_run(
    first: Coord,
    last: Coord,
    vertical: bool,
    block: &Rect,
    (flips_x, flips_y): (bool, bool),
) -> (usize, VetoRun) {
    let far_x = far_edge(block.x_min(), block.x_max(), flips_x);
    let far_y = far_edge(block.y_min(), block.y_max(), flips_y);
    let (lane, a, b, along, across) = if vertical {
        (first.x, first.y, last.y, far_y, far_x)
    } else {
        (first.y, first.x, last.x, far_x, far_y)
    };
    // Runs lie on mesh lanes, so the lane is non-negative.
    let lane = usize::try_from(lane).unwrap_or(0);
    (
        lane,
        VetoRun {
            lo: a.min(b),
            hi: a.max(b),
            along,
            across,
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
/// steps*. Only straight runs can veto a Wu hop, so only they are kept:
/// the L3/L4 rays' runs per column, the L1/L2 rays' runs per row, one
/// table for each of the four frame mirrorings that read them. A run
/// keeps its veto fields, four `i32`s mirrored into its table's frame; a
/// lane keeps its runs in chunks of four (64 bytes), the last padded
/// with runs that never veto, and at least one chunk.
/// Its block's rectangle, which only [`BoundaryMap::marks_at`] reports,
/// is stored apart. A hop of [`crate::route::wu_step`] reads the one
/// lane of the move it takes, not every contour through its node, and
/// at netsim-wu's shape nearly every lane is one chunk.
///
/// Only a [`crate::Scenario`] builds maps, one per obstacle plane on
/// first read ([`crate::Scenario::block_boundary_map`],
/// [`crate::Scenario::mcc_boundary_map`]), and each new fault drops them.
/// A route's leg reads the map of the plane its obstacle test reads.
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
/// use emr_core::Scenario;
/// use emr_fault::FaultSet;
/// use emr_mesh::{Coord, Mesh};
///
/// let mesh = Mesh::square(10);
/// let faults = FaultSet::from_coords(mesh, [Coord::new(5, 5)]);
/// let scenario = Scenario::build(faults);
/// let boundary = scenario.block_boundary_map();
/// // The node south of the block's SW corner lies on its L3 line.
/// assert_eq!(boundary.marks_at(Coord::new(4, 3)).count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct BoundaryMap {
    /// The L3/L4 rays' runs per column, one table per [`COLUMN_RAYS`] slot.
    columns: [LaneTable; 4],
    /// The L1/L2 rays' runs per row, one table per [`ROW_RAYS`] slot.
    rows: [LaneTable; 4],
    /// The blocks the runs' block indices name.
    blocks: Vec<Rect>,
}

/// One route's view of a [`BoundaryMap`]: the two tables of its frame
/// and its destination's mirrored coordinates, so a hop reads a lane
/// without resolving the frame again.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LegVetoes<'a> {
    /// The column table of the route's frame (East-move vetoes).
    columns: &'a LaneTable,
    /// The row table of the route's frame (North-move vetoes).
    rows: &'a LaneTable,
    /// `d.x`, mirrored as the frame reads it.
    x: i32,
    /// `d.y`, mirrored as the frame reads it.
    y: i32,
}

impl LegVetoes<'_> {
    /// Wu's veto of the relative East move (`east`) or North move at `u`:
    /// whether a straight run through `u` on the *lower section of a
    /// block's L3 line* has `d` in its block's region R4 (East), or one
    /// on the *left section of a block's L1 line* has `d` in its block's
    /// R6 (North). The East move's runs are the absolute L3 (or, when
    /// the frame mirrors X, L4) line's south (or, mirroring Y, north) ray
    /// in column `u.x`, the only contours that can veto it; the North
    /// move's are the absolute L1 (mirroring Y, L2) line's west
    /// (mirroring X, east) ray in row `u.y`. The move picks the table,
    /// the lane and the order of `d`'s mirrored coordinates by select,
    /// with no branch per move.
    pub(crate) fn vetoes(&self, east: bool, u: Coord) -> bool {
        let (table, lane, at, along, across) = if east {
            (self.columns, u.x, u.y, self.y, self.x)
        } else {
            (self.rows, u.y, u.x, self.x, self.y)
        };
        table.vetoes(lane, at, along, across)
    }
}

impl BoundaryMap {
    /// Walks every ray of every block once over the packed blocked plane
    /// (bending around blocked nodes, ending at the mesh edge) and keeps
    /// its straight runs. A ray whose corner is off the mesh or blocked
    /// does not start.
    pub(crate) fn compute(blocks: &[Rect], blocked: &BitGrid) -> BoundaryMap {
        let mesh = blocked.mesh();
        let open = |c: Coord| blocked.get(c) == Some(false);
        let mut columns: [Vec<(usize, VetoRun, u32)>; 4] = Default::default();
        let mut rows: [Vec<(usize, VetoRun, u32)>; 4] = Default::default();
        for (index, block) in blocks.iter().enumerate() {
            let index = u32::try_from(index).unwrap_or(u32::MAX);
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
                    let flips = (slot & 2 != 0, slot & 1 != 0);
                    let out = &mut tables[slot];
                    let mut push = |first: Coord, last: Coord| {
                        let (lane, run) = veto_run(first, last, vertical, block, flips);
                        out.push((lane, run, index));
                    };
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
                            push(f, cur);
                        }
                        cur = around;
                    }
                    if let Some(f) = first {
                        push(f, cur);
                    }
                }
            }
        }
        let width = usize::try_from(mesh.width()).unwrap_or(0);
        let height = usize::try_from(mesh.height()).unwrap_or(0);
        BoundaryMap {
            columns: columns.map(|triples| LaneTable::grouped(width, triples)),
            rows: rows.map(|triples| LaneTable::grouped(height, triples)),
            blocks: blocks.to_vec(),
        }
    }

    /// The veto tables a route to `d` reads, resolved once for its leg:
    /// the column and row tables of the frame that mirrors the axes
    /// `(flips_x, flips_y)`, and `d`'s coordinates mirrored as they read
    /// them (see [`LegVetoes::vetoes`]).
    pub(crate) fn leg(&self, (flips_x, flips_y): (bool, bool), d: Coord) -> LegVetoes<'_> {
        let slot = flip_slot(flips_x, flips_y);
        LegVetoes {
            columns: &self.columns[slot],
            rows: &self.rows[slot],
            x: mirror(d.x, flips_x),
            y: mirror(d.y, flips_y),
        }
    }

    /// The runs of `table` in lane `lane`, each with its block; padding
    /// runs name no block and are skipped.
    fn lane_runs<'a>(
        &'a self,
        table: &'a LaneTable,
        lane: i32,
    ) -> impl Iterator<Item = (&'a VetoRun, Rect)> + 'a {
        let range = table.lane(lane);
        let runs = table.chunks.get(range.clone()).unwrap_or(&[]);
        let blocks = table.blocks.get(range).unwrap_or(&[]);
        runs.iter()
            .flatten()
            .zip(blocks.iter().flatten())
            .filter(|&(_, &b)| b != NO_BLOCK)
            .filter_map(|(run, &b)| Some((run, *self.blocks.get(b as usize)?)))
    }

    /// The marks of the straight runs through `c`: one per run, with the
    /// run's block, its line, and the direction back along the line
    /// toward the block. Bend steps carry no mark here (none can veto a
    /// hop); off the lines, and off the mesh, there are none.
    pub fn marks_at(&self, c: Coord) -> impl Iterator<Item = BoundaryMark> + '_ {
        self.family_marks(&self.columns, &COLUMN_RAYS, c.x, c.y)
            .chain(self.family_marks(&self.rows, &ROW_RAYS, c.y, c.x))
    }

    /// The marks of one table family's runs in lane `lane` that cover
    /// position `at`; `rays` names each table's ray.
    fn family_marks<'a>(
        &'a self,
        tables: &'a [LaneTable; 4],
        rays: &'a [(BoundaryLine, Direction); 4],
        lane: i32,
        at: i32,
    ) -> impl Iterator<Item = BoundaryMark> + 'a {
        tables
            .iter()
            .zip(rays)
            .flat_map(move |(table, &(line, travel))| {
                self.lane_runs(table, lane)
                    .filter(move |(r, _)| r.lo <= at && at <= r.hi)
                    .map(move |(_, block)| BoundaryMark {
                        block,
                        line,
                        toward_block: travel.opposite(),
                    })
            })
    }
}

/// Payload bytes of the eight lane tables (lane offsets, veto fields and
/// block indices) and of the block list.
impl MemBytes for BoundaryMap {
    fn mem_bytes(&self) -> u64 {
        let tables: u64 = self
            .columns
            .iter()
            .chain(&self.rows)
            .map(LaneTable::mem_bytes)
            .sum();
        tables + (self.blocks.len() * size_of::<Rect>()) as u64
    }
}

#[cfg(test)]
impl BoundaryMap {
    /// The lower-L3 runs in column `x` as `frame` sees them (the runs
    /// [`LegVetoes::vetoes`] folds for the East move), as `(lo, hi,
    /// block)`.
    pub(crate) fn lower_l3_runs(&self, frame: &emr_mesh::Frame, x: i32) -> Vec<(i32, i32, Rect)> {
        let table = &self.columns[flip_slot(frame.flips_x(), frame.flips_y())];
        self.lane_runs(table, x)
            .map(|(r, block)| (r.lo, r.hi, block))
            .collect()
    }

    /// The left-L1 runs in row `y` as `frame` sees them (the runs
    /// [`LegVetoes::vetoes`] folds for the North move), as `(lo, hi,
    /// block)`.
    pub(crate) fn left_l1_runs(&self, frame: &emr_mesh::Frame, y: i32) -> Vec<(i32, i32, Rect)> {
        let table = &self.rows[flip_slot(frame.flips_x(), frame.flips_y())];
        self.lane_runs(table, y)
            .map(|(r, block)| (r.lo, r.hi, block))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;
    use emr_fault::{FaultSet, MccType};
    use emr_mesh::{Frame, Mesh};

    #[test]
    fn lines_of_a_single_block() {
        let mesh = Mesh::square(9);
        let faults = FaultSet::from_coords(mesh, [Coord::new(4, 4)]);
        let sc = Scenario::build(faults);
        let map = sc.block_boundary_map();
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
        let map = sc.block_boundary_map();
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
        let map = sc.block_boundary_map();
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
            let map = sc.block_boundary_map();
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
        let map = sc.block_boundary_map();
        let upper = Rect::new(5, 7, 8, 9);
        let identity = Frame::at(Coord::ORIGIN);
        let runs_of = |x: i32| -> Vec<(i32, i32)> {
            map.lower_l3_runs(&identity, x)
                .into_iter()
                .filter(|&(.., block)| block == upper)
                .map(|(lo, hi, _)| (lo, hi))
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
            .into_iter()
            .filter(|&(.., block)| block == upper)
            .map(|(lo, hi, _)| (lo, hi))
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
        let fb = sc.block_boundary_map();
        let mcc = sc.mcc_boundary_map(MccType::One);
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
        // take 92.8 KB at this seed in four-run chunks, each lane at
        // least one (401 of the 1,024 lanes hold no run and 57 more than
        // four). Unchunked they took 34.9 KB, and 42.7 KB when each run
        // carried its block's rectangle and the offsets were `usize`; a
        // per-node mark grid held about 63k marks here, over 1.2 MB of
        // payload.
        let mesh = Mesh::square(128);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0b0d_0128);
        let sc = Scenario::build(emr_fault::inject::uniform(mesh, 128, &[], &mut rng));
        let bytes = sc.block_boundary_map().mem_bytes();
        assert!(bytes <= 128 * 1024, "boundary map holds {bytes} B");
        assert!(bytes > 0);
    }

    /// How many of the map's lanes hold no run, a padded chunk (runs
    /// that do not fill their last chunk), and more than one chunk.
    fn lane_shapes(map: &BoundaryMap) -> [usize; 3] {
        let mut shapes = [0; 3];
        for table in map.columns.iter().chain(&map.rows) {
            let lanes = i32::try_from(table.starts.len() - 1).expect("lane count fits i32");
            for lane in 0..lanes {
                let runs = map.lane_runs(table, lane).count();
                shapes[0] += usize::from(runs == 0);
                shapes[1] += usize::from(!runs.is_multiple_of(CHUNK));
                shapes[2] += usize::from(runs > CHUNK);
            }
        }
        shapes
    }

    /// A dense 24x24 map: 60 uniform faults form 34 blocks. Of its 192
    /// lanes, 49 hold no run, 130 end in a padded chunk and 40 take more
    /// than one chunk.
    fn dense_map() -> (Scenario, Mesh) {
        use rand::SeedableRng;
        let mesh = Mesh::square(24);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xc4a2_0024);
        let sc = Scenario::build(emr_fault::inject::uniform(mesh, 60, &[], &mut rng));
        (sc, mesh)
    }

    #[test]
    fn chunked_lanes_veto_as_the_unpadded_fold() {
        let (sc, mesh) = dense_map();
        let map = sc.block_boundary_map();
        let [empty, padded, two_chunks] = lane_shapes(map);
        println!("{empty} empty, {padded} padded, {two_chunks} two-chunk lanes");
        assert!(
            empty > 0 && padded > 0 && two_chunks > 0,
            "a lane shape is missing"
        );
        // Every lane of every table, every position and every `d`, with
        // `d` mirrored as the table's frame reads it.
        let n = mesh.width();
        for (slot, (columns, rows)) in map.columns.iter().zip(&map.rows).enumerate() {
            let (flips_x, flips_y) = (slot & 2 != 0, slot & 1 != 0);
            for d in mesh.nodes() {
                let (x, y) = (mirror(d.x, flips_x), mirror(d.y, flips_y));
                for (table, along, across) in [(columns, y, x), (rows, x, y)] {
                    for lane in -1..=n {
                        for at in -1..=n {
                            let unpadded = map
                                .lane_runs(table, lane)
                                .any(|(r, _)| r.vetoes(at, along, across));
                            assert_eq!(
                                table.vetoes(lane, at, along, across),
                                unpadded,
                                "slot {slot}, lane {lane}, at {at}, d {d}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn padding_runs_stay_out_of_every_listing() {
        let (sc, mesh) = dense_map();
        let map = sc.block_boundary_map();
        let mut real = 0;
        let mut covered = 0;
        for table in map.columns.iter().chain(&map.rows) {
            let slots = table.blocks.iter().flatten();
            let padding = slots.clone().filter(|&&b| b == NO_BLOCK).count();
            assert!(padding > 0, "a table without padding");
            let listed: Vec<_> = (0..mesh.width().max(mesh.height()))
                .flat_map(|lane| map.lane_runs(table, lane))
                .collect();
            assert!(listed.iter().all(|(r, _)| **r != VetoRun::PAD));
            assert_eq!(listed.len(), slots.count() - padding);
            real += listed.len();
            covered += listed.iter().map(|(r, _)| r.hi - r.lo + 1).sum::<i32>();
        }
        assert!(real > 0);
        // The frame listings the eager reference reads, and the marks.
        for slot in 0..4 {
            let s = Coord::new(12, 12);
            let d = Coord::new(
                if slot & 2 != 0 { 0 } else { 23 },
                if slot & 1 != 0 { 0 } else { 23 },
            );
            let frame = Frame::normalizing(s, d);
            for lane in 0..24 {
                let runs = map
                    .lower_l3_runs(&frame, lane)
                    .into_iter()
                    .chain(map.left_l1_runs(&frame, lane));
                for (lo, hi, block) in runs {
                    assert!(lo <= hi, "a padding run in slot {slot}, lane {lane}");
                    assert!(map.blocks.contains(&block));
                }
            }
        }
        let marks: usize = mesh.nodes().map(|c| map.marks_at(c).count()).sum();
        assert_eq!(marks, covered as usize, "marks beyond the real runs");
    }
}
