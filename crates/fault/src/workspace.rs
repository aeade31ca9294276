//! Reusable scratch buffers for the hot decomposition loops.
//!
//! Building a [`crate::BlockMap`], an [`crate::MccMap`] or their
//! rectangles, or a reachability table, needs transient buffers: the
//! fix-point worklist queue, a packed visited mask, scratch rows for the
//! reachability sweeps, and dense grids for the scalar reference
//! builders. One sweep trial does most of these; a full experiment does
//! millions. Each thread owns one [`Workspace`] holding those
//! transients, and every construction kernel and reachability oracle
//! (`BlockMap::build`, `MccMap::build`, `reach::minimal_path_exists`,
//! `ReachMap::from_packed`, …) borrows it through [`with_scratch`], so
//! a thread pays for the buffers once and reuses them across calls.
//! Every kernel runs to completion on the calling thread and spawns
//! none, so a sweep worker's trials share that worker's one workspace.
//! The module is private: no public entry point takes a workspace
//! argument.

use std::cell::RefCell;
use std::collections::VecDeque;

use emr_mesh::{BitGrid, Coord, Grid, Mesh};

/// Scratch buffers shared by the fault-model decompositions and the
/// reachability kernels.
///
/// Every buffer is reset (not trusted) by the code that uses it, so a
/// workspace carries no state between calls — only capacity. In
/// particular a workspace is **not tied to any mesh size**: each grid
/// buffer is retargeted via [`Grid::reset`] on entry, which resizes on
/// demand, so one workspace may serve meshes of differing (growing or
/// shrinking) dimensions back to back. `workspace_survives_mesh_changes`
/// is the regression test for that guarantee; every kernel that borrows
/// the workspace must reset each buffer it uses before reading it.
///
#[derive(Debug)]
pub struct Workspace {
    /// BFS / worklist queue for fix-points and component extraction.
    pub queue: VecDeque<Coord>,
    /// Visited marks for the scalar builders' shared component
    /// extraction.
    pub visited: Grid<bool>,
    /// General boolean node marks (faulty flags, obstacle maps).
    pub mark_a: Grid<bool>,
    /// Second mark plane (the MCC "useless" labeling).
    pub mark_b: Grid<bool>,
    /// Third mark plane (the MCC "can't-reach" labeling).
    pub mark_c: Grid<bool>,
    /// Reachability DP table over a normalized route rectangle.
    pub table: Grid<bool>,
    /// Packed visited mask: the nodes the component scan behind both
    /// maps' `rects()` and `BlockMap::insert_fault` has already reached.
    pub visited_mask: BitGrid,
    /// Packed open-mask row for the [`crate::reach_bits`] row step.
    pub row_open: Vec<u64>,
    /// Packed reach-bits row carried between [`crate::reach_bits`] rows.
    pub row_cur: Vec<u64>,
    /// Reverse back-walk buffer for [`crate::reach::minimal_path`].
    pub rev: Vec<Coord>,
}

impl Workspace {
    /// Creates an empty workspace; buffers grow on first use. Private:
    /// the only way to borrow one is [`with_scratch`].
    fn new() -> Workspace {
        let unit = Mesh::new(1, 1);
        Workspace {
            queue: VecDeque::new(),
            visited: Grid::new(unit, false),
            mark_a: Grid::new(unit, false),
            mark_b: Grid::new(unit, false),
            mark_c: Grid::new(unit, false),
            table: Grid::new(unit, false),
            visited_mask: BitGrid::new(unit),
            row_open: Vec::new(),
            row_cur: Vec::new(),
            rev: Vec::new(),
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Runs `f` with this thread's shared scratch workspace.
///
/// Reentrant calls (e.g. a `blocked` predicate that itself consults the
/// reachability oracle) fall back to a fresh workspace instead of
/// panicking on the double borrow.
pub fn with_scratch<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        Err(_) => f(&mut Workspace::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_reusable_and_reentrant() {
        let first = with_scratch(|ws| {
            ws.queue.push_back(Coord::ORIGIN);
            ws.visited.reset(Mesh::square(4), true);
            // A nested borrow must still work (fresh workspace).
            with_scratch(|inner| inner.queue.len())
        });
        assert_eq!(first, 0);
        // The outer workspace kept its (stale) state; users must reset.
        with_scratch(|ws| {
            assert_eq!(ws.queue.len(), 1);
            ws.queue.clear();
        });
    }

    #[test]
    fn workspace_survives_mesh_changes() {
        use crate::reach::{minimal_path, minimal_path_exists};
        use crate::reach_bits::{minimal_path_exists_bits, ReachMap};
        use crate::{BlockMap, FaultSet, MccMap, MccType};

        // Every entry point that borrows this thread's workspace, driven
        // back to back across growing, shrinking, and degenerate meshes.
        // Each result must equal an independent reference (a fresh
        // workspace via a nested borrow, or a per-node recomputation) —
        // stale capacity or dimensions from the previous mesh must never
        // leak through.
        let fresh = |f: &dyn Fn() -> bool| with_scratch(|_| f());
        let shapes = [(4, 4), (9, 9), (1, 7), (6, 2), (13, 5), (70, 3), (2, 2)];
        for &(w, h) in &shapes {
            let mesh = Mesh::new(w, h);
            let faults = FaultSet::from_coords(
                mesh,
                [
                    Coord::new(0, 0),
                    Coord::new((w - 1) / 2, (h - 1) / 2),
                    Coord::new(w - 1, h - 1),
                ],
            );
            let blocks = BlockMap::build(&faults);
            assert_eq!(
                with_scratch(|_| BlockMap::build(&faults)),
                blocks,
                "{w}x{h} blocks"
            );
            assert_eq!(BlockMap::build_scalar(&faults), blocks, "{w}x{h} scalar");
            for ty in MccType::ALL {
                let mcc = MccMap::build(&faults, ty);
                assert_eq!(
                    with_scratch(|_| MccMap::build(&faults, ty)),
                    mcc,
                    "{w}x{h} {ty:?}"
                );
                assert_eq!(
                    MccMap::build_scalar(&faults, ty),
                    mcc,
                    "{w}x{h} scalar {ty:?}"
                );
            }
            let s = Coord::new(0, h - 1);
            let d = Coord::new(w - 1, 0);
            let blocked = |c: Coord| faults.is_faulty(c);
            let want = fresh(&|| minimal_path_exists(&mesh, s, d, blocked));
            assert_eq!(
                minimal_path_exists(&mesh, s, d, blocked),
                want,
                "{w}x{h} reach"
            );
            assert_eq!(
                minimal_path_exists_bits(&mesh, s, d, blocked),
                want,
                "{w}x{h} reach bits"
            );
            assert_eq!(
                minimal_path(&mesh, s, d, blocked).is_some(),
                want,
                "{w}x{h} path"
            );
            // s and d are opposite mesh corners: the map toward d covers
            // the whole mesh.
            let map = ReachMap::from_packed(s, d, faults.packed());
            for dest in mesh.nodes() {
                let want = fresh(&|| minimal_path_exists(&mesh, s, dest, blocked));
                assert_eq!(map.reachable(dest), want, "{w}x{h} map {dest}");
            }
        }
    }

    #[test]
    fn reentrant_blocked_predicate_matches_plain_predicate() {
        use crate::reach::minimal_path_exists;
        use crate::reach_bits::minimal_path_exists_bits;

        // A `blocked` predicate that itself consults the oracle runs while
        // `minimal_path_exists_bits` holds this thread's workspace, so the
        // inner call takes `with_scratch`'s fresh-workspace fallback. Nodes
        // cut off from the corner by a wall count as blocked.
        let mesh = Mesh::new(12, 9);
        let wall = |c: Coord| c.x == 5 && c.y >= 2;
        let corner = Coord::new(11, 8);
        let blocked = |c: Coord| wall(c) || !minimal_path_exists(&mesh, c, corner, wall);
        let grid = emr_mesh::Grid::from_fn(mesh, blocked);
        let plain = |c: Coord| grid.get(c) == Some(&true);
        let mut reached = 0;
        for source in [Coord::new(0, 0), Coord::new(7, 1), Coord::new(3, 8)] {
            for d in mesh.nodes() {
                let nested = minimal_path_exists_bits(&mesh, source, d, blocked);
                assert_eq!(
                    nested,
                    minimal_path_exists_bits(&mesh, source, d, plain),
                    "{source} -> {d}"
                );
                reached += usize::from(nested);
            }
        }
        assert!(reached > 0);
    }
}
