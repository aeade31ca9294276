//! The records both fault models share: a faulty block (Definition 1)
//! and a minimal connected component (Definition 2) are each a
//! 4-connected component of the model's blocked plane, and a record is
//! that component's bounding rectangle. Under Definition 1 the component
//! fills it; under Definition 2 the exact staircase stays in the planes.
//!
//! [`component_rects`] is the one production scan, over the packed
//! blocked plane. [`scalar_component_rects`] is the reference the scalar
//! builders use, over dense grids; it shares no code with the scan, so
//! the `*-bits-matches-scalar` oracles compare two implementations.

use std::collections::VecDeque;

use emr_mesh::{for_each_set_bit, BitGrid, Coord, Grid, Mesh, Rect};

use crate::workspace::{with_scratch, Workspace};

/// The bounding rectangles of the components of `blocked`'s set bits, in
/// the row-major order of each component's first node: a row-major pass
/// over the set bits starts a BFS at each node not yet visited, against
/// the workspace's packed visited mask. Costs `O(words + blocked nodes)`.
pub(crate) fn component_rects(blocked: &BitGrid) -> Vec<Rect> {
    with_scratch(|ws| {
        let Workspace {
            queue,
            visited_mask: visited,
            ..
        } = ws;
        visited.reset(blocked.mesh());
        let mut rects = Vec::new();
        for y in 0..blocked.mesh().height() {
            for_each_set_bit(blocked.row(y), |x| {
                // A set bit lies inside the mesh, whose width fits `i32`.
                let start = Coord::new(i32::try_from(x).unwrap_or(i32::MAX), y);
                if !visited.test_and_set(start) {
                    rects.push(bfs_rect(start, blocked, queue, visited));
                }
            });
        }
        rects
    })
}

/// The bounding rectangle of the component of `blocked`'s set bits that
/// holds the set bit `c`.
pub(crate) fn component_rect_through(blocked: &BitGrid, c: Coord) -> Rect {
    with_scratch(|ws| {
        ws.visited_mask.reset(blocked.mesh());
        ws.visited_mask.set(c, true);
        bfs_rect(c, blocked, &mut ws.queue, &mut ws.visited_mask)
    })
}

/// BFS over the set bits of `blocked` from `start` (already marked in
/// `visited`), with neighbours in E, N, W, S order, marking each node it
/// reaches; returns the bounding rectangle of the nodes reached.
fn bfs_rect(
    start: Coord,
    blocked: &BitGrid,
    queue: &mut VecDeque<Coord>,
    visited: &mut BitGrid,
) -> Rect {
    let mut rect = Rect::point(start);
    queue.clear();
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        rect = rect.expanded_to(u);
        for v in blocked.mesh().neighbors(u) {
            if blocked.get(v) == Some(true) && !visited.test_and_set(v) {
                queue.push_back(v);
            }
        }
    }
    rect
}

/// The scalar builders' reference for [`component_rects`]: a BFS from
/// each blocked node of a row-major walk over `mesh.nodes()` that no
/// earlier BFS reached, with a dense visited grid.
pub(crate) fn scalar_component_rects(
    mesh: Mesh,
    blocked: impl Fn(Coord) -> bool,
    queue: &mut VecDeque<Coord>,
    visited: &mut Grid<bool>,
) -> Vec<Rect> {
    visited.reset(mesh, false);
    let mut rects = Vec::new();
    for start in mesh.nodes() {
        if visited[start] || !blocked(start) {
            continue;
        }
        let mut rect = Rect::point(start);
        queue.clear();
        queue.push_back(start);
        visited[start] = true;
        while let Some(u) = queue.pop_front() {
            rect = rect.expanded_to(u);
            for v in mesh.neighbors(u) {
                if !visited[v] && blocked(v) {
                    visited[v] = true;
                    queue.push_back(v);
                }
            }
        }
        rects.push(rect);
    }
    rects
}
