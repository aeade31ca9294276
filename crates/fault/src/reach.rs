//! Exact monotone-reachability oracle.
//!
//! A minimal path between `s` and `d` moves only in the two preferred
//! directions, so it stays inside the rectangle spanned by `s` and `d` and
//! visits its nodes in a monotone order. Existence of a minimal path that
//! avoids a blocked-node set is therefore a simple dynamic program over
//! that rectangle. This is the "existence of a minimal path" / optimal
//! ground truth every figure of the paper compares against (it is
//! equivalent to Wang's necessary-and-sufficient condition — see
//! [`crate::coverage`] — but needs no block structure).

use emr_mesh::{Coord, Frame, Grid, Mesh, Path, Rect};

use crate::workspace::{with_scratch, Workspace};

/// Whether a minimal path from `s` to `d` exists that avoids every node for
/// which `blocked` returns true.
///
/// Returns `false` when either endpoint is blocked or outside the mesh.
/// `s == d` (with `s` unblocked) counts as reachable.
///
/// # Examples
///
/// ```
/// use emr_mesh::{Coord, Mesh};
/// use emr_fault::reach::minimal_path_exists;
///
/// let mesh = Mesh::square(4);
/// let wall = |c: Coord| c.x == 1 && c.y <= 2; // a 3-node wall
/// assert!(minimal_path_exists(&mesh, Coord::new(0, 0), Coord::new(3, 3), wall));
/// let full_wall = |c: Coord| c.x == 1; // crosses the whole rectangle
/// assert!(!minimal_path_exists(&mesh, Coord::new(0, 0), Coord::new(3, 3), full_wall));
/// ```
pub fn minimal_path_exists(
    mesh: &Mesh,
    s: Coord,
    d: Coord,
    blocked: impl Fn(Coord) -> bool,
) -> bool {
    with_scratch(|ws| {
        reach_table_into(mesh, s, d, &blocked, &mut ws.table).is_some_and(|frame| {
            let rd = frame.to_rel(d);
            ws.table[Coord::new(rd.x, rd.y)]
        })
    })
}

/// Constructs a minimal path from `s` to `d` avoiding `blocked`, if one
/// exists. The returned path starts at `s`, ends at `d`, is contiguous,
/// simple, minimal, and avoids every blocked node.
pub fn minimal_path(
    mesh: &Mesh,
    s: Coord,
    d: Coord,
    blocked: impl Fn(Coord) -> bool,
) -> Option<Path> {
    with_scratch(|ws| {
        let frame = reach_table_into(mesh, s, d, &blocked, &mut ws.table)?;
        let Workspace { table, rev, .. } = ws;
        let rd = frame.to_rel(d);
        if !table[rd] {
            return None;
        }
        // Walk backwards from the destination through reachable
        // predecessors, into the scratch buffer — only the returned Path
        // allocates.
        rev.clear();
        rev.push(rd);
        let mut cur = rd;
        while cur != Coord::ORIGIN {
            let west = Coord::new(cur.x - 1, cur.y);
            cur = if cur.x > 0 && table[west] {
                west
            } else {
                Coord::new(cur.x, cur.y - 1)
            };
            rev.push(cur);
        }
        Some(rev.iter().rev().map(|&c| frame.to_abs(c)).collect())
    })
}

/// Forward DP over the normalized rectangle: `table[c]` says whether a
/// monotone path from the source reaches relative coordinate `c`. Fills
/// the caller's table in place (reset to the route rectangle's size).
fn reach_table_into(
    mesh: &Mesh,
    s: Coord,
    d: Coord,
    blocked: &impl Fn(Coord) -> bool,
    table: &mut Grid<bool>,
) -> Option<Frame> {
    if !mesh.contains(s) || !mesh.contains(d) || blocked(s) || blocked(d) {
        return None;
    }
    let frame = Frame::normalizing(s, d);
    let rd = frame.to_rel(d);
    // A grid over the relative rectangle [0..rd.x, 0..rd.y]; reuse Grid by
    // treating it as a (rd.x+1) × (rd.y+1) mesh.
    let table_mesh = Mesh::new(rd.x + 1, rd.y + 1);
    table.reset(table_mesh, false);
    for rc in Rect::new(0, rd.x, 0, rd.y).iter() {
        let abs = frame.to_abs(rc);
        if !mesh.contains(abs) || blocked(abs) {
            continue;
        }
        let reachable = (rc == Coord::ORIGIN)
            || (rc.x > 0 && table[Coord::new(rc.x - 1, rc.y)])
            || (rc.y > 0 && table[Coord::new(rc.x, rc.y - 1)]);
        table[rc] = reachable;
    }
    Some(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocked_set(coords: &[(i32, i32)]) -> impl Fn(Coord) -> bool + '_ {
        move |c| coords.iter().any(|&(x, y)| Coord::new(x, y) == c)
    }

    #[test]
    fn clear_mesh_is_always_reachable() {
        let mesh = Mesh::square(6);
        for d in mesh.nodes() {
            assert!(minimal_path_exists(&mesh, Coord::new(2, 3), d, |_| false));
        }
    }

    #[test]
    fn blocked_endpoints_fail() {
        let mesh = Mesh::square(4);
        let s = Coord::new(0, 0);
        let d = Coord::new(3, 3);
        assert!(!minimal_path_exists(&mesh, s, d, |c| c == s));
        assert!(!minimal_path_exists(&mesh, s, d, |c| c == d));
        assert!(minimal_path(&mesh, s, d, |c| c == s).is_none());
    }

    #[test]
    fn out_of_mesh_endpoints_fail() {
        let mesh = Mesh::square(4);
        assert!(!minimal_path_exists(
            &mesh,
            Coord::new(0, 0),
            Coord::new(9, 0),
            |_| false
        ));
    }

    #[test]
    fn wall_blocks_only_when_it_crosses_the_rectangle() {
        let mesh = Mesh::square(5);
        let s = Coord::new(0, 0);
        let d = Coord::new(4, 2);
        // Vertical wall at x=2 covering rows 0..=1 leaves row 2 open.
        let partial = blocked_set(&[(2, 0), (2, 1)]);
        assert!(minimal_path_exists(&mesh, s, d, partial));
        // Covering rows 0..=2 seals the rectangle.
        let full = blocked_set(&[(2, 0), (2, 1), (2, 2)]);
        assert!(!minimal_path_exists(&mesh, s, d, full));
    }

    #[test]
    fn constructed_path_is_minimal_and_avoiding() {
        let mesh = Mesh::square(6);
        let s = Coord::new(0, 0);
        let d = Coord::new(5, 4);
        let blocked = blocked_set(&[(1, 0), (1, 1), (1, 2), (3, 4)]);
        let p = minimal_path(&mesh, s, d, &blocked).expect("path exists");
        assert_eq!(p.source(), Some(s));
        assert_eq!(p.dest(), Some(d));
        assert!(p.is_minimal());
        assert!(p.is_simple());
        assert!(p.avoids(&blocked));
    }

    #[test]
    fn works_in_all_quadrants() {
        let mesh = Mesh::square(7);
        let s = mesh.center();
        let blocked = blocked_set(&[(2, 2), (4, 4), (2, 4), (4, 2)]);
        for d in [
            Coord::new(6, 6),
            Coord::new(0, 6),
            Coord::new(0, 0),
            Coord::new(6, 0),
        ] {
            let p = minimal_path(&mesh, s, d, &blocked).expect("path exists");
            assert!(p.is_minimal());
            assert!(p.avoids(&blocked));
        }
    }

    #[test]
    fn source_equals_dest() {
        let mesh = Mesh::square(3);
        let s = Coord::new(1, 1);
        assert!(minimal_path_exists(&mesh, s, s, |_| false));
        let p = minimal_path(&mesh, s, s, |_| false).unwrap();
        assert_eq!(p.hops(), 0);
    }

    #[test]
    fn axis_destination() {
        let mesh = Mesh::square(5);
        let s = Coord::new(0, 2);
        let d = Coord::new(4, 2);
        assert!(minimal_path_exists(&mesh, s, d, |_| false));
        // A single blocked node on the only row kills the path.
        assert!(!minimal_path_exists(&mesh, s, d, blocked_set(&[(2, 2)])));
    }
}
