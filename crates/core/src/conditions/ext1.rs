//! Extension 1 (Theorem 1a): neighbor safety and sub-minimal routing.

use emr_mesh::{Coord, Direction, Frame};

use crate::conditions::{node_safe_for, safe_source, Ensured, RoutePlan};
use crate::scenario::ModelView;

/// Extension 1 (Theorem 1a).
///
/// Minimal routing is ensured when the source is safe or one of its
/// *preferred* neighbors is safe with respect to the destination; failing
/// that, **sub-minimal** routing (minimal + 2 hops) is ensured when one of
/// the *spare* neighbors is safe. The route is two-phase: one hop to the
/// chosen neighbor, then Wu's protocol from there.
///
/// Only needs constant extra information per node (the four neighbors'
/// safety levels).
///
/// # Examples
///
/// ```
/// use emr_core::{conditions, Ensured, Model, Scenario};
/// use emr_fault::FaultSet;
/// use emr_mesh::{Coord, Mesh};
///
/// // A block directly on the source's row and another on its column makes
/// // the source unsafe, but its northern neighbor can be safe.
/// let mesh = Mesh::square(12);
/// let faults = FaultSet::from_coords(mesh, [Coord::new(4, 2), Coord::new(2, 5)]);
/// let sc = Scenario::build(faults);
/// let view = sc.view(Model::FaultBlock);
/// let s = Coord::new(2, 2);
/// let d = Coord::new(8, 4);
/// assert!(conditions::safe_source(&view, s, d).is_none());
/// let ensured = conditions::ext1(&view, s, d).expect("neighbor rescue");
/// assert!(ensured.is_minimal());
/// ```
pub fn ext1(view: &ModelView<'_>, s: Coord, d: Coord) -> Option<Ensured> {
    if !view.endpoints_usable(s, d) {
        return None;
    }
    if safe_source(view, s, d).is_some() {
        return Some(Ensured::Minimal(RoutePlan::Direct));
    }
    let mesh = view.mesh();
    let frame = Frame::normalizing(s, d);
    let rel_d = frame.to_rel(d);

    // Preferred neighbors: one hop toward the destination in each
    // dimension that still has distance to cover.
    let mut preferred = Vec::new();
    if rel_d.x >= 1 {
        preferred.push(frame.dir_to_abs(Direction::East));
    }
    if rel_d.y >= 1 {
        preferred.push(frame.dir_to_abs(Direction::North));
    }
    for dir in preferred.iter().copied() {
        let w = s.step(dir);
        if mesh.contains(w) && node_safe_for(view, w, d) {
            return Some(Ensured::Minimal(RoutePlan::ViaNeighbor(w)));
        }
    }

    // Spare neighbors: the other directions; reaching them costs one hop
    // away from the destination, hence the +2 on the route length.
    for dir in Direction::ALL {
        if preferred.contains(&dir) {
            continue;
        }
        let w = s.step(dir);
        if mesh.contains(w) && node_safe_for(view, w, d) {
            return Some(Ensured::SubMinimal(RoutePlan::ViaNeighbor(w)));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, Scenario};
    use emr_fault::FaultSet;
    use emr_mesh::Mesh;

    fn view_of(coords: &[(i32, i32)]) -> Scenario {
        let mesh = Mesh::square(12);
        Scenario::build(FaultSet::from_coords(
            mesh,
            coords.iter().map(|&c| Coord::from(c)),
        ))
    }

    #[test]
    fn safe_source_short_circuits() {
        let sc = view_of(&[]);
        let view = sc.view(Model::FaultBlock);
        assert_eq!(
            ext1(&view, Coord::new(2, 2), Coord::new(9, 9)),
            Some(Ensured::Minimal(RoutePlan::Direct))
        );
    }

    #[test]
    fn preferred_neighbor_rescues_minimality() {
        // Block at (4,2) on the source's row: s=(2,2) has E=2 so d=(8,4)
        // fails Definition 3. The north neighbor (2,3) has a clear row, and
        // its column toward N is clear as well: minimal via neighbor.
        let sc = view_of(&[(4, 2)]);
        let view = sc.view(Model::FaultBlock);
        let s = Coord::new(2, 2);
        let d = Coord::new(8, 4);
        assert!(safe_source(&view, s, d).is_none());
        let got = ext1(&view, s, d).unwrap();
        assert_eq!(
            got,
            Ensured::Minimal(RoutePlan::ViaNeighbor(Coord::new(2, 3)))
        );
    }

    #[test]
    fn spare_neighbor_gives_sub_minimal() {
        // The diagonal faults merge into the block [5:6, 3:4], which sits
        // on the source's row, on the east preferred neighbor's row, and on
        // the north preferred neighbor's row — but the south spare
        // neighbor's row and column are clear.
        let sc = view_of(&[(5, 3), (6, 4)]);
        let view = sc.view(Model::FaultBlock);
        let s = Coord::new(3, 3);
        let d = Coord::new(9, 6);
        assert!(safe_source(&view, s, d).is_none());
        let got = ext1(&view, s, d);
        assert_eq!(
            got,
            Some(Ensured::SubMinimal(RoutePlan::ViaNeighbor(Coord::new(
                3, 2
            ))))
        );
    }

    #[test]
    fn no_neighbor_helps() {
        // Surround the source's vicinity so nothing is safe: a wall east
        // and north at every row/column the neighbors live on.
        let sc = view_of(&[
            (4, 4),
            (4, 5),
            (4, 6),
            (4, 3),
            (2, 8),
            (1, 8),
            (3, 8),
            (0, 8),
        ]);
        let view = sc.view(Model::FaultBlock);
        let s = Coord::new(2, 5);
        let d = Coord::new(9, 9);
        assert_eq!(ext1(&view, s, d), None);
    }

    #[test]
    fn blocked_endpoints_yield_none() {
        let sc = view_of(&[(5, 5)]);
        let view = sc.view(Model::FaultBlock);
        assert_eq!(ext1(&view, Coord::new(5, 5), Coord::new(9, 9)), None);
        assert_eq!(ext1(&view, Coord::new(0, 0), Coord::new(5, 5)), None);
    }

    #[test]
    fn axis_destination_uses_single_preferred() {
        // Destination due east: only the east neighbor is preferred; the
        // north/south/west neighbors are spares.
        let sc = view_of(&[(5, 3)]);
        let view = sc.view(Model::FaultBlock);
        let s = Coord::new(2, 3);
        let d = Coord::new(8, 3); // E = 3, xd = 6 → unsafe
        assert!(safe_source(&view, s, d).is_none());
        let got = ext1(&view, s, d).unwrap();
        match got {
            Ensured::SubMinimal(RoutePlan::ViaNeighbor(w)) => {
                assert!(w == Coord::new(2, 4) || w == Coord::new(2, 2), "got {w}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn works_in_quadrant_three() {
        let sc = view_of(&[(6, 8)]);
        let view = sc.view(Model::FaultBlock);
        // Routing SW: block at (6,8) is on the source's column (8,8)->?
        let s = Coord::new(8, 8);
        let d = Coord::new(1, 1);
        // W distance from (8,8) to block (6,8): 2, so xd=7 fails; the south
        // neighbor (8,7) has a clear row and column: minimal via neighbor.
        assert!(safe_source(&view, s, d).is_none());
        let got = ext1(&view, s, d).unwrap();
        assert_eq!(
            got,
            Ensured::Minimal(RoutePlan::ViaNeighbor(Coord::new(8, 7)))
        );
    }
}
