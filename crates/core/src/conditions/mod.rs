//! The sufficient conditions for guaranteed minimal routing.
//!
//! Every function here answers, **at the source and from limited global
//! information only**, whether a minimal (or sub-minimal) route to the
//! destination is guaranteed — and returns a [`RoutePlan`] witnessing how
//! to realize it with Wu's protocol:
//!
//! * [`safe_source`] — the original sufficient safe condition
//!   (Definition 3 / Theorem 1): both axis sections clear,
//! * [`ext1()`] — Theorem 1a: the source or one of its neighbors is safe
//!   (preferred neighbor ⇒ minimal, spare neighbor ⇒ sub-minimal),
//! * [`ext2()`] — Theorem 1b: one axis section clear plus a safe node on
//!   that axis, with the paper's segment-sampling variations,
//! * [`ext3()`] — Theorem 1c: a safe-reachable pivot node inside the
//!   source–destination rectangle, with the paper's recursive pivot
//!   placement policies,
//! * [`strategy_with`] — §5's four combinations ([`StrategyKind`]), with
//!   [`strategy4`], the strongest, at the paper's default parameters.
//!
//! All conditions work in any quadrant (the paper normalizes to quadrant I;
//! we normalize with [`emr_mesh::Frame`]) and under both fault models via
//! [`crate::ModelView`].

mod ext1;
mod ext2;
mod ext3;
mod strategy;

pub use ext1::ext1;
pub use ext2::{ext2, ext2_with_policy, SegmentPolicy, SegmentSize};
pub use ext3::{ext3, select_pivots, PivotPolicy};
pub use strategy::{strategy4, strategy_with, StrategyKind, StrategyParams};

use serde::{Deserialize, Serialize};

use emr_mesh::Coord;

use crate::scenario::ModelView;

/// How an ensured route is realized (the witness a condition hands to the
/// router).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoutePlan {
    /// The source itself is safe: run Wu's protocol directly.
    Direct,
    /// Hop to this (safe) neighbor first, then run Wu's protocol
    /// (extension 1's two-phase route).
    ViaNeighbor(Coord),
    /// Travel the clear axis section to this node first, then run Wu's
    /// protocol (extension 2).
    ViaAxis(Coord),
    /// Route to this pivot with Wu's protocol, then from the pivot to the
    /// destination (extension 3).
    ViaPivot(Coord),
}

/// The strength of the guarantee a condition established.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Ensured {
    /// A minimal route (exactly `manhattan(s, d)` hops) is guaranteed.
    Minimal(RoutePlan),
    /// A sub-minimal route (minimal + 2 hops, one detour) is guaranteed.
    SubMinimal(RoutePlan),
}

impl Ensured {
    /// The witnessed plan.
    pub fn plan(&self) -> RoutePlan {
        match *self {
            Ensured::Minimal(p) | Ensured::SubMinimal(p) => p,
        }
    }

    /// Whether the guarantee is for a fully minimal route.
    pub fn is_minimal(&self) -> bool {
        matches!(self, Ensured::Minimal(_))
    }
}

/// The sufficient safe condition (Definition 3 / Theorem 1): the source is
/// *safe with respect to `d`* when the sections of its row and column
/// toward the destination are both clear past the destination's offsets
/// (`xd < E` and `yd < N` in the normalized frame). A safe source
/// guarantees a minimal path.
///
/// Returns `Some(RoutePlan::Direct)` when safe. Returns `None` when either
/// endpoint is inside an obstacle (the paper assumes both are outside).
///
/// # Examples
///
/// ```
/// use emr_core::{conditions, Model, Scenario};
/// use emr_fault::FaultSet;
/// use emr_mesh::{Coord, Mesh};
///
/// let mesh = Mesh::square(10);
/// let faults = FaultSet::from_coords(mesh, [Coord::new(6, 1)]);
/// let sc = Scenario::build(faults);
/// let view = sc.view(Model::FaultBlock);
/// let s = Coord::new(1, 1);
/// // The block sits on the source's row 5 hops east: destinations within
/// // 4 columns are safe, 5 or more are not.
/// assert!(conditions::safe_source(&view, s, Coord::new(5, 4)).is_some());
/// assert!(conditions::safe_source(&view, s, Coord::new(7, 4)).is_none());
/// ```
pub fn safe_source(view: &ModelView<'_>, s: Coord, d: Coord) -> Option<RoutePlan> {
    node_safe_for(view, s, d).then_some(RoutePlan::Direct)
}

/// Whether node `u` is safe with respect to destination `d` for a route
/// whose MCC type is determined by `(u, d)`; used by every condition.
/// `u` must be usable (not an obstacle) and `d` usable, else `false`.
/// Definition 3 reads only the row and column sections between `u` and
/// `d` (two range tests of the route's [`crate::SafetyMap`]).
pub(crate) fn node_safe_for(view: &ModelView<'_>, u: Coord, d: Coord) -> bool {
    view.endpoints_usable(u, d) && view.safety_for(u, d).clear_toward(u, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, Scenario};
    use emr_fault::FaultSet;
    use emr_mesh::Mesh;

    fn scenario(coords: &[(i32, i32)]) -> Scenario {
        let mesh = Mesh::square(12);
        Scenario::build(FaultSet::from_coords(
            mesh,
            coords.iter().map(|&c| Coord::from(c)),
        ))
    }

    #[test]
    fn clear_mesh_every_pair_is_safe() {
        let sc = scenario(&[]);
        let view = sc.view(Model::FaultBlock);
        for d in [Coord::new(11, 11), Coord::new(0, 11), Coord::new(11, 0)] {
            assert_eq!(
                safe_source(&view, Coord::new(5, 5), d),
                Some(RoutePlan::Direct)
            );
        }
    }

    #[test]
    fn definition_3_boundaries_are_strict() {
        // Block on the source's row at distance E = 4 and on its column at
        // distance N = 3.
        let sc = scenario(&[(5, 1), (1, 4)]);
        let view = sc.view(Model::FaultBlock);
        let s = Coord::new(1, 1);
        assert!(safe_source(&view, s, Coord::new(4, 3)).is_some());
        assert!(safe_source(&view, s, Coord::new(5, 3)).is_none()); // xd == E
        assert!(safe_source(&view, s, Coord::new(4, 4)).is_none()); // yd == N
    }

    #[test]
    fn obstacle_endpoints_are_never_safe() {
        let sc = scenario(&[(5, 5), (6, 6)]);
        let view = sc.view(Model::FaultBlock);
        // (5,6) is disabled; (0,0) is fine.
        assert!(safe_source(&view, Coord::new(5, 6), Coord::new(9, 9)).is_none());
        assert!(safe_source(&view, Coord::new(0, 0), Coord::new(5, 6)).is_none());
    }

    #[test]
    fn safety_is_quadrant_sensitive() {
        // A block east on the source's row blocks quadrant-I safety but
        // not quadrant-III safety.
        let sc = scenario(&[(8, 6)]);
        let view = sc.view(Model::FaultBlock);
        let s = Coord::new(6, 6);
        assert!(safe_source(&view, s, Coord::new(8, 8)).is_none()); // xd == E
        assert!(safe_source(&view, s, Coord::new(7, 8)).is_some());
        assert!(safe_source(&view, s, Coord::new(0, 0)).is_some());
    }

    #[test]
    fn mcc_model_is_at_least_as_permissive() {
        let sc = scenario(&[(4, 4), (5, 5), (4, 6), (8, 2)]);
        let fb = sc.view(Model::FaultBlock);
        let mc = sc.view(Model::Mcc);
        let mesh = sc.mesh();
        for s in mesh.nodes() {
            for d in [Coord::new(11, 11), Coord::new(0, 0)] {
                if fb.endpoints_usable(s, d) && safe_source(&fb, s, d).is_some() {
                    assert!(
                        safe_source(&mc, s, d).is_some(),
                        "FB safe but MCC unsafe at {s}->{d}"
                    );
                }
            }
        }
    }

    #[test]
    fn ensured_accessors() {
        let e = Ensured::Minimal(RoutePlan::Direct);
        assert!(e.is_minimal());
        assert_eq!(e.plan(), RoutePlan::Direct);
        let s = Ensured::SubMinimal(RoutePlan::ViaNeighbor(Coord::ORIGIN));
        assert!(!s.is_minimal());
    }
}
