//! The combined routing strategies of §5.

use emr_mesh::{Coord, Quadrant, Rect};

use crate::conditions::{ext1, ext2, ext3, select_pivots, Ensured, PivotPolicy, SegmentSize};
use crate::scenario::ModelView;

/// Which extensions a strategy combines (paper §5, Figure 12):
/// strategy 1 = extensions 1+2, 2 = 1+3, 3 = 2+3, 4 = 1+2+3.
/// Under the MCC model the same strategies are labeled 1a–4a.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Extension 1, then extension 2.
    S1,
    /// Extension 1, then extension 3.
    S2,
    /// Extension 2, then extension 3.
    S3,
    /// Extensions 1, 2 and 3 in order.
    S4,
}

impl StrategyKind {
    /// All four strategies.
    pub const ALL: [StrategyKind; 4] = [
        StrategyKind::S1,
        StrategyKind::S2,
        StrategyKind::S3,
        StrategyKind::S4,
    ];

    fn uses_ext1(self) -> bool {
        !matches!(self, StrategyKind::S3)
    }

    fn uses_ext2(self) -> bool {
        !matches!(self, StrategyKind::S2)
    }

    fn uses_ext3(self) -> bool {
        !matches!(self, StrategyKind::S1)
    }
}

/// Tunable parameters shared by the strategies: the paper's evaluation
/// uses segment size 5 and partition level 3 (21 pivots).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrategyParams {
    /// Extension 2's segment size.
    pub segment: SegmentSize,
    /// Extension 3's pivot nodes (pre-selected; see [`select_pivots`]).
    pub pivots: Vec<Coord>,
}

impl StrategyParams {
    /// The paper's defaults with deterministic center-placed pivots inside
    /// the destination's quadrant of the source: segment size 5, partition
    /// level 3.
    pub fn defaults_for(view: &ModelView<'_>, s: Coord, d: Coord) -> StrategyParams {
        let pivots = select_pivots(
            quadrant_region(view, s, d),
            3,
            PivotPolicy::Center,
            &mut rand::rngs::mock::StepRng::new(0, 1),
        );
        StrategyParams {
            segment: SegmentSize::Size(5),
            pivots,
        }
    }
}

/// The quadrant submesh on the destination's side of the source — the
/// region the paper selects pivots from (the source splits the mesh into
/// four quadrants and the destination picks one).
pub(crate) fn quadrant_region(view: &ModelView<'_>, s: Coord, d: Coord) -> Rect {
    let bounds = view.mesh().bounds();
    let q = Quadrant::of(s, d);
    let (x0, x1) = if q.x_positive() {
        (s.x, bounds.x_max())
    } else {
        (bounds.x_min(), s.x)
    };
    let (y0, y1) = if q.y_positive() {
        (s.y, bounds.y_max())
    } else {
        (bounds.y_min(), s.y)
    };
    Rect::new(x0, x1, y0, y1)
}

/// Runs one strategy with explicit parameters. Minimal guarantees from any
/// component win; extension 1's sub-minimal rescue is reported only when
/// no component ensures a minimal route.
pub fn strategy_with(
    view: &ModelView<'_>,
    s: Coord,
    d: Coord,
    kind: StrategyKind,
    params: &StrategyParams,
) -> Option<Ensured> {
    let mut sub_minimal = None;
    if kind.uses_ext1() {
        match ext1(view, s, d) {
            Some(e @ Ensured::Minimal(_)) => return Some(e),
            Some(e @ Ensured::SubMinimal(_)) => sub_minimal = Some(e),
            None => {}
        }
    }
    if kind.uses_ext2() {
        if let Some(plan) = ext2(view, s, d, params.segment) {
            return Some(Ensured::Minimal(plan));
        }
    }
    if kind.uses_ext3() {
        if let Some(plan) = ext3(view, s, d, &params.pivots) {
            return Some(Ensured::Minimal(plan));
        }
    }
    sub_minimal
}

/// Strategy 4: extensions 1, 2 and 3 in order, with
/// [`StrategyParams::defaults_for`] (segment size 5, level-3 center
/// pivots); use [`strategy_with`] to pick another strategy or control the
/// parameters.
pub fn strategy4(view: &ModelView<'_>, s: Coord, d: Coord) -> Option<Ensured> {
    let params = StrategyParams::defaults_for(view, s, d);
    strategy_with(view, s, d, StrategyKind::S4, &params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions::RoutePlan;
    use crate::{Model, Scenario};
    use emr_fault::FaultSet;
    use emr_mesh::Mesh;

    fn scenario(coords: &[(i32, i32)]) -> Scenario {
        let mesh = Mesh::square(16);
        Scenario::build(FaultSet::from_coords(
            mesh,
            coords.iter().map(|&c| Coord::from(c)),
        ))
    }

    #[test]
    fn quadrant_region_matches_destination_side() {
        let sc = scenario(&[]);
        let view = sc.view(Model::FaultBlock);
        let s = Coord::new(8, 8);
        assert_eq!(
            quadrant_region(&view, s, Coord::new(12, 12)),
            Rect::new(8, 15, 8, 15)
        );
        assert_eq!(
            quadrant_region(&view, s, Coord::new(2, 12)),
            Rect::new(0, 8, 8, 15)
        );
        assert_eq!(
            quadrant_region(&view, s, Coord::new(2, 2)),
            Rect::new(0, 8, 0, 8)
        );
        assert_eq!(
            quadrant_region(&view, s, Coord::new(12, 2)),
            Rect::new(8, 15, 0, 8)
        );
    }

    #[test]
    fn strategy4_subsumes_all_others() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mesh = Mesh::square(16);
        let s = mesh.center();
        for seed in 0..25u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let faults = emr_fault::inject::uniform(mesh, 16, &[s], &mut rng);
            let sc = Scenario::build(faults);
            for model in Model::ALL {
                let view = sc.view(model);
                for d in [Coord::new(15, 15), Coord::new(11, 13), Coord::new(14, 9)] {
                    if !view.endpoints_usable(s, d) {
                        continue;
                    }
                    let params = StrategyParams::defaults_for(&view, s, d);
                    let s4 = strategy_with(&view, s, d, StrategyKind::S4, &params);
                    for kind in [StrategyKind::S1, StrategyKind::S2, StrategyKind::S3] {
                        if let Some(e) = strategy_with(&view, s, d, kind, &params) {
                            let s4 = s4.as_ref().expect("S4 missed a rescue");
                            if e.is_minimal() {
                                assert!(s4.is_minimal(), "seed {seed} {kind:?}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn strategies_fall_back_to_sub_minimal() {
        // Configuration where only a spare neighbor is safe: strategy 2
        // (with no useful pivots) reports extension 1's sub-minimal rescue
        // rather than nothing.
        let sc = scenario(&[(5, 3), (6, 4)]);
        let view = sc.view(Model::FaultBlock);
        let s = Coord::new(3, 3);
        let d = Coord::new(9, 6);
        let params = StrategyParams {
            segment: SegmentSize::Size(5),
            pivots: vec![],
        };
        assert_eq!(
            strategy_with(&view, s, d, StrategyKind::S2, &params),
            Some(Ensured::SubMinimal(RoutePlan::ViaNeighbor(Coord::new(
                3, 2
            ))))
        );
        // Strategy 1's extension 2 finds a minimal route on the clear
        // column instead.
        match strategy_with(&view, s, d, StrategyKind::S1, &params) {
            Some(Ensured::Minimal(RoutePlan::ViaAxis(_))) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn strategy4_uses_the_default_params() {
        let sc = scenario(&[(6, 2), (2, 6)]);
        let view = sc.view(Model::FaultBlock);
        let (s, d) = (Coord::new(2, 2), Coord::new(12, 12));
        let params = StrategyParams::defaults_for(&view, s, d);
        assert_eq!(
            strategy4(&view, s, d),
            strategy_with(&view, s, d, StrategyKind::S4, &params)
        );
    }

    #[test]
    fn strategy_kinds_use_declared_extensions() {
        assert!(StrategyKind::S1.uses_ext1() && StrategyKind::S1.uses_ext2());
        assert!(!StrategyKind::S1.uses_ext3());
        assert!(StrategyKind::S2.uses_ext1() && StrategyKind::S2.uses_ext3());
        assert!(!StrategyKind::S2.uses_ext2());
        assert!(!StrategyKind::S3.uses_ext1());
        assert!(StrategyKind::S3.uses_ext2() && StrategyKind::S3.uses_ext3());
        assert!(
            StrategyKind::S4.uses_ext1()
                && StrategyKind::S4.uses_ext2()
                && StrategyKind::S4.uses_ext3()
        );
    }
}
