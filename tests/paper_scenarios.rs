//! The paper's own worked examples, reproduced end to end.

use emr2d::core::conditions;
use emr2d::prelude::*;

/// Figure 1: the eight faults, their faulty block, and the MCC statuses
/// the paper reads off.
#[test]
fn figure_1_block_and_mcc() {
    let mesh = Mesh::square(10);
    let faults = FaultSet::from_coords(
        mesh,
        [
            (3, 3),
            (3, 4),
            (4, 4),
            (5, 4),
            (6, 4),
            (2, 5),
            (5, 5),
            (3, 6),
        ]
        .map(Coord::from),
    );
    let scenario = Scenario::build(faults);

    // "Eight faults … form a rectangle [2:6, 3:6]."
    let blocks = scenario.blocks();
    assert_eq!(blocks.rects(), [Rect::new(2, 6, 3, 6)]);
    let faulty = blocks.rects()[0]
        .iter()
        .filter(|&c| scenario.faults().is_faulty(c))
        .count();
    assert_eq!(faulty, 8);
    assert_eq!(blocks.disabled_count(), 20 - 8);

    // The MCC refinement frees some healthy nodes per routing type.
    let one = scenario.mcc(MccType::One);
    let two = scenario.mcc(MccType::Two);
    assert!(one.disabled_count() < blocks.disabled_count());
    assert!(two.disabled_count() < blocks.disabled_count());
    // Statuses quoted in §2 (see `emr-fault` for the (4,3) discussion).
    assert!(!one.is_blocked(Coord::new(2, 6)));
    assert!(two.is_blocked(Coord::new(2, 6)));
    assert!(one.is_blocked(Coord::new(4, 5)));
    assert!(two.is_blocked(Coord::new(4, 5)));
    assert!(one.is_blocked(Coord::new(2, 3)));
    assert!(!two.is_blocked(Coord::new(2, 3)));
}

/// Figure 2/3: from a safe source, minimal routes exist to every
/// destination the sufficient condition admits, and Wu's protocol realizes
/// them — including the critical region R6 where a greedy router would be
/// trapped.
#[test]
fn figure_3_critical_routing() {
    let mesh = Mesh::square(12);
    // One solid block in mid-mesh.
    let faults = FaultSet::from_coords(
        mesh,
        (4..=6)
            .flat_map(|x| (5..=7).map(move |y| Coord::new(x, y)))
            .collect::<Vec<_>>(),
    );
    let scenario = Scenario::build(faults);
    let view = scenario.view(Model::FaultBlock);
    let s = Coord::new(0, 0);

    for d in mesh.nodes() {
        if view.is_obstacle(d, s, d) || d == s {
            continue;
        }
        if conditions::safe_source(&view, s, d).is_none() {
            continue;
        }
        let path = emr2d::core::route::wu_route(&view, s, d)
            .unwrap_or_else(|e| panic!("ensured route to {d} failed: {e}"));
        assert!(path.is_minimal(), "non-minimal to {d}");
        assert!(path.avoids(|c| view.is_obstacle(c, s, d)));
    }

    // The specific critical cases: destinations in R4 and R6 of the block.
    for d in [Coord::new(5, 10), Coord::new(10, 6)] {
        assert!(
            conditions::safe_source(&view, s, d).is_some(),
            "{d} should be admitted"
        );
    }
}

/// §3's worked extension example (Figure 5 shape): an unsafe source whose
/// clear axis plus a safe axis node two-phase to the destination.
#[test]
fn figure_5_two_phase_routes() {
    let mesh = Mesh::square(16);
    // Block above the source's column, nothing on its row.
    let faults = FaultSet::from_coords(mesh, [Coord::new(2, 7), Coord::new(2, 8)]);
    let scenario = Scenario::build(faults);
    let view = scenario.view(Model::FaultBlock);
    let s = Coord::new(2, 2);
    let d = Coord::new(12, 12);

    assert!(conditions::safe_source(&view, s, d).is_none());
    let plan = conditions::ext2(&view, s, d, conditions::SegmentSize::Size(1))
        .expect("extension 2 applies");
    let path = emr2d::core::route::execute(&view, s, d, &plan).expect("routes");
    assert!(path.is_minimal());
    // The witness is on the source's row, east of it.
    match plan {
        emr2d::core::RoutePlan::ViaAxis(w) => {
            assert_eq!(w.y, s.y);
            assert!(w.x > s.x && w.x <= d.x);
        }
        other => panic!("expected an axis plan, got {other:?}"),
    }
}

/// Figure 4's covering sequences: Wang's condition flags exactly the
/// sealed configurations.
#[test]
fn figure_4_coverage() {
    use emr2d::fault::coverage;

    let s = Coord::new(0, 0);
    let d = Coord::new(8, 10);
    // A staircase of three blocks covering s and d on y (Figure 4(a)).
    let stairs = [
        Rect::new(-2, 3, 2, 3),
        Rect::new(2, 6, 5, 6),
        Rect::new(5, 9, 8, 9),
    ];
    assert!(coverage::covers_on_y(&stairs, s, d));
    assert!(!coverage::minimal_path_exists_by_coverage(&stairs, s, d));
    // Removing the middle step opens a corridor.
    let gapped = [stairs[0], stairs[2]];
    assert!(!coverage::covers_on_y(&gapped, s, d));
    assert!(coverage::minimal_path_exists_by_coverage(&gapped, s, d));
}
