//! Cross-crate integration: the full pipeline from fault injection through
//! distributed information distribution to guaranteed minimal routing.

use emr2d::core::conditions::{self, SegmentSize};
use emr2d::distsim::protocols::{boundary, esl};
use emr2d::distsim::Engine;
use emr2d::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The distributed safety-level formation protocol delivers exactly the
/// levels `SafetyMap` computes globally — on block and MCC obstacle maps.
#[test]
fn distributed_safety_levels_match_safety_map() {
    let mesh = Mesh::square(24);
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let faults = inject::uniform(mesh, 18, &[], &mut rng);
        let scenario = Scenario::build(faults.clone());
        for model in [Model::FaultBlock, Model::Mcc] {
            let map = match model {
                Model::FaultBlock => scenario.block_safety_map(),
                Model::Mcc => scenario.mcc_safety_map(MccType::One),
            };
            let blocked = emr2d::mesh::Grid::from_fn(mesh, |c| match model {
                Model::FaultBlock => scenario.blocks().is_blocked(c),
                Model::Mcc => scenario.mcc(MccType::One).is_blocked(c),
            });
            let (dist, stats) = Engine::new(mesh).run(&esl::EslFormation::new(blocked.clone()));
            for c in mesh.nodes() {
                if blocked[c] {
                    continue;
                }
                assert_eq!(
                    SafetyLevel::from_tuple(dist[c]),
                    map.level(c),
                    "seed {seed} {model:?} node {c}"
                );
            }
            // Convergence is bounded by the mesh diameter.
            assert!(stats.rounds <= (mesh.width() + mesh.height()) as u32);
        }
    }
}

/// The distributed boundary propagation delivers exactly the marks the
/// global ray walk (`boundary::compute_global`) computes, and the
/// `BoundaryMap` lane runs carry exactly their straight steps.
#[test]
fn distributed_boundary_matches_boundary_map() {
    let mesh = Mesh::square(24);
    let key = |m: &boundary::BoundaryMark| {
        (
            m.block.x_min(),
            m.block.y_min(),
            m.line as u8,
            m.toward_block,
        )
    };
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let faults = inject::uniform(mesh, 20, &[], &mut rng);
        let scenario = Scenario::build(faults);
        let blocked = emr2d::mesh::Grid::from_fn(mesh, |c| scenario.blocks().is_blocked(c));
        let global = boundary::compute_global(&mesh, scenario.blocks().rects(), &blocked);
        let runs = scenario.block_boundary_map();
        let proto = boundary::BoundaryPropagation::new(scenario.blocks().rects().to_vec(), blocked);
        let (dist, _) = Engine::new(mesh).run(&proto);
        for c in mesh.nodes() {
            let mut a = dist[c].clone();
            let mut b = global[c].clone();
            a.sort_by_key(key);
            b.sort_by_key(key);
            assert_eq!(a, b, "seed {seed} node {c}");
            // A straight step travels along its own line: vertically on
            // L3/L4, horizontally on L1/L2.
            b.retain(|m| {
                let column_line = matches!(
                    m.line,
                    boundary::BoundaryLine::L3 | boundary::BoundaryLine::L4
                );
                m.toward_block.is_vertical() == column_line
            });
            let mut r: Vec<_> = runs.marks_at(c).collect();
            r.sort_by_key(key);
            assert_eq!(r, b, "seed {seed} node {c}: lane runs vs straight steps");
        }
    }
}

/// Whatever any condition ensures, executing the plan really delivers a
/// packet on a shortest path, end to end.
#[test]
fn ensured_decisions_route_minimally() {
    let mesh = Mesh::square(40);
    let s = mesh.center();
    let mut routed = 0u32;
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(7_000 + seed);
        let faults = inject::uniform(mesh, 30, &[s], &mut rng);
        let scenario = Scenario::build(faults);
        let view = scenario.view(Model::FaultBlock);
        if view.is_obstacle(s, s, s) {
            continue;
        }
        for d in [
            Coord::new(37, 35),
            Coord::new(5, 36),
            Coord::new(3, 3),
            Coord::new(38, 2),
            Coord::new(22, 39),
        ] {
            if view.is_obstacle(d, s, d) {
                continue;
            }
            let candidates = [
                conditions::safe_source(&view, s, d),
                conditions::ext2(&view, s, d, SegmentSize::Size(5)),
            ];
            for plan in candidates.into_iter().flatten() {
                let path =
                    emr2d::core::route::execute(&view, s, d, &plan).expect("ensured plans route");
                assert!(path.is_minimal());
                assert!(path.avoids(|c| view.is_obstacle(c, s, d)));
                routed += 1;
            }
        }
    }
    assert!(routed > 20, "only {routed} ensured routes exercised");
}

/// The strategies' guarantee frequencies line up in the paper's order on a
/// realistic density sweep (statistical smoke test of the whole stack).
#[test]
fn guarantee_hierarchy_statistics() {
    let mesh = Mesh::square(48);
    let s = mesh.center();
    let mut counts = [0u32; 4]; // safe, ext1-min, strategy4, optimal
    let mut trials = 0u32;
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(31_000 + seed);
        let faults = inject::uniform(mesh, 40, &[s], &mut rng);
        let scenario = Scenario::build(faults);
        let view = scenario.view(Model::FaultBlock);
        if scenario.blocks().is_blocked(s) {
            continue;
        }
        let d = Coord::new(
            s.x + 1 + (seed as i32 % (mesh.width() - s.x - 2)),
            s.y + 1 + ((seed / 7) as i32 % (mesh.height() - s.y - 2)),
        );
        if view.is_obstacle(d, s, d) {
            continue;
        }
        trials += 1;
        counts[0] += u32::from(conditions::safe_source(&view, s, d).is_some());
        counts[1] += u32::from(matches!(conditions::ext1(&view, s, d), Some(e) if e.is_minimal()));
        counts[2] +=
            u32::from(matches!(conditions::strategy4(&view, s, d), Some(e) if e.is_minimal()));
        counts[3] += u32::from(emr2d::fault::reach::minimal_path_exists(&mesh, s, d, |c| {
            scenario.faults().is_faulty(c)
        }));
    }
    assert!(trials >= 40, "too few usable trials");
    let [safe, ext1, strat4, optimal] = counts;
    assert!(safe <= ext1, "{counts:?}");
    assert!(ext1 <= strat4, "{counts:?}");
    assert!(strat4 <= optimal, "{counts:?}");
    // And the optimum is high at this density, as in the paper.
    assert!(optimal as f64 / trials as f64 > 0.9, "{counts:?}");
}
