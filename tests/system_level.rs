//! System-level integration: the decision layer (conditions), the routing
//! layer (Wu's protocol), and the network layer (packet simulator) agree
//! end to end; the 3-D extension composes with the 2-D machinery.

use emr2d::core::conditions;
use emr2d::netsim::{NetSim, Workload, WuRouter, XyRouter};
use emr2d::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy-4 admission control means zero packet failures and pure
/// shortest-path delivery at the network level, across fault densities.
#[test]
fn admission_controlled_traffic_never_fails() {
    let mesh = Mesh::square(32);
    for (seed, k) in [(1u64, 0usize), (2, 15), (3, 30), (4, 45)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let scenario = Scenario::build(inject::uniform(mesh, k, &[], &mut rng));
        let view = scenario.view(Model::FaultBlock);
        let boundary = scenario.boundary_map(Model::FaultBlock);
        let load = Workload::uniform_ensured(&scenario, Model::FaultBlock, 80, 4, &mut rng);
        let mut sim = NetSim::new(mesh, WuRouter::new(&view, &boundary));
        load.inject_into(&mut sim);
        let report = sim.run_to_completion(100_000).expect("bounded");
        assert_eq!(report.delivered, 80, "k={k}: {} failed", report.failed);
        assert!((report.hop_stretch() - 1.0).abs() < 1e-12, "k={k}");
        assert!(report.total_latency >= report.total_hops);
    }
}

/// Wu's protocol dominates the fault-oblivious baseline on identical raw
/// traffic, and never delivers a non-minimal path.
#[test]
fn wu_dominates_xy_on_shared_traffic() {
    let mesh = Mesh::square(32);
    let mut rng = StdRng::seed_from_u64(11);
    let scenario = Scenario::build(inject::uniform(mesh, 30, &[], &mut rng));
    let view = scenario.view(Model::FaultBlock);
    let boundary = scenario.boundary_map(Model::FaultBlock);
    let load = Workload::uniform_raw(&scenario, 120, 4, &mut rng);

    let mut xy = NetSim::new(mesh, XyRouter::new(mesh, scenario.blocks()));
    load.inject_into(&mut xy);
    let xy_report = xy.run_to_completion(100_000).expect("bounded");

    let mut wu = NetSim::new(mesh, WuRouter::new(&view, &boundary));
    load.inject_into(&mut wu);
    let wu_report = wu.run_to_completion(100_000).expect("bounded");

    assert!(wu_report.delivered >= xy_report.delivered);
    assert!((wu_report.hop_stretch() - 1.0).abs() < 1e-12);
}

/// The 3-D extension's layered condition decides with the same
/// witness-then-route discipline as the 2-D conditions, and its phase-2
/// reuses 2-D routing verbatim: cross-check a layer's 2-D answer against
/// the 3-D decision.
#[test]
fn mesh3_layer_agrees_with_2d_machinery() {
    use emr2d::mesh3::{conditions as c3, route as r3, Coord3, FaultSet3, Mesh3, Scenario3};

    let mesh3 = Mesh3::cube(14);
    // A plate of faults at z = 9 (the destination layer).
    let plate: Vec<Coord3> = (4..=8)
        .flat_map(|x| (4..=8).map(move |y| Coord3::new(x, y, 9)))
        .collect();
    let sc3 = Scenario3::build(FaultSet3::from_coords(mesh3, plate));
    let s3 = Coord3::new(1, 1, 1);
    let d3 = Coord3::new(12, 12, 9);
    let plan = c3::layered_safe(&sc3, s3, d3).expect("z axis is clear");
    let path = r3::layered_route(&sc3, s3, d3).expect("routes");
    assert_eq!(path.len() as u32, s3.manhattan(d3) + 1);

    // The same layer as a 2-D problem: identical rectangle, identical
    // safe-condition answer at the waypoint.
    let mesh2 = Mesh::square(14);
    let faults2 = FaultSet::from_coords(
        mesh2,
        (4..=8).flat_map(|x| (4..=8).map(move |y| Coord::new(x, y))),
    );
    let sc2 = Scenario::build(faults2);
    let view2 = sc2.view(Model::FaultBlock);
    let w2 = Coord::new(plan.waypoint.x, plan.waypoint.y);
    let d2 = Coord::new(d3.x, d3.y);
    assert!(conditions::safe_source(&view2, w2, d2).is_some());
}

/// Distributed labeling, safety formation and the centralized scenario
/// agree on one fault configuration, end to end.
#[test]
fn distributed_stack_matches_centralized_scenario() {
    use emr2d::distsim::protocols::{esl, labeling};
    use emr2d::distsim::Engine;
    use emr2d::mesh::Grid;

    let mesh = Mesh::square(20);
    let mut rng = StdRng::seed_from_u64(21);
    let faults = inject::uniform(mesh, 24, &[], &mut rng);
    let scenario = Scenario::build(faults.clone());
    let engine = Engine::new(mesh);

    // 1. Distributed Definition 1 reproduces the scenario's block states.
    let fault_grid = Grid::from_fn(mesh, |c| faults.is_faulty(c));
    let (labels, _) = engine.run(&labeling::BlockLabeling::new(fault_grid));
    for c in mesh.nodes() {
        assert_eq!(
            labels[c].status != labeling::BlockStatus::Enabled,
            scenario.blocks().is_blocked(c),
            "label mismatch at {c}"
        );
    }

    // 2. Distributed safety formation over those blocks reproduces the
    //    scenario's safety map.
    let blocked = Grid::from_fn(mesh, |c| scenario.blocks().is_blocked(c));
    let (levels, _) = engine.run(&esl::EslFormation::new(blocked.clone()));
    for c in mesh.nodes() {
        if blocked[c] {
            continue;
        }
        let distributed = SafetyLevel::from_tuple(levels[c]);
        let centralized = scenario
            .view(Model::FaultBlock)
            .level_for(c, c, mesh.center());
        assert_eq!(distributed, centralized, "safety mismatch at {c}");
    }
}
