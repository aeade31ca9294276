//! Quickstart: decide at the source that a minimal route is guaranteed,
//! then route the packet with Wu's protocol.
//!
//! Run with `cargo run --example quickstart`.

use emr2d::core::conditions;
use emr2d::prelude::*;

fn main() {
    // A 32×32 mesh with a cluster of faults between source and
    // destination.
    let mesh = Mesh::square(32);
    let faults = FaultSet::from_coords(
        mesh,
        [
            Coord::new(14, 13),
            Coord::new(15, 14),
            Coord::new(14, 15),
            Coord::new(16, 14),
            Coord::new(25, 4),
            Coord::new(6, 22),
        ],
    );

    // Decompose under the faulty-block model: Definition 1's labeling
    // closes the cluster into rectangles.
    let scenario = Scenario::build(faults);
    println!("faulty blocks:");
    for &rect in scenario.blocks().rects() {
        // A block fills its rectangle: its faults plus disabled nodes.
        let faulty = rect
            .iter()
            .filter(|&c| scenario.faults().is_faulty(c))
            .count();
        println!(
            "  {rect} ({faulty} faulty, {} disabled)",
            rect.node_count() - faulty
        );
    }

    let view = scenario.view(Model::FaultBlock);
    let (s, d) = (Coord::new(4, 4), Coord::new(27, 27));

    // The source consults only its own extended safety level plus its
    // neighbors' / axis / pivot information — no global fault map.
    let esl = view.level_for(s, s, d);
    println!("\nsource {s} extended safety level: {esl}");

    let ensured = conditions::strategy4(&view, s, d).expect("a minimal route is ensured");
    println!("strategy 4 ensures: {ensured:?}");

    // Execute the witnessed plan with Wu's protocol.
    let boundary = scenario.boundary_map(Model::FaultBlock);
    let path =
        emr2d::core::route::execute(&view, &boundary, s, d, &ensured.plan()).expect("routes");
    assert!(path.is_minimal());
    println!(
        "\nrouted {s} -> {d} in {} hops (minimal = {}):\n{path}",
        path.hops(),
        s.manhattan(d)
    );
}
