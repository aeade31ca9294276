//! The distributed information model in action: run the paper's §4
//! protocols on the message-passing simulator and report their costs —
//! messages, rounds, and which fraction of the mesh had to participate
//! (Theorem 2's affected rows/columns).
//!
//! Run with `cargo run --release --example distributed_info`.

use emr2d::distsim::protocols::{boundary, broadcast, esl, exchange};
use emr2d::distsim::Engine;
use emr2d::prelude::*;
use emr_analysis::affected;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mesh = Mesh::square(64);
    let mut rng = StdRng::seed_from_u64(2002);
    let faults = inject::uniform(mesh, 40, &[mesh.center()], &mut rng);
    let scenario = Scenario::build(faults);
    let blocks = scenario.blocks();
    let blocked = emr2d::mesh::Grid::from_fn(mesh, |c| blocks.is_blocked(c));

    println!(
        "mesh {}x{}, {} faults -> {} faulty blocks ({} healthy nodes disabled)",
        mesh.width(),
        mesh.height(),
        scenario.faults().len(),
        blocks.rects().len(),
        blocks.disabled_count(),
    );
    let rows = affected::affected_rows(blocks);
    let cols = affected::affected_columns(blocks);
    println!(
        "affected rows: {rows}/{} ({:.1}% — Theorem 2 predicts {:.1}%), affected columns: {cols}",
        mesh.height(),
        100.0 * rows as f64 / mesh.height() as f64,
        100.0
            * affected::expected_affected_rows(
                mesh.height() as u32,
                scenario.faults().len() as u32
            )
            / mesh.height() as f64,
    );

    let engine = Engine::new(mesh);

    // 1. Safety-level formation (FORMATION-EXTENDED-SAFETY-LEVEL-INFO).
    let (esl_grid, stats) = engine.run(&esl::EslFormation::new(blocked.clone()));
    println!(
        "\nsafety-level formation:   {:>7} messages, {:>3} rounds",
        stats.messages, stats.rounds
    );
    // Spot-check against the global sweep computation.
    let reference = esl::compute_global(&blocked);
    let agree = mesh
        .nodes()
        .filter(|&c| !blocked[c])
        .all(|c| esl_grid[c] == reference[c]);
    println!("  distributed == global: {agree}");

    // 2. Boundary-line propagation (the L1..L4 rays with joining).
    let rects = blocks.rects();
    let (marks, stats) = engine.run(&boundary::BoundaryPropagation::new(
        rects.to_vec(),
        blocked.clone(),
    ));
    let marked_nodes = mesh.nodes().filter(|&c| !marks[c].is_empty()).count();
    println!(
        "boundary propagation:     {:>7} messages, {:>3} rounds, {marked_nodes} nodes on lines",
        stats.messages, stats.rounds
    );

    // 3. Extension 2's region exchange along affected rows/columns.
    let (_, stats) = engine.run(&exchange::RegionExchange::new(
        blocked.clone(),
        esl::compute_global(&blocked),
    ));
    println!(
        "region exchange (ext 2):  {:>7} messages, {:>3} rounds",
        stats.messages, stats.rounds
    );

    // 4. Extension 3's pivot broadcast (level 2 = 5 pivots).
    let region = mesh.bounds();
    let pivots = emr2d::core::conditions::select_pivots(
        region,
        2,
        emr2d::core::conditions::PivotPolicy::Center,
        &mut rng,
    );
    let (knowledge, stats) = engine.run(&broadcast::PivotBroadcast::new(
        blocked.clone(),
        esl::compute_global(&blocked),
        pivots.clone(),
    ));
    let avg_known: f64 = mesh
        .nodes()
        .filter(|&c| !blocked[c])
        .map(|c| knowledge[c].len() as f64)
        .sum::<f64>()
        / (mesh.node_count() - blocks.rects().iter().map(Rect::node_count).sum::<usize>()) as f64;
    println!(
        "pivot broadcast (ext 3):  {:>7} messages, {:>3} rounds, {} pivots, avg {:.2} known/node",
        stats.messages,
        stats.rounds,
        pivots.len(),
        avg_known
    );

    println!(
        "\nreading: information distribution is directional and local — it\n\
         converges in O(mesh diameter) rounds and only affected rows/columns\n\
         participate, which is what makes the model scale."
    );
}
