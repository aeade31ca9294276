//! Packet-level traffic under faults: inject hundreds of packets and
//! compare Wu's protocol against dimension-order (XY) routing and the
//! global-information oracle on delivery rate, latency and stretch.
//!
//! Run with `cargo run --release --example traffic_storm [faults] [packets]`.

use emr2d::core::ScenarioState;
use emr2d::netsim::{
    DynamicRouter, EpochedWuRouter, NetSim, OracleRouter, Packet, TrafficPattern, Workload,
    XyRouter,
};
use emr2d::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut args = std::env::args().skip(1);
    let faults: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(40);
    let packets: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(400);

    let mesh = Mesh::square(48);
    let mut rng = StdRng::seed_from_u64(2002);
    let state = ScenarioState::new(inject::uniform(mesh, faults, &[], &mut rng));
    let scenario = state.scenario();
    let view = scenario.view(Model::FaultBlock);
    let wu = || EpochedWuRouter::new(state.clone(), Model::FaultBlock);

    println!(
        "{0}x{0} mesh, {1} faults ({2} blocks), {packets} packets @ 4/cycle\n",
        mesh.width(),
        faults,
        scenario.blocks().rects().len()
    );
    println!(
        "{:<22} {:>10} {:>8} {:>12} {:>9} {:>10}",
        "router", "delivered", "failed", "mean latency", "stretch", "peak queue"
    );

    // Raw uniform traffic (no plan filtering): shows failure behavior.
    let offered = 4.0 / mesh.node_count() as f64;
    let load = Workload::offered_load(
        scenario,
        TrafficPattern::Uniform,
        packets,
        offered,
        &mut rng,
    );
    let raw = load.packets();
    run(
        "XY (fault-oblivious)",
        raw,
        &mesh,
        XyRouter::new(mesh, scenario.blocks()),
    );
    run("Wu protocol", raw, &mesh, wu());
    run(
        "oracle (global info)",
        raw,
        &mesh,
        OracleRouter::new(state.clone(), Model::FaultBlock),
    );

    // The strategy-4 admitted subset of the same batch: everything Wu
    // routes is guaranteed.
    let ensured: Vec<(u64, Packet)> = raw
        .iter()
        .filter_map(|(cycle, p)| Some((*cycle, Packet::ensured(&view, p.source(), p.dest())?)))
        .collect();
    run(
        &format!("Wu ({} admitted)", ensured.len()),
        &ensured,
        &mesh,
        wu(),
    );

    println!(
        "\nreading: every packet Wu's protocol delivers took a shortest path\n\
         (stretch 1.0); with strategy-4 admission control nothing fails, and\n\
         the only cost over the zero-load bound is link contention."
    );
}

fn run(label: &str, traffic: &[(u64, Packet)], mesh: &Mesh, router: impl DynamicRouter) {
    let mut sim = NetSim::new(*mesh, router);
    for (cycle, packet) in traffic {
        sim.inject(packet.clone(), *cycle);
    }
    let report = sim
        .run_dynamic_to_completion(1_000_000)
        .expect("bounded traffic");
    println!(
        "{label:<22} {:>10} {:>8} {:>12.2} {:>9.3} {:>10}",
        report.delivered,
        report.failed,
        report.mean_latency(),
        report.hop_stretch(),
        report.peak_queue
    );
}
