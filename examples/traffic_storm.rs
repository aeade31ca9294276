//! Packet-level traffic under faults: inject hundreds of packets and
//! compare Wu's protocol against dimension-order (XY) routing and the
//! global-information oracle on delivery rate, latency and stretch.
//!
//! Run with `cargo run --release --example traffic_storm [faults] [packets]`.

use emr2d::netsim::{NetSim, OracleRouter, Router, Workload, WuRouter, XyRouter};
use emr2d::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut args = std::env::args().skip(1);
    let faults: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(40);
    let packets: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(400);

    let mesh = Mesh::square(48);
    let mut rng = StdRng::seed_from_u64(2002);
    let fault_set = inject::uniform(mesh, faults, &[], &mut rng);
    let scenario = Scenario::build(fault_set);
    let view = scenario.view(Model::FaultBlock);
    let boundary = scenario.boundary_map(Model::FaultBlock);

    println!(
        "{0}x{0} mesh, {1} faults ({2} blocks), {packets} packets @ 4/cycle\n",
        mesh.width(),
        faults,
        scenario.blocks().blocks().len()
    );
    println!(
        "{:<22} {:>10} {:>8} {:>12} {:>9} {:>10}",
        "router", "delivered", "failed", "mean latency", "stretch", "peak queue"
    );

    // Raw uniform traffic (no plan filtering): shows failure behavior.
    let raw = Workload::uniform_raw(&scenario, packets, 4, &mut rng);
    run(
        "XY (fault-oblivious)",
        &raw,
        &mesh,
        XyRouter::new(mesh, scenario.blocks()),
    );
    run("Wu protocol", &raw, &mesh, WuRouter::new(&view, &boundary));
    run(
        "oracle (global info)",
        &raw,
        &mesh,
        OracleRouter::new(&view),
    );

    // Strategy-4 filtered traffic: everything Wu routes is guaranteed.
    let ensured = Workload::uniform_ensured(&scenario, Model::FaultBlock, packets, 4, &mut rng);
    run(
        "Wu protocol (ensured)",
        &ensured,
        &mesh,
        WuRouter::new(&view, &boundary),
    );

    println!(
        "\nreading: every packet Wu's protocol delivers took a shortest path\n\
         (stretch 1.0); with strategy-4 admission control nothing fails, and\n\
         the only cost over the zero-load bound is link contention."
    );
}

fn run(label: &str, load: &Workload, mesh: &Mesh, router: impl Router) {
    let mut sim = NetSim::new(*mesh, router);
    load.inject_into(&mut sim);
    let report = sim.run_to_completion(1_000_000).expect("bounded traffic");
    println!(
        "{label:<22} {:>10} {:>8} {:>12.2} {:>9.3} {:>10}",
        report.delivered,
        report.failed,
        report.mean_latency(),
        report.hop_stretch(),
        report.peak_queue
    );
}
