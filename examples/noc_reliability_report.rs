//! A mesh-interconnect reliability report: for a multicomputer operator
//! wondering "how often can my routers still *guarantee* shortest-path
//! delivery as nodes die?", sweep the fault count and compare the paper's
//! source-side guarantees against the global-information optimum.
//!
//! Run with `cargo run --release --example noc_reliability_report`
//! (add trailing `-- <mesh-size> <trials>` to change the defaults).

use emr2d::core::conditions::{self, SegmentSize};
use emr2d::prelude::*;
use emr_analysis::{sweep, SweepConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let size: i32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(64);
    let trials: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(200);

    let cfg = SweepConfig {
        mesh_size: size,
        trials,
        fault_counts: (0..=60).step_by(10).collect(),
        seed: 0xBEEF,
        ..SweepConfig::default()
    };

    println!("guaranteed-minimal-delivery report — {size}x{size} mesh, {trials} trials/point\n");
    let table = sweep::run(
        &cfg,
        &[
            "safe source",
            "ext1",
            "ext2 (seg 5)",
            "strategy 4",
            "optimal",
        ],
        |input, _| {
            let (s, d) = (input.source, input.dest);
            let view = input.scenario.view(Model::FaultBlock);
            let yes = |b: bool| f64::from(u8::from(b));
            vec![
                yes(conditions::safe_source(&view, s, d).is_some()),
                yes(matches!(conditions::ext1(&view, s, d), Some(e) if e.is_minimal())),
                yes(conditions::ext2(&view, s, d, SegmentSize::Size(5)).is_some()),
                yes(matches!(conditions::strategy4(&view, s, d), Some(e) if e.is_minimal())),
                yes(input.reach().reachable(d)),
            ]
        },
    );
    table
        .write_plain(&mut std::io::stdout().lock())
        .expect("stdout");

    println!(
        "\nreading: 'safe source' is the cheapest check (Definition 3); the\n\
         extensions close most of the gap to 'optimal' (global information)\n\
         while each node stores only O(1)..O(n) safety-level entries."
    );
}
