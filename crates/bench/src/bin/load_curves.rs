//! Latency and delivery vs offered load for the XY, Wu and adaptive
//! routers on the event-driven core. See `emr_analysis::loadsweep`; the
//! `offered` column is in packets per node per cycle × 10⁻³.
//!
//! `--smoke` runs the small test configuration; any other flag exits 2.

use emr_analysis::{loadsweep, LoadSweepConfig};

fn main() {
    let mut cfg = LoadSweepConfig::default();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            cfg = LoadSweepConfig::smoke();
        } else {
            eprintln!("unknown flag {arg} (the only flag is --smoke)");
            std::process::exit(2);
        }
    }
    let table = loadsweep::run(&cfg);
    table
        .write_plain(&mut std::io::stdout().lock())
        .expect("writing to stdout");
}
