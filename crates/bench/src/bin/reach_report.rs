//! Measures the reachability oracles — scalar per-pair DP, bit-parallel
//! per-pair kernel, batched `ReachMap` — and records the comparison to
//! `BENCH_reach.json`.
//!
//! Each mesh size times a full all-destinations ground-truth pass (every
//! node of the mesh queried from the center source, the shape the
//! conformance harness and figure sweeps need): once with the scalar DP
//! per pair, once with the bit-parallel kernel per pair, and once as one
//! `ReachMap` build followed by O(1) lookups. All three passes are
//! cross-checked to agree before anything is timed.
//!
//! Run with `cargo run --release -p emr-bench --bin reach_report`. Flags:
//! `--smoke` (single small size, short budget, and a hard assertion that
//! the bit-parallel kernel is not slower than the scalar DP), `--seed <s>`,
//! `--out <path>` (default `BENCH_reach.json`).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use emr_fault::inject;
use emr_fault::reach::minimal_path_exists;
use emr_fault::reach_bits::{minimal_path_exists_bits, ReachMap};
use emr_mesh::{Coord, Mesh};

/// One mesh size's comparison.
#[derive(Debug, Serialize)]
struct SizeRecord {
    /// Mesh side length.
    mesh_size: i32,
    /// Uniform random faults injected (one per side-length unit).
    faults: usize,
    /// Destinations per pass (every node of the mesh).
    destinations: usize,
    /// Full scalar-DP pass in milliseconds.
    scalar_pair_ms: f64,
    /// Full bit-parallel per-pair pass in milliseconds.
    bits_pair_ms: f64,
    /// One `ReachMap` build plus all lookups, in milliseconds.
    batched_ms: f64,
    /// `scalar_pair_ms / bits_pair_ms`.
    bits_speedup: f64,
    /// `scalar_pair_ms / batched_ms` (the all-destinations win).
    batched_speedup: f64,
}

/// The record written to `BENCH_reach.json`.
#[derive(Debug, Serialize)]
struct ReachRecord {
    /// Whether this was a `--smoke` run (short budget, single size).
    smoke: bool,
    /// Master seed for fault injection.
    seed: u64,
    /// One entry per mesh size.
    sizes: Vec<SizeRecord>,
}

/// Mean seconds per call of `f`: one warm-up call, then repetitions until
/// `min_secs` of measured time (or 64 reps) accumulate.
fn time_mean(mut f: impl FnMut(), min_secs: f64) -> f64 {
    f();
    let mut reps = 0u32;
    let start = Instant::now();
    loop {
        f();
        reps += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_secs || reps >= 64 {
            return elapsed / f64::from(reps);
        }
    }
}

fn measure_size(n: i32, seed: u64, min_secs: f64) -> SizeRecord {
    let mesh = Mesh::square(n);
    let source = mesh.center();
    let mut rng = StdRng::seed_from_u64(seed ^ u64::try_from(n).unwrap_or(0));
    let faults = inject::uniform(mesh, n as usize, &[source], &mut rng);
    let blocked = |c: Coord| faults.is_faulty(c);

    // Cross-check before timing: all three oracles must agree everywhere.
    let map = ReachMap::from_source(&mesh, source, blocked);
    let mut reference = 0usize;
    for d in mesh.nodes() {
        let scalar = minimal_path_exists(&mesh, source, d, blocked);
        let bits = minimal_path_exists_bits(&mesh, source, d, blocked);
        assert_eq!(scalar, bits, "bit-parallel diverged at {d} (n={n})");
        assert_eq!(scalar, map.reachable(d), "ReachMap diverged at {d} (n={n})");
        reference += usize::from(scalar);
    }

    // Each timed pass folds its verdicts into a count the assert below
    // consumes, so the passes cannot be optimized away.
    let mut count = 0usize;
    let scalar_pass = time_mean(
        || {
            count = mesh
                .nodes()
                .filter(|&d| minimal_path_exists(&mesh, source, d, blocked))
                .count();
        },
        min_secs,
    );
    assert_eq!(count, reference);
    let bits_pass = time_mean(
        || {
            count = mesh
                .nodes()
                .filter(|&d| minimal_path_exists_bits(&mesh, source, d, blocked))
                .count();
        },
        min_secs,
    );
    assert_eq!(count, reference);
    let batched_pass = time_mean(
        || {
            let map = ReachMap::from_source(&mesh, source, blocked);
            count = mesh.nodes().filter(|&d| map.reachable(d)).count();
        },
        min_secs,
    );
    assert_eq!(count, reference);

    SizeRecord {
        mesh_size: n,
        faults: n as usize,
        destinations: mesh.node_count(),
        scalar_pair_ms: scalar_pass * 1e3,
        bits_pair_ms: bits_pass * 1e3,
        batched_ms: batched_pass * 1e3,
        bits_speedup: scalar_pass / bits_pass,
        batched_speedup: scalar_pass / batched_pass,
    }
}

fn parse_args() -> Result<(bool, u64, String), String> {
    let mut smoke = false;
    let mut seed = 0x2002_1c05u64;
    let mut out = String::from("BENCH_reach.json");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => out = value("--out")?,
            other => {
                return Err(format!(
                    "unknown flag {other} (expected --smoke, --seed, --out)"
                ));
            }
        }
    }
    Ok((smoke, seed, out))
}

fn main() {
    let (smoke, seed, out) = match parse_args() {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let (sizes, min_secs): (&[i32], f64) = if smoke {
        (&[64], 0.02)
    } else {
        (&[64, 100, 200], 0.25)
    };
    let mut records = Vec::new();
    for &n in sizes {
        let rec = measure_size(n, seed, min_secs);
        eprintln!(
            "{n}x{n}: scalar {:.2} ms, bits {:.2} ms ({:.1}x), batched {:.3} ms ({:.1}x)",
            rec.scalar_pair_ms,
            rec.bits_pair_ms,
            rec.bits_speedup,
            rec.batched_ms,
            rec.batched_speedup
        );
        records.push(rec);
    }
    let slower = records
        .iter()
        .find(|r| r.bits_pair_ms > r.scalar_pair_ms)
        .map(|r| r.mesh_size);
    let record = ReachRecord {
        smoke,
        seed,
        sizes: records,
    };
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("creating output directory");
        }
    }
    let json = serde_json::to_string_pretty(&record).expect("serializing reach record");
    std::fs::write(&out, format!("{json}\n")).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    eprintln!("-> {out}");
    if smoke {
        if let Some(n) = slower {
            eprintln!("FAIL: bit-parallel kernel slower than scalar DP at {n}x{n}");
            std::process::exit(1);
        }
    }
}
