//! Sweeps mesh sizes from 64×64 toward 4096×4096 and records the
//! scale-out curves — microseconds per full scenario build, bytes per
//! node resident, and microseconds per routing/safety query — to
//! `BENCH_scale.json`.
//!
//! Each size builds one fully warmed [`Scenario`] under the automatic
//! [`BuildProfile`] (row-banded construction kernels above ~512²) and
//! then measures:
//!
//! * **build** — fault set → blocks, both MCC labelings, and all three
//!   safety maps, end to end;
//! * **memory** — [`MemBytes`] payload accounting, split into the
//!   *standard map set* (faults + blocks + both MCCs, the state every
//!   epoch keeps resident) and the warmed total including the three
//!   lane-index safety maps;
//! * **queries** — `decide_local` route decisions and safety-level
//!   lookups over derived random pairs.
//!
//! Before anything is timed, the smallest size cross-checks the banded
//! builders against the scalar profile for band counts {1, 2, 3, 5} —
//! the bin refuses to report numbers from kernels that do not reproduce
//! ground truth bit for bit.
//!
//! Three hard gates (the CI regression gates) run on every invocation:
//! at the sweep's largest size the standard map set must stay ≤
//! [`STANDARD_BYTES_PER_NODE_CAP`] and the warmed total ≤
//! [`TOTAL_BYTES_PER_NODE_CAP`] bytes per node, and — in full runs that
//! reach it — the 4096² build must finish under
//! [`GIANT_BUILD_SECS_CAP`] seconds.
//!
//! Run with `cargo run --release -p emr-bench --bin scale_report`.
//! Flags: `--smoke` (sizes 64→512, CI-friendly), `--max <side>` (cap
//! the full sweep), `--seed <s>`, `--out <path>` (default
//! `BENCH_scale.json`).

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use emr_core::{decide_local, BuildProfile, Model, Scenario};
use emr_fault::{inject, FaultSet, MccType};
use emr_mesh::{Coord, MemBytes, Mesh};

/// Regression gate: resident payload of the standard map set (faults +
/// blocks + both MCC labelings, all packed bit planes plus block and
/// component lists), bytes per node, at the largest size of the sweep.
/// The budget is asymptotic — per-fault lists and rectangle tables are
/// O(side), so they amortize to nothing as the mesh grows but dominate a
/// 64² mesh; gating the sweep's end point pins the per-node constants
/// without chasing that vanishing term. Set 25% above the value measured
/// at the smoke sweep's end point (512²: 1.80 B/node), which lies above
/// every larger size.
const STANDARD_BYTES_PER_NODE_CAP: f64 = 2.25;

/// Regression gate: resident payload of the fully warmed scenario (the
/// standard map set plus the three lane-index safety maps), bytes per
/// node, at the largest size of the sweep. Same asymptotic argument;
/// 25% above the 512² measurement (1.94 B/node).
const TOTAL_BYTES_PER_NODE_CAP: f64 = 2.42;

/// Regression gate: seconds for the fully warmed 4096² scenario build.
const GIANT_BUILD_SECS_CAP: f64 = 1.0;

/// Route/safety queries timed per size.
const QUERIES: usize = 256;

/// One mesh size's scale measurements.
#[derive(Debug, Serialize)]
struct ScaleRecord {
    /// Mesh side length.
    mesh_size: i32,
    /// Nodes in the mesh (`mesh_size²`).
    nodes: u64,
    /// Uniform random faults injected (one per side-length unit).
    faults: usize,
    /// Row bands the automatic profile built with.
    bands: usize,
    /// Full warmed build (blocks + MCCs + three safety maps), µs.
    build_us: f64,
    /// Resident payload of the standard map set, bytes per node.
    standard_bytes_per_node: f64,
    /// Resident payload of the fully warmed scenario, bytes per node.
    total_bytes_per_node: f64,
    /// Mean `decide_local` route decision, µs.
    route_query_us: f64,
    /// Mean safety-level lookup, µs.
    safety_query_us: f64,
}

/// The record written to `BENCH_scale.json`.
#[derive(Debug, Serialize)]
struct ScaleReport {
    /// Whether this was a `--smoke` run (sizes capped at 512).
    smoke: bool,
    /// Master seed for fault injection and query streams.
    seed: u64,
    /// Standard-map-set gate enforced at the largest size, bytes per node.
    standard_bytes_per_node_cap: f64,
    /// Warmed-total gate enforced at the largest size, bytes per node.
    total_bytes_per_node_cap: f64,
    /// Build-time gate enforced at 4096², seconds.
    giant_build_secs_cap: f64,
    /// One entry per mesh size.
    sizes: Vec<ScaleRecord>,
}

/// Builds and fully warms one scenario: eager blocks, both MCC
/// labelings, and all three safety maps.
fn build_warm(faults: &FaultSet, profile: BuildProfile) -> Scenario {
    let sc = Scenario::build_profiled(faults.clone(), profile);
    sc.block_safety_map();
    for ty in MccType::ALL {
        sc.mcc_safety_map(ty);
    }
    sc
}

/// Asserts that every profiled build reproduces the scalar ground truth
/// bit for bit: band counts {1, 2, 3, 5}, across blocks, MCCs, and all
/// safety maps.
fn cross_check(faults: &FaultSet) {
    let scalar = build_warm(faults, BuildProfile::SCALAR);
    for bands in [1, 2, 3, 5] {
        let profile = BuildProfile { bands };
        let got = build_warm(faults, profile);
        assert_eq!(got.blocks(), scalar.blocks(), "blocks diverged {profile:?}");
        for ty in MccType::ALL {
            assert_eq!(
                got.mcc(ty),
                scalar.mcc(ty),
                "MCC {ty:?} diverged {profile:?}"
            );
            assert_eq!(
                got.mcc_safety_map(ty),
                scalar.mcc_safety_map(ty),
                "MCC {ty:?} safety diverged {profile:?}"
            );
        }
        assert_eq!(
            got.block_safety_map(),
            scalar.block_safety_map(),
            "block safety diverged {profile:?}"
        );
    }
}

/// Mean seconds per warmed build over `reps` repetitions.
fn time_build(faults: &FaultSet, profile: BuildProfile, reps: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        black_box(build_warm(faults, profile));
    }
    start.elapsed().as_secs_f64() / f64::from(reps.max(1))
}

fn measure_size(n: i32, seed: u64) -> ScaleRecord {
    let mesh = Mesh::square(n);
    let mut rng = StdRng::seed_from_u64(seed ^ u64::try_from(n).unwrap_or(0));
    let faults = inject::uniform(mesh, n as usize, &[], &mut rng);
    let profile = BuildProfile::auto(mesh);

    // Giant builds are measured once; small ones amortize noise.
    let reps = if n >= 1024 { 1 } else { 5 };
    let build_secs = time_build(&faults, profile, reps);

    let sc = build_warm(&faults, profile);
    let nodes = mesh.node_count() as u64;
    let standard = sc.faults().mem_bytes()
        + sc.blocks().mem_bytes()
        + MccType::ALL
            .iter()
            .map(|&ty| sc.mcc(ty).mem_bytes())
            .sum::<u64>();
    let total = sc.mem_bytes();

    let view = sc.view(Model::FaultBlock);
    let coord = |rng: &mut StdRng| Coord::new(rng.gen_range(0..n), rng.gen_range(0..n));
    let pairs: Vec<(Coord, Coord)> = (0..QUERIES)
        .map(|_| (coord(&mut rng), coord(&mut rng)))
        .collect();
    let start = Instant::now();
    for &(s, d) in &pairs {
        black_box(decide_local(&view, s, d));
    }
    let route_query_us = start.elapsed().as_secs_f64() * 1e6 / pairs.len() as f64;

    let safety = sc.block_safety_map();
    let start = Instant::now();
    for &(s, _) in &pairs {
        black_box(safety.level(s));
    }
    let safety_query_us = start.elapsed().as_secs_f64() * 1e6 / pairs.len() as f64;

    ScaleRecord {
        mesh_size: n,
        nodes,
        faults: n as usize,
        bands: profile.bands,
        build_us: build_secs * 1e6,
        standard_bytes_per_node: standard as f64 / nodes as f64,
        total_bytes_per_node: total as f64 / nodes as f64,
        route_query_us,
        safety_query_us,
    }
}

/// Parsed command line: the smoke switch, master seed, optional cap on
/// the largest full-sweep side, and the output path.
struct Args {
    smoke: bool,
    seed: u64,
    max: i32,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        smoke: false,
        seed: 0x5ca1_e000u64,
        max: 4096,
        out: String::from("BENCH_scale.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--smoke" => parsed.smoke = true,
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--max" => {
                parsed.max = value("--max")?.parse().map_err(|e| format!("--max: {e}"))?;
            }
            "--out" => parsed.out = value("--out")?,
            other => {
                return Err(format!(
                    "unknown flag {other} (expected --smoke, --max, --seed, --out)"
                ));
            }
        }
    }
    Ok(parsed)
}

fn main() {
    let args = match parse_args() {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let all_sizes: &[i32] = if args.smoke {
        &[64, 128, 256, 512]
    } else {
        &[64, 128, 256, 512, 1024, 2048, 4096]
    };
    let sizes: Vec<i32> = all_sizes
        .iter()
        .copied()
        .filter(|&n| n <= args.max)
        .collect();

    // Ground-truth conformance before any timing: banded profiles must
    // be bit-identical to scalar at the smallest size.
    {
        let mesh = Mesh::square(sizes.first().copied().unwrap_or(64));
        let mut rng = StdRng::seed_from_u64(args.seed);
        let faults = inject::uniform(mesh, mesh.width() as usize, &[], &mut rng);
        cross_check(&faults);
        eprintln!(
            "cross-check ok: bands {{1,2,3,5}} match scalar at {}x{}",
            mesh.width(),
            mesh.height()
        );
    }

    let mut records = Vec::new();
    for &n in &sizes {
        let rec = measure_size(n, args.seed);
        eprintln!(
            "{n}x{n} (bands {}): build {:.1} ms, {:.2} B/node standard \
             ({:.2} total), route {:.2} us, safety {:.3} us",
            rec.bands,
            rec.build_us / 1e3,
            rec.standard_bytes_per_node,
            rec.total_bytes_per_node,
            rec.route_query_us,
            rec.safety_query_us
        );
        records.push(rec);
    }

    // Regression gates.
    let over_budget: Vec<String> = records
        .last()
        .into_iter()
        .flat_map(|r| {
            [
                (
                    "standard",
                    r.standard_bytes_per_node,
                    STANDARD_BYTES_PER_NODE_CAP,
                ),
                ("total", r.total_bytes_per_node, TOTAL_BYTES_PER_NODE_CAP),
            ]
            .into_iter()
            .filter(|&(_, bytes, cap)| bytes > cap)
            .map(|(set, bytes, cap)| {
                format!(
                    "{set} {bytes:.2} B/node > {cap} at {}x{}",
                    r.mesh_size, r.mesh_size
                )
            })
        })
        .collect();
    let slow_giant: Vec<String> = records
        .iter()
        .filter(|r| r.mesh_size >= 4096 && r.build_us > GIANT_BUILD_SECS_CAP * 1e6)
        .map(|r| {
            format!(
                "{:.0} ms at {}x{}",
                r.build_us / 1e3,
                r.mesh_size,
                r.mesh_size
            )
        })
        .collect();

    let report = ScaleReport {
        smoke: args.smoke,
        seed: args.seed,
        standard_bytes_per_node_cap: STANDARD_BYTES_PER_NODE_CAP,
        total_bytes_per_node_cap: TOTAL_BYTES_PER_NODE_CAP,
        giant_build_secs_cap: GIANT_BUILD_SECS_CAP,
        sizes: records,
    };
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("creating output directory");
        }
    }
    let json = serde_json::to_string_pretty(&report).expect("serializing scale report");
    std::fs::write(&args.out, format!("{json}\n"))
        .unwrap_or_else(|e| panic!("writing {}: {e}", args.out));
    eprintln!("-> {}", args.out);

    if !over_budget.is_empty() {
        eprintln!("FAIL: resident bytes above cap: {}", over_budget.join(", "));
        std::process::exit(1);
    }
    if !slow_giant.is_empty() {
        eprintln!(
            "FAIL: giant build above {GIANT_BUILD_SECS_CAP} s: {}",
            slow_giant.join(", ")
        );
        std::process::exit(1);
    }
}
