//! Measures the construction kernels — Definition-1 block formation,
//! Definition-2 MCC labeling, and the safety-level sweeps — scalar vs
//! word-parallel, and records the comparison to `BENCH_block.json`.
//!
//! Each mesh size builds every map once with the scalar ground-truth
//! implementation and once with the packed bit kernels, cross-checking
//! the results for equality before anything is timed. The safety rows
//! compare the packed run-length construction against the scalar ESL
//! sweep over a *prebuilt* obstacle grid, so the scalar side is not
//! charged for materializing its predicate.
//!
//! Run with `cargo run --release -p emr-bench --bin block_report`. Flags:
//! `--smoke` (single small size, short budget, and a hard assertion that
//! no bit kernel is slower than its scalar twin), `--seed <s>`,
//! `--out <path>` (default `BENCH_block.json`).

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use emr_core::SafetyMap;
use emr_fault::{inject, BlockMap, MccMap, MccType};
use emr_mesh::{Grid, Mesh};

/// One kernel's scalar-vs-bits comparison at one mesh size.
#[derive(Debug, Serialize)]
struct KernelRecord {
    /// Which construction this row times.
    kernel: &'static str,
    /// Scalar ground-truth build in milliseconds.
    scalar_ms: f64,
    /// Word-parallel build in milliseconds.
    bits_ms: f64,
    /// `scalar_ms / bits_ms`.
    speedup: f64,
}

/// One mesh size's comparisons.
#[derive(Debug, Serialize)]
struct SizeRecord {
    /// Mesh side length.
    mesh_size: i32,
    /// Uniform random faults injected (one per side-length unit).
    faults: usize,
    /// One entry per construction kernel.
    kernels: Vec<KernelRecord>,
}

/// The record written to `BENCH_block.json`.
#[derive(Debug, Serialize)]
struct BlockRecord {
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
    let mut rng = StdRng::seed_from_u64(seed ^ u64::try_from(n).unwrap_or(0));
    let faults = inject::uniform(mesh, n as usize, &[], &mut rng);

    // Cross-check before timing: every bit kernel must equal its scalar
    // ground truth on this input.
    let blocks = BlockMap::build(&faults);
    assert_eq!(
        blocks,
        BlockMap::build_scalar(&faults),
        "block bits diverged (n={n})"
    );
    for ty in MccType::ALL {
        assert_eq!(
            MccMap::build(&faults, ty),
            MccMap::build_scalar(&faults, ty),
            "MCC {ty:?} bits diverged (n={n})"
        );
    }
    let blocked = Grid::from_fn(mesh, |c| blocks.is_blocked(c));
    assert_eq!(
        SafetyMap::compute_packed(blocks.packed()),
        SafetyMap::compute(&blocked),
        "safety bits diverged (n={n})"
    );

    let mut kernels = Vec::new();
    let mut push = |kernel, scalar: f64, bits: f64| {
        kernels.push(KernelRecord {
            kernel,
            scalar_ms: scalar * 1e3,
            bits_ms: bits * 1e3,
            speedup: scalar / bits,
        });
    };

    let scalar = time_mean(
        || {
            black_box(BlockMap::build_scalar(&faults));
        },
        min_secs,
    );
    let bits = time_mean(
        || {
            black_box(BlockMap::build(&faults));
        },
        min_secs,
    );
    push("block", scalar, bits);

    for (name, ty) in [("mcc-one", MccType::One), ("mcc-two", MccType::Two)] {
        let scalar = time_mean(
            || {
                black_box(MccMap::build_scalar(&faults, ty));
            },
            min_secs,
        );
        let bits = time_mean(
            || {
                black_box(MccMap::build(&faults, ty));
            },
            min_secs,
        );
        push(name, scalar, bits);
    }

    let scalar = time_mean(
        || {
            black_box(SafetyMap::compute(&blocked));
        },
        min_secs,
    );
    let bits = time_mean(
        || {
            black_box(SafetyMap::compute_packed(blocks.packed()));
        },
        min_secs,
    );
    push("safety", scalar, bits);

    SizeRecord {
        mesh_size: n,
        faults: n as usize,
        kernels,
    }
}

fn parse_args() -> Result<(bool, u64, String), String> {
    let mut smoke = false;
    let mut seed = 0x2002_1c05u64;
    let mut out = String::from("BENCH_block.json");
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
        for k in &rec.kernels {
            eprintln!(
                "{n}x{n} {}: scalar {:.3} ms, bits {:.3} ms ({:.1}x)",
                k.kernel, k.scalar_ms, k.bits_ms, k.speedup
            );
        }
        records.push(rec);
    }
    let slower: Vec<String> = records
        .iter()
        .flat_map(|r| {
            r.kernels
                .iter()
                .filter(|k| k.bits_ms > k.scalar_ms)
                .map(move |k| format!("{} at {}x{}", k.kernel, r.mesh_size, r.mesh_size))
        })
        .collect();
    let record = BlockRecord {
        smoke,
        seed,
        sizes: records,
    };
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("creating output directory");
        }
    }
    let json = serde_json::to_string_pretty(&record).expect("serializing block record");
    std::fs::write(&out, format!("{json}\n")).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    eprintln!("-> {out}");
    if smoke && !slower.is_empty() {
        eprintln!(
            "FAIL: bit kernels slower than scalar: {}",
            slower.join(", ")
        );
        std::process::exit(1);
    }
}
