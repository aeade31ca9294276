//! Derived wire types read their keys in declared order and fall back to
//! matching them by name. Over seeded random request and response
//! batches, the compact wire (every key in declared order), the pretty
//! form (whitespace and newlines around every token) and a key-shuffled
//! form (each object's entries permuted) must all decode to the batch
//! that was written.

use emr_core::{Ensured, Model, RoutePlan, SafetyLevel};
use emr_mesh::Coord;
use emr_serve::api::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::de::DeserializeOwned;
use serde::{Serialize, Value};

const NAMES: [&str; 5] = ["m", "mesh", "t\"0", "é ✓", ""];

fn name(rng: &mut StdRng) -> String {
    NAMES[rng.gen_range(0..NAMES.len())].to_string()
}

fn coord(rng: &mut StdRng) -> Coord {
    Coord::new(rng.gen_range(-3..40), rng.gen_range(-3..40))
}

fn epoch(rng: &mut StdRng) -> u64 {
    if rng.gen_bool(0.1) {
        u64::MAX
    } else {
        rng.gen_range(0..9)
    }
}

fn at_epoch(rng: &mut StdRng) -> Option<u64> {
    rng.gen_bool(0.5).then(|| epoch(rng))
}

fn model(rng: &mut StdRng) -> Model {
    Model::ALL[rng.gen_range(0..Model::ALL.len())]
}

fn decision(rng: &mut StdRng) -> Option<Ensured> {
    let plan = match rng.gen_range(0..4) {
        0 => RoutePlan::Direct,
        1 => RoutePlan::ViaNeighbor(coord(rng)),
        2 => RoutePlan::ViaAxis(coord(rng)),
        _ => RoutePlan::ViaPivot(coord(rng)),
    };
    match rng.gen_range(0..3) {
        0 => None,
        1 => Some(Ensured::Minimal(plan)),
        _ => Some(Ensured::SubMinimal(plan)),
    }
}

fn request(rng: &mut StdRng) -> Request {
    let mesh = name(rng);
    match rng.gen_range(0..8) {
        0 => Request::Register(RegisterMesh {
            mesh,
            width: rng.gen_range(1..64),
            height: rng.gen_range(1..64),
            faults: (0..rng.gen_range(0..4)).map(|_| coord(rng)).collect(),
        }),
        1 => Request::Route(RouteQuery {
            mesh,
            at_epoch: at_epoch(rng),
            model: model(rng),
            s: coord(rng),
            d: coord(rng),
        }),
        2 => Request::Safety(SafetyQuery {
            mesh,
            at_epoch: at_epoch(rng),
            model: model(rng),
            at: coord(rng),
        }),
        3 => Request::Reach(ReachQuery {
            mesh,
            at_epoch: at_epoch(rng),
            s: coord(rng),
            d: coord(rng),
        }),
        4 => Request::Inject(InjectFault {
            mesh,
            fault: coord(rng),
        }),
        5 => Request::Advance(AdvanceEpoch { mesh }),
        6 => Request::Warm(WarmDecision {
            mesh,
            model: model(rng),
            s: coord(rng),
            d: coord(rng),
        }),
        _ => Request::Stats(SnapshotStats { mesh }),
    }
}

fn error(rng: &mut StdRng) -> ServeError {
    match rng.gen_range(0..6) {
        0 => ServeError::UnknownMesh(name(rng)),
        1 => ServeError::AlreadyRegistered(name(rng)),
        2 => ServeError::BadMesh(name(rng)),
        3 => ServeError::EpochNotRetained(EpochWindow {
            requested: epoch(rng),
            oldest: epoch(rng),
            latest: epoch(rng),
        }),
        4 => ServeError::OffMesh(coord(rng)),
        _ => ServeError::Malformed(name(rng)),
    }
}

fn response(rng: &mut StdRng) -> Response {
    match rng.gen_range(0..9) {
        0 => Response::Registered(Registered { epoch: epoch(rng) }),
        1 => Response::Routed(Routed {
            epoch: epoch(rng),
            decision: decision(rng),
        }),
        2 => Response::Safety(SafetyAnswer {
            epoch: epoch(rng),
            level: SafetyLevel::new(
                rng.gen_range(0..5),
                rng.gen_range(0..5),
                rng.gen_range(0..5),
                rng.gen_range(0..5),
            ),
        }),
        3 => Response::Reached(Reached {
            epoch: epoch(rng),
            reachable: rng.gen_bool(0.5),
        }),
        4 => Response::Injected(Injected {
            working_epoch: epoch(rng),
            changed: rng.gen_bool(0.5),
        }),
        5 => Response::Published(Published {
            epoch: epoch(rng),
            fresh: rng.gen_bool(0.5),
        }),
        6 => Response::Warmed(Warmed {
            working_epoch: epoch(rng),
            decision: decision(rng),
        }),
        7 => Response::Stats(StatsReport {
            working_epoch: epoch(rng),
            published_epoch: epoch(rng),
            epochs_retained: epoch(rng),
            approx_snapshot_bytes: epoch(rng),
            memo_entries: epoch(rng),
            faults: epoch(rng),
        }),
        _ => Response::Error(error(rng)),
    }
}

/// `value` with every object's entries permuted, at every depth.
fn shuffle_keys(value: Value, rng: &mut StdRng) -> Value {
    match value {
        Value::Seq(items) => Value::Seq(items.into_iter().map(|v| shuffle_keys(v, rng)).collect()),
        Value::Map(entries) => {
            let mut entries: Vec<(String, Value)> = entries
                .into_iter()
                .map(|(k, v)| (k, shuffle_keys(v, rng)))
                .collect();
            entries.shuffle(rng);
            Value::Map(entries)
        }
        other => other,
    }
}

/// Writes `batch` compact, pretty and key-shuffled, and checks that each
/// text decodes back to `batch`. Returns how many shuffled texts moved a
/// key out of declared order.
fn check_layouts<T>(batch: &[T], rng: &mut StdRng) -> usize
where
    T: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug,
{
    let compact = serde_json::to_string(batch).unwrap();
    let pretty = serde_json::to_string_pretty(batch).unwrap();
    let tree: Value = serde_json::from_str(&compact).unwrap();
    let shuffled = serde_json::to_string(&shuffle_keys(tree, rng)).unwrap();
    for text in [&compact, &pretty, &shuffled] {
        assert_eq!(
            serde_json::from_str::<Vec<T>>(text).unwrap(),
            batch,
            "{text}"
        );
    }
    usize::from(shuffled != compact)
}

#[test]
fn random_batches_decode_the_same_in_every_key_layout() {
    let mut rng = StdRng::seed_from_u64(0x0de7);
    let mut reordered = 0;
    for _ in 0..300 {
        let len = rng.gen_range(1..24);
        let requests: Vec<Request> = (0..len).map(|_| request(&mut rng)).collect();
        reordered += check_layouts(&requests, &mut rng);
        let responses: Vec<Response> = (0..len).map(|_| response(&mut rng)).collect();
        reordered += check_layouts(&responses, &mut rng);
    }
    // Nearly every shuffled batch holds a struct whose keys moved.
    assert!(
        reordered > 500,
        "{reordered} of 600 shuffled texts reordered"
    );
}
