//! Snapshot-isolation properties of the serve store.
//!
//! Three guarantees, each pinned on randomized fault/query interleavings
//! and once more under true concurrency:
//!
//! * **epoch stability** — responses pinned to epoch *e* are
//!   bit-identical (wire bytes included) before and after later epochs
//!   publish;
//! * **no torn reads** — a reader never observes a half-published
//!   epoch: every unpinned read of a mesh within one batch answers at
//!   one single already-published epoch, even when the same batch (or a
//!   concurrent writer) is injecting faults and publishing;
//! * **shard invariance** — the shard count partitions the tenant map
//!   for lock granularity only; the full response stream is identical
//!   for any shard count.

use std::sync::Arc;

use proptest::prelude::*;

use emr_core::Model;
use emr_mesh::Coord;
use emr_serve::api::{
    AdvanceEpoch, InjectFault, ReachQuery, RegisterMesh, Request, Response, RouteQuery,
    SafetyQuery, SnapshotStats, WarmDecision,
};
use emr_serve::{LoopbackClient, Store, StoreConfig};

type Cell = (i32, i32);
/// One generated case: mesh side, initial faults, later faults (one per
/// published epoch), and raw query draws (kind, pin selector, s, d).
type Case = (i32, Vec<Cell>, Vec<Cell>, Vec<(u8, u8, Cell, Cell)>);

fn config() -> impl Strategy<Value = Case> {
    (5i32..=11, 0usize..=10, 1usize..=5, 4usize..=12).prop_flat_map(|(n, k, e, q)| {
        let cell = || (0..n, 0..n);
        (
            Just(n),
            proptest::collection::vec(cell(), k),
            proptest::collection::vec(cell(), e),
            proptest::collection::vec((0u8..6, 0u8..4, cell(), cell()), q),
        )
    })
}

fn coord((x, y): Cell) -> Coord {
    Coord::new(x, y)
}

/// Builds the query list for one epoch pin choice. `pin` of `None` is an
/// unpinned (batch-pinned) read.
fn queries(mesh: &str, pin: Option<u64>, draws: &[(u8, u8, Cell, Cell)]) -> Vec<Request> {
    draws
        .iter()
        .map(|&(kind, _, s, d)| {
            let model = if kind % 2 == 0 {
                Model::FaultBlock
            } else {
                Model::Mcc
            };
            match kind {
                0..=2 => Request::Route(RouteQuery {
                    mesh: mesh.to_string(),
                    at_epoch: pin,
                    model,
                    s: coord(s),
                    d: coord(d),
                }),
                3 | 4 => Request::Safety(SafetyQuery {
                    mesh: mesh.to_string(),
                    at_epoch: pin,
                    model,
                    at: coord(s),
                }),
                _ => Request::Reach(ReachQuery {
                    mesh: mesh.to_string(),
                    at_epoch: pin,
                    s: coord(s),
                    d: coord(d),
                }),
            }
        })
        .collect()
}

fn register(mesh_side: i32, faults: &[Cell]) -> Request {
    Request::Register(RegisterMesh {
        mesh: "m".to_string(),
        width: mesh_side,
        height: mesh_side,
        faults: faults.iter().map(|&c| coord(c)).collect(),
    })
}

fn wire(responses: &[Response]) -> String {
    serde_json::to_string(&responses.to_vec()).unwrap()
}

/// The epoch a read response answered at, if it is a read response.
fn epoch_of(resp: &Response) -> Option<u64> {
    match resp {
        Response::Routed(r) => Some(r.epoch),
        Response::Safety(r) => Some(r.epoch),
        Response::Reached(r) => Some(r.epoch),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Epoch-e responses are bit-identical before and after e+1..=E
    /// publish (retention is sized so every epoch stays resident).
    #[test]
    fn pinned_epoch_responses_survive_later_publishes(
        (n, init, extras, draws) in config()
    ) {
        let client = LoopbackClient::new(Arc::new(Store::new(StoreConfig {
            shards: 3,
            retain: 64,
        })));
        client.send_one(&register(n, &init));

        // Baseline at every epoch as it is published.
        let mut baselines: Vec<(u64, String)> = Vec::new();
        let pinned = |e: u64| queries("m", Some(e), &draws);
        baselines.push((0, wire(&client.send(&pinned(0)))));
        for &c in &extras {
            let responses = client.send(&[
                Request::Inject(InjectFault { mesh: "m".to_string(), fault: coord(c) }),
                Request::Advance(AdvanceEpoch { mesh: "m".to_string() }),
            ]);
            // A duplicate fault publishes nothing new; baseline the epoch
            // the store actually reports.
            let Some(Response::Published(p)) = responses.last() else {
                panic!("advance failed: {:?}", responses.last());
            };
            if p.fresh {
                baselines.push((p.epoch, wire(&client.send(&pinned(p.epoch)))));
            }
        }

        // After everything has published, every pinned replay must still
        // produce byte-identical wire responses.
        for (e, baseline) in &baselines {
            let now = wire(&client.send(&pinned(*e)));
            prop_assert!(&now == baseline, "epoch {} drifted after later publishes", e);
        }
    }

    /// A batch interleaving unpinned reads with injects and publishes
    /// answers every unpinned read at ONE epoch — the batch pin — and
    /// that epoch equals the published epoch when the batch began. The
    /// next batch then observes the newly published epoch.
    #[test]
    fn unpinned_reads_are_batch_pinned_against_in_batch_publishes(
        (n, init, extras, draws) in config()
    ) {
        let client = LoopbackClient::new(Arc::new(Store::new(StoreConfig {
            shards: 2,
            retain: 64,
        })));
        client.send_one(&register(n, &init));

        let unpinned = queries("m", None, &draws);
        let mut batch = Vec::new();
        // read* (inject read* advance read*)+  — all in ONE batch.
        batch.extend(unpinned.iter().cloned());
        for &c in &extras {
            batch.push(Request::Inject(InjectFault {
                mesh: "m".to_string(),
                fault: coord(c),
            }));
            batch.extend(unpinned.iter().cloned());
            batch.push(Request::Advance(AdvanceEpoch { mesh: "m".to_string() }));
            batch.extend(unpinned.iter().cloned());
        }
        let responses = client.send(&batch);
        let epochs: Vec<u64> = responses.iter().filter_map(epoch_of).collect();
        prop_assert!(!epochs.is_empty());
        prop_assert!(
            epochs.iter().all(|&e| e == 0),
            "unpinned reads escaped the batch pin: {:?}",
            epochs
        );

        // A fresh batch observes the latest published epoch, and it is
        // exactly the number of distinct faults that were injected.
        let distinct_new: std::collections::BTreeSet<Cell> = extras
            .iter()
            .copied()
            .filter(|c| !init.contains(c))
            .collect();
        let next = client.send(&unpinned);
        for resp in &next {
            if let Some(e) = epoch_of(resp) {
                prop_assert_eq!(e, distinct_new.len() as u64);
            }
        }
    }

    /// The full response stream — registration of three tenants,
    /// writes, warms, pinned and unpinned reads, stats, errors included —
    /// is identical for any shard count.
    #[test]
    fn shard_count_never_changes_any_response(
        (n, init, extras, draws) in config()
    ) {
        // Three tenants with different fault streams: "m" starts from the
        // drawn faults, "a" and "b" start empty and take the later faults
        // in order and in reverse.
        let tenants = ["m", "a", "b"];
        let mut script: Vec<Request> = vec![register(n, &init)];
        for t in &tenants[1..] {
            script.push(Request::Register(RegisterMesh {
                mesh: t.to_string(),
                width: n,
                height: n,
                faults: Vec::new(),
            }));
        }
        script.extend(queries("m", None, &draws));
        for (i, &c) in extras.iter().enumerate() {
            let faults = [c, c, extras[extras.len() - 1 - i]];
            for (t, f) in tenants.into_iter().zip(faults) {
                script.push(Request::Inject(InjectFault {
                    mesh: t.to_string(),
                    fault: coord(f),
                }));
                // Warm every drawn pair so later snapshots answer Routes
                // from their memo.
                script.extend(draws.iter().map(|&(kind, _, s, d)| {
                    Request::Warm(WarmDecision {
                        mesh: t.to_string(),
                        model: if kind % 2 == 0 { Model::FaultBlock } else { Model::Mcc },
                        s: coord(s),
                        d: coord(d),
                    })
                }));
                script.push(Request::Advance(AdvanceEpoch { mesh: t.to_string() }));
                script.extend(queries(t, Some(i as u64), &draws));
                script.extend(queries(t, None, &draws));
            }
        }
        // Include an unknown-mesh error and an off-mesh error.
        script.push(Request::Route(RouteQuery {
            mesh: "ghost".to_string(),
            at_epoch: None,
            model: Model::FaultBlock,
            s: Coord::new(0, 0),
            d: Coord::new(1, 1),
        }));
        script.push(Request::Inject(InjectFault {
            mesh: "m".to_string(),
            fault: Coord::new(n, n),
        }));
        script.extend(tenants.map(|t| Request::Stats(SnapshotStats { mesh: t.to_string() })));

        let run = |shards: usize| -> Vec<Response> {
            let client = LoopbackClient::new(Arc::new(Store::new(StoreConfig {
                shards,
                retain: 64,
            })));
            client.send(&script)
        };
        let one = run(1);
        for shards in [2, 5, 16] {
            let other = run(shards);
            prop_assert!(one == other, "responses diverged at {} shards", shards);
            prop_assert_eq!(wire(&one), wire(&other));
        }
    }
}

/// True-concurrency torn-read hunt: a writer thread injects and
/// publishes epochs as fast as it can while reader threads hammer the
/// store. Readers pinned at epoch 0 must see byte-identical responses
/// throughout, and unpinned readers must only ever observe
/// fully-published epochs (monotonically nondecreasing, within the
/// writer's progress).
#[test]
fn concurrent_writer_never_tears_readers() {
    const EPOCHS: u64 = 24;
    const READERS: usize = 4;

    let client = LoopbackClient::new(Arc::new(Store::new(StoreConfig {
        shards: 2,
        retain: 1024,
    })));
    let side = 9;
    let init: Vec<Cell> = vec![(2, 2), (6, 3)];
    client.send_one(&register(side, &init));

    let draws: Vec<(u8, u8, Cell, Cell)> = (0..8u8)
        .map(|i| {
            let v = i32::from(i);
            (i % 6, 0, (v % side, 1), (side - 1 - v % side, side - 1))
        })
        .collect();
    let pinned0 = queries("m", Some(0), &draws);
    let unpinned = queries("m", None, &draws);
    let baseline = wire(&client.send(&pinned0));

    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            // Walk distinct cells so every inject actually bumps the epoch.
            let mut published = 0u64;
            for i in 0..EPOCHS {
                let x = (i as i32 * 3 + 1) % side;
                let y = (i as i32 * 5 + 4) % side;
                let fault = if init.contains(&(x, y)) {
                    (x, (y + 1) % side)
                } else {
                    (x, y)
                };
                let responses = client.send(&[
                    Request::Inject(InjectFault {
                        mesh: "m".to_string(),
                        fault: coord(fault),
                    }),
                    Request::Advance(AdvanceEpoch {
                        mesh: "m".to_string(),
                    }),
                ]);
                if let Some(Response::Published(p)) = responses.last() {
                    assert!(p.epoch >= published, "publish went backwards");
                    published = p.epoch;
                }
            }
        });
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut last_seen = 0u64;
                    for _ in 0..48 {
                        // Pinned epoch 0 is frozen for all time.
                        assert_eq!(
                            wire(&client.send(&pinned0)),
                            baseline,
                            "pinned epoch-0 responses drifted under a live writer"
                        );
                        // Unpinned reads see ONE published epoch per batch.
                        let responses = client.send(&unpinned);
                        let epochs: Vec<u64> = responses.iter().filter_map(epoch_of).collect();
                        assert_eq!(epochs.len(), unpinned.len());
                        let e = epochs[0];
                        assert!(epochs.iter().all(|&x| x == e), "torn batch: {epochs:?}");
                        assert!(e <= EPOCHS, "unpublished epoch observed");
                        assert!(e >= last_seen, "epoch went backwards across batches");
                        last_seen = e;
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
    });
}
