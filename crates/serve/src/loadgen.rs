//! The deterministic load generator.
//!
//! Drives a [`Store`] through the loopback wire with thousands of
//! simulated clients and reports response counters and a **response
//! checksum**, all bit-identical across thread counts and shard counts.
//!
//! Determinism discipline (the sweep-engine recipe from PR 1):
//!
//! * every random draw comes from a per-(salt, stream, index) splitmix64
//!   derivation of the master seed — client *c*'s query stream at epoch
//!   *e* is the same no matter which worker thread runs it;
//! * the run is **phased**: per epoch, the single writer injects faults
//!   and publishes first, then all clients query with the publish
//!   barrier behind them, so unpinned reads resolve to a known epoch;
//! * clients are dispatched in fixed-size chunks via an atomic cursor
//!   and their digests are folded in ascending client order, so the run
//!   checksum is independent of scheduling.
//!
//! The generator reads no clock; the repository benchmark times the
//! service from outside.
//!
//! With `verify` set, every response is additionally replayed against a
//! freshly built [`Scenario`] of the same epoch's fault prefix — the
//! load-test twin of the `serve-matches-direct` conformance oracle.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use emr_core::{decide_local, Ensured, Epoch, Model, Scenario};
use emr_fault::reach_bits::minimal_path_exists_packed;
use emr_fault::{inject, FaultSet, MccType};
use emr_mesh::{Coord, Mesh};

use crate::api::{
    AdvanceEpoch, InjectFault, ReachQuery, RegisterMesh, Request, Response, RouteQuery,
    SafetyQuery, SnapshotStats, WarmDecision,
};
use crate::hash::{fnv1a64, fnv1a64_u64, FNV_OFFSET};
use crate::loopback::LoopbackClient;
use crate::store::{Store, StoreConfig};

/// Domain-separation salt: per-tenant initial fault injection.
const SALT_INIT: u64 = 0x7365_7276_6530_3030;
/// Domain-separation salt: the writer's per-epoch fault/warm draws.
const SALT_WRITER: u64 = 0x7365_7276_6531_3131;
/// Domain-separation salt: per-client query streams.
const SALT_CLIENT: u64 = 0x7365_7276_6532_3232;

/// Clients dispatched per atomic-cursor claim.
const CHUNK_CLIENTS: usize = 8;

/// Chains `master ^ salt`, then `a`, then `b` through splitmix64 — the
/// same derivation discipline as the sweep engine and conformance
/// runner.
fn derive_seed(master: u64, salt: u64, a: u64, b: u64) -> u64 {
    let mut state = master ^ salt;
    let x = rand::splitmix64(&mut state);
    state = x ^ a;
    let y = rand::splitmix64(&mut state);
    state = y ^ b;
    rand::splitmix64(&mut state)
}

/// Load-generator knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadConfig {
    /// Square mesh side length per tenant (≥ 1).
    pub mesh: i32,
    /// Tenant (mesh) count (≥ 1).
    pub tenants: usize,
    /// Simulated client count (≥ 1).
    pub clients: usize,
    /// Fault-arrival epochs to publish after the initial one.
    pub epochs: u64,
    /// Queries per client per epoch (≥ 1).
    pub queries_per_client: usize,
    /// Decisions the writer warms into the cache before each publish.
    pub warm_per_epoch: usize,
    /// Store shard count.
    pub shards: usize,
    /// Snapshots retained per tenant.
    pub retain: usize,
    /// Worker threads for the client phases (≥ 1).
    pub threads: usize,
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Replay every response against a fresh `Scenario` (slow; smoke/CI).
    pub verify: bool,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            mesh: 32,
            tenants: 4,
            clients: 64,
            epochs: 4,
            queries_per_client: 32,
            warm_per_epoch: 4,
            shards: 4,
            retain: 8,
            threads: 1,
            seed: 0x00c0_4f04_2d5e_ed00,
            verify: false,
        }
    }
}

/// What one run produced. Every field is deterministic in `(seed, config
/// minus threads minus shards)`; the determinism regression test compares
/// whole reports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadReport {
    /// Total queries sent (route + safety + reach).
    pub queries: u64,
    /// Error responses (0 for a well-formed run).
    pub errors: u64,
    /// Route responses.
    pub routed: u64,
    /// Safety responses.
    pub safety: u64,
    /// Reach responses.
    pub reached: u64,
    /// Route decisions that guaranteed a minimal path.
    pub minimal: u64,
    /// Route decisions that guaranteed a sub-minimal path.
    pub sub_minimal: u64,
    /// Route queries where no local sufficient condition fired.
    pub no_decision: u64,
    /// FNV-1a fold of every response's wire bytes, in (epoch, client)
    /// order. Bit-identical across thread and shard counts.
    pub checksum: u64,
    /// Epochs published per tenant (including epoch 0).
    pub epochs_published: u64,
    /// Snapshots retained at the end (max over tenants).
    pub epochs_retained: u64,
    /// Approximate bytes of the latest snapshot (max over tenants).
    pub approx_snapshot_bytes: u64,
    /// Memo entries exported into the latest snapshots (sum).
    pub memo_entries: u64,
    /// Responses that failed differential verification (only counted
    /// with `verify`; must be 0).
    pub verify_failures: u64,
}

/// Per-client tally, merged in client order.
#[derive(Debug, Clone)]
struct ClientTally {
    digest: u64,
    queries: u64,
    errors: u64,
    routed: u64,
    safety: u64,
    reached: u64,
    minimal: u64,
    sub_minimal: u64,
    no_decision: u64,
    verify_failures: u64,
}

/// The per-tenant ground-truth mirror the generator maintains: the fault
/// set prefix at every published epoch, and the retained window.
struct TenantMirror {
    name: String,
    mesh: Mesh,
    faults: BTreeSet<Coord>,
    working_epoch: Epoch,
    /// Retained published epochs, oldest first (mirrors store eviction).
    retained: VecDeque<Epoch>,
    /// Fault prefix at each published epoch (kept for verification).
    prefixes: BTreeMap<Epoch, Arc<Vec<Coord>>>,
}

impl TenantMirror {
    fn latest(&self) -> Epoch {
        self.retained.back().copied().unwrap_or(0)
    }
}

/// Runs the full load: registers tenants, then alternates writer and
/// client phases per epoch, and aggregates the report.
pub fn run(cfg: &LoadConfig) -> LoadReport {
    let cfg = sanitized(cfg);
    let store = Arc::new(Store::new(StoreConfig {
        shards: cfg.shards,
        retain: cfg.retain,
    }));
    let client = LoopbackClient::new(Arc::clone(&store));
    let mesh = Mesh::square(cfg.mesh);

    let mut mirrors = register_tenants(&cfg, &client, mesh);

    let mut report = LoadReport {
        queries: 0,
        errors: 0,
        routed: 0,
        safety: 0,
        reached: 0,
        minimal: 0,
        sub_minimal: 0,
        no_decision: 0,
        checksum: FNV_OFFSET,
        epochs_published: 1,
        epochs_retained: 0,
        approx_snapshot_bytes: 0,
        memo_entries: 0,
        verify_failures: 0,
    };

    for epoch in 0..=cfg.epochs {
        if epoch > 0 {
            writer_phase(&cfg, &client, epoch, &mut mirrors);
            report.epochs_published += 1;
        }
        for tally in client_phase(&cfg, &client, epoch, &mirrors) {
            report.checksum = fnv1a64_u64(report.checksum, tally.digest);
            report.queries += tally.queries;
            report.errors += tally.errors;
            report.routed += tally.routed;
            report.safety += tally.safety;
            report.reached += tally.reached;
            report.minimal += tally.minimal;
            report.sub_minimal += tally.sub_minimal;
            report.no_decision += tally.no_decision;
            report.verify_failures += tally.verify_failures;
        }
    }

    for mirror in &mirrors {
        let resp = client.send_one(&Request::Stats(SnapshotStats {
            mesh: mirror.name.clone(),
        }));
        if let Response::Stats(stats) = resp {
            report.epochs_retained = report.epochs_retained.max(stats.epochs_retained);
            report.approx_snapshot_bytes = report
                .approx_snapshot_bytes
                .max(stats.approx_snapshot_bytes);
            report.memo_entries += stats.memo_entries;
        }
    }

    report
}

fn sanitized(cfg: &LoadConfig) -> LoadConfig {
    LoadConfig {
        mesh: cfg.mesh.max(1),
        tenants: cfg.tenants.max(1),
        clients: cfg.clients.max(1),
        queries_per_client: cfg.queries_per_client.max(1),
        threads: cfg.threads.max(1),
        ..*cfg
    }
}

fn tenant_name(t: usize) -> String {
    format!("tenant-{t}")
}

fn register_tenants(cfg: &LoadConfig, client: &LoopbackClient, mesh: Mesh) -> Vec<TenantMirror> {
    (0..cfg.tenants)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, SALT_INIT, t as u64, 0));
            let count = usize::try_from(cfg.mesh)
                .unwrap_or(0)
                .min(mesh.node_count() / 5);
            let faults: Vec<Coord> = inject::uniform(mesh, count, &[], &mut rng).iter().collect();
            let name = tenant_name(t);
            let resp = client.send_one(&Request::Register(RegisterMesh {
                mesh: name.clone(),
                width: mesh.width(),
                height: mesh.height(),
                faults: faults.clone(),
            }));
            assert!(
                matches!(resp, Response::Registered(_)),
                "register failed: {resp:?}"
            );
            let mut retained = VecDeque::new();
            retained.push_back(0);
            let mut prefixes = BTreeMap::new();
            prefixes.insert(0, Arc::new(faults.clone()));
            TenantMirror {
                name,
                mesh,
                faults: faults.into_iter().collect(),
                working_epoch: 0,
                retained,
                prefixes,
            }
        })
        .collect()
}

/// The single-writer phase for one epoch: per tenant, inject one fresh
/// fault (when the mesh still has room), warm a few decisions, publish.
fn writer_phase(
    cfg: &LoadConfig,
    client: &LoopbackClient,
    epoch: Epoch,
    mirrors: &mut [TenantMirror],
) {
    for (t, mirror) in mirrors.iter_mut().enumerate() {
        let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, SALT_WRITER, t as u64, epoch));
        let mut batch = Vec::new();
        let side = cfg.mesh;
        let fault = (0..8 * side.max(4))
            .map(|_| Coord::new(rng.gen_range(0..side), rng.gen_range(0..side)))
            .find(|c| !mirror.faults.contains(c));
        if let Some(c) = fault {
            batch.push(Request::Inject(InjectFault {
                mesh: mirror.name.clone(),
                fault: c,
            }));
            mirror.faults.insert(c);
        }
        for _ in 0..cfg.warm_per_epoch {
            let model = if rng.gen_bool(0.5) {
                Model::FaultBlock
            } else {
                Model::Mcc
            };
            batch.push(Request::Warm(WarmDecision {
                mesh: mirror.name.clone(),
                model,
                s: Coord::new(rng.gen_range(0..side), rng.gen_range(0..side)),
                d: Coord::new(rng.gen_range(0..side), rng.gen_range(0..side)),
            }));
        }
        batch.push(Request::Advance(AdvanceEpoch {
            mesh: mirror.name.clone(),
        }));
        let responses = client.send(&batch);
        if fault.is_some() {
            // Epoch discipline (A3): the mirror adopts the epoch the
            // server produced for the insert instead of deriving it
            // locally — epochs flow from the advance/publish sites and
            // are only ever compared.
            let Some(Response::Injected(inj)) = responses.first() else {
                panic!("inject failed: {:?}", responses.first());
            };
            mirror.working_epoch = inj.working_epoch;
        }
        let Some(Response::Published(published)) = responses.last() else {
            panic!("advance failed: {:?}", responses.last());
        };
        assert_eq!(
            published.epoch, mirror.working_epoch,
            "publish epoch diverged from the mirror"
        );
        if published.fresh {
            mirror.retained.push_back(published.epoch);
            while mirror.retained.len() > cfg.retain.max(1) {
                mirror.retained.pop_front();
            }
            mirror.prefixes.insert(
                published.epoch,
                Arc::new(mirror.faults.iter().copied().collect()),
            );
        }
    }
}

/// The parallel client phase for one epoch: fixed-size chunks of clients
/// claimed through an atomic cursor, merged in ascending client order.
fn client_phase(
    cfg: &LoadConfig,
    client: &LoopbackClient,
    epoch: Epoch,
    mirrors: &[TenantMirror],
) -> Vec<ClientTally> {
    let chunk_count = cfg.clients.div_ceil(CHUNK_CLIENTS);
    // emr-lint: allow(A2, "work-stealing cursor: claim order is nondeterministic but results are merged in ascending chunk order below")
    let cursor = AtomicUsize::new(0);
    let mut chunks: Vec<(usize, Vec<ClientTally>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cfg.threads.min(chunk_count).max(1))
            .map(|_| {
                let client = client.clone();
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut scenarios: BTreeMap<(usize, Epoch), Scenario> = BTreeMap::new();
                    loop {
                        let chunk = cursor.fetch_add(1, Ordering::Relaxed);
                        if chunk >= chunk_count {
                            return out;
                        }
                        let lo = chunk * CHUNK_CLIENTS;
                        let hi = (lo + CHUNK_CLIENTS).min(cfg.clients);
                        let tallies: Vec<ClientTally> = (lo..hi)
                            .map(|c| run_client(cfg, &client, epoch, c, mirrors, &mut scenarios))
                            .collect();
                        out.push((chunk, tallies));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| match w.join() {
                Ok(chunks) => chunks,
                Err(e) => std::panic::resume_unwind(e),
            })
            .collect()
    });
    chunks.sort_by_key(|&(chunk, _)| chunk);
    chunks.into_iter().flat_map(|(_, t)| t).collect()
}

/// One client's batch for one epoch: build the query batch from the
/// client's derived stream, send it over the wire, checksum and tally
/// the responses (optionally verifying each against a fresh scenario).
fn run_client(
    cfg: &LoadConfig,
    client: &LoopbackClient,
    epoch: Epoch,
    c: usize,
    mirrors: &[TenantMirror],
    scenarios: &mut BTreeMap<(usize, Epoch), Scenario>,
) -> ClientTally {
    let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, SALT_CLIENT, c as u64, epoch));
    let side = cfg.mesh;
    let coord = |rng: &mut StdRng| Coord::new(rng.gen_range(0..side), rng.gen_range(0..side));
    let mut reqs = Vec::with_capacity(cfg.queries_per_client);
    let mut targets = Vec::with_capacity(cfg.queries_per_client);
    for _ in 0..cfg.queries_per_client {
        let t = rng.gen_range(0..mirrors.len());
        let mirror = &mirrors[t];
        // 30% pin a random retained epoch, else the latest — half the
        // time implicitly (None), half explicitly.
        let at_epoch = if rng.gen_bool(0.3) {
            let i = rng.gen_range(0..mirror.retained.len());
            Some(mirror.retained[i])
        } else if rng.gen_bool(0.5) {
            None
        } else {
            Some(mirror.latest())
        };
        let model = if rng.gen_bool(0.5) {
            Model::FaultBlock
        } else {
            Model::Mcc
        };
        let name = mirror.name.clone();
        let req = match rng.gen_range(0..4u8) {
            0 | 1 => Request::Route(RouteQuery {
                mesh: name,
                at_epoch,
                model,
                s: coord(&mut rng),
                d: coord(&mut rng),
            }),
            2 => Request::Safety(SafetyQuery {
                mesh: name,
                at_epoch,
                model,
                at: coord(&mut rng),
            }),
            _ => Request::Reach(ReachQuery {
                mesh: name,
                at_epoch,
                s: coord(&mut rng),
                d: coord(&mut rng),
            }),
        };
        targets.push(t);
        reqs.push(req);
    }

    let responses = client.send(&reqs);

    let mut tally = ClientTally {
        digest: FNV_OFFSET,
        queries: reqs.len() as u64,
        errors: 0,
        routed: 0,
        safety: 0,
        reached: 0,
        minimal: 0,
        sub_minimal: 0,
        no_decision: 0,
        verify_failures: 0,
    };
    for (i, resp) in responses.iter().enumerate() {
        let wire = serde_json::to_string(resp)
            .unwrap_or_else(|e| panic!("unserializable response: {e:?}"));
        tally.digest = fnv1a64(tally.digest, wire.as_bytes());
        match resp {
            Response::Routed(r) => {
                tally.routed += 1;
                match r.decision {
                    Some(Ensured::Minimal(_)) => tally.minimal += 1,
                    Some(Ensured::SubMinimal(_)) => tally.sub_minimal += 1,
                    None => tally.no_decision += 1,
                }
            }
            Response::Safety(_) => tally.safety += 1,
            Response::Reached(_) => tally.reached += 1,
            _ => tally.errors += 1,
        }
        if cfg.verify && !verify_response(&reqs[i], resp, targets[i], mirrors, scenarios) {
            tally.verify_failures += 1;
        }
    }
    tally
}

/// Differentially replays one served response against a fresh
/// [`Scenario`] built from the fault prefix of the response's epoch.
fn verify_response(
    req: &Request,
    resp: &Response,
    tenant: usize,
    mirrors: &[TenantMirror],
    scenarios: &mut BTreeMap<(usize, Epoch), Scenario>,
) -> bool {
    let mirror = &mirrors[tenant];
    let (epoch, ok) = match (req, resp) {
        (Request::Route(q), Response::Routed(r)) => {
            let Some(sc) = scenario_at(mirror, tenant, r.epoch, scenarios) else {
                return false;
            };
            (
                r.epoch,
                decide_local(&sc.view(q.model), q.s, q.d) == r.decision,
            )
        }
        (Request::Safety(q), Response::Safety(r)) => {
            let Some(sc) = scenario_at(mirror, tenant, r.epoch, scenarios) else {
                return false;
            };
            let level = match q.model {
                Model::FaultBlock => sc.block_safety_map().level(q.at),
                Model::Mcc => sc.mcc_safety_map(MccType::One).level(q.at),
            };
            (r.epoch, level == r.level)
        }
        (Request::Reach(q), Response::Reached(r)) => {
            let Some(sc) = scenario_at(mirror, tenant, r.epoch, scenarios) else {
                return false;
            };
            let expect = minimal_path_exists_packed(q.s, q.d, sc.faults().packed());
            (r.epoch, expect == r.reachable)
        }
        _ => return false,
    };
    // A pinned query must be answered at exactly its pinned epoch.
    let pinned = match req {
        Request::Route(q) => q.at_epoch,
        Request::Safety(q) => q.at_epoch,
        Request::Reach(q) => q.at_epoch,
        _ => None,
    };
    ok && pinned.is_none_or(|e| e == epoch)
}

/// The fresh scenario for a tenant's published epoch, cached per worker.
fn scenario_at<'a>(
    mirror: &TenantMirror,
    tenant: usize,
    epoch: Epoch,
    scenarios: &'a mut BTreeMap<(usize, Epoch), Scenario>,
) -> Option<&'a Scenario> {
    if let std::collections::btree_map::Entry::Vacant(slot) = scenarios.entry((tenant, epoch)) {
        let prefix = mirror.prefixes.get(&epoch)?;
        let faults = FaultSet::from_coords(mirror.mesh, prefix.iter().copied());
        slot.insert(Scenario::build(faults));
    }
    scenarios.get(&(tenant, epoch))
}
