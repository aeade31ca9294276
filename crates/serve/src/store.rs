//! The sharded, snapshot-isolated mesh-state store.
//!
//! Tenants (named meshes) hash by FNV-1a of their name onto a fixed set
//! of shards; each shard is an independently locked `BTreeMap` of
//! tenants. Per tenant the store keeps
//!
//! * a **working** [`ScenarioState`] + [`DecisionCache`] that the writer
//!   mutates through the incremental `insert_fault` path (relabeling
//!   and transposed columns repaired inside the changed rectangles), and
//! * a retention window of **published** epochs: immutable
//!   [`Snapshot`]s behind `Arc`, built by [`Request::Advance`].
//!
//! Readers resolve their snapshot `Arc` under a shard read lock and then
//! answer entirely lock-free, so a writer building epoch *e+1* never
//! blocks (or perturbs) readers of epoch *e*, and a published epoch is
//! either fully visible or not yet visible — there is no half-published
//! state to observe.
//!
//! Determinism: shard count only partitions the tenant map. A request
//! batch is processed strictly in order, every answer depends only on
//! the addressed tenant's state, and the shard hash never feeds into any
//! answer — so responses are bit-identical for any shard count, a
//! property both the snapshot-isolation proptests and the
//! `serve-matches-direct` conformance oracle pin.

use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use emr_core::{DecisionCache, Epoch, ScenarioState};
use emr_fault::FaultSet;
use emr_mesh::Mesh;

use crate::api::{
    AdvanceEpoch, EpochWindow, InjectFault, Injected, Published, RegisterMesh, Registered, Request,
    Response, ServeError, SnapshotStats, StatsReport, WarmDecision, Warmed,
};
use crate::hash::{fnv1a64, FNV_OFFSET};
use crate::snapshot::Snapshot;

/// The most nodes a registered mesh may have: 4096², the largest mesh
/// the construction pipeline is sized for (DESIGN § Scale). `Register`
/// answers [`ServeError::BadMesh`] above it, before any map is allocated
/// or any lock taken.
pub const MAX_MESH_NODES: i64 = 1 << 24;

/// Store sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Shard count (≥ 1; clamped). Partitions tenants for lock
    /// granularity only — never observable in any response.
    pub shards: usize,
    /// Published epochs retained per tenant (≥ 1; clamped). Eviction is
    /// oldest-first at publish time.
    pub retain: usize,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            shards: 4,
            retain: 8,
        }
    }
}

#[derive(Default)]
struct Shard {
    tenants: BTreeMap<String, Tenant>,
}

struct Tenant {
    working: ScenarioState,
    cache: DecisionCache,
    published: BTreeMap<Epoch, Arc<Snapshot>>,
}

impl Tenant {
    fn latest(&self) -> Option<&Arc<Snapshot>> {
        self.published.last_key_value().map(|(_, snap)| snap)
    }

    fn latest_epoch(&self) -> Epoch {
        self.published.last_key_value().map_or(0, |(&e, _)| e)
    }
}

/// The sharded snapshot store. Shared across threads behind an `Arc`;
/// all methods take `&self`.
pub struct Store {
    config: StoreConfig,
    shards: Vec<RwLock<Shard>>,
}

impl Store {
    /// An empty store with `config.shards` shards.
    pub fn new(config: StoreConfig) -> Store {
        let config = StoreConfig {
            shards: config.shards.max(1),
            retain: config.retain.max(1),
        };
        Store {
            config,
            shards: (0..config.shards).map(|_| RwLock::default()).collect(),
        }
    }

    /// The (clamped) configuration.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// The shard a mesh name lives on (deterministic FNV-1a).
    pub fn shard_index(&self, mesh: &str) -> usize {
        usize::try_from(fnv1a64(FNV_OFFSET, mesh.as_bytes()) % self.shards.len() as u64)
            .unwrap_or(0)
    }

    /// Answers one request (a batch of one).
    pub fn handle(&self, req: &Request) -> Response {
        self.handle_batch(std::slice::from_ref(req))
            .pop()
            .unwrap_or(Response::Error(ServeError::UnknownMesh(String::new())))
    }

    /// Answers a batch of requests, strictly in order.
    ///
    /// Unpinned reads (`at_epoch: None`) are **batch-pinned**: the first
    /// unpinned read of a mesh resolves its latest published snapshot,
    /// and every later unpinned read of the same mesh in this batch
    /// answers from that same snapshot — one batch, one epoch per mesh,
    /// even if a concurrent (or in-batch) writer publishes meanwhile.
    pub fn handle_batch(&self, reqs: &[Request]) -> Vec<Response> {
        let mut pins: BTreeMap<String, Arc<Snapshot>> = BTreeMap::new();
        reqs.iter()
            .map(|req| match req {
                Request::Register(r) => self.register(r),
                Request::Inject(r) => self.inject(r),
                Request::Advance(r) => self.advance(r),
                Request::Warm(r) => self.warm(r),
                Request::Stats(r) => self.stats(r),
                Request::Route(r) => match self.pinned(&r.mesh, r.at_epoch, &mut pins) {
                    Err(e) => Response::Error(e),
                    Ok(snap) => match snap.route(r.model, r.s, r.d) {
                        Err(e) => Response::Error(e),
                        Ok(decision) => Response::Routed(crate::api::Routed {
                            epoch: snap.epoch(),
                            decision,
                        }),
                    },
                },
                Request::Safety(r) => match self.pinned(&r.mesh, r.at_epoch, &mut pins) {
                    Err(e) => Response::Error(e),
                    Ok(snap) => match snap.safety(r.model, r.at) {
                        Err(e) => Response::Error(e),
                        Ok(level) => Response::Safety(crate::api::SafetyAnswer {
                            epoch: snap.epoch(),
                            level,
                        }),
                    },
                },
                Request::Reach(r) => match self.pinned(&r.mesh, r.at_epoch, &mut pins) {
                    Err(e) => Response::Error(e),
                    Ok(snap) => match snap.reach(r.s, r.d) {
                        Err(e) => Response::Error(e),
                        Ok(reachable) => Response::Reached(crate::api::Reached {
                            epoch: snap.epoch(),
                            reachable,
                        }),
                    },
                },
            })
            .collect()
    }

    /// Resolves the snapshot a read answers from: the pinned epoch, or
    /// the batch-pinned latest snapshot for `at_epoch: None`.
    fn pinned(
        &self,
        mesh: &str,
        at_epoch: Option<Epoch>,
        pins: &mut BTreeMap<String, Arc<Snapshot>>,
    ) -> Result<Arc<Snapshot>, ServeError> {
        if let Some(e) = at_epoch {
            return self.snapshot_at(mesh, e);
        }
        if let Some(snap) = pins.get(mesh) {
            return Ok(Arc::clone(snap));
        }
        let snap = self.latest_snapshot(mesh)?;
        pins.insert(mesh.to_string(), Arc::clone(&snap));
        Ok(snap)
    }

    /// The latest published snapshot of `mesh`.
    pub fn latest_snapshot(&self, mesh: &str) -> Result<Arc<Snapshot>, ServeError> {
        let shard = self.read_shard(mesh);
        let tenant = tenant_of(&shard, mesh)?;
        tenant
            .latest()
            .cloned()
            .ok_or_else(|| ServeError::UnknownMesh(mesh.to_string()))
    }

    /// The retained snapshot of `mesh` at exactly epoch `e`.
    pub fn snapshot_at(&self, mesh: &str, e: Epoch) -> Result<Arc<Snapshot>, ServeError> {
        let shard = self.read_shard(mesh);
        let tenant = tenant_of(&shard, mesh)?;
        tenant.published.get(&e).cloned().ok_or_else(|| {
            ServeError::EpochNotRetained(EpochWindow {
                requested: e,
                oldest: tenant.published.keys().next().copied().unwrap_or(0),
                latest: tenant.latest_epoch(),
            })
        })
    }

    fn register(&self, r: &RegisterMesh) -> Response {
        let nodes = i64::from(r.width) * i64::from(r.height);
        if r.width < 1 || r.height < 1 || nodes > MAX_MESH_NODES {
            return Response::Error(ServeError::BadMesh(r.mesh.clone()));
        }
        let mesh = Mesh::new(r.width, r.height);
        if let Some(&c) = r.faults.iter().find(|&&c| !mesh.contains(c)) {
            return Response::Error(ServeError::OffMesh(c));
        }
        let mut shard = self.write_shard(&r.mesh);
        if shard.tenants.contains_key(&r.mesh) {
            return Response::Error(ServeError::AlreadyRegistered(r.mesh.clone()));
        }
        let working = ScenarioState::new(FaultSet::from_coords(mesh, r.faults.iter().copied()));
        let cache = DecisionCache::new();
        let snapshot = Arc::new(Snapshot::capture(&working, &cache));
        let epoch = snapshot.epoch();
        let mut published = BTreeMap::new();
        published.insert(epoch, snapshot);
        shard.tenants.insert(
            r.mesh.clone(),
            Tenant {
                working,
                cache,
                published,
            },
        );
        Response::Registered(Registered { epoch })
    }

    fn inject(&self, r: &InjectFault) -> Response {
        let mut shard = self.write_shard(&r.mesh);
        let tenant = match tenant_mut(&mut shard, &r.mesh) {
            Ok(t) => t,
            Err(e) => return Response::Error(e),
        };
        if !tenant.working.mesh().contains(r.fault) {
            return Response::Error(ServeError::OffMesh(r.fault));
        }
        let changed = tenant.working.insert_fault(r.fault).is_some();
        Response::Injected(Injected {
            working_epoch: tenant.working.epoch(),
            changed,
        })
    }

    fn advance(&self, r: &AdvanceEpoch) -> Response {
        let mut shard = self.write_shard(&r.mesh);
        let tenant = match tenant_mut(&mut shard, &r.mesh) {
            Ok(t) => t,
            Err(e) => return Response::Error(e),
        };
        let epoch = tenant.working.epoch();
        if tenant.published.contains_key(&epoch) {
            return Response::Published(Published {
                epoch,
                fresh: false,
            });
        }
        let snapshot = Arc::new(Snapshot::capture(&tenant.working, &tenant.cache));
        tenant.published.insert(epoch, snapshot);
        while tenant.published.len() > self.config.retain {
            tenant.published.pop_first();
        }
        Response::Published(Published { epoch, fresh: true })
    }

    fn warm(&self, r: &WarmDecision) -> Response {
        let mut shard = self.write_shard(&r.mesh);
        let tenant = match tenant_mut(&mut shard, &r.mesh) {
            Ok(t) => t,
            Err(e) => return Response::Error(e),
        };
        let mesh = tenant.working.mesh();
        if let Some(&c) = [r.s, r.d].iter().find(|&&c| !mesh.contains(c)) {
            return Response::Error(ServeError::OffMesh(c));
        }
        let Tenant { working, cache, .. } = tenant;
        let decision = cache.decide(working, r.model, r.s, r.d);
        Response::Warmed(Warmed {
            working_epoch: working.epoch(),
            decision,
        })
    }

    fn stats(&self, r: &SnapshotStats) -> Response {
        let shard = self.read_shard(&r.mesh);
        let tenant = match tenant_of(&shard, &r.mesh) {
            Ok(t) => t,
            Err(e) => return Response::Error(e),
        };
        let latest = tenant.latest();
        Response::Stats(StatsReport {
            working_epoch: tenant.working.epoch(),
            published_epoch: tenant.latest_epoch(),
            epochs_retained: tenant.published.len() as u64,
            approx_snapshot_bytes: latest.map_or(0, |s| s.approx_bytes()),
            memo_entries: latest.map_or(0, |s| s.memo_len() as u64),
            faults: latest.map_or(0, |s| s.scenario().faults().len() as u64),
        })
    }

    fn read_shard(&self, mesh: &str) -> RwLockReadGuard<'_, Shard> {
        // emr-lint: allow(A1, "shard_index is hash % shards.len(), always in range; shards is never empty")
        self.shards[self.shard_index(mesh)]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn write_shard(&self, mesh: &str) -> RwLockWriteGuard<'_, Shard> {
        // emr-lint: allow(A1, "shard_index is hash % shards.len(), always in range; shards is never empty")
        self.shards[self.shard_index(mesh)]
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

fn tenant_of<'a>(shard: &'a Shard, mesh: &str) -> Result<&'a Tenant, ServeError> {
    shard
        .tenants
        .get(mesh)
        .ok_or_else(|| ServeError::UnknownMesh(mesh.to_string()))
}

fn tenant_mut<'a>(
    shard: &'a mut RwLockWriteGuard<'_, Shard>,
    mesh: &str,
) -> Result<&'a mut Tenant, ServeError> {
    shard
        .tenants
        .get_mut(mesh)
        .ok_or_else(|| ServeError::UnknownMesh(mesh.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn register(width: i32, height: i32) -> Response {
        Store::new(StoreConfig::default()).handle(&Request::Register(RegisterMesh {
            mesh: "m".to_string(),
            width,
            height,
            faults: Vec::new(),
        }))
    }

    #[test]
    fn oversized_register_answers_bad_mesh_before_allocating() {
        for (width, height) in [
            (1 << 20, 1 << 20),
            (i32::MAX, 1),
            (i32::MAX, i32::MAX),
            (4097, 4096),
            (0, 4),
            (4, -1),
        ] {
            assert_eq!(
                register(width, height),
                Response::Error(ServeError::BadMesh("m".to_string())),
                "{width}x{height}"
            );
        }
        assert!(matches!(register(16, 16), Response::Registered(_)));
    }
}
