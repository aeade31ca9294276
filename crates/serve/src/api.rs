//! The wire-level request/response types.
//!
//! Everything that crosses the transport is serde-serializable and
//! transport-agnostic: the loopback transport JSON-encodes both
//! directions, so a socket transport could reuse these types unchanged.
//!
//! Shape note: the vendored serde derive supports unit and *tuple* enum
//! variants only, so every operation is a tuple variant wrapping a named
//! payload struct — `Request::Route(RouteQuery { .. })` rather than a
//! struct variant.
//!
//! Epoch semantics: every read query carries `at_epoch` —
//!
//! * `None` pins the query to the tenant's latest *published* epoch (the
//!   batch handler resolves each mesh once per batch, so all unpinned
//!   queries in one batch see the same epoch);
//! * `Some(e)` pins it to retained epoch `e`, answering
//!   [`ServeError::EpochNotRetained`] when `e` was evicted or never
//!   published.
//!
//! Writes (`InjectFault`) mutate the tenant's *working* state only;
//! nothing is observable by readers until an `AdvanceEpoch` publishes an
//! immutable snapshot of it.

use serde::{Deserialize, Serialize};

use emr_core::{Ensured, Epoch, Model, SafetyLevel};
use emr_mesh::Coord;

/// Registers a new tenant mesh under a name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegisterMesh {
    /// Tenant/mesh name; the shard key.
    pub mesh: String,
    /// Mesh width (≥ 1; `width × height` at most
    /// [`MAX_MESH_NODES`](crate::store::MAX_MESH_NODES)).
    pub width: i32,
    /// Mesh height (≥ 1).
    pub height: i32,
    /// Initial fault set (epoch 0), published immediately.
    pub faults: Vec<Coord>,
}

/// Asks for the routing decision for one `(s, d)` pair under one model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteQuery {
    /// Tenant name.
    pub mesh: String,
    /// Snapshot pin; `None` means the latest published epoch.
    pub at_epoch: Option<Epoch>,
    /// Fault model to decide under.
    pub model: Model,
    /// Source.
    pub s: Coord,
    /// Destination.
    pub d: Coord,
}

/// Asks for one node's extended safety level under one model (the MCC
/// model answers from the type-one labeling, the canonical
/// quadrant-I/III case: a query names a node, not a route).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SafetyQuery {
    /// Tenant name.
    pub mesh: String,
    /// Snapshot pin; `None` means the latest published epoch.
    pub at_epoch: Option<Epoch>,
    /// Fault model to read.
    pub model: Model,
    /// The node whose level is requested.
    pub at: Coord,
}

/// Asks whether a minimal path exists between two nodes with the raw
/// faulty nodes (not whole blocks) as obstacles.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReachQuery {
    /// Tenant name.
    pub mesh: String,
    /// Snapshot pin; `None` means the latest published epoch.
    pub at_epoch: Option<Epoch>,
    /// Source.
    pub s: Coord,
    /// Destination.
    pub d: Coord,
}

/// Records a newly failed node in the tenant's *working* state. Readers
/// keep seeing the published snapshots untouched until the next
/// [`AdvanceEpoch`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectFault {
    /// Tenant name.
    pub mesh: String,
    /// The failed node.
    pub fault: Coord,
}

/// Publishes the tenant's working state as a new immutable snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdvanceEpoch {
    /// Tenant name.
    pub mesh: String,
}

/// Pre-computes one routing decision into the tenant's writer-side
/// decision cache; provably fresh entries are exported into the memo of
/// every later published snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarmDecision {
    /// Tenant name.
    pub mesh: String,
    /// Fault model to decide under.
    pub model: Model,
    /// Source.
    pub s: Coord,
    /// Destination.
    pub d: Coord,
}

/// Asks for a tenant's snapshot-lifetime statistics.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotStats {
    /// Tenant name.
    pub mesh: String,
}

/// One request. Batches (`&[Request]`) are answered positionally: the
/// i-th response matches the i-th request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Request {
    /// Register a tenant mesh.
    Register(RegisterMesh),
    /// Routing decision query.
    Route(RouteQuery),
    /// Safety-level query.
    Safety(SafetyQuery),
    /// Minimal-reachability query.
    Reach(ReachQuery),
    /// Record a fault in the working state.
    Inject(InjectFault),
    /// Publish the working state as a snapshot.
    Advance(AdvanceEpoch),
    /// Pre-compute a decision into the writer-side cache.
    Warm(WarmDecision),
    /// Snapshot-lifetime statistics.
    Stats(SnapshotStats),
}

/// Successful [`Request::Register`] outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Registered {
    /// The published initial epoch (always 0).
    pub epoch: Epoch,
}

/// Successful [`Request::Route`] outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Routed {
    /// The snapshot epoch this answer was computed against.
    pub epoch: Epoch,
    /// The decision: a guaranteed plan, or `None` when no local
    /// sufficient condition fires for the pair.
    pub decision: Option<Ensured>,
}

/// Successful [`Request::Safety`] outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SafetyAnswer {
    /// The snapshot epoch this answer was computed against.
    pub epoch: Epoch,
    /// The node's extended safety level.
    pub level: SafetyLevel,
}

/// Successful [`Request::Reach`] outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Reached {
    /// The snapshot epoch this answer was computed against.
    pub epoch: Epoch,
    /// Whether a minimal fault-free path exists.
    pub reachable: bool,
}

/// Successful [`Request::Inject`] outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Injected {
    /// The working-state epoch after the insert (unpublished).
    pub working_epoch: Epoch,
    /// `false` when the node was already faulty (no state change).
    pub changed: bool,
}

/// Successful [`Request::Advance`] outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Published {
    /// The epoch now visible to readers.
    pub epoch: Epoch,
    /// `false` when the working epoch was already published (idempotent
    /// re-publish; no new snapshot was built).
    pub fresh: bool,
}

/// Successful [`Request::Warm`] outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Warmed {
    /// The working-state epoch the decision was cached at.
    pub working_epoch: Epoch,
    /// The decision that was cached.
    pub decision: Option<Ensured>,
}

/// Successful [`Request::Stats`] outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsReport {
    /// Current working-state epoch (possibly unpublished).
    pub working_epoch: Epoch,
    /// Latest published epoch.
    pub published_epoch: Epoch,
    /// Snapshots currently retained (eviction is oldest-first).
    pub epochs_retained: u64,
    /// Approximate heap bytes of the latest snapshot's packed maps.
    pub approx_snapshot_bytes: u64,
    /// Memoized decisions exported into the latest snapshot.
    pub memo_entries: u64,
    /// Faults in the latest published snapshot.
    pub faults: u64,
}

/// A failed request. Carried inside [`Response::Error`]; the batch keeps
/// processing subsequent requests.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServeError {
    /// No tenant registered under this name.
    UnknownMesh(String),
    /// `Register` for a name that already exists.
    AlreadyRegistered(String),
    /// `Register` with a non-positive dimension, or with more than
    /// [`MAX_MESH_NODES`](crate::store::MAX_MESH_NODES) nodes.
    BadMesh(String),
    /// A pinned epoch that is not retained (evicted or never published).
    EpochNotRetained(EpochWindow),
    /// A coordinate outside the tenant's mesh.
    OffMesh(Coord),
    /// A request batch that does not decode, with the parser's message.
    /// It answers the whole batch as a one-element batch.
    Malformed(String),
}

/// The retention window reported with [`ServeError::EpochNotRetained`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochWindow {
    /// The epoch the query asked for.
    pub requested: Epoch,
    /// Oldest retained epoch.
    pub oldest: Epoch,
    /// Latest retained (published) epoch.
    pub latest: Epoch,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownMesh(name) => write!(f, "unknown mesh {name:?}"),
            ServeError::AlreadyRegistered(name) => write!(f, "mesh {name:?} already registered"),
            ServeError::BadMesh(name) => write!(
                f,
                "mesh {name:?} has a non-positive dimension or more than {} nodes",
                crate::store::MAX_MESH_NODES
            ),
            ServeError::EpochNotRetained(w) => write!(
                f,
                "epoch {} not retained (window {}..={})",
                w.requested, w.oldest, w.latest
            ),
            ServeError::OffMesh(c) => write!(f, "coordinate {c} outside the mesh"),
            ServeError::Malformed(msg) => write!(f, "malformed request batch: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One response, positionally matched to its request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Response {
    /// Tenant registered.
    Registered(Registered),
    /// Routing decision.
    Routed(Routed),
    /// Safety level.
    Safety(SafetyAnswer),
    /// Reachability verdict.
    Reached(Reached),
    /// Fault recorded in the working state.
    Injected(Injected),
    /// Snapshot published.
    Published(Published),
    /// Decision cached writer-side.
    Warmed(Warmed),
    /// Snapshot-lifetime statistics.
    Stats(StatsReport),
    /// The request failed.
    Error(ServeError),
}
