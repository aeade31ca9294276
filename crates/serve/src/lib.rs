//! Routing-as-a-service: a sharded, snapshot-isolated query server over
//! the epoched scenario state.
//!
//! The paper's premise is that precomputed safety information lets
//! routing decisions be made *locally* while fault information keeps
//! changing. This crate turns that into a serving architecture:
//!
//! * [`store`] — tenants (named meshes) sharded by FNV-1a over a fixed
//!   shard set; per tenant a mutable **working**
//!   [`emr_core::ScenarioState`] + [`emr_core::DecisionCache`] and a
//!   retention window of **published** epochs as `Arc`-shared immutable
//!   [`snapshot::Snapshot`]s. Readers resolve an `Arc` under a shard
//!   read lock and answer lock-free; a writer repairs epoch *e+1*
//!   incrementally (`insert_fault` + transposed-column repairs) and publishes
//!   it atomically, so epoch *e* keeps serving bit-identically
//!   throughout — there is no observable half-published state.
//! * [`api`] — the batched wire types: `Route`/`Safety`/`Reach` reads
//!   (epoch-pinnable), `Inject`/`Advance`/`Warm` writes, `Register`,
//!   `Stats`, and typed errors.
//! * [`loopback`] — the in-process transport; both directions cross a
//!   real JSON wire boundary.
//! * [`snapshot`], [`hash`] — the immutable epoch capture and the
//!   deterministic FNV-1a helpers.
//!
//! Conformance: the `serve-matches-direct` oracle in `emr-conform`
//! replays every response of a served session — Routes answered from a
//! `Warm`ed memo included — against a freshly built
//! [`emr_core::Scenario`] at the same epoch, and the snapshot-isolation
//! property tests in `tests/` pin the no-torn-reads, epoch-stability,
//! and shard-invariance guarantees.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use emr_serve::api::{RegisterMesh, Request, Response, RouteQuery};
//! use emr_serve::{LoopbackClient, Store, StoreConfig};
//! use emr_core::Model;
//! use emr_mesh::Coord;
//!
//! let client = LoopbackClient::new(Arc::new(Store::new(StoreConfig::default())));
//! let responses = client.send(&[
//!     Request::Register(RegisterMesh {
//!         mesh: "prod".into(),
//!         width: 16,
//!         height: 16,
//!         faults: vec![Coord::new(7, 2)],
//!     }),
//!     Request::Route(RouteQuery {
//!         mesh: "prod".into(),
//!         at_epoch: None,
//!         model: Model::FaultBlock,
//!         s: Coord::new(2, 2),
//!         d: Coord::new(13, 13),
//!     }),
//! ]);
//! assert!(matches!(responses[1], Response::Routed(_)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod hash;
pub mod loopback;
pub mod snapshot;
pub mod store;

pub use api::{Request, Response, ServeError};
pub use loopback::LoopbackClient;
pub use snapshot::Snapshot;
pub use store::{Store, StoreConfig};
