//! `emr2d` — extended minimal routing in 2-D meshes with faulty blocks.
//!
//! A full reproduction of Wu & Jiang, *"Extended Minimal Routing in 2-D
//! Meshes with Faulty Blocks"* (ICDCS 2002 / IJHPCN 2004): the faulty-block
//! and MCC fault models, extended safety levels, the sufficient safe
//! condition and its three extensions, the combined routing strategies,
//! boundary-information distribution, Wu's routing protocol, the
//! distributed information protocols, and the complete evaluation harness.
//!
//! This facade re-exports the workspace crates under stable paths:
//!
//! * [`mesh`] — 2-D mesh geometry (`emr-mesh`),
//! * [`fault`] — fault injection, blocks, MCCs, oracles (`emr-fault`),
//! * [`distsim`] — the message-passing simulator (`emr-distsim`),
//! * [`core`] — safety levels, conditions, routing (`emr-core`),
//! * [`analysis`] — Theorem 2, statistics, the sweep harness
//!   (`emr-analysis`),
//! * [`mesh3`] — the 3-D extension the paper lists as future work
//!   (`emr-mesh3`),
//! * [`netsim`] — the packet-level network simulator (`emr-netsim`),
//! * [`conform`] — the cross-layer conformance harness: seeded scenario
//!   specs, the oracle table (including the epoched
//!   `state-matches-rebuild` oracle), and the shrinking counterexample
//!   runner (`emr-conform`),
//! * [`serve`] — routing-as-a-service: the sharded snapshot-isolated
//!   query server and its loopback wire transport (`emr-serve`),
//!
//! plus the most-used types at the top level.
//!
//! # Examples
//!
//! ```
//! use emr2d::prelude::*;
//!
//! let mesh = Mesh::square(16);
//! // A fault directly on the source's row makes it unsafe…
//! let faults = FaultSet::from_coords(mesh, [Coord::new(7, 2)]);
//! let scenario = Scenario::build(faults);
//! let view = scenario.view(Model::FaultBlock);
//! let (s, d) = (Coord::new(2, 2), Coord::new(13, 13));
//! assert!(emr2d::core::conditions::safe_source(&view, s, d).is_none());
//! assert!(emr2d::core::conditions::ext1(&view, s, d).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use emr_analysis as analysis;
pub use emr_conform as conform;
pub use emr_core as core;
pub use emr_distsim as distsim;
pub use emr_fault as fault;
pub use emr_mesh as mesh;
pub use emr_mesh3 as mesh3;
pub use emr_netsim as netsim;
pub use emr_serve as serve;

/// The types almost every user of the library needs.
pub mod prelude {
    pub use emr_core::{
        conditions::{RoutePlan, SegmentSize},
        route, BoundaryMap, Ensured, Model, SafetyLevel, SafetyMap, Scenario,
    };
    pub use emr_fault::{inject, BlockMap, FaultSet, MccMap, MccType};
    pub use emr_mesh::{Coord, Direction, Frame, Mesh, Path, Quadrant, Rect};
}
