//! Extended minimal routing in 2-D meshes with faulty blocks — the core
//! library of the Wu & Jiang reproduction.
//!
//! Given a mesh with faulty nodes, this crate answers the paper's central
//! question: **can the source guarantee a minimal (shortest) route to a
//! destination using only limited global fault information?** — and then
//! actually routes the packet.
//!
//! The pieces, in paper order:
//!
//! * [`SafetyLevel`] / [`SafetyMap`] — the extended safety level, a 4-tuple
//!   `(E, S, W, N)` of distances to the nearest faulty block per direction,
//! * [`Scenario`] / [`ModelView`] — one fault configuration decomposed
//!   under both fault models (faulty blocks and Wang's MCCs),
//! * [`conditions`] — the sufficient safe condition (Definition 3 /
//!   Theorem 1) and its three extensions (Theorems 1a, 1b, 1c) plus the
//!   four combined strategies of §5, each returning a routing *plan*
//!   witnessing why the route is guaranteed,
//! * [`BoundaryMap`] — faulty-block boundary information (lines L1–L4),
//! * [`route`] — Wu's protocol (the boundary-information router), the
//!   two-phase plan executor, and a global-information oracle router,
//! * [`ScenarioState`] / [`DecisionCache`] — the epoched dynamic-fault
//!   layer: faults arrive one at a time, every derived map is repaired
//!   incrementally, and per-pair decisions survive epochs that provably
//!   cannot affect them.
//!
//! # Quickstart
//!
//! ```
//! use emr_core::{conditions, route, Model, Scenario};
//! use emr_fault::{inject, FaultSet};
//! use emr_mesh::{Coord, Mesh};
//!
//! // A 32×32 mesh with a hand-placed block between source and destination.
//! let mesh = Mesh::square(32);
//! let faults = FaultSet::from_coords(
//!     mesh,
//!     [Coord::new(12, 12), Coord::new(13, 13), Coord::new(12, 14)],
//! );
//! let scenario = Scenario::build(faults);
//! let view = scenario.view(Model::FaultBlock);
//!
//! let (s, d) = (Coord::new(4, 4), Coord::new(24, 24));
//! // The source decides from its safety level that a minimal route exists…
//! let ensured = conditions::strategy4(&view, s, d).expect("route ensured");
//! // …and Wu's protocol finds one.
//! let boundary = scenario.boundary_map(Model::FaultBlock);
//! let path = route::execute(&view, &boundary, s, d, &ensured.plan()).unwrap();
//! assert!(path.is_minimal());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod boundary;
pub mod conditions;
pub mod route;
mod safety;
mod scenario;
mod state;

pub use boundary::BoundaryMap;
pub use conditions::{Ensured, RoutePlan};
pub use route::RouteError;
pub use safety::{SafetyLevel, SafetyMap};
pub use scenario::{Model, ModelView, Scenario};
pub use state::{decide_local, DecisionCache, Epoch, EpochDelta, ScenarioState};
