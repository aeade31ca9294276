//! Packet-level synchronous network simulator.
//!
//! The paper evaluates its conditions at the *decision* level (does the
//! source know a minimal route exists?). This crate supplies the system
//! the decisions feed: a store-and-forward 2-D mesh network where many
//! packets are in flight at once, every node runs a per-hop routing
//! function, and directed links carry one packet per cycle (virtual
//! output queues, oldest-packet-first arbitration).
//!
//! * [`Router`] — the per-hop routing function interface, implemented
//!   by [`WuRouter`] (the paper's protocol, driven by boundary
//!   information via [`emr_core::route::wu_step`]), [`OracleRouter`]
//!   (global information), and the baselines below,
//! * [`Workload`] — generated traffic: strategy-4 witness plans, plus
//!   the saturation patterns ([`TrafficPattern`]: uniform / transpose /
//!   hotspot) with offered-load injection schedules,
//! * [`NetSim`] — the cycle-driven stepper: the pinned, cycle-accurate
//!   ground truth,
//! * [`EventSim`] — the event-driven core: a BTree-keyed event calendar,
//!   bit-packed per-direction link occupancy ([`LinkPlanes`]), and
//!   per-link virtual channels with deterministic round-robin
//!   allocation ([`VcTable`]); report-identical to [`NetSim`] at one
//!   virtual channel (the `netsim-event-matches-cycle` oracle), and the
//!   core that makes million-packet saturation runs finish in seconds,
//! * [`AdaptiveRouter`] — a Stroobant-style adaptive fault-tolerant
//!   deadlock-free baseline (escape-channel dimension order + adaptive
//!   minimal), with [`XyRouter`] — classic dimension-order routing that
//!   drops every packet whose L-path crosses a faulty block — as its
//!   sibling,
//! * [`DynamicRouter`] / [`EpochedWuRouter`] — mid-flight fault
//!   injection: scheduled node failures land while traffic is in flight,
//!   the router absorbs them through the incremental epoch machinery of
//!   [`emr_core::ScenarioState`], and surviving packets re-evaluate their
//!   next hop (delivered / rerouted / dropped accounting in
//!   [`SimReport`]).
//!
//! # Examples
//!
//! ```
//! use emr2d_netsim_doctest::*;
//! # mod emr2d_netsim_doctest {
//! #     pub use emr_core::{Model, Scenario};
//! #     pub use emr_fault::FaultSet;
//! #     pub use emr_mesh::{Coord, Mesh};
//! #     pub use emr_netsim::{NetSim, Packet, WuRouter};
//! # }
//! let mesh = Mesh::square(12);
//! let scenario = Scenario::build(FaultSet::from_coords(mesh, [Coord::new(6, 6)]));
//! let boundary = scenario.boundary_map(Model::FaultBlock);
//! let view = scenario.view(Model::FaultBlock);
//! let router = WuRouter::new(&view, &boundary);
//!
//! let mut sim = NetSim::new(mesh, router);
//! sim.inject(Packet::direct(Coord::new(1, 1), Coord::new(10, 10)), 0);
//! let report = sim.run_to_completion(1000).unwrap();
//! assert_eq!(report.delivered, 1);
//! assert_eq!(report.total_hops, 18); // minimal
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod dynamic;
mod event;
mod links;
mod packet;
mod router;
mod sim;
mod vc;
pub mod workload;

pub use adaptive::{AdaptiveRouter, XyRouter};
pub use dynamic::{DynamicRouter, EpochedWuRouter};
pub use event::EventSim;
pub use links::LinkPlanes;
pub use packet::{Packet, PacketId};
pub use router::{OracleRouter, Router, WuRouter};
pub use sim::{NetSim, PacketSink, SimError, SimReport};
pub use vc::VcTable;
pub use workload::{TrafficPattern, Workload};
