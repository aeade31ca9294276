//! Packet-level synchronous network simulator.
//!
//! The paper evaluates its conditions at the *decision* level (does the
//! source know a minimal route exists?). This crate supplies the system
//! the decisions feed: a store-and-forward 2-D mesh network where many
//! packets are in flight at once, every node runs a per-hop routing
//! function, and directed links carry one packet per cycle (virtual
//! output queues, oldest-packet-first arbitration).
//!
//! * [`Router`] / [`DynamicRouter`] — the per-hop routing function
//!   interface, and the failures every router absorbs mid-run: scheduled
//!   node failures land while traffic is in flight, the router repairs
//!   its fault knowledge, and surviving packets re-evaluate their next
//!   hop (delivered / rerouted / dropped accounting in [`SimReport`]),
//! * [`EpochedWuRouter`] — the paper's protocol, driven by boundary
//!   information via [`emr_core::route::wu_step`] and walked a leg at a
//!   time via [`emr_core::route::wu_walk`], over an owned
//!   [`emr_core::ScenarioState`] that absorbs each failure through the
//!   incremental epoch machinery; [`OracleRouter`] (global information)
//!   absorbs failures the same way,
//! * [`Workload`] — generated traffic, from one generator,
//!   [`Workload::offered_load`]: a [`TrafficPattern`] (uniform /
//!   transpose / hotspot) under an offered-load injection schedule,
//! * [`Packet::ensured`] — strategy-4 admission: the packet carrying its
//!   witness plan when [`emr_core::conditions::strategy4`] ensures a
//!   minimal route, so an admitted subset of a batch never fails,
//! * [`NetSim`] — the cycle-driven stepper: the pinned, cycle-accurate
//!   ground truth,
//! * [`EventSim`] — the event-driven core: BTree-keyed calendars of
//!   injections and failures, routes each flight walks ahead to the next
//!   failure, and one pass per cycle with one claim bit per directed
//!   link; report-identical to [`NetSim`] (the
//!   `netsim-event-matches-cycle` oracle), and the core that makes
//!   million-packet saturation runs finish in seconds,
//! * [`AdaptiveRouter`] — a Stroobant-style adaptive fault-tolerant
//!   baseline (adaptive minimal hops + forced dimension-order detours
//!   around fault rectangles), with [`XyRouter`] — classic
//!   dimension-order routing that drops every packet whose L-path
//!   crosses a faulty block — as its sibling.
//!
//! Each core has one per-cycle entry point, `step_dynamic`, and one run
//! loop, `run_dynamic_to_completion`; a run with no failure scheduled
//! routes over the fault set its router was built with.
//!
//! # Examples
//!
//! ```
//! use emr2d_netsim_doctest::*;
//! # mod emr2d_netsim_doctest {
//! #     pub use emr_core::{Model, ScenarioState};
//! #     pub use emr_fault::FaultSet;
//! #     pub use emr_mesh::{Coord, Mesh};
//! #     pub use emr_netsim::{EpochedWuRouter, NetSim, Packet};
//! # }
//! let mesh = Mesh::square(12);
//! let state = ScenarioState::new(FaultSet::from_coords(mesh, [Coord::new(6, 6)]));
//! let router = EpochedWuRouter::new(state, Model::FaultBlock);
//!
//! let mut sim = NetSim::new(mesh, router);
//! sim.inject(Packet::direct(Coord::new(1, 1), Coord::new(10, 10)), 0);
//! let report = sim.run_dynamic_to_completion(1000).unwrap();
//! assert_eq!(report.delivered, 1);
//! assert_eq!(report.total_hops, 18); // minimal
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod dynamic;
mod event;
mod packet;
mod router;
mod sim;
pub mod workload;

pub use adaptive::{AdaptiveRouter, XyRouter};
pub use dynamic::{DynamicRouter, EpochedWuRouter};
pub use event::EventSim;
pub use packet::Packet;
pub use router::{OracleRouter, Router};
pub use sim::{NetSim, PacketSink, SimError, SimReport};
pub use workload::{TrafficPattern, Workload};
