//! Analytical models, statistics, and the experiment harness.
//!
//! * [`affected`] — Theorem 2's analytical model for the expected number
//!   of affected rows/columns (rows intersecting a faulty block) and its
//!   simulated counterpart (the paper's Figure 7),
//! * [`stats`] — the small summary statistics the figures report,
//! * [`sweep`] — the shared trial harness: sweeps the fault count,
//!   generates scenarios exactly as §5 describes (source at the mesh
//!   center, destination uniform in the first-quadrant submesh, endpoints
//!   outside every faulty block), and accumulates per-series percentages,
//! * [`loadsweep`] — the saturation driver: offered-load sweeps of the
//!   event-driven network core across traffic patterns and routers, with
//!   mid-flight fault injection (bit-identical for any thread count),
//! * [`pool()`] — the deterministic chunked trial pool both sweeps and
//!   the conformance runner run on, the workspace's one home for
//!   trial-level parallelism.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affected;
pub mod loadsweep;
mod pool;
pub mod stats;
pub mod sweep;

pub use loadsweep::{LoadSweepConfig, RouterKind};
pub use pool::pool;
pub use sweep::{SeriesTable, SweepConfig};
