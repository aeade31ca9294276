//! Cross-layer differential conformance harness.
//!
//! The workspace carries five independent implementations of "can `s`
//! reach `d` minimally": the exact reachability DP (`emr_fault::reach`),
//! Wang's coverage condition (`emr_fault::coverage`), the sufficient
//! conditions plus Wu routing (`emr-core`), the distributed protocol stack
//! (`emr-distsim`), and the packet simulator (`emr-netsim`) — plus the
//! 3-D re-derivation (`emr-mesh3`). The paper's structure says exactly how
//! they must relate (sufficient ⇒ exact; coverage ⇔ exact; routing
//! realizes what conditions promise; protocols converge to the
//! centralized maps). This crate checks that lattice on seeded random
//! scenarios and, on failure, shrinks the scenario to a minimal
//! counterexample and writes a self-contained JSON reproduction.
//!
//! * [`spec`] — single-seed scenario expansion (splitmix64 derivation),
//! * [`oracles`] — the declarative oracle table ([`oracles::ORACLES`]),
//! * [`mod@shrink`] — greedy counterexample minimization,
//! * [`runner`] — the deterministic multi-threaded sweep,
//! * [`report`] — JSON reports and repro files.
//!
//! The `conformance` binary ties these together:
//!
//! ```text
//! cargo run --release -p emr-conform --bin conformance -- --seeds 1000 --threads 8
//! ```
//!
//! See DESIGN.md § Conformance for the oracle lattice and how to replay a
//! repro file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod oracles;
pub mod report;
pub mod runner;
pub mod shrink;
pub mod spec;

pub use oracles::{
    check_oracle, check_spec, mirrored_spec, oracle_by_name, CheckCtx, Oracle, Violation, ORACLES,
};
pub use report::{ConformReport, Repro};
pub use runner::{run, RunConfig, RunOutcome, SeedOutcome};
pub use shrink::{shrink, shrink_for_oracle};
pub use spec::{derive_seed, Injection, ScenarioSpec};
