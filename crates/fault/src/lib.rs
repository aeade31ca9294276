//! Fault substrate for the extended-minimal-routing reproduction.
//!
//! This crate implements every fault-related system the paper depends on:
//!
//! * [`FaultSet`] and [`inject`] — randomly generated node faults
//!   (the paper's evaluation uses up to 200 random faults in a 200×200
//!   mesh), plus a clustered generator for ablations,
//! * [`BlockMap`] — the **faulty block** model of Definition 1: non-faulty
//!   nodes become *disabled* when they have faulty/disabled neighbors in
//!   both dimensions; connected faulty∪disabled components converge to
//!   disjoint rectangles,
//! * [`MccMap`] — Wang's **minimal connected components** (Definition 2):
//!   a refinement that only disables nodes whose use provably destroys
//!   minimality (useless / can't-reach labeling, type-one for quadrant
//!   I/III routing and type-two for II/IV); a component is read as its
//!   bounding rectangle, the exact shape stays in the map's packed
//!   planes,
//! * [`reach`] — the exact monotone-reachability oracle (the ground truth
//!   "existence of a minimal path" curve of every figure),
//! * [`reach_bits`] — the word-parallel form of the same oracle: a packed
//!   per-pair kernel plus [`ReachMap`], which answers reachability from
//!   one source to every node of one route rectangle after one sweep of
//!   it (the same row loop as the pair kernel),
//! * [`coverage`] — Wang's necessary-and-sufficient condition phrased on
//!   block rectangles (the global-information baseline).
//!
//! [`BlockMap::build`] and [`MccMap::build`] run the fix-point worklist
//! their `insert_fault` resumes, seeded at the faults, so a build costs
//! its plane allocations plus work in proportion to the faults and the
//! nodes they block, not to the mesh. Each map is its packed planes: a node's kind and the
//! disabled-node count are read off them, and the block and component
//! rectangles (`rects()`) come from one scan of the blocked plane, shared
//! by both models and run only when read. Their scalar builders
//! (`build_scalar`) stay as the reference.
//!
//! # Examples
//!
//! ```
//! use emr_mesh::{Coord, Mesh};
//! use emr_fault::{BlockMap, FaultSet};
//!
//! // The eight faults of the paper's Figure 1(a) form the block [2:6, 3:6].
//! let mesh = Mesh::square(10);
//! let faults = FaultSet::from_coords(
//!     mesh,
//!     [(3, 3), (3, 4), (4, 4), (5, 4), (6, 4), (2, 5), (5, 5), (3, 6)]
//!         .into_iter()
//!         .map(Coord::from),
//! );
//! let blocks = BlockMap::build(&faults);
//! assert_eq!(blocks.rects().len(), 1);
//! assert_eq!(blocks.rects()[0].to_string(), "[2:6, 3:6]");
//! assert_eq!(blocks.disabled_count(), 20 - 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod component;
pub mod coverage;
mod fault_set;
pub mod inject;
mod mcc;
pub mod reach;
pub mod reach_bits;
mod workspace;

pub use block::{BlockMap, NodeState};
pub use fault_set::FaultSet;
pub use mcc::{MccMap, MccStatus, MccType};
pub use reach_bits::ReachMap;
