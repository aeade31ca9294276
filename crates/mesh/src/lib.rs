//! 2-D mesh topology substrate for the extended-minimal-routing reproduction.
//!
//! An `n × m` 2-D mesh has `n × m` nodes; node `u` has an address
//! `(x_u, y_u)` with `0 ≤ x_u < n` and `0 ≤ y_u < m`, and two nodes are
//! connected when their addresses differ by exactly one in exactly one
//! dimension (Wu & Jiang, §2). This crate provides the geometry every other
//! crate builds on:
//!
//! * [`Coord`] — signed node addresses (signed so that off-mesh boundary
//!   lines such as `x = x_min − 1` can be represented during analysis),
//! * [`Direction`] — the four mesh directions East/North/West/South,
//! * [`Mesh`] — mesh bounds and neighborhood queries,
//! * [`Rect`] — inclusive rectangles `[x_min..x_max, y_min..y_max]` used to
//!   describe faulty blocks,
//! * [`Grid`] — a dense per-node storage indexed by [`Coord`],
//! * [`BitGrid`] — one bit per node, packed into `u64` words for the
//!   word-parallel reachability kernels, and [`for_each_set_bit`], which
//!   decodes the set bits of one packed lane,
//! * [`MemBytes`] — uniform resident-byte accounting across the map types,
//! * [`Quadrant`] and [`Frame`] — relative quadrants and the mirroring
//!   transform that maps any source/destination pair onto the canonical
//!   "destination in quadrant I" frame used throughout the paper,
//! * [`Path`] — node sequences with minimality checks.
//!
//! # Examples
//!
//! ```
//! use emr_mesh::{Coord, Mesh};
//!
//! let mesh = Mesh::new(8, 8);
//! let a = Coord::new(2, 3);
//! let b = Coord::new(5, 1);
//! assert_eq!(a.manhattan(b), 5);
//! assert_eq!(mesh.neighbors(a).count(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitgrid;
mod coord;
mod direction;
mod frame;
mod grid;
mod membytes;
mod mesh;
mod path;
mod quadrant;
mod rect;

pub use bitgrid::{for_each_set_bit, BitGrid};
pub use coord::Coord;
pub use direction::Direction;
pub use frame::Frame;
pub use grid::Grid;
pub use membytes::MemBytes;
pub use mesh::{Mesh, Neighbors};
pub use path::Path;
pub use quadrant::Quadrant;
pub use rect::{Rect, RectIter};

/// A hop count or hop distance along one dimension of the mesh.
///
/// Distances to faulty blocks use [`UNBOUNDED`] when no block lies in the
/// given direction (the paper's `∞`).
pub type Dist = u32;

/// The "infinite" distance: no obstacle lies in this direction.
///
/// The paper's default extended safety level is `(∞, ∞, ∞, ∞)`.
pub const UNBOUNDED: Dist = u32::MAX;
