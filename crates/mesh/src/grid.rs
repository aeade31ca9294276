use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

use crate::{Coord, Mesh};

/// Dense per-node storage for a [`Mesh`], indexed by [`Coord`].
///
/// A `Grid<T>` holds one `T` per node in row-major order. It is the backing
/// store for node status maps, safety-level maps, and boundary-information
/// maps.
///
/// # Examples
///
/// ```
/// use emr_mesh::{Coord, Grid, Mesh};
///
/// let mesh = Mesh::new(3, 3);
/// let mut dist = Grid::new(mesh, 0u32);
/// dist[Coord::new(1, 2)] = 7;
/// assert_eq!(dist[Coord::new(1, 2)], 7);
/// assert_eq!(dist.get(Coord::new(9, 9)), None); // outside the mesh
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Grid<T> {
    mesh: Mesh,
    data: Vec<T>,
}

impl<T: Clone> Grid<T> {
    /// Creates a grid with every node set to `fill`.
    pub fn new(mesh: Mesh, fill: T) -> Self {
        Grid {
            mesh,
            data: vec![fill; mesh.node_count()],
        }
    }

    /// Sets every node to `value` without reallocating.
    pub fn fill(&mut self, value: T) {
        for v in &mut self.data {
            *v = value.clone();
        }
    }

    /// Retargets this grid to `mesh` with every node set to `fill`,
    /// reusing the existing allocation when it is large enough. This is
    /// the reset step of scratch-buffer reuse in hot loops.
    pub fn reset(&mut self, mesh: Mesh, fill: T) {
        self.mesh = mesh;
        self.data.clear();
        self.data.resize(mesh.node_count(), fill);
    }
}

impl<T> Grid<T> {
    /// Creates a grid by evaluating `f` at every node.
    pub fn from_fn(mesh: Mesh, mut f: impl FnMut(Coord) -> T) -> Self {
        let data = mesh.nodes().map(&mut f).collect();
        Grid { mesh, data }
    }

    /// The mesh this grid covers.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// The value at `c`, or `None` when `c` is outside the mesh.
    // emr-lint: allow(A1, "the flat offset is computed only after contains confirms the coordinate")
    pub fn get(&self, c: Coord) -> Option<&T> {
        self.mesh
            .contains(c)
            .then(|| &self.data[self.mesh.index_of(c)])
    }

    /// Mutable access to the value at `c`, or `None` outside the mesh.
    pub fn get_mut(&mut self, c: Coord) -> Option<&mut T> {
        self.mesh
            .contains(c)
            .then(|| self.mesh.index_of(c))
            .map(move |i| &mut self.data[i])
    }

    /// Iterates over `(coord, value)` pairs in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Coord, &T)> {
        self.mesh.nodes().zip(self.data.iter())
    }

    /// Counts the nodes whose value satisfies `pred`.
    pub fn count(&self, pred: impl Fn(&T) -> bool) -> usize {
        self.data.iter().filter(|v| pred(v)).count()
    }

    /// The backing storage in row-major order (`mesh.index_of` order).
    /// Lets word-level kernels address whole lanes with index arithmetic
    /// instead of per-node coordinate lookups.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Applies `f` to every stored value, producing a grid of the results.
    pub fn map<U>(&self, mut f: impl FnMut(&T) -> U) -> Grid<U> {
        Grid {
            mesh: self.mesh,
            data: self.data.iter().map(&mut f).collect(),
        }
    }
}

impl<T> Index<Coord> for Grid<T> {
    type Output = T;

    /// # Panics
    ///
    /// Panics if `c` is outside the mesh; use [`Grid::get`] for checked
    /// access.
    // emr-lint: allow(A1, "documented panic contract: Index asserts the coordinate is inside the grid")
    fn index(&self, c: Coord) -> &T {
        &self.data[self.mesh.index_of(c)]
    }
}

impl<T> IndexMut<Coord> for Grid<T> {
    fn index_mut(&mut self, c: Coord) -> &mut T {
        let i = self.mesh.index_of(c);
        &mut self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_and_index() {
        let mesh = Mesh::new(4, 2);
        let mut g = Grid::new(mesh, 0i64);
        for (i, c) in mesh.nodes().enumerate() {
            g[c] = i64::try_from(i).unwrap();
        }
        assert_eq!(g[Coord::new(3, 1)], 7);
        assert_eq!(g.get(Coord::new(4, 0)), None);
        assert_eq!(g.get(Coord::new(3, 1)), Some(&7));
    }

    #[test]
    fn from_fn_matches_node_order() {
        let mesh = Mesh::new(3, 3);
        let g = Grid::from_fn(mesh, |c| c.x + 10 * c.y);
        assert_eq!(g[Coord::new(2, 1)], 12);
        assert_eq!(g.iter().count(), 9);
    }

    #[test]
    fn count_and_map() {
        let mesh = Mesh::new(3, 3);
        let g = Grid::from_fn(mesh, |c| c.x == c.y);
        assert_eq!(g.count(|&v| v), 3);
        let as_int = g.map(|&v| u8::from(v));
        assert_eq!(as_int.count(|&v| v == 1), 3);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_bounds_index_panics() {
        let g = Grid::new(Mesh::square(2), 0u8);
        let _ = g[Coord::new(5, 5)];
    }

    #[test]
    fn fill_and_reset_reuse_storage() {
        let mut g = Grid::new(Mesh::new(4, 4), 3u8);
        g.fill(7);
        assert!(g.iter().all(|(_, &v)| v == 7));
        // Reset to a smaller mesh: old contents must not leak through.
        g.reset(Mesh::new(2, 3), 0);
        assert_eq!(g.mesh(), Mesh::new(2, 3));
        assert_eq!(g.iter().count(), 6);
        assert!(g.iter().all(|(_, &v)| v == 0));
        // And growing again re-fills every node.
        g.reset(Mesh::new(5, 5), 9);
        assert!(g.iter().all(|(_, &v)| v == 9));
    }

    #[test]
    fn get_mut_roundtrip() {
        let mut g = Grid::new(Mesh::square(2), 1u8);
        *g.get_mut(Coord::ORIGIN).unwrap() = 9;
        assert_eq!(g[Coord::ORIGIN], 9);
        assert!(g.get_mut(Coord::new(-1, 0)).is_none());
    }
}
