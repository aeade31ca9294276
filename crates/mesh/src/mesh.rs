use serde::{Deserialize, Serialize};

use crate::{Coord, Direction, Rect};

/// The bounds of an `n × m` 2-D mesh.
///
/// Nodes have addresses `(x, y)` with `0 ≤ x < width` and `0 ≤ y < height`.
/// Interior nodes have degree 4; edge and corner nodes have degree 3 and 2.
///
/// # Examples
///
/// ```
/// use emr_mesh::{Coord, Mesh};
///
/// let mesh = Mesh::new(4, 3);
/// assert_eq!(mesh.node_count(), 12);
/// assert!(mesh.contains(Coord::new(3, 2)));
/// assert!(!mesh.contains(Coord::new(4, 0)));
/// // A corner has exactly two in-mesh neighbors.
/// assert_eq!(mesh.neighbors(Coord::ORIGIN).count(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Mesh {
    width: i32,
    height: i32,
}

impl Mesh {
    /// Creates an `width × height` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not positive.
    pub fn new(width: i32, height: i32) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        Mesh { width, height }
    }

    /// Creates a square `n × n` mesh, the configuration used throughout the
    /// paper's evaluation (`n = 200`).
    pub fn square(n: i32) -> Self {
        Mesh::new(n, n)
    }

    /// The extent of the X dimension.
    pub fn width(&self) -> i32 {
        self.width
    }

    /// The extent of the Y dimension.
    pub fn height(&self) -> i32 {
        self.height
    }

    /// The total number of nodes.
    pub fn node_count(&self) -> usize {
        (self.width as usize) * (self.height as usize)
    }

    /// Whether `c` addresses a node of this mesh.
    #[inline]
    pub fn contains(&self, c: Coord) -> bool {
        (0..self.width).contains(&c.x) && (0..self.height).contains(&c.y)
    }

    /// The rectangle covering the whole mesh.
    pub fn bounds(&self) -> Rect {
        Rect::new(0, self.width - 1, 0, self.height - 1)
    }

    /// The in-mesh neighbors of `c`, in E, N, W, S order.
    ///
    /// `c` itself does not need to be inside the mesh; this is useful when
    /// walking boundary lines that bend at the mesh edge.
    pub fn neighbors(&self, c: Coord) -> Neighbors<'_> {
        Neighbors {
            mesh: self,
            center: c,
            next: 0,
        }
    }

    /// The in-mesh neighbor of `c` in direction `dir`, if any.
    pub fn neighbor(&self, c: Coord, dir: Direction) -> Option<Coord> {
        let v = c.step(dir);
        self.contains(v).then_some(v)
    }

    /// Iterates over every node of the mesh in row-major order.
    pub fn nodes(&self) -> impl Iterator<Item = Coord> + '_ {
        let (w, h) = (self.width, self.height);
        (0..h).flat_map(move |y| (0..w).map(move |x| Coord::new(x, y)))
    }

    /// The center node `(⌊w/2⌋, ⌊h/2⌋)`; the paper places the source there.
    pub fn center(&self) -> Coord {
        Coord::new(self.width / 2, self.height / 2)
    }

    /// Row-major linear index of an in-mesh coordinate.
    ///
    /// # Panics
    ///
    /// Panics if `c` is outside the mesh.
    #[inline]
    pub fn index_of(&self, c: Coord) -> usize {
        assert!(self.contains(c), "{c} outside {self:?}");
        (c.y as usize) * (self.width as usize) + (c.x as usize)
    }
}

/// Iterator over the in-mesh neighbors of a node; see [`Mesh::neighbors`].
#[derive(Debug, Clone)]
pub struct Neighbors<'a> {
    mesh: &'a Mesh,
    center: Coord,
    next: usize,
}

impl Iterator for Neighbors<'_> {
    type Item = Coord;

    // emr-lint: allow(A1, "the iterator cursor is clamped to width*height before being decomposed")
    fn next(&mut self) -> Option<Coord> {
        while self.next < 4 {
            let dir = Direction::ALL[self.next];
            self.next += 1;
            let v = self.center.step(dir);
            if self.mesh.contains(v) {
                return Some(v);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_matches_bounds() {
        let mesh = Mesh::new(5, 7);
        assert!(mesh.contains(Coord::new(0, 0)));
        assert!(mesh.contains(Coord::new(4, 6)));
        assert!(!mesh.contains(Coord::new(5, 0)));
        assert!(!mesh.contains(Coord::new(0, 7)));
        assert!(!mesh.contains(Coord::new(-1, 3)));
        assert_eq!(mesh.bounds(), Rect::new(0, 4, 0, 6));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_panics() {
        let _ = Mesh::new(0, 3);
    }

    #[test]
    fn degrees() {
        let mesh = Mesh::square(4);
        // Corner, edge, interior.
        assert_eq!(mesh.neighbors(Coord::new(0, 0)).count(), 2);
        assert_eq!(mesh.neighbors(Coord::new(1, 0)).count(), 3);
        assert_eq!(mesh.neighbors(Coord::new(1, 1)).count(), 4);
    }

    #[test]
    fn neighbors_of_off_mesh_coord() {
        let mesh = Mesh::square(3);
        // (-1, 0) has exactly one in-mesh neighbor: (0, 0).
        let ns: Vec<Coord> = mesh.neighbors(Coord::new(-1, 0)).collect();
        assert_eq!(ns, vec![Coord::new(0, 0)]);
    }

    #[test]
    fn nodes_enumerates_all_once() {
        let mesh = Mesh::new(3, 2);
        let nodes: Vec<Coord> = mesh.nodes().collect();
        assert_eq!(nodes.len(), mesh.node_count());
        assert_eq!(nodes[0], Coord::new(0, 0));
        assert_eq!(nodes[1], Coord::new(1, 0));
        assert_eq!(nodes[5], Coord::new(2, 1));
    }

    #[test]
    fn index_of_is_row_major() {
        let mesh = Mesh::new(3, 2);
        for (i, c) in mesh.nodes().enumerate() {
            assert_eq!(mesh.index_of(c), i);
        }
    }

    #[test]
    fn center_of_even_and_odd() {
        assert_eq!(Mesh::square(200).center(), Coord::new(100, 100));
        assert_eq!(Mesh::new(5, 3).center(), Coord::new(2, 1));
    }

    #[test]
    fn directional_neighbor() {
        let mesh = Mesh::square(2);
        assert_eq!(
            mesh.neighbor(Coord::ORIGIN, Direction::East),
            Some(Coord::new(1, 0))
        );
        assert_eq!(mesh.neighbor(Coord::ORIGIN, Direction::West), None);
    }
}
