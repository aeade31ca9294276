use std::fmt;

use serde::{Deserialize, Serialize};

use crate::Coord;

/// An inclusive axis-aligned rectangle `[x_min : x_max, y_min : y_max]`.
///
/// The paper writes a faulty block exactly this way, e.g. `[2:6, 3:6]` for
/// the block of Figure 1(a). Both bounds are inclusive and a rectangle is
/// never empty.
///
/// # Examples
///
/// ```
/// use emr_mesh::{Coord, Rect};
///
/// let block = Rect::new(2, 6, 3, 6);
/// assert!(block.contains(Coord::new(4, 4)));
/// assert_eq!(block.node_count(), 5 * 4);
/// assert_eq!(block.sw_corner_outside(), Coord::new(1, 2));
/// assert_eq!(block.ne_corner_outside(), Coord::new(7, 7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Rect {
    x_min: i32,
    x_max: i32,
    y_min: i32,
    y_max: i32,
}

impl Rect {
    /// Creates the rectangle `[x_min : x_max, y_min : y_max]`.
    ///
    /// # Panics
    ///
    /// Panics if `x_min > x_max` or `y_min > y_max`.
    pub fn new(x_min: i32, x_max: i32, y_min: i32, y_max: i32) -> Self {
        assert!(
            x_min <= x_max && y_min <= y_max,
            "degenerate rectangle [{x_min}:{x_max}, {y_min}:{y_max}]"
        );
        Rect {
            x_min,
            x_max,
            y_min,
            y_max,
        }
    }

    /// The 1×1 rectangle containing a single node.
    pub fn point(c: Coord) -> Self {
        Rect::new(c.x, c.x, c.y, c.y)
    }

    /// Smallest `x` contained in the rectangle.
    pub fn x_min(&self) -> i32 {
        self.x_min
    }

    /// Largest `x` contained in the rectangle.
    pub fn x_max(&self) -> i32 {
        self.x_max
    }

    /// Smallest `y` contained in the rectangle.
    pub fn y_min(&self) -> i32 {
        self.y_min
    }

    /// Largest `y` contained in the rectangle.
    pub fn y_max(&self) -> i32 {
        self.y_max
    }

    /// Number of columns spanned.
    pub fn width(&self) -> i32 {
        self.x_max - self.x_min + 1
    }

    /// Number of rows spanned.
    pub fn height(&self) -> i32 {
        self.y_max - self.y_min + 1
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        (self.width() as usize) * (self.height() as usize)
    }

    /// Whether the rectangle covers `c`.
    pub fn contains(&self, c: Coord) -> bool {
        (self.x_min..=self.x_max).contains(&c.x) && (self.y_min..=self.y_max).contains(&c.y)
    }

    /// Whether the two rectangles share at least one node.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.x_min <= other.x_max
            && other.x_min <= self.x_max
            && self.y_min <= other.y_max
            && other.y_min <= self.y_max
    }

    /// Grows the bounding box to cover `c`, returning the enlarged rectangle.
    pub fn expanded_to(&self, c: Coord) -> Rect {
        Rect {
            x_min: self.x_min.min(c.x),
            x_max: self.x_max.max(c.x),
            y_min: self.y_min.min(c.y),
            y_max: self.y_max.max(c.y),
        }
    }

    /// The rectangle grown by `margin` in all four directions.
    pub fn inflated(&self, margin: i32) -> Rect {
        Rect::new(
            self.x_min - margin,
            self.x_max + margin,
            self.y_min - margin,
            self.y_max + margin,
        )
    }

    /// The enabled corner just south-west of the block,
    /// `(x_min − 1, y_min − 1)` — where boundary lines L1 and L3 originate.
    pub fn sw_corner_outside(&self) -> Coord {
        Coord::new(self.x_min - 1, self.y_min - 1)
    }

    /// The enabled corner just north-east of the block,
    /// `(x_max + 1, y_max + 1)` — where boundary lines L2 and L4 originate.
    pub fn ne_corner_outside(&self) -> Coord {
        Coord::new(self.x_max + 1, self.y_max + 1)
    }

    /// Iterates over all covered nodes in row-major order.
    pub fn iter(&self) -> RectIter {
        RectIter {
            rect: *self,
            next: Some(Coord::new(self.x_min, self.y_min)),
        }
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}:{}, {}:{}]",
            self.x_min, self.x_max, self.y_min, self.y_max
        )
    }
}

impl IntoIterator for &Rect {
    type Item = Coord;
    type IntoIter = RectIter;

    fn into_iter(self) -> RectIter {
        self.iter()
    }
}

/// Row-major iterator over the nodes of a [`Rect`]; see [`Rect::iter`].
#[derive(Debug, Clone)]
pub struct RectIter {
    rect: Rect,
    next: Option<Coord>,
}

impl Iterator for RectIter {
    type Item = Coord;

    fn next(&mut self) -> Option<Coord> {
        let cur = self.next?;
        let succ = if cur.x < self.rect.x_max {
            Some(Coord::new(cur.x + 1, cur.y))
        } else if cur.y < self.rect.y_max {
            Some(Coord::new(self.rect.x_min, cur.y + 1))
        } else {
            None
        };
        self.next = succ;
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_block_of_figure_1() {
        // Eight faults form the rectangle [2:6, 3:6].
        let block = Rect::new(2, 6, 3, 6);
        assert_eq!(block.width(), 5);
        assert_eq!(block.height(), 4);
        assert_eq!(block.node_count(), 20);
        assert_eq!(block.to_string(), "[2:6, 3:6]");
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn inverted_bounds_panic() {
        let _ = Rect::new(3, 2, 0, 0);
    }

    #[test]
    fn contains_is_inclusive() {
        let r = Rect::new(1, 3, 1, 2);
        assert!(r.contains(Coord::new(1, 1)));
        assert!(r.contains(Coord::new(3, 2)));
        assert!(!r.contains(Coord::new(0, 1)));
        assert!(!r.contains(Coord::new(4, 2)));
        assert!(!r.contains(Coord::new(2, 3)));
    }

    #[test]
    fn intersection_cases() {
        let a = Rect::new(0, 2, 0, 2);
        assert!(a.intersects(&Rect::new(2, 4, 2, 4))); // corner touch
        assert!(!a.intersects(&Rect::new(3, 4, 0, 2))); // adjacent, disjoint
        assert!(a.intersects(&Rect::new(1, 1, 1, 1))); // nested
    }

    #[test]
    fn expansion() {
        let r = Rect::point(Coord::new(2, 2));
        let r = r.expanded_to(Coord::new(5, 1));
        assert_eq!(r, Rect::new(2, 5, 1, 2));
        assert_eq!(r.inflated(1), Rect::new(1, 6, 0, 3));
    }

    #[test]
    fn outside_corners() {
        let r = Rect::new(2, 6, 3, 6);
        assert_eq!(r.sw_corner_outside(), Coord::new(1, 2));
        assert_eq!(r.ne_corner_outside(), Coord::new(7, 7));
        assert!(!r.contains(r.sw_corner_outside()));
        assert!(!r.contains(r.ne_corner_outside()));
    }

    #[test]
    fn iter_covers_exactly_the_rect() {
        let r = Rect::new(1, 3, 5, 6);
        let nodes: Vec<Coord> = r.iter().collect();
        assert_eq!(nodes.len(), r.node_count());
        assert!(nodes.iter().all(|&c| r.contains(c)));
        assert_eq!(nodes[0], Coord::new(1, 5));
        assert_eq!(*nodes.last().unwrap(), Coord::new(3, 6));
        // No duplicates.
        let mut sorted = nodes.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), nodes.len());
    }
}
