use serde::{Deserialize, Serialize};

use emr_mesh::{BitGrid, Coord, MemBytes, Mesh};

/// A set of faulty nodes in a mesh.
///
/// Keeps a packed membership bitset (one bit per node, O(1) queries
/// during labeling and the direct input of the packed kernels)
/// and the fault list in insertion order (for deterministic iteration).
/// At giant mesh sizes the bitset is the only per-node storage — an
/// eighth of a byte per node.
///
/// # Examples
///
/// ```
/// use emr_mesh::{Coord, Mesh};
/// use emr_fault::FaultSet;
///
/// let mesh = Mesh::square(4);
/// let faults = FaultSet::from_coords(mesh, [Coord::new(1, 1), Coord::new(2, 2)]);
/// assert_eq!(faults.len(), 2);
/// assert!(faults.is_faulty(Coord::new(1, 1)));
/// assert!(!faults.is_faulty(Coord::new(0, 0)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSet {
    mesh: Mesh,
    packed: BitGrid,
    list: Vec<Coord>,
}

impl FaultSet {
    /// Creates an empty fault set over `mesh`.
    pub fn new(mesh: Mesh) -> Self {
        FaultSet {
            mesh,
            packed: BitGrid::new(mesh),
            list: Vec::new(),
        }
    }

    /// Creates a fault set from explicit coordinates; duplicates are kept
    /// once.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate lies outside the mesh.
    pub fn from_coords(mesh: Mesh, coords: impl IntoIterator<Item = Coord>) -> Self {
        let coords = coords.into_iter();
        let mut set = FaultSet::new(mesh);
        set.list.reserve(coords.size_hint().0);
        for c in coords {
            set.insert(c);
        }
        set
    }

    /// The mesh the faults live in.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// Marks `c` faulty; returns whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `c` lies outside the mesh.
    pub fn insert(&mut self, c: Coord) -> bool {
        assert!(self.mesh.contains(c), "fault {c} outside mesh");
        if self.packed.get(c) == Some(true) {
            return false;
        }
        self.packed.set(c, true);
        self.list.push(c);
        true
    }

    /// The faults as a packed bit grid (bit set ⟺ faulty), maintained on
    /// every insert. The construction kernels copy it as their starting
    /// plane and [`crate::reach_bits::ReachMap::from_packed`] reads it
    /// directly, skipping any per-node repacking.
    pub fn packed(&self) -> &BitGrid {
        &self.packed
    }

    /// Whether `c` is faulty. Coordinates outside the mesh are never faulty.
    pub fn is_faulty(&self, c: Coord) -> bool {
        self.packed.get(c).unwrap_or(false)
    }

    /// The number of faulty nodes.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Whether there are no faults.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Iterates over the faulty nodes in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Coord> + '_ {
        self.list.iter().copied()
    }

    /// The faults with another fault among their eight surrounding
    /// nodes, in insertion order: the only faults whose neighbours
    /// Definition 1 or 2 can block on the faults alone. Either rule needs
    /// two blocked neighbours of a node, one along X and one along Y, and
    /// two such neighbours lie on a diagonal of each other, so each is in
    /// the other's 3×3 box. The fix-point worklists of
    /// [`crate::BlockMap::build`] and [`crate::MccMap::build`] start at
    /// these faults only.
    pub(crate) fn paired(&self) -> impl Iterator<Item = Coord> + '_ {
        let height = self.mesh.height();
        let window = move |y: i32, x: usize| {
            if (0..height).contains(&y) {
                window3(self.packed.row(y), x)
            } else {
                0
            }
        };
        self.iter().filter(move |c| {
            let x = usize::try_from(c.x).unwrap_or(0);
            window(c.y - 1, x) | window(c.y + 1, x) | (window(c.y, x) & 0b101) != 0
        })
    }
}

/// Bits `x - 1 ..= x + 1` of a packed row as the low three bits, column
/// `x - 1` lowest. Columns outside the row read as zero (the row's tail
/// bits are zero).
fn window3(row: &[u64], x: usize) -> u64 {
    let word = |i: usize| row.get(i).copied().unwrap_or(0);
    let (wi, bit) = (x / 64, x % 64);
    match bit {
        0 => (word(wi) << 1 | wi.checked_sub(1).map_or(0, |w| word(w) >> 63)) & 0b111,
        63 => (word(wi) >> 62 | word(wi + 1) << 2) & 0b111,
        _ => word(wi) >> (bit - 1) & 0b111,
    }
}

impl MemBytes for FaultSet {
    fn mem_bytes(&self) -> u64 {
        self.packed.mem_bytes() + (self.list.len() * std::mem::size_of::<Coord>()) as u64
    }
}

impl Extend<Coord> for FaultSet {
    fn extend<I: IntoIterator<Item = Coord>>(&mut self, iter: I) {
        for c in iter {
            self.insert(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_dedupes() {
        let mesh = Mesh::square(3);
        let mut set = FaultSet::new(mesh);
        assert!(set.insert(Coord::new(1, 1)));
        assert!(!set.insert(Coord::new(1, 1)));
        assert_eq!(set.len(), 1);
    }

    #[test]
    #[should_panic(expected = "outside mesh")]
    fn out_of_mesh_fault_panics() {
        let mut set = FaultSet::new(Mesh::square(2));
        set.insert(Coord::new(5, 0));
    }

    #[test]
    fn off_mesh_is_never_faulty() {
        let set = FaultSet::new(Mesh::square(2));
        assert!(!set.is_faulty(Coord::new(-1, 0)));
        assert!(!set.is_faulty(Coord::new(2, 0)));
    }

    #[test]
    fn iteration_order_is_insertion_order() {
        let mesh = Mesh::square(4);
        let coords = [Coord::new(3, 3), Coord::new(0, 0), Coord::new(2, 1)];
        let set = FaultSet::from_coords(mesh, coords);
        let seen: Vec<Coord> = set.iter().collect();
        assert_eq!(seen, coords);
    }

    #[test]
    fn packed_mirrors_membership() {
        let mesh = Mesh::new(70, 3);
        let set = FaultSet::from_coords(
            mesh,
            [
                Coord::new(0, 0),
                Coord::new(63, 1),
                Coord::new(64, 1),
                Coord::new(69, 2),
            ],
        );
        for c in mesh.nodes() {
            assert_eq!(set.packed().get(c), Some(set.is_faulty(c)), "{c}");
        }
        assert_eq!(set.packed().count_ones(), set.len());
    }

    #[test]
    fn paired_faults_have_a_fault_in_their_box() {
        // Word-boundary columns 63/64 and the mesh edges among them.
        let mesh = Mesh::new(130, 4);
        let coords = [
            (0, 0),
            (1, 1),
            (63, 2),
            (64, 3),
            (129, 0),
            (127, 0),
            (40, 2),
            (65, 0),
        ];
        let set = FaultSet::from_coords(mesh, coords.map(Coord::from));
        let naive: Vec<Coord> = set
            .iter()
            .filter(|&c| {
                set.iter()
                    .any(|o| o != c && (o.x - c.x).abs() <= 1 && (o.y - c.y).abs() <= 1)
            })
            .collect();
        assert_eq!(set.paired().collect::<Vec<_>>(), naive);
        assert_eq!(naive.len(), 4);
    }

    #[test]
    fn extend_trait() {
        let mut set = FaultSet::new(Mesh::square(4));
        set.extend([Coord::new(0, 0), Coord::new(1, 1)]);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
    }
}
