//! Random fault injection.
//!
//! The paper's evaluation uses up to 200 faults placed uniformly at random
//! (without repetition) in a 200×200 mesh. [`uniform`] reproduces that
//! process; [`clustered`] generates spatially correlated faults for the
//! ablation benchmarks (clustered faults produce larger blocks, stressing
//! the block-formation and safety machinery harder than the paper's
//! scattered faults do).

use rand::Rng;

use emr_mesh::{Coord, Mesh};

use crate::FaultSet;

/// Draws `count` distinct faulty nodes uniformly at random, never using a
/// node in `forbidden` (typically the source, which the paper assumes to be
/// outside every faulty block).
///
/// Draws the exact RNG stream and selection a partial Fisher–Yates over
/// the materialized eligible list would (`uniform_matches_dense_selection`
/// pins this), but sparsely: the sweep engine calls this once per trial,
/// and building the O(mesh) eligible and index tables dominated trial
/// setup. Only the O(count) touched swap entries are stored instead, in
/// an open-addressing table sized for them, so a draw costs O(count)
/// whatever the mesh size.
///
/// # Panics
///
/// Panics if `count` exceeds the number of eligible nodes.
pub fn uniform(mesh: Mesh, count: usize, forbidden: &[Coord], rng: &mut impl Rng) -> FaultSet {
    let fidx = forbidden_indices(mesh, forbidden);
    let eligible = mesh.node_count() - fidx.len();
    assert!(
        count <= eligible,
        "cannot place {count} faults among {eligible} eligible nodes"
    );
    // Partial Fisher–Yates over the virtual identity table 0..eligible;
    // `touched` holds only the entries that differ from the identity.
    let mut touched = SwapTable::with_entries(2 * count);
    let width = usize::try_from(mesh.width()).unwrap_or(1);
    let chosen = (0..count).map(|i| {
        let j = i + (rng.next_u64() as usize) % (eligible - i);
        let vi = touched.entry(i);
        let vj = touched.entry(j);
        touched.assign(i, vj);
        touched.assign(j, vi);
        // The picked eligible rank, mapped to a node index by re-inserting
        // the excluded slots below it.
        let mut ni = vj;
        for &f in &fidx {
            if f <= ni {
                ni += 1;
            } else {
                break;
            }
        }
        Coord::new(
            i32::try_from(ni % width).unwrap_or(i32::MAX),
            i32::try_from(ni / width).unwrap_or(i32::MAX),
        )
    });
    FaultSet::from_coords(mesh, chosen)
}

/// The ascending, deduplicated node indices of the in-mesh `forbidden`
/// entries: the nodes both generators exclude. Off-mesh entries exclude
/// nothing, and a repeated entry excludes its node once.
fn forbidden_indices(mesh: Mesh, forbidden: &[Coord]) -> Vec<usize> {
    let mut fidx: Vec<usize> = forbidden
        .iter()
        .filter(|c| mesh.contains(**c))
        .map(|&c| mesh.index_of(c))
        .collect();
    fidx.sort_unstable();
    fidx.dedup();
    fidx
}

/// The sparse Fisher–Yates table of [`uniform`]: a fixed-capacity
/// open-addressing map from a slot to its current entry, where an absent
/// slot holds itself. The capacity is a power of two at least twice the
/// entries it must hold, so linear probing from a multiplicative
/// (Fibonacci) hash stays short, and nothing is ever removed. A slot is
/// stored plus one, so a zero key marks an empty bucket.
struct SwapTable {
    buckets: Vec<(usize, usize)>,
    shift: u32,
}

impl SwapTable {
    /// A table with room for `entries` distinct slots.
    fn with_entries(entries: usize) -> SwapTable {
        let capacity = (2 * entries).next_power_of_two().max(2);
        SwapTable {
            buckets: vec![(0, 0); capacity],
            shift: usize::BITS - capacity.trailing_zeros(),
        }
    }

    /// The bucket holding `slot`, or the empty bucket where it goes.
    fn find(&self, slot: usize) -> usize {
        let mask = self.buckets.len() - 1;
        let mut b = slot.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as usize) >> self.shift;
        while let Some(&(key, _)) = self.buckets.get(b) {
            if key == 0 || key == slot + 1 {
                break;
            }
            b = (b + 1) & mask;
        }
        b
    }

    /// The entry at `slot`: its last value assigned, or `slot` itself.
    fn entry(&self, slot: usize) -> usize {
        match self.buckets.get(self.find(slot)) {
            Some(&(key, value)) if key != 0 => value,
            _ => slot,
        }
    }

    /// Sets the entry at `slot` to `value`.
    fn assign(&mut self, slot: usize, value: usize) {
        let b = self.find(slot);
        if let Some(bucket) = self.buckets.get_mut(b) {
            *bucket = (slot + 1, value);
        }
    }
}

/// Draws `count` distinct faults clustered around `centers` random cluster
/// centers: each fault picks a center and scatters around it with
/// geometric tail `spread` (larger spread ⇒ looser clusters). Used by the
/// clustered ablation and the conformance specs; not part of the paper's
/// evaluation.
///
/// # Panics
///
/// Panics if `centers` is zero or `count` exceeds the number of eligible
/// nodes.
pub fn clustered(
    mesh: Mesh,
    count: usize,
    centers: usize,
    spread: f64,
    forbidden: &[Coord],
    rng: &mut impl Rng,
) -> FaultSet {
    assert!(centers > 0, "need at least one cluster center");
    let eligible = mesh.node_count() - forbidden_indices(mesh, forbidden).len();
    assert!(
        count <= eligible,
        "cannot place {count} faults among {eligible} eligible nodes"
    );
    let hubs: Vec<Coord> = (0..centers)
        .map(|_| {
            Coord::new(
                rng.gen_range(0..mesh.width()),
                rng.gen_range(0..mesh.height()),
            )
        })
        .collect();
    let mut set = FaultSet::new(mesh);
    let mut placed = 0;
    while placed < count {
        let hub = hubs[rng.gen_range(0..hubs.len())];
        let dx = sample_offset(spread, rng);
        let dy = sample_offset(spread, rng);
        let c = Coord::new(hub.x + dx, hub.y + dy);
        if mesh.contains(c) && !forbidden.contains(&c) && set.insert(c) {
            placed += 1;
        }
    }
    set
}

/// A symmetric geometric-tailed integer offset with scale `spread`.
fn sample_offset(spread: f64, rng: &mut impl Rng) -> i32 {
    let mut mag = 0;
    let p = 1.0 / (1.0 + spread.max(0.0));
    while !rng.gen_bool(p) {
        mag += 1;
        if mag > 10_000 {
            break; // Defensive bound; unreachable for sane spreads.
        }
    }
    if rng.gen_bool(0.5) {
        mag
    } else {
        -mag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    #[test]
    fn uniform_places_exact_count_of_distinct_faults() {
        let mut rng = StdRng::seed_from_u64(7);
        let mesh = Mesh::square(20);
        let set = uniform(mesh, 50, &[], &mut rng);
        assert_eq!(set.len(), 50);
        // Distinctness is guaranteed by FaultSet, but double-check via iter.
        let mut coords: Vec<Coord> = set.iter().collect();
        coords.sort();
        coords.dedup();
        assert_eq!(coords.len(), 50);
    }

    #[test]
    fn uniform_respects_forbidden_nodes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mesh = Mesh::square(4);
        let center = mesh.center();
        for _ in 0..20 {
            let set = uniform(mesh, 15, &[center], &mut rng);
            assert!(!set.is_faulty(center));
        }
    }

    #[test]
    fn uniform_can_fill_every_eligible_node() {
        let mut rng = StdRng::seed_from_u64(1);
        let mesh = Mesh::square(3);
        let set = uniform(mesh, 8, &[mesh.center()], &mut rng);
        assert_eq!(set.len(), 8);
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn uniform_rejects_oversized_requests() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = uniform(Mesh::square(2), 5, &[], &mut rng);
    }

    #[test]
    fn uniform_matches_dense_selection() {
        // The sparse Fisher–Yates must reproduce the old dense
        // implementation draw for draw: same seed, same fault set —
        // every seeded experiment in the repo depends on this.
        let dense = |mesh: Mesh, count: usize, forbidden: &[Coord], rng: &mut StdRng| {
            let eligible: Vec<Coord> = mesh.nodes().filter(|c| !forbidden.contains(c)).collect();
            let chosen = eligible.choose_multiple(rng, count).copied();
            FaultSet::from_coords(mesh, chosen)
        };
        let center = Mesh::square(17).center();
        // The sweep's source; the 64² row draws every eligible node, the
        // swap table's design load.
        let paper_source = Mesh::square(200).center();
        let cases: &[(Mesh, usize, &[Coord])] = &[
            (Mesh::square(17), 0, &[]),
            (Mesh::square(17), 25, &[]),
            (Mesh::square(17), 25, &[center]),
            (Mesh::new(1, 40), 10, &[Coord::new(0, 0), Coord::new(0, 39)]),
            (Mesh::new(40, 1), 39, &[Coord::new(5, 0)]),
            (Mesh::square(4), 15, &[Coord::new(2, 2)]),
            (Mesh::square(200), 200, &[paper_source]),
            (Mesh::square(64), 4095, &[Coord::new(5, 5)]),
        ];
        for &(mesh, count, forbidden) in cases {
            for seed in 0..20u64 {
                let a = uniform(mesh, count, forbidden, &mut StdRng::seed_from_u64(seed));
                let b = dense(mesh, count, forbidden, &mut StdRng::seed_from_u64(seed));
                assert_eq!(a, b, "{mesh:?} count {count} seed {seed}");
                assert_eq!(a.len(), count);
                assert!(forbidden.iter().all(|&c| !a.is_faulty(c)));
            }
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let mesh = Mesh::square(30);
        let a = uniform(mesh, 40, &[], &mut StdRng::seed_from_u64(42));
        let b = uniform(mesh, 40, &[], &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn clustered_places_exact_count() {
        let mut rng = StdRng::seed_from_u64(11);
        let mesh = Mesh::square(40);
        let set = clustered(mesh, 60, 3, 2.0, &[mesh.center()], &mut rng);
        assert_eq!(set.len(), 60);
        assert!(!set.is_faulty(mesh.center()));
    }

    #[test]
    fn clustered_counts_duplicate_and_off_mesh_forbidden_entries_once() {
        // A repeated entry excludes its node once, and an off-mesh entry
        // excludes nothing, so both requests fill every eligible node, as
        // `uniform` does on the same input.
        let mesh = Mesh::square(3);
        let c = mesh.center();
        for forbidden in [[c, c], [c, Coord::new(-1, 7)]] {
            let set = clustered(mesh, 8, 1, 1.0, &forbidden, &mut StdRng::seed_from_u64(2));
            assert_eq!(set.len(), 8);
            assert!(!set.is_faulty(c));
            let drawn = uniform(mesh, 8, &forbidden, &mut StdRng::seed_from_u64(2));
            assert_eq!(drawn.len(), 8);
        }
    }

    #[test]
    #[should_panic(expected = "cannot place 9 faults among 8 eligible nodes")]
    fn clustered_rejects_requests_beyond_the_eligible_nodes() {
        let mesh = Mesh::square(3);
        let c = mesh.center();
        let _ = clustered(mesh, 9, 1, 1.0, &[c, c], &mut StdRng::seed_from_u64(2));
    }

    #[test]
    fn clustered_is_more_compact_than_uniform() {
        // Average pairwise distance should be clearly smaller for tight
        // clusters than for uniform placement on a large mesh.
        let mesh = Mesh::square(100);
        let mut rng = StdRng::seed_from_u64(5);
        let tight = clustered(mesh, 40, 2, 1.5, &[], &mut rng);
        let loose = uniform(mesh, 40, &[], &mut rng);
        let avg = |s: &FaultSet| {
            let v: Vec<Coord> = s.iter().collect();
            let mut total = 0u64;
            let mut pairs = 0u64;
            for i in 0..v.len() {
                for j in (i + 1)..v.len() {
                    total += u64::from(v[i].manhattan(v[j]));
                    pairs += 1;
                }
            }
            total as f64 / pairs as f64
        };
        assert!(avg(&tight) < avg(&loose) / 2.0);
    }
}
