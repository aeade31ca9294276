//! Differential property tests for the word-parallel reachability
//! kernels: the bit-parallel per-pair oracles (predicate and packed) and
//! the lookups of a `ReachMap` over the pair's rectangle must agree with
//! the scalar DP on every generated case — random fault sets,
//! sources anywhere in the mesh (so all four quadrants are exercised),
//! widths straddling the 64- and 128-bit word boundaries, and degenerate
//! single-row / single-column rectangles.

use proptest::prelude::*;

use emr_fault::reach::minimal_path_exists;
use emr_fault::reach_bits::{minimal_path_exists_bits, minimal_path_exists_packed, ReachMap};
use emr_fault::FaultSet;
use emr_mesh::{Coord, Mesh, Quadrant, Rect};

/// Mesh shapes chosen to hit the packed kernel's edge cases: word-exact,
/// one-under, one-over, two-word and three-word widths, plus single-row
/// and single-column rectangles where east/south propagation degenerates.
const SHAPES: [(i32, i32); 9] = [
    (1, 40),
    (40, 1),
    (63, 5),
    (64, 5),
    (65, 5),
    (130, 3),
    (9, 9),
    (2, 70),
    (100, 2),
];

/// One generated case: mesh, fault coordinates, source, destination.
type Case = (Mesh, Vec<(i32, i32)>, (i32, i32), (i32, i32));

fn config() -> impl Strategy<Value = Case> {
    (0usize..SHAPES.len(), 0usize..=24).prop_flat_map(|(shape, k)| {
        let (w, h) = SHAPES[shape];
        (
            Just(Mesh::new(w, h)),
            proptest::collection::vec((0..w, 0..h), k),
            (0..w, 0..h),
            (0..w, 0..h),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// Both bit-parallel per-pair oracles answer exactly like the scalar
    /// DP for arbitrary endpoint pairs (any quadrant, endpoints possibly
    /// faulty).
    #[test]
    fn pair_oracle_matches_scalar_dp((mesh, faults, s, d) in config()) {
        let set = FaultSet::from_coords(mesh, faults.into_iter().map(Coord::from));
        let s = Coord::from(s);
        let d = Coord::from(d);
        let blocked = |c: Coord| set.is_faulty(c);
        let bits = minimal_path_exists_bits(&mesh, s, d, blocked);
        let packed = minimal_path_exists_packed(s, d, set.packed());
        let scalar = minimal_path_exists(&mesh, s, d, blocked);
        prop_assert!(bits == scalar, "s={s}, d={d}: bits={bits}, scalar={scalar}");
        prop_assert!(packed == scalar, "s={s}, d={d}: packed={packed}, scalar={scalar}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A `ReachMap` built from one source toward the generated `d` agrees
    /// with the scalar DP on *every* node of the rectangle they span — the
    /// sweep must not lose or invent reachability anywhere, including on
    /// the rectangle's edges, at the source itself and at `d`.
    #[test]
    fn reach_map_matches_scalar_dp_everywhere((mesh, faults, s, d) in config()) {
        let set = FaultSet::from_coords(mesh, faults.into_iter().map(Coord::from));
        let s = Coord::from(s);
        let d = Coord::from(d);
        let blocked = |c: Coord| set.is_faulty(c);
        let map = ReachMap::from_packed(s, d, set.packed());
        for v in Rect::point(s).expanded_to(d).iter() {
            let want = minimal_path_exists(&mesh, s, v, blocked);
            prop_assert!(map.reachable(v) == want, "s={s}, d={d}, v={v}: want {want}");
        }
    }
}

/// The packed pair kernel equals the scalar DP from sources near the
/// middle and the corners to every destination, so every quadrant (and
/// the shared axes) runs its spans over one-, two- and three-word widths
/// on both sides of each word boundary.
#[test]
fn packed_pair_kernel_matches_scalar_dp_in_every_quadrant() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let shapes = [
        (63, 4),
        (64, 4),
        (65, 4),
        (127, 3),
        (128, 3),
        (129, 3),
        (130, 3),
        (1, 9),
        (9, 1),
    ];
    for (w, h) in shapes {
        let mesh = Mesh::new(w, h);
        let mut quadrants = [false; 4];
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(0xB175 + seed);
            let mut set = FaultSet::new(mesh);
            for c in mesh.nodes() {
                if rng.gen_bool(0.12) {
                    set.insert(c);
                }
            }
            let blocked = |c: Coord| set.is_faulty(c);
            let sources = [
                Coord::new(w / 2, h / 2),
                Coord::new(0, 0),
                Coord::new(w - 1, h - 1),
                Coord::new(rng.gen_range(0..w), rng.gen_range(0..h)),
            ];
            for s in sources {
                for d in mesh.nodes() {
                    let want = minimal_path_exists(&mesh, s, d, blocked);
                    assert_eq!(
                        minimal_path_exists_packed(s, d, set.packed()),
                        want,
                        "{w}x{h} seed {seed}: s={s}, d={d}"
                    );
                    if want && s != d {
                        let q = Quadrant::of(s, d);
                        quadrants[Quadrant::ALL.iter().position(|&a| a == q).unwrap()] = true;
                    }
                }
            }
        }
        if w > 1 && h > 1 {
            assert_eq!(quadrants, [true; 4], "{w}x{h}: every quadrant reached");
        }
    }
}
