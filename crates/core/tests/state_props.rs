//! Property tests for the epoched dynamic-fault layer: a [`ScenarioState`]
//! driven by N random insertions must be indistinguishable from a
//! [`Scenario`] built from scratch on the final fault set — per-node
//! block states, both MCC labelings, all three safety maps, the block and
//! component rectangles in order, and every decision the epoch-tagged cache
//! claims is fresh.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use emr_core::{decide_local, DecisionCache, Model, Scenario, ScenarioState};
use emr_fault::{FaultSet, MccType};
use emr_mesh::{Coord, Mesh};

/// Random mesh dimensions, biased toward degenerate 1×N / N×1 shapes.
fn draw_mesh(rng: &mut StdRng) -> Mesh {
    let side = |rng: &mut StdRng| match rng.gen_range(0..6u32) {
        0 => 1,
        1 => 2,
        _ => rng.gen_range(3..=14),
    };
    Mesh::new(side(rng), side(rng))
}

fn assert_state_matches_rebuild(state: &ScenarioState, ctx: &str) {
    let rebuilt = Scenario::build(state.scenario().faults().clone());
    let sc = state.scenario();
    for c in state.mesh().nodes() {
        assert_eq!(
            sc.blocks().state(c),
            rebuilt.blocks().state(c),
            "{ctx}: block state at {c}"
        );
        assert_eq!(
            sc.block_safety_map().level(c),
            rebuilt.block_safety_map().level(c),
            "{ctx}: block safety at {c}"
        );
        for ty in MccType::ALL {
            assert_eq!(
                sc.mcc(ty).status(c),
                rebuilt.mcc(ty).status(c),
                "{ctx}: {ty:?} status at {c}"
            );
            assert_eq!(
                sc.mcc_safety_map(ty).level(c),
                rebuilt.mcc_safety_map(ty).level(c),
                "{ctx}: {ty:?} safety at {c}"
            );
        }
    }
    // Whole maps: the planes, and the rectangles an insert dropped,
    // rebuilt in a fresh build's order.
    assert_eq!(sc.blocks(), rebuilt.blocks(), "{ctx}: block map");
    for ty in MccType::ALL {
        assert_eq!(sc.mcc(ty), rebuilt.mcc(ty), "{ctx}: {ty:?} map");
    }
}

#[test]
fn random_insertion_sequences_match_rebuild() {
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mesh = draw_mesh(&mut rng);
        let (w, h) = (mesh.width(), mesh.height());
        let initial = (0..rng.gen_range(0..=(w * h / 8).max(1)))
            .map(|_| Coord::new(rng.gen_range(0..w), rng.gen_range(0..h)))
            .collect::<Vec<_>>();
        let mut state = ScenarioState::new(FaultSet::from_coords(mesh, initial));
        let insertions = rng.gen_range(1..=((w * h / 4).clamp(1, 20)));
        for k in 0..insertions {
            let c = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
            let epoch_before = state.epoch();
            let was_faulty = state.scenario().faults().is_faulty(c);
            let bumped = state.insert_fault(c);
            assert_eq!(bumped.is_some(), !was_faulty, "seed {seed} step {k}");
            if let Some(e) = bumped {
                assert_eq!(e, epoch_before + 1, "seed {seed}: epochs contiguous");
            }
            assert_state_matches_rebuild(&state, &format!("seed {seed} {w}x{h} step {k}"));
        }
    }
}

#[test]
fn fresh_cache_claims_are_exact() {
    for seed in 0..25u64 {
        let mut rng = StdRng::seed_from_u64(0xdeca_f000 ^ seed);
        let mesh = draw_mesh(&mut rng);
        let (w, h) = (mesh.width(), mesh.height());
        let mut state = ScenarioState::new(FaultSet::new(mesh));
        let mut cache = DecisionCache::new();
        let pairs: Vec<(Coord, Coord)> = (0..8)
            .map(|_| {
                (
                    Coord::new(rng.gen_range(0..w), rng.gen_range(0..h)),
                    Coord::new(rng.gen_range(0..w), rng.gen_range(0..h)),
                )
            })
            .filter(|(s, d)| s != d)
            .collect();
        for _ in 0..(w * h / 5).clamp(2, 12) {
            for &(s, d) in &pairs {
                for model in Model::ALL {
                    cache.decide(&state, model, s, d);
                }
            }
            let c = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
            state.insert_fault(c);
            // Every decision the cache still claims is fresh must equal a
            // from-scratch recompute on the updated state.
            for &(s, d) in &pairs {
                for model in Model::ALL {
                    if let Some(cached) = cache.peek_fresh(&state, model, s, d) {
                        let view = state.scenario().view(model);
                        assert_eq!(
                            cached,
                            decide_local(&view, s, d),
                            "seed {seed} {w}x{h}: stale-but-claimed-fresh \
                             decision for {model:?} {s}->{d} after fault {c}"
                        );
                    }
                }
            }
        }
        assert!(
            cache.hits() + cache.misses() > 0,
            "seed {seed}: cache exercised"
        );
    }
}

#[test]
fn degenerate_line_meshes_work() {
    // 1×N meshes: blocks and MCCs degenerate to segments; the epoched
    // path must agree with rebuilds all the same.
    for (w, h) in [(1, 12), (12, 1), (1, 1), (2, 2)] {
        let mesh = Mesh::new(w, h);
        let mut state = ScenarioState::new(FaultSet::new(mesh));
        let mut rng = StdRng::seed_from_u64(7);
        for k in 0..(w * h).min(6) {
            let c = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
            state.insert_fault(c);
            assert_state_matches_rebuild(&state, &format!("{w}x{h} step {k}"));
        }
    }
}
