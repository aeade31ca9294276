//! The declarative cross-layer oracle table.
//!
//! Each [`Oracle`] states one inter-layer claim the paper's structure
//! guarantees, names the layer that is ground truth for it, and checks it
//! on a concrete [`ScenarioSpec`]. The harness runs every oracle on every
//! generated scenario; a non-empty violation list is a conformance bug in
//! some layer (or, during `--sabotage` runs, in the deliberately corrupted
//! comparison used to demonstrate the shrinker).
//!
//! Direction of trust, from the bottom up:
//!
//! * an independent BFS (local to this crate) cross-checks the exact DP,
//! * the exact DP (`emr_fault::reach`) is ground truth for reachability,
//! * coverage (`emr_fault::coverage`) must be *equivalent* to the DP,
//! * the sufficient conditions (`emr-core`) must *imply* the DP,
//! * routing must realize what the conditions promise,
//! * the distributed protocols must converge to the centralized maps,
//! * the packet simulator must deliver at exactly the predicted length,
//! * mirroring and fault-monotonicity are metamorphic invariants of all of
//!   the above.

use std::panic::{catch_unwind, AssertUnwindSafe};

use serde::{Deserialize, Serialize};

use emr_core::conditions::{StrategyKind, StrategyParams};
use emr_core::{
    conditions, decide_local, route, DecisionCache, Ensured, Model, ModelView, RouteError,
    SafetyLevel, SafetyMap, Scenario, ScenarioState,
};
use emr_distsim::protocols::boundary::{self, BoundaryLine, BoundaryMark};
use emr_distsim::protocols::esl::{self, EslFormation};
use emr_distsim::protocols::labeling::{BlockLabeling, BlockStatus, MccLabeling};
use emr_distsim::Engine;
use emr_fault::{
    coverage, reach, reach_bits, BlockMap, FaultSet, MccMap, MccType, NodeState, ReachMap,
};
use emr_mesh::{BitGrid, Coord, Direction, Frame, Grid, Mesh, Rect};
use emr_netsim::{
    AdaptiveRouter, EpochedWuRouter, EventSim, NetSim, Packet, Router, TrafficPattern, Workload,
    WuRouter, XyRouter,
};
use emr_serve::api::{
    AdvanceEpoch, InjectFault, ReachQuery, RegisterMesh, Request, Response, RouteQuery,
    SafetyQuery, SnapshotStats, WarmDecision,
};
use emr_serve::{LoopbackClient, Store, StoreConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{derive_seed, Injection, ScenarioSpec};

/// One conformance violation: which oracle failed and a human-readable
/// description pinpointing the disagreeing inputs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// The failing oracle's name (an entry of [`ORACLES`]).
    pub oracle: String,
    /// What disagreed, with the concrete inputs.
    pub detail: String,
}

/// Options threaded through every oracle check.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckCtx {
    /// Corrupt the `sufficient-implies-dp` oracle's DP with a phantom
    /// obstacle at the mesh center. Used to demonstrate that a genuinely
    /// wrong layer produces a shrunk counterexample (never set in CI).
    pub sabotage: bool,
}

/// One cross-layer claim: a name, the layer trusted as ground truth, and
/// the checking function.
pub struct Oracle {
    /// Stable kebab-case identifier (appears in reports and repro files).
    pub name: &'static str,
    /// The claim, stated as "X must agree with ground-truth Y".
    pub claim: &'static str,
    check: fn(&ScenarioSpec, &CheckCtx) -> Vec<Violation>,
}

/// The full oracle table, checked in order on every scenario.
pub const ORACLES: &[Oracle] = &[
    Oracle {
        name: "dp-vs-bfs",
        claim: "emr_fault::reach agrees with an independent BFS, and its \
                witness paths are valid (ground truth: the BFS)",
        check: o_dp_vs_bfs,
    },
    Oracle {
        name: "reach-bits-matches-dp",
        claim: "the word-parallel pair kernels (predicate and packed, \
                serve's path) and each pair's rectangle ReachMap equal the \
                scalar DP on every pair, and the four corner maps from a \
                source equal it on every node, for both the fault and block \
                obstacle sets (ground truth: emr_fault::reach)",
        check: o_reach_bits_matches_dp,
    },
    Oracle {
        name: "block-bits-matches-scalar",
        claim: "the fault-seeded Definition-1 block construction equals \
                the scalar worklist build, map-for-map (ground truth: \
                BlockMap::build_scalar)",
        check: o_block_bits_matches_scalar,
    },
    Oracle {
        name: "mcc-bits-matches-scalar",
        claim: "the fault-seeded Definition-2 label worklists equal the \
                scalar per-node sweeps for both MCC types (ground truth: \
                MccMap::build_scalar)",
        check: o_mcc_bits_matches_scalar,
    },
    Oracle {
        name: "safety-bits-matches-scalar",
        claim: "the safety maps' word scans over each obstacle plane and \
                its transpose, built fresh and repaired column by column, \
                equal the scalar ESL sweep for every obstacle map, and \
                Definition 3 as the conditions decide it (safe_source) \
                equals safe_for on the scalar level of the plane each pair \
                reads, from every node toward each pair's destination \
                (ground truth: emr_distsim::protocols::esl::compute_global)",
        check: o_safety_bits_matches_scalar,
    },
    Oracle {
        name: "sufficient-implies-dp",
        claim: "every fired sufficient condition implies the exact DP \
                verdict it promises (ground truth: emr_fault::reach)",
        check: o_sufficient_implies_dp,
    },
    Oracle {
        name: "coverage-iff-dp",
        claim: "Wang's coverage condition is equivalent to the DP for \
                endpoints outside every block (ground truth: emr_fault::reach)",
        check: o_coverage_iff_dp,
    },
    Oracle {
        name: "boundary-segments-match-rays",
        claim: "after every epoch of a fault replay, the replay state's \
                cached boundary maps of the block plane and both MCC \
                labelings carry exactly the straight steps of the global \
                ray walk at every node, and under each model wu_step \
                equals the per-mark veto rule over the full contours of \
                the plane the pair's view reads, on every node of every \
                pair's bounding box \
                (ground truth: emr_distsim::protocols::boundary::compute_global)",
        check: o_boundary_segments_match_rays,
    },
    Oracle {
        name: "route-delivers",
        claim: "executing a condition's plan yields a fault-avoiding path \
                of the promised length (ground truth: the condition)",
        check: o_route_delivers,
    },
    Oracle {
        name: "distsim-matches",
        claim: "converged distributed labelings and safety levels equal the \
                centralized maps (ground truth: emr_fault / esl::compute_global)",
        check: o_distsim_matches,
    },
    Oracle {
        name: "netsim-hops",
        claim: "packets with minimal-ensured plans are all delivered in \
                exactly manhattan(s, d) hops (ground truth: the plan)",
        check: o_netsim_hops,
    },
    Oracle {
        name: "netsim-event-matches-cycle",
        claim: "the event-driven network core produces bit-identical \
                reports (delivered, failed, hops, latency, peaks, cycles, \
                fault accounting) to the cycle-accurate stepper on seeded \
                direct workloads, on strategy-4 two-phase packets under \
                both fault models, and with scheduled mid-flight faults \
                (ground truth: NetSim)",
        check: o_event_matches_cycle,
    },
    Oracle {
        name: "state-matches-rebuild",
        claim: "replaying the faults as epoched arrivals leaves the \
                incremental state identical to a from-scratch rebuild after \
                every epoch — block states, MCC statuses, safety levels, and \
                the whole block and MCC maps (planes, and rectangles in \
                order, read every epoch so each insert must drop them) — \
                and every \
                cache-fresh decision equals a recompute (ground truth: \
                Scenario::build)",
        check: o_state_matches_rebuild,
    },
    Oracle {
        name: "serve-matches-direct",
        claim: "every response a serve session produces — routes (those \
                served from a Warm memo included), safety levels, \
                reachability, at every retained epoch — equals a fresh \
                Scenario built from that epoch's fault prefix, and the \
                whole response stream is invariant under the shard count \
                (ground truth: Scenario::build + decide_local)",
        check: o_serve_matches_direct,
    },
    Oracle {
        name: "mirror-invariance",
        claim: "the four quadrant mirrorings preserve every per-pair \
                verdict (metamorphic)",
        check: o_mirror_invariance,
    },
    Oracle {
        name: "fault-monotone",
        claim: "adding a fault never turns an unreachable pair reachable \
                (metamorphic)",
        check: o_fault_monotone,
    },
    Oracle {
        name: "mesh3-layered-safe",
        claim: "the 3-D layered sufficient condition implies the 3-D exact \
                DP (ground truth: emr_mesh3::reach)",
        check: o_mesh3_layered_safe,
    },
];

/// Looks up one oracle by name.
pub fn oracle_by_name(name: &str) -> Option<&'static Oracle> {
    ORACLES.iter().find(|o| o.name == name)
}

/// Runs a single oracle, converting panics into violations (a panic in any
/// layer is itself a conformance failure and must shrink like one).
pub fn check_oracle(oracle: &Oracle, spec: &ScenarioSpec, ctx: &CheckCtx) -> Vec<Violation> {
    match catch_unwind(AssertUnwindSafe(|| (oracle.check)(spec, ctx))) {
        Ok(violations) => violations,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            vec![Violation {
                oracle: oracle.name.to_string(),
                detail: format!("panic: {msg}"),
            }]
        }
    }
}

/// Runs the whole table on one scenario.
pub fn check_spec(spec: &ScenarioSpec, ctx: &CheckCtx) -> Vec<Violation> {
    ORACLES
        .iter()
        .flat_map(|o| check_oracle(o, spec, ctx))
        .collect()
}

fn violation(oracle: &str, detail: String) -> Violation {
    Violation {
        oracle: oracle.to_string(),
        detail,
    }
}

// ---------------------------------------------------------------------------
// Shared helpers

/// Shortest obstacle-avoiding path length by plain BFS; `None` when
/// unreachable or an endpoint is blocked/off-mesh. Independent of the DP in
/// `emr_fault::reach` on purpose.
fn bfs_shortest(mesh: Mesh, s: Coord, d: Coord, blocked: &dyn Fn(Coord) -> bool) -> Option<u32> {
    if !mesh.contains(s) || !mesh.contains(d) || blocked(s) || blocked(d) {
        return None;
    }
    let mut dist: Grid<Option<u32>> = Grid::new(mesh, None);
    let mut queue = std::collections::VecDeque::new();
    dist[s] = Some(0);
    queue.push_back(s);
    while let Some(c) = queue.pop_front() {
        let dc = dist[c].expect("queued nodes have distances");
        if c == d {
            return Some(dc);
        }
        for n in mesh.neighbors(c) {
            if !blocked(n) && dist[n].is_none() {
                dist[n] = Some(dc + 1);
                queue.push_back(n);
            }
        }
    }
    None
}

fn kind_name(kind: StrategyKind) -> &'static str {
    match kind {
        StrategyKind::S1 => "strategy1",
        StrategyKind::S2 => "strategy2",
        StrategyKind::S3 => "strategy3",
        StrategyKind::S4 => "strategy4",
    }
}

fn model_name(model: Model) -> &'static str {
    match model {
        Model::FaultBlock => "block",
        Model::Mcc => "mcc",
    }
}

/// Every condition that fires for the pair, with its guarantee.
fn fired_conditions(view: &ModelView<'_>, s: Coord, d: Coord) -> Vec<(&'static str, Ensured)> {
    let mut fired = Vec::new();
    if let Some(plan) = conditions::safe_source(view, s, d) {
        fired.push(("safe", Ensured::Minimal(plan)));
    }
    if let Some(e) = conditions::ext1(view, s, d) {
        fired.push(("ext1", e));
    }
    let params = StrategyParams::defaults_for(view, s, d);
    for kind in StrategyKind::ALL {
        if let Some(e) = conditions::strategy_with(view, s, d, kind, &params) {
            fired.push((kind_name(kind), e));
        }
    }
    fired
}

/// The obstacle plane `view` reads for routes from `s` to `d`, as an
/// index into `[blocks, MCC type one, MCC type two]`: under MCC, read off
/// the view's obstacle test at `split`, a node where the two labelings
/// differ (with none, the two planes and every map built from them are
/// equal).
fn plane_read(view: &ModelView<'_>, split: Option<Coord>, s: Coord, d: Coord) -> usize {
    let one = view.scenario().mcc(MccType::One);
    match (view.model(), split) {
        (Model::FaultBlock, _) => 0,
        (Model::Mcc, Some(c)) if view.is_obstacle(c, s, d) != one.is_blocked(c) => 2,
        (Model::Mcc, _) => 1,
    }
}

// ---------------------------------------------------------------------------
// Oracles

fn o_dp_vs_bfs(spec: &ScenarioSpec, _ctx: &CheckCtx) -> Vec<Violation> {
    let mut out = Vec::new();
    let sc = spec.scenario();
    let mesh = spec.mesh();
    let blocks = sc.blocks();
    let blocked = |c: Coord| blocks.is_blocked(c);
    for &(s, d) in &spec.pairs {
        let bfs = bfs_shortest(mesh, s, d, &blocked);
        let bfs_minimal = bfs == Some(s.manhattan(d));
        let dp = reach::minimal_path_exists(&mesh, s, d, blocked);
        if dp != bfs_minimal {
            out.push(violation(
                "dp-vs-bfs",
                format!("{s}->{d}: DP says {dp}, BFS shortest is {bfs:?}"),
            ));
            continue;
        }
        let witness = reach::minimal_path(&mesh, s, d, blocked);
        match witness {
            Some(path) => {
                if !dp {
                    out.push(violation(
                        "dp-vs-bfs",
                        format!("{s}->{d}: witness path but DP says unreachable"),
                    ));
                }
                if !path.is_minimal()
                    || !path.avoids(blocked)
                    || path.source() != Some(s)
                    || path.dest() != Some(d)
                {
                    out.push(violation(
                        "dp-vs-bfs",
                        format!("{s}->{d}: invalid witness path {:?}", path.nodes()),
                    ));
                }
            }
            None => {
                if dp {
                    out.push(violation(
                        "dp-vs-bfs",
                        format!("{s}->{d}: DP reachable but no witness path"),
                    ));
                }
            }
        }
    }
    out
}

fn o_reach_bits_matches_dp(spec: &ScenarioSpec, _ctx: &CheckCtx) -> Vec<Violation> {
    let mut out = Vec::new();
    let sc = spec.scenario();
    let mesh = spec.mesh();
    let faults = sc.faults();
    let blocks = sc.blocks();
    let is_fault = |c: Coord| faults.is_faulty(c);
    let is_block = |c: Coord| blocks.is_blocked(c);
    let obstacle_sets: [(&str, &dyn Fn(Coord) -> bool); 2] =
        [("faults", &is_fault), ("blocks", &is_block)];
    for (label, blocked) in obstacle_sets {
        let packed = BitGrid::from_blocked(mesh, blocked);
        // Per pair: every reach answer the system serves — the predicate
        // kernel, serve's packed kernel, and the pair's own rectangle map
        // (the sweep's path) at its far corner — equals the DP.
        for &(s, d) in &spec.pairs {
            let scalar = reach::minimal_path_exists(&mesh, s, d, blocked);
            let answers = [
                (
                    "bit-parallel",
                    reach_bits::minimal_path_exists_bits(&mesh, s, d, blocked),
                ),
                (
                    "packed",
                    reach_bits::minimal_path_exists_packed(s, d, &packed),
                ),
                (
                    "rectangle map",
                    ReachMap::from_packed(s, d, &packed).reachable(d),
                ),
            ];
            for (kernel, got) in answers {
                if got != scalar {
                    out.push(violation(
                        "reach-bits-matches-dp",
                        format!("[{label}] {s}->{d}: {kernel} says {got}, scalar DP says {scalar}"),
                    ));
                }
            }
        }
        // Whole mesh: from up to two distinct pair sources, the four maps
        // toward the mesh corners answer every node like a scalar
        // recompute. The source's row and column lie in two maps, and
        // both must agree.
        let mut sources: Vec<Coord> = Vec::new();
        for &(s, _) in &spec.pairs {
            if !sources.contains(&s) {
                sources.push(s);
            }
            if sources.len() == 2 {
                break;
            }
        }
        let (w, h) = (mesh.width(), mesh.height());
        for s in sources {
            let dp = Grid::from_fn(mesh, |d| reach::minimal_path_exists(&mesh, s, d, blocked));
            for corner in [(0, 0), (w - 1, 0), (0, h - 1), (w - 1, h - 1)].map(Coord::from) {
                let map = ReachMap::from_packed(s, corner, &packed);
                if let Some(d) = Rect::point(s)
                    .expanded_to(corner)
                    .iter()
                    .find(|&d| map.reachable(d) != dp[d])
                {
                    // One node pinpoints the divergence; the rest cascade.
                    out.push(violation(
                        "reach-bits-matches-dp",
                        format!(
                            "[{label}] ReachMap from {s} toward {corner} says {} at {d}, \
                             scalar DP says {}",
                            map.reachable(d),
                            dp[d]
                        ),
                    ));
                }
            }
        }
    }
    out
}

fn o_block_bits_matches_scalar(spec: &ScenarioSpec, _ctx: &CheckCtx) -> Vec<Violation> {
    let mut out = Vec::new();
    let sc = spec.scenario();
    let mesh = spec.mesh();
    let bits = sc.blocks(); // the default build runs the bit fix-point
    let scalar = BlockMap::build_scalar(sc.faults());
    for c in mesh.nodes() {
        if bits.state(c) != scalar.state(c) {
            out.push(violation(
                "block-bits-matches-scalar",
                format!(
                    "node state at {c}: bit {:?}, scalar {:?}",
                    bits.state(c),
                    scalar.state(c)
                ),
            ));
            return out; // the first node pinpoints it; the rest cascade
        }
    }
    if *bits != scalar {
        out.push(violation(
            "block-bits-matches-scalar",
            "node states agree but the maps differ (rects, or packed bits out \
             of lock-step)"
                .to_string(),
        ));
    }
    out
}

fn o_mcc_bits_matches_scalar(spec: &ScenarioSpec, _ctx: &CheckCtx) -> Vec<Violation> {
    let mut out = Vec::new();
    let sc = spec.scenario();
    let mesh = spec.mesh();
    for ty in MccType::ALL {
        let bits = sc.mcc(ty); // the default build runs the worklists
        let scalar = MccMap::build_scalar(sc.faults(), ty);
        let mut diverged = false;
        for c in mesh.nodes() {
            if bits.status(c) != scalar.status(c) {
                out.push(violation(
                    "mcc-bits-matches-scalar",
                    format!(
                        "[{ty:?}] status at {c}: bit {:?}, scalar {:?}",
                        bits.status(c),
                        scalar.status(c)
                    ),
                ));
                diverged = true;
                break;
            }
        }
        if !diverged && *bits != scalar {
            out.push(violation(
                "mcc-bits-matches-scalar",
                format!(
                    "[{ty:?}] statuses agree but the maps differ (label planes, \
                     rects, or packed bits out of lock-step)"
                ),
            ));
        }
    }
    out
}

fn o_safety_bits_matches_scalar(spec: &ScenarioSpec, _ctx: &CheckCtx) -> Vec<Violation> {
    let mut out = Vec::new();
    let sc = spec.scenario();
    let mesh = spec.mesh();
    // From-scratch: every safety map the scenario serves scans its
    // model's packed obstacle plane and the plane's fault-seeded
    // transpose; each must equal the scalar ESL sweep over the same
    // obstacle predicate.
    let mut scalar = Vec::new();
    let mut check = |label: String, bit_map: SafetyMap<'_>, blocked: &dyn Fn(Coord) -> bool| {
        let levels = esl::compute_global(&Grid::from_fn(mesh, blocked));
        for c in mesh.nodes() {
            let want = SafetyLevel::from_tuple(levels[c]);
            if bit_map.level(c) != want {
                out.push(violation(
                    "safety-bits-matches-scalar",
                    format!(
                        "[{label}] level at {c}: bits {}, scalar {want}",
                        bit_map.level(c)
                    ),
                ));
                break; // first node pinpoints the lane that diverged
            }
        }
        scalar.push(levels);
    };
    check("blocks".to_string(), sc.block_safety_map(), &|c| {
        sc.blocks().is_blocked(c)
    });
    for ty in MccType::ALL {
        check(format!("mcc {ty:?}"), sc.mcc_safety_map(ty), &|c| {
            sc.mcc(ty).is_blocked(c)
        });
    }
    // Definition 3 as the conditions decide it (two range tests through
    // `safe_source`) against `safe_for` on the scalar level of the plane
    // the pair reads, from every node toward each pair's destination.
    let (one, two) = (sc.mcc(MccType::One), sc.mcc(MccType::Two));
    let split = mesh
        .nodes()
        .find(|&c| one.is_blocked(c) != two.is_blocked(c));
    let dests: std::collections::BTreeSet<Coord> = spec.pairs.iter().map(|&(_, d)| d).collect();
    for model in Model::ALL {
        let view = sc.view(model);
        for &d in &dests {
            let wrong = mesh.nodes().filter(|&u| u != d).find(|&u| {
                let level = SafetyLevel::from_tuple(scalar[plane_read(&view, split, u, d)][u]);
                let frame = Frame::normalizing(u, d);
                let want = view.endpoints_usable(u, d) && level.safe_for(&frame, frame.to_rel(d));
                conditions::safe_source(&view, u, d).is_some() != want
            });
            if let Some(u) = wrong {
                let model = model_name(model);
                let detail = format!("[{model}] Definition 3 at {u} toward {d}: safe_source errs");
                out.push(violation("safety-bits-matches-scalar", detail));
            }
        }
    }
    // Incremental: replaying the faults one at a time through a warmed
    // state re-extracts the transposed columns that cross each change;
    // every repaired map must answer as the from-scratch one above (and,
    // transitively, as the scalar sweep).
    let mut state = ScenarioState::new(FaultSet::new(mesh));
    for &f in &spec.faults {
        state.insert_fault(f);
    }
    let swept = state.scenario();
    fn maps(s: &Scenario) -> [(&'static str, SafetyMap<'_>); 3] {
        [
            ("blocks", s.block_safety_map()),
            ("mcc One", s.mcc_safety_map(MccType::One)),
            ("mcc Two", s.mcc_safety_map(MccType::Two)),
        ]
    }
    for ((label, swept), (_, rebuilt)) in maps(swept).into_iter().zip(maps(&sc)) {
        if let Some(c) = mesh.nodes().find(|&c| swept.level(c) != rebuilt.level(c)) {
            out.push(violation(
                "safety-bits-matches-scalar",
                format!(
                    "[incremental {label}] level at {c} after {} faults: repaired {}, rebuilt {}",
                    spec.faults.len(),
                    swept.level(c),
                    rebuilt.level(c)
                ),
            ));
        }
    }
    out
}

fn o_sufficient_implies_dp(spec: &ScenarioSpec, ctx: &CheckCtx) -> Vec<Violation> {
    let mut out = Vec::new();
    let sc = spec.scenario();
    let mesh = spec.mesh();
    let faults = sc.faults();
    // The sabotage hook: a phantom obstacle the conditions cannot see,
    // guaranteeing divergence that must shrink to a tiny counterexample.
    let phantom = Coord::new((spec.width - 1) / 2, (spec.height - 1) / 2);
    for model in Model::ALL {
        let view = sc.view(model);
        for &(s, d) in &spec.pairs {
            let fired = fired_conditions(&view, s, d);
            if fired.is_empty() {
                continue;
            }
            // Ground truth per model. Under blocks there is one obstacle
            // set, so the promised path avoids it. Under MCC, conditions
            // and Wu's per-hop checks each consult the labeling type of
            // their own leg — different legs can use different types — so
            // the end-to-end guarantee the paper makes is a minimal path
            // among *fault-free* nodes (every labeling's obstacle set
            // contains the faults).
            let blocked = |c: Coord| {
                let base = match model {
                    Model::FaultBlock => view.is_obstacle(c, s, d),
                    Model::Mcc => faults.is_faulty(c),
                };
                base || (ctx.sabotage && c == phantom)
            };
            let dp = reach::minimal_path_exists(&mesh, s, d, blocked);
            let sub = if dp {
                true
            } else {
                // Sub-minimal promises allow one detour (minimal + 2).
                matches!(bfs_shortest(mesh, s, d, &blocked),
                         Some(len) if len <= s.manhattan(d) + 2)
            };
            for (name, ensured) in fired {
                if ensured.is_minimal() && !dp {
                    out.push(violation(
                        "sufficient-implies-dp",
                        format!(
                            "[{}] {name} fired for {s}->{d} but no minimal path exists",
                            model_name(model)
                        ),
                    ));
                } else if !ensured.is_minimal() && !sub {
                    out.push(violation(
                        "sufficient-implies-dp",
                        format!(
                            "[{}] {name} promised sub-minimal for {s}->{d} but no path \
                             within manhattan+2 exists",
                            model_name(model)
                        ),
                    ));
                }
            }
        }
    }
    out
}

fn o_coverage_iff_dp(spec: &ScenarioSpec, _ctx: &CheckCtx) -> Vec<Violation> {
    let mut out = Vec::new();
    let sc = spec.scenario();
    let mesh = spec.mesh();
    let blocks = sc.blocks();
    let rects = blocks.rects();
    for &(s, d) in &spec.pairs {
        // The paper's standing assumption: endpoints outside every block.
        if rects.iter().any(|r| r.contains(s) || r.contains(d)) {
            continue;
        }
        let cov = coverage::minimal_path_exists_by_coverage(rects, s, d);
        let dp = reach::minimal_path_exists(&mesh, s, d, |c| blocks.is_blocked(c));
        if cov != dp {
            out.push(violation(
                "coverage-iff-dp",
                format!("{s}->{d}: coverage says {cov}, DP says {dp} (rects {rects:?})"),
            ));
        }
    }
    out
}

/// The per-mark reference for [`route::wu_step`]: the veto scan over every
/// contour mark at `u`, bend steps included, with each mark's block, line
/// and direction mirrored into the route's relative frame.
fn wu_step_per_mark(
    view: &ModelView<'_>,
    marks: &Grid<Vec<BoundaryMark>>,
    s: Coord,
    d: Coord,
    u: Coord,
) -> Result<Direction, RouteError> {
    let frame = Frame::normalizing(s, d);
    let rel_d = frame.to_rel(d);
    let rel_u = frame.to_rel(u);
    let east_pref = rel_u.x < rel_d.x;
    let north_pref = rel_u.y < rel_d.y;
    // The frame's mirrorings swap L1 with L2 (Y flip) and L3 with L4
    // (X flip).
    let rel_line = |line: BoundaryLine| match (line, frame.flips_x(), frame.flips_y()) {
        (BoundaryLine::L1, _, true) => BoundaryLine::L2,
        (BoundaryLine::L2, _, true) => BoundaryLine::L1,
        (BoundaryLine::L3, true, _) => BoundaryLine::L4,
        (BoundaryLine::L4, true, _) => BoundaryLine::L3,
        (line, _, _) => line,
    };
    let mut east_vetoed = false;
    let mut north_vetoed = false;
    for mark in marks.get(u).map_or(&[][..], Vec::as_slice) {
        let rb = frame.rect_to_rel(&mark.block);
        let toward = frame.dir_to_rel(mark.toward_block);
        match rel_line(mark.line) {
            // Lower L3 contour, destination in R4, unless the East move
            // itself stays on the contour (a bend step).
            BoundaryLine::L3 => {
                let on_lower = rel_u.y < rb.y_min();
                let in_r4 = rel_d.y > rb.y_max() && rel_d.x <= rb.x_max();
                east_vetoed |= on_lower && in_r4 && toward != Direction::East;
            }
            // Left L1 contour, destination in R6: symmetric.
            BoundaryLine::L1 => {
                let on_left = rel_u.x < rb.x_min();
                let in_r6 = rel_d.x > rb.x_max() && rel_d.y <= rb.y_max();
                north_vetoed |= on_left && in_r6 && toward != Direction::North;
            }
            _ => {}
        }
    }
    let open = |dir: Direction| {
        let v = u.step(frame.dir_to_abs(dir));
        view.mesh().contains(v) && !view.is_obstacle(v, s, d)
    };
    let east_ok = east_pref && !east_vetoed && open(Direction::East);
    let north_ok = north_pref && !north_vetoed && open(Direction::North);
    let rel_dir = match (east_ok, north_ok) {
        (true, true) => {
            if rel_d.x - rel_u.x >= rel_d.y - rel_u.y {
                Direction::East
            } else {
                Direction::North
            }
        }
        (true, false) => Direction::East,
        (false, true) => Direction::North,
        (false, false) => {
            return if east_pref && north_pref && east_vetoed && north_vetoed {
                Err(RouteError::Conflict(u))
            } else {
                Err(RouteError::Stuck(u))
            };
        }
    };
    Ok(frame.dir_to_abs(rel_dir))
}

fn o_boundary_segments_match_rays(spec: &ScenarioSpec, _ctx: &CheckCtx) -> Vec<Violation> {
    const NAME: &str = "boundary-segments-match-rays";
    type MarkKey = (Rect, Option<usize>, Direction);
    let key = |m: &BoundaryMark| {
        let line = BoundaryLine::ALL.iter().position(|&l| l == m.line);
        (m.block, line, m.toward_block)
    };
    // A straight step travels along its own line: vertically on L3/L4,
    // horizontally on L1/L2.
    let straight = |m: &&BoundaryMark| {
        matches!(m.line, BoundaryLine::L3 | BoundaryLine::L4) == m.toward_block.is_vertical()
    };
    let mut out = Vec::new();
    let mesh = spec.mesh();
    let mut state = ScenarioState::new(FaultSet::new(mesh));
    for (k, &f) in spec.faults.iter().enumerate() {
        state.insert_fault(f);
        let sc = state.scenario();
        let (blocks, one, two) = (sc.blocks(), sc.mcc(MccType::One), sc.mcc(MccType::Two));
        // The state's own cached maps: one the fault failed to drop is
        // stale against this epoch's rays.
        let runs = [
            sc.block_boundary_map(),
            sc.mcc_boundary_map(MccType::One),
            sc.mcc_boundary_map(MccType::Two),
        ];
        let planes = [
            ("block", blocks.rects(), blocks.packed()),
            ("mcc One", one.rects(), one.packed()),
            ("mcc Two", two.rects(), two.packed()),
        ];
        let mut contours = Vec::new();
        for ((label, rects, plane), runs) in planes.into_iter().zip(runs) {
            let blocked = Grid::from_fn(mesh, |c| plane.get(c) == Some(true));
            let marks = boundary::compute_global(&mesh, rects, &blocked);
            for c in mesh.nodes() {
                let want: std::collections::BTreeSet<MarkKey> =
                    marks[c].iter().filter(straight).map(key).collect();
                let got: std::collections::BTreeSet<MarkKey> =
                    runs.marks_at(c).map(|m| key(&m)).collect();
                if got != want {
                    out.push(violation(
                        NAME,
                        format!(
                            "[{label}] epoch {k} (fault {f}): marks at {c}: lane runs \
                             {got:?}, straight ray steps {want:?}"
                        ),
                    ));
                    break; // one node pinpoints the run that diverged
                }
            }
            contours.push((label, marks));
        }
        // Each pair against the contours of the plane its view reads.
        let split = mesh
            .nodes()
            .find(|&c| one.is_blocked(c) != two.is_blocked(c));
        for model in Model::ALL {
            let view = sc.view(model);
            for &(s, d) in &spec.pairs {
                let (label, marks) = &contours[plane_read(&view, split, s, d)];
                let bbox = Rect::point(s).expanded_to(d);
                for u in bbox.iter() {
                    if u == d || view.is_obstacle(u, s, d) {
                        continue;
                    }
                    let got = route::wu_step(&view, s, d, u);
                    let want = wu_step_per_mark(&view, marks, s, d, u);
                    if got != want {
                        out.push(violation(
                            NAME,
                            format!(
                                "[{label}] epoch {k} (fault {f}): wu_step at {u} for \
                                 {s}->{d}: lane runs {got:?}, per-mark rule {want:?}"
                            ),
                        ));
                        break;
                    }
                }
            }
        }
    }
    out
}

fn o_route_delivers(spec: &ScenarioSpec, _ctx: &CheckCtx) -> Vec<Violation> {
    let mut out = Vec::new();
    let sc = spec.scenario();
    let faults = sc.faults();
    for model in Model::ALL {
        let view = sc.view(model);
        for &(s, d) in &spec.pairs {
            let fired = fired_conditions(&view, s, d);
            if fired.is_empty() {
                continue;
            }
            for (name, ensured) in fired {
                let plan = ensured.plan();
                match route::execute(&view, s, d, &plan) {
                    Ok(path) => {
                        let max_hops = if ensured.is_minimal() {
                            s.manhattan(d)
                        } else {
                            s.manhattan(d) + 2
                        };
                        // Per-hop obstacle checks use each leg's own MCC
                        // labeling type, so a finished MCC route is only
                        // promised to avoid *faults* (every labeling
                        // contains them); block routes avoid the one
                        // block obstacle set.
                        let avoids = match model {
                            Model::FaultBlock => path.avoids(|c| view.is_obstacle(c, s, d)),
                            Model::Mcc => path.avoids(|c| faults.is_faulty(c)),
                        };
                        let ok = path.source() == Some(s)
                            && path.dest() == Some(d)
                            && path.is_contiguous()
                            && avoids
                            && path.hops() <= max_hops;
                        if !ok {
                            out.push(violation(
                                "route-delivers",
                                format!(
                                    "[{}] {name} plan {plan:?} for {s}->{d} produced an \
                                     invalid path {:?} (promised ≤ {max_hops} hops)",
                                    model_name(model),
                                    path.nodes()
                                ),
                            ));
                        }
                    }
                    // Documented incompleteness: MCC boundary maps carry
                    // bounding rectangles, so Wu's router may report
                    // Stuck/Conflict for an ensured pair under that model.
                    Err(RouteError::Stuck(_) | RouteError::Conflict(_)) if model == Model::Mcc => {}
                    Err(e) => {
                        out.push(violation(
                            "route-delivers",
                            format!(
                                "[{}] {name} fired for {s}->{d} but executing {plan:?} \
                                 failed: {e}",
                                model_name(model)
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

fn o_distsim_matches(spec: &ScenarioSpec, _ctx: &CheckCtx) -> Vec<Violation> {
    let mut out = Vec::new();
    let sc = spec.scenario();
    let mesh = spec.mesh();
    let faulty = Grid::from_fn(mesh, |c| sc.faults().is_faulty(c));

    // Definition 1 labeling vs the centralized BlockMap.
    let (labels, _) = Engine::new(mesh).run(&BlockLabeling::new(faulty.clone()));
    for c in mesh.nodes() {
        let expected = match sc.blocks().state(c) {
            NodeState::Enabled => BlockStatus::Enabled,
            NodeState::Faulty => BlockStatus::Faulty,
            NodeState::Disabled => BlockStatus::Disabled,
        };
        if labels[c].status != expected {
            out.push(violation(
                "distsim-matches",
                format!(
                    "block labeling at {c}: distributed {:?}, centralized {expected:?}",
                    labels[c].status
                ),
            ));
        }
    }

    // Definition 2 labelings vs the centralized MccMaps.
    for (ty, proto) in [
        (MccType::One, MccLabeling::type_one(faulty.clone())),
        (MccType::Two, MccLabeling::type_two(faulty.clone())),
    ] {
        let reference = sc.mcc(ty);
        let (labels, _) = Engine::new(mesh).run(&proto);
        for c in mesh.nodes() {
            if labels[c].is_blocked() != reference.is_blocked(c) {
                out.push(violation(
                    "distsim-matches",
                    format!(
                        "MCC {ty:?} labeling at {c}: distributed {}, centralized {}",
                        labels[c].is_blocked(),
                        reference.is_blocked(c)
                    ),
                ));
            }
        }
    }

    // Safety-level formation vs the centralized sweep.
    let blocked = Grid::from_fn(mesh, |c| sc.blocks().is_blocked(c));
    let (esl_grid, _) = Engine::new(mesh).run(&EslFormation::new(blocked.clone()));
    let global = esl::compute_global(&blocked);
    for c in mesh.nodes() {
        if blocked[c] {
            continue; // Block nodes carry no safety level.
        }
        if esl_grid[c] != global[c] {
            out.push(violation(
                "distsim-matches",
                format!(
                    "ESL at {c}: distributed {:?}, centralized {:?}",
                    esl_grid[c], global[c]
                ),
            ));
        }
    }
    out
}

fn o_netsim_hops(spec: &ScenarioSpec, _ctx: &CheckCtx) -> Vec<Violation> {
    let sc = spec.scenario();
    let view = sc.view(Model::FaultBlock);
    let planned: Vec<Packet> = spec
        .pairs
        .iter()
        .filter_map(|&(s, d)| Packet::ensured(&view, s, d))
        .collect();
    if planned.is_empty() {
        return Vec::new();
    }
    let mut sim = NetSim::new(spec.mesh(), WuRouter::new(&view));
    let mut expected_hops = 0u64;
    for (i, packet) in planned.iter().enumerate() {
        expected_hops += u64::from(packet.source().manhattan(packet.dest()));
        sim.inject(packet.clone(), i as u64);
    }
    let report = match sim.run_to_completion(100_000) {
        Ok(r) => r,
        Err(e) => {
            return vec![violation(
                "netsim-hops",
                format!("simulation did not complete: {e:?}"),
            )]
        }
    };
    let mut out = Vec::new();
    if report.delivered != planned.len() as u64 || report.failed != 0 {
        out.push(violation(
            "netsim-hops",
            format!(
                "{} ensured packets: {} delivered, {} failed",
                planned.len(),
                report.delivered,
                report.failed
            ),
        ));
    } else if report.total_hops != expected_hops || report.total_manhattan != expected_hops {
        out.push(violation(
            "netsim-hops",
            format!(
                "expected {expected_hops} total hops, simulator reports hops={} \
                 manhattan={}",
                report.total_hops, report.total_manhattan
            ),
        ));
    }
    out
}

/// Replays `(cycle, packet)` traffic through both execution cores and
/// compares the full run outcome (`Result<SimReport, SimError>`).
fn event_cycle_compare<R: Router + Clone>(
    mesh: Mesh,
    traffic: &[(u64, Packet)],
    router: &R,
    which: &str,
    out: &mut Vec<Violation>,
) {
    let mut stepper = NetSim::new(mesh, router.clone());
    let mut event = EventSim::new(mesh, router.clone());
    for (cycle, packet) in traffic {
        stepper.inject(packet.clone(), *cycle);
        event.inject(packet.clone(), *cycle);
    }
    let a = stepper.run_to_completion(200_000);
    let b = event.run_to_completion(200_000);
    if a != b {
        out.push(violation(
            "netsim-event-matches-cycle",
            format!("{which}: stepper {a:?} != event core {b:?}"),
        ));
    }
}

fn o_event_matches_cycle(spec: &ScenarioSpec, _ctx: &CheckCtx) -> Vec<Violation> {
    let mut out = Vec::new();
    let sc = spec.scenario();
    let mesh = spec.mesh();
    let open = mesh.nodes().filter(|&c| !sc.blocks().is_blocked(c)).count();
    if open < 2 {
        return out; // no legal traffic endpoints
    }

    // Static replay: raw uniform traffic (failures included) through the
    // three per-hop routers.
    let mut rng = StdRng::seed_from_u64(derive_seed(spec.seed, 97, 0));
    let offered = 3.0 / mesh.node_count() as f64;
    let load = Workload::offered_load(&sc, TrafficPattern::Uniform, 40, offered, &mut rng);
    let view = sc.view(Model::FaultBlock);
    let raw = load.packets();
    event_cycle_compare(mesh, raw, &WuRouter::new(&view), "wu", &mut out);
    event_cycle_compare(mesh, raw, &XyRouter::new(mesh, sc.blocks()), "xy", &mut out);
    event_cycle_compare(
        mesh,
        raw,
        &AdaptiveRouter::new(mesh, sc.blocks()),
        "adaptive",
        &mut out,
    );

    // Two-phase replay: the strategy-4 planned packets of netsim-hops,
    // all injected at cycle 0 so they contend, under each fault model.
    // Packets whose witness is a waypoint take the next-leg branch.
    for model in Model::ALL {
        let view = sc.view(model);
        let planned: Vec<(u64, Packet)> = spec
            .pairs
            .iter()
            .filter_map(|&(s, d)| Some((0, Packet::ensured(&view, s, d)?)))
            .collect();
        if planned.is_empty() {
            continue;
        }
        let which = format!("wu planned {model:?}");
        event_cycle_compare(mesh, &planned, &WuRouter::new(&view), &which, &mut out);
    }

    // Dynamic replay: epoched Wu absorbing scheduled mid-flight faults.
    // Both cores see the same fault calendar; everything down to the
    // drop/reroute accounting must agree.
    let window = load.packets().last().map_or(0, |(c, _)| *c).max(4);
    let mut faults = Vec::new();
    for j in 1..=3u64 {
        let c = Coord::new(
            rng.gen_range(0..mesh.width()),
            rng.gen_range(0..mesh.height()),
        );
        faults.push((c, window * j / 4));
    }
    let mk = || EpochedWuRouter::new(ScenarioState::new(spec.fault_set()), Model::FaultBlock);
    let mut stepper = NetSim::new(mesh, mk());
    let mut event = EventSim::new(mesh, mk());
    load.inject_into(&mut stepper);
    load.inject_into(&mut event);
    for &(c, at) in &faults {
        stepper.schedule_fault(c, at);
        event.schedule_fault(c, at);
    }
    let a = stepper.run_dynamic_to_completion(200_000);
    let b = event.run_dynamic_to_completion(200_000);
    if a != b {
        out.push(violation(
            "netsim-event-matches-cycle",
            format!("epoched-wu dynamic: stepper {a:?} != event core {b:?}"),
        ));
    }
    out
}

fn o_state_matches_rebuild(spec: &ScenarioSpec, _ctx: &CheckCtx) -> Vec<Violation> {
    let mut out = Vec::new();
    let mesh = spec.mesh();
    let mut state = ScenarioState::new(FaultSet::new(mesh));
    let mut cache = DecisionCache::new();
    let mut prefix: Vec<Coord> = Vec::new();
    for (k, &f) in spec.faults.iter().enumerate() {
        // Warm the decision cache at the pre-arrival epoch so freshness
        // claims span the insertion.
        for &(s, d) in &spec.pairs {
            for model in Model::ALL {
                cache.decide(&state, model, s, d);
            }
        }
        state.insert_fault(f);
        prefix.push(f);
        let rebuilt = Scenario::build(FaultSet::from_coords(mesh, prefix.iter().copied()));
        let sc = state.scenario();
        for c in mesh.nodes() {
            if sc.blocks().state(c) != rebuilt.blocks().state(c) {
                out.push(violation(
                    "state-matches-rebuild",
                    format!(
                        "epoch {k} (fault {f}): block state at {c}: incremental {:?}, \
                         rebuilt {:?}",
                        sc.blocks().state(c),
                        rebuilt.blocks().state(c)
                    ),
                ));
            }
            if sc.block_safety_map().level(c) != rebuilt.block_safety_map().level(c) {
                out.push(violation(
                    "state-matches-rebuild",
                    format!("epoch {k} (fault {f}): block safety at {c} diverged"),
                ));
            }
            for ty in MccType::ALL {
                if sc.mcc(ty).status(c) != rebuilt.mcc(ty).status(c) {
                    out.push(violation(
                        "state-matches-rebuild",
                        format!(
                            "epoch {k} (fault {f}): MCC {ty:?} status at {c}: incremental \
                             {:?}, rebuilt {:?}",
                            sc.mcc(ty).status(c),
                            rebuilt.mcc(ty).status(c)
                        ),
                    ));
                }
                if sc.mcc_safety_map(ty).level(c) != rebuilt.mcc_safety_map(ty).level(c) {
                    out.push(violation(
                        "state-matches-rebuild",
                        format!("epoch {k} (fault {f}): MCC {ty:?} safety at {c} diverged"),
                    ));
                }
            }
        }
        // Map equality compares the planes and the rectangles in order.
        // Reading the rectangles here builds them, so the next epoch's
        // insert must drop them.
        if sc.blocks() != rebuilt.blocks() {
            out.push(violation(
                "state-matches-rebuild",
                format!(
                    "epoch {k} (fault {f}): block maps differ: incremental rects {:?} with \
                     {} disabled, rebuilt {:?} with {}",
                    sc.blocks().rects(),
                    sc.blocks().disabled_count(),
                    rebuilt.blocks().rects(),
                    rebuilt.blocks().disabled_count()
                ),
            ));
        }
        for ty in MccType::ALL {
            if sc.mcc(ty) != rebuilt.mcc(ty) {
                out.push(violation(
                    "state-matches-rebuild",
                    format!(
                        "epoch {k} (fault {f}): MCC {ty:?} maps differ (planes or \
                         rects in order)"
                    ),
                ));
            }
        }
        // Every decision the cache still claims fresh across this epoch
        // must be bit-identical to a recompute on the updated state.
        for &(s, d) in &spec.pairs {
            for model in Model::ALL {
                if let Some(cached) = cache.peek_fresh(&state, model, s, d) {
                    let view = sc.view(model);
                    let fresh = decide_local(&view, s, d);
                    if cached != fresh {
                        out.push(violation(
                            "state-matches-rebuild",
                            format!(
                                "epoch {k} (fault {f}): [{}] cached decision for {s}->{d} \
                                 claims fresh but differs: cached {cached:?}, recomputed \
                                 {fresh:?}",
                                model_name(model)
                            ),
                        ));
                    }
                }
            }
        }
        if !out.is_empty() {
            break; // report the first diverging epoch; later ones only cascade
        }
    }
    out
}

fn o_serve_matches_direct(spec: &ScenarioSpec, _ctx: &CheckCtx) -> Vec<Violation> {
    let mut out = Vec::new();
    let mesh = spec.mesh();
    let name = "spec";
    let mk = |shards: usize| {
        LoopbackClient::new(std::sync::Arc::new(Store::new(StoreConfig {
            shards,
            retain: 1024, // keep every epoch resident for the replay
        })))
    };
    let client = mk(1);

    // Drive one session, recording every batch and its responses so the
    // identical script can be replayed against a differently-sharded
    // store afterwards. The spec's faults arrive in at most 8 publish
    // groups, each warming every pair under both models before its
    // `Advance`, so the replay below reads Routes from snapshot memos;
    // the fault prefix live at each published epoch is mirrored from the
    // `Injected.changed` / `Published` responses themselves.
    let mut script: Vec<(Vec<Request>, Vec<Response>)> = Vec::new();
    let send = |client: &LoopbackClient,
                script: &mut Vec<(Vec<Request>, Vec<Response>)>,
                batch: Vec<Request>| {
        let responses = client.send(&batch);
        script.push((batch, responses));
        script.last().expect("just pushed").1.clone()
    };

    let register = send(
        &client,
        &mut script,
        vec![Request::Register(RegisterMesh {
            mesh: name.to_string(),
            width: spec.width,
            height: spec.height,
            faults: Vec::new(),
        })],
    );
    if !matches!(register[0], Response::Registered(_)) {
        return vec![violation(
            "serve-matches-direct",
            format!("registration failed: {:?}", register[0]),
        )];
    }

    let mut prefix: Vec<Coord> = Vec::new();
    let mut published: Vec<(u64, Vec<Coord>)> = vec![(0, Vec::new())];
    let group = spec.faults.len().div_ceil(8).max(1);
    for chunk in spec.faults.chunks(group) {
        let mut batch: Vec<Request> = chunk
            .iter()
            .map(|&c| {
                Request::Inject(InjectFault {
                    mesh: name.to_string(),
                    fault: c,
                })
            })
            .collect();
        let warms = spec.pairs.len() * Model::ALL.len();
        batch.extend(spec.pairs.iter().flat_map(|&(s, d)| {
            Model::ALL.map(|model| {
                Request::Warm(WarmDecision {
                    mesh: name.to_string(),
                    model,
                    s,
                    d,
                })
            })
        }));
        batch.push(Request::Advance(AdvanceEpoch {
            mesh: name.to_string(),
        }));
        let responses = send(&client, &mut script, batch);
        for (&c, resp) in chunk.iter().zip(responses.iter()) {
            match resp {
                Response::Injected(inj) => {
                    if inj.changed {
                        prefix.push(c);
                    }
                }
                other => out.push(violation(
                    "serve-matches-direct",
                    format!("inject of {c} answered {other:?}"),
                )),
            }
        }
        for resp in responses.iter().skip(chunk.len()).take(warms) {
            if !matches!(resp, Response::Warmed(_)) {
                out.push(violation(
                    "serve-matches-direct",
                    format!("warm answered {resp:?}"),
                ));
            }
        }
        match responses.last() {
            Some(Response::Published(p)) => {
                if p.epoch != prefix.len() as u64 {
                    out.push(violation(
                        "serve-matches-direct",
                        format!(
                            "published epoch {} after {} distinct faults",
                            p.epoch,
                            prefix.len()
                        ),
                    ));
                }
                if p.fresh {
                    published.push((p.epoch, prefix.clone()));
                }
            }
            other => out.push(violation(
                "serve-matches-direct",
                format!("advance answered {other:?}"),
            )),
        }
    }
    if !out.is_empty() {
        return out; // session itself is broken; replaying only cascades
    }

    // Differential replay: every pinned answer at every retained epoch
    // must equal a fresh from-scratch build of that epoch's prefix.
    for (epoch, prefix) in &published {
        let direct = Scenario::build(FaultSet::from_coords(mesh, prefix.iter().copied()));
        let faults = direct.faults();
        for &(s, d) in &spec.pairs {
            let mut batch = Vec::new();
            for model in Model::ALL {
                batch.push(Request::Route(RouteQuery {
                    mesh: name.to_string(),
                    at_epoch: Some(*epoch),
                    model,
                    s,
                    d,
                }));
                batch.push(Request::Safety(SafetyQuery {
                    mesh: name.to_string(),
                    at_epoch: Some(*epoch),
                    model,
                    at: s,
                }));
            }
            batch.push(Request::Reach(ReachQuery {
                mesh: name.to_string(),
                at_epoch: Some(*epoch),
                s,
                d,
            }));
            let responses = send(&client, &mut script, batch);
            // Positional decode: [route(b), safety(b), route(m), safety(m), reach].
            let expect_route = |model: Model| decide_local(&direct.view(model), s, d);
            let expect_safety = |model: Model| match model {
                Model::FaultBlock => direct.block_safety_map().level(s),
                Model::Mcc => direct.mcc_safety_map(MccType::One).level(s),
            };
            let checks: [(&str, bool); 5] = [
                (
                    "route[block]",
                    matches!(&responses[0], Response::Routed(r)
                             if r.epoch == *epoch && r.decision == expect_route(Model::FaultBlock)),
                ),
                (
                    "safety[block]",
                    matches!(&responses[1], Response::Safety(r)
                             if r.epoch == *epoch && r.level == expect_safety(Model::FaultBlock)),
                ),
                (
                    "route[mcc]",
                    matches!(&responses[2], Response::Routed(r)
                             if r.epoch == *epoch && r.decision == expect_route(Model::Mcc)),
                ),
                (
                    "safety[mcc]",
                    matches!(&responses[3], Response::Safety(r)
                             if r.epoch == *epoch && r.level == expect_safety(Model::Mcc)),
                ),
                (
                    "reach",
                    matches!(&responses[4], Response::Reached(r)
                             if r.epoch == *epoch
                                && r.reachable
                                   == reach_bits::minimal_path_exists_bits(
                                       &mesh, s, d, |c| faults.is_faulty(c))),
                ),
            ];
            for (what, ok) in checks {
                if !ok {
                    out.push(violation(
                        "serve-matches-direct",
                        format!(
                            "epoch {epoch} {s}->{d}: served {what} diverged from a \
                                 fresh Scenario of the same fault prefix"
                        ),
                    ));
                }
            }
        }
    }

    // The latest snapshot memoizes every warmed pair, so the replay
    // above read memoized Routes and not only recomputed ones.
    if !spec.faults.is_empty() {
        let keys: std::collections::BTreeSet<(Coord, Coord)> = spec.pairs.iter().copied().collect();
        let stats = send(
            &client,
            &mut script,
            vec![Request::Stats(SnapshotStats {
                mesh: name.to_string(),
            })],
        );
        let want = (keys.len() * Model::ALL.len()) as u64;
        if !matches!(&stats[0], Response::Stats(r) if r.memo_entries == want) {
            out.push(violation(
                "serve-matches-direct",
                format!(
                    "stats answered {:?}, expected {want} memo entries",
                    stats[0]
                ),
            ));
        }
    }

    // Unpinned reads after the session answer at the latest epoch.
    if let Some(&(s, d)) = spec.pairs.first() {
        let latest = published.last().map_or(0, |&(e, _)| e);
        let responses = send(
            &client,
            &mut script,
            vec![Request::Reach(ReachQuery {
                mesh: name.to_string(),
                at_epoch: None,
                s,
                d,
            })],
        );
        if !matches!(&responses[0], Response::Reached(r) if r.epoch == latest) {
            out.push(violation(
                "serve-matches-direct",
                format!(
                    "unpinned read answered {:?}, expected the latest epoch {latest}",
                    responses[0]
                ),
            ));
        }
    }

    // Shard invariance: the identical batch script against a 3-shard
    // store yields the identical response stream, batch for batch.
    let resharded = mk(3);
    for (i, (batch, expected)) in script.iter().enumerate() {
        let got = resharded.send(batch);
        if got != *expected {
            out.push(violation(
                "serve-matches-direct",
                format!("batch {i}: responses diverged between 1 and 3 shards"),
            ));
            break;
        }
    }
    out
}

/// One mirroring of the mesh: flip X, flip Y, or both (with the identity
/// these generate the four quadrant symmetries).
fn mirror_coord(spec: &ScenarioSpec, c: Coord, fx: bool, fy: bool) -> Coord {
    Coord::new(
        if fx { spec.width - 1 - c.x } else { c.x },
        if fy { spec.height - 1 - c.y } else { c.y },
    )
}

/// The spec with faults and pairs reflected through the mesh's vertical
/// (`fx`) and/or horizontal (`fy`) center line. Injection becomes
/// [`Injection::Explicit`] because the mirrored fault set is no longer the
/// seed's expansion. Public so pinned regression tests and repro replays
/// can reproduce the metamorphic transform exactly.
pub fn mirrored_spec(spec: &ScenarioSpec, fx: bool, fy: bool) -> ScenarioSpec {
    ScenarioSpec {
        seed: spec.seed,
        width: spec.width,
        height: spec.height,
        injection: Injection::Explicit,
        faults: spec
            .faults
            .iter()
            .map(|&c| mirror_coord(spec, c, fx, fy))
            .collect(),
        pairs: spec
            .pairs
            .iter()
            .map(|&(s, d)| (mirror_coord(spec, s, fx, fy), mirror_coord(spec, d, fx, fy)))
            .collect(),
    }
}

/// The per-pair verdict vector that mirroring must preserve: DP, coverage
/// applicability and verdict, and the geometric conditions.
///
/// Block-model verdicts are mirror-invariant for every pair. MCC verdicts
/// are only compared when `|dx| ≥ 2` and `|dy| ≥ 2`: an axis-aligned route
/// sits on the boundary between two quadrants, and the convention that
/// folds it onto one labeling type (`Quadrant::of`) is inherently chiral —
/// the fold picks the *same* type in both orientations while the faithful
/// mirror of a type-one check is a type-two check. `ext1` inspects
/// neighbor legs, which become axis-aligned as soon as an offset reaches
/// 1, hence the margin of 2. (Both folded answers are individually sound;
/// only the symmetry is lost. Found by this harness — see DESIGN.md.)
fn pair_verdicts(sc: &Scenario, s: Coord, d: Coord) -> Vec<bool> {
    let mesh = sc.mesh();
    let blocks = sc.blocks();
    let mut v = Vec::with_capacity(9);
    v.push(reach::minimal_path_exists(&mesh, s, d, |c| {
        blocks.is_blocked(c)
    }));
    let rects = blocks.rects();
    let outside = !rects.iter().any(|r| r.contains(s) || r.contains(d));
    v.push(outside);
    v.push(outside && coverage::minimal_path_exists_by_coverage(rects, s, d));
    {
        let view = sc.view(Model::FaultBlock);
        v.push(conditions::safe_source(&view, s, d).is_some());
        let e1 = conditions::ext1(&view, s, d);
        v.push(e1.is_some());
        v.push(matches!(e1, Some(e) if e.is_minimal()));
    }
    if (d.x - s.x).abs() >= 2 && (d.y - s.y).abs() >= 2 {
        let view = sc.view(Model::Mcc);
        v.push(conditions::safe_source(&view, s, d).is_some());
        let e1 = conditions::ext1(&view, s, d);
        v.push(e1.is_some());
        v.push(matches!(e1, Some(e) if e.is_minimal()));
    }
    v
}

fn o_mirror_invariance(spec: &ScenarioSpec, _ctx: &CheckCtx) -> Vec<Violation> {
    let mut out = Vec::new();
    let sc = spec.scenario();
    for (fx, fy) in [(true, false), (false, true), (true, true)] {
        let mirrored = mirrored_spec(spec, fx, fy);
        let msc = mirrored.scenario();
        for (i, (&(s, d), &(ms, md))) in spec.pairs.iter().zip(mirrored.pairs.iter()).enumerate() {
            let original = pair_verdicts(&sc, s, d);
            let reflected = pair_verdicts(&msc, ms, md);
            if original != reflected {
                out.push(violation(
                    "mirror-invariance",
                    format!(
                        "pair {i} {s}->{d} under mirror(fx={fx}, fy={fy}): verdicts \
                         {original:?} became {reflected:?}"
                    ),
                ));
            }
        }
    }
    out
}

fn o_fault_monotone(spec: &ScenarioSpec, _ctx: &CheckCtx) -> Vec<Violation> {
    let mesh = spec.mesh();
    let faults = spec.fault_set();
    let healthy: Vec<Coord> = mesh.nodes().filter(|&c| !faults.is_faulty(c)).collect();
    if healthy.is_empty() || spec.pairs.is_empty() {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(derive_seed(spec.seed, 1, 0));
    let extra = healthy[rng.gen_range(0..healthy.len())];
    let before = spec.scenario();
    let mut grown = spec.clone();
    grown.faults.push(extra);
    let after = grown.scenario();
    let mut out = Vec::new();
    for &(s, d) in &spec.pairs {
        let reachable_before =
            reach::minimal_path_exists(&mesh, s, d, |c| before.blocks().is_blocked(c));
        let reachable_after =
            reach::minimal_path_exists(&mesh, s, d, |c| after.blocks().is_blocked(c));
        if !reachable_before && reachable_after {
            out.push(violation(
                "fault-monotone",
                format!("{s}->{d}: unreachable, but reachable after adding fault {extra}"),
            ));
        }
    }
    out
}

fn o_mesh3_layered_safe(spec: &ScenarioSpec, _ctx: &CheckCtx) -> Vec<Violation> {
    use emr_mesh3::{conditions as c3, reach as reach3, Coord3, Mesh3, Scenario3};
    let mut rng = StdRng::seed_from_u64(derive_seed(spec.seed, 2, 0));
    let side = rng.gen_range(3..=7i32);
    let mesh = Mesh3::cube(side);
    let nodes = (side * side * side) as usize;
    let count = rng.gen_range(0..=nodes / 8);
    let faults = emr_mesh3::inject::uniform(mesh, count, &[], &mut rng);
    let sc = Scenario3::build(faults);
    let mut out = Vec::new();
    for _ in 0..4 {
        let s = Coord3::new(
            rng.gen_range(0..side),
            rng.gen_range(0..side),
            rng.gen_range(0..side),
        );
        let d = Coord3::new(
            rng.gen_range(0..side),
            rng.gen_range(0..side),
            rng.gen_range(0..side),
        );
        if s == d || c3::layered_safe(&sc, s, d).is_none() {
            continue;
        }
        let dp = reach3::minimal_path_exists(&mesh, s, d, |c| sc.blocks().is_blocked(c));
        if !dp {
            out.push(violation(
                "mesh3-layered-safe",
                format!(
                    "3-D cube side {side}: layered_safe fired for {s:?}->{d:?} but no \
                     minimal path exists"
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_names_are_unique_and_kebab() {
        let mut seen = std::collections::BTreeSet::new();
        for o in ORACLES {
            assert!(seen.insert(o.name), "duplicate oracle {}", o.name);
            assert!(o
                .name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'));
            assert!(oracle_by_name(o.name).is_some());
        }
        assert!(oracle_by_name("no-such-oracle").is_none());
    }

    #[test]
    fn clean_scenarios_pass_every_oracle() {
        let ctx = CheckCtx::default();
        for seed in 0..20u64 {
            let spec = ScenarioSpec::generate(seed);
            let violations = check_spec(&spec, &ctx);
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        }
    }

    #[test]
    fn sabotage_eventually_fires() {
        let ctx = CheckCtx { sabotage: true };
        let found = (0..80u64).any(|seed| {
            let spec = ScenarioSpec::generate(seed);
            check_spec(&spec, &ctx)
                .iter()
                .any(|v| v.oracle == "sufficient-implies-dp")
        });
        assert!(found, "phantom obstacle never produced a violation");
    }

    #[test]
    fn panics_become_violations() {
        fn panicky(_: &ScenarioSpec, _: &CheckCtx) -> Vec<Violation> {
            panic!("intentional: {}", 42)
        }
        let oracle = Oracle {
            name: "panicky",
            claim: "always panics",
            check: panicky,
        };
        let spec = ScenarioSpec::generate(0);
        let out = check_oracle(&oracle, &spec, &CheckCtx::default());
        assert_eq!(out.len(), 1);
        assert!(out[0].detail.contains("intentional"));
    }
}
