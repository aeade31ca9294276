//! The simulator must be a pure function of `(scenario seed, workload
//! seed)`: rebuilding everything from the same seeds and re-running yields
//! a bit-identical [`SimReport`]. The conformance harness's `netsim-hops`
//! oracle and the benchmark sweeps both lean on this. Three Wu runs also
//! pin their full reports as literals, so a change to what the router
//! decides shows even when both simulator cores change alike. Two
//! replays check the cores agree when failures land on flights that
//! hold walked routes: a congested one, and one whose failures are
//! scheduled mid-run, inside routes already walked past them.

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use emr_core::route::RouteError;
use emr_core::{Model, ScenarioState};
use emr_fault::inject;
use emr_mesh::{Coord, Direction, Mesh};
use emr_netsim::{
    DynamicRouter, EpochedWuRouter, EventSim, NetSim, Packet, Router, SimReport, TrafficPattern,
    Workload,
};

/// One scheduled packet, flattened for comparison: injection cycle,
/// source, destination.
type Scheduled = (u64, (i32, i32), (i32, i32));

/// Builds scenario + workload from the seeds, runs to completion, and
/// returns the report together with the per-packet workload schedule.
fn run_once(scenario_seed: u64, workload_seed: u64) -> (SimReport, Vec<Scheduled>) {
    let mesh = Mesh::square(14);
    let mut inj_rng = StdRng::seed_from_u64(scenario_seed);
    let state = ScenarioState::new(inject::uniform(mesh, 10, &[], &mut inj_rng));
    let scenario = state.scenario();

    // Strategy-4 admitted traffic: the ensured subset of 40 uniform
    // packets offered at 2 per cycle.
    let mut load_rng = StdRng::seed_from_u64(workload_seed);
    let offered = Workload::offered_load(
        scenario,
        TrafficPattern::Uniform,
        40,
        2.0 / 196.0,
        &mut load_rng,
    );
    let view = scenario.view(Model::FaultBlock);
    let admitted: Vec<(u64, Packet)> = offered
        .packets()
        .iter()
        .filter_map(|(cycle, p)| Some((*cycle, Packet::ensured(&view, p.source(), p.dest())?)))
        .collect();
    let schedule: Vec<Scheduled> = admitted
        .iter()
        .map(|(cycle, p)| {
            let s = p.source();
            let d = p.dest();
            (*cycle, (s.x, s.y), (d.x, d.y))
        })
        .collect();

    let mut sim = NetSim::new(mesh, EpochedWuRouter::new(state, Model::FaultBlock));
    for (cycle, p) in admitted {
        sim.inject(p, cycle);
    }
    let report = sim
        .run_dynamic_to_completion(100_000)
        .expect("simulation completes");
    (report, schedule)
}

/// Same seeds, same everything: workload schedule and final report are
/// bit-identical across independent rebuilds.
#[test]
fn same_seeds_reproduce_the_report() {
    for (ss, ws) in [(1u64, 2u64), (77, 91), (0xdead, 0xbeef)] {
        let (first, sched_a) = run_once(ss, ws);
        let (second, sched_b) = run_once(ss, ws);
        assert_eq!(sched_a, sched_b, "workload diverged for seeds {ss}/{ws}");
        assert_eq!(first, second, "report diverged for seeds {ss}/{ws}");
        assert!(first.delivered > 0, "degenerate run for seeds {ss}/{ws}");
    }
}

/// Different workload seeds must actually change the workload — guards
/// against the determinism test passing vacuously because the seed is
/// ignored somewhere.
#[test]
fn different_seeds_change_the_workload() {
    let (_, sched_a) = run_once(7, 100);
    let (_, sched_b) = run_once(7, 101);
    assert_ne!(sched_a, sched_b, "workload seed has no effect");
}

/// A reduced netsim-wu episode: 48×48, 40 static faults, 6 failures
/// spread over the injection window, 3,000 uniform packets at 0.01
/// packets per node per cycle, routed by `EpochedWuRouter`.
fn wu_episode() -> (Workload, Vec<(Coord, u64)>, EpochedWuRouter) {
    let mesh = Mesh::square(48);
    let mut rng = StdRng::seed_from_u64(0x5eed_0048);
    let state = ScenarioState::new(inject::uniform(mesh, 40, &[], &mut rng));
    let load = Workload::offered_load(
        state.scenario(),
        TrafficPattern::Uniform,
        3_000,
        0.01,
        &mut rng,
    );
    let window = load.packets().last().map_or(1, |&(c, _)| c.max(1));
    let faults = (1..=6u64)
        .map(|j| {
            let c = Coord::new(rng.gen_range(0..48), rng.gen_range(0..48));
            (c, window * j / 7)
        })
        .collect();
    (load, faults, EpochedWuRouter::new(state, Model::FaultBlock))
}

/// The reduced episode's full report, pinned on both cores. The
/// stepper/event agreement checks cannot see a change to Wu's vetoes
/// that both cores share; this can. Every failure the faults did not
/// cause is a `Stuck`.
#[test]
fn epoched_wu_episode_report_is_pinned() {
    let expected = SimReport {
        delivered: 2931,
        failed: 69,
        total_hops: 93331,
        total_latency: 96716,
        total_manhattan: 93331,
        peak_queue: 5,
        cycles: 204,
        fault_events: 6,
        fault_drops: 9,
        rerouted: 4,
        stuck: 60,
        conflict: 0,
    };
    let (load, faults, router) = wu_episode();
    let mesh = Mesh::square(48);
    let mut stepper = NetSim::new(mesh, router.clone());
    let mut event = EventSim::new(mesh, router);
    load.inject_into(&mut stepper);
    load.inject_into(&mut event);
    for &(c, at) in &faults {
        stepper.schedule_fault(c, at);
        event.schedule_fault(c, at);
    }
    let stepped = stepper.run_dynamic_to_completion(1_000_000);
    let evented = event.run_dynamic_to_completion(1_000_000);
    assert_eq!(stepped, Ok(expected), "stepper");
    assert_eq!(evented, Ok(expected), "event core");
}

/// A netsim-wu-shaped episode on the event core alone: 128×128, 128
/// static faults, 16 failures spread over the injection window, 30,000
/// uniform packets at 0.01 packets per node per cycle, routed by
/// `EpochedWuRouter` under the block model. Its legs run up to 254 hops,
/// many routes' worth, and its failures land on thousands of flights in
/// flight, a shape the 48×48 episode above does not reach.
#[test]
fn netsim_wu_episode_report_is_pinned() {
    let expected = SimReport {
        delivered: 29732,
        failed: 268,
        total_hops: 2540391,
        total_latency: 2805873,
        total_manhattan: 2540391,
        peak_queue: 41,
        cycles: 430,
        fault_events: 16,
        fault_drops: 37,
        rerouted: 8,
        stuck: 231,
        conflict: 0,
    };
    let mesh = Mesh::square(128);
    let mut rng = StdRng::seed_from_u64(0x5eed_0128);
    let state = ScenarioState::new(inject::uniform(mesh, 128, &[], &mut rng));
    let load = Workload::offered_load(
        state.scenario(),
        TrafficPattern::Uniform,
        30_000,
        0.01,
        &mut rng,
    );
    let window = load.packets().last().map_or(1, |&(c, _)| c.max(1));
    let mut event = EventSim::new(mesh, EpochedWuRouter::new(state, Model::FaultBlock));
    load.inject_into(&mut event);
    for j in 1..=16u64 {
        let c = Coord::new(rng.gen_range(0..128), rng.gen_range(0..128));
        event.schedule_fault(c, window * j / 17);
    }
    assert_eq!(event.run_dynamic_to_completion(10_000_000), Ok(expected));
}

/// A Wu run under the MCC model on the same shape with no failure
/// scheduled, pinned.
#[test]
fn static_wu_mcc_report_is_pinned() {
    let expected = SimReport {
        delivered: 2968,
        failed: 32,
        total_hops: 96404,
        total_latency: 99993,
        total_manhattan: 96404,
        peak_queue: 5,
        cycles: 202,
        fault_events: 0,
        fault_drops: 0,
        rerouted: 0,
        stuck: 32,
        conflict: 0,
    };
    let mesh = Mesh::square(48);
    let mut rng = StdRng::seed_from_u64(0x5eed_0049);
    let state = ScenarioState::new(inject::uniform(mesh, 40, &[], &mut rng));
    let load = Workload::offered_load(
        state.scenario(),
        TrafficPattern::Uniform,
        3_000,
        0.01,
        &mut rng,
    );
    let mut sim = NetSim::new(mesh, EpochedWuRouter::new(state, Model::Mcc));
    load.inject_into(&mut sim);
    assert_eq!(sim.run_dynamic_to_completion(1_000_000), Ok(expected));
}

/// The single questions a router answered, how many it had answered
/// when each failure reached it, and the buffer length of each walk.
#[derive(Debug, Default)]
struct Questions {
    asked: usize,
    at_failure: Vec<usize>,
    walks: Vec<usize>,
}

/// A dynamic router that logs into [`Questions`].
struct Logged<R> {
    inner: R,
    log: Rc<RefCell<Questions>>,
}

impl<R: Router> Router for Logged<R> {
    fn next_hop(&self, s: Coord, t: Coord, u: Coord) -> Result<Direction, RouteError> {
        self.log.borrow_mut().asked += 1;
        self.inner.next_hop(s, t, u)
    }

    fn next_hops(
        &self,
        s: Coord,
        t: Coord,
        u: Coord,
        hops: &mut [Direction],
    ) -> (usize, Option<RouteError>) {
        self.log.borrow_mut().walks.push(hops.len());
        self.inner.next_hops(s, t, u, hops)
    }
}

impl<R: DynamicRouter> DynamicRouter for Logged<R> {
    fn fail_node(&mut self, c: Coord) {
        let mut log = self.log.borrow_mut();
        let asked = log.asked;
        log.at_failure.push(asked);
        self.inner.fail_node(c);
    }

    fn is_node_blocked(&self, c: Coord) -> bool {
        self.inner.is_node_blocked(c)
    }
}

/// A congested episode whose failures land on flights that hold walked
/// routes, many of them waiting on lost links: 20×20 with 8 static
/// faults, 4,000 hotspot packets at 0.1 packets per node per cycle, and
/// 24 failures over the injection window. The event core keeps the hops
/// a flight walked ahead until it takes them, and a failure must drop
/// them and make the flight walk again; the stepper asks every flight
/// every cycle. The reports must agree, and the failures must land on
/// such routes.
#[test]
fn failures_landing_on_waiting_flights_match_the_stepper() {
    let mesh = Mesh::square(20);
    let mut rng = StdRng::seed_from_u64(0x5eed_0020);
    let state = ScenarioState::new(inject::uniform(mesh, 8, &[], &mut rng));
    let pattern = TrafficPattern::Hotspot {
        spots: 4,
        fraction: 0.3,
    };
    let load = Workload::offered_load(state.scenario(), pattern, 4_000, 0.1, &mut rng);
    let window = load.packets().last().map_or(1, |&(c, _)| c.max(1));
    let faults: Vec<(Coord, u64)> = (1..=24u64)
        .map(|j| {
            let c = Coord::new(rng.gen_range(0..20), rng.gen_range(0..20));
            (c, window * j / 25)
        })
        .collect();
    let router = EpochedWuRouter::new(state, Model::FaultBlock);
    let log = Rc::new(RefCell::new(Questions::default()));
    let mut stepper = NetSim::new(mesh, router.clone());
    let mut event = EventSim::new(
        mesh,
        Logged {
            inner: router,
            log: Rc::clone(&log),
        },
    );
    load.inject_into(&mut stepper);
    load.inject_into(&mut event);
    for &(c, at) in &faults {
        stepper.schedule_fault(c, at);
        event.schedule_fault(c, at);
    }
    // Step the event core through the last failure. Before a failure
    // lands, the event core asks a single question of every alive flight
    // whose route is spent; the alive flights it did not ask hold one.
    let last = faults.iter().map(|&(_, at)| at).max().unwrap_or(0);
    let mut held = 0;
    while event.cycle() <= last {
        let alive = event.in_flight();
        let (asked, failures) = {
            let log = log.borrow();
            (log.asked, log.at_failure.len())
        };
        event.step_dynamic();
        if let Some(&at) = log.borrow().at_failure.get(failures) {
            held += alive - (at - asked);
        }
    }
    let evented = event.run_dynamic_to_completion(1_000_000);
    let stepped = stepper.run_dynamic_to_completion(1_000_000);
    assert_eq!(evented, stepped);
    // 19,420 routes held over the 24 failures. An event core that keeps
    // routes across a failure reports no reroutes instead of 45 here.
    assert!(held >= 15_000, "{held} routes held as failures landed");
    assert_eq!(stepped.map(|r| r.fault_events), Ok(24));
}

/// Failures scheduled between `step_dynamic` calls, each a few cycles
/// ahead, land inside routes flights walked before the failure was
/// known: 32×32 with 16 static faults and 4,000 uniform packets at 0.02
/// packets per node per cycle, and a failure scheduled every 12 cycles of
/// the injection window. The reports must equal the stepper's after
/// every cycle. The walks show the limit at work: 32 hops while no
/// failure is pending, and with one pending, up to the hop for the cycle
/// it lands in.
#[test]
fn failures_scheduled_mid_run_match_the_stepper() {
    const AHEAD: u64 = 3;
    let mesh = Mesh::square(32);
    let mut rng = StdRng::seed_from_u64(0x5eed_0032);
    let state = ScenarioState::new(inject::uniform(mesh, 16, &[], &mut rng));
    let load = Workload::offered_load(
        state.scenario(),
        TrafficPattern::Uniform,
        4_000,
        0.02,
        &mut rng,
    );
    let window = load.packets().last().map_or(1, |&(c, _)| c.max(1));
    let router = EpochedWuRouter::new(state, Model::FaultBlock);
    let log = Rc::new(RefCell::new(Questions::default()));
    let mut stepper = NetSim::new(mesh, router.clone());
    let mut event = EventSim::new(
        mesh,
        Logged {
            inner: router,
            log: Rc::clone(&log),
        },
    );
    load.inject_into(&mut stepper);
    load.inject_into(&mut event);
    // Routes held as failures landed, failures scheduled, and walks seen
    // with no failure pending.
    let (mut held, mut scheduled, mut open_walks) = (0, 0u64, 0);
    let mut pending: Option<u64> = None;
    while event.cycle() < window {
        let cycle = event.cycle();
        if pending.is_none() && cycle % 12 == 5 {
            let c = Coord::new(rng.gen_range(0..32), rng.gen_range(0..32));
            stepper.schedule_fault(c, cycle + AHEAD);
            event.schedule_fault(c, cycle + AHEAD);
            pending = Some(cycle + AHEAD);
            scheduled += 1;
        }
        let alive = event.in_flight();
        let (asked, failures, walks) = {
            let log = log.borrow();
            (log.asked, log.at_failure.len(), log.walks.len())
        };
        stepper.step_dynamic();
        event.step_dynamic();
        assert_eq!(stepper.report(), event.report(), "cycle {cycle}");
        let log = log.borrow();
        if let Some(&at) = log.at_failure.get(failures) {
            held += alive - (at - asked);
        }
        match pending {
            // The cycle the failure lands in: the survivors and the pass
            // walk with no failure pending.
            Some(at) if at == cycle => pending = None,
            Some(at) => {
                let limit = usize::try_from(at - cycle + 1).unwrap_or(usize::MAX);
                let walked = &log.walks[walks..];
                assert!(walked.iter().all(|&len| len == limit), "cycle {cycle}");
            }
            None => {
                let walked = &log.walks[walks..];
                assert!(walked.iter().all(|&len| len == 32), "cycle {cycle}");
                open_walks += walked.len();
            }
        }
    }
    let evented = event.run_dynamic_to_completion(1_000_000);
    let stepped = stepper.run_dynamic_to_completion(1_000_000);
    assert_eq!(evented, stepped);
    let r = stepped.expect("the run completes");
    // 16 failures landed on 6,560 held routes and rerouted 8 flights;
    // 2,715 walks took 32 hops with no failure pending.
    println!("{held} routes held, {open_walks} open walks, {r:?}");
    assert_eq!(r.fault_events, scheduled);
    assert!(r.rerouted >= 4, "{} reroutes", r.rerouted);
    assert!(held >= 5_000, "{held} routes held as failures landed");
    assert!(
        open_walks >= 2_000,
        "{open_walks} walks with no failure pending"
    );
}
