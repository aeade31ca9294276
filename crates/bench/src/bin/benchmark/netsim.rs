//! `netsim-wu`: Wu's protocol as the per-hop router of the event-driven
//! simulator (`EventSim` + `EpochedWuRouter`) on 128×128, with 128
//! static faults, 16 faults arriving mid-flight, and uniform traffic at
//! 0.01 packets per node per cycle.
//!
//! The measured phase runs episodes of [`EPISODE_PACKETS`] packets, each
//! with its own faults and traffic, until the run's seconds are spent.
//! One op is one episode: `inject_into` plus one
//! `run_dynamic_to_completion` call.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use emr_core::route::RouteError;
use emr_core::{Model, ScenarioState};
use emr_fault::inject;
use emr_mesh::{Coord, Direction, Mesh};
use emr_netsim::{
    DynamicRouter, EpochedWuRouter, EventSim, NetSim, Router, SimError, SimReport, TrafficPattern,
    Workload,
};
use emr_serve::hash::{fnv1a64_u64, FNV_OFFSET};

use crate::calibrate::Calibrator;
use crate::report::{derive_seed, nanos, Outcome, RunConfig};
use crate::stats::{median, windowed_p90_us, windowed_rate, Timing};
use crate::trace::Tracer;

/// Packets per episode.
const EPISODE_PACKETS: usize = 30_000;
/// Cycle budget per simulation; exceeding it fails the episode.
const MAX_CYCLES: u64 = 10_000_000;
/// The traced router times one `next_hop` call in this many (and counts
/// all of them).
const SAMPLE_EVERY: u64 = 1024;
/// Calibration slices after each episode.
const EPISODE_SLICES: usize = 4;
/// Episode index of the set-up agreement check's traffic.
const AGREEMENT_EPISODE: u64 = u64::MAX;

const SALT_EPISODE: u64 = 0x6e65_7473_696d_6570; // "netsimep"

struct Spec {
    mesh: i32,
    static_faults: usize,
    dynamic_faults: u64,
    offered: f64,
    packets: usize,
    agreement_packets: usize,
}

fn spec(smoke: bool) -> Spec {
    if smoke {
        Spec {
            mesh: 24,
            static_faults: 6,
            dynamic_faults: 2,
            offered: 0.01,
            packets: 600,
            agreement_packets: 300,
        }
    } else {
        Spec {
            mesh: 128,
            static_faults: 128,
            dynamic_faults: 16,
            offered: 0.01,
            packets: EPISODE_PACKETS,
            agreement_packets: 5_000,
        }
    }
}

/// One episode's inputs: the router over the epoched fault state, the
/// traffic, and the mid-flight failures spread evenly over the injection
/// window.
struct Episode {
    router: EpochedWuRouter,
    load: Workload,
    faults: Vec<(Coord, u64)>,
}

fn episode(spec: &Spec, seed: u64, index: u64, packets: usize) -> Episode {
    let mesh = Mesh::square(spec.mesh);
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, SALT_EPISODE, index));
    let state = ScenarioState::new(inject::uniform(mesh, spec.static_faults, &[], &mut rng));
    let load = Workload::offered_load(
        state.scenario(),
        TrafficPattern::Uniform,
        packets,
        spec.offered,
        &mut rng,
    );
    let window = load.packets().last().map_or(1, |&(c, _)| c.max(1));
    let faults = (1..=spec.dynamic_faults)
        .map(|j| {
            let c = Coord::new(rng.gen_range(0..spec.mesh), rng.gen_range(0..spec.mesh));
            (c, window * j / (spec.dynamic_faults + 1))
        })
        .collect();
    Episode {
        router: EpochedWuRouter::new(state, Model::FaultBlock),
        load,
        faults,
    }
}

/// What the traced router saw.
#[derive(Debug, Default)]
struct RouterProbe {
    calls: Cell<u64>,
    errors: Cell<u64>,
    sampled: Cell<u64>,
    sampled_ns: Cell<u64>,
    fail_spans: RefCell<Vec<(Instant, Instant)>>,
}

/// `EpochedWuRouter` behind a timing wrapper: every call counted, one in
/// [`SAMPLE_EVERY`] `next_hop` calls timed, every `fail_node` timed.
struct TimedRouter {
    inner: EpochedWuRouter,
    probe: Rc<RouterProbe>,
}

impl Router for TimedRouter {
    fn next_hop(
        &self,
        leg_source: Coord,
        leg_target: Coord,
        u: Coord,
    ) -> Result<Direction, RouteError> {
        let p = &self.probe;
        let n = p.calls.get() + 1;
        p.calls.set(n);
        let r = if n.is_multiple_of(SAMPLE_EVERY) {
            let started = Instant::now();
            let r = self.inner.next_hop(leg_source, leg_target, u);
            p.sampled_ns
                .set(p.sampled_ns.get() + nanos(started.elapsed()));
            p.sampled.set(p.sampled.get() + 1);
            r
        } else {
            self.inner.next_hop(leg_source, leg_target, u)
        };
        if r.is_err() {
            p.errors.set(p.errors.get() + 1);
        }
        r
    }
}

impl DynamicRouter for TimedRouter {
    fn fail_node(&mut self, c: Coord) {
        let started = Instant::now();
        self.inner.fail_node(c);
        self.probe
            .fail_spans
            .borrow_mut()
            .push((started, Instant::now()));
    }

    fn is_node_blocked(&self, c: Coord) -> bool {
        self.inner.is_node_blocked(c)
    }
}

/// One simulated episode.
struct Sim {
    report: Result<SimReport, SimError>,
    /// `inject_into` plus the run.
    wall: Duration,
    run_ns: u64,
}

/// Schedules the episode into a fresh `EventSim` and runs it to
/// completion.
fn simulate<R: DynamicRouter>(
    mesh: Mesh,
    router: R,
    load: &Workload,
    faults: &[(Coord, u64)],
    mut tracer: Option<(&mut Tracer, u64, &RouterProbe)>,
) -> Sim {
    let mut sim = EventSim::new(mesh, router);
    let started = Instant::now();
    load.inject_into(&mut sim);
    for &(c, at) in faults {
        sim.schedule_fault(c, at);
    }
    let injected = Instant::now();
    if let Some((t, unit, _)) = tracer.as_mut() {
        t.record("netsim.workload.inject", *unit, started, injected);
        t.enter("netsim.event.run", *unit);
    }
    let report = sim.run_dynamic_to_completion(MAX_CYCLES);
    let done = Instant::now();
    if let Some((t, unit, probe)) = tracer.as_mut() {
        for (a, b) in std::mem::take(&mut *probe.fail_spans.borrow_mut()) {
            t.record("netsim.dynamic.fail_node", *unit, a, b);
        }
        t.exit();
    }
    Sim {
        report,
        wall: done - started,
        run_ns: nanos(done - injected),
    }
}

/// Runs episode `index` untraced or traced.
fn run_episode(
    spec: &Spec,
    ep: Episode,
    index: u64,
    traced: Option<(&mut Tracer, &Rc<RouterProbe>)>,
) -> Sim {
    let mesh = Mesh::square(spec.mesh);
    let Episode {
        router,
        load,
        faults,
    } = ep;
    match traced {
        None => simulate(mesh, router, &load, &faults, None),
        Some((t, probe)) => {
            t.enter("bench.netsim.episode", index);
            let timed = TimedRouter {
                inner: router,
                probe: Rc::clone(probe),
            };
            let sim = simulate(
                mesh,
                timed,
                &load,
                &faults,
                Some((&mut *t, index, &**probe)),
            );
            t.exit();
            sim
        }
    }
}

fn digest(report: &SimReport) -> u64 {
    [
        report.delivered,
        report.failed,
        report.total_hops,
        report.total_latency,
        report.total_manhattan,
        report.peak_queue as u64,
        report.cycles,
        report.fault_events,
        report.fault_drops,
        report.rerouted,
    ]
    .into_iter()
    .fold(FNV_OFFSET, fnv1a64_u64)
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let spec = spec(cfg.smoke);
    let mesh = Mesh::square(spec.mesh);
    let mut out = Outcome::default();

    // Set-up check, off the clock: the cycle stepper and the event core
    // agree on a prefix-sized run with the same faults.
    let ep = episode(&spec, cfg.seed, AGREEMENT_EPISODE, spec.agreement_packets);
    let mut stepper = NetSim::new(mesh, ep.router.clone());
    let mut event = EventSim::new(mesh, ep.router.clone());
    ep.load.inject_into(&mut stepper);
    ep.load.inject_into(&mut event);
    for &(c, at) in &ep.faults {
        stepper.schedule_fault(c, at);
        event.schedule_fault(c, at);
    }
    let a = stepper.run_dynamic_to_completion(MAX_CYCLES);
    let b = event.run_dynamic_to_completion(MAX_CYCLES);
    out.check_that(
        "netsim.stepper_agrees",
        a.is_ok() && a == b,
        format!("{} packets, NetSim vs EventSim", ep.load.len()),
    );

    let mut cal = Calibrator::new();
    let probe = Rc::new(RouterProbe::default());
    let mut tracer = cfg.trace.then(|| Tracer::new(Instant::now(), 0));
    let budget = Duration::from_secs_f64(cfg.seconds);
    let mut setups = Vec::new();
    let mut measured = Duration::ZERO;
    let mut episodes: Vec<(f64, u64)> = Vec::new();
    let mut run_ns = 0u64;
    let mut packets = 0u64;
    let mut unresolved = 0u64;
    let mut budget_failures = 0u64;
    let mut run_digest = FNV_OFFSET;
    let mut latency_sum = 0u64;
    let mut cycles = 0u64;
    let mut first: Option<(Result<SimReport, SimError>, Duration)> = None;
    let mut index = 0u64;
    while measured < budget {
        let started = Instant::now();
        let ep = episode(&spec, cfg.seed, index, spec.packets);
        setups.push(started.elapsed().as_secs_f64());
        let sent = ep.load.len() as u64;
        let sim = run_episode(&spec, ep, index, tracer.as_mut().map(|t| (t, &probe)));
        measured += sim.wall;
        episodes.push((sent as f64, nanos(sim.wall)));
        run_ns += sim.run_ns;
        packets += sent;
        match sim.report {
            Ok(r) => {
                unresolved += sent.abs_diff(r.delivered + r.failed);
                run_digest = fnv1a64_u64(run_digest, digest(&r));
                latency_sum += r.total_latency;
                cycles += r.cycles;
            }
            Err(_) => budget_failures += sent,
        }
        if first.is_none() {
            first = Some((sim.report, sim.wall));
        }
        index += 1;
        // Episodes outlast the calibrator's interval: a few slices after
        // each keeps the sample comparable to the other workloads'.
        for _ in 0..EPISODE_SLICES {
            cal.slice();
        }
    }
    out.host_speed = cal.speed();
    out.attempted = packets;
    out.check(
        "netsim.cycle_budget",
        budget_failures,
        format!("packets in episodes over {MAX_CYCLES} cycles"),
    );
    out.check(
        "netsim.delivered_plus_failed",
        unresolved,
        "delivered + failed == packets, per episode",
    );

    // Episode 0 again in the other mode, off the clock: the simulated
    // statistics repeat exactly, traced or not.
    let (first_report, first_wall) = first.expect("the measured phase runs an episode");
    let mut scratch = Tracer::new(Instant::now(), 1);
    let scratch_probe = Rc::new(RouterProbe::default());
    let again = run_episode(
        &spec,
        episode(&spec, cfg.seed, 0, spec.packets),
        0,
        (!cfg.trace).then_some((&mut scratch, &scratch_probe)),
    );
    out.check_that(
        "netsim.statistics_repeat",
        first_report.is_ok() && first_report == again.report,
        "episode 0, traced vs untraced",
    );
    out.note("episodes", index.to_string());
    out.note("digest", format!("{run_digest:016x}"));
    let episode_ns: Vec<u64> = episodes.iter().map(|&(_, ns)| ns).collect();
    out.note("episode_wall", Timing::of(&episode_ns).describe());

    if let Some(t) = tracer {
        let wall = nanos(measured);
        let calls = probe.calls.get();
        let sampled_mean_ns = probe.sampled_ns.get() as f64 / probe.sampled.get().max(1) as f64;
        let router_ns = sampled_mean_ns * calls as f64;
        let fail = t.agg("netsim.dynamic.fail_node");
        let m = &mut out.metrics;
        m.insert("netsim.router.next_hop.calls", calls as f64);
        m.insert("netsim.router.next_hop_ns", sampled_mean_ns);
        m.insert(
            "netsim.router.err_ratio",
            probe.errors.get() as f64 / calls.max(1) as f64,
        );
        m.insert(
            "netsim.dynamic.fail_node_us",
            t.mean_us("netsim.dynamic.fail_node"),
        );
        m.insert("netsim.dynamic.calls", fail.count as f64);
        m.insert(
            "netsim.event.self_s",
            (run_ns as f64 - router_ns - fail.busy_ns as f64) / 1e9,
        );
        m.insert(
            "netsim.flights_mean",
            latency_sum as f64 / cycles.max(1) as f64,
        );
        m.insert("netsim.cycles", cycles as f64);
        m.insert("bench.op_p90_us", windowed_p90_us(&episode_ns));
        m.insert(
            "bench.trace_overhead",
            first_wall.as_secs_f64() / again.wall.as_secs_f64(),
        );
        m.insert("bench.trace_coverage", t.self_sum_ns() as f64 / wall as f64);
        let mut table = t.table("main", wall);
        let _ = writeln!(
            table,
            "estimate netsim.router.next_hop ({calls} calls x {sampled_mean_ns:.0} ns sampled): {:.3} ms of netsim.event.run",
            router_ns / 1e6
        );
        out.tables.push(table);
        if let Some(dir) = &cfg.trace_dir {
            let path = dir.join("trace-netsim-wu.jsonl");
            if let Err(e) = t.write_jsonl(&path, false) {
                out.check_that("trace.written", false, format!("{}: {e}", path.display()));
            }
        }
    } else {
        let m = &mut out.metrics;
        m.insert("setup_s", median(&setups));
        m.insert("throughput_per_s", windowed_rate(&episodes, 1));
        m.insert("op_p50_us", Timing::of(&episode_ns).p50_us);
    }
    out
}
