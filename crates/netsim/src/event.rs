//! The event-driven execution core.
//!
//! [`EventSim`] replays exactly the semantics of the cycle-accurate
//! [`crate::NetSim`] stepper — same injection, arbitration, movement,
//! delivery, and fault ordering, bit-identical [`SimReport`]s (pinned by
//! the `netsim-event-matches-cycle` conform oracle) — but organizes the
//! work around *events* instead of scanning every node every cycle:
//!
//! * a deterministic BTree-keyed **event calendar** holds scheduled
//!   injections and scheduled faults; when nothing is in flight the
//!   clock jumps straight to the next calendar entry instead of
//!   stepping through idle cycles,
//! * the only per-cycle work is over the **active flight list** (kept in
//!   admission order, which is age order) — `O(active)` per cycle where
//!   the stepper pays `O(nodes)` for its queue scan plus per-cycle
//!   B-tree churn for grants,
//! * each directed link is arbitrated by **one claim bit** in one of
//!   four per-direction [`BitGrid`] planes, indexed by the link's source
//!   node: routing walks the flights in age order and the first flight
//!   to claim a link wins it; moving a winner clears its bit, so the
//!   planes are empty again at cycle end with no reset pass,
//! * queue-depth peaks are maintained **incrementally**: only nodes
//!   whose occupancy *rose* since the last sample (arrivals,
//!   injections) can set a new peak, so sampling is `O(increments)`,
//! * a flight that lost its link **keeps its hop**: a router answers
//!   from its state and the question alone ([`Router`]), so the flight
//!   claims again next cycle without asking where the stepper asks
//!   again. Moving, starting a leg, or a failure landing drops the hop,
//!   so every answer the event core uses is one the stepper gets too.
//!
//! Winners move in age order rather than the stepper's link order. That
//! cannot show in a report: each flight moves at most once per cycle,
//! the report only sums and takes maxima, and the queue peak is sampled
//! at the start of the next cycle.
//!
//! Faults scheduled through [`EventSim::schedule_fault`] ride the same
//! calendar and land with the stepper's ordering: at the start of their
//! cycle, before injection and routing.

use std::collections::BTreeMap;

use emr_mesh::{BitGrid, Coord, Direction, Mesh};

use crate::dynamic::DynamicRouter;
use crate::packet::Packet;
use crate::router::Router;
use crate::sim::{PacketSink, SimError, SimReport};

/// One in-flight packet in the event core's flight slab.
#[derive(Debug)]
struct EvFlight {
    packet: Packet,
    at: Coord,
    leg_source: Coord,
    injected_at: u64,
    hops: u64,
    /// The hop the router returned for this position and leg, kept while
    /// the flight waits on a lost link; dropped when it moves, starts a
    /// leg, or a failure lands.
    hop: Option<Direction>,
    /// Resolved this cycle (delivered or failed); reaped at cycle end.
    dead: bool,
}

/// Everything scheduled for one future cycle.
#[derive(Debug, Default)]
struct CalSlot {
    /// Packets injected this cycle, in schedule-call order.
    inject: Vec<Packet>,
    /// Node failures landing this cycle, in schedule-call order.
    faults: Vec<Coord>,
}

/// The event-driven simulator core. Drop-in for [`crate::NetSim`]
/// (same construction, injection, fault-scheduling, and run API) with
/// identical reports.
#[derive(Debug)]
pub struct EventSim<R: Router> {
    mesh: Mesh,
    router: R,
    calendar: BTreeMap<u64, CalSlot>,
    /// Alive flights in admission order (injections append, reaping
    /// preserves order).
    active: Vec<EvFlight>,
    /// Resident-packet count per node (mesh index).
    counts: Vec<u32>,
    /// Nodes whose count rose since the last peak sample.
    touched: Vec<usize>,
    /// One claim bit per directed link, one plane per direction
    /// (`Direction::index`), set at the link's source node.
    claims: [BitGrid; 4],
    /// This cycle's link winners: `(flight index, direction)`.
    winners: Vec<(usize, Direction)>,
    cycle: u64,
    report: SimReport,
}

impl<R: Router> EventSim<R> {
    /// Creates an idle network.
    pub fn new(mesh: Mesh, router: R) -> EventSim<R> {
        EventSim {
            mesh,
            router,
            calendar: BTreeMap::new(),
            active: Vec::new(),
            counts: vec![0; mesh.node_count()],
            touched: Vec::new(),
            claims: std::array::from_fn(|_| BitGrid::new(mesh)),
            winners: Vec::new(),
            cycle: 0,
            report: SimReport::default(),
        }
    }

    /// The current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Packets currently in flight (injected, not yet delivered/failed).
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }

    /// The statistics so far.
    pub fn report(&self) -> SimReport {
        self.report
    }

    /// Schedules `packet` for injection at `cycle` (clamped to now).
    ///
    /// # Panics
    ///
    /// Panics if the packet's source is outside the mesh.
    pub fn inject(&mut self, packet: Packet, cycle: u64) {
        assert!(
            self.mesh.contains(packet.source()),
            "source {} outside mesh",
            packet.source()
        );
        let at = cycle.max(self.cycle);
        self.calendar.entry(at).or_default().inject.push(packet);
    }

    /// Advances one cycle: inject due packets, sample queue peaks, route
    /// all flights and claim their links, move the winners, deliver
    /// arrivals.
    pub fn step(&mut self) {
        self.inject_due();
        self.sample_peak();
        self.route_and_claim();
        self.move_winners();
        self.active.retain(|f| !f.dead);
        self.cycle += 1;
        self.report.cycles = self.cycle;
    }

    /// Runs until every packet (scheduled and in flight) is resolved or
    /// the cycle budget is exhausted. Idle gaps between calendar events
    /// are skipped in O(1).
    ///
    /// # Errors
    ///
    /// [`SimError::CycleBudgetExceeded`] if traffic remains after
    /// `max_cycles`.
    pub fn run_to_completion(&mut self, max_cycles: u64) -> Result<SimReport, SimError> {
        self.run_with(max_cycles, Self::step)
    }

    /// The shared run loop (see `NetSim::run_with`), plus the event-core
    /// speedup: when nothing is in flight the clock jumps straight to
    /// the next calendar entry — the skipped cycles are exactly the
    /// stepper's no-op cycles, so the final report is unchanged.
    fn run_with(&mut self, max_cycles: u64, step: fn(&mut Self)) -> Result<SimReport, SimError> {
        while !self.active.is_empty() || !self.calendar.is_empty() {
            if self.active.is_empty() {
                if let Some((&next, _)) = self.calendar.iter().next() {
                    if next > self.cycle {
                        self.cycle = next.min(max_cycles);
                        self.report.cycles = self.cycle;
                    }
                }
            }
            if self.cycle >= max_cycles {
                return Err(SimError::CycleBudgetExceeded {
                    in_flight: self.active.len() + self.pending_packets(),
                });
            }
            step(self);
        }
        Ok(self.report)
    }

    fn pending_packets(&self) -> usize {
        self.calendar.values().map(|s| s.inject.len()).sum()
    }

    /// Pops every calendar entry due this cycle and places its packets.
    fn inject_due(&mut self) {
        while let Some(entry) = self.calendar.first_entry() {
            if *entry.key() > self.cycle {
                break;
            }
            let slot = entry.remove();
            debug_assert!(
                slot.faults.is_empty(),
                "due faults must be applied before injection"
            );
            for packet in slot.inject {
                let at = packet.source();
                let n = self.mesh.index_of(at);
                self.counts[n] += 1;
                self.touched.push(n);
                self.active.push(EvFlight {
                    at,
                    leg_source: at,
                    injected_at: self.cycle,
                    hops: 0,
                    hop: None,
                    packet,
                    dead: false,
                });
                // Source == destination delivers instantly.
                self.try_deliver(self.active.len() - 1);
            }
        }
    }

    /// Occupancy peaks right after injection; only nodes whose count
    /// rose since the previous sample can set a new maximum.
    fn sample_peak(&mut self) {
        for &n in &self.touched {
            self.report.peak_queue = self.report.peak_queue.max(self.counts[n] as usize);
        }
        self.touched.clear();
    }

    /// Every alive flight claims the link of its hop, in admission (age)
    /// order; the first flight to claim a link wins it. A flight asks its
    /// router only when it keeps no hop: a router's answer depends on its
    /// state and the question alone (see [`Router`]), so a flight that
    /// lost its link last cycle reuses the answer the stepper asks for
    /// again.
    fn route_and_claim(&mut self) {
        for i in 0..self.active.len() {
            let f = &mut self.active[i];
            if f.dead {
                continue;
            }
            let Some(target) = f.packet.current_target() else {
                // A target-less flight is already delivered; dropping it
                // keeps the slab finite (mirrors the stepper).
                self.fail_flight(i);
                continue;
            };
            let hop = match f.hop {
                Some(dir) => Ok(dir),
                None => self.router.next_hop(f.leg_source, target, f.at),
            };
            match hop {
                Ok(dir) => {
                    f.hop = Some(dir);
                    if !self.claims[dir.index()].test_and_set(f.at) {
                        self.winners.push((i, dir));
                    }
                }
                Err(e) => {
                    self.report.count_error(e);
                    self.fail_flight(i);
                }
            }
        }
    }

    /// Moves each link winner one hop and releases its claim bit.
    fn move_winners(&mut self) {
        let mut winners = std::mem::take(&mut self.winners);
        for &(i, dir) in &winners {
            let from = self.active[i].at;
            self.claims[dir.index()].set(from, false);
            let to = from.step(dir);
            self.counts[self.mesh.index_of(from)] -= 1;
            let nt = self.mesh.index_of(to);
            self.counts[nt] += 1;
            self.touched.push(nt);
            let f = &mut self.active[i];
            f.at = to;
            f.hops += 1;
            f.hop = None;
            self.try_deliver(i);
        }
        winners.clear();
        self.winners = winners;
    }

    /// Checks whether flight `i` has reached its current waypoint or
    /// destination (same accounting as the stepper's `try_deliver`).
    fn try_deliver(&mut self, i: usize) {
        let f = &mut self.active[i];
        if f.dead {
            return;
        }
        let Some(target) = f.packet.current_target() else {
            return;
        };
        if f.at != target {
            return;
        }
        if f.packet.arrive_at_target() {
            // Final destination: a packet that moved arrives at the end
            // of the current cycle; one delivered at its source costs 0.
            let arrival = if f.hops == 0 {
                f.injected_at
            } else {
                self.cycle + 1
            };
            self.report.delivered += 1;
            self.report.total_hops += f.hops;
            self.report.total_latency += arrival - f.injected_at;
            self.report.total_manhattan += u64::from(f.packet.source().manhattan(f.packet.dest()));
            f.dead = true;
            let n = self.mesh.index_of(f.at);
            self.counts[n] -= 1;
        } else {
            // Start the next leg from here.
            f.leg_source = f.at;
            f.hop = None;
        }
    }

    /// Drops flight `i` as failed: off the node count now, reaped at
    /// cycle end.
    fn fail_flight(&mut self, i: usize) {
        let f = &mut self.active[i];
        f.dead = true;
        self.report.failed += 1;
        let n = self.mesh.index_of(f.at);
        self.counts[n] -= 1;
    }
}

impl<R: Router> PacketSink for EventSim<R> {
    fn inject(&mut self, packet: Packet, cycle: u64) {
        EventSim::inject(self, packet, cycle);
    }
}

impl<R: DynamicRouter> EventSim<R> {
    /// Schedules node `c` to fail at `cycle` (clamped to now). Failures
    /// land at the *start* of their cycle, before injection and routing
    /// — identical ordering to `NetSim::schedule_fault`.
    ///
    /// # Panics
    ///
    /// Panics if `c` lies outside the mesh.
    pub fn schedule_fault(&mut self, c: Coord, cycle: u64) {
        assert!(self.mesh.contains(c), "fault {c} outside mesh");
        let at = cycle.max(self.cycle);
        self.calendar.entry(at).or_default().faults.push(c);
    }

    /// One cycle with dynamic faults: failures due this cycle land
    /// first, then the ordinary [`EventSim::step`] runs.
    pub fn step_dynamic(&mut self) {
        self.apply_due_faults();
        self.step();
    }

    /// Runs until all traffic *and* all scheduled failures are resolved,
    /// or the cycle budget is exhausted.
    ///
    /// # Errors
    ///
    /// [`SimError::CycleBudgetExceeded`] if traffic remains after
    /// `max_cycles`.
    pub fn run_dynamic_to_completion(&mut self, max_cycles: u64) -> Result<SimReport, SimError> {
        self.run_with(max_cycles, Self::step_dynamic)
    }

    /// Takes every fault due this cycle out of the calendar, in
    /// schedule order (calendar entries due now keep their injections).
    fn take_due_faults(&mut self) -> Vec<Coord> {
        let mut due = Vec::new();
        for (&when, slot) in &mut self.calendar {
            if when > self.cycle {
                break;
            }
            due.append(&mut slot.faults);
        }
        due
    }

    /// Applies every failure due this cycle with the stepper's exact
    /// accounting: routers absorb the faults, packets caught on
    /// swallowed nodes are dropped (`failed` + `fault_drops`),
    /// not-yet-injected packets whose source was swallowed likewise,
    /// and surviving flights re-evaluate their next hop (`rerouted`
    /// counts the ones whose hop actually changed).
    fn apply_due_faults(&mut self) {
        let due = self.take_due_faults();
        if due.is_empty() {
            return;
        }
        // Snapshot each alive flight's pre-fault hop choice: the hop it
        // keeps, else a fresh answer. The failure drops every kept hop.
        let mut before: Vec<(usize, Direction)> = Vec::new();
        for (i, f) in self.active.iter_mut().enumerate() {
            if f.dead {
                continue;
            }
            let Some(target) = f.packet.current_target() else {
                continue;
            };
            let hop = f
                .hop
                .take()
                .or_else(|| self.router.next_hop(f.leg_source, target, f.at).ok());
            if let Some(dir) = hop {
                before.push((i, dir));
            }
        }
        for c in due {
            self.router.fail_node(c);
            self.report.fault_events += 1;
        }
        // Packets caught on nodes the fault swallowed are lost.
        for i in 0..self.active.len() {
            if !self.active[i].dead && self.router.is_node_blocked(self.active[i].at) {
                self.fail_flight(i);
                self.report.fault_drops += 1;
            }
        }
        // Scheduled packets whose source was swallowed are lost too.
        let (router, report) = (&self.router, &mut self.report);
        for slot in self.calendar.values_mut() {
            slot.inject.retain(|p| {
                if router.is_node_blocked(p.source()) {
                    report.failed += 1;
                    report.fault_drops += 1;
                    false
                } else {
                    true
                }
            });
        }
        self.calendar
            .retain(|_, s| !s.inject.is_empty() || !s.faults.is_empty());
        // Survivors re-evaluate against the repaired information and keep
        // the new hop: nothing changes the router again before they route.
        for (i, old) in before {
            let f = &mut self.active[i];
            if f.dead {
                continue;
            }
            let Some(target) = f.packet.current_target() else {
                continue;
            };
            if let Ok(new) = self.router.next_hop(f.leg_source, target, f.at) {
                if new != old {
                    self.report.rerouted += 1;
                }
                f.hop = Some(new);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::XyRouter;
    use crate::dynamic::EpochedWuRouter;
    use crate::router::WuRouter;
    use crate::sim::NetSim;
    use crate::workload::{TrafficPattern, Workload};
    use emr_core::route::RouteError;
    use emr_core::{Model, Scenario, ScenarioState};
    use emr_fault::{inject, BlockMap, FaultSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn event_core_matches_stepper_on_seeded_traffic() {
        for seed in 0..8u64 {
            let mesh = Mesh::square(16);
            let mut rng = StdRng::seed_from_u64(seed);
            let faults = inject::uniform(mesh, 12, &[], &mut rng);
            let scenario = Scenario::build(faults);
            let load = Workload::offered_load(
                &scenario,
                TrafficPattern::Uniform,
                60,
                3.0 / 256.0,
                &mut rng,
            );
            let view = scenario.view(Model::FaultBlock);

            let mut stepper = NetSim::new(mesh, WuRouter::new(&view));
            let mut event = EventSim::new(mesh, WuRouter::new(&view));
            load.inject_into(&mut stepper);
            load.inject_into(&mut event);
            assert_eq!(
                stepper.run_to_completion(50_000),
                event.run_to_completion(50_000),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn event_core_matches_stepper_with_idle_gaps() {
        // Bursts separated by long idle stretches: the event core jumps
        // the gaps, the stepper grinds through them — reports (including
        // `cycles`) must still agree bit for bit.
        let mesh = Mesh::square(10);
        let scenario = Scenario::build(FaultSet::new(mesh));
        let view = scenario.view(Model::FaultBlock);
        let mut stepper = NetSim::new(mesh, WuRouter::new(&view));
        let mut event = EventSim::new(mesh, WuRouter::new(&view));
        for cycle in [0u64, 700, 701, 5_000] {
            let p = Packet::direct(Coord::new(0, 0), Coord::new(9, 9));
            stepper.inject(p.clone(), cycle);
            EventSim::inject(&mut event, p, cycle);
        }
        let a = stepper.run_to_completion(100_000).unwrap();
        let b = event.run_to_completion(100_000).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.cycles, 5_000 + 18);
    }

    #[test]
    fn event_core_matches_stepper_under_dynamic_faults() {
        for seed in 0..6u64 {
            let mesh = Mesh::square(14);
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let scenario = Scenario::build(FaultSet::new(mesh));
            let load =
                Workload::offered_load(&scenario, TrafficPattern::Uniform, 50, 0.02, &mut rng);
            let mk =
                || EpochedWuRouter::new(ScenarioState::new(FaultSet::new(mesh)), Model::FaultBlock);
            let mut stepper = NetSim::new(mesh, mk());
            let mut event = EventSim::new(mesh, mk());
            load.inject_into(&mut stepper);
            load.inject_into(&mut event);
            for (i, c) in [
                (3u64, Coord::new(5, 5)),
                (9, Coord::new(5, 6)),
                (9, Coord::new(10, 2)),
            ] {
                let _ = i;
                stepper.schedule_fault(c, i);
                event.schedule_fault(c, i);
            }
            let a = stepper.run_dynamic_to_completion(50_000);
            let b = event.run_dynamic_to_completion(50_000);
            assert_eq!(a, b, "seed {seed}");
            let r = a.unwrap();
            assert_eq!(r.fault_events, 3);
        }
    }

    #[test]
    fn out_of_order_injection_matches_stepper() {
        // Injection calls arrive out of cycle order, with ties: the
        // stepper's sorted pending queue must release them in the same
        // (cycle, call) order as the event calendar.
        let mesh = Mesh::square(10);
        let scenario = Scenario::build(FaultSet::new(mesh));
        let view = scenario.view(Model::FaultBlock);
        let mut stepper = NetSim::new(mesh, WuRouter::new(&view));
        let mut event = EventSim::new(mesh, WuRouter::new(&view));
        let calls = [
            (30u64, 0),
            (0, 1),
            (12, 2),
            (0, 3),
            (30, 4),
            (5, 5),
            (12, 6),
        ];
        for (cycle, i) in calls {
            let p = Packet::direct(Coord::new(i, 0), Coord::new(9, 9 - i));
            stepper.inject(p.clone(), cycle);
            EventSim::inject(&mut event, p, cycle);
        }
        let a = stepper.run_to_completion(1_000).unwrap();
        assert_eq!(a, event.run_to_completion(1_000).unwrap());
        assert_eq!(a.delivered, 7);
    }

    #[test]
    fn late_call_for_an_early_cycle_is_the_older_packet() {
        // A is scheduled first but for cycle 5; B is scheduled second
        // for cycle 0 and reaches (5,0) at cycle 5, where both request
        // East. Age is admission order, so B wins on both cores: A
        // waits one cycle, and B, never delayed, arrives after cycle 8.
        let mesh = Mesh::square(10);
        let scenario = Scenario::build(FaultSet::new(mesh));
        let view = scenario.view(Model::FaultBlock);
        let mut stepper = NetSim::new(mesh, WuRouter::new(&view));
        let mut event = EventSim::new(mesh, WuRouter::new(&view));
        let calls = [
            (Packet::direct(Coord::new(5, 0), Coord::new(6, 0)), 5),
            (Packet::direct(Coord::new(0, 0), Coord::new(9, 0)), 0),
        ];
        for (p, cycle) in calls {
            stepper.inject(p.clone(), cycle);
            event.inject(p, cycle);
        }
        let a = stepper.run_to_completion(100).unwrap();
        let b = event.run_to_completion(100).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.cycles, 9);
    }

    #[test]
    fn budget_error_matches_stepper() {
        let mesh = Mesh::square(10);
        let scenario = Scenario::build(FaultSet::new(mesh));
        let view = scenario.view(Model::FaultBlock);
        let mut stepper = NetSim::new(mesh, WuRouter::new(&view));
        let mut event = EventSim::new(mesh, WuRouter::new(&view));
        for cycle in [0u64, 2, 40] {
            let p = Packet::direct(Coord::new(0, 0), Coord::new(9, 0));
            stepper.inject(p.clone(), cycle);
            EventSim::inject(&mut event, p, cycle);
        }
        assert_eq!(stepper.run_to_completion(20), event.run_to_completion(20));
    }

    #[test]
    fn older_flight_wins_a_contended_link() {
        // Three flights leave (2,2) in cycle 0: the two heading East
        // contend for one link and the older moves, the younger waits;
        // the one heading North claims another link and moves too.
        let mesh = Mesh::square(10);
        let blocks = BlockMap::build(&FaultSet::new(mesh));
        let mut sim = EventSim::new(mesh, XyRouter::new(mesh, &blocks));
        let from = Coord::new(2, 2);
        for dest in [Coord::new(6, 2), Coord::new(7, 2), Coord::new(2, 7)] {
            sim.inject(Packet::direct(from, dest), 0);
        }
        sim.step();
        let at: Vec<Coord> = sim.active.iter().map(|f| f.at).collect();
        assert_eq!(at, [Coord::new(3, 2), from, Coord::new(2, 3)]);
        assert!(
            sim.claims.iter().all(|plane| plane.count_ones() == 0),
            "moving the winners releases every claim"
        );
    }

    /// A router that logs every question it answers as `(leg target,
    /// position)`.
    struct Counting<R> {
        inner: R,
        asked: Rc<RefCell<Vec<(Coord, Coord)>>>,
    }

    impl<R: Router> Router for Counting<R> {
        fn next_hop(&self, s: Coord, t: Coord, u: Coord) -> Result<Direction, RouteError> {
            self.asked.borrow_mut().push((t, u));
            self.inner.next_hop(s, t, u)
        }
    }

    impl<R: DynamicRouter> DynamicRouter for Counting<R> {
        fn fail_node(&mut self, c: Coord) {
            self.inner.fail_node(c);
        }

        fn is_node_blocked(&self, c: Coord) -> bool {
            self.inner.is_node_blocked(c)
        }
    }

    /// How often `log` holds the question `(target, at)`.
    fn asked(log: &RefCell<Vec<(Coord, Coord)>>, target: (i32, i32), at: (i32, i32)) -> usize {
        let question = (Coord::from(target), Coord::from(at));
        log.borrow().iter().filter(|&&q| q == question).count()
    }

    #[test]
    fn a_link_loser_asks_once_per_position() {
        // Four flights leave (0,0) East in cycle 0 and serialize on its
        // East link: flight k waits k cycles there. The stepper asks a
        // waiting flight again every cycle; the event core reuses the hop
        // it was given, so it asks each question once.
        let mesh = Mesh::square(10);
        let scenario = Scenario::build(FaultSet::new(mesh));
        let view = scenario.view(Model::FaultBlock);
        let (stepper_log, event_log) = (Rc::default(), Rc::default());
        let counting = |asked: &Rc<_>| Counting {
            inner: WuRouter::new(&view),
            asked: Rc::clone(asked),
        };
        let mut stepper = NetSim::new(mesh, counting(&stepper_log));
        let mut event = EventSim::new(mesh, counting(&event_log));
        for x in 5..9 {
            let p = Packet::direct(Coord::new(0, 0), Coord::new(x, 0));
            stepper.inject(p.clone(), 0);
            event.inject(p, 0);
        }
        let report = stepper.run_to_completion(100);
        assert_eq!(report, event.run_to_completion(100));
        assert_eq!(report.map(|r| r.delivered), Ok(4));
        let questions: std::collections::BTreeSet<_> = event_log.borrow().iter().copied().collect();
        assert_eq!(
            event_log.borrow().len(),
            questions.len(),
            "a question asked twice"
        );
        assert_eq!(questions.len(), 5 + 6 + 7 + 8, "one question per position");
        for (k, x) in (5..9).enumerate() {
            assert_eq!(asked(&event_log, (x, 0), (0, 0)), 1);
            assert_eq!(asked(&stepper_log, (x, 0), (0, 0)), k + 1);
        }
    }

    #[test]
    fn a_failure_makes_a_waiting_flight_ask_again() {
        // Three flights leave (2,0) East in cycle 0. The one for (9,0)
        // wins the link; the ones for (9,3) and (6,0) wait on the hop they
        // keep. Node (3,0) fails at the start of cycle 1 and swallows the
        // winner. The waiting flights must ask again: the one for (9,3)
        // reroutes North, and the one for (6,0), whose only preferred move
        // is now closed, is `Stuck`.
        let mesh = Mesh::square(10);
        let (stepper_log, event_log) = (Rc::default(), Rc::default());
        let counting = |asked: &Rc<_>| Counting {
            inner: EpochedWuRouter::new(ScenarioState::new(FaultSet::new(mesh)), Model::FaultBlock),
            asked: Rc::clone(asked),
        };
        let mut stepper = NetSim::new(mesh, counting(&stepper_log));
        let mut event = EventSim::new(mesh, counting(&event_log));
        for dest in [(9, 0), (9, 3), (6, 0)] {
            let p = Packet::direct(Coord::new(2, 0), Coord::from(dest));
            stepper.inject(p.clone(), 0);
            event.inject(p, 0);
        }
        stepper.schedule_fault(Coord::new(3, 0), 1);
        event.schedule_fault(Coord::new(3, 0), 1);
        let report = stepper.run_dynamic_to_completion(100);
        assert_eq!(report, event.run_dynamic_to_completion(100));
        let r = report.expect("the run completes");
        assert_eq!(
            (r.delivered, r.fault_drops, r.rerouted, r.stuck, r.failed),
            (1, 1, 1, 1, 2)
        );
        // The event core asked in cycle 0 and after the failure; the
        // `Stuck` answer is not kept, so that flight asks once more when
        // it routes. The stepper also asks for its snapshot and in cycle 1.
        assert_eq!(asked(&event_log, (9, 3), (2, 0)), 2);
        assert_eq!(asked(&event_log, (6, 0), (2, 0)), 3);
        assert_eq!(asked(&stepper_log, (9, 3), (2, 0)), 4);
        assert_eq!(asked(&stepper_log, (6, 0), (2, 0)), 4);
    }
}
