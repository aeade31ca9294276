//! The event-driven execution core.
//!
//! [`EventSim`] replays exactly the semantics of the cycle-accurate
//! [`crate::NetSim`] stepper — same injection, arbitration, movement,
//! delivery, and fault ordering, bit-identical [`SimReport`]s (pinned by
//! the `netsim-event-matches-cycle` conform oracle) — but organizes the
//! work around *events* and *routes* instead of scanning every node and
//! asking every packet's router every cycle:
//!
//! * a deterministic BTree-keyed **event calendar**, one map of
//!   scheduled injections and one of scheduled failures; when nothing is
//!   in flight the clock jumps straight to the earlier of their first
//!   entries instead of stepping through idle cycles,
//! * a flight **walks its route** ahead: [`Router::next_hops`] writes
//!   what `next_hop` would answer at each node along the leg, and the
//!   flight keeps up to [`ROUTE_HOPS`] of those hops, two bits each. A
//!   hop depends on the router's state and the question alone
//!   ([`Router`]), and only a landing failure changes that state, so the
//!   flight claims its route's front each cycle, drops the front when it
//!   wins the link, and walks again only when the route runs out. A walk
//!   stops at the leg target, at an error, at [`ROUTE_HOPS`] hops, or at
//!   the hop for the cycle the next scheduled failure lands in: that last
//!   hop is the "before" answer the failure's snapshot reads, so a
//!   landing failure asks no question of a flight that holds a route,
//! * the only per-cycle work is **one pass** over the active flight list
//!   (kept in admission order, which is age order): each flight takes its
//!   route's front (or walks), claims the link and, on a win, moves,
//!   updates the node counts and is delivered at once — `O(active)` per
//!   cycle where the stepper pays `O(nodes)` for its queue scan plus
//!   per-cycle B-tree churn for grants. The pass is one `retain_mut`, so
//!   a flight delivered or failed in it leaves the list in place,
//! * each directed link is arbitrated by **one claim bit**, bit
//!   [`Direction::index`] of a byte per node, the link's source: the
//!   first flight to claim a link in age order wins it, and the nodes a
//!   pass claimed at are cleared from a list after it, so every byte is
//!   zero again at cycle end. Flights carry their node's mesh index
//!   beside their coordinate, so a move updates claims and counts by
//!   index arithmetic,
//! * queue-depth peaks are maintained **incrementally**: a node becomes
//!   a peak candidate only when an increment lifts its count above the
//!   peak so far, and a sample reads the candidates alone. That is exact:
//!   a count can beat the peak at a sample only if it beat it right after
//!   its last increment, and the peak changes only at samples.
//!
//! Winners move in age order within the pass rather than the stepper's
//! link order. That cannot show in a report: each flight moves at most
//! once per cycle, its hop depends on its own position alone, each link
//! still goes to its oldest claimant, the report only sums and takes
//! maxima, and the queue peak is sampled at the start of the next cycle.
//!
//! Faults scheduled through [`EventSim::schedule_fault`] land with the
//! stepper's ordering: at the start of their cycle, before injection and
//! routing. A landing failure drops every route; the survivors walk
//! again, and `rerouted` compares the old and new route fronts.

use std::collections::BTreeMap;

use emr_core::route::RouteError;
use emr_mesh::{Coord, Direction, Mesh};

use crate::dynamic::DynamicRouter;
use crate::packet::Packet;
use crate::router::Router;
use crate::sim::{PacketSink, SimError, SimReport};

/// The most hops a flight's route holds: two bits each in a `u64`.
const ROUTE_HOPS: usize = 32;

/// The hops a flight's router walked for it that it has not taken yet,
/// front first, packed two bits each ([`Direction::index`]).
#[derive(Debug, Clone, Copy, Default)]
struct Route {
    hops: u64,
    len: u8,
}

impl Route {
    /// The route of the hops a walk wrote (at most [`ROUTE_HOPS`]).
    fn of(walked: &[Direction]) -> Route {
        Route {
            hops: walked
                .iter()
                .rev()
                .fold(0, |hops, dir| hops << 2 | dir.index() as u64),
            len: u8::try_from(walked.len()).unwrap_or(u8::MAX),
        }
    }

    /// The next hop, `None` once the route is spent.
    fn front(self) -> Option<Direction> {
        (self.len > 0).then(|| Direction::ALL[(self.hops & 3) as usize])
    }

    /// Drops the front hop, taken.
    fn pop(&mut self) {
        self.hops >>= 2;
        self.len = self.len.saturating_sub(1);
    }
}

/// Resident-packet counts per node, and the nodes that may hold a new
/// queue peak. Nodes are mesh indices.
#[derive(Debug)]
struct Occupancy {
    mesh: Mesh,
    /// The mesh-index offset of one hop, by [`Direction::index`].
    offsets: [isize; 4],
    /// Resident packets per node.
    counts: Vec<u32>,
    /// Nodes an increment lifted above the peak since the last sample.
    candidates: Vec<usize>,
}

impl Occupancy {
    fn new(mesh: Mesh) -> Occupancy {
        let width = mesh.width() as isize;
        Occupancy {
            mesh,
            offsets: [1, width, -1, -width],
            counts: vec![0; mesh.node_count()],
            candidates: Vec::new(),
        }
    }

    /// A packet arrives at node `n`, with `peak` the peak so far.
    fn enter(&mut self, n: usize, peak: usize) {
        self.counts[n] += 1;
        if self.counts[n] as usize > peak {
            self.candidates.push(n);
        }
    }

    /// A packet leaves node `n`.
    fn leave(&mut self, n: usize) {
        self.counts[n] -= 1;
    }

    /// The node one hop `dir` from node `n`.
    fn next_node(&self, n: usize, dir: Direction) -> usize {
        n.wrapping_add_signed(self.offsets[dir.index()])
    }

    /// Folds the candidates' counts into `peak`.
    fn sample(&mut self, peak: &mut usize) {
        for n in self.candidates.drain(..) {
            *peak = (*peak).max(self.counts[n] as usize);
        }
    }
}

/// One in-flight packet in the event core's flight slab.
#[derive(Debug)]
struct EvFlight {
    packet: Packet,
    at: Coord,
    /// The mesh index of `at`.
    node: usize,
    leg_source: Coord,
    /// The current leg's target ([`Packet::current_target`]).
    target: Option<Coord>,
    injected_at: u64,
    hops: u64,
    /// The hops walked from `at` and not taken yet, dropped when a
    /// failure lands. A walk ends at the leg target, so a new leg starts
    /// with an empty route.
    route: Route,
}

impl EvFlight {
    /// Walks the leg from `at` into `walked` and keeps what the walk
    /// wrote as the route. Returns the error of a walk that wrote no hop.
    fn walk(
        &mut self,
        router: &impl Router,
        target: Coord,
        walked: &mut [Direction],
    ) -> Option<RouteError> {
        let (n, error) = router.next_hops(self.leg_source, target, self.at, walked);
        self.route = Route::of(walked.get(..n).unwrap_or(&[]));
        error.filter(|_| n == 0)
    }

    /// Counts the flight as failed and takes it off its node; the caller
    /// drops it.
    fn fail(&self, report: &mut SimReport, nodes: &mut Occupancy) {
        report.failed += 1;
        nodes.leave(self.node);
    }

    /// Checks whether the flight has reached its current waypoint or
    /// destination in `cycle` (same accounting as the stepper's
    /// `try_deliver`). Returns whether the packet was delivered, which
    /// takes it off its node; the caller drops it.
    fn try_deliver(&mut self, cycle: u64, report: &mut SimReport, nodes: &mut Occupancy) -> bool {
        if self.target != Some(self.at) {
            return false;
        }
        if self.packet.arrive_at_target() {
            // Final destination: a packet that moved arrives at the end
            // of the current cycle; one delivered at its source costs 0.
            let arrival = if self.hops == 0 {
                self.injected_at
            } else {
                cycle + 1
            };
            report.delivered += 1;
            report.total_hops += self.hops;
            report.total_latency += arrival - self.injected_at;
            report.total_manhattan += u64::from(self.packet.source().manhattan(self.packet.dest()));
            nodes.leave(self.node);
            true
        } else {
            // Start the next leg from here.
            self.leg_source = self.at;
            self.target = self.packet.current_target();
            false
        }
    }
}

/// The event-driven simulator core. Drop-in for [`crate::NetSim`]
/// (same construction, injection, fault-scheduling, and run API) with
/// identical reports.
#[derive(Debug)]
pub struct EventSim<R: DynamicRouter> {
    router: R,
    /// Packets to inject, per cycle in schedule-call order.
    injections: BTreeMap<u64, Vec<Packet>>,
    /// Node failures to land, per cycle in schedule-call order.
    failures: BTreeMap<u64, Vec<Coord>>,
    /// Alive flights in admission order (injections append, the pass
    /// drops resolved flights in place).
    active: Vec<EvFlight>,
    nodes: Occupancy,
    /// One claim bit per directed link, bit [`Direction::index`] of the
    /// link's source node.
    claims: Vec<u8>,
    /// The nodes whose links this cycle's pass claimed.
    claimed: Vec<usize>,
    cycle: u64,
    report: SimReport,
}

impl<R: DynamicRouter> EventSim<R> {
    /// Creates an idle network.
    pub fn new(mesh: Mesh, router: R) -> EventSim<R> {
        EventSim {
            router,
            injections: BTreeMap::new(),
            failures: BTreeMap::new(),
            active: Vec::new(),
            nodes: Occupancy::new(mesh),
            claims: vec![0; mesh.node_count()],
            claimed: Vec::new(),
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
            self.nodes.mesh.contains(packet.source()),
            "source {} outside mesh",
            packet.source()
        );
        let at = cycle.max(self.cycle);
        self.injections.entry(at).or_default().push(packet);
    }

    /// The cycle body after the failures land: inject due packets,
    /// sample queue peaks, then one pass routes every flight, claims its
    /// link, and moves and delivers the winners.
    fn step(&mut self) {
        self.inject_due();
        self.nodes.sample(&mut self.report.peak_queue);
        self.pass();
        self.cycle += 1;
        self.report.cycles = self.cycle;
    }

    fn pending_packets(&self) -> usize {
        self.injections.values().map(Vec::len).sum()
    }

    /// How many hops a walk this cycle may take: up to the hop for the
    /// cycle the next scheduled failure lands in (the one its snapshot
    /// reads), at least one and at most [`ROUTE_HOPS`].
    fn walk_limit(&self) -> usize {
        self.failures.keys().next().map_or(ROUTE_HOPS, |&at| {
            let cycles = at.saturating_sub(self.cycle).saturating_add(1);
            usize::try_from(cycles).map_or(ROUTE_HOPS, |n| n.min(ROUTE_HOPS))
        })
    }

    /// Pops every injection due this cycle and places its packets.
    fn inject_due(&mut self) {
        while let Some(entry) = self.injections.first_entry() {
            if *entry.key() > self.cycle {
                break;
            }
            for packet in entry.remove() {
                let at = packet.source();
                let node = self.nodes.mesh.index_of(at);
                self.nodes.enter(node, self.report.peak_queue);
                let mut flight = EvFlight {
                    at,
                    node,
                    leg_source: at,
                    target: packet.current_target(),
                    injected_at: self.cycle,
                    hops: 0,
                    route: Route::default(),
                    packet,
                };
                // Source == destination delivers instantly.
                if !flight.try_deliver(self.cycle, &mut self.report, &mut self.nodes) {
                    self.active.push(flight);
                }
            }
        }
    }

    /// The cycle's one pass over the alive flights, in admission (age)
    /// order: each flight takes its route's front, walking first when it
    /// holds none, and claims that link; the first flight to claim a link
    /// wins it, moves at once and is delivered if it arrived. A router
    /// answers from its state and the question alone (see [`Router`]), so
    /// the hops a flight walked ahead are the answers the stepper gets
    /// when it asks at each node.
    fn pass(&mut self) {
        let limit = self.walk_limit();
        let mut walked = [Direction::East; ROUTE_HOPS];
        let walked = &mut walked[..limit];
        let EventSim {
            router,
            active,
            nodes,
            claims,
            claimed,
            cycle,
            report,
            ..
        } = self;
        active.retain_mut(|f| {
            if f.route.front().is_none() {
                // A target-less flight is already delivered: it walks
                // nowhere and is dropped below, which keeps the slab
                // finite (mirrors the stepper).
                if let Some(e) = f.target.and_then(|target| f.walk(router, target, walked)) {
                    report.count_error(e);
                }
            }
            let Some(dir) = f.route.front() else {
                f.fail(report, nodes);
                return false;
            };
            let (claim, link) = (&mut claims[f.node], 1 << dir.index());
            if *claim & link != 0 {
                return true; // an older flight won the link
            }
            *claim |= link;
            claimed.push(f.node);
            f.route.pop();
            nodes.leave(f.node);
            f.at = f.at.step(dir);
            f.node = nodes.next_node(f.node, dir);
            f.hops += 1;
            nodes.enter(f.node, report.peak_queue);
            !f.try_deliver(*cycle, report, nodes)
        });
        for n in claimed.drain(..) {
            claims[n] = 0;
        }
    }

    /// Schedules node `c` to fail at `cycle` (clamped to now). Failures
    /// land at the *start* of their cycle, before injection and routing
    /// — identical ordering to `NetSim::schedule_fault`.
    ///
    /// # Panics
    ///
    /// Panics if `c` lies outside the mesh.
    pub fn schedule_fault(&mut self, c: Coord, cycle: u64) {
        assert!(self.nodes.mesh.contains(c), "fault {c} outside mesh");
        let at = cycle.max(self.cycle);
        self.failures.entry(at).or_default().push(c);
    }

    /// Advances one cycle: failures due this cycle land first, then the
    /// cycle injects due packets, samples queue peaks, and one pass
    /// routes every flight, claims its link, and moves and delivers the
    /// winners.
    pub fn step_dynamic(&mut self) {
        self.apply_due_faults();
        self.step();
    }

    /// Runs until all traffic *and* all scheduled failures are resolved,
    /// or the cycle budget is exhausted. When nothing is in flight the
    /// clock jumps straight to the earlier of the next injection and the
    /// next failure: the skipped cycles are exactly the stepper's no-op
    /// cycles, so the final report is unchanged.
    ///
    /// # Errors
    ///
    /// [`SimError::CycleBudgetExceeded`] if traffic remains after
    /// `max_cycles`.
    pub fn run_dynamic_to_completion(&mut self, max_cycles: u64) -> Result<SimReport, SimError> {
        while !self.active.is_empty() || !self.injections.is_empty() || !self.failures.is_empty() {
            if self.active.is_empty() {
                let next_injection = self.injections.keys().next();
                if let Some(&next) = next_injection.into_iter().chain(self.failures.keys()).min() {
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
            self.step_dynamic();
        }
        Ok(self.report)
    }

    /// Pops every failure due this cycle, in schedule order.
    fn take_due_faults(&mut self) -> Vec<Coord> {
        let mut due = Vec::new();
        while let Some(entry) = self.failures.first_entry() {
            if *entry.key() > self.cycle {
                break;
            }
            due.append(&mut entry.remove());
        }
        due
    }

    /// Applies every failure due this cycle with the stepper's exact
    /// accounting: routers absorb the faults, packets caught on
    /// swallowed nodes are dropped (`failed` + `fault_drops`),
    /// not-yet-injected packets whose source was swallowed likewise,
    /// and surviving flights walk again (`rerouted` counts the ones whose
    /// next hop actually changed).
    fn apply_due_faults(&mut self) {
        let due = self.take_due_faults();
        if due.is_empty() {
            return;
        }
        // Snapshot each flight's pre-fault hop: its route's front, else a
        // fresh answer. The failure drops every route.
        let router = &self.router;
        let before: Vec<Option<Direction>> = self
            .active
            .iter_mut()
            .map(|f| {
                let route = std::mem::take(&mut f.route);
                let target = f.target?;
                route
                    .front()
                    .or_else(|| router.next_hop(f.leg_source, target, f.at).ok())
            })
            .collect();
        for c in due {
            self.router.fail_node(c);
            self.report.fault_events += 1;
        }
        // Scheduled packets whose source was swallowed are lost.
        let (router, report) = (&self.router, &mut self.report);
        for packets in self.injections.values_mut() {
            packets.retain(|p| {
                if router.is_node_blocked(p.source()) {
                    report.failed += 1;
                    report.fault_drops += 1;
                    false
                } else {
                    true
                }
            });
        }
        self.injections.retain(|_, packets| !packets.is_empty());
        // Packets caught on nodes the fault swallowed are lost too. The
        // survivors walk again against the repaired information: nothing
        // changes the router again before the next scheduled failure.
        let mut walked = [Direction::East; ROUTE_HOPS];
        let walked = &mut walked[..self.walk_limit()];
        let EventSim {
            router,
            active,
            nodes,
            report,
            ..
        } = self;
        let mut before = before.into_iter();
        active.retain_mut(|f| {
            let old = before.next().flatten();
            if router.is_node_blocked(f.at) {
                f.fail(report, nodes);
                report.fault_drops += 1;
                return false;
            }
            if let (Some(old), Some(target)) = (old, f.target) {
                f.walk(router, target, walked);
                if f.route.front().is_some_and(|new| new != old) {
                    report.rerouted += 1;
                }
            }
            true
        });
    }
}

impl<R: DynamicRouter> PacketSink for EventSim<R> {
    fn inject(&mut self, packet: Packet, cycle: u64) {
        EventSim::inject(self, packet, cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::XyRouter;
    use crate::dynamic::EpochedWuRouter;
    use crate::sim::NetSim;
    use crate::workload::{TrafficPattern, Workload};
    use emr_core::route::RouteError;
    use emr_core::{Model, ScenarioState};
    use emr_fault::{inject, BlockMap, FaultSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Wu's router over a fault-free `mesh`.
    fn wu(mesh: Mesh) -> EpochedWuRouter {
        EpochedWuRouter::new(ScenarioState::new(FaultSet::new(mesh)), Model::FaultBlock)
    }

    #[test]
    fn event_core_matches_stepper_on_seeded_traffic() {
        for seed in 0..8u64 {
            let mesh = Mesh::square(16);
            let mut rng = StdRng::seed_from_u64(seed);
            let state = ScenarioState::new(inject::uniform(mesh, 12, &[], &mut rng));
            let load = Workload::offered_load(
                state.scenario(),
                TrafficPattern::Uniform,
                60,
                3.0 / 256.0,
                &mut rng,
            );
            let router = EpochedWuRouter::new(state, Model::FaultBlock);

            let mut stepper = NetSim::new(mesh, router.clone());
            let mut event = EventSim::new(mesh, router);
            load.inject_into(&mut stepper);
            load.inject_into(&mut event);
            assert_eq!(
                stepper.run_dynamic_to_completion(50_000),
                event.run_dynamic_to_completion(50_000),
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
        let mut stepper = NetSim::new(mesh, wu(mesh));
        let mut event = EventSim::new(mesh, wu(mesh));
        for cycle in [0u64, 700, 701, 5_000] {
            let p = Packet::direct(Coord::new(0, 0), Coord::new(9, 9));
            stepper.inject(p.clone(), cycle);
            EventSim::inject(&mut event, p, cycle);
        }
        let a = stepper.run_dynamic_to_completion(100_000).unwrap();
        let b = event.run_dynamic_to_completion(100_000).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.cycles, 5_000 + 18);
    }

    #[test]
    fn event_core_matches_stepper_under_dynamic_faults() {
        for seed in 0..6u64 {
            let mesh = Mesh::square(14);
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let load = Workload::offered_load(
                wu(mesh).state().scenario(),
                TrafficPattern::Uniform,
                50,
                0.02,
                &mut rng,
            );
            let mut stepper = NetSim::new(mesh, wu(mesh));
            let mut event = EventSim::new(mesh, wu(mesh));
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
        let mut stepper = NetSim::new(mesh, wu(mesh));
        let mut event = EventSim::new(mesh, wu(mesh));
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
        let a = stepper.run_dynamic_to_completion(1_000).unwrap();
        assert_eq!(a, event.run_dynamic_to_completion(1_000).unwrap());
        assert_eq!(a.delivered, 7);
    }

    #[test]
    fn late_call_for_an_early_cycle_is_the_older_packet() {
        // A is scheduled first but for cycle 5; B is scheduled second
        // for cycle 0 and reaches (5,0) at cycle 5, where both request
        // East. Age is admission order, so B wins on both cores: A
        // waits one cycle, and B, never delayed, arrives after cycle 8.
        let mesh = Mesh::square(10);
        let mut stepper = NetSim::new(mesh, wu(mesh));
        let mut event = EventSim::new(mesh, wu(mesh));
        let calls = [
            (Packet::direct(Coord::new(5, 0), Coord::new(6, 0)), 5),
            (Packet::direct(Coord::new(0, 0), Coord::new(9, 0)), 0),
        ];
        for (p, cycle) in calls {
            stepper.inject(p.clone(), cycle);
            event.inject(p, cycle);
        }
        let a = stepper.run_dynamic_to_completion(100).unwrap();
        let b = event.run_dynamic_to_completion(100).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.cycles, 9);
    }

    #[test]
    fn budget_error_matches_stepper() {
        let mesh = Mesh::square(10);
        let mut stepper = NetSim::new(mesh, wu(mesh));
        let mut event = EventSim::new(mesh, wu(mesh));
        for cycle in [0u64, 2, 40] {
            let p = Packet::direct(Coord::new(0, 0), Coord::new(9, 0));
            stepper.inject(p.clone(), cycle);
            EventSim::inject(&mut event, p, cycle);
        }
        assert_eq!(
            stepper.run_dynamic_to_completion(20),
            event.run_dynamic_to_completion(20)
        );
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
        sim.step_dynamic();
        let at: Vec<Coord> = sim.active.iter().map(|f| f.at).collect();
        assert_eq!(at, [Coord::new(3, 2), from, Coord::new(2, 3)]);
        assert!(
            sim.claims.iter().all(|&links| links == 0),
            "the pass releases every claim"
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
        // waiting flight again every cycle; the event core walks each leg
        // once and takes the hops it was given, so it asks each question
        // once.
        let mesh = Mesh::square(10);
        let (stepper_log, event_log) = (Rc::default(), Rc::default());
        let counting = |asked: &Rc<_>| Counting {
            inner: wu(mesh),
            asked: Rc::clone(asked),
        };
        let mut stepper = NetSim::new(mesh, counting(&stepper_log));
        let mut event = EventSim::new(mesh, counting(&event_log));
        for x in 5..9 {
            let p = Packet::direct(Coord::new(0, 0), Coord::new(x, 0));
            stepper.inject(p.clone(), 0);
            event.inject(p, 0);
        }
        let report = stepper.run_dynamic_to_completion(100);
        assert_eq!(report, event.run_dynamic_to_completion(100));
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
        // wins the link; the ones for (9,3) and (6,0) wait on the routes
        // they walked. Node (3,0) fails at the start of cycle 1 and
        // swallows the winner. The waiting flights must walk again: the
        // one for (9,3) reroutes North, and the one for (6,0), whose only
        // preferred move is now closed, is `Stuck`.
        let mesh = Mesh::square(10);
        let (stepper_log, event_log) = (Rc::default(), Rc::default());
        let counting = |asked: &Rc<_>| Counting {
            inner: wu(mesh),
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
        // The event core asked in its cycle-0 walks and in the walks after
        // the failure; the snapshot read the routes' fronts. A walk that
        // meets `Stuck` at once keeps nothing, so that flight asks once
        // more when it routes. The stepper also asks for its snapshot and
        // in cycle 1.
        assert_eq!(asked(&event_log, (9, 3), (2, 0)), 2);
        assert_eq!(asked(&event_log, (6, 0), (2, 0)), 3);
        assert_eq!(asked(&stepper_log, (9, 3), (2, 0)), 4);
        assert_eq!(asked(&stepper_log, (6, 0), (2, 0)), 4);
    }
}
