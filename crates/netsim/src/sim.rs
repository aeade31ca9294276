use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use emr_core::route::RouteError;
use emr_mesh::{Coord, Direction, Grid, Mesh};

use crate::dynamic::DynamicRouter;
use crate::packet::{Packet, PacketId};
use crate::router::Router;

/// Why a simulation run could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// Undelivered packets remained after the cycle budget.
    CycleBudgetExceeded {
        /// Packets still in flight when the budget ran out.
        in_flight: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CycleBudgetExceeded { in_flight } => {
                write!(
                    f,
                    "cycle budget exceeded with {in_flight} packets in flight"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Delivery statistics of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimReport {
    /// Packets that reached their destinations.
    pub delivered: u64,
    /// Packets dropped because their router returned an error.
    pub failed: u64,
    /// Total hops over all delivered packets.
    pub total_hops: u64,
    /// Total cycles from injection to delivery (includes queueing).
    pub total_latency: u64,
    /// Sum of Manhattan distances of delivered packets (the zero-load
    /// lower bound on both hops and latency).
    pub total_manhattan: u64,
    /// The largest per-node queue depth observed.
    pub peak_queue: usize,
    /// Cycles simulated.
    pub cycles: u64,
    /// Node failures applied mid-run (accepted by the router).
    pub fault_events: u64,
    /// Packets lost to a failure: caught on a node swallowed by a fault,
    /// or scheduled from a source that failed first. Included in `failed`.
    pub fault_drops: u64,
    /// In-flight packets whose next hop changed when a failure landed.
    pub rerouted: u64,
}

impl SimReport {
    /// Mean delivered latency in cycles; 0 when nothing was delivered.
    pub fn mean_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.delivered as f64
        }
    }

    /// Mean hops per delivered packet.
    pub fn mean_hops(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.delivered as f64
        }
    }

    /// Hop stretch: delivered hops over the Manhattan lower bound
    /// (1.0 = every packet took a minimal route).
    pub fn hop_stretch(&self) -> f64 {
        if self.total_manhattan == 0 {
            1.0
        } else {
            self.total_hops as f64 / self.total_manhattan as f64
        }
    }
}

/// A destination packets can be scheduled into — implemented by both the
/// cycle-accurate [`NetSim`] stepper and the event-driven
/// [`crate::EventSim`] core, so workload generators can drive either.
pub trait PacketSink {
    /// Schedules `packet` for injection at `cycle` (clamped to now).
    ///
    /// Returns the id assigned to the packet; ids increase monotonically
    /// in injection-call order.
    fn inject(&mut self, packet: Packet, cycle: u64) -> PacketId;
}

/// One packet in flight.
#[derive(Debug)]
struct Flight {
    packet: Packet,
    at: Coord,
    leg_source: Coord,
    injected_at: u64,
    hops: u64,
}

/// The cycle-driven store-and-forward simulator.
///
/// Every node keeps a virtual-output-queue of resident packets; each cycle
/// every resident packet requests a directed link from its router, each
/// link grants its oldest requester, granted packets advance one hop.
/// Links are the only contended resource (buffers are unbounded); minimal
/// routing plus store-and-forward means no deadlock, so every run either
/// delivers or fails packets in bounded time.
#[derive(Debug)]
pub struct NetSim<R: Router> {
    mesh: Mesh,
    router: R,
    /// Resident packets per node, oldest first.
    resident: Grid<Vec<PacketId>>,
    flights: BTreeMap<PacketId, Flight>,
    /// Packets scheduled for future injection: (cycle, id, packet).
    pending: VecDeque<(u64, PacketId, Packet)>,
    /// Node failures scheduled for future cycles: (cycle, node).
    pending_faults: VecDeque<(u64, Coord)>,
    next_id: PacketId,
    cycle: u64,
    report: SimReport,
}

impl<R: Router> NetSim<R> {
    /// Creates an idle network.
    pub fn new(mesh: Mesh, router: R) -> NetSim<R> {
        NetSim {
            mesh,
            router,
            resident: Grid::new(mesh, Vec::new()),
            flights: BTreeMap::new(),
            pending: VecDeque::new(),
            pending_faults: VecDeque::new(),
            next_id: 0,
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
        self.flights.len()
    }

    /// Schedules `packet` for injection at `cycle` (clamped to now).
    ///
    /// # Panics
    ///
    /// Panics if the packet's source is outside the mesh.
    pub fn inject(&mut self, packet: Packet, cycle: u64) -> PacketId {
        assert!(
            self.mesh.contains(packet.source()),
            "source {} outside mesh",
            packet.source()
        );
        let id = self.next_id;
        self.next_id += 1;
        // Keep the queue sorted by injection cycle, ties in call order.
        // Callers inject in nondecreasing order in practice, so the
        // search for the last entry at or before `at` runs from the back
        // and usually stops at once.
        let at = cycle.max(self.cycle);
        let pos = self
            .pending
            .iter()
            .rposition(|&(c, _, _)| c <= at)
            .map_or(0, |i| i + 1);
        self.pending.insert(pos, (at, id, packet));
        id
    }

    /// Advances one cycle: inject due packets, route, arbitrate links,
    /// move granted packets, deliver arrivals.
    pub fn step(&mut self) {
        // Inject packets due this cycle.
        while let Some(&(when, _, _)) = self.pending.front() {
            if when > self.cycle {
                break;
            }
            let Some((_, id, packet)) = self.pending.pop_front() else {
                break;
            };
            let at = packet.source();
            let leg_source = packet.source();
            self.resident[at].push(id);
            self.flights.insert(
                id,
                Flight {
                    packet,
                    at,
                    leg_source,
                    injected_at: self.cycle,
                    hops: 0,
                },
            );
            // Source == destination delivers instantly.
            self.try_deliver(id);
        }

        // Occupancy peaks right after injection, before any packet moves.
        let peak = self
            .resident
            .iter()
            .map(|(_, q)| q.len())
            .max()
            .unwrap_or(0);
        self.report.peak_queue = self.report.peak_queue.max(peak);

        // Routing requests: (directed link) → oldest requesting packet.
        let mut grants: BTreeMap<(Coord, Coord), PacketId> = BTreeMap::new();
        let mut drops: Vec<PacketId> = Vec::new();
        for (&id, flight) in &self.flights {
            let Some(target) = flight.packet.current_target() else {
                // A target-less flight is already delivered; it cannot
                // request a link, and dropping it keeps the map finite.
                drops.push(id);
                continue;
            };
            match self.router.next_hop(flight.leg_source, target, flight.at) {
                Ok(dir) => {
                    let link = (flight.at, flight.at.step(dir));
                    // BTreeMap iteration is id-ascending, so the first
                    // requester of a link is the oldest.
                    grants.entry(link).or_insert(id);
                }
                Err(RouteError::Stuck(_) | RouteError::Conflict(_)) => drops.push(id),
                Err(_) => drops.push(id),
            }
        }
        for id in drops {
            self.remove_flight(id);
            self.report.failed += 1;
        }

        // Move granted packets.
        let moves: Vec<(PacketId, Coord, Coord)> = grants
            .into_iter()
            .map(|((from, to), id)| (id, from, to))
            .collect();
        for (id, from, to) in moves {
            let Some(flight) = self.flights.get_mut(&id) else {
                continue; // dropped above
            };
            flight.at = to;
            flight.hops += 1;
            self.resident[from].retain(|&p| p != id);
            self.resident[to].push(id);
            self.try_deliver(id);
        }

        self.cycle += 1;
        self.report.cycles = self.cycle;
    }

    /// The single run loop both completion drivers share, parameterized
    /// over the per-cycle step (plain [`NetSim::step`] or the
    /// fault-absorbing [`NetSim::step_dynamic`]). The loop also waits on
    /// `pending_faults`, which is always empty for static routers
    /// (scheduling faults requires [`DynamicRouter`]), so the static
    /// path is unchanged — pinned by `static_run_is_unchanged_by_dynamic_fields`.
    fn run_with(&mut self, max_cycles: u64, step: fn(&mut Self)) -> Result<SimReport, SimError> {
        while !self.flights.is_empty()
            || !self.pending.is_empty()
            || !self.pending_faults.is_empty()
        {
            if self.cycle >= max_cycles {
                return Err(SimError::CycleBudgetExceeded {
                    in_flight: self.flights.len() + self.pending.len(),
                });
            }
            step(self);
        }
        Ok(self.report)
    }

    /// Runs until every packet (scheduled and in flight) is resolved or
    /// the cycle budget is exhausted.
    ///
    /// # Errors
    ///
    /// [`SimError::CycleBudgetExceeded`] if traffic remains after
    /// `max_cycles`.
    pub fn run_to_completion(&mut self, max_cycles: u64) -> Result<SimReport, SimError> {
        self.run_with(max_cycles, Self::step)
    }

    /// The statistics so far.
    pub fn report(&self) -> SimReport {
        self.report
    }

    /// Checks whether `id` has reached its current waypoint/destination.
    fn try_deliver(&mut self, id: PacketId) {
        let Some(flight) = self.flights.get_mut(&id) else {
            return;
        };
        let Some(target) = flight.packet.current_target() else {
            return;
        };
        if flight.at != target {
            return;
        }
        if flight.packet.arrive_at_target() {
            // Final destination: a packet that moved arrives at the end of
            // the current cycle; one delivered at its source costs zero.
            let arrival = if flight.hops == 0 {
                flight.injected_at
            } else {
                self.cycle + 1
            };
            self.report.delivered += 1;
            self.report.total_hops += flight.hops;
            self.report.total_latency += arrival - flight.injected_at;
            self.report.total_manhattan +=
                u64::from(flight.packet.source().manhattan(flight.packet.dest()));
            self.remove_flight(id);
        } else {
            // Start the next leg from here.
            flight.leg_source = flight.at;
        }
    }

    fn remove_flight(&mut self, id: PacketId) {
        if let Some(flight) = self.flights.remove(&id) {
            self.resident[flight.at].retain(|&p| p != id);
        }
    }
}

impl<R: DynamicRouter> NetSim<R> {
    /// Schedules node `c` to fail at `cycle` (clamped to now). Failures
    /// take effect at the *start* of their cycle, before injection and
    /// routing — see [`NetSim::step_dynamic`].
    ///
    /// # Panics
    ///
    /// Panics if `c` lies outside the mesh.
    pub fn schedule_fault(&mut self, c: Coord, cycle: u64) {
        assert!(self.mesh.contains(c), "fault {c} outside mesh");
        let at = cycle.max(self.cycle);
        // Sorted by cycle, ties in call order; searched from the back
        // like `inject`.
        let pos = self
            .pending_faults
            .iter()
            .rposition(|&(w, _)| w <= at)
            .map_or(0, |i| i + 1);
        self.pending_faults.insert(pos, (at, c));
    }

    /// Applies every failure due this cycle: the router absorbs the
    /// faults, packets caught on swallowed nodes are dropped (counted in
    /// both `failed` and `fault_drops`), not-yet-injected packets whose
    /// source was swallowed likewise, and every surviving in-flight packet
    /// re-evaluates its next hop against the repaired information
    /// (`rerouted` counts the ones whose hop actually changed).
    fn apply_due_faults(&mut self) {
        if !matches!(self.pending_faults.front(), Some(&(w, _)) if w <= self.cycle) {
            return;
        }
        // Snapshot each flight's pre-fault hop choice.
        let mut before: BTreeMap<PacketId, Direction> = BTreeMap::new();
        for (&id, flight) in &self.flights {
            let Some(target) = flight.packet.current_target() else {
                continue;
            };
            if let Ok(dir) = self.router.next_hop(flight.leg_source, target, flight.at) {
                before.insert(id, dir);
            }
        }
        while let Some(&(when, c)) = self.pending_faults.front() {
            if when > self.cycle {
                break;
            }
            self.pending_faults.pop_front();
            self.router.fail_node(c);
            self.report.fault_events += 1;
        }
        // Packets caught on nodes the fault swallowed are lost.
        let dead: Vec<PacketId> = self
            .flights
            .iter()
            .filter(|(_, f)| self.router.is_node_blocked(f.at))
            .map(|(&id, _)| id)
            .collect();
        for id in dead {
            self.remove_flight(id);
            self.report.failed += 1;
            self.report.fault_drops += 1;
        }
        let (router, report) = (&self.router, &mut self.report);
        self.pending.retain(|(_, _, p)| {
            if router.is_node_blocked(p.source()) {
                report.failed += 1;
                report.fault_drops += 1;
                false
            } else {
                true
            }
        });
        // Survivors re-evaluate against the repaired information.
        for (&id, flight) in &self.flights {
            let Some(&old) = before.get(&id) else {
                continue;
            };
            let Some(target) = flight.packet.current_target() else {
                continue;
            };
            if let Ok(new) = self.router.next_hop(flight.leg_source, target, flight.at) {
                if new != old {
                    self.report.rerouted += 1;
                }
            }
        }
    }

    /// One cycle with dynamic faults: failures due this cycle land first,
    /// then the ordinary [`NetSim::step`] runs (injection, routing,
    /// arbitration, movement).
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
}

impl<R: Router> PacketSink for NetSim<R> {
    fn inject(&mut self, packet: Packet, cycle: u64) -> PacketId {
        NetSim::inject(self, packet, cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::XyRouter;
    use crate::router::WuRouter;
    use emr_core::{Model, Scenario};
    use emr_fault::FaultSet;

    fn scenario(coords: &[(i32, i32)]) -> Scenario {
        let mesh = Mesh::square(10);
        Scenario::build(FaultSet::from_coords(
            mesh,
            coords.iter().map(|&c| Coord::from(c)),
        ))
    }

    #[test]
    fn single_packet_takes_zero_load_latency() {
        let sc = scenario(&[]);
        let r = XyRouter::new(sc.mesh(), sc.blocks());
        let mut sim = NetSim::new(sc.mesh(), r);
        sim.inject(Packet::direct(Coord::new(1, 1), Coord::new(6, 4)), 0);
        let report = sim.run_to_completion(100).unwrap();
        assert_eq!(report.delivered, 1);
        assert_eq!(report.total_hops, 8);
        assert_eq!(report.total_latency, 8);
        assert_eq!(report.hop_stretch(), 1.0);
    }

    #[test]
    fn contention_serializes_on_a_shared_link() {
        // Two packets from the same source, same destination, same cycle:
        // the second waits one cycle at the source.
        let sc = scenario(&[]);
        let r = XyRouter::new(sc.mesh(), sc.blocks());
        let mut sim = NetSim::new(sc.mesh(), r);
        sim.inject(Packet::direct(Coord::new(0, 0), Coord::new(4, 0)), 0);
        sim.inject(Packet::direct(Coord::new(0, 0), Coord::new(4, 0)), 0);
        let report = sim.run_to_completion(100).unwrap();
        assert_eq!(report.delivered, 2);
        assert_eq!(report.total_hops, 8);
        // One packet: 4 cycles; the other waits once behind it: 5.
        assert_eq!(report.total_latency, 9);
        assert!(report.peak_queue >= 2);
    }

    #[test]
    fn xy_traffic_fails_on_blocks_wu_survives() {
        let sc = scenario(&[(5, 0), (5, 1), (5, 2)]);
        let view = sc.view(Model::FaultBlock);
        let boundary = sc.boundary_map(Model::FaultBlock);
        let s = Coord::new(1, 1);
        let d = Coord::new(9, 5);

        let mut xy = NetSim::new(sc.mesh(), XyRouter::new(sc.mesh(), sc.blocks()));
        xy.inject(Packet::direct(s, d), 0);
        let xy_report = xy.run_to_completion(100).unwrap();
        assert_eq!(xy_report.failed, 1);
        assert_eq!(xy_report.delivered, 0);

        let mut wu = NetSim::new(sc.mesh(), WuRouter::new(&view, &boundary));
        wu.inject(Packet::direct(s, d), 0);
        let wu_report = wu.run_to_completion(100).unwrap();
        assert_eq!(wu_report.delivered, 1);
        assert_eq!(wu_report.hop_stretch(), 1.0);
    }

    #[test]
    fn two_phase_packet_visits_waypoint() {
        let sc = scenario(&[]);
        let view = sc.view(Model::FaultBlock);
        let boundary = sc.boundary_map(Model::FaultBlock);
        let mut sim = NetSim::new(sc.mesh(), WuRouter::new(&view, &boundary));
        let s = Coord::new(0, 0);
        let d = Coord::new(6, 6);
        let w = Coord::new(4, 0);
        sim.inject(Packet::with_plan(s, d, &emr_core::RoutePlan::ViaAxis(w)), 0);
        let report = sim.run_to_completion(100).unwrap();
        assert_eq!(report.delivered, 1);
        // Axis waypoint is on a minimal path: stretch stays 1.
        assert_eq!(report.total_hops, u64::from(s.manhattan(d)));
    }

    #[test]
    fn staggered_injection_and_budget() {
        let sc = scenario(&[]);
        let r = XyRouter::new(sc.mesh(), sc.blocks());
        let mut sim = NetSim::new(sc.mesh(), r);
        for i in 0..5u64 {
            sim.inject(Packet::direct(Coord::new(0, 0), Coord::new(9, 9)), i * 2);
        }
        assert!(matches!(
            sim.run_to_completion(3),
            Err(SimError::CycleBudgetExceeded { .. })
        ));
        let report = sim.run_to_completion(1000).unwrap();
        assert_eq!(report.delivered + report.failed, 5);
        assert_eq!(report.failed, 0);
    }

    #[test]
    fn source_equals_destination_delivers_immediately() {
        let sc = scenario(&[]);
        let mut sim = NetSim::new(sc.mesh(), XyRouter::new(sc.mesh(), sc.blocks()));
        sim.inject(Packet::direct(Coord::new(3, 3), Coord::new(3, 3)), 0);
        let report = sim.run_to_completion(10).unwrap();
        assert_eq!(report.delivered, 1);
        assert_eq!(report.total_hops, 0);
    }

    use crate::dynamic::EpochedWuRouter;
    use emr_core::ScenarioState;
    use emr_fault::FaultSet as FS;

    /// Deterministic adaptive-XY dynamic router for fault-timing tests:
    /// prefers the X hop, falls back to the Y hop when X is blocked.
    struct AdaptiveXy {
        mesh: Mesh,
        blocked: Grid<bool>,
    }

    impl AdaptiveXy {
        fn new(mesh: Mesh) -> AdaptiveXy {
            AdaptiveXy {
                mesh,
                blocked: Grid::new(mesh, false),
            }
        }

        fn open(&self, c: Coord) -> bool {
            self.mesh.contains(c) && !self.blocked[c]
        }
    }

    impl Router for AdaptiveXy {
        fn next_hop(
            &self,
            _leg_source: Coord,
            t: Coord,
            u: Coord,
        ) -> Result<Direction, RouteError> {
            let mut dirs = Vec::new();
            if t.x > u.x {
                dirs.push(Direction::East);
            } else if t.x < u.x {
                dirs.push(Direction::West);
            }
            if t.y > u.y {
                dirs.push(Direction::North);
            } else if t.y < u.y {
                dirs.push(Direction::South);
            }
            dirs.into_iter()
                .find(|&d| self.open(u.step(d)))
                .ok_or(RouteError::Stuck(u))
        }
    }

    impl DynamicRouter for AdaptiveXy {
        fn fail_node(&mut self, c: Coord) {
            self.blocked[c] = true;
        }

        fn is_node_blocked(&self, c: Coord) -> bool {
            self.blocked[c]
        }
    }

    #[test]
    fn fault_drops_packet_on_its_node() {
        // The packet sits at (3,5) at the start of cycle 3 — exactly when
        // that node fails.
        let mesh = Mesh::square(10);
        let mut sim = NetSim::new(mesh, AdaptiveXy::new(mesh));
        sim.inject(Packet::direct(Coord::new(0, 5), Coord::new(9, 5)), 0);
        sim.schedule_fault(Coord::new(3, 5), 3);
        let report = sim.run_dynamic_to_completion(100).unwrap();
        assert_eq!(report.fault_events, 1);
        assert_eq!(report.fault_drops, 1);
        assert_eq!(report.failed, 1);
        assert_eq!(report.delivered, 0);
    }

    #[test]
    fn fault_ahead_reroutes_midflight() {
        // At the start of cycle 2 the packet is at (2,0) about to go East;
        // (3,0) fails that instant, so it diverts North and still delivers
        // minimally.
        let mesh = Mesh::square(10);
        let mut sim = NetSim::new(mesh, AdaptiveXy::new(mesh));
        sim.inject(Packet::direct(Coord::new(0, 0), Coord::new(9, 3)), 0);
        sim.schedule_fault(Coord::new(3, 0), 2);
        let report = sim.run_dynamic_to_completion(100).unwrap();
        assert_eq!(report.fault_events, 1);
        assert_eq!(report.rerouted, 1);
        assert_eq!(report.fault_drops, 0);
        assert_eq!(report.delivered, 1);
        assert_eq!(report.hop_stretch(), 1.0);
    }

    #[test]
    fn scheduled_packet_from_failed_source_is_dropped() {
        let mesh = Mesh::square(10);
        let mut sim = NetSim::new(mesh, AdaptiveXy::new(mesh));
        sim.schedule_fault(Coord::new(4, 4), 1);
        sim.inject(Packet::direct(Coord::new(4, 4), Coord::new(8, 4)), 5);
        let report = sim.run_dynamic_to_completion(100).unwrap();
        assert_eq!(report.fault_drops, 1);
        assert_eq!(report.failed, 1);
        assert_eq!(report.delivered, 0);
    }

    #[test]
    fn static_run_is_unchanged_by_dynamic_fields() {
        // A dynamic-capable sim with no scheduled faults must report
        // exactly what the static path reports.
        let mesh = Mesh::square(10);
        let mut sim = NetSim::new(mesh, AdaptiveXy::new(mesh));
        sim.inject(Packet::direct(Coord::new(1, 1), Coord::new(6, 4)), 0);
        let report = sim.run_dynamic_to_completion(100).unwrap();
        assert_eq!(report.delivered, 1);
        assert_eq!(report.total_hops, 8);
        assert_eq!(report.fault_events, 0);
        assert_eq!(report.rerouted, 0);
    }

    #[test]
    fn epoched_wu_router_absorbs_midflight_fault() {
        // A node on the packet's band fails mid-flight; the router repairs
        // its epoch state and the packet still delivers.
        let mesh = Mesh::square(12);
        let router = EpochedWuRouter::new(ScenarioState::new(FS::new(mesh)), Model::FaultBlock);
        let mut sim = NetSim::new(mesh, router);
        let (s, d) = (Coord::new(1, 4), Coord::new(9, 8));
        sim.inject(Packet::direct(s, d), 0);
        sim.schedule_fault(Coord::new(5, 4), 2);
        sim.schedule_fault(Coord::new(5, 5), 2);
        let report = sim.run_dynamic_to_completion(200).unwrap();
        assert_eq!(report.fault_events, 2);
        assert_eq!(report.failed, 0);
        assert_eq!(report.delivered, 1);
        assert!(
            report.total_hops >= u64::from(s.manhattan(d)),
            "hops below the Manhattan bound"
        );
    }
}
