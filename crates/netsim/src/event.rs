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
//!   packet-id order, which is age order) — `O(active)` per cycle where
//!   the stepper pays `O(nodes)` for its queue scan plus per-cycle
//!   B-tree churn for grants,
//! * link arbitration runs on **bit-packed per-direction occupancy
//!   words** ([`crate::links::LinkPlanes`]): requests set bits, the
//!   grant phase decodes only the dirtied words, and the reset is
//!   `O(touched words)`,
//! * per-link **virtual channels** with deterministic round-robin
//!   allocation ([`crate::vc::VcTable`]); with `vcs == 1` (the default)
//!   allocation degenerates to the stepper's oldest-packet-first rule,
//! * queue-depth peaks are maintained **incrementally**: only nodes
//!   whose occupancy *rose* since the last sample (arrivals,
//!   injections) can set a new peak, so sampling is `O(increments)`.
//!
//! Faults scheduled through [`EventSim::schedule_fault`] ride the same
//! calendar and land with the stepper's ordering: at the start of their
//! cycle, before injection and routing.

use std::collections::BTreeMap;

use emr_mesh::{Coord, Direction, Mesh};

use crate::dynamic::DynamicRouter;
use crate::links::LinkPlanes;
use crate::packet::{Packet, PacketId};
use crate::router::Router;
use crate::sim::{PacketSink, SimError, SimReport};
use crate::vc::VcTable;

/// One in-flight packet in the event core's flight slab.
#[derive(Debug)]
struct EvFlight {
    id: PacketId,
    packet: Packet,
    at: Coord,
    leg_source: Coord,
    injected_at: u64,
    hops: u64,
    /// Resolved this cycle (delivered or failed); reaped at cycle end.
    dead: bool,
}

/// Everything scheduled for one future cycle.
#[derive(Debug, Default)]
struct CalSlot {
    /// Packets injected this cycle, in id (schedule-call) order.
    inject: Vec<(PacketId, Packet)>,
    /// Node failures landing this cycle, in schedule-call order.
    faults: Vec<Coord>,
}

/// The event-driven simulator core. Drop-in for [`crate::NetSim`]
/// (same construction, injection, fault-scheduling, and run API) with
/// identical reports at `vcs == 1`.
#[derive(Debug)]
pub struct EventSim<R: Router> {
    mesh: Mesh,
    router: R,
    calendar: BTreeMap<u64, CalSlot>,
    /// Alive flights in ascending id order (injections append, reaping
    /// preserves order).
    active: Vec<EvFlight>,
    /// Resident-packet count per node (mesh index).
    counts: Vec<u32>,
    /// Nodes whose count rose since the last peak sample.
    touched: Vec<usize>,
    planes: LinkPlanes,
    table: VcTable,
    /// Scratch for draining requested lanes.
    lanes: Vec<(Direction, Coord)>,
    next_id: PacketId,
    cycle: u64,
    report: SimReport,
}

impl<R: Router> EventSim<R> {
    /// Creates an idle network with a single virtual channel per link
    /// (stepper-equivalent arbitration).
    pub fn new(mesh: Mesh, router: R) -> EventSim<R> {
        EventSim::with_vcs(mesh, router, 1)
    }

    /// Creates an idle network with `vcs` virtual channels per link
    /// (clamped to `1..=64`). Multi-channel runs arbitrate by round
    /// robin across channels and are *not* stepper-equivalent.
    pub fn with_vcs(mesh: Mesh, router: R, vcs: usize) -> EventSim<R> {
        EventSim {
            mesh,
            router,
            calendar: BTreeMap::new(),
            active: Vec::new(),
            counts: vec![0; mesh.node_count()],
            touched: Vec::new(),
            planes: LinkPlanes::new(mesh),
            table: VcTable::new(mesh, vcs),
            lanes: Vec::new(),
            next_id: 0,
            cycle: 0,
            report: SimReport::default(),
        }
    }

    /// The current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Virtual channels per link.
    pub fn vcs(&self) -> usize {
        self.table.vcs()
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
    pub fn inject(&mut self, packet: Packet, cycle: u64) -> PacketId {
        assert!(
            self.mesh.contains(packet.source()),
            "source {} outside mesh",
            packet.source()
        );
        let id = self.next_id;
        self.next_id += 1;
        let at = cycle.max(self.cycle);
        self.calendar
            .entry(at)
            .or_default()
            .inject
            .push((id, packet));
        id
    }

    /// Advances one cycle: inject due packets, sample queue peaks, route
    /// all flights, arbitrate links, move winners, deliver arrivals.
    pub fn step(&mut self) {
        self.inject_due();
        self.sample_peak();
        self.route_and_request();
        self.grant_and_move();
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
            for (id, packet) in slot.inject {
                let at = packet.source();
                let n = self.mesh.index_of(at);
                self.counts[n] += 1;
                self.touched.push(n);
                self.active.push(EvFlight {
                    id,
                    at,
                    leg_source: at,
                    injected_at: self.cycle,
                    hops: 0,
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

    /// Every alive flight asks its router for a hop and requests the
    /// corresponding `(link, vc)` lane, in id (age) order.
    fn route_and_request(&mut self) {
        let stamp = self.cycle + 1;
        let vcs = self.table.vcs();
        for i in 0..self.active.len() {
            if self.active[i].dead {
                continue;
            }
            let (leg_source, at, id) = {
                let f = &self.active[i];
                (f.leg_source, f.at, f.id)
            };
            let Some(target) = self.active[i].packet.current_target() else {
                // A target-less flight is already delivered; dropping it
                // keeps the slab finite (mirrors the stepper).
                self.fail_flight(i);
                continue;
            };
            match self.router.next_hop_vc(leg_source, target, at, id, vcs) {
                Ok((dir, vc)) => {
                    self.planes.mark(dir, at);
                    self.table.request(at, dir, vc, i as u64, stamp);
                }
                Err(_) => self.fail_flight(i),
            }
        }
    }

    /// Decodes the dirtied occupancy words, grants each requested link
    /// to its round-robin winner, and moves the winners one hop.
    fn grant_and_move(&mut self) {
        let stamp = self.cycle + 1;
        let mut lanes = std::mem::take(&mut self.lanes);
        self.planes.drain_into(&mut lanes);
        for &(dir, from) in &lanes {
            let Some(holder) = self.table.grant(from, dir, stamp) else {
                continue;
            };
            let i = holder as usize;
            let to = from.step(dir);
            self.counts[self.mesh.index_of(from)] -= 1;
            let nt = self.mesh.index_of(to);
            self.counts[nt] += 1;
            self.touched.push(nt);
            {
                let f = &mut self.active[i];
                f.at = to;
                f.hops += 1;
            }
            self.try_deliver(i);
        }
        self.lanes = lanes;
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
    fn inject(&mut self, packet: Packet, cycle: u64) -> PacketId {
        EventSim::inject(self, packet, cycle)
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
        // Snapshot each alive flight's pre-fault hop choice.
        let mut before: Vec<(usize, Direction)> = Vec::new();
        for (i, f) in self.active.iter().enumerate() {
            if f.dead {
                continue;
            }
            let Some(target) = f.packet.current_target() else {
                continue;
            };
            if let Ok(dir) = self.router.next_hop(f.leg_source, target, f.at) {
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
            slot.inject.retain(|(_, p)| {
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
        // Survivors re-evaluate against the repaired information.
        for (i, old) in before {
            let f = &self.active[i];
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
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveRouter;
    use crate::dynamic::EpochedWuRouter;
    use crate::router::WuRouter;
    use crate::sim::NetSim;
    use crate::workload::{TrafficPattern, Workload};
    use emr_core::{Model, Scenario, ScenarioState};
    use emr_fault::{inject, FaultSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn event_core_matches_stepper_on_seeded_traffic() {
        for seed in 0..8u64 {
            let mesh = Mesh::square(16);
            let mut rng = StdRng::seed_from_u64(seed);
            let faults = inject::uniform(mesh, 12, &[], &mut rng);
            let scenario = Scenario::build(faults);
            let load = Workload::uniform_raw(&scenario, 60, 3, &mut rng);
            let view = scenario.view(Model::FaultBlock);
            let boundary = scenario.boundary_map(Model::FaultBlock);

            let mut stepper = NetSim::new(mesh, WuRouter::new(&view, &boundary));
            let mut event = EventSim::new(mesh, WuRouter::new(&view, &boundary));
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
        let boundary = scenario.boundary_map(Model::FaultBlock);
        let mut stepper = NetSim::new(mesh, WuRouter::new(&view, &boundary));
        let mut event = EventSim::new(mesh, WuRouter::new(&view, &boundary));
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
        let boundary = scenario.boundary_map(Model::FaultBlock);
        let mut stepper = NetSim::new(mesh, WuRouter::new(&view, &boundary));
        let mut event = EventSim::new(mesh, WuRouter::new(&view, &boundary));
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
    fn budget_error_matches_stepper() {
        let mesh = Mesh::square(10);
        let scenario = Scenario::build(FaultSet::new(mesh));
        let view = scenario.view(Model::FaultBlock);
        let boundary = scenario.boundary_map(Model::FaultBlock);
        let mut stepper = NetSim::new(mesh, WuRouter::new(&view, &boundary));
        let mut event = EventSim::new(mesh, WuRouter::new(&view, &boundary));
        for cycle in [0u64, 2, 40] {
            let p = Packet::direct(Coord::new(0, 0), Coord::new(9, 0));
            stepper.inject(p.clone(), cycle);
            EventSim::inject(&mut event, p, cycle);
        }
        assert_eq!(stepper.run_to_completion(20), event.run_to_completion(20));
    }

    #[test]
    fn multi_vc_run_delivers_under_contention() {
        // Not stepper-equivalent (vcs > 1); the multi-channel substrate
        // must still deliver everything on a fault-free mesh.
        let mesh = Mesh::square(12);
        let router = AdaptiveRouter::fault_free(mesh);
        let mut sim = EventSim::with_vcs(mesh, router, 4);
        assert_eq!(sim.vcs(), 4);
        for i in 0..40u64 {
            let s = Coord::new(i32::try_from(i % 12).unwrap_or(0), 0);
            let d = Coord::new(11 - s.x, 11);
            EventSim::inject(&mut sim, Packet::direct(s, d), i / 12);
        }
        let report = sim.run_to_completion(10_000).unwrap();
        assert_eq!(report.delivered, 40);
        assert_eq!(report.failed, 0);
    }
}
