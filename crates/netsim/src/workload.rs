//! Traffic generation for the network simulator.

use rand::Rng;

use emr_core::Scenario;
use emr_mesh::Coord;

use crate::packet::Packet;
use crate::sim::PacketSink;

/// The spatial traffic patterns the saturation driver sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficPattern {
    /// Every packet picks an independent uniform destination.
    Uniform,
    /// Matrix-transpose permutation: `(x, y) → (y, x)` (square meshes
    /// only). Nodes on the diagonal fall back to a uniform destination.
    Transpose,
    /// A fraction of the traffic converges on a few hot nodes; the rest
    /// is uniform.
    Hotspot {
        /// How many hotspot destinations to draw.
        spots: usize,
        /// Probability that a packet targets a hotspot (`0.0..=1.0`).
        fraction: f64,
    },
}

/// A batch of scheduled traffic: `(injection cycle, packet)` pairs.
/// [`Workload::offered_load`] generates it; [`Packet::ensured`] admits
/// the strategy-4 subset of a batch.
///
/// # Examples
///
/// ```
/// use emr_core::{Model, Scenario};
/// use emr_fault::FaultSet;
/// use emr_mesh::Mesh;
/// use emr_netsim::{Packet, TrafficPattern, Workload};
///
/// let mesh = Mesh::square(16);
/// let scenario = Scenario::build(FaultSet::new(mesh));
/// let mut rng = rand::thread_rng();
/// let load = Workload::offered_load(&scenario, TrafficPattern::Uniform, 20, 0.01, &mut rng);
/// assert_eq!(load.len(), 20);
/// // On a fault-free mesh strategy 4 ensures every pair.
/// let view = scenario.view(Model::FaultBlock);
/// assert!(load
///     .packets()
///     .iter()
///     .all(|(_, p)| Packet::ensured(&view, p.source(), p.dest()).is_some()));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Workload {
    packets: Vec<(u64, Packet)>,
}

impl Workload {
    /// Offered-load traffic: `count` packets under `pattern`, with
    /// injection cycles scheduled from an offered load of `offered`
    /// packets per node per cycle — packet `i` is injected at cycle
    /// `⌊i / (offered × nodes)⌋`, the deterministic schedule whose
    /// long-run injection rate is exactly the offered load. Sources are
    /// uniform over non-blocked nodes; destinations follow the pattern
    /// (blocked or degenerate destinations are redrawn uniformly).
    ///
    /// # Panics
    ///
    /// Panics if `offered` is not positive, the pattern is `Transpose`
    /// on a non-square mesh or `Hotspot` with zero spots, or the mesh is
    /// too faulty to draw endpoints.
    pub fn offered_load(
        scenario: &Scenario,
        pattern: TrafficPattern,
        count: usize,
        offered: f64,
        rng: &mut impl Rng,
    ) -> Workload {
        assert!(offered > 0.0, "offered load must be positive");
        let mesh = scenario.mesh();
        let blocks = scenario.blocks();
        if matches!(pattern, TrafficPattern::Transpose) {
            assert!(
                mesh.width() == mesh.height(),
                "transpose traffic needs a square mesh"
            );
        }
        if let TrafficPattern::Hotspot { spots, .. } = pattern {
            assert!(spots > 0, "hotspot traffic needs at least one spot");
        }
        fn draw(mesh: emr_mesh::Mesh, rng: &mut impl Rng) -> Coord {
            Coord::new(
                rng.gen_range(0..mesh.width()),
                rng.gen_range(0..mesh.height()),
            )
        }
        // Hotspots are drawn once per workload, before any packet, so
        // the packet stream is identical across patterns up to the
        // destination rule.
        let spots: Vec<Coord> = if let TrafficPattern::Hotspot { spots, .. } = pattern {
            let mut drawn = Vec::with_capacity(spots);
            let mut guard = 0u32;
            while drawn.len() < spots {
                guard += 1;
                assert!(guard < 100_000, "could not draw hotspot nodes");
                let c = draw(mesh, rng);
                if !blocks.is_blocked(c) && !drawn.contains(&c) {
                    drawn.push(c);
                }
            }
            drawn
        } else {
            Vec::new()
        };
        let per_cycle = offered * mesh.node_count() as f64;
        let mut packets = Vec::with_capacity(count);
        let mut guard = 0u32;
        while packets.len() < count {
            guard += 1;
            assert!(
                guard < 100_000_000,
                "could not draw endpoint pairs (mesh too faulty?)"
            );
            let s = draw(mesh, rng);
            if blocks.is_blocked(s) {
                continue;
            }
            let d = match pattern {
                TrafficPattern::Uniform => draw(mesh, rng),
                TrafficPattern::Transpose => Coord::new(s.y, s.x),
                TrafficPattern::Hotspot { fraction, .. } => {
                    if rng.gen_range(0.0..1.0) < fraction {
                        spots[rng.gen_range(0..spots.len())]
                    } else {
                        draw(mesh, rng)
                    }
                }
            };
            // Degenerate or swallowed destinations redraw uniformly
            // (transpose diagonals, hotspot self-sends).
            let d = if s == d || blocks.is_blocked(d) {
                let mut d2 = draw(mesh, rng);
                let mut inner = 0u32;
                while d2 == s || blocks.is_blocked(d2) {
                    inner += 1;
                    assert!(inner < 100_000, "could not redraw destination");
                    d2 = draw(mesh, rng);
                }
                d2
            } else {
                d
            };
            let cycle = (packets.len() as f64 / per_cycle) as u64;
            packets.push((cycle, Packet::direct(s, d)));
        }
        Workload { packets }
    }

    /// Number of packets in the batch.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Schedules the whole batch into a simulator — either core
    /// ([`crate::NetSim`] or [`crate::EventSim`]) through [`PacketSink`].
    pub fn inject_into(&self, sim: &mut impl PacketSink) {
        for (cycle, packet) in &self.packets {
            sim.inject(packet.clone(), *cycle);
        }
    }

    /// The scheduled packets.
    pub fn packets(&self) -> &[(u64, Packet)] {
        &self.packets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::EpochedWuRouter;
    use crate::sim::NetSim;
    use emr_core::{Model, ScenarioState};
    use emr_fault::{inject, FaultSet};
    use emr_mesh::Mesh;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ensured_workload_all_delivers_minimally() {
        let mesh = Mesh::square(24);
        let mut rng = StdRng::seed_from_u64(5);
        let state = ScenarioState::new(inject::uniform(mesh, 20, &[], &mut rng));
        let scenario = state.scenario();
        let offered =
            Workload::offered_load(scenario, TrafficPattern::Uniform, 80, 3.0 / 576.0, &mut rng);
        let view = scenario.view(Model::FaultBlock);
        let admitted: Vec<(u64, Packet)> = offered
            .packets()
            .iter()
            .filter_map(|(cycle, p)| Some((*cycle, Packet::ensured(&view, p.source(), p.dest())?)))
            .collect();
        assert!(admitted.len() >= 40, "admitted {}", admitted.len());

        let mut sim = NetSim::new(mesh, EpochedWuRouter::new(state, Model::FaultBlock));
        for (cycle, p) in &admitted {
            sim.inject(p.clone(), *cycle);
        }
        let report = sim.run_dynamic_to_completion(10_000).unwrap();
        assert_eq!(
            report.delivered,
            admitted.len() as u64,
            "failed: {}",
            report.failed
        );
        // Every plan was minimal, so the aggregate stretch is exactly 1.
        assert!((report.hop_stretch() - 1.0).abs() < 1e-12);
        // Latency includes queueing, so it is at least the hop count.
        assert!(report.total_latency >= report.total_hops);
    }

    #[test]
    fn raw_workload_counts_failures_honestly() {
        let mesh = Mesh::square(20);
        let mut rng = StdRng::seed_from_u64(9);
        let state = ScenarioState::new(inject::uniform(mesh, 30, &[], &mut rng));
        let load = Workload::offered_load(
            state.scenario(),
            TrafficPattern::Uniform,
            40,
            0.01,
            &mut rng,
        );
        let mut sim = NetSim::new(mesh, EpochedWuRouter::new(state, Model::FaultBlock));
        load.inject_into(&mut sim);
        let report = sim.run_dynamic_to_completion(10_000).unwrap();
        assert_eq!(report.delivered + report.failed, 40);
        // Whatever was delivered was delivered minimally (Wu only makes
        // preferred moves).
        assert!((report.hop_stretch() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn offered_load_is_deterministic_under_seed_reuse() {
        let mesh = Mesh::square(16);
        let mut rng = StdRng::seed_from_u64(3);
        let faults = inject::uniform(mesh, 8, &[], &mut rng);
        let scenario = Scenario::build(faults);
        for pattern in [
            TrafficPattern::Uniform,
            TrafficPattern::Transpose,
            TrafficPattern::Hotspot {
                spots: 3,
                fraction: 0.4,
            },
        ] {
            let mut a = StdRng::seed_from_u64(42);
            let mut b = StdRng::seed_from_u64(42);
            let wa = Workload::offered_load(&scenario, pattern, 200, 0.05, &mut a);
            let wb = Workload::offered_load(&scenario, pattern, 200, 0.05, &mut b);
            assert_eq!(wa.packets().len(), wb.packets().len());
            for (x, y) in wa.packets().iter().zip(wb.packets()) {
                assert_eq!(x.0, y.0);
                assert_eq!(x.1.source(), y.1.source());
                assert_eq!(x.1.dest(), y.1.dest());
            }
        }
    }

    #[test]
    fn offered_load_schedule_matches_the_rate() {
        // Packet i lands at cycle floor(i / (offered * nodes)): the
        // long-run injection rate is exactly the offered load.
        let mesh = Mesh::square(10);
        let scenario = Scenario::build(FaultSet::new(mesh));
        let mut rng = StdRng::seed_from_u64(7);
        let offered = 0.02; // 2 packets per cycle on 100 nodes
        let load =
            Workload::offered_load(&scenario, TrafficPattern::Uniform, 50, offered, &mut rng);
        let per_cycle = offered * 100.0;
        for (i, (cycle, p)) in load.packets().iter().enumerate() {
            assert_eq!(*cycle, (i as f64 / per_cycle) as u64, "packet {i}");
            assert_ne!(p.source(), p.dest());
        }
        // 50 packets at 2/cycle span cycles 0..=24.
        assert_eq!(load.packets().last().unwrap().0, 24);
    }

    #[test]
    fn transpose_and_hotspot_follow_their_patterns() {
        let mesh = Mesh::square(12);
        let scenario = Scenario::build(FaultSet::new(mesh));
        let mut rng = StdRng::seed_from_u64(11);
        let t = Workload::offered_load(&scenario, TrafficPattern::Transpose, 80, 0.1, &mut rng);
        let mut transposed = 0;
        for (_, p) in t.packets() {
            let (s, d) = (p.source(), p.dest());
            if d == Coord::new(s.y, s.x) {
                transposed += 1;
            } else {
                // Only diagonal sources may deviate (uniform redraw).
                assert_eq!(s.x, s.y, "off-diagonal source must transpose");
            }
        }
        assert!(transposed > 60, "most packets follow the permutation");

        let h = Workload::offered_load(
            &scenario,
            TrafficPattern::Hotspot {
                spots: 2,
                fraction: 1.0,
            },
            80,
            0.1,
            &mut rng,
        );
        let dests: std::collections::BTreeSet<_> =
            h.packets().iter().map(|(_, p)| p.dest()).collect();
        assert!(dests.len() <= 2, "fraction 1.0 concentrates on the spots");
    }

    #[test]
    #[should_panic(expected = "hotspot traffic needs at least one spot")]
    fn hotspot_without_spots_is_rejected() {
        let scenario = Scenario::build(FaultSet::new(Mesh::square(8)));
        let mut rng = StdRng::seed_from_u64(1);
        let pattern = TrafficPattern::Hotspot {
            spots: 0,
            fraction: 0.5,
        };
        Workload::offered_load(&scenario, pattern, 10, 0.1, &mut rng);
    }

    #[test]
    fn clean_mesh_admits_every_packet() {
        let mesh = Mesh::square(8);
        let scenario = Scenario::build(FaultSet::new(mesh));
        let mut rng = StdRng::seed_from_u64(1);
        let load =
            Workload::offered_load(&scenario, TrafficPattern::Uniform, 10, 1.0 / 64.0, &mut rng);
        assert_eq!(load.len(), 10);
        let view = scenario.view(Model::Mcc);
        for (_, p) in load.packets() {
            let admitted = Packet::ensured(&view, p.source(), p.dest()).expect("ensured");
            assert_eq!((admitted.source(), admitted.dest()), (p.source(), p.dest()));
        }
    }
}
