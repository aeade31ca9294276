use serde::{Deserialize, Serialize};

use emr_core::{conditions, ModelView, RoutePlan};
use emr_mesh::Coord;

/// One packet: a source, a destination, and the waypoint legs realizing
/// its route plan (two-phase plans visit their witness node first).
///
/// # Examples
///
/// ```
/// use emr_core::RoutePlan;
/// use emr_mesh::Coord;
/// use emr_netsim::Packet;
///
/// let p = Packet::with_plan(
///     Coord::new(0, 0),
///     Coord::new(5, 5),
///     &RoutePlan::ViaAxis(Coord::new(3, 0)),
/// );
/// assert_eq!(p.current_target(), Some(Coord::new(3, 0)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    source: Coord,
    dest: Coord,
    /// The witness node still to visit before `dest`, if any.
    waypoint: Option<Coord>,
    /// The legs still to travel: 2 before the waypoint, 1 on the final
    /// leg, 0 once delivered.
    legs: u8,
}

impl Packet {
    /// A packet routed directly (single phase).
    pub fn direct(source: Coord, dest: Coord) -> Packet {
        Packet {
            source,
            dest,
            waypoint: None,
            legs: 1,
        }
    }

    /// A packet following a [`RoutePlan`] witness: two-phase plans insert
    /// the witness node as an intermediate waypoint.
    pub fn with_plan(source: Coord, dest: Coord, plan: &RoutePlan) -> Packet {
        let waypoint = match *plan {
            RoutePlan::Direct => None,
            RoutePlan::ViaNeighbor(w) | RoutePlan::ViaAxis(w) | RoutePlan::ViaPivot(w) => {
                Some(w).filter(|&w| w != source && w != dest)
            }
        };
        Packet {
            source,
            dest,
            waypoint,
            legs: 1 + u8::from(waypoint.is_some()),
        }
    }

    /// Strategy-4 admission: the packet following the witness plan when
    /// [`conditions::strategy4`] ensures a minimal route from `source` to
    /// `dest` under `view`, else `None` (an unusable endpoint or a
    /// sub-minimal guarantee included), leaving that pair to a non-minimal
    /// fallback outside the paper's scope.
    pub fn ensured(view: &ModelView<'_>, source: Coord, dest: Coord) -> Option<Packet> {
        let ensured = conditions::strategy4(view, source, dest)?;
        ensured
            .is_minimal()
            .then(|| Packet::with_plan(source, dest, &ensured.plan()))
    }

    /// Where the packet was injected.
    pub fn source(&self) -> Coord {
        self.source
    }

    /// Its final destination.
    pub fn dest(&self) -> Coord {
        self.dest
    }

    /// The waypoint the packet is currently heading for (`None` once every
    /// leg is consumed).
    pub fn current_target(&self) -> Option<Coord> {
        (self.legs > 0).then(|| self.waypoint.unwrap_or(self.dest))
    }

    /// Marks arrival at the current waypoint; returns `true` when that was
    /// the final destination.
    pub fn arrive_at_target(&mut self) -> bool {
        self.waypoint = None;
        self.legs = self.legs.saturating_sub(1);
        self.legs == 0
    }

    /// The legs still to travel, counting the current one: 2 for a
    /// two-phase packet before its waypoint, 1 on its final leg, 0 once
    /// delivered.
    pub fn leg_count(&self) -> usize {
        usize::from(self.legs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_packet_has_one_leg() {
        let p = Packet::direct(Coord::new(0, 0), Coord::new(3, 4));
        assert_eq!(p.leg_count(), 1);
        assert_eq!(p.current_target(), Some(Coord::new(3, 4)));
    }

    #[test]
    fn two_phase_plan_inserts_waypoint() {
        let mut p = Packet::with_plan(
            Coord::new(0, 0),
            Coord::new(5, 5),
            &RoutePlan::ViaPivot(Coord::new(2, 3)),
        );
        assert_eq!(p.leg_count(), 2);
        assert_eq!(p.current_target(), Some(Coord::new(2, 3)));
        assert!(!p.arrive_at_target());
        assert_eq!(p.current_target(), Some(Coord::new(5, 5)));
        assert!(p.arrive_at_target());
        assert_eq!(p.current_target(), None);
    }

    #[test]
    fn degenerate_witnesses_collapse() {
        let s = Coord::new(0, 0);
        let d = Coord::new(4, 0);
        assert_eq!(
            Packet::with_plan(s, d, &RoutePlan::ViaAxis(d)).leg_count(),
            1
        );
        assert_eq!(
            Packet::with_plan(s, d, &RoutePlan::ViaAxis(s)).leg_count(),
            1
        );
        assert_eq!(Packet::with_plan(s, d, &RoutePlan::Direct).leg_count(), 1);
    }
}
