//! The synchronous-round message-passing engine.
//!
//! Nodes run in lockstep rounds: all messages sent during round `r` are
//! delivered at round `r + 1`. Delivery order within a round is
//! deterministic (sorted by receiver, then sender, then send order), so
//! every protocol run is exactly reproducible. The engine only allows
//! messages between mesh neighbors — the paper's protocols are strictly
//! hop-by-hop.

use std::fmt;

use emr_mesh::{Coord, Grid, Mesh};

/// A typed failure reported by a protocol handler.
///
/// Handlers never panic: a violated delivery invariant surfaces here and
/// the engine aborts the run with [`EngineError::Protocol`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolError {
    /// A message was delivered to `node` from a sender that is not one of
    /// its mesh neighbors.
    NonNeighborDelivery {
        /// The receiving node.
        node: Coord,
        /// The claimed sender.
        from: Coord,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::NonNeighborDelivery { node, from } => {
                write!(f, "message delivered to {node} from non-neighbor {from}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Why an engine run failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// A handler reported a typed failure.
    Protocol(ProtocolError),
    /// The protocol did not quiesce within the round bound.
    NoQuiescence {
        /// The bound that was exhausted.
        max_rounds: u32,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Protocol(e) => write!(f, "protocol error: {e}"),
            EngineError::NoQuiescence { max_rounds } => {
                write!(f, "protocol did not quiesce within {max_rounds} rounds")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ProtocolError> for EngineError {
    fn from(e: ProtocolError) -> Self {
        EngineError::Protocol(e)
    }
}

/// A distributed protocol: per-node state plus message handlers.
///
/// Implementations describe what each node does, the engine handles
/// scheduling. Nodes may only address their mesh neighbors; the engine
/// panics otherwise (a protocol bug, not an input error). Handlers report
/// violated delivery invariants as [`ProtocolError`]s instead of
/// panicking; [`Engine::try_run`] surfaces them as [`EngineError`]s.
pub trait Protocol {
    /// The per-node state.
    type State;
    /// The message type exchanged between neighbors.
    type Msg: Clone;

    /// Initial state of node `c` plus its round-0 messages
    /// `(destination, payload)`.
    fn init(&self, mesh: &Mesh, c: Coord) -> (Self::State, Vec<(Coord, Self::Msg)>);

    /// Handles one delivered message, possibly updating the state and
    /// sending further messages.
    fn on_message(
        &self,
        mesh: &Mesh,
        c: Coord,
        state: &mut Self::State,
        from: Coord,
        msg: Self::Msg,
    ) -> Result<Vec<(Coord, Self::Msg)>, ProtocolError>;
}

/// Accounting for one protocol run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Number of synchronous rounds until quiescence (no messages in
    /// flight). Round 0 is initialization.
    pub rounds: u32,
    /// Total messages delivered over the whole run.
    pub messages: u64,
}

/// The simulator: owns the mesh and executes protocols to quiescence.
///
/// # Examples
///
/// ```
/// use emr_mesh::{Coord, Mesh};
/// use emr_distsim::{Engine, Protocol};
///
/// /// Every node learns its hop distance from the origin (flooding).
/// struct Flood;
/// impl Protocol for Flood {
///     type State = u32;
///     type Msg = u32;
///     fn init(&self, mesh: &Mesh, c: Coord) -> (u32, Vec<(Coord, u32)>) {
///         if c == Coord::ORIGIN {
///             (0, mesh.neighbors(c).map(|n| (n, 1)).collect())
///         } else {
///             (u32::MAX, vec![])
///         }
///     }
///     fn on_message(
///         &self,
///         mesh: &Mesh,
///         c: Coord,
///         state: &mut u32,
///         _from: Coord,
///         dist: u32,
///     ) -> Result<Vec<(Coord, u32)>, emr_distsim::ProtocolError> {
///         if dist >= *state {
///             return Ok(vec![]);
///         }
///         *state = dist;
///         Ok(mesh.neighbors(c).map(|n| (n, dist + 1)).collect())
///     }
/// }
///
/// let mesh = Mesh::square(4);
/// let (dist, stats) = Engine::new(mesh).run(&Flood);
/// assert_eq!(dist[Coord::new(3, 3)], 6);
/// assert!(stats.rounds >= 6);
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    mesh: Mesh,
    max_rounds: u32,
}

impl Engine {
    /// Creates an engine for `mesh` with a generous default round bound
    /// (every protocol in this crate converges in `O(width + height)`
    /// rounds; the bound only guards against protocol bugs).
    pub fn new(mesh: Mesh) -> Self {
        let wh = u32::try_from(mesh.width() + mesh.height()).unwrap_or(0);
        let bound = 16u32.saturating_mul(wh).saturating_add(64);
        Engine {
            mesh,
            max_rounds: bound,
        }
    }

    /// The mesh this engine simulates.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// Runs `protocol` to quiescence, returning the final per-node states
    /// and the run statistics, or a typed [`EngineError`] when a handler
    /// fails or the round bound is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if a node addresses a non-neighbor or an off-mesh node (a
    /// protocol bug, not an input error).
    pub fn try_run<P: Protocol>(
        &self,
        protocol: &P,
    ) -> Result<(Grid<P::State>, RunStats), EngineError> {
        let mesh = self.mesh;
        let mut outbox: Vec<(Coord, Coord, P::Msg)> = Vec::new();
        let states = Grid::from_fn(mesh, |c| {
            let (state, sends) = protocol.init(&mesh, c);
            for (to, msg) in sends {
                check_edge(&mesh, c, to);
                outbox.push((to, c, msg));
            }
            state
        });
        self.drain(protocol, states, outbox)
    }

    /// Convenience wrapper around [`Engine::try_run`] for callers that
    /// treat any engine failure as a bug.
    ///
    /// # Panics
    ///
    /// As for [`Engine::try_run`]; additionally on any [`EngineError`].
    pub fn run<P: Protocol>(&self, protocol: &P) -> (Grid<P::State>, RunStats) {
        self.try_run(protocol).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Warm-starts `protocol` from previously converged states plus a set
    /// of fresh disturbance messages `(from, to, msg)` — the paper's §1
    /// claim that "when a disturbance occurs, only those affected nodes
    /// update their information", made executable: no re-initialization,
    /// only the disturbance propagates.
    ///
    /// # Panics
    ///
    /// As for [`Engine::try_run`]; additionally if `states` covers a
    /// different mesh.
    pub fn try_resume<P: Protocol>(
        &self,
        protocol: &P,
        states: Grid<P::State>,
        disturbances: Vec<(Coord, Coord, P::Msg)>,
    ) -> Result<(Grid<P::State>, RunStats), EngineError> {
        assert_eq!(states.mesh(), self.mesh, "state grid mesh mismatch");
        let outbox: Vec<(Coord, Coord, P::Msg)> = disturbances
            .into_iter()
            .map(|(from, to, msg)| {
                check_edge(&self.mesh, from, to);
                (to, from, msg)
            })
            .collect();
        self.drain(protocol, states, outbox)
    }

    /// Convenience wrapper around [`Engine::try_resume`] for callers that
    /// treat any engine failure as a bug.
    ///
    /// # Panics
    ///
    /// As for [`Engine::try_resume`]; additionally on any [`EngineError`].
    pub fn resume<P: Protocol>(
        &self,
        protocol: &P,
        states: Grid<P::State>,
        disturbances: Vec<(Coord, Coord, P::Msg)>,
    ) -> (Grid<P::State>, RunStats) {
        self.try_resume(protocol, states, disturbances)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn drain<P: Protocol>(
        &self,
        protocol: &P,
        mut states: Grid<P::State>,
        mut outbox: Vec<(Coord, Coord, P::Msg)>,
    ) -> Result<(Grid<P::State>, RunStats), EngineError> {
        let mesh = self.mesh;
        let mut stats = RunStats::default();
        while !outbox.is_empty() {
            stats.rounds += 1;
            if stats.rounds > self.max_rounds {
                return Err(EngineError::NoQuiescence {
                    max_rounds: self.max_rounds,
                });
            }
            // Deterministic delivery order; stable sort keeps same-edge
            // messages in send order.
            let mut inbox = std::mem::take(&mut outbox);
            inbox.sort_by_key(|(to, from, _)| (mesh.index_of(*to), mesh.index_of(*from)));
            for (to, from, msg) in inbox {
                stats.messages += 1;
                let state = states.get_mut(to).expect("validated at send time");
                for (next_to, next_msg) in protocol.on_message(&mesh, to, state, from, msg)? {
                    check_edge(&mesh, to, next_to);
                    outbox.push((next_to, to, next_msg));
                }
            }
        }
        Ok((states, stats))
    }
}

fn check_edge(mesh: &Mesh, from: Coord, to: Coord) {
    assert!(mesh.contains(to), "message to off-mesh node {to}");
    assert!(
        from.is_adjacent(to),
        "message from {from} to non-neighbor {to}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each node forwards a token eastward once; used to check accounting.
    struct EastChain;
    impl Protocol for EastChain {
        type State = bool;
        type Msg = ();

        fn init(&self, mesh: &Mesh, c: Coord) -> (bool, Vec<(Coord, ())>) {
            if c == Coord::ORIGIN {
                let sends = mesh
                    .neighbor(c, emr_mesh::Direction::East)
                    .map(|n| (n, ()))
                    .into_iter()
                    .collect();
                (true, sends)
            } else {
                (false, vec![])
            }
        }

        fn on_message(
            &self,
            mesh: &Mesh,
            c: Coord,
            state: &mut bool,
            _from: Coord,
            (): (),
        ) -> Result<Vec<(Coord, ())>, ProtocolError> {
            *state = true;
            Ok(mesh
                .neighbor(c, emr_mesh::Direction::East)
                .map(|n| (n, ()))
                .into_iter()
                .collect())
        }
    }

    #[test]
    fn chain_visits_whole_row() {
        let mesh = Mesh::new(6, 2);
        let (state, stats) = Engine::new(mesh).run(&EastChain);
        for x in 0..6 {
            assert!(state[Coord::new(x, 0)], "node {x} not visited");
        }
        assert!(!state[Coord::new(0, 1)]);
        assert_eq!(stats.messages, 5);
        assert_eq!(stats.rounds, 5);
    }

    #[test]
    fn quiescent_protocol_runs_zero_rounds() {
        struct Silent;
        impl Protocol for Silent {
            type State = ();
            type Msg = ();
            fn init(&self, _: &Mesh, _: Coord) -> ((), Vec<(Coord, ())>) {
                ((), vec![])
            }
            fn on_message(
                &self,
                _: &Mesh,
                _: Coord,
                (): &mut (),
                _: Coord,
                (): (),
            ) -> Result<Vec<(Coord, ())>, ProtocolError> {
                Ok(vec![])
            }
        }
        let (_, stats) = Engine::new(Mesh::square(3)).run(&Silent);
        assert_eq!(stats, RunStats::default());
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn non_neighbor_send_panics() {
        struct Bad;
        impl Protocol for Bad {
            type State = ();
            type Msg = ();
            fn init(&self, _: &Mesh, c: Coord) -> ((), Vec<(Coord, ())>) {
                if c == Coord::ORIGIN {
                    ((), vec![(Coord::new(2, 2), ())])
                } else {
                    ((), vec![])
                }
            }
            fn on_message(
                &self,
                _: &Mesh,
                _: Coord,
                (): &mut (),
                _: Coord,
                (): (),
            ) -> Result<Vec<(Coord, ())>, ProtocolError> {
                Ok(vec![])
            }
        }
        let _ = Engine::new(Mesh::square(4)).run(&Bad);
    }

    #[test]
    #[should_panic(expected = "did not quiesce")]
    fn runaway_protocol_hits_round_bound() {
        struct PingPong;
        impl Protocol for PingPong {
            type State = ();
            type Msg = ();
            fn init(&self, _: &Mesh, c: Coord) -> ((), Vec<(Coord, ())>) {
                if c == Coord::ORIGIN {
                    ((), vec![(Coord::new(1, 0), ())])
                } else {
                    ((), vec![])
                }
            }
            fn on_message(
                &self,
                _: &Mesh,
                _: Coord,
                (): &mut (),
                from: Coord,
                (): (),
            ) -> Result<Vec<(Coord, ())>, ProtocolError> {
                Ok(vec![(from, ())])
            }
        }
        // The default bound on a 2×2 mesh: 16·(2+2)+64 = 128 rounds.
        let _ = Engine::new(Mesh::square(2)).run(&PingPong);
    }

    #[test]
    fn deterministic_across_runs() {
        let mesh = Mesh::square(5);
        let engine = Engine::new(mesh);
        let (a, sa) = engine.run(&EastChain);
        let (b, sb) = engine.run(&EastChain);
        assert_eq!(sa, sb);
        for c in mesh.nodes() {
            assert_eq!(a[c], b[c]);
        }
    }
}
