//! `serve-read` and `serve-churn`: the routing service through its
//! loopback JSON wire.
//!
//! One closed-loop client sends batches of 64 queries (50% route, 25%
//! safety, 25% reach; models split evenly; 30% pinned to an epoch the
//! client has seen) through `LoopbackClient::send`. `serve-churn` adds one
//! open-loop writer that publishes `[Inject, Warm×4, Advance]` every
//! 20 ms, round-robin over the tenants. One op is one batch.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use emr_core::{decide_local, Ensured, Epoch, Model, Scenario};
use emr_fault::reach_bits::minimal_path_exists_bits;
use emr_fault::{inject, FaultSet, MccType};
use emr_mesh::{Coord, Mesh};
use emr_serve::api::{
    AdvanceEpoch, InjectFault, ReachQuery, RegisterMesh, RouteQuery, SafetyQuery, SnapshotStats,
    WarmDecision,
};
use emr_serve::hash::{fnv1a64, fnv1a64_u64, FNV_OFFSET};
use emr_serve::{loopback, LoopbackClient, Request, Response, Store, StoreConfig};

use crate::calibrate::Calibrator;
use crate::report::{derive_seed, nanos, Outcome, RunConfig};
use crate::stats::{median, percentile, windowed_p90_us, windowed_rate, Timing};
use crate::trace::Tracer;

/// Snapshots each tenant retains.
const RETAIN: usize = 8;
/// Pinned reads choose among this many of the latest epochs the client
/// has seen per tenant, so they stay inside the retention window.
const SEEN_WINDOW: usize = 4;
/// Set-up repetitions whose median is `setup_s`.
const SETUPS: u64 = 9;
/// The traced run shadows one query in this many with direct store and
/// snapshot calls.
const SHADOW_EVERY: usize = 16;
/// One response in this many is replayed against a fresh scenario.
const VERIFY_EVERY: usize = 64;
/// At most this many sampled responses are kept (a uniform reservoir
/// over the run), so memory does not grow with throughput.
const MAX_SAMPLES: usize = 4096;
/// Room reserved up front for per-batch timings.
const TIMINGS_CAP: usize = 1 << 20;
/// Decisions the writer warms per publish.
const WARMS: usize = 4;

const SALT_INIT: u64 = 0x7365_7276_6269_6e69; // "servbini"
const SALT_READ: u64 = 0x7365_7276_6272_6561; // "servbrea"
const SALT_WRITE: u64 = 0x7365_7276_6277_7269; // "servbwri"
const SALT_SAMPLE: u64 = 0x7365_7276_6273_6d70; // "servbsmp"

/// One serve workload's shape.
#[derive(Debug, Clone, Copy)]
struct Spec {
    mesh: i32,
    tenants: usize,
    faults: usize,
    batch: usize,
    warmup: u64,
    /// Batches replayed after the run through both send paths.
    replay: usize,
    /// The writer's publish period; `None` runs without a writer.
    publish_every: Option<Duration>,
}

fn spec(churn: bool, smoke: bool) -> Spec {
    let publish_every = churn.then_some(Duration::from_millis(20));
    match (churn, smoke) {
        (_, true) => Spec {
            mesh: 16,
            tenants: 4,
            faults: 16,
            batch: 16,
            warmup: 20,
            replay: 8,
            publish_every,
        },
        (false, false) => Spec {
            mesh: 48,
            tenants: 8,
            faults: 48,
            batch: 64,
            warmup: 1000,
            replay: 256,
            publish_every,
        },
        (true, false) => Spec {
            mesh: 256,
            tenants: 8,
            faults: 256,
            batch: 64,
            warmup: 1000,
            replay: 256,
            publish_every,
        },
    }
}

fn tenant_name(t: usize) -> String {
    format!("tenant-{t}")
}

/// A fresh store with every tenant registered; returns the client and
/// each tenant's initial faults.
fn setup(spec: &Spec, seed: u64) -> (LoopbackClient, Vec<Vec<Coord>>, u64) {
    let store = Arc::new(Store::new(StoreConfig {
        shards: 4,
        retain: RETAIN,
    }));
    let client = LoopbackClient::new(store);
    let mesh = Mesh::square(spec.mesh);
    let initial: Vec<Vec<Coord>> = (0..spec.tenants)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, SALT_INIT, t as u64));
            inject::uniform(mesh, spec.faults, &[], &mut rng)
                .iter()
                .collect()
        })
        .collect();
    let registers: Vec<Request> = initial
        .iter()
        .enumerate()
        .map(|(t, faults)| {
            Request::Register(RegisterMesh {
                mesh: tenant_name(t),
                width: spec.mesh,
                height: spec.mesh,
                faults: faults.clone(),
            })
        })
        .collect();
    let failures = client
        .send(&registers)
        .iter()
        .filter(|r| !matches!(r, Response::Registered(_)))
        .count() as u64;
    (client, initial, failures)
}

/// The query mix for batch `index`: tenants uniform, 30% pinned to an
/// epoch from the client's seen window, models 50/50, kinds 2:1:1
/// route/safety/reach. Returns the requests and their tenants.
fn gen_batch(
    spec: &Spec,
    seed: u64,
    index: u64,
    seen: &[VecDeque<Epoch>],
) -> (Vec<Request>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, SALT_READ, index));
    let side = spec.mesh;
    let coord = |rng: &mut StdRng| Coord::new(rng.gen_range(0..side), rng.gen_range(0..side));
    let mut reqs = Vec::with_capacity(spec.batch);
    let mut tenants = Vec::with_capacity(spec.batch);
    for _ in 0..spec.batch {
        let t = rng.gen_range(0..spec.tenants);
        let window = &seen[t];
        let at_epoch = if rng.gen_bool(0.3) && !window.is_empty() {
            window.get(rng.gen_range(0..window.len())).copied()
        } else {
            None
        };
        let model = if rng.gen_bool(0.5) {
            Model::FaultBlock
        } else {
            Model::Mcc
        };
        let mesh = tenant_name(t);
        reqs.push(match rng.gen_range(0..4u8) {
            0 | 1 => Request::Route(RouteQuery {
                mesh,
                at_epoch,
                model,
                s: coord(&mut rng),
                d: coord(&mut rng),
            }),
            2 => Request::Safety(SafetyQuery {
                mesh,
                at_epoch,
                model,
                at: coord(&mut rng),
            }),
            _ => Request::Reach(ReachQuery {
                mesh,
                at_epoch,
                s: coord(&mut rng),
                d: coord(&mut rng),
            }),
        });
        tenants.push(t);
    }
    (reqs, tenants)
}

fn pinned_epoch(req: &Request) -> Option<Epoch> {
    match req {
        Request::Route(q) => q.at_epoch,
        Request::Safety(q) => q.at_epoch,
        Request::Reach(q) => q.at_epoch,
        _ => None,
    }
}

fn answered_epoch(resp: &Response) -> Option<Epoch> {
    match resp {
        Response::Routed(r) => Some(r.epoch),
        Response::Safety(r) => Some(r.epoch),
        Response::Reached(r) => Some(r.epoch),
        _ => None,
    }
}

/// FNV-1a over each response's wire encoding, in order.
fn wire_digest(resps: &[Response]) -> u64 {
    resps.iter().fold(FNV_OFFSET, |h, r| {
        let wire = serde_json::to_string(r).expect("responses serialize");
        fnv1a64(h, wire.as_bytes())
    })
}

/// `LoopbackClient::send` split into its halves, one span each.
fn send_traced(
    client: &LoopbackClient,
    reqs: &[Request],
    t: &mut Tracer,
    unit: u64,
) -> Vec<Response> {
    t.enter("serve.loopback.encode", unit);
    let request_wire = loopback::encode(reqs);
    t.exit();
    t.enter("serve.loopback.server_decode", unit);
    let batch: Vec<Request> = serde_json::from_str(&request_wire).expect("request wire decodes");
    t.exit();
    t.enter("serve.store.handle_batch", unit);
    let resps = client.store().handle_batch(&batch);
    t.exit();
    t.enter("serve.loopback.server_encode", unit);
    let response_wire = serde_json::to_string(&resps).expect("responses serialize");
    t.exit();
    t.enter("serve.loopback.decode", unit);
    let out = loopback::decode(&response_wire);
    t.exit();
    out
}

/// One sampled response kept for verification.
struct Sample {
    tenant: usize,
    req: Request,
    resp: Response,
}

/// The closed-loop client.
struct Reader<'a> {
    spec: Spec,
    seed: u64,
    client: &'a LoopbackClient,
    seen: Vec<VecDeque<Epoch>>,
    tracer: Option<Tracer>,
    next: u64,
    // Tallies.
    batches: u64,
    queries: u64,
    errors: u64,
    routed: u64,
    minimal: u64,
    latencies_ns: Vec<u64>,
    resolve_ns: Vec<u64>,
    checksum: u64,
    samples: Vec<Sample>,
    /// Draws the reservoir replacements.
    sample_rng: StdRng,
    /// The latest `spec.replay` batches and their digests.
    recent: VecDeque<(Vec<Request>, u64)>,
}

impl<'a> Reader<'a> {
    fn new(spec: Spec, seed: u64, client: &'a LoopbackClient) -> Reader<'a> {
        Reader {
            spec,
            seed,
            client,
            seen: vec![VecDeque::from([0]); spec.tenants],
            tracer: None,
            next: 0,
            batches: 0,
            queries: 0,
            errors: 0,
            routed: 0,
            minimal: 0,
            latencies_ns: Vec::with_capacity(TIMINGS_CAP),
            resolve_ns: Vec::new(),
            checksum: FNV_OFFSET,
            samples: Vec::new(),
            sample_rng: StdRng::seed_from_u64(derive_seed(seed, SALT_SAMPLE, 0)),
            recent: VecDeque::new(),
        }
    }

    /// Clears the tallies (after warm-up).
    fn reset(&mut self) {
        *self = Reader {
            seen: std::mem::take(&mut self.seen),
            tracer: self.tracer.take(),
            next: self.next,
            ..Reader::new(self.spec, self.seed, self.client)
        };
    }

    /// Generates, sends and checks one batch.
    fn batch(&mut self) {
        let index = self.next;
        self.next += 1;
        if let Some(t) = self.tracer.as_mut() {
            t.enter("bench.client.generate", index);
        }
        let (reqs, tenants) = gen_batch(&self.spec, self.seed, index, &self.seen);
        let (resps, ns) = if let Some(t) = self.tracer.as_mut() {
            t.exit();
            t.enter("bench.serve.batch", index);
            let started = Instant::now();
            let resps = send_traced(self.client, &reqs, t, index);
            let ns = nanos(started.elapsed());
            t.exit();
            (resps, ns)
        } else {
            let started = Instant::now();
            let resps = self.client.send(&reqs);
            (resps, nanos(started.elapsed()))
        };
        self.latencies_ns.push(ns);
        if self.tracer.is_some() {
            self.shadow(index, &reqs);
        }

        if let Some(t) = self.tracer.as_mut() {
            t.enter("bench.client.check", index);
        }
        let digest = wire_digest(&resps);
        self.checksum = fnv1a64_u64(self.checksum, digest);
        self.batches += 1;
        self.queries += reqs.len() as u64;
        for ((req, resp), &t) in reqs.iter().zip(&resps).zip(&tenants) {
            match resp {
                Response::Error(_) => self.errors += 1,
                Response::Routed(r) => {
                    self.routed += 1;
                    self.minimal += u64::from(matches!(r.decision, Some(Ensured::Minimal(_))));
                }
                _ => {}
            }
            if let (None, Some(e)) = (pinned_epoch(req), answered_epoch(resp)) {
                let window = &mut self.seen[t];
                if !window.contains(&e) {
                    window.push_back(e);
                    while window.len() > SEEN_WINDOW {
                        window.pop_front();
                    }
                }
            }
        }
        if resps.len() != reqs.len() {
            self.errors += reqs.len().abs_diff(resps.len()) as u64;
        }
        let pick = usize::try_from(index).unwrap_or(0) % VERIFY_EVERY;
        if let (Some(req), Some(resp)) = (reqs.get(pick), resps.get(pick)) {
            let sample = Sample {
                tenant: tenants[pick],
                req: req.clone(),
                resp: resp.clone(),
            };
            // Reservoir sampling (algorithm R) over the run's batches.
            let seen = usize::try_from(self.batches).unwrap_or(usize::MAX);
            if self.samples.len() < MAX_SAMPLES {
                self.samples.push(sample);
            } else if let Some(slot) = self.samples.get_mut(self.sample_rng.gen_range(0..seen)) {
                *slot = sample;
            }
        }
        self.recent.push_back((reqs, digest));
        while self.recent.len() > self.spec.replay {
            self.recent.pop_front();
        }
        if let Some(t) = self.tracer.as_mut() {
            t.exit();
        }
    }

    /// Traced runs: direct store and snapshot calls for one query in
    /// [`SHADOW_EVERY`], to time snapshot resolution and the answer
    /// kernels apart from the wire.
    fn shadow(&mut self, index: u64, reqs: &[Request]) {
        let Some(t) = self.tracer.as_mut() else {
            return;
        };
        let store = self.client.store();
        t.enter("bench.serve.shadow", index);
        let base = usize::try_from(index).unwrap_or(0) * reqs.len();
        for (j, req) in reqs.iter().enumerate() {
            if !(base + j).is_multiple_of(SHADOW_EVERY) {
                continue;
            }
            let mesh = match req {
                Request::Route(q) => &q.mesh,
                Request::Safety(q) => &q.mesh,
                Request::Reach(q) => &q.mesh,
                _ => continue,
            };
            let started = Instant::now();
            let snap = match pinned_epoch(req) {
                Some(e) => store.snapshot_at(mesh, e),
                None => store.latest_snapshot(mesh),
            };
            let resolved = Instant::now();
            t.record("serve.store.resolve", index, started, resolved);
            self.resolve_ns.push(nanos(resolved - started));
            let Ok(snap) = snap else { continue };
            let started = Instant::now();
            let name = match req {
                Request::Route(q) => {
                    let _ = snap.route(q.model, q.s, q.d);
                    "serve.snapshot.route"
                }
                Request::Safety(q) => {
                    let _ = snap.safety(q.model, q.at);
                    "serve.snapshot.safety"
                }
                Request::Reach(q) => {
                    let _ = snap.reach(q.s, q.d);
                    "serve.snapshot.reach"
                }
                _ => continue,
            };
            t.record(name, index, started, Instant::now());
        }
        t.exit();
    }
}

/// The open-loop writer's schedule: publish `n` is due at
/// `start + n × period`, whether or not earlier publishes finished.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    start: Instant,
    period: Duration,
}

impl Schedule {
    fn due(&self, n: u64) -> Instant {
        self.start + Duration::from_nanos(nanos(self.period).saturating_mul(n))
    }

    /// How late publish `n` was sent.
    fn lag(&self, n: u64, sent: Instant) -> Duration {
        sent.saturating_duration_since(self.due(n))
    }

    /// Publish `n`'s latency, timed from when it was due, so a stalled
    /// writer's backlog counts.
    fn latency(&self, n: u64, done: Instant) -> Duration {
        done.saturating_duration_since(self.due(n))
    }
}

/// What the writer did.
#[derive(Default)]
struct WriterLog {
    publishes: u64,
    failures: u64,
    lag_ns: Vec<u64>,
    latency_ns: Vec<u64>,
    inject_ns: Vec<u64>,
    advance_ns: Vec<u64>,
    /// Per tenant, `(published epoch, injected fault)` in publish order.
    injected: Vec<Vec<(Epoch, Coord)>>,
    tracer: Option<Tracer>,
}

/// The open-loop writer: one publish per period, round-robin over the
/// tenants, until `stop` is raised.
fn writer(
    client: &LoopbackClient,
    spec: &Spec,
    seed: u64,
    initial: &[Vec<Coord>],
    schedule: Schedule,
    stop: &AtomicBool,
    traced: bool,
) -> WriterLog {
    let mut log = WriterLog {
        injected: vec![Vec::new(); spec.tenants],
        tracer: traced.then(|| Tracer::new(schedule.start, 1)),
        ..WriterLog::default()
    };
    let mut faults: Vec<BTreeSet<Coord>> = initial
        .iter()
        .map(|f| f.iter().copied().collect())
        .collect();
    let side = spec.mesh;
    let store = client.store();
    for n in 0u64.. {
        let due = schedule.due(n);
        loop {
            if stop.load(Ordering::Relaxed) {
                return log;
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_millis(2)));
        }
        let sent = Instant::now();
        let t = usize::try_from(n % spec.tenants as u64).unwrap_or(0);
        let mesh = tenant_name(t);
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, SALT_WRITE, n));
        let mut draw = || Coord::new(rng.gen_range(0..side), rng.gen_range(0..side));
        let Some(fault) = (0..1000).map(|_| draw()).find(|c| !faults[t].contains(c)) else {
            log.failures += 1;
            continue;
        };
        let inject = Request::Inject(InjectFault {
            mesh: mesh.clone(),
            fault,
        });
        let warms: Vec<Request> = (0..WARMS)
            .map(|_| {
                Request::Warm(WarmDecision {
                    mesh: mesh.clone(),
                    model: if rng.gen_bool(0.5) {
                        Model::FaultBlock
                    } else {
                        Model::Mcc
                    },
                    s: Coord::new(rng.gen_range(0..side), rng.gen_range(0..side)),
                    d: Coord::new(rng.gen_range(0..side), rng.gen_range(0..side)),
                })
            })
            .collect();
        let advance = Request::Advance(AdvanceEpoch { mesh });
        let resps = if let Some(tr) = log.tracer.as_mut() {
            tr.enter("bench.writer.publish", n);
            let mut timed = |name: &'static str, batch: &[Request]| {
                let started = Instant::now();
                let r = store.handle_batch(batch);
                let done = Instant::now();
                tr.record(name, n, started, done);
                (r, nanos(done - started))
            };
            let (mut resps, inject_ns) = timed("serve.store.inject", std::slice::from_ref(&inject));
            let (warmed, _) = timed("serve.store.warm", &warms);
            let (published, advance_ns) =
                timed("serve.store.advance", std::slice::from_ref(&advance));
            tr.exit();
            log.inject_ns.push(inject_ns);
            log.advance_ns.push(advance_ns);
            resps.extend(warmed);
            resps.extend(published);
            resps
        } else {
            let mut batch = vec![inject];
            batch.extend(warms);
            batch.push(advance);
            client.send(&batch)
        };
        let done = Instant::now();
        log.lag_ns.push(nanos(schedule.lag(n, sent)));
        log.latency_ns.push(nanos(schedule.latency(n, done)));
        log.publishes += 1;
        let published = match (resps.first(), resps.last()) {
            (Some(Response::Injected(inj)), Some(Response::Published(p)))
                if inj.changed && p.fresh && p.epoch == inj.working_epoch =>
            {
                Some(p.epoch)
            }
            _ => None,
        };
        let warmed = resps
            .iter()
            .filter(|r| matches!(r, Response::Warmed(_)))
            .count();
        match published {
            Some(e) if warmed == WARMS => {
                log.injected[t].push((e, fault));
                faults[t].insert(fault);
            }
            _ => log.failures += 1,
        }
    }
    log
}

/// Replays every sampled response against a fresh `Scenario` built from
/// the fault prefix of the epoch it was answered at; returns mismatches.
fn verify(spec: &Spec, initial: &[Vec<Coord>], log: &WriterLog, samples: &[Sample]) -> u64 {
    let mesh = Mesh::square(spec.mesh);
    let mut groups: BTreeMap<(usize, Epoch), Vec<&Sample>> = BTreeMap::new();
    let mut failures = 0u64;
    for s in samples {
        match answered_epoch(&s.resp) {
            Some(e) => groups.entry((s.tenant, e)).or_default().push(s),
            None => failures += 1,
        }
    }
    // One scenario alive at a time keeps memory flat on large meshes.
    for ((t, e), group) in groups {
        let injected = log.injected.get(t).map_or(&[][..], Vec::as_slice);
        let published = e == 0 || injected.iter().any(|&(pe, _)| pe == e);
        if !published {
            failures += group.len() as u64;
            continue;
        }
        let prefix = initial[t]
            .iter()
            .copied()
            .chain(injected.iter().filter(|&&(pe, _)| pe <= e).map(|&(_, c)| c));
        let sc = Scenario::build(FaultSet::from_coords(mesh, prefix));
        for s in group {
            let ok = match (&s.req, &s.resp) {
                (Request::Route(q), Response::Routed(r)) => {
                    decide_local(&sc.view(q.model), q.s, q.d) == r.decision
                }
                (Request::Safety(q), Response::Safety(r)) => {
                    let level = match q.model {
                        Model::FaultBlock => sc.block_safety_map().level(q.at),
                        Model::Mcc => sc.mcc_safety_map(MccType::One).level(q.at),
                    };
                    level == r.level
                }
                (Request::Reach(q), Response::Reached(r)) => {
                    let faults = sc.faults();
                    minimal_path_exists_bits(&mesh, q.s, q.d, |c| faults.is_faulty(c))
                        == r.reachable
                }
                _ => false,
            };
            let at_pin = pinned_epoch(&s.req).is_none_or(|p| p == e);
            failures += u64::from(!(ok && at_pin));
        }
    }
    failures
}

/// Runs the measured phase (with the writer beside it for churn).
// emr-lint: allow(A2, "one open-loop writer thread beside the closed-loop reader; the stop flag publishes no data, and every response is checked against the writer's own publish log after the join")
fn measured_phase(
    reader: &mut Reader<'_>,
    cal: &mut Calibrator,
    spec: &Spec,
    cfg: &RunConfig,
    initial: &[Vec<Coord>],
    budget: Duration,
) -> (Duration, WriterLog) {
    let mut read = |reader: &mut Reader<'_>| {
        let started = Instant::now();
        while started.elapsed() < budget {
            reader.batch();
            if let (Some((a, b)), Some(t)) = (cal.tick(), reader.tracer.as_mut()) {
                t.record("bench.calibrate", reader.next, a, b);
            }
        }
        started.elapsed()
    };
    let Some(period) = spec.publish_every else {
        return (read(reader), WriterLog::default());
    };
    let stop = AtomicBool::new(false);
    let client = reader.client;
    std::thread::scope(|scope| {
        let schedule = Schedule {
            start: Instant::now(),
            period,
        };
        let stop = &stop;
        let w =
            scope.spawn(move || writer(client, spec, cfg.seed, initial, schedule, stop, cfg.trace));
        let wall = read(reader);
        stop.store(true, Ordering::Relaxed);
        let log = match w.join() {
            Ok(log) => log,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        (wall, log)
    })
}

/// Runs `serve-read` (`churn == false`) or `serve-churn`.
pub fn run(cfg: &RunConfig, churn: bool) -> Outcome {
    let spec = spec(churn, cfg.smoke);
    let mut out = Outcome::default();
    let mut cal = Calibrator::new();

    let mut setups = Vec::new();
    let mut prepared = None;
    for rep in 0..SETUPS {
        let started = Instant::now();
        let s = setup(&spec, cfg.seed);
        setups.push(started.elapsed().as_secs_f64());
        if rep + 1 == SETUPS {
            prepared = Some(s);
        }
    }
    let (client, initial, register_failures) = prepared.expect("at least one set-up");
    out.check(
        "serve.registered",
        register_failures,
        "tenant registrations",
    );

    let mut reader = Reader::new(spec, cfg.seed, &client);
    for _ in 0..spec.warmup {
        reader.batch();
    }
    let warmup_checksum = reader.checksum;
    let warmup_errors = reader.errors;
    reader.reset();
    if cfg.trace {
        reader.tracer = Some(Tracer::new(Instant::now(), 0));
    }
    let (wall, log) = measured_phase(
        &mut reader,
        &mut cal,
        &spec,
        cfg,
        &initial,
        Duration::from_secs_f64(cfg.seconds),
    );
    out.host_speed = cal.speed();
    out.attempted = reader.queries + log.publishes;
    out.check(
        "serve.error_responses",
        reader.errors + warmup_errors,
        format!("{} error responses", reader.errors + warmup_errors),
    );
    out.check(
        "serve.writer_publishes",
        log.failures,
        format!("{} of {} publishes failed", log.failures, log.publishes),
    );
    let lag = Timing::of(&log.lag_ns);
    if let Some(period) = spec.publish_every {
        out.check_that(
            "serve.writer_on_schedule",
            lag.p99_us <= period.as_secs_f64() * 1e6,
            format!("writer lag p99 {:.1} us (period {period:?})", lag.p99_us),
        );
    }

    // Off the clock: replay the latest batches through both send paths.
    let recent = &reader.recent;
    let mut plain_ns = 0u64;
    let mut traced_ns = 0u64;
    let mut mismatched = 0u64;
    let mut repeated = 0u64;
    let mut scratch = Tracer::new(Instant::now(), 2);
    for (i, (reqs, original)) in recent.iter().enumerate() {
        let started = Instant::now();
        let plain = wire_digest(&client.send(reqs));
        plain_ns += nanos(started.elapsed());
        let started = Instant::now();
        let traced = wire_digest(&send_traced(&client, reqs, &mut scratch, i as u64));
        traced_ns += nanos(started.elapsed());
        mismatched += u64::from(plain != traced);
        repeated += u64::from(plain == *original);
    }
    out.check(
        "serve.traced_wire_identical",
        mismatched,
        format!("{} replayed batches, traced vs untraced send", recent.len()),
    );
    if !churn {
        out.check(
            "serve.wire_repeats",
            recent.len() as u64 - repeated,
            format!(
                "{} replayed batches match their first answers",
                recent.len()
            ),
        );
    }
    let verify_failures = verify(&spec, &initial, &log, &reader.samples);
    out.check(
        "serve.verified_against_scenario",
        verify_failures,
        format!("{} sampled responses replayed", reader.samples.len()),
    );

    let mut snapshot_bytes = 0u64;
    let mut memo_entries = 0u64;
    for t in 0..spec.tenants {
        if let Response::Stats(s) = client.send_one(&Request::Stats(SnapshotStats {
            mesh: tenant_name(t),
        })) {
            snapshot_bytes = snapshot_bytes.max(s.approx_snapshot_bytes);
            memo_entries += s.memo_entries;
        }
    }

    let batches = Timing::of(&reader.latencies_ns);
    let publish = Timing::of(&log.latency_ns);
    out.note("batches", reader.batches.to_string());
    out.note("batch_latency", batches.describe());
    out.note("warmup_checksum", format!("{warmup_checksum:016x}"));
    if churn {
        out.note("publishes", log.publishes.to_string());
        out.note("publish_latency", publish.describe());
        out.note("writer_lag", lag.describe());
    }

    if let Some(t) = reader.tracer.take() {
        let wall_ns = nanos(wall);
        let m = &mut out.metrics;
        for (metric, span) in [
            ("serve.loopback.encode_us", "serve.loopback.encode"),
            (
                "serve.loopback.server_decode_us",
                "serve.loopback.server_decode",
            ),
            (
                "serve.loopback.server_encode_us",
                "serve.loopback.server_encode",
            ),
            ("serve.loopback.decode_us", "serve.loopback.decode"),
            ("serve.store.handle_batch_us", "serve.store.handle_batch"),
            ("serve.snapshot.route_us", "serve.snapshot.route"),
            ("serve.snapshot.safety_us", "serve.snapshot.safety"),
            ("serve.snapshot.reach_us", "serve.snapshot.reach"),
        ] {
            m.insert(metric, t.mean_us(span));
        }
        let mut resolve = reader.resolve_ns.clone();
        resolve.sort_unstable();
        m.insert(
            "serve.store.resolve_p50_us",
            percentile(&resolve, 50.0) as f64 / 1e3,
        );
        m.insert(
            "serve.store.resolve_p99_us",
            percentile(&resolve, 99.0) as f64 / 1e3,
        );
        m.insert(
            "serve.route.minimal_ratio",
            reader.minimal as f64 / reader.routed.max(1) as f64,
        );
        let inject = Timing::of(&log.inject_ns);
        let advance = Timing::of(&log.advance_ns);
        m.insert("serve.store.inject_p50_us", inject.p50_us);
        m.insert("serve.store.inject_p99_us", inject.p99_us);
        m.insert("serve.store.advance_p50_us", advance.p50_us);
        m.insert("serve.store.advance_p99_us", advance.p99_us);
        m.insert("serve.publish_p50_us", publish.p50_us);
        m.insert("serve.publish_p99_us", publish.p99_us);
        m.insert("serve.snapshot.bytes", snapshot_bytes as f64);
        m.insert("serve.snapshot.memo_entries", memo_entries as f64);
        m.insert("bench.op_p90_us", windowed_p90_us(&reader.latencies_ns));
        m.insert("bench.writer.lag_p99_us", lag.p99_us);
        m.insert(
            "bench.trace_overhead",
            traced_ns as f64 / plain_ns.max(1) as f64,
        );
        m.insert(
            "bench.trace_coverage",
            t.self_sum_ns() as f64 / wall_ns as f64,
        );
        out.tables.push(t.table("reader", wall_ns));
        if let Some(w) = &log.tracer {
            out.tables.push(w.table("writer", wall_ns));
        }
        if let Some(dir) = &cfg.trace_dir {
            let path = dir.join(format!(
                "trace-{}.jsonl",
                if churn { "serve-churn" } else { "serve-read" }
            ));
            let written = t.write_jsonl(&path, false).and_then(|()| {
                log.tracer
                    .as_ref()
                    .map_or(Ok(()), |w| w.write_jsonl(&path, true))
            });
            if let Err(e) = written {
                out.check_that("trace.written", false, format!("{}: {e}", path.display()));
            }
        }
    } else {
        let m = &mut out.metrics;
        m.insert("setup_s", median(&setups));
        let per_batch = spec.batch as f64;
        let ops: Vec<(f64, u64)> = reader
            .latencies_ns
            .iter()
            .map(|&ns| (per_batch, ns))
            .collect();
        m.insert("throughput_per_s", windowed_rate(&ops, 10));
        m.insert("op_p50_us", batches.p50_us);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_from_the_due_time() {
        let start = Instant::now();
        let s = Schedule {
            start,
            period: Duration::from_millis(20),
        };
        assert_eq!(s.due(0), start);
        assert_eq!(s.due(3), start + Duration::from_millis(60));
        // Sent 15 ms late and done 5 ms later: the latency includes the
        // wait the stall imposed.
        let sent = start + Duration::from_millis(75);
        let done = start + Duration::from_millis(80);
        assert_eq!(s.lag(3, sent), Duration::from_millis(15));
        assert_eq!(s.latency(3, done), Duration::from_millis(20));
        // On time: no lag, latency is the service time alone.
        assert_eq!(s.lag(4, s.due(4)), Duration::ZERO);
        assert_eq!(
            s.latency(4, s.due(4) + Duration::from_millis(2)),
            Duration::from_millis(2)
        );
        // A clock read before the due time never goes negative.
        assert_eq!(s.lag(5, start), Duration::ZERO);
    }
}
