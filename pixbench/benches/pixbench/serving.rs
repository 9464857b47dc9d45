//! The serving phases: the discrete-event serve and fleet simulators on
//! `Workload::paper_mix()`, and a live functional-mode `pixel-served`
//! driven over loopback by an open-loop client.

use crate::affinity::{self, CpuSet};
use crate::fabric::DESIGNS;
use crate::stats::Digest;
use crate::trace::Tracer;
use pixel_core::config::{AcceleratorConfig, Design};
use pixel_core::model::EvalContext;
use pixel_fleet::route::RouteKind;
use pixel_fleet::sim::{simulate_fleet, FleetConfig};
use pixel_serve::daemon::{self, DaemonConfig, ServiceMode};
use pixel_serve::report::ServeReport;
use pixel_serve::saturation::reference_capacity;
use pixel_serve::sim::{simulate_with_flightrec, ServeConfig};
use pixel_serve::wire::{self, WireRequest, WireResponse};
use pixel_serve::{RequestSource, Workload};
use pixel_units::rng::SplitMix64;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Offered loads of the serving simulations, as multiples of each
/// design's reference capacity: below, near and past the knee.
const SIM_LOADS: [f64; 3] = [0.5, 0.9, 1.5];
/// Shards of the simulated fleet.
const FLEET_SHARDS: usize = 4;
/// Flight-recorder ring depth of the serving simulations.
const EVENT_CAPACITY: usize = 256;
/// Max batch of the serving policy (`ServeConfig::new`'s default).
const MAX_BATCH: usize = 8;

/// The accelerator the serving simulations model: 4 lanes, 16 bits per
/// lane (the `reproduce serve` artifact's configuration).
fn sim_accel(design: Design) -> AcceleratorConfig {
    AcceleratorConfig::new(design, 4, 16)
}

/// The accelerator the live daemon runs bit-true: OO, 4 lanes, 4 bits
/// per lane — the precision of the daemon's 4-bit conv operands, and
/// cheap enough that 100 req/s loads it to about a tenth of capacity,
/// so host-speed swings do not push the latency session into
/// saturation.
fn live_accel() -> AcceleratorConfig {
    AcceleratorConfig::new(Design::Oo, 4, 4)
}

/// One simulation of a rep.
pub enum Sim {
    /// A single-fabric serving simulation.
    Serve(ServeConfig),
    /// A sharded fleet simulation.
    Fleet(FleetConfig),
}

/// The simulations of one rep, each with its span name.
pub struct SimPlan {
    /// `(span name, simulation)`.
    pub sims: Vec<(String, Sim)>,
    /// Simulated requests per rep.
    pub requests: u64,
}

impl SimPlan {
    /// EE/OE/OO at each [`SIM_LOADS`] multiple of reference capacity,
    /// plus a 4-shard OO fleet under join-shortest-queue and
    /// network-affinity routing at 0.9× its summed capacity.
    pub fn new(workload: &Workload, ctx: &EvalContext, requests: usize, seed: u64) -> Self {
        let mut sims = Vec::new();
        for &(design, label) in &DESIGNS {
            let accel = sim_accel(design);
            let capacity = reference_capacity(ctx, workload, &accel, MAX_BATCH);
            for load in SIM_LOADS {
                sims.push((
                    format!("serve.sim.{label}"),
                    Sim::Serve(ServeConfig::new(accel, load * capacity, requests, seed)),
                ));
            }
        }
        let accel = sim_accel(Design::Oo);
        #[allow(clippy::cast_precision_loss)]
        let rate = 0.9 * FLEET_SHARDS as f64 * reference_capacity(ctx, workload, &accel, MAX_BATCH);
        for route in [RouteKind::ShortestQueue, RouteKind::NetworkAffinity] {
            sims.push((
                "fleet.sim".to_owned(),
                Sim::Fleet(FleetConfig::new(
                    vec![accel; FLEET_SHARDS],
                    route,
                    rate,
                    requests,
                    seed,
                )),
            ));
        }
        let requests = (sims.len() * requests) as u64;
        Self { sims, requests }
    }

    /// Runs every simulation once; returns the digest of all reports
    /// and the host time of each simulator call, in plan order.
    pub fn run(
        &self,
        workload: &Workload,
        ctx: &EvalContext,
        tracer: &mut Tracer,
        id: u64,
    ) -> (u64, Vec<f64>) {
        let rep = tracer.begin("sim.rep", id, None);
        let mut digest = Digest::default();
        let mut busy = Vec::with_capacity(self.sims.len());
        for (name, sim) in &self.sims {
            let t0 = Instant::now();
            match sim {
                Sim::Serve(config) => {
                    let (report, data) =
                        simulate_with_flightrec(workload, ctx, config, EVENT_CAPACITY);
                    let t1 = Instant::now();
                    tracer.record(name, id, rep, t0, t1);
                    busy.push((t1 - t0).as_secs_f64());
                    digest.update_debug(&report);
                    digest.update_debug(&data);
                }
                Sim::Fleet(config) => {
                    let outcome = simulate_fleet(workload, ctx, config);
                    let t1 = Instant::now();
                    tracer.record(name, id, rep, t0, t1);
                    busy.push((t1 - t0).as_secs_f64());
                    digest.update_debug(&outcome);
                }
            }
        }
        tracer.end(rep);
        (digest.value(), busy)
    }
}

/// An open-loop arrival schedule.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Offered rate \[requests/s\].
    pub rate_hz: f64,
    /// `(due offset, tenant, network)` per request, in send order.
    pub requests: Vec<(Duration, usize, usize)>,
    /// Seed of the arrival process.
    pub seed: u64,
}

impl Schedule {
    /// `count` requests at `rate_hz` on average with exponential gaps,
    /// stratified: the gaps are the exponential distribution's `count`
    /// quantile midpoints in a seeded random order, so every seed offers
    /// the same mix of gaps and only their order differs. The tenant and
    /// network of each request are the seeded `RequestSource` draws
    /// `loadgen` sends.
    pub fn open_loop(workload: &Workload, rate_hz: f64, count: usize, seed: u64) -> Self {
        #[allow(clippy::cast_precision_loss)]
        let mut gaps: Vec<f64> = (0..count)
            .map(|k| -(1.0 - (k as f64 + 0.5) / count as f64).ln() / rate_hz)
            .collect();
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x6A95_0000_0000_0000);
        for i in (1..count).rev() {
            #[allow(clippy::cast_possible_truncation)]
            let j = rng.range_u64(0, i as u64) as usize;
            gaps.swap(i, j);
        }
        let mut due = 0.0;
        let requests = RequestSource::new(workload, rate_hz, count, seed)
            .zip(gaps)
            .map(|(r, gap)| {
                due += gap;
                (Duration::from_secs_f64(due), r.tenant, r.network)
            })
            .collect();
        Self {
            rate_hz,
            requests,
            seed,
        }
    }

    /// Offset of the last request.
    pub fn span(&self) -> Duration {
        self.requests.last().map_or(Duration::ZERO, |r| r.0)
    }
}

/// What one live session measured, from the client's side.
#[derive(Debug)]
pub struct LiveOutcome {
    /// Requests sent.
    pub sent: u64,
    /// Answered `served`.
    pub served: u64,
    /// Answered `shed`.
    pub shed: u64,
    /// Never answered, or answered more than once, or with an unknown id.
    pub bad: u64,
    /// Client latency of each served request: due time to response frame \[ms\].
    pub latency_ms: Vec<f64>,
    /// Client latency minus the daemon-reported wait + service \[ms\].
    pub transport_ms: Vec<f64>,
    /// How late each request left the client after its due time \[ms\].
    pub late_ms: Vec<f64>,
    /// Arrival of each served response, after the first due time.
    pub completions: Vec<Duration>,
    /// Bind, daemon spawn and connect time \[s\].
    pub setup_s: f64,
}

impl LiveOutcome {
    /// Completions per second over the fastest run of `stretch`
    /// consecutive completions inside the sending window `[0, window)`:
    /// the goodput of the stretch the host ran fastest, as the fastest
    /// rep is for the CPU-bound phases. 0 with fewer completions.
    pub fn best_rate(&self, window: Duration, stretch: usize) -> f64 {
        let mut at: Vec<Duration> = self
            .completions
            .iter()
            .copied()
            .filter(|&t| t < window)
            .collect();
        at.sort_unstable();
        let k = stretch.max(2);
        at.windows(k)
            .map(|w| w[k - 1].saturating_sub(w[0]).as_secs_f64())
            .filter(|&span| span > 0.0)
            .map(|span| {
                #[allow(clippy::cast_precision_loss)]
                let rate = (k - 1) as f64 / span;
                rate
            })
            .fold(0.0, f64::max)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Lead between connecting and the first due time.
const LEAD: Duration = Duration::from_millis(20);

/// Where a live session's threads run.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    /// CPUs of the daemon's threads.
    pub daemon: CpuSet,
    /// CPUs of the client's threads.
    pub client: CpuSet,
}

/// Runs one in-process `pixel-served` session in functional mode on
/// [`live_accel`], its threads placed by `placement` when given (the
/// calling thread is left on the client CPUs), and drives it open-loop with `schedule` over
/// one default loopback `TcpStream`, using the shipped `wire` framing.
/// A sender thread writes each request at its due time; this thread
/// reads responses. Spans `wire.send` and `client.request` share the
/// request id.
///
/// # Errors
///
/// Returns a message on a socket or daemon error.
pub fn live_session(
    workload: &Workload,
    ctx: &EvalContext,
    schedule: &Schedule,
    placement: Option<&Placement>,
    tracer: &mut Tracer,
) -> Result<(LiveOutcome, ServeReport), String> {
    let t_setup = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let n = schedule.requests.len();
    let config = DaemonConfig {
        serve: ServeConfig::new(live_accel(), schedule.rate_hz, n, schedule.seed),
        time_scale: 1.0,
        mode: ServiceMode::Functional,
        event_capacity: 0,
    };
    std::thread::scope(|scope| {
        // Threads inherit the spawning thread's CPU set: the daemon's
        // (engine, acceptor, readers) get the daemon CPU, the client's
        // sender the client CPUs.
        if let Some(p) = placement {
            affinity::pin(&p.daemon);
        }
        let daemon = scope.spawn(|| daemon::run(listener, workload, ctx, &config));
        if let Some(p) = placement {
            affinity::pin(&p.client);
        }
        let client = match TcpStream::connect(addr) {
            Ok(stream) => drive(stream, schedule, t_setup, tracer),
            Err(e) => Err(format!("connect: {e}")),
        };
        if client.is_err() {
            // The daemon runs until a drain frame arrives: send one on a
            // fresh connection so the scope can join it.
            stop_daemon(addr);
        }
        let joined = daemon
            .join()
            .map_err(|_| "daemon thread panicked".to_owned())?;
        let (report, _) = joined.map_err(|e| format!("daemon: {e}"))?;
        Ok((client?, report))
    })
}

fn stop_daemon(addr: SocketAddr) {
    if let Ok(mut stream) = TcpStream::connect(addr) {
        if wire::write_frame(&mut stream, &wire::drain_frame()).is_ok() {
            while let Ok(Some(_)) = wire::read_frame(&mut stream) {}
        }
    }
}

/// Sends `schedule` on `stream` from a sender thread and collects the
/// responses here until the daemon's stats frame.
fn drive(
    stream: TcpStream,
    schedule: &Schedule,
    t_setup: Instant,
    tracer: &mut Tracer,
) -> Result<LiveOutcome, String> {
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let setup_s = t_setup.elapsed().as_secs_f64();
    let start = Instant::now() + LEAD;
    let n = schedule.requests.len();
    let mut send_tracer = tracer.fork();
    // Buffered reads cut the client's syscalls; the socket itself keeps
    // its defaults, as `loadgen`'s does.
    let mut reader = std::io::BufReader::new(stream);
    let mut responses: Vec<Option<(Instant, WireResponse)>> = vec![None; n];
    let mut bad = 0u64;
    let sent = std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> std::io::Result<Vec<Instant>> {
            let mut sent = Vec::with_capacity(n);
            for (i, &(offset, tenant, network)) in schedule.requests.iter().enumerate() {
                let due = start + offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let t0 = Instant::now();
                let request = WireRequest {
                    id: i as u64,
                    tenant,
                    network,
                };
                wire::write_frame(&mut writer, &request.to_json())?;
                send_tracer.record("wire.send", i as u64, None, t0, Instant::now());
                sent.push(t0);
            }
            wire::write_frame(&mut writer, &wire::drain_frame())?;
            Ok(sent)
        });
        while let Ok(Some(body)) = wire::read_frame(&mut reader) {
            let now = Instant::now();
            // Anything but a response is the stats frame closing the
            // session.
            let Some(r) = wire::parse_response(&body) else {
                break;
            };
            match usize::try_from(r.id)
                .ok()
                .and_then(|i| responses.get_mut(i))
            {
                Some(slot @ None) => *slot = Some((now, r)),
                _ => bad += 1,
            }
        }
        sender.join()
    });
    let sent = sent
        .map_err(|_| "sender thread panicked".to_owned())?
        .map_err(|e| format!("send: {e}"))?;
    tracer.absorb(send_tracer);

    let mut outcome = LiveOutcome {
        sent: sent.len() as u64,
        served: 0,
        shed: 0,
        bad,
        latency_ms: Vec::with_capacity(n),
        transport_ms: Vec::with_capacity(n),
        late_ms: Vec::with_capacity(n),
        completions: Vec::with_capacity(n),
        setup_s,
    };
    for (i, (&(offset, _, _), response)) in schedule.requests.iter().zip(&responses).enumerate() {
        let due = start + offset;
        if let Some(&t0) = sent.get(i) {
            outcome.late_ms.push(ms(t0.saturating_duration_since(due)));
        }
        match response {
            None => outcome.bad += 1,
            Some((_, r)) if !r.served => outcome.shed += 1,
            Some((at, r)) => {
                outcome.served += 1;
                let latency = at.saturating_duration_since(due);
                let daemon = Duration::from_nanos(r.wait_ns + r.service_ns);
                outcome.latency_ms.push(ms(latency));
                outcome.transport_ms.push(ms(latency) - ms(daemon));
                outcome
                    .completions
                    .push(at.saturating_duration_since(start));
                tracer.record("client.request", i as u64, None, due, *at);
            }
        }
    }
    Ok(outcome)
}
