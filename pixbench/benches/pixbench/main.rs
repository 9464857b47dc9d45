//! `pixbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo bench --offline --quiet --manifest-path pixbench/Cargo.toml --bench pixbench -- \
//!     --workload <lenet_b64|serve_paper_mix> --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run sets up its inputs from `--seed` (several times, reporting
//! the median), then measures three phases for about `--seconds` in
//! all:
//!
//! 1. **fabric** — bit-true passes of the workload's conv/FC/pool layers
//!    on EE, OE and OO, interleaved pass by pass, every output checked
//!    against `DirectMac` and every conv's detected-word count checked;
//! 2. **sim** — the serve simulator on EE/OE/OO at three loads plus a
//!    4-shard OO fleet under two routers, every rep's report digest
//!    checked against the set-up reference;
//! 3. **live** — an in-process functional-mode `pixel-served` on OO,
//!    driven open-loop over one loopback connection at 100 req/s
//!    (latency) and 2000 req/s (goodput), every request accounted.
//!
//! The workloads differ in the fabric phase's input; the sim and live
//! phases are the same in both, so every workload reports every
//! end-to-end metric and a change that does not touch serving predicts
//! no change in the serving metrics of any workload. Throughputs and
//! set-up time are reported at a reference host speed measured by
//! [`gauge`] slices run between the calls.
//!
//! The last line of standard output is the JSON result. With
//! `--trace 1` the run records spans around every layer call, writes
//! them to `.bench_trace/<workload>-<seed>.jsonl` at the repository
//! root, and reports the per-layer metrics instead of the end-to-end
//! ones.

mod affinity;
mod fabric;
mod gauge;
mod serving;
mod stats;
mod trace;

use fabric::{Case, Unit, CONV_STEMS, DESIGNS};
use gauge::Gauge;
use pixel_core::model::EvalContext;
use pixel_serve::{ServeReport, Workload};
use serving::{live_session, LiveOutcome, Placement, Schedule, SimPlan};
use stats::{median, percentile, sorted, sum_of_fastest, Digest, Metrics, Tally};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Times set-up runs per run; `setup_s` is their median. Even, so the
/// median straddles both CPUs of a 2-CPU host.
const SETUP_REPS: usize = 8;
/// Minimum timed fabric rounds (one pass per design each): two per
/// CPU on a 2-CPU host, and in a traced run two traced and two untraced.
const MIN_FABRIC_ROUNDS: usize = 4;
/// Share of the compute phase's time the simulations get.
const SIM_SHARE: f64 = 0.2;
/// Requests per simulation in a sim rep.
const SIM_REQUESTS: usize = 4000;
/// Open-loop rate of the latency session \[req/s\].
const LATENCY_RATE: f64 = 100.0;
/// Open-loop rate of the goodput sessions \[req/s\]: about twice the
/// functional daemon's capacity on a 2-core host.
const GOODPUT_RATE: f64 = 2000.0;
/// Requests per goodput session (0.6 s at `GOODPUT_RATE`).
const GOODPUT_REQUESTS: usize = 1200;
/// Goodput sessions per run, spread evenly from the start to the end of
/// the compute phase.
const GOODPUT_SESSIONS: usize = 16;
/// Consecutive completions `serve_goodput_rps` times (about a third of
/// a second of a saturated daemon).
const GOODPUT_STRETCH: usize = 250;
/// Requests in the latency session: p99 then has ten samples above it.
const LATENCY_REQUESTS: usize = 1000;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 30, false);
    while let Some(flag) = args.next() {
        if flag == "--bench" {
            // Appended by `cargo bench` itself.
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Time the interleaved compute phase gets: `--seconds` less the
/// latency session, and at least a third of it.
fn compute_budget(seconds: u64) -> Duration {
    #[allow(clippy::cast_precision_loss)]
    let s = seconds as f64;
    #[allow(clippy::cast_precision_loss)]
    let latency_s = LATENCY_REQUESTS as f64 / LATENCY_RATE;
    Duration::from_secs_f64((s - latency_s).max(s / 3.0))
}

/// Everything set-up produces: inputs, weights, reference outputs,
/// engines, the model context and the request schedules.
struct Prepared {
    case: Case,
    units: Vec<Unit>,
    ctx: EvalContext,
    model: Vec<(&'static str, f64, f64)>,
    workload: Workload,
    sims: SimPlan,
    sim_digest: u64,
    latency: Schedule,
    goodput: Schedule,
    digest: u64,
}

fn prepare(args: &Args) -> Result<Prepared, String> {
    let case = Case::build(&args.workload, args.seed)?;
    let units = case.units(args.trace);
    let ctx = EvalContext::new();
    let model = case.model(&ctx);
    let workload = Workload::paper_mix();
    let sims = SimPlan::new(&workload, &ctx, SIM_REQUESTS, args.seed);
    let (sim_digest, _) = sims.run(&workload, &ctx, &mut Tracer::new(false, Instant::now()), 0);
    let latency = Schedule::open_loop(&workload, LATENCY_RATE, LATENCY_REQUESTS, args.seed);
    let goodput = Schedule::open_loop(
        &workload,
        GOODPUT_RATE,
        GOODPUT_REQUESTS,
        args.seed.wrapping_add(1),
    );
    let mut digest = Digest::default();
    case.digest_reference(&mut digest);
    digest.update_debug(&model);
    digest.update(&sim_digest.to_le_bytes());
    Ok(Prepared {
        case,
        units,
        ctx,
        model,
        workload,
        sims,
        sim_digest,
        latency,
        goodput,
        digest: digest.value(),
    })
}

/// Accounts one live session: every request sent is one operation; it
/// fails when it is never answered (or answered twice), or when it is
/// shed and `shed_fails`. The daemon's own counts must agree with the
/// client's.
fn account_live(outcome: &LiveOutcome, report: &ServeReport, shed_fails: bool) -> Tally {
    let failed = outcome.bad + if shed_fails { outcome.shed } else { 0 };
    let mut tally = Tally {
        attempted: outcome.sent,
        failed: failed.min(outcome.sent),
    };
    tally.check(
        outcome.served + outcome.shed == outcome.sent
            && report.arrivals == outcome.sent
            && report.completed == outcome.served
            && report.dropped == outcome.shed,
    );
    tally
}

/// What the measured phases produce.
struct Measured {
    times: fabric::PhaseTimes,
    sim_reps: Vec<Vec<f64>>,
    goodput: Vec<(LiveOutcome, ServeReport)>,
    latency: (LiveOutcome, ServeReport),
    tally: Tally,
}

/// The measured part of a run. After one untimed warm-up pass per unit
/// and one warm-up simulation rep, the compute phase runs rounds of one
/// fabric pass per unit (the order rotating each round, so slow host
/// drift hits every design alike) for `budget` and at least
/// [`MIN_FABRIC_ROUNDS`] rounds. Simulation reps run between passes,
/// holding them at [`SIM_SHARE`] of the elapsed time, and the goodput
/// sessions run spread evenly from its start to its end: every phase's
/// samples spread over the whole window instead of one stretch of it. The
/// latency session follows. In a traced run, tracing is on in every
/// other pair of rounds; the rest measure the same passes untraced. A
/// `gauge` slice runs before every pass and after every simulation rep.
fn measure(
    p: &Prepared,
    budget: Duration,
    trace: bool,
    tracer: &mut Tracer,
    gauge: &mut Gauge,
) -> Result<Measured, String> {
    // Each round runs on the next CPU (see `affinity`), and live session
    // `i` puts the daemon's threads on CPU `i` and the client's on the
    // others, so the goodput sessions, too, sample every CPU.
    let cpus = affinity::Rotation::new();
    let placement = |i: usize| {
        cpus.split(i)
            .map(|(daemon, client)| Placement { daemon, client })
    };
    let mut tally = Tally::default();
    tracer.set_on(false);
    for unit in &p.units {
        let (_, t) = fabric::run_pass(&p.case, unit, tracer, 0).map_err(|e| e.to_string())?;
        tally.merge(t);
    }
    let (digest, _) = p.sims.run(&p.workload, &p.ctx, tracer, 0);
    tally.check(digest == p.sim_digest);
    tracer.set_on(trace);

    let mut goodput = Vec::with_capacity(GOODPUT_SESSIONS);
    let mut times = fabric::PhaseTimes::default();
    let mut sim_reps: Vec<Vec<f64>> = Vec::new();
    let mut sim_spent = Duration::ZERO;
    let start = Instant::now();
    let mut round = 0;
    while round < MIN_FABRIC_ROUNDS || start.elapsed() < budget {
        cpus.unpin();
        if goodput.len() < GOODPUT_SESSIONS - 1
            && start.elapsed()
                >= budget.mul_f64(goodput.len() as f64 / (GOODPUT_SESSIONS - 1) as f64)
        {
            tracer.set_on(trace);
            let place = placement(goodput.len());
            goodput.push(live_session(
                &p.workload,
                &p.ctx,
                &p.goodput,
                place.as_ref(),
                tracer,
            )?);
            cpus.unpin();
        }
        cpus.pin_turn(round);
        let traced = trace && round / 2 % 2 == 1;
        tracer.set_on(traced);
        for k in 0..p.units.len() {
            let unit = &p.units[(round + k) % p.units.len()];
            let id = (round * p.units.len() + k + 1) as u64;
            gauge.sample();
            let (steps, t) =
                fabric::run_pass(&p.case, unit, tracer, id).map_err(|e| e.to_string())?;
            tally.merge(t);
            times.passes.push((unit.label, traced, steps));
            while sim_spent.as_secs_f64() < SIM_SHARE * start.elapsed().as_secs_f64() {
                let t0 = Instant::now();
                let (digest, busy) =
                    p.sims
                        .run(&p.workload, &p.ctx, tracer, sim_reps.len() as u64 + 1);
                sim_spent += t0.elapsed();
                gauge.sample();
                tally.check(digest == p.sim_digest);
                sim_reps.push(busy);
            }
        }
        round += 1;
    }
    cpus.unpin();
    tracer.set_on(trace);
    let place = placement(goodput.len());
    goodput.push(live_session(
        &p.workload,
        &p.ctx,
        &p.goodput,
        place.as_ref(),
        tracer,
    )?);
    for (g, report) in &goodput {
        tally.merge(account_live(g, report, false));
    }
    let place = placement(goodput.len());
    let latency = live_session(&p.workload, &p.ctx, &p.latency, place.as_ref(), tracer)?;
    cpus.unpin();
    tally.merge(account_live(&latency.0, &latency.1, true));
    Ok(Measured {
        times,
        sim_reps,
        goodput,
        latency,
        tally,
    })
}

fn pct(values: &[f64], p: f64) -> f64 {
    percentile(&sorted(values), p)
}

#[allow(clippy::too_many_lines)]
fn run(args: &Args) -> Result<(), String> {
    // Set-up reps take turns on the CPUs, as the measured rounds do,
    // each followed by a gauge slice on the same CPU.
    let cpus = affinity::Rotation::new();
    let mut gauge = Gauge::new();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut timed_prepare = |turn: usize| -> Result<Prepared, String> {
        cpus.pin_turn(turn);
        let t0 = Instant::now();
        let p = prepare(args)?;
        setup.push(t0.elapsed().as_secs_f64());
        gauge.sample();
        cpus.unpin();
        Ok(p)
    };
    let mut p = timed_prepare(0)?;
    for turn in 1..SETUP_REPS {
        p = timed_prepare(turn)?;
    }
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let m = measure(
        &p,
        compute_budget(args.seconds),
        args.trace,
        &mut tracer,
        &mut gauge,
    )?;
    let (times, sim_reps, tally) = (&m.times, &m.sim_reps, m.tally);
    let (latency, latency_report) = (&m.latency.0, &m.latency.1);

    // Every live session pays its own bind + connect; the median session
    // stands for each, so one slow connect does not move the sum.
    let mut session_setup: Vec<f64> = m.goodput.iter().map(|(g, _)| g.setup_s).collect();
    session_setup.push(latency.setup_s);
    #[allow(clippy::cast_precision_loss)]
    let sessions = session_setup.len() as f64;
    let setup_s = median(&setup) + sessions * median(&session_setup);
    #[allow(clippy::cast_precision_loss)]
    let macs = p.case.macs() as f64;

    // Raw host figures, then the reported ones at the reference speed.
    let mut raw = Metrics::default();
    raw.push("setup_s", setup_s, "s");
    for (_, label) in DESIGNS {
        raw.push(
            format!("{label}_macs_per_s"),
            macs / times.best_pass(label, false),
            "MAC/s",
        );
    }
    #[allow(clippy::cast_precision_loss)]
    let sim_requests = p.sims.requests as f64;
    raw.push(
        "sim_requests_per_s",
        sim_requests / sum_of_fastest(sim_reps),
        "req/s",
    );
    raw.push(
        "serve_goodput_rps",
        m.goodput
            .iter()
            .map(|(g, _)| g.best_rate(p.goodput.span(), GOODPUT_STRETCH))
            .fold(0.0, f64::max),
        "req/s",
    );
    let speed = gauge.speed();
    let session_rates: Vec<String> = m
        .goodput
        .iter()
        .map(|(g, _)| format!("{:.1}", g.best_rate(p.goodput.span(), GOODPUT_STRETCH)))
        .collect();
    println!("goodput sessions [req/s]: {}", session_rates.join(" "));
    let mut e2e = Metrics::default();
    for (name, value, unit) in raw.entries() {
        let scaled = if *unit == "s" {
            value * speed
        } else {
            value / speed
        };
        e2e.push(name.clone(), scaled, unit);
    }
    e2e.push("serve_p50_ms", pct(&latency.latency_ms, 50.0), "ms");
    e2e.push("serve_p99_ms", pct(&latency.latency_ms, 99.0), "ms");

    let mut layers = Metrics::default();
    if args.trace {
        let t = &tracer;
        let is_pass = |n: &str| n.starts_with("pass.");
        let direct_conv = t.median_child_sum_ms(
            |n| n == "pass.direct",
            |n| {
                CONV_STEMS
                    .iter()
                    .any(|s| n.strip_prefix("direct.") == Some(*s))
            },
        );
        for (_, d) in DESIGNS {
            let pass = format!("pass.{d}");
            for stem in CONV_STEMS {
                layers.push(
                    format!("fabric.{d}.{stem}_ms"),
                    t.median_ms(&format!("fabric.{d}.{stem}")),
                    "ms",
                );
            }
            let conv = t.median_child_sum_ms(|n| n == pass, |n| n.starts_with("fabric."));
            layers.push(format!("fabric.{d}.conv_ms"), conv, "ms");
            layers.push(
                format!("omac.{d}.fc_ms"),
                t.median_child_sum_ms(|n| n == pass, |n| n.starts_with("omac.")),
                "ms",
            );
            layers.push(format!("fabric.{d}.vs_direct"), direct_conv / conv, "ratio");
        }
        layers.push(
            "dnn.pool_ms",
            t.median_child_sum_ms(is_pass, |n| n == "dnn.pool"),
            "ms",
        );
        layers.push(
            "dnn.requant_ms",
            t.median_child_sum_ms(is_pass, |n| n == "dnn.requant"),
            "ms",
        );
        layers.push(
            "dnn.direct_ms",
            t.median_child_sum_ms(|n| n == "pass.direct", |_| true),
            "ms",
        );
        layers.push(
            "fabric.tail_window_share",
            p.case.tail_window_share(),
            "share",
        );
        for (d, latency_us, energy_uj) in &p.model {
            layers.push(format!("model.{d}.latency_us"), *latency_us, "us");
            layers.push(format!("model.{d}.energy_uj"), *energy_uj, "uJ");
        }
        let per_request = |name: &str, requests: usize| {
            #[allow(clippy::cast_precision_loss)]
            let ns =
                t.median_child_sum_ms(|n| n == "sim.rep", |n| n == name) * 1e6 / requests as f64;
            ns
        };
        for (_, d) in DESIGNS {
            layers.push(
                format!("serve.sim.{d}.ns_per_request"),
                per_request(&format!("serve.sim.{d}"), 3 * SIM_REQUESTS),
                "ns",
            );
        }
        layers.push(
            "fleet.sim.ns_per_request",
            per_request("fleet.sim", 2 * SIM_REQUESTS),
            "ns",
        );
        layers.push(
            "wire.transport_p50_ms",
            pct(&latency.transport_ms, 50.0),
            "ms",
        );
        layers.push(
            "wire.transport_p99_ms",
            pct(&latency.transport_ms, 99.0),
            "ms",
        );
        let ms = |t: pixel_units::Time| t.value() * 1e3;
        layers.push(
            "daemon.wait_p50_ms",
            ms(latency_report.queue_wait.p50),
            "ms",
        );
        layers.push(
            "daemon.service_p50_ms",
            ms(latency_report.service.p50),
            "ms",
        );
        layers.push(
            "daemon.service_p99_ms",
            ms(latency_report.service.p99),
            "ms",
        );
        layers.push("daemon.mean_batch", latency_report.mean_batch, "requests");
        let (shed, sent) = m.goodput.iter().fold((0, 0), |(shed, sent), (g, _)| {
            (shed + g.shed, sent + g.sent)
        });
        #[allow(clippy::cast_precision_loss)]
        let shed_share = shed as f64 / sent.max(1) as f64;
        layers.push("daemon.shed_share", shed_share, "share");
        layers.push("loadgen.late_p99_ms", pct(&latency.late_ms, 99.0), "ms");
        let mut overhead = Vec::new();
        for (_, d) in DESIGNS {
            overhead.push(times.best_pass(d, true) / times.best_pass(d, false) - 1.0);
        }
        layers.push("trace.overhead_pct", 100.0 * median(&overhead), "%");

        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.bench_trace");
        let file = dir.join(format!("{}-{}.jsonl", args.workload, args.seed));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&file, tracer.to_jsonl()))
            .map_err(|e| format!("writing {}: {e}", file.display()))?;
        println!(
            "trace: {} spans in {}",
            tracer.spans().len(),
            file.display()
        );
    }

    println!(
        "pixbench {} seed {} seconds {}: {} fabric passes, {} sim reps, {} + {}×{} live requests",
        args.workload,
        args.seed,
        args.seconds,
        times.passes.len(),
        sim_reps.len(),
        latency.sent,
        m.goodput.len(),
        GOODPUT_REQUESTS,
    );
    println!(
        "gauge: fastest of {} slices {:.4} ms, host speed {:.4} × reference",
        gauge.slices(),
        gauge.fastest() * 1e3,
        speed
    );
    println!(
        "setup: median of {} set-ups {:.4} s, {} live sessions × {:.4} s",
        setup.len(),
        median(&setup),
        session_setup.len(),
        median(&session_setup)
    );
    println!("raw (host speed):\n{}", raw.table());
    println!("end-to-end (reference speed):\n{}", e2e.table());
    if args.trace {
        println!("per-layer:\n{}", layers.table());
    }
    println!("digest: {:#018x}", p.digest);
    let reported = if args.trace { &layers } else { &e2e };
    let defects = reported.defects();
    for d in &defects {
        eprintln!("pixbench: {d}");
    }
    let correct = tally.failed == 0 && defects.is_empty();
    println!(
        "{}",
        reported.result_line(correct, tally.attempted, tally.failed)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pixbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pixbench: {e}");
            ExitCode::FAILURE
        }
    }
}
