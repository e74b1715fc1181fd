//! `serve-fig6`: the steady state of a resident `rxd` serving many
//! independent callers, with no store.
//!
//! The mix is the seven Figure 6 kernels plus the four §6.3 mutants, so
//! the wire, the queue, parse and type-check, the abstraction rebuild,
//! warm-cache proof search and the checker all show, and failing
//! verdicts are timed beside proofs. Two phases run against one daemon:
//!
//! * closed loop, one connection per core, for `throughput_rps` — the
//!   capacity that bounds the highest sustainable rate — and for
//!   `latency_p99_ms`. It runs first because the open loop's rate is
//!   derived from it;
//! * open loop at half of that capacity, for `latency_p50_ms`: seeded
//!   Poisson arrivals over one pipelined connection, each request timed
//!   from its due time, so a stall also charges the requests queued
//!   behind it. The rate follows the measured capacity, and a misestimate
//!   moves the utilisation; at half load the queueing delay is half as
//!   sensitive to that as at 70% (1/(1-u) has slope 4 at u = 0.5 against
//!   11 at 0.7).
//!
//! The p99 comes from the closed loop because in the open loop a host
//! stall charges every request that arrives during it: the share of
//! samples one stall reaches is the share of the run it lasts, whatever
//! the rate, so the open-loop p99 measured how often a shared host
//! stalled, and moved by 26% (IQR/median) between seeds on a 2-core VM.
//! In the closed loop a stall delays one request per connection. The
//! open-loop p99 is still printed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use reflex_driver::{Instrument, NullSink, SessionReport};
use reflex_rng::{derive, RngExt, SimRng};
use reflex_service::protocol::{encode_request, MAX_FRAME, REQUEST};
use reflex_service::{Reply, ServiceConfig, ServiceCore, ServiceError, Ticket};
use reflex_verify::ProofCache;

use crate::cold;
use crate::gate::{fig6_mix, judge, Job, Pins, Verdict};
use crate::layers::{self, record_counters, record_protocol, Layers, Stamps};
use crate::stats::{median, ms, percentile, put_p99, windowed_rate, Report, Tally, RATE_WINDOWS};
use crate::wire::{Answer, Conn, Daemon};
use crate::{Ctx, RunOutput, SETUP_ROUNDS};

/// Share of capacity the open loop offers.
const LOAD: f64 = 0.5;

/// The daemon's peak RSS is read once the closed loop has this many
/// replies, so it measures the same amount of service whatever the
/// run's speed.
const RSS_REPLIES: u64 = 4000;

/// Layers on the path from a request's arrival to its verdict.
const BLOCKING: [&str; 8] = [
    "core.queue_wait_ms",
    "parse.us",
    "typecheck.us",
    "abstraction.build_ms",
    "prove.search_ms",
    "check.ms",
    "protocol.reply_encode_us",
    "protocol.reply_decode_us",
];

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<RunOutput, String> {
    let jobs = fig6_mix()?;
    let pins = Mutex::new(Pins::default());
    let socket = ctx.work.join("serve.sock");
    let mut out = RunOutput::default();

    let mut setup_s = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_ROUNDS {
        if let Some(old) = daemon.take() {
            Daemon::shutdown(old)?;
        }
        let t = Instant::now();
        let (d, mut conn) = Daemon::spawn(&ctx.rxd, &socket, ctx.nproc, None)?;
        warm_up(&mut conn, &jobs, &pins)?;
        setup_s.push(t.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up round");

    let closed = closed_loop(
        ctx,
        &jobs,
        &pins,
        ctx.span(if ctx.trace { 0.15 } else { 0.45 }),
        &daemon,
    )?;
    out.tally.add(closed.tally);
    let rate = LOAD * closed.throughput;
    let open_span = ctx.span(if ctx.trace { 0.15 } else { 0.55 });
    let untraced = open_loop(ctx, &jobs, &pins, rate, open_span, false)?;
    out.tally.add(untraced.tally);
    let report = &mut out.report;
    report.note(format!(
        "closed loop: {} connections, {} requests, {:.1} req/s",
        ctx.nproc, closed.tally.attempted, closed.throughput
    ));
    untraced.describe(report, rate, "open loop");

    if ctx.trace {
        let traced = open_loop(ctx, &jobs, &pins, rate, open_span, true)?;
        out.tally.add(traced.tally);
        traced.describe(report, rate, "open loop, traced");
        let mut layers = traced.layers;
        out.tally.add(in_process(
            ctx,
            &jobs,
            &pins,
            rate,
            ctx.span(0.1),
            &mut layers,
        )?);
        out.tally
            .add(direct(&jobs, &pins, ctx.span(0.1), &mut layers)?);
        layers.merge(cold::measure(ctx, ctx.span(0.35), report, &mut out.tally)?);
        layers.report(report)?;
        layers::attribute(
            report,
            "",
            &layers,
            median(&untraced.latencies),
            median(&traced.latencies),
            &BLOCKING,
        );
    } else {
        report.put("latency_p50_ms", median(&untraced.latencies), "ms");
        put_p99(report, &closed.latencies);
        report.note(format!(
            "latency_p50_ms: {} open-loop samples, timed from due time; latency_p99_ms: closed loop, timed from send; open-loop p99 {:.3} ms",
            untraced.latencies.len(),
            percentile(&untraced.latencies, 0.99)
        ));
        report.put("throughput_rps", closed.throughput, "1/s");
        let rss = match closed.rss_mb {
            Some(rss) => {
                report.note(format!(
                    "peak_rss_mb: the daemon's VmHWM after {RSS_REPLIES} closed-loop replies"
                ));
                rss
            }
            None => {
                report.note(format!(
                    "peak_rss_mb: fewer than {RSS_REPLIES} closed-loop replies; VmHWM at the end"
                ));
                daemon.peak_rss_mb()?
            }
        };
        report.put("peak_rss_mb", rss, "MiB");
        report.put("setup_s", median(&setup_s), "s");
        report.note(format!(
            "setup_s: median of {SETUP_ROUNDS} rounds of daemon spawn, handshake and a warm-up pass over the {} jobs",
            jobs.len()
        ));
    }
    report.note(format!(
        "largest reply {} bytes, frame cap {MAX_FRAME} bytes",
        untraced.max_reply
    ));
    daemon.shutdown()?;
    Ok(out)
}

/// One pass over every job on a fresh daemon: pins each certificate
/// digest and fails set-up on any wrong verdict.
fn warm_up(conn: &mut Conn, jobs: &[Job], pins: &Mutex<Pins>) -> Result<(), String> {
    for (i, job) in jobs.iter().enumerate() {
        let frame = conn.call(i as u64 + 1, &job.request(false), &mut |_| {})?;
        let Answer::Report(report) = Answer::of(&frame) else {
            return Err(format!("set-up: {}: no verify report", job.name));
        };
        if !judge(
            job,
            &Verdict::of(&report),
            &mut pins.lock().expect("pins poisoned"),
        ) {
            return Err(format!(
                "set-up: {}: wrong verdict or certificate digest",
                job.name
            ));
        }
    }
    Ok(())
}

/// Judges one terminal frame into `tally`; returns the report if any.
fn tally_answer(
    frame_answer: Answer,
    job: &Job,
    pins: &Mutex<Pins>,
    tally: &mut Tally,
) -> Option<Box<SessionReport>> {
    match frame_answer {
        Answer::Report(report) => {
            if !judge(
                job,
                &Verdict::of(&report),
                &mut pins.lock().expect("pins poisoned"),
            ) {
                eprintln!(
                    "perfbench: {}: wrong verdict or certificate digest",
                    job.name
                );
                tally.wrong += 1;
            }
            Some(report)
        }
        Answer::Refused(e) => {
            eprintln!("perfbench: {}: refused: {e}", job.name);
            tally.refused += 1;
            None
        }
        Answer::Broken(e) => {
            eprintln!("perfbench: {}: {e}", job.name);
            tally.errors += 1;
            None
        }
    }
}

struct ClosedLoop {
    tally: Tally,
    /// Each verdict's latency from send, ms, in completion order.
    latencies: Vec<f64>,
    throughput: f64,
    rss_mb: Option<f64>,
}

/// One closed-loop connection per core, each sending its next request
/// when the previous reply arrives.
fn closed_loop(
    ctx: &Ctx,
    jobs: &[Job],
    pins: &Mutex<Pins>,
    span: Duration,
    daemon: &Daemon,
) -> Result<ClosedLoop, String> {
    let socket = ctx.work.join("serve.sock");
    let replies = AtomicU64::new(0);
    let rss_mb = Mutex::new(None);
    let start = Instant::now();
    let end = start + span;
    let results: Vec<Result<(Tally, Vec<f64>, Vec<(f64, f64)>), String>> =
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..ctx.nproc)
                .map(|c| {
                    let (socket, replies, rss_mb) = (&socket, &replies, &rss_mb);
                    s.spawn(move || {
                        let mut conn = Conn::connect(socket)?;
                        let mut rng = SimRng::new(derive(ctx.seed, &format!("closed-{c}")));
                        let mut tally = Tally::default();
                        let mut done_at = Vec::new();
                        let mut timed = Vec::new();
                        while Instant::now() < end {
                            let job = &jobs[rng.below(jobs.len())];
                            tally.attempted += 1;
                            let sent = Instant::now();
                            let frame =
                                conn.call(tally.attempted, &job.request(false), &mut |_| {})?;
                            let answer = Answer::of(&frame);
                            let latency = ms(sent.elapsed());
                            let at = start.elapsed().as_secs_f64();
                            if tally_answer(answer, job, pins, &mut tally).is_some() {
                                timed.push((at, latency));
                            }
                            done_at.push(at);
                            if replies.fetch_add(1, Ordering::Relaxed) + 1 == RSS_REPLIES {
                                *rss_mb.lock().expect("rss slot poisoned") =
                                    Some(daemon.peak_rss_mb()?);
                            }
                        }
                        Ok((tally, done_at, timed))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("closed-loop thread panicked"))
                .collect()
        });
    let mut tally = Tally::default();
    let mut done_at = Vec::new();
    let mut timed = Vec::new();
    for r in results {
        let (t, d, l) = r?;
        tally.add(t);
        done_at.extend(d);
        timed.extend(l);
    }
    // In completion order, so that each p99 window is a stretch of time.
    timed.sort_by(|a, b| a.0.total_cmp(&b.0));
    Ok(ClosedLoop {
        tally,
        latencies: timed.into_iter().map(|(_, l)| l).collect(),
        throughput: windowed_rate(&done_at, span.as_secs_f64(), RATE_WINDOWS),
        rss_mb: rss_mb.into_inner().expect("rss slot poisoned"),
    })
}

/// A seeded Poisson arrival schedule: `(due seconds, job index)`. The
/// traced and untraced phases draw the same schedule.
fn schedule(seed: u64, jobs: usize, rate: f64, span: Duration) -> Vec<(f64, usize)> {
    let mut rng = SimRng::new(derive(seed, "open"));
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        t += -(1.0 - u).ln() / rate;
        if t >= span.as_secs_f64() {
            return out;
        }
        out.push((t, rng.below(jobs)));
    }
}

/// Sleeps until `at`; returns how late the wake-up was, in ms.
fn sleep_until(at: Instant) -> f64 {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
    ms(Instant::now().saturating_duration_since(at))
}

#[derive(Default)]
struct OpenLoop {
    latencies: Vec<f64>,
    lateness: Vec<f64>,
    tally: Tally,
    layers: Layers,
    events: u64,
    max_reply: usize,
}

impl OpenLoop {
    fn describe(&self, report: &mut Report, rate: f64, phase: &str) {
        report.note(format!(
            "{phase}: {:.1} req/s offered over one pipelined connection, {} requests, {} latency samples; generator lateness p50 {:.3} ms, p99 {:.3} ms; {} event frames",
            rate,
            self.tally.attempted,
            self.latencies.len(),
            median(&self.lateness),
            percentile(&self.lateness, 0.99),
            self.events
        ));
    }
}

/// The open loop over one pipelined connection: this thread sends on
/// schedule, a second one reads replies. `traced` asks the daemon to
/// stream its session events with every request.
fn open_loop(
    ctx: &Ctx,
    jobs: &[Job],
    pins: &Mutex<Pins>,
    rate: f64,
    span: Duration,
    traced: bool,
) -> Result<OpenLoop, String> {
    let plan = schedule(ctx.seed, jobs.len(), rate, span);
    let payloads: Vec<Vec<u8>> = jobs
        .iter()
        .map(|j| encode_request(&j.request(traced)))
        .collect();
    let mut conn = Conn::connect(&ctx.work.join("serve.sock"))?;
    let mut reader = conn.try_clone()?;
    let start = Instant::now();
    let due = |secs: f64| start + Duration::from_secs_f64(secs);
    std::thread::scope(|s| {
        let receiver = s.spawn(|| -> Result<OpenLoop, String> {
            let mut got = OpenLoop::default();
            for _ in 0..plan.len() {
                let mut events = 0;
                let frame = reader.read_terminal(&mut |_| events += 1)?;
                got.events += events;
                let answer = Answer::of(&frame);
                let at = Instant::now();
                let Some(&(due_s, k)) = usize::try_from(frame.request_id)
                    .ok()
                    .and_then(|id| plan.get(id.wrapping_sub(1)))
                else {
                    got.tally.errors += 1;
                    continue;
                };
                got.max_reply = got.max_reply.max(frame.payload.len());
                if let Some(report) = tally_answer(answer, &jobs[k], pins, &mut got.tally) {
                    got.latencies
                        .push(ms(at.saturating_duration_since(due(due_s))));
                    if traced {
                        record_counters(&report, &mut got.layers);
                    }
                }
            }
            Ok(got)
        });
        let mut lateness = Vec::with_capacity(plan.len());
        for (i, &(due_s, k)) in plan.iter().enumerate() {
            lateness.push(sleep_until(due(due_s)));
            if let Err(e) = conn.send(REQUEST, i as u64 + 1, payloads[k].clone()) {
                conn.close();
                return Err(e);
            }
        }
        let mut got = receiver.join().expect("receiver thread panicked")?;
        got.tally.attempted = plan.len() as u64;
        got.lateness = lateness;
        Ok(got)
    })
}

/// Replays the open-loop schedule into an in-process `ServiceCore`
/// configured like the daemon, with a timestamping sink on every
/// request: queue wait, refusals and the session's own stage times.
fn in_process(
    ctx: &Ctx,
    jobs: &[Job],
    pins: &Mutex<Pins>,
    rate: f64,
    span: Duration,
    layers: &mut Layers,
) -> Result<Tally, String> {
    let core = ServiceCore::start(ServiceConfig {
        jobs: 1,
        workers: ctx.nproc,
        queue_cap: 4096,
        ..ServiceConfig::default()
    })
    .map_err(|e| e.to_string())?;
    for job in jobs {
        core.request(0, job.request(false), Arc::new(NullSink))
            .map_err(|e| format!("in-process warm-up: {}: {e}", job.name))?;
    }
    let plan = schedule(ctx.seed, jobs.len(), rate, span);
    type Submitted = (usize, Arc<Stamps>, Result<Arc<Ticket>, ServiceError>);
    let (tx, rx) = mpsc::channel::<Submitted>();
    let start = Instant::now();
    let (tally, captured, stamped) = std::thread::scope(|s| {
        let waiter = s.spawn(move || {
            let mut tally = Tally::default();
            let mut captured: Vec<Option<SessionReport>> = vec![None; jobs.len()];
            let mut stamped = Layers::default();
            for (k, stamps, submitted) in rx {
                tally.attempted += 1;
                let answer = match submitted.and_then(|ticket| ticket.wait()) {
                    Ok(Reply::Verify(report)) => Answer::Report(report),
                    Ok(_) => Answer::Broken("reply is not a verify report".into()),
                    Err(
                        e @ (ServiceError::Busy { .. }
                        | ServiceError::Overloaded { .. }
                        | ServiceError::ShuttingDown),
                    ) => Answer::Refused(e.to_string()),
                    Err(e) => Answer::Broken(e.to_string()),
                };
                if let Some(report) = tally_answer(answer, &jobs[k], pins, &mut tally) {
                    stamps.record(&mut stamped);
                    captured[k] = Some(*report);
                }
            }
            (tally, captured, stamped)
        });
        for (i, &(due_s, k)) in plan.iter().enumerate() {
            sleep_until(start + Duration::from_secs_f64(due_s));
            let stamps = Stamps::start();
            let sink: Arc<dyn Instrument + Send> = stamps.clone();
            let submitted = core.submit(1, i as u64 + 1, jobs[k].request(false), sink);
            if tx.send((k, stamps, submitted)).is_err() {
                break;
            }
        }
        drop(tx);
        waiter.join().expect("waiter thread panicked")
    });
    core.shutdown();
    layers.merge(stamped);
    layers.push("core.refused", tally.refused as f64);
    // The wire codec on one captured reply per job, the same number of
    // times each, as the uniform mix sends them.
    for report in captured.iter().flatten() {
        for _ in 0..20 {
            record_protocol(report, layers)?;
        }
    }
    Ok(tally)
}

/// Calls each layer directly on every job, over warm per-program caches
/// as the daemon holds them, until `span` has passed.
fn direct(
    jobs: &[Job],
    pins: &Mutex<Pins>,
    span: Duration,
    layers: &mut Layers,
) -> Result<Tally, String> {
    let caches: Vec<ProofCache> = jobs.iter().map(|_| ProofCache::new()).collect();
    let mut warm = Layers::default();
    for (job, cache) in jobs.iter().zip(&caches) {
        layers::prove_layers(job, cache, &mut warm)?;
    }
    let mut tally = Tally::default();
    let end = Instant::now() + span;
    while Instant::now() < end {
        for (job, cache) in jobs.iter().zip(&caches) {
            tally.attempted += 1;
            let outcomes = layers::prove_layers(job, cache, layers)?;
            if !judge(
                job,
                &Verdict::of_outcomes(&outcomes),
                &mut pins.lock().expect("pins poisoned"),
            ) {
                eprintln!(
                    "perfbench: {}: direct layer calls gave another verdict",
                    job.name
                );
                tally.wrong += 1;
            }
        }
    }
    Ok(tally)
}
