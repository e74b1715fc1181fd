//! `edit-store`: an editor's watch-style loop against a store-backed
//! `rxd --store` on a fresh directory, one closed-loop connection
//! replaying the repository's recorded editing session.
//!
//! Store planning, checker re-validation of loaded certificates, segment
//! appends and the per-request group-commit fsync dominate here; proof
//! search nearly vanishes. The script is `reflex_bench::incr::edit_script()`
//! in its own order, cycle after cycle, each cycle starting from the base
//! ssh and browser kernels. Its mix is the recorded one (`BENCH_incr.json`):
//! of every 20 steps,
//!
//! * 6 re-prove: guard strengthenings and bound-variable renames. Each is
//!   a program never stored before, so it also files every reused
//!   certificate under its new fingerprint — the session's writes;
//! * 14 re-read: reverts, re-applies and comment edits. Fingerprints are
//!   computed from the parsed program, so each is a program already in
//!   the store — pure read.
//!
//! So that the re-prove steps re-prove in every cycle, not only the first,
//! the text each edit introduces carries a tag of the seed and cycle in its
//! string literals and `forall` binder. Text of the base kernels is left
//! as it is, so reverts still return to stored programs.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use reflex_bench::incr::EditStep;
use reflex_driver::{NullSink, SessionReport};
use reflex_service::{Reply, ServiceConfig, ServiceCore};
use reflex_verify::certificate::Certificate;
use reflex_verify::{
    load_candidates, persist_outcomes, reverify_observed, Abstraction, IncrementalReport, Outcome,
    ProofStore, Reuse,
};

use crate::gate::{judge, Job, Pins, Verdict};
use crate::layers::{self, dir_bytes, record_counters, record_protocol, Layers, Stamps};
use crate::stats::{median, ms, put_latency, windowed_rate, Report, Tally, RATE_WINDOWS};
use crate::wire::{Answer, Conn, Daemon};
use crate::{Ctx, RunOutput, SETUP_ROUNDS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Reprove,
    Reread,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Reprove => "re-prove",
            Kind::Reread => "re-read",
        }
    }
}

/// The daemon's peak RSS is read once this many steps are served, so it
/// measures the same store size whatever the run's speed.
const RSS_STEP: u64 = 2000;

/// Layers on the path from a request's arrival to its verdict.
const BLOCKING: [&str; 10] = [
    "core.queue_wait_ms",
    "parse.us",
    "typecheck.us",
    "store.plan_ms",
    "abstraction.build_ms",
    "check.ms",
    "prove.search_ms",
    "store.persist_ms",
    "protocol.reply_encode_us",
    "protocol.reply_decode_us",
];

/// Renames every whole-word occurrence of the identifier `from`.
fn rename_ident(text: &str, from: &str, to: &str) -> String {
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    let mut out = String::with_capacity(text.len());
    let mut last = 0;
    for (i, _) in text.match_indices(from) {
        let end = i + from.len();
        if ident(text[..i].chars().next_back()) || ident(text[end..].chars().next()) {
            continue;
        }
        out.push_str(&text[last..i]);
        out.push_str(to);
        last = end;
    }
    out.push_str(&text[last..]);
    out
}

/// The cycle's version of one side of an edit: new text gets `tag` in its
/// `!= "…"` literals and its `forall` binder; base-kernel text is kept.
fn tagged(text: &str, base: &str, tag: &str) -> String {
    if base.contains(text) {
        return text.to_owned();
    }
    let out = text.replace("!= \"", &format!("!= \"{tag}"));
    let binder: Option<String> = out.find("forall ").map(|i| {
        out[i + "forall ".len()..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect()
    });
    match binder {
        Some(var) if !var.is_empty() => rename_ident(&out, &var, &format!("{var}_{tag}")),
        _ => out,
    }
}

/// The program's text with comments and layout normalised away, as the
/// store's fingerprints see it.
fn canonical(job: &Job) -> Result<String, String> {
    reflex_parser::parse_program(&job.name, &job.source)
        .map(|p| p.to_string())
        .map_err(|e| format!("{}: {e}", job.name))
}

/// The recorded editing session, replayed cycle after cycle.
struct Script {
    seed: u64,
    cycle: u64,
    step: usize,
    edits: Vec<EditStep>,
    /// The base ssh and browser kernels, which set-up stores.
    bases: Vec<Job>,
    /// Each kernel's current source within the cycle.
    current: Vec<String>,
    /// Canonical texts of every program sent so far.
    seen: HashSet<String>,
}

impl Script {
    fn new(seed: u64) -> Result<Script, String> {
        let bases = vec![
            Job::proving("ssh", reflex_kernels::ssh::SOURCE.to_owned()),
            Job::proving("browser", reflex_kernels::browser::SOURCE.to_owned()),
        ];
        let seen = bases.iter().map(canonical).collect::<Result<_, _>>()?;
        Ok(Script {
            seed,
            cycle: 0,
            step: 0,
            edits: reflex_bench::incr::edit_script(),
            current: bases.iter().map(|b| b.source.clone()).collect(),
            bases,
            seen,
        })
    }

    /// The next step and what it must do: re-prove a program never sent
    /// before, or re-read one already stored.
    fn next(&mut self) -> Result<(Kind, Job), String> {
        if self.step == self.edits.len() {
            self.step = 0;
            self.cycle += 1;
            self.current = self.bases.iter().map(|b| b.source.clone()).collect();
        }
        let edit = self.edits[self.step];
        self.step += 1;
        let k = self
            .bases
            .iter()
            .position(|b| b.name == edit.kernel)
            .ok_or_else(|| format!("edit-store: no base kernel {}", edit.kernel))?;
        let tag = format!("s{}c{}", self.seed, self.cycle);
        let base = &self.bases[k].source;
        let find = tagged(edit.find, base, &tag);
        if !self.current[k].contains(&find) {
            return Err(format!("edit-store: '{}' no longer applies", edit.label));
        }
        let replace = tagged(edit.replace, base, &tag);
        self.current[k] = self.current[k].replacen(&find, &replace, 1);
        let job = Job::proving(edit.kernel, self.current[k].clone());
        let kind = if self.seen.insert(canonical(&job)?) {
            Kind::Reprove
        } else {
            Kind::Reread
        };
        Ok((kind, job))
    }
}

/// Judges one step: the verdict and digest, plus what its kind implies
/// about reuse.
fn step_ok(
    kind: Kind,
    job: &Job,
    outcomes: &[(String, Outcome)],
    reuse: (usize, usize),
    pins: &mut Pins,
) -> bool {
    let (reused, reproved) = reuse;
    judge(job, &Verdict::of_outcomes(outcomes), pins)
        && match kind {
            Kind::Reprove => reproved > 0,
            Kind::Reread => reused == outcomes.len(),
        }
}

fn reuse_of(report: &SessionReport) -> (usize, usize) {
    (report.reused.len(), report.reproved.len())
}

/// A fresh, empty directory.
fn fresh(dir: PathBuf) -> Result<PathBuf, String> {
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// A daemon on a fresh store with the base programs verified into it.
fn start(ctx: &Ctx, dir: &Path, pins: &mut Pins) -> Result<(Daemon, Conn), String> {
    let store = fresh(dir.to_owned())?;
    let socket = dir.with_extension("sock");
    let (daemon, mut conn) = Daemon::spawn(&ctx.rxd, &socket, ctx.nproc, Some(&store))?;
    for (i, job) in Script::new(ctx.seed)?.bases.iter().enumerate() {
        let frame = conn.call(i as u64 + 1, &job.request(false), &mut |_| {})?;
        let Answer::Report(report) = Answer::of(&frame) else {
            return Err(format!("set-up: {}: no verify report", job.name));
        };
        if !judge(job, &Verdict::of(&report), pins) {
            return Err(format!(
                "set-up: {}: wrong verdict or certificate digest",
                job.name
            ));
        }
    }
    Ok((daemon, conn))
}

#[derive(Default)]
struct Replay {
    secs: f64,
    done_at: Vec<f64>,
    rss_mb: Option<f64>,
    tally: Tally,
    latencies: Vec<f64>,
    by_kind: Vec<(Kind, f64)>,
    layers: Layers,
}

/// The closed loop: one connection, each step sent when the previous
/// verdict is in.
fn replay(
    ctx: &Ctx,
    conn: &mut Conn,
    pins: &mut Pins,
    span: Duration,
    traced: bool,
    daemon: Option<&Daemon>,
) -> Result<Replay, String> {
    let mut script = Script::new(ctx.seed)?;
    let mut got = Replay::default();
    let start = Instant::now();
    while start.elapsed() < span {
        let (kind, job) = script.next()?;
        got.tally.attempted += 1;
        let t = Instant::now();
        let frame = conn.call(got.tally.attempted + 100, &job.request(traced), &mut |_| {})?;
        match Answer::of(&frame) {
            Answer::Report(report) => {
                let latency = ms(t.elapsed());
                if !step_ok(kind, &job, &report.outcomes, reuse_of(&report), pins) {
                    eprintln!(
                        "perfbench: {} step on {}: wrong verdict, reuse or digest",
                        kind.name(),
                        job.name
                    );
                    got.tally.wrong += 1;
                }
                got.latencies.push(latency);
                got.done_at.push(start.elapsed().as_secs_f64());
                got.by_kind.push((kind, latency));
                if traced {
                    record_counters(&report, &mut got.layers);
                }
            }
            Answer::Refused(e) => {
                eprintln!("perfbench: {}: refused: {e}", job.name);
                got.tally.refused += 1;
            }
            Answer::Broken(e) => {
                eprintln!("perfbench: {}: {e}", job.name);
                got.tally.errors += 1;
            }
        }
        if let (Some(d), RSS_STEP) = (daemon, got.tally.attempted) {
            got.rss_mb = Some(d.peak_rss_mb()?);
        }
    }
    got.secs = start.elapsed().as_secs_f64();
    Ok(got)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    let mut pins = Pins::default();
    let store_dir = ctx.work.join("store");
    let mut setup_s = Vec::new();
    let mut running = None;
    for _ in 0..SETUP_ROUNDS {
        if let Some((old, _)) = running.take() {
            Daemon::shutdown(old)?;
        }
        let t = Instant::now();
        running = Some(start(ctx, &store_dir, &mut pins)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (daemon, mut conn) = running.expect("at least one set-up round");

    let bytes_before = dir_bytes(&store_dir);
    let span = ctx.span(if ctx.trace { 0.35 } else { 1.0 });
    let untraced = replay(ctx, &mut conn, &mut pins, span, false, Some(&daemon))?;
    let appended = dir_bytes(&store_dir).saturating_sub(bytes_before);
    out.tally.add(untraced.tally);
    let report = &mut out.report;
    describe(report, &untraced, appended);

    if ctx.trace {
        let (traced_daemon, mut traced_conn) =
            start(ctx, &ctx.work.join("store-traced"), &mut pins)?;
        let traced = replay(ctx, &mut traced_conn, &mut pins, span, true, None)?;
        traced_daemon.shutdown()?;
        out.tally.add(traced.tally);
        let mut layers = traced.layers;
        out.tally
            .add(in_process(ctx, &mut pins, ctx.span(0.15), &mut layers)?);
        out.tally
            .add(direct(ctx, &mut pins, ctx.span(0.15), &mut layers)?);
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
        put_latency(report, &untraced.latencies);
        report.put(
            "throughput_rps",
            windowed_rate(&untraced.done_at, untraced.secs, RATE_WINDOWS),
            "1/s",
        );
        let rss = match untraced.rss_mb {
            Some(rss) => {
                report.note(format!(
                    "peak_rss_mb: the daemon's VmHWM after {RSS_STEP} steps"
                ));
                rss
            }
            None => {
                report.note(format!(
                    "peak_rss_mb: fewer than {RSS_STEP} steps; VmHWM at the end"
                ));
                daemon.peak_rss_mb()?
            }
        };
        report.put("peak_rss_mb", rss, "MiB");
        report.put("setup_s", median(&setup_s), "s");
        report.note(format!(
            "setup_s: median of {SETUP_ROUNDS} rounds of a fresh store directory, daemon spawn and the two base programs verified into the store"
        ));
    }
    drop(conn);
    daemon.shutdown()?;
    Ok(out)
}

fn describe(report: &mut Report, replay: &Replay, appended: u64) {
    let steps = replay.latencies.len().max(1);
    report.note(format!(
        "closed loop: one connection, {} steps ({} latency samples), {:.0} bytes appended to the store per step",
        replay.tally.attempted,
        replay.latencies.len(),
        appended as f64 / steps as f64
    ));
    for kind in [Kind::Reprove, Kind::Reread] {
        let of_kind: Vec<f64> = replay
            .by_kind
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, l)| *l)
            .collect();
        report.note(format!(
            "{} steps: {}, latency p50 {:.3} ms",
            kind.name(),
            of_kind.len(),
            median(&of_kind)
        ));
    }
}

/// The same script against an in-process `ServiceCore` on a fresh store,
/// with a timestamping sink: queue wait and the session's stage times.
fn in_process(
    ctx: &Ctx,
    pins: &mut Pins,
    span: Duration,
    layers: &mut Layers,
) -> Result<Tally, String> {
    let dir = fresh(ctx.work.join("store-inproc"))?;
    let core = ServiceCore::start(ServiceConfig {
        store_dir: Some(dir.display().to_string()),
        jobs: 1,
        workers: ctx.nproc,
        ..ServiceConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let mut script = Script::new(ctx.seed)?;
    for job in &script.bases {
        core.request(0, job.request(false), Arc::new(NullSink))
            .map_err(|e| format!("in-process set-up: {}: {e}", job.name))?;
    }
    let mut tally = Tally::default();
    let mut captured: Vec<SessionReport> = Vec::new();
    let end = Instant::now() + span;
    while Instant::now() < end {
        let (kind, job) = script.next()?;
        tally.attempted += 1;
        let stamps = Stamps::start();
        match core.request(1, job.request(false), stamps.clone()) {
            Ok(Reply::Verify(report)) => {
                if !step_ok(kind, &job, &report.outcomes, reuse_of(&report), pins) {
                    tally.wrong += 1;
                }
                stamps.record(layers);
                // One cycle's replies, each encoded the same number of
                // times below, so the codec sees the session's mix.
                if captured.len() < script.edits.len() {
                    captured.push(*report);
                }
            }
            Ok(_) => tally.errors += 1,
            Err(e) => {
                eprintln!("perfbench: in-process {}: {e}", job.name);
                tally.errors += 1;
            }
        }
    }
    core.shutdown();
    layers.push("core.refused", tally.refused as f64);
    for report in &captured {
        for _ in 0..5 {
            record_protocol(report, layers)?;
        }
    }
    Ok(tally)
}

/// The same script replayed layer by layer on a fresh store, in the
/// session's order: plan, abstraction, proof search (re-proofs), checking
/// of the certificates reused from disk, persist with its group commit.
fn direct(
    ctx: &Ctx,
    pins: &mut Pins,
    span: Duration,
    layers: &mut Layers,
) -> Result<Tally, String> {
    let dir = fresh(ctx.work.join("store-direct"))?;
    let store = ProofStore::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut script = Script::new(ctx.seed)?;
    for job in &script.bases {
        direct_step(job, &store, &dir, &mut Layers::default())?;
    }
    let mut tally = Tally::default();
    let end = Instant::now() + span;
    while Instant::now() < end {
        let (kind, job) = script.next()?;
        tally.attempted += 1;
        let report = direct_step(&job, &store, &dir, layers)?;
        let reuse = (report.reused.len(), report.reproved.len());
        if !step_ok(kind, &job, &report.outcomes, reuse, pins) {
            eprintln!(
                "perfbench: direct {} step on {}: wrong verdict, reuse or digest",
                kind.name(),
                job.name
            );
            tally.wrong += 1;
        }
    }
    Ok(tally)
}

/// One step of [`direct`], each layer timed into `layers`.
fn direct_step(
    job: &Job,
    store: &ProofStore,
    dir: &Path,
    layers: &mut Layers,
) -> Result<IncrementalReport, String> {
    let options = layers::options();
    let checked = layers::front_end(job, layers)?;
    let t = Instant::now();
    let candidates = load_candidates(&checked, &options, store);
    layers.push("store.plan_ms", ms(t.elapsed()));
    let t = Instant::now();
    let abs = Abstraction::build(&checked, &options);
    layers.push("abstraction.build_ms", ms(t.elapsed()));
    // Proof search is the time spent on the properties that re-prove or
    // splice: `reverify_observed` also plans and builds an abstraction of
    // its own, which the layers above already count.
    let search_ms = Mutex::new(0.0);
    let observe = |_: &str, reuse: Reuse, _: &Outcome, wall_ms: f64| {
        if reuse != Reuse::Full {
            *search_ms.lock().expect("search time poisoned") += wall_ms;
        }
    };
    let report = reverify_observed(&candidates, &checked, &options, 1, false, Some(&observe))
        .map_err(|e| format!("{}: {e}", job.name))?;
    layers.push(
        "prove.search_ms",
        search_ms.into_inner().expect("search time poisoned"),
    );
    let kept: Vec<&Certificate> = report
        .outcomes
        .iter()
        .filter(|(name, _)| !report.reproved.contains(name))
        .filter_map(|(_, o)| o.certificate())
        .collect();
    if !kept.is_empty() {
        layers::check_all(&abs, &kept, layers)?;
    }
    let before = dir_bytes(dir);
    let t = Instant::now();
    persist_outcomes(&checked, &options, store, &report.outcomes);
    layers.push("store.persist_ms", ms(t.elapsed()));
    layers.push(
        "store.bytes_appended",
        dir_bytes(dir).saturating_sub(before) as f64,
    );
    layers.push(
        "store.reuse_ratio",
        report.reused.len() as f64 / report.outcomes.len().max(1) as f64,
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cycle_replays_the_recorded_mix() {
        let mut script = Script::new(7).expect("script builds");
        for _ in 0..3 {
            let reproves = (0..20)
                .filter(|_| script.next().expect("edit applies").0 == Kind::Reprove)
                .count();
            assert_eq!(reproves, 6);
        }
    }

    #[test]
    fn only_new_text_is_tagged() {
        let base = "forall u: str. P(u)";
        assert_eq!(tagged(base, base, "t"), base);
        assert_eq!(
            tagged("forall w: str. P(w) w2", base, "t"),
            "forall w_t: str. P(w_t) w2"
        );
        assert_eq!(tagged("x != \"\"", base, "t"), "x != \"t\"");
    }
}
