//! Per-layer timing from the benchmark's own code: a timestamping event
//! sink, and timed calls into each layer's public functions.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use reflex_driver::{Event, Instrument, SessionReport, Stage};
use reflex_service::protocol::{decode_reply, encode_reply};
use reflex_service::Reply;
use reflex_typeck::CheckedProgram;
use reflex_verify::certificate::Certificate;
use reflex_verify::{
    certificate_from_bytes, certificate_to_bytes, check_certificate_with, prove_with_cache,
    Abstraction, Outcome, ProofCache, ProverOptions,
};

use crate::gate::Job;
use crate::stats::{mean, median, ms, percentile, us, Report};

/// The prover options every daemon request runs under (`--jobs 1`).
pub fn options() -> ProverOptions {
    ProverOptions {
        jobs: 1,
        ..ProverOptions::default()
    }
}

/// Per-layer samples, one value per request (or per program) each.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<String, Vec<f64>>,
}

impl Layers {
    /// Records one sample.
    pub fn push(&mut self, name: &str, value: f64) {
        self.samples.entry(name.to_owned()).or_default().push(value);
    }

    /// Every sample, by layer.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[f64])> {
        self.samples.iter().map(|(n, v)| (n.as_str(), v.as_slice()))
    }

    /// Moves every sample of `other` into this set.
    pub fn merge(&mut self, other: Layers) {
        for (name, values) in other.samples {
            self.samples.entry(name).or_default().extend(values);
        }
    }

    /// The samples under `name`.
    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of a timing layer (0 when the layer never ran).
    pub fn p50(&self, name: &str) -> f64 {
        median(self.get(name))
    }

    /// Writes every layer into the report in the unit [`crate::PER_LAYER`]
    /// gives it: timings (ms, us) as medians, everything else as means.
    pub fn report(&self, report: &mut Report) -> Result<(), String> {
        for (name, values) in &self.samples {
            if name == "core.queue_wait_ms" {
                report.put("core.queue_wait_p99_ms", percentile(values, 0.99), "ms");
            }
            let unit =
                crate::unit(name).ok_or_else(|| format!("{name} is not a per-layer metric"))?;
            let value = if matches!(unit, "ms" | "us") {
                median(values)
            } else {
                mean(values)
            };
            report.put(name, value, unit);
        }
        Ok(())
    }
}

/// An [`Instrument`] sink that timestamps every event of one request,
/// from the moment it is created (just before submit).
#[derive(Debug)]
pub struct Stamps {
    submitted: Instant,
    events: Mutex<Vec<(Instant, Event)>>,
}

impl Stamps {
    /// A sink whose clock starts now.
    pub fn start() -> Arc<Stamps> {
        Arc::new(Stamps {
            submitted: Instant::now(),
            events: Mutex::new(Vec::new()),
        })
    }

    /// Feeds the request's queue wait and stage times into `layers`.
    ///
    /// Queue wait ends at the first event the worker emits (the parse
    /// stage's start): this driver emits `SessionStart` only after parse
    /// and type-check, so ending there would count those stages twice.
    pub fn record(&self, layers: &mut Layers) {
        let events = self.events.lock().expect("stamp sink poisoned");
        if let Some((first, _)) = events.first() {
            layers.push(
                "core.queue_wait_ms",
                ms(first.duration_since(self.submitted)),
            );
        }
        for (_, event) in events.iter() {
            if let Event::StageFinish { stage, wall_ms } = event {
                let name = match stage {
                    Stage::Load => continue,
                    Stage::Parse => "session.parse_ms",
                    Stage::Typecheck => "session.typecheck_ms",
                    Stage::Plan => "session.plan_ms",
                    Stage::Prove => "session.prove_ms",
                    Stage::Persist => "session.persist_ms",
                    Stage::Report => "session.report_ms",
                };
                layers.push(name, *wall_ms);
            }
        }
    }
}

impl Instrument for Stamps {
    fn event(&self, event: &Event) {
        let now = Instant::now();
        self.events
            .lock()
            .expect("stamp sink poisoned")
            .push((now, event.clone()));
    }
}

/// Adds the prover counters of one session report.
pub fn record_counters(report: &SessionReport, layers: &mut Layers) {
    let s = &report.stats;
    let obligations: usize = s.properties.iter().map(|p| p.obligations).sum();
    layers.push("prove.obligations", obligations as f64);
    layers.push("prove.paths_explored", s.paths_explored as f64);
    layers.push("prove.solver_queries", s.solver_queries as f64);
    if s.solver_queries > 0 {
        layers.push(
            "prove.memo_hit_ratio",
            s.solver_memo_hits as f64 / s.solver_queries as f64,
        );
    }
    let hits = s.cache.invariant_hits + s.cache.lemma_hits;
    let lookups = hits + s.cache.invariant_misses + s.cache.lemma_misses;
    if lookups > 0 {
        layers.push("prove.cache_hit_ratio", hits as f64 / lookups as f64);
    }
}

/// Times the wire codec on one captured verify report.
pub fn record_protocol(report: &SessionReport, layers: &mut Layers) -> Result<(), String> {
    let reply = Reply::Verify(Box::new(report.clone()));
    let t = Instant::now();
    let bytes = std::hint::black_box(encode_reply(&reply));
    layers.push("protocol.reply_encode_us", us(t.elapsed()));
    let t = Instant::now();
    let back = std::hint::black_box(decode_reply(&bytes));
    layers.push("protocol.reply_decode_us", us(t.elapsed()));
    layers.push("protocol.reply_bytes", bytes.len() as f64);
    back.map(|_| ())
        .ok_or_else(|| "captured reply did not decode".into())
}

/// Parses and type-checks `job`, timing both.
pub fn front_end(job: &Job, layers: &mut Layers) -> Result<CheckedProgram, String> {
    let t = Instant::now();
    let program = reflex_parser::parse_program(&job.name, &job.source)
        .map_err(|e| format!("{}: {e}", job.name))?;
    layers.push("parse.us", us(t.elapsed()));
    let t = Instant::now();
    let checked = reflex_typeck::check(&program).map_err(|e| format!("{}: {e}", job.name))?;
    layers.push("typecheck.us", us(t.elapsed()));
    Ok(checked)
}

/// Times checking `certs` through one abstraction, as the session does,
/// and decoding their stored bytes.
pub fn check_all(
    abs: &Abstraction<'_>,
    certs: &[&Certificate],
    layers: &mut Layers,
) -> Result<(), String> {
    let options = options();
    let t = Instant::now();
    for cert in certs {
        check_certificate_with(abs, cert, &options)
            .map_err(|e| format!("{}: checker rejected: {e}", cert.property()))?;
    }
    let secs = t.elapsed().as_secs_f64();
    layers.push("check.ms", secs * 1e3);
    let obligations: usize = certs.iter().map(|c| c.obligation_count()).sum();
    if secs > 0.0 && obligations > 0 {
        layers.push("check.obligations_per_s", obligations as f64 / secs);
    }
    let encoded: Vec<Vec<u8>> = certs.iter().map(|c| certificate_to_bytes(c)).collect();
    let t = Instant::now();
    for bytes in &encoded {
        std::hint::black_box(certificate_from_bytes(bytes)).ok_or("certificate did not decode")?;
    }
    layers.push("codec.cert_decode_us", us(t.elapsed()));
    Ok(())
}

/// Runs `job` layer by layer, the way a session does without a store:
/// parse, type-check, one abstraction, proof search through `cache`,
/// then checking every certificate through that same abstraction.
/// Returns the outcomes for the caller's verdict check.
pub fn prove_layers(
    job: &Job,
    cache: &ProofCache,
    layers: &mut Layers,
) -> Result<Vec<(String, Outcome)>, String> {
    let options = options();
    let checked = front_end(job, layers)?;
    let t = Instant::now();
    let abs = Abstraction::build(&checked, &options);
    layers.push("abstraction.build_ms", ms(t.elapsed()));
    let names: Vec<String> = match &job.property {
        Some(p) => vec![p.clone()],
        None => checked
            .program()
            .properties
            .iter()
            .map(|p| p.name.clone())
            .collect(),
    };
    let t = Instant::now();
    let mut outcomes = Vec::with_capacity(names.len());
    for name in names {
        let outcome = prove_with_cache(&abs, &name, &options, Some(cache))
            .map_err(|e| format!("{}: {e}", job.name))?;
        outcomes.push((name, outcome));
    }
    layers.push("prove.search_ms", ms(t.elapsed()));
    let certs: Vec<&Certificate> = outcomes
        .iter()
        .filter_map(|(_, o)| o.certificate())
        .collect();
    check_all(&abs, &certs, layers)?;
    Ok(outcomes)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// Writes the attribution lines shared by every workload's traced run:
/// tracing overhead and the part of the traced median no layer covers,
/// each metric named with `prefix`. `blocking` names the layers on the
/// path from request to verdict.
pub fn attribute(
    report: &mut Report,
    prefix: &str,
    layers: &Layers,
    untraced_p50_ms: f64,
    traced_p50_ms: f64,
    blocking: &[&str],
) {
    let covered: f64 = blocking
        .iter()
        .map(|name| {
            let v = layers.p50(name);
            if crate::unit(name) == Some("us") {
                v / 1e3
            } else {
                v
            }
        })
        .sum();
    let unattributed = traced_p50_ms - covered;
    let share = if traced_p50_ms > 0.0 {
        unattributed / traced_p50_ms
    } else {
        0.0
    };
    for (name, value, unit) in [
        ("latency_p50_untraced_ms", untraced_p50_ms, "ms"),
        ("latency_p50_traced_ms", traced_p50_ms, "ms"),
        ("tracing_overhead_ms", traced_p50_ms - untraced_p50_ms, "ms"),
        ("unattributed_ms", unattributed, "ms"),
        ("unattributed_share", share, "ratio"),
    ] {
        report.put(&format!("{prefix}{name}"), value, unit);
    }
    report.note(format!(
        "{prefix}attribution: traced p50 {traced_p50_ms:.3} ms = layers {covered:.3} ms ({}) + unattributed {unattributed:.3} ms",
        blocking.join(" + ")
    ));
}
