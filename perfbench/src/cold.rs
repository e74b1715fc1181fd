//! The cold path: a user's one-shot `rx verify` of a big kernel.
//!
//! Cold proof search, the abstraction build and checking dominate; wire,
//! queue and store are absent. Every repetition is a fresh process
//! running the in-process `ServiceCore::request` path `rx verify` takes,
//! so the process-global interner and solver memo start empty.
//!
//! It is measured in the `serve-fig6` traced run and reports per-layer
//! figures only. On a shared 2-core VM one repetition took 1.05 to 1.9 s,
//! in slow and fast spells of about a minute each, so the median of a
//! run's 20-odd repetitions moved by 29% (IQR/median) from run to run:
//! more than an end-to-end bound allows.
//!
//! The kernel is `rx gen medium` with generator seed 1 (95 properties,
//! about 50k obligations), its properties put in an order drawn from the
//! workload seed. Generator seeds change the kernel's size (85 to 105
//! properties, 50k to 72k obligations), which would make every seed a
//! different amount of work; the order changes which property first
//! fills each shared proof-cache entry, and leaves the work the same.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use reflex_driver::{Instrument, NullSink};
use reflex_kernels::synth::{self, SynthConfig};
use reflex_rng::{derive, SimRng};
use reflex_service::{Reply, ServiceConfig, ServiceCore};
use reflex_verify::ProofCache;

use crate::gate::{Job, Verdict};
use crate::layers::{self, record_counters, Layers, Stamps};
use crate::stats::{median, ms, Report, Tally};
use crate::wire::vm_hwm_mb;
use crate::Ctx;

/// The layers the cold path reports, each as `cold.<layer>`: the ones
/// cold proof search, the abstraction build and checking move.
const KEPT: [&str; 10] = [
    "abstraction.build_ms",
    "prove.search_ms",
    "prove.obligations",
    "prove.paths_explored",
    "prove.solver_queries",
    "prove.memo_hit_ratio",
    "prove.cache_hit_ratio",
    "check.ms",
    "check.obligations_per_s",
    "session.prove_ms",
];

/// Layers on the path from start to verdict.
const BLOCKING: [&str; 6] = [
    "core.queue_wait_ms",
    "parse.us",
    "typecheck.us",
    "abstraction.build_ms",
    "prove.search_ms",
    "check.ms",
];

/// The workload's kernel for `seed`.
pub fn kernel(seed: u64) -> Result<String, String> {
    let config = SynthConfig::preset("medium", 1).ok_or("no medium preset")?;
    let synth = synth::generate(&config);
    let mut program = reflex_parser::parse_program(&synth.name, &synth.source)
        .map_err(|e| format!("generated kernel: {e}"))?;
    let mut rng = SimRng::new(derive(seed, "cold-synth"));
    for i in (1..program.properties.len()).rev() {
        let j = rng.below(i + 1);
        program.properties.swap(i, j);
    }
    Ok(program.to_string())
}

/// One child's answer: its `name=value` fields.
type Fields = BTreeMap<String, String>;

fn field(fields: &Fields, name: &str) -> Result<f64, String> {
    fields
        .get(name)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("child reported no {name}"))
}

/// Runs one repetition in a fresh process.
fn run_child(mode: &str, file: &str) -> Result<Fields, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["cold-child", mode, file])
        .output()
        .map_err(|e| format!("cold-child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "cold-child {mode} failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    Ok(stdout
        .split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect())
}

/// Repetitions of one mode until `span` has passed (at least one).
fn phase(
    mode: &str,
    file: &str,
    span: Duration,
    digest: &str,
    tally: &mut Tally,
) -> Result<Vec<Fields>, String> {
    let start = Instant::now();
    let mut children = Vec::new();
    loop {
        tally.attempted += 1;
        let fields = run_child(mode, file)?;
        let proved_all = fields.get("proved") == fields.get("total");
        if !proved_all || fields.get("digest").map(String::as_str) != Some(digest) {
            eprintln!("perfbench: cold path {mode}: wrong verdict or certificate digest");
            tally.wrong += 1;
        }
        children.push(fields);
        if start.elapsed() >= span {
            return Ok(children);
        }
    }
}

fn values(children: &[Fields], name: &str) -> Result<Vec<f64>, String> {
    children.iter().map(|f| field(f, name)).collect()
}

/// Measures the cold path for the `serve-fig6` traced run: untraced,
/// traced and layer-by-layer repetitions, each for a third of `span`.
/// Writes its attribution into `report` under `cold.` and returns the
/// kept layers, already named `cold.<layer>`.
pub fn measure(
    ctx: &Ctx,
    span: Duration,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<Layers, String> {
    let path = ctx.work.join("cold-synth.rx");
    let file = path.to_str().ok_or("work directory is not UTF-8")?;
    std::fs::write(&path, kernel(ctx.seed)?).map_err(|e| format!("{file}: {e}"))?;
    // The reference run pins the certificate digest; it also loads the
    // binary into the page cache before anything is timed.
    let reference = run_child("e2e", file)?;
    if reference.get("proved") != reference.get("total") {
        return Err("cold path: not every property proved".into());
    }
    let digest = reference.get("digest").cloned().ok_or("no digest")?;

    let third = span / 3;
    let untraced = phase("e2e", file, third, &digest, tally)?;
    let traced = phase("traced", file, third, &digest, tally)?;
    let by_layer = phase("layers", file, third, &digest, tally)?;
    let mut layers = Layers::default();
    for child in traced.iter().chain(&by_layer) {
        for (name, value) in child {
            if name.contains('.') {
                layers.push(name, value.parse().map_err(|_| format!("bad {name}"))?);
            }
        }
    }
    report.note(format!(
        "cold path: {} untraced, {} traced and {} layer-by-layer one-shot verifications of {} properties, one fresh process each",
        untraced.len(),
        traced.len(),
        by_layer.len(),
        field(&reference, "total")?
    ));
    layers::attribute(
        report,
        "cold.",
        &layers,
        median(&values(&untraced, "ms")?),
        median(&values(&traced, "ms")?),
        &BLOCKING,
    );
    let mut kept = Layers::default();
    for name in KEPT {
        for &value in layers.get(name) {
            kept.push(&format!("cold.{name}"), value);
        }
    }
    for value in values(&untraced, "rss_mb")? {
        kept.push("cold.peak_rss_mb", value);
    }
    Ok(kept)
}

/// The child side of one repetition: `mode` is `e2e` (as `rx verify`),
/// `traced` (the same with a timestamping event sink) or `layers` (each
/// layer called directly). Prints one line of `name=value` fields.
pub fn child(mode: &str, file: &str, t0: Instant) -> Result<(), String> {
    let source = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let job = Job::proving("cold-synth", source);
    let mut layers = Layers::default();
    let verdict = match mode {
        "e2e" | "traced" => {
            let core = ServiceCore::start(ServiceConfig {
                jobs: 1,
                workers: 1,
                ..ServiceConfig::default()
            })
            .map_err(|e| e.to_string())?;
            let stamps = Stamps::start();
            let sink: Arc<dyn Instrument + Send> = if mode == "traced" {
                stamps.clone()
            } else {
                Arc::new(NullSink)
            };
            let reply = core.request(0, job.request(false), sink);
            core.shutdown();
            let elapsed = ms(t0.elapsed());
            let Ok(Reply::Verify(report)) = reply else {
                return Err(format!("cold-synth: no verify report: {reply:?}"));
            };
            print!("ms={elapsed} rss_mb={} ", vm_hwm_mb("/proc/self/status")?);
            if mode == "traced" {
                stamps.record(&mut layers);
                record_counters(&report, &mut layers);
            }
            Verdict::of(&report)
        }
        "layers" => {
            let outcomes = layers::prove_layers(&job, &ProofCache::new(), &mut layers)?;
            Verdict::of_outcomes(&outcomes)
        }
        other => return Err(format!("unknown cold-child mode {other}")),
    };
    for (name, values) in layers.iter() {
        for value in values {
            print!("{name}={value} ");
        }
    }
    println!(
        "digest={} proved={} total={}",
        verdict.digest, verdict.proved, verdict.total
    );
    Ok(())
}
