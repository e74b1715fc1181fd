//! One benchmark for `rxd` and `rx verify`: two workloads, end-to-end
//! latency measured with tracing off, and a separate traced run that
//! splits it layer by layer. The traced `serve-fig6` run also measures
//! the cold one-shot `rx verify` path layer by layer (see `cold`).
//!
//! ```text
//! perfbench --workload serve-fig6|edit-store --seed N \
//!           --seconds S --trace 0|1 --rxd PATH [--work DIR]
//! ```
//!
//! `perfbench/run.py` builds `rxd` and this binary from source and runs
//! it from the repository root. Every metric prints with its unit, then
//! the last line is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end set with `--trace 0`, the per-layer set with
//! `--trace 1`). A wrong verdict, a changed certificate digest, a refused
//! request or a protocol error makes `correct` false and the exit code 1;
//! a run that cannot complete exits 2 without a result.
//!
//! The load comes from this one process with at most `nproc` threads and
//! connections; the daemon runs `--workers nproc --jobs 1`, so workers
//! times jobs never exceeds the cores.

mod cold;
mod gate;
mod layers;
mod serve;
mod stats;
mod store;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{Report, Tally};

/// Set-up is repeated this many times per run and its median reported.
pub const SETUP_ROUNDS: usize = 9;

/// The end-to-end metrics every `--trace 0` run reports.
const END_TO_END: [(&str, &str); 5] = [
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// The per-layer metrics every `--trace 1` run reports. A layer a
/// workload never reaches reports 0.
const PER_LAYER: [(&str, &str); 50] = [
    ("protocol.reply_encode_us", "us"),
    ("protocol.reply_decode_us", "us"),
    ("protocol.reply_bytes", "bytes"),
    ("core.queue_wait_ms", "ms"),
    ("core.queue_wait_p99_ms", "ms"),
    ("core.refused", "count"),
    ("parse.us", "us"),
    ("typecheck.us", "us"),
    ("abstraction.build_ms", "ms"),
    ("prove.search_ms", "ms"),
    ("prove.obligations", "count"),
    ("prove.paths_explored", "count"),
    ("prove.solver_queries", "count"),
    ("prove.memo_hit_ratio", "ratio"),
    ("prove.cache_hit_ratio", "ratio"),
    ("check.ms", "ms"),
    ("check.obligations_per_s", "1/s"),
    ("codec.cert_decode_us", "us"),
    ("store.plan_ms", "ms"),
    ("store.persist_ms", "ms"),
    ("store.bytes_appended", "bytes"),
    ("store.reuse_ratio", "ratio"),
    ("session.parse_ms", "ms"),
    ("session.typecheck_ms", "ms"),
    ("session.plan_ms", "ms"),
    ("session.prove_ms", "ms"),
    ("session.persist_ms", "ms"),
    ("session.report_ms", "ms"),
    ("latency_p50_untraced_ms", "ms"),
    ("latency_p50_traced_ms", "ms"),
    ("tracing_overhead_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("unattributed_share", "ratio"),
    ("failed_ratio", "ratio"),
    ("cold.abstraction.build_ms", "ms"),
    ("cold.prove.search_ms", "ms"),
    ("cold.prove.obligations", "count"),
    ("cold.prove.paths_explored", "count"),
    ("cold.prove.solver_queries", "count"),
    ("cold.prove.memo_hit_ratio", "ratio"),
    ("cold.prove.cache_hit_ratio", "ratio"),
    ("cold.check.ms", "ms"),
    ("cold.check.obligations_per_s", "1/s"),
    ("cold.session.prove_ms", "ms"),
    ("cold.peak_rss_mb", "MiB"),
    ("cold.latency_p50_untraced_ms", "ms"),
    ("cold.latency_p50_traced_ms", "ms"),
    ("cold.tracing_overhead_ms", "ms"),
    ("cold.unattributed_ms", "ms"),
    ("cold.unattributed_share", "ratio"),
];

/// The unit of a per-layer metric; `None` for a name not in [`PER_LAYER`].
pub fn unit(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().find(|(n, _)| *n == name).map(|&(_, u)| u)
}

/// What every workload needs to know about its run.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured time, seconds.
    pub seconds: f64,
    /// The traced (per-layer) run.
    pub trace: bool,
    /// The `rxd` binary.
    pub rxd: PathBuf,
    /// Scratch directory for sockets, stores and generated kernels.
    pub work: PathBuf,
    /// Cores available: daemon workers and load threads.
    pub nproc: usize,
}

impl Ctx {
    /// A share of the measured time.
    pub fn span(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// A workload's metrics and request accounting.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Metrics and notes.
    pub report: Report,
    /// Requests attempted and failed.
    pub tally: Tally,
}

fn parse_args(args: &[String]) -> Result<(String, Ctx), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut rxd = None;
    let mut work = PathBuf::from(".perfbench_work");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?),
            "--trace" => trace = Some(value == "1"),
            "--rxd" => rxd = Some(PathBuf::from(value)),
            "--work" => work = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok((
        workload.ok_or("--workload is required")?,
        Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            rxd: rxd.ok_or("--rxd is required")?,
            work,
            nproc,
        },
    ))
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [cmd, mode, file] = args.as_slice() {
        if cmd == "cold-child" {
            return match cold::child(mode, file, t0) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench cold-child: {e}");
                    ExitCode::from(2)
                }
            };
        }
    }
    let (workload, ctx) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: {}: {e}", ctx.work.display());
        return ExitCode::from(2);
    }
    let run = match workload.as_str() {
        "serve-fig6" => serve::run(&ctx),
        "edit-store" => store::run(&ctx),
        other => Err(format!("unknown workload {other}")),
    };
    match run.and_then(|out| emit(&workload, &ctx, out)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::from(2)
        }
    }
}

/// Prints the facts behind the run, every metric with its unit, and the
/// result line; returns whether every request was answered correctly.
fn emit(workload: &str, ctx: &Ctx, mut out: RunOutput) -> Result<bool, String> {
    let tally = out.tally;
    if tally.attempted == 0 {
        return Err("no request was attempted".into());
    }
    let failed_ratio = tally.failed() as f64 / tally.attempted as f64;
    let env = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".into());
    println!(
        "# {workload}: seed {} seconds {} trace {} | commit {} | nproc {} | {}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        env("PERFBENCH_COMMIT"),
        ctx.nproc,
        env("PERFBENCH_RUSTC"),
    );
    for note in &out.report.notes {
        println!("# {note}");
    }
    println!(
        "# requests: {} attempted, {} wrong, {} refused, {} errors",
        tally.attempted, tally.wrong, tally.refused, tally.errors
    );
    let names: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    out.report.put("failed_ratio", failed_ratio, "ratio");
    let mut fields = Vec::new();
    for &(name, unit) in names {
        let value = match out.report.metrics.iter().find(|(n, _, _)| n == name) {
            Some((_, v, u)) if *u == unit => *v,
            Some((_, _, u)) => return Err(format!("{name} was measured in {u}, not {unit}")),
            None if ctx.trace => {
                println!("# {name}: not on this workload's path");
                0.0
            }
            None => return Err(format!("{name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is {value}"));
        }
        println!("{name:<28} {value:>16.4} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if !ctx.trace {
        println!("{:<28} {failed_ratio:>16.4} ratio", "failed_ratio");
    }
    let correct = tally.failed() == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed(),
        fields.join(", ")
    );
    Ok(correct)
}
