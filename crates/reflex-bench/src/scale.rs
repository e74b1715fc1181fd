//! The prover-scaling benchmark behind `rx bench scale` and
//! `BENCH_scale.json`.
//!
//! Where the Figure-6 suite measures the paper's seven hand-written
//! kernels (25 ms total), this bench proves the synthetic kernels from
//! [`reflex_kernels::synth`] at the `small`/`medium`/`large` presets and
//! reports *throughput*: proof obligations discharged per second, wall
//! time, and peak RSS. The committed `BENCH_scale.json` pairs each live
//! ("optimized") row with the [`baseline`] row measured on the same
//! machine from `main` before the PR-6 prover optimizations (work-stealing
//! obligation scheduler, read-mostly sharded interner/memo/cache, scratch
//! term arena, O(1) memo fingerprints) landed.
//!
//! Peak RSS is read from `/proc/self/status` `VmHWM` and is monotone over
//! the process lifetime, so presets are measured smallest-first and each
//! row records the high-water mark *after* its run.

use std::time::Instant;

use reflex_kernels::synth::{self, SynthConfig};
use reflex_verify::{check_certificate_with, prove_all, Abstraction, ProverOptions};

use crate::BenchError;

/// Preset names in measurement (ascending-size) order.
pub const PRESETS: &[&str] = &["small", "medium", "large"];

/// One measured scaling row.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Preset name (`small` / `medium` / `large`).
    pub preset: String,
    /// Generator seed.
    pub seed: u64,
    /// Worker threads used.
    pub jobs: usize,
    /// Ring components in the generated kernel.
    pub components: usize,
    /// Properties proved.
    pub properties: usize,
    /// Total proof obligations across all certificates.
    pub obligations: u64,
    /// End-to-end prove wall-clock, milliseconds.
    pub wall_ms: f64,
    /// `obligations / wall seconds`.
    pub obligations_per_sec: f64,
    /// `VmHWM` after the run, kiB (0 when `/proc` is unavailable).
    pub peak_rss_kb: u64,
}

/// The pre-optimization throughput, measured from `main` (commit
/// `5cacbe6`, seed 1, serial) on the reference container before the PR-6
/// prover work landed. `render_scale_json` pairs these with the live rows
/// so the committed `BENCH_scale.json` always carries its own baseline.
pub fn baseline() -> Vec<ScaleRow> {
    let row = |preset: &str, components, properties, obligations, wall_ms, peak_rss_kb| ScaleRow {
        preset: preset.to_owned(),
        seed: 1,
        jobs: 1,
        components,
        properties,
        obligations,
        wall_ms,
        obligations_per_sec: obligations as f64 / (wall_ms / 1e3),
        peak_rss_kb,
    };
    // Measured by running this bench (serial, seed 1) with the prover as
    // of the baseline commit; note the throughput *collapse* from medium
    // to large — the pre-optimization memo hashed the full assertion log
    // per query, so cost grew quadratically with solver state.
    vec![
        row("small", 6, 24, 1393, 119.2, 7976),
        row("medium", 16, 95, 49999, 3865.8, 177372),
        row("large", 36, 290, 1_410_100, 473_867.5, 13_970_548),
    ]
}

/// Peak resident set size (`VmHWM`) in kiB, or 0 off-Linux.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|n| n.parse::<u64>().ok())
            })
        })
        .unwrap_or(0)
}

/// Proves one generated preset and measures throughput.
///
/// Every property must prove and every certificate must pass the
/// independent checker — a scaling number for a broken prover would be
/// meaningless.
///
/// # Errors
///
/// Returns [`BenchError`] for an unknown preset or any unproved property
/// or rejected certificate.
pub fn run_scale_preset(preset: &str, seed: u64, jobs: usize) -> Result<ScaleRow, BenchError> {
    let cfg = SynthConfig::preset(preset, seed)
        .ok_or_else(|| BenchError(format!("unknown preset `{preset}`")))?;
    let kernel = synth::generate(&cfg);
    let checked = kernel.checked();
    let options = ProverOptions {
        shared_cache: true,
        jobs,
        ..ProverOptions::default()
    };
    let t0 = Instant::now();
    let results = prove_all(&checked, &options);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let abs = Abstraction::build(&checked, &options);
    let mut obligations = 0u64;
    for (name, outcome) in &results {
        let cert = outcome
            .certificate()
            .ok_or_else(|| BenchError(format!("{}: {name} failed to prove", kernel.name)))?;
        check_certificate_with(&abs, cert, &options).map_err(|e| {
            BenchError(format!(
                "{}: {name}: certificate rejected: {e}",
                kernel.name
            ))
        })?;
        obligations += cert.obligation_count() as u64;
    }
    Ok(ScaleRow {
        preset: preset.to_owned(),
        seed,
        jobs: reflex_verify::resolve_jobs(jobs),
        components: cfg.components,
        properties: results.len(),
        obligations,
        wall_ms,
        obligations_per_sec: obligations as f64 / (wall_ms / 1e3),
        peak_rss_kb: peak_rss_kb(),
    })
}

/// Runs the selected presets smallest-first.
///
/// # Errors
///
/// Propagates the first preset failure.
pub fn run_scale(presets: &[&str], seed: u64, jobs: usize) -> Result<Vec<ScaleRow>, BenchError> {
    presets
        .iter()
        .map(|p| run_scale_preset(p, seed, jobs))
        .collect()
}

fn row_json(indent: &str, r: &ScaleRow) -> String {
    format!(
        "{indent}{{\"preset\": \"{}\", \"seed\": {}, \"jobs\": {}, \"components\": {}, \
         \"properties\": {}, \"obligations\": {}, \"wall_ms\": {:.3}, \
         \"obligations_per_sec\": {:.1}, \"peak_rss_kb\": {}}}",
        crate::json_escape(&r.preset),
        r.seed,
        r.jobs,
        r.components,
        r.properties,
        r.obligations,
        r.wall_ms,
        r.obligations_per_sec,
        r.peak_rss_kb,
    )
}

/// Renders `BENCH_scale.json`: baseline rows, the live (optimized) rows,
/// and per-preset speedups (`baseline wall_ms / optimized wall_ms`).
pub fn render_scale_json(optimized: &[ScaleRow]) -> String {
    let base = baseline();
    let baseline_rows: Vec<String> = base.iter().map(|r| row_json("    ", r)).collect();
    let live_rows: Vec<String> = optimized.iter().map(|r| row_json("    ", r)).collect();
    let speedups: Vec<String> = optimized
        .iter()
        .filter_map(|o| {
            base.iter().find(|b| b.preset == o.preset).map(|b| {
                format!(
                    "    {{\"preset\": \"{}\", \"wall_speedup\": {:.2}, \
                     \"throughput_ratio\": {:.2}}}",
                    crate::json_escape(&o.preset),
                    b.wall_ms / o.wall_ms,
                    o.obligations_per_sec / b.obligations_per_sec,
                )
            })
        })
        .collect();
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    format!(
        "{{\n  \"suite\": \"scale\",\n  \"cores\": {cores},\n  \
         \"baseline_commit\": \"5cacbe6 (pre-optimization main)\",\n  \
         \"baseline\": [\n{}\n  ],\n  \"optimized\": [\n{}\n  ],\n  \
         \"speedup\": [\n{}\n  ]\n}}\n",
        baseline_rows.join(",\n"),
        live_rows.join(",\n"),
        speedups.join(",\n"),
    )
}

/// Renders the scaling rows as a text table.
pub fn render_scale(rows: &[ScaleRow]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<8} {:>5} {:>6} {:>7} {:>9} {:>12} {:>12} {:>12}\n",
        "preset", "jobs", "comps", "props", "obl", "wall ms", "obl/s", "rss kb"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<8} {:>5} {:>6} {:>7} {:>9} {:>12.1} {:>12.1} {:>12}\n",
            r.preset,
            r.jobs,
            r.components,
            r.properties,
            r.obligations,
            r.wall_ms,
            r.obligations_per_sec,
            r.peak_rss_kb
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_preset_measures_and_renders() {
        let row = run_scale_preset("small", 1, 1).expect("small preset proves");
        assert!(row.obligations > 0);
        assert!(row.wall_ms > 0.0);
        let json = render_scale_json(std::slice::from_ref(&row));
        assert!(json.contains("\"suite\": \"scale\""), "{json}");
        assert!(json.contains("\"baseline\""), "{json}");
        assert!(json.contains("\"wall_speedup\""), "{json}");
        let table = render_scale(&[row]);
        assert!(table.contains("small"), "{table}");
    }

    #[test]
    fn unknown_preset_is_an_error() {
        assert!(run_scale_preset("galactic", 1, 1).is_err());
    }
}
