//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (§6) against this reproduction.
//!
//! * [`table1`] — benchmark sizes (kernel LoC vs. property LoC), Table 1;
//! * [`run_figure6`] — all 41 properties, proved and certificate-checked,
//!   with wall-clock times next to the paper's (Figure 6);
//! * [`run_ablation`] — the §6.4 optimization ablation (syntactic skip,
//!   path pruning, invariant caching);
//! * [`run_utility`] — the §6.3 seeded-bug / false-policy experiment.
//!
//! The `figures` binary prints these as paper-style text tables; the
//! Criterion benches in `benches/` measure the same workloads with
//! statistical rigor.
//!
//! We do not expect to match the paper's absolute times — their prover is
//! Coq's kernel plus Ltac search, ours is native Rust — but the *shape*
//! must hold: every property verifies automatically, non-interference and
//! invariant-heavy rows are the most expensive, and the optimizations buy
//! large speedups.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod incr;
pub mod soak;
pub mod store;
pub mod stress;

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use reflex_driver::{json_string, Env, NullSink, SessionConfig, SessionReport, VerifySession};
use reflex_kernels::{all_benchmarks, figure6, loc_split};
use reflex_verify::{check_certificate_with, Abstraction, ProverOptions};

/// A benchmark-harness failure: a property that should verify didn't, a
/// certificate the checker rejected, or a session that failed to run.
///
/// The harness used to panic on these; callers (the `figures` binary, the
/// Criterion benches) now get a typed error and decide the exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchError(pub String);

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for BenchError {}

/// One measured Figure 6 row.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// The paper row (benchmark, description, paper time).
    pub row: figure6::Row,
    /// Our proof-search wall-clock, milliseconds.
    pub prove_ms: f64,
    /// Certificate-checking wall-clock, milliseconds.
    pub check_ms: f64,
    /// Number of discharged obligations in the certificate.
    pub obligations: usize,
}

/// Validates one benchmark's session report against the paper rows:
/// every Figure 6 property must be proved, every certificate must pass
/// the independent checker (timed here, so `prove_ms` stays pure proof
/// search), and rows come back in `figure6::ROWS` order. The certificates
/// are checked over one abstraction of the program, as a session checks
/// them, so `check_ms` times the checker alone.
fn rows_from_report(
    bench_name: &str,
    checked: &reflex_typeck::CheckedProgram,
    report: &SessionReport,
    options: &ProverOptions,
) -> Result<Vec<Fig6Result>, BenchError> {
    let abs = Abstraction::build(checked, options);
    figure6::ROWS
        .iter()
        .filter(|r| r.benchmark == bench_name)
        .map(|row| {
            let (_, outcome) = report
                .outcomes
                .iter()
                .find(|(name, _)| name == row.property)
                .ok_or_else(|| {
                    BenchError(format!(
                        "{}::{}: property missing from session report",
                        row.benchmark, row.property
                    ))
                })?;
            let cert = outcome.certificate().ok_or_else(|| {
                BenchError(format!(
                    "{}::{} failed: {}",
                    row.benchmark,
                    row.property,
                    outcome
                        .failure()
                        .map(ToString::to_string)
                        .unwrap_or_else(|| "no failure recorded".into())
                ))
            })?;
            let t0 = Instant::now();
            check_certificate_with(&abs, cert, options)
                .map_err(|e| BenchError(format!("{}::{}: {e}", row.benchmark, row.property)))?;
            let check_ms = t0.elapsed().as_secs_f64() * 1e3;
            let prove_ms = report
                .stats
                .properties
                .iter()
                .find(|p| p.name == row.property)
                .map_or(0.0, |p| p.wall_ms);
            Ok(Fig6Result {
                row: *row,
                prove_ms,
                check_ms,
                obligations: cert.obligation_count(),
            })
        })
        .collect()
}

/// Proves (and certificate-checks) all 41 Figure 6 properties, one
/// serial [`VerifySession`] per benchmark (each with its own fresh
/// cross-property cache, exactly as `prove_all` shares subproofs across a
/// program's properties).
///
/// # Errors
///
/// Returns [`BenchError`] if any property fails to verify or any
/// certificate is rejected — the headline claim of the reproduction.
pub fn run_figure6(options: &ProverOptions) -> Result<Vec<Fig6Result>, BenchError> {
    let mut out = Vec::with_capacity(figure6::ROWS.len());
    for bench in all_benchmarks() {
        let checked = (bench.checked)();
        let config = SessionConfig {
            options: options.clone(),
            ..SessionConfig::default()
        };
        // Certificates are checked by `rows_from_report` (timed
        // separately), not inside the session.
        let session = VerifySession::new(config)
            .map_err(|e| BenchError(e.to_string()))?
            .without_certificate_checks();
        let report = session
            .verify_checked(&checked, &NullSink)
            .map_err(|e| BenchError(format!("{}: {e}", bench.name)))?;
        out.extend(rows_from_report(bench.name, &checked, &report, options)?);
    }
    Ok(out)
}

/// [`run_figure6`] with one session per kernel over a shared [`Env`] whose
/// obligation pool has `jobs` workers (`0`: one per available CPU). The
/// sessions share the process-global term interner and entailment memo,
/// and each program's cross-property [`reflex_verify::ProofCache`] is
/// shared across its properties; results come back in the same order as
/// [`run_figure6`], with identical outcomes and certificates (cached
/// subproof packages are pure functions of their keys).
///
/// # Errors
///
/// Returns [`BenchError`] if any property fails to verify or any
/// certificate is rejected.
pub fn run_figure6_parallel(
    options: &ProverOptions,
    jobs: usize,
) -> Result<Vec<Fig6Result>, BenchError> {
    let env = Arc::new(
        Env::new(&SessionConfig {
            options: ProverOptions {
                jobs,
                ..options.clone()
            },
            ..SessionConfig::default()
        })
        .map_err(|e| BenchError(e.to_string()))?,
    );
    let mut out = Vec::with_capacity(figure6::ROWS.len());
    for bench in all_benchmarks() {
        let report = VerifySession::with_env(Arc::clone(&env))
            .without_certificate_checks()
            .verify_source(bench.name, bench.source, &NullSink)
            .map_err(|e| BenchError(format!("{}: {e}", bench.name)))?;
        let checked = (bench.checked)();
        out.extend(rows_from_report(bench.name, &checked, &report, options)?);
    }
    Ok(out)
}

/// One configuration's measurement inside [`Fig6Bench`].
#[derive(Debug, Clone)]
pub struct Fig6Run {
    /// Configuration label.
    pub label: &'static str,
    /// Whether the cross-property [`ProofCache`] was enabled.
    pub shared_cache: bool,
    /// Worker threads used.
    pub jobs: usize,
    /// End-to-end wall-clock over the 41 units, milliseconds.
    pub total_ms: f64,
    /// Per-row measurements, in [`run_figure6`] order.
    pub rows: Vec<Fig6Result>,
}

/// The serial-baseline vs. parallel+shared-cache comparison recorded in
/// `BENCH_fig6.json`.
#[derive(Debug, Clone)]
pub struct Fig6Bench {
    /// CPUs available to this process.
    pub cores: usize,
    /// The serial baseline: one thread, no cross-property cache (the
    /// pre-optimization prover configuration).
    pub serial: Fig6Run,
    /// The optimized run: shared cache on, one worker per core.
    pub parallel: Fig6Run,
    /// `serial.total_ms / parallel.total_ms`.
    pub speedup: f64,
    /// Whether the two runs proved exactly the same properties with the
    /// same obligation counts (they must: the parallel prover is
    /// outcome-identical by construction, and the shared cache splices
    /// byte-identical packages).
    pub outcomes_identical: bool,
}

/// Measures the full fig6 suite serial-baseline vs. parallel+cached.
///
/// `jobs` is the worker count for the parallel arm (`0`: one per
/// available CPU). The arm really runs with — and records — the resolved
/// value, so the speedup row measures what it claims even when the
/// requested count exceeds the core count.
///
/// # Errors
///
/// Returns [`BenchError`] if either run fails to verify every property.
pub fn run_figure6_bench(jobs: usize) -> Result<Fig6Bench, BenchError> {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let jobs = reflex_verify::resolve_jobs(jobs);
    let serial_options = ProverOptions {
        shared_cache: false,
        jobs: 1,
        ..ProverOptions::default()
    };
    let t0 = Instant::now();
    let serial_rows = run_figure6(&serial_options)?;
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;

    let parallel_options = ProverOptions {
        shared_cache: true,
        jobs,
        ..ProverOptions::default()
    };
    let t1 = Instant::now();
    let parallel_rows = run_figure6_parallel(&parallel_options, jobs)?;
    let parallel_ms = t1.elapsed().as_secs_f64() * 1e3;

    let outcomes_identical = serial_rows.len() == parallel_rows.len()
        && serial_rows.iter().zip(&parallel_rows).all(|(a, b)| {
            a.row.benchmark == b.row.benchmark
                && a.row.property == b.row.property
                && a.obligations == b.obligations
        });
    Ok(Fig6Bench {
        cores,
        serial: Fig6Run {
            label: "serial baseline (no shared cache)",
            shared_cache: false,
            jobs: 1,
            total_ms: serial_ms,
            rows: serial_rows,
        },
        parallel: Fig6Run {
            label: "parallel + shared cache",
            shared_cache: true,
            jobs,
            total_ms: parallel_ms,
            rows: parallel_rows,
        },
        speedup: serial_ms / parallel_ms,
        outcomes_identical,
    })
}

/// Renders a [`Fig6Bench`] as the `BENCH_fig6.json` document.
pub fn render_figure6_bench_json(bench: &Fig6Bench) -> String {
    fn run_json(run: &Fig6Run) -> String {
        let rows: Vec<String> = run
            .rows
            .iter()
            .map(|r| {
                format!(
                    "      {{\"benchmark\": {}, \"property\": {}, \
                     \"prove_ms\": {:.3}, \"check_ms\": {:.3}, \"obligations\": {}}}",
                    json_string(r.row.benchmark),
                    json_string(r.row.property),
                    r.prove_ms,
                    r.check_ms,
                    r.obligations
                )
            })
            .collect();
        format!(
            "{{\n    \"label\": {},\n    \"shared_cache\": {},\n    \
             \"jobs\": {},\n    \"total_ms\": {:.3},\n    \"rows\": [\n{}\n    ]\n  }}",
            json_string(run.label),
            run.shared_cache,
            run.jobs,
            run.total_ms,
            rows.join(",\n")
        )
    }
    format!(
        "{{\n  \"suite\": \"figure6\",\n  \"properties\": {},\n  \"cores\": {},\n  \
         \"serial\": {},\n  \"parallel\": {},\n  \"speedup\": {:.3},\n  \
         \"outcomes_identical\": {}\n}}\n",
        bench.serial.rows.len(),
        bench.cores,
        run_json(&bench.serial),
        run_json(&bench.parallel),
        bench.speedup,
        bench.outcomes_identical
    )
}

/// Renders Figure 6 as a text table.
pub fn render_figure6(results: &[Fig6Result]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<10} {:<55} {:>9} {:>10} {:>10} {:>6}\n",
        "bench", "policy", "paper(s)", "ours(ms)", "check(ms)", "oblig"
    ));
    s.push_str(&"-".repeat(105));
    s.push('\n');
    for r in results {
        s.push_str(&format!(
            "{:<10} {:<55} {:>9} {:>10.2} {:>10.2} {:>6}\n",
            r.row.benchmark,
            r.row.description,
            r.row.paper_seconds,
            r.prove_ms,
            r.check_ms,
            r.obligations
        ));
    }
    let total_paper: u32 = results.iter().map(|r| r.row.paper_seconds).sum();
    let total_ours: f64 = results.iter().map(|r| r.prove_ms).sum();
    s.push_str(&"-".repeat(105));
    s.push('\n');
    s.push_str(&format!(
        "{} properties, all proved automatically; paper total {total_paper}s, ours {total_ours:.1}ms\n",
        results.len()
    ));
    s
}

/// One Table 1 row: a benchmark's kernel vs. property line counts.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Non-empty, non-comment kernel (code) lines.
    pub kernel_loc: usize,
    /// Non-empty, non-comment property lines.
    pub props_loc: usize,
    /// The paper's kernel/property counts for the matching system, if it
    /// reported them (Table 1 covers ssh, browser, webserver).
    pub paper: Option<(usize, usize)>,
}

/// Computes Table 1 (benchmark sizes) over our kernel sources.
pub fn table1() -> Vec<Table1Row> {
    all_benchmarks()
        .into_iter()
        .map(|b| {
            let (kernel_loc, props_loc) = loc_split(b.source);
            let paper = match b.name {
                "ssh" => Some((64, 22)),
                "browser" => Some((81, 37)),
                "webserver" => Some((56, 29)),
                _ => None,
            };
            Table1Row {
                name: b.name,
                kernel_loc,
                props_loc,
                paper,
            }
        })
        .collect()
}

/// Renders Table 1 as a text table.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<11} {:>11} {:>10} {:>14} {:>13}\n",
        "benchmark", "kernel LoC", "props LoC", "paper kernel", "paper props"
    ));
    s.push_str(&"-".repeat(64));
    s.push('\n');
    for r in rows {
        let (pk, pp) = match r.paper {
            Some((k, p)) => (k.to_string(), p.to_string()),
            None => ("-".into(), "-".into()),
        };
        s.push_str(&format!(
            "{:<11} {:>11} {:>10} {:>14} {:>13}\n",
            r.name, r.kernel_loc, r.props_loc, pk, pp
        ));
    }
    s
}

/// One ablation configuration with its total verification time.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// Configuration label.
    pub config: &'static str,
    /// The options used.
    pub options: ProverOptions,
    /// Total wall-clock over all 41 properties, milliseconds.
    pub total_ms: f64,
    /// Total certificate obligations (a proof-size proxy for the paper's
    /// memory-reduction claim).
    pub total_obligations: usize,
}

/// The ablation configurations of the §6.4 experiment.
pub fn ablation_configs() -> Vec<(&'static str, ProverOptions)> {
    vec![
        ("all optimizations", ProverOptions::optimized()),
        (
            "no syntactic skip",
            ProverOptions {
                syntactic_skip: false,
                ..ProverOptions::default()
            },
        ),
        (
            "no path pruning",
            ProverOptions {
                prune_paths: false,
                ..ProverOptions::default()
            },
        ),
        (
            "no invariant cache",
            ProverOptions {
                cache_invariants: false,
                ..ProverOptions::default()
            },
        ),
        (
            "no shared cache",
            ProverOptions {
                shared_cache: false,
                ..ProverOptions::default()
            },
        ),
        ("none (unoptimized)", ProverOptions::unoptimized()),
    ]
}

/// Runs the §6.4 ablation: verifies all 41 properties under each
/// configuration.
///
/// # Errors
///
/// Returns [`BenchError`] if any configuration fails to verify every
/// property (disabled optimizations may be slower, never weaker).
pub fn run_ablation() -> Result<Vec<AblationResult>, BenchError> {
    ablation_configs()
        .into_iter()
        .map(|(config, options)| {
            let t0 = Instant::now();
            let results = run_figure6(&options)?;
            let total_ms = t0.elapsed().as_secs_f64() * 1e3;
            Ok(AblationResult {
                config,
                options,
                total_ms,
                total_obligations: results.iter().map(|r| r.obligations).sum(),
            })
        })
        .collect()
}

/// Renders the ablation as a text table with speedups relative to the
/// unoptimized configuration.
pub fn render_ablation(results: &[AblationResult]) -> String {
    let baseline = results
        .iter()
        .find(|r| r.config == "none (unoptimized)")
        .map(|r| r.total_ms)
        .unwrap_or(f64::NAN);
    let mut s = String::new();
    s.push_str(&format!(
        "{:<22} {:>12} {:>9} {:>12}\n",
        "configuration", "total (ms)", "speedup", "obligations"
    ));
    s.push_str(&"-".repeat(60));
    s.push('\n');
    for r in results {
        s.push_str(&format!(
            "{:<22} {:>12.1} {:>8.1}x {:>12}\n",
            r.config,
            r.total_ms,
            baseline / r.total_ms,
            r.total_obligations
        ));
    }
    s
}

/// One §6.3 utility experiment: a seeded mutation and whether the
/// automation caught it.
#[derive(Debug, Clone)]
pub struct UtilityResult {
    /// What was mutated.
    pub mutation: &'static str,
    /// The property expected to fail.
    pub property: &'static str,
    /// Whether verification (correctly) failed.
    pub caught: bool,
    /// Whether the bounded falsifier found a concrete counterexample.
    pub counterexample: bool,
}

/// One §6.3 seeded bug: a benchmark kernel with one edit, and the
/// property the edit breaks.
#[derive(Debug, Clone)]
pub struct SeededMutant {
    /// The kernel the edit applies to.
    pub kernel: &'static str,
    /// What was mutated.
    pub mutation: &'static str,
    /// The edited kernel source.
    pub source: String,
    /// The property expected to fail.
    pub property: &'static str,
}

/// The four seeded bugs of §6.3, one per kernel that has one.
pub fn seeded_mutants() -> Vec<SeededMutant> {
    vec![
        SeededMutant {
            kernel: "browser",
            mutation: "browser: socket handler loses its domain check",
            source: reflex_kernels::browser::SOURCE.replace(
                "    if (host == sender.domain) {\n      send(N, Connect(host));\n    }",
                "    send(N, Connect(host));",
            ),
            property: "SocketsOnlyToOwnDomain",
        },
        SeededMutant {
            kernel: "car",
            mutation: "car: crash handler forgets to latch `crashed`",
            source: reflex_kernels::car::SOURCE.replace("    crashed = true;\n", ""),
            property: "NoLockAfterCrash",
        },
        SeededMutant {
            kernel: "ssh",
            mutation: "ssh: attempts counter reset on success",
            source: reflex_kernels::ssh::SOURCE.replace(
                "    auth_ok = true;\n  }",
                "    auth_ok = true;\n    attempts = 0;\n  }",
            ),
            property: "FirstAttemptOnlyOnce",
        },
        SeededMutant {
            kernel: "webserver",
            mutation: "webserver: duplicate-session guard removed",
            source: reflex_kernels::webserver::SOURCE.replace(
                "    lookup Client(c : c.user == user) {\n    } else {\n      n <- spawn Client(user);\n    }",
                "    n <- spawn Client(user);",
            ),
            property: "ClientsNeverDuplicated",
        },
    ]
}

/// Runs the seeded-bug experiment of §6.3 on the benchmark kernels.
///
/// Each mutant goes through a [`VerifySession`] scoped to the property the
/// mutation is expected to break: "caught" means the session reports it
/// unproved. Errors if a mutant no longer parses or typechecks (the seeded
/// edits must stay syntactically valid to be meaningful).
pub fn run_utility() -> Result<Vec<UtilityResult>, BenchError> {
    use reflex_verify::{falsify, FalsifyOptions};
    let options = ProverOptions::default();
    seeded_mutants()
        .into_iter()
        .map(|mutant| {
            let SeededMutant {
                mutation,
                source: src,
                property,
                ..
            } = mutant;
            let program = reflex_parser::parse_program("mutant", &src)
                .map_err(|e| BenchError(format!("{mutation}: mutant no longer parses: {e}")))?;
            let checked = reflex_typeck::check(&program)
                .map_err(|e| BenchError(format!("{mutation}: mutant no longer typechecks: {e}")))?;
            let session = VerifySession::new(SessionConfig {
                options: options.clone(),
                property: Some(property.to_owned()),
                ..SessionConfig::default()
            })
            .map_err(|e| BenchError(format!("{mutation}: {e}")))?
            .without_certificate_checks();
            let report = session
                .verify_checked(&checked, &NullSink)
                .map_err(|e| BenchError(format!("{mutation}: {e}")))?;
            let caught = report.proved() == 0;
            let counterexample = falsify(
                &checked,
                property,
                &FalsifyOptions {
                    max_exchanges: 4,
                    ..FalsifyOptions::default()
                },
            )
            .is_some();
            Ok(UtilityResult {
                mutation,
                property,
                caught,
                counterexample,
            })
        })
        .collect()
}

/// Renders the utility experiment as a text table.
pub fn render_utility(results: &[UtilityResult]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<55} {:<28} {:>7} {:>8}\n",
        "seeded mutation", "property", "caught", "cex"
    ));
    s.push_str(&"-".repeat(102));
    s.push('\n');
    for r in results {
        s.push_str(&format!(
            "{:<55} {:<28} {:>7} {:>8}\n",
            r.mutation,
            r.property,
            if r.caught { "yes" } else { "NO" },
            if r.counterexample { "found" } else { "-" }
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_is_in_paper_ballpark() {
        let rows = table1();
        assert_eq!(rows.len(), 7);
        for r in rows {
            assert!(r.kernel_loc > 10, "{}: {}", r.name, r.kernel_loc);
            assert!(r.props_loc > 3, "{}: {}", r.name, r.props_loc);
            if let Some((pk, pp)) = r.paper {
                // Same order of magnitude as the paper's counts.
                assert!(r.kernel_loc < pk * 3 && r.kernel_loc > pk / 3, "{}", r.name);
                assert!(r.props_loc < pp * 3 && r.props_loc > pp / 3, "{}", r.name);
            }
        }
    }

    #[test]
    fn utility_catches_every_seeded_bug() {
        for r in run_utility().expect("utility mutants verify-able") {
            assert!(r.caught, "{} was not caught", r.mutation);
            assert!(r.counterexample, "{}: no counterexample", r.mutation);
        }
    }
}
