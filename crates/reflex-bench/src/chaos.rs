//! Chaos harness: replays the scripted 20-edit incremental session (see
//! [`crate::incr`]) through a [`WatchSession`] whose proof store sits on
//! a deterministically faulty filesystem, once per seed, and checks the
//! pipeline's robustness invariants:
//!
//! * **no session aborts** — store trouble may slow an iteration or
//!   degrade it to in-memory caching, but never turns into an error or
//!   a missing verdict;
//! * **no wrong reuse** — every certificate produced under faults is
//!   byte-identical to the clean baseline's (a corrupt store entry must
//!   become a miss and a re-prove, never a wrong "reused" verdict);
//! * **quarantine works** — after the disk heals, `ProofStore::scrub`
//!   removes or quarantines every damaged entry, and a final clean run
//!   over the scrubbed store still matches the baseline (no
//!   quarantine escapes).
//!
//! `rx chaos --seeds A..B` drives this and writes `BENCH_chaos.json`;
//! CI replays seeds 0..8 and asserts the invariant fields.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use reflex_driver::{
    BackoffPolicy, Event, Instrument, NullSink, SessionConfig, VerifySession, WatchSession,
};
use reflex_verify::{Certificate, FaultyFs, ProverOptions, VerifyFs};

use crate::incr::edit_script;
use crate::BenchError;

/// Configuration for one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Fault-schedule seeds to replay (one full session each).
    pub seeds: Vec<u64>,
    /// Per-operation fault probability, parts per million.
    pub rate_ppm: u32,
    /// Worker threads for re-proving.
    pub jobs: usize,
    /// Replay a generated kernel (small preset, this generator seed) and
    /// its variant edit script instead of the scripted fig6 session.
    pub gen_seed: Option<u64>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seeds: (0..8).collect(),
            rate_ppm: 50_000,
            jobs: 1,
            gen_seed: None,
        }
    }
}

/// What one seeded replay did and whether it upheld the invariants.
#[derive(Debug, Clone)]
pub struct ChaosSeedResult {
    /// The fault-schedule seed.
    pub seed: u64,
    /// Faults the filesystem actually injected.
    pub faults_injected: u64,
    /// `StoreRetry` events (backoff probes after I/O errors).
    pub store_retries: usize,
    /// `StoreDegraded` events (store detached after failed retries).
    pub degraded_events: usize,
    /// `StoreRecovered` events (store re-attached after a healthy probe).
    pub recovered_events: usize,
    /// Iterations that ran in degraded (in-memory) mode.
    pub degraded_iterations: usize,
    /// Iterations whose session returned an error (must be zero).
    pub aborts: usize,
    /// Properties left unproved in any iteration (must be zero).
    pub unproved: usize,
    /// Iterations whose certificates differ from the clean baseline
    /// (must be zero: corrupt entries become misses, never wrong reuse).
    pub cert_mismatches: usize,
    /// Entries deliberately bit-rotted after the replay (external damage
    /// the store's own fsync-gated writer can never produce) — the scrub
    /// must quarantine every one of them.
    pub corrupt_seeded: usize,
    /// Store entries scanned by the post-heal scrub.
    pub scrub_scanned: usize,
    /// Entries the scrub moved to `quarantine/`.
    pub scrub_quarantined: usize,
    /// Leftover temp/probe files the scrub removed.
    pub scrub_tmp_removed: usize,
    /// Final-version certificates that differ from the baseline *after*
    /// the scrub (must be zero: nothing corrupt escaped quarantine).
    pub post_scrub_mismatches: usize,
}

/// The whole chaos suite: per-seed results plus invariant totals.
#[derive(Debug, Clone)]
pub struct ChaosBench {
    /// Replayed workload: `fig6-script` or `synth-small-seedN`.
    pub workload: String,
    /// Per-operation fault rate, parts per million.
    pub rate_ppm: u32,
    /// Worker threads used.
    pub jobs: usize,
    /// Iterations per seed (base kernels + scripted edits).
    pub iterations_per_seed: usize,
    /// One result per replayed seed.
    pub seeds: Vec<ChaosSeedResult>,
}

impl ChaosBench {
    /// Total faults injected across all seeds.
    pub fn total_faults(&self) -> u64 {
        self.seeds.iter().map(|s| s.faults_injected).sum()
    }

    /// Total session aborts (invariant: zero).
    pub fn total_aborts(&self) -> usize {
        self.seeds.iter().map(|s| s.aborts).sum()
    }

    /// Total baseline certificate mismatches during faulted replays
    /// (invariant: zero).
    pub fn total_cert_mismatches(&self) -> usize {
        self.seeds
            .iter()
            .map(|s| s.cert_mismatches + s.unproved)
            .sum()
    }

    /// Total post-scrub mismatches plus seeded-corruption entries the
    /// scrub failed to quarantine (invariant: zero).
    pub fn total_quarantine_escapes(&self) -> usize {
        self.seeds
            .iter()
            .map(|s| s.post_scrub_mismatches + s.corrupt_seeded.saturating_sub(s.scrub_quarantined))
            .sum()
    }

    /// Number of violated robustness invariants (the `rx chaos` exit code
    /// is nonzero iff this is).
    pub fn violations(&self) -> usize {
        self.total_aborts() + self.total_cert_mismatches() + self.total_quarantine_escapes()
    }
}

/// An [`Instrument`] that counts the store-health events of one replay.
#[derive(Debug, Default)]
struct ChaosSink {
    retries: AtomicUsize,
    degraded: AtomicUsize,
    recovered: AtomicUsize,
}

impl Instrument for ChaosSink {
    fn event(&self, event: &Event) {
        match event {
            Event::StoreRetry { .. } => self.retries.fetch_add(1, Ordering::Relaxed),
            Event::StoreDegraded { .. } => self.degraded.fetch_add(1, Ordering::Relaxed),
            Event::StoreRecovered => self.recovered.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
    }
}

/// A store directory unique to this process and seed.
fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rx-chaos-{tag}-{}", std::process::id()))
}

fn parse_and_check(name: &str, source: &str) -> Result<reflex_typeck::CheckedProgram, BenchError> {
    let program = reflex_parser::parse_program(name, source)
        .map_err(|e| BenchError(format!("chaos: {name} must stay parseable: {e}")))?;
    reflex_typeck::check(&program)
        .map_err(|e| BenchError(format!("chaos: {name} must stay well-typed: {e}")))
}

/// The replayed source sequence: both base kernels, then the 20 scripted
/// edits, as `(kernel, source)` pairs. Identical for every seed and for
/// the clean baseline.
fn replay_sequence() -> Result<Vec<(String, String)>, BenchError> {
    let mut sources = BTreeMap::new();
    sources.insert("ssh", reflex_kernels::kernels::ssh::SOURCE.to_owned());
    sources.insert(
        "browser",
        reflex_kernels::kernels::browser::SOURCE.to_owned(),
    );
    let mut sequence: Vec<(String, String)> = sources
        .iter()
        .map(|(k, s)| ((*k).to_owned(), s.clone()))
        .collect();
    for step in edit_script() {
        let source = sources.get_mut(step.kernel).expect("scripted kernel");
        if !source.contains(step.find) {
            return Err(BenchError(format!(
                "chaos: edit '{}' does not apply: pattern not found",
                step.label
            )));
        }
        *source = source.replacen(step.find, step.replace, 1);
        sequence.push((step.kernel.to_owned(), source.clone()));
    }
    Ok(sequence)
}

/// Edit sequence over a generated kernel: the small-preset base kernel
/// for `seed`, then four deterministic variant edits (each appends a
/// handler and its property), so the watch loop's reuse ladder and the
/// store all see a synthetic workload instead of the scripted fig6 one.
fn generated_sequence(seed: u64) -> Vec<(String, String)> {
    let cfg =
        reflex_kernels::synth::SynthConfig::preset("small", seed).expect("small preset exists");
    (0..5)
        .map(|variant| {
            let kernel = reflex_kernels::synth::generate_variant(&cfg, variant);
            (kernel.name, kernel.source)
        })
        .collect()
}

/// The certificates of one report, in declaration order (deterministic).
fn certs_of(report: &reflex_driver::SessionReport) -> Vec<(String, Certificate)> {
    report
        .outcomes
        .iter()
        .filter_map(|(name, o)| o.certificate().map(|c| (name.clone(), c.clone())))
        .collect()
}

fn session_config(dir: &std::path::Path, jobs: usize) -> SessionConfig {
    SessionConfig {
        options: ProverOptions {
            jobs,
            ..ProverOptions::default()
        },
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..SessionConfig::default()
    }
}

/// Replays the scripted session once per seed under injected store
/// faults and checks every robustness invariant (recorded per seed, not
/// panicked on — `rx chaos` turns [`ChaosBench::violations`] into the
/// exit code and CI guards the JSON fields).
///
/// # Errors
///
/// Returns [`BenchError`] only for harness-level problems (a scripted
/// edit failing to apply, the *clean* baseline failing to verify) —
/// never for fault-induced behavior, which the result records instead.
pub fn run_chaos(config: &ChaosConfig) -> Result<ChaosBench, BenchError> {
    let sequence = match config.gen_seed {
        Some(seed) => generated_sequence(seed),
        None => replay_sequence()?,
    };
    let checked: Vec<(String, reflex_typeck::CheckedProgram)> = sequence
        .iter()
        .map(|(k, s)| Ok((k.clone(), parse_and_check(k, s)?)))
        .collect::<Result<_, BenchError>>()?;

    // Clean baseline: the same replay over a healthy store. Its
    // certificates are the ground truth every faulted replay must match.
    let base_dir = scratch_dir("baseline");
    let _ = std::fs::remove_dir_all(&base_dir);
    let mut baseline: Vec<Vec<(String, Certificate)>> = Vec::with_capacity(checked.len());
    let mut final_certs: BTreeMap<String, Vec<(String, Certificate)>> = BTreeMap::new();
    {
        let mut watch = WatchSession::new(session_config(&base_dir, config.jobs))
            .map_err(|e| BenchError(format!("chaos baseline: {e}")))?;
        for (kernel, program) in &checked {
            let it = watch
                .verify(program, &NullSink)
                .map_err(|e| BenchError(format!("chaos baseline ({kernel}): {e}")))?;
            for (name, o) in &it.report.outcomes {
                if !o.is_proved() {
                    return Err(BenchError(format!(
                        "chaos baseline ({kernel}): property {name} must be provable"
                    )));
                }
            }
            let certs = certs_of(&it.report);
            final_certs.insert(kernel.clone(), certs.clone());
            baseline.push(certs);
        }
    }
    let _ = std::fs::remove_dir_all(&base_dir);

    let mut seeds = Vec::with_capacity(config.seeds.len());
    for &seed in &config.seeds {
        let dir = scratch_dir(&format!("seed{seed}"));
        let _ = std::fs::remove_dir_all(&dir);
        let faulty = FaultyFs::seeded(seed, config.rate_ppm);
        let mut cfg = session_config(&dir, config.jobs);
        cfg.store_fs = Some(Arc::new(faulty.clone()) as Arc<dyn VerifyFs>);
        let sink = ChaosSink::default();

        let mut result = ChaosSeedResult {
            seed,
            faults_injected: 0,
            store_retries: 0,
            degraded_events: 0,
            recovered_events: 0,
            degraded_iterations: 0,
            aborts: 0,
            unproved: 0,
            cert_mismatches: 0,
            corrupt_seeded: 0,
            scrub_scanned: 0,
            scrub_quarantined: 0,
            scrub_tmp_removed: 0,
            post_scrub_mismatches: 0,
        };

        match WatchSession::new(cfg) {
            Ok(watch) => {
                let mut watch = watch.with_backoff(BackoffPolicy {
                    base_ms: 1,
                    cap_ms: 4,
                    retries: 2,
                });
                for ((kernel, program), expected) in checked.iter().zip(&baseline) {
                    match watch.verify(program, &sink) {
                        Ok(it) => {
                            if it.degraded {
                                result.degraded_iterations += 1;
                            }
                            result.unproved += it
                                .report
                                .outcomes
                                .iter()
                                .filter(|(_, o)| !o.is_proved())
                                .count();
                            if &certs_of(&it.report) != expected {
                                result.cert_mismatches += 1;
                            }
                        }
                        Err(e) => {
                            // Invariant violation: record it, keep going so
                            // one bad iteration still yields a full report.
                            let _ = (kernel, e);
                            result.aborts += 1;
                        }
                    }
                }
            }
            // Even a store directory that cannot be created should start
            // the loop degraded, not fail construction.
            Err(_) => result.aborts += 1,
        }

        result.store_retries = sink.retries.load(Ordering::Relaxed);
        result.degraded_events = sink.degraded.load(Ordering::Relaxed);
        result.recovered_events = sink.recovered.load(Ordering::Relaxed);
        result.faults_injected = faulty.injected();

        // The disk heals; before scrubbing, inflict damage the store's own
        // fsync-gated writer can never produce — bit rot in landed entries
        // and stale temp debris — so the quarantine path is exercised on
        // every seed.
        faulty.heal();
        result.corrupt_seeded = seed_external_corruption(&dir);
        if let Ok(store) = reflex_verify::ProofStore::open(&dir) {
            match store.scrub(None) {
                Ok(scrub) => {
                    result.scrub_scanned = scrub.scanned;
                    result.scrub_quarantined = scrub.quarantined.len();
                    result.scrub_tmp_removed = scrub.tmp_removed;
                }
                Err(_) => result.aborts += 1,
            }
        }

        // Final clean run over the scrubbed store: every certificate —
        // reused from disk or re-proved — must still match the baseline.
        for (kernel, expected) in &final_certs {
            let program = checked
                .iter()
                .rev()
                .find(|(k, _)| k == kernel)
                .map(|(_, c)| c)
                .expect("kernel present in replay");
            let session = VerifySession::new(session_config(&dir, config.jobs));
            match session.and_then(|s| s.verify_checked(program, &NullSink)) {
                Ok(report) => {
                    if &certs_of(&report) != expected {
                        result.post_scrub_mismatches += 1;
                    }
                }
                Err(_) => result.post_scrub_mismatches += 1,
            }
        }

        let _ = std::fs::remove_dir_all(&dir);
        seeds.push(result);
    }

    Ok(ChaosBench {
        workload: match config.gen_seed {
            Some(seed) => format!("synth-small-seed{seed}"),
            None => "fig6-script".to_owned(),
        },
        rate_ppm: config.rate_ppm,
        jobs: config.jobs,
        iterations_per_seed: checked.len(),
        seeds,
    })
}

/// Flips a payload byte in the first frame of the (alphabetically) first
/// two segment logs and drops a stale `.tmp-` file, returning how many
/// segments were damaged. Mimics bit rot and crash debris from outside
/// the store's own fsync-gated append discipline. The flip lands at
/// offset 50 — past the 44-byte frame header, inside the first payload —
/// so it provably breaks that frame's integrity fingerprint and the
/// scrub must quarantine the segment tail.
fn seed_external_corruption(dir: &std::path::Path) -> usize {
    let mut corrupted = 0usize;
    let mut segments: Vec<PathBuf> = Vec::new();
    if let Ok(rd) = std::fs::read_dir(dir) {
        for shard in rd.filter_map(|e| e.ok().map(|e| e.path())) {
            let is_shard = shard
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("shard-"));
            if !(is_shard && shard.is_dir()) {
                continue;
            }
            if let Ok(rd) = std::fs::read_dir(&shard) {
                segments.extend(
                    rd.filter_map(|e| e.ok().map(|e| e.path()))
                        .filter(|p| p.extension().is_some_and(|x| x == "log")),
                );
            }
        }
    }
    segments.sort();
    for path in segments.iter().take(2) {
        if let Ok(mut bytes) = std::fs::read(path) {
            if bytes.len() > 50 {
                bytes[50] ^= 0x40;
                if std::fs::write(path, &bytes).is_ok() {
                    corrupted += 1;
                }
            }
        }
    }
    let _ = std::fs::write(dir.join(".tmp-0-chaos-debris.cert"), b"crash debris");
    corrupted
}

/// Renders the chaos suite as a text table.
pub fn render_chaos(bench: &ChaosBench) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Chaos replay ({}): {} iterations/seed at {} ppm fault rate (jobs = {})\n\n",
        bench.workload, bench.iterations_per_seed, bench.rate_ppm, bench.jobs
    ));
    out.push_str(&format!(
        "{:>5} {:>7} {:>8} {:>9} {:>10} {:>9} {:>5} {:>5} {:>9} {:>8}\n",
        "seed",
        "faults",
        "retries",
        "degraded",
        "recovered",
        "degr-its",
        "rot",
        "quar",
        "mismatch",
        "escapes"
    ));
    for s in &bench.seeds {
        out.push_str(&format!(
            "{:>5} {:>7} {:>8} {:>9} {:>10} {:>9} {:>5} {:>5} {:>9} {:>8}\n",
            s.seed,
            s.faults_injected,
            s.store_retries,
            s.degraded_events,
            s.recovered_events,
            s.degraded_iterations,
            s.corrupt_seeded,
            s.scrub_quarantined,
            s.cert_mismatches + s.unproved,
            s.post_scrub_mismatches + s.corrupt_seeded.saturating_sub(s.scrub_quarantined)
        ));
    }
    out.push_str(&format!(
        "\ntotals: {} faults injected, {} aborts, {} certificate mismatches, {} quarantine escapes\n",
        bench.total_faults(),
        bench.total_aborts(),
        bench.total_cert_mismatches(),
        bench.total_quarantine_escapes()
    ));
    out.push_str(if bench.violations() == 0 {
        "all robustness invariants held ✓\n"
    } else {
        "ROBUSTNESS INVARIANT VIOLATED\n"
    });
    out
}

/// Renders the chaos suite as the `BENCH_chaos.json` document.
pub fn render_chaos_json(bench: &ChaosBench) -> String {
    let rows: Vec<String> = bench
        .seeds
        .iter()
        .map(|s| {
            format!(
                "    {{\"seed\": {}, \"faults_injected\": {}, \"store_retries\": {}, \
                 \"degraded_events\": {}, \"recovered_events\": {}, \
                 \"degraded_iterations\": {}, \"aborts\": {}, \"unproved\": {}, \
                 \"cert_mismatches\": {}, \"corrupt_seeded\": {}, \"scrub_scanned\": {}, \
                 \"scrub_quarantined\": {}, \"scrub_tmp_removed\": {}, \
                 \"post_scrub_mismatches\": {}}}",
                s.seed,
                s.faults_injected,
                s.store_retries,
                s.degraded_events,
                s.recovered_events,
                s.degraded_iterations,
                s.aborts,
                s.unproved,
                s.cert_mismatches,
                s.corrupt_seeded,
                s.scrub_scanned,
                s.scrub_quarantined,
                s.scrub_tmp_removed,
                s.post_scrub_mismatches
            )
        })
        .collect();
    format!(
        "{{\n  \"suite\": \"chaos\",\n  \"workload\": \"{}\",\n  \"rate_ppm\": {},\n  \"jobs\": {},\n  \
         \"iterations_per_seed\": {},\n  \"total_faults\": {},\n  \
         \"aborts\": {},\n  \"cert_mismatches\": {},\n  \"quarantine_escapes\": {},\n  \
         \"invariants_held\": {},\n  \"seeds\": [\n{}\n  ]\n}}\n",
        crate::json_escape(&bench.workload),
        bench.rate_ppm,
        bench.jobs,
        bench.iterations_per_seed,
        bench.total_faults(),
        bench.total_aborts(),
        bench.total_cert_mismatches(),
        bench.total_quarantine_escapes(),
        bench.violations() == 0,
        rows.join(",\n")
    )
}
