//! The whole-stack scenario drivers.
//!
//! Each driver executes one [`Scenario`](crate::Scenario) step by step,
//! appending deterministic records to the trace and returning the first
//! [`Violation`] it detects (or `None` for a clean run). All prover work
//! runs at `jobs = 1` and on a [`VirtualClock`]: the store's `FaultyFs`
//! decides faults by a *global* operation counter, so a parallel prover
//! fan-out could reorder disk traffic and fork the fault schedule.
//! Parallelism in the simulator lives one level up, across seeds, in
//! [`crate::swarm`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use reflex_driver::{
    BackoffPolicy, Event, Instrument, NullSink, SessionConfig, SessionReport, VerifySession,
    WatchSession,
};
use reflex_rng::{RngExt, SimRng};
use reflex_service::{Reply, Request, ServiceConfig, ServiceCore};
use reflex_verify::{Certificate, FaultyFs, PanicPlan, ProverOptions, VerifyFs, VirtualClock};

use crate::{injected_violation, scratch_dir, SimConfig, Trace, Violation, ViolationKind};

/// The proved certificates of one report, in declaration order.
fn certs_of(report: &SessionReport) -> Vec<(String, Certificate)> {
    report
        .outcomes
        .iter()
        .filter_map(|(name, o)| o.certificate().map(|c| (name.clone(), c.clone())))
        .collect()
}

/// The session configuration every scenario verifies under: one worker
/// (see the module docs) and simulated time.
fn session_config(_config: &SimConfig, dir: Option<&std::path::Path>) -> SessionConfig {
    SessionConfig {
        options: ProverOptions::default(),
        store_dir: dir.map(|d| d.to_string_lossy().into_owned()),
        clock: Some(Arc::new(VirtualClock::new(1_000))),
        ..SessionConfig::default()
    }
}

/// The seeded prover panic plan for this run, if the `panic` stream is
/// active.
fn panic_plan(config: &SimConfig) -> Option<Arc<PanicPlan>> {
    if !config.stream_enabled("panic") || config.panic_rate_ppm == 0 {
        return None;
    }
    Some(Arc::new(PanicPlan::seeded(
        config.stream_seed("panic"),
        config.panic_rate_ppm,
    )))
}

/// The seeded store filesystem for this run; rate zero when the `fs`
/// stream is disabled (the schedule still exists, it just never fires).
fn faulty_fs(config: &SimConfig) -> FaultyFs {
    let rate = if config.stream_enabled("fs") {
        config.fs_rate_ppm
    } else {
        0
    };
    FaultyFs::seeded(config.stream_seed("fs"), rate)
}

/// An event sink counting the store lifecycle events, for the trace.
#[derive(Default)]
struct StoreSink {
    retries: AtomicUsize,
    degraded: AtomicUsize,
    recovered: AtomicUsize,
}

impl StoreSink {
    fn totals(&self) -> (usize, usize, usize) {
        (
            self.retries.load(Ordering::Relaxed),
            self.degraded.load(Ordering::Relaxed),
            self.recovered.load(Ordering::Relaxed),
        )
    }
}

impl Instrument for StoreSink {
    fn event(&self, event: &Event) {
        match event {
            Event::StoreRetry { .. } => self.retries.fetch_add(1, Ordering::Relaxed),
            Event::StoreDegraded { .. } => self.degraded.fetch_add(1, Ordering::Relaxed),
            Event::StoreRecovered => self.recovered.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
    }
}

/// Per-report outcome tallies for the trace and invariant checks.
struct Tally {
    proved: usize,
    crashed: usize,
    other: usize,
}

fn tally(report: &SessionReport) -> Tally {
    let proved = report
        .outcomes
        .iter()
        .filter(|(_, o)| o.is_proved())
        .count();
    let crashed = report
        .outcomes
        .iter()
        .filter(|(_, o)| o.is_crashed())
        .count();
    Tally {
        proved,
        crashed,
        other: report.outcomes.len() - proved - crashed,
    }
}

/// Checks one faulted report against the clean baseline for the same
/// step: every non-crashed property must be proved with the exact
/// baseline certificate (crashed ones carry no certificate by
/// construction and are excluded — their isolation is itself the
/// invariant under test).
fn check_against_baseline(
    step: usize,
    report: &SessionReport,
    baseline: &[(String, Certificate)],
    kind: ViolationKind,
) -> Option<Violation> {
    check_outcomes(step, &report.outcomes, baseline, kind)
}

/// [`check_against_baseline`] over a bare outcome list (for runs driven
/// through `verify_with_store` rather than a session).
fn check_outcomes(
    step: usize,
    outcomes: &[(String, reflex_verify::Outcome)],
    baseline: &[(String, Certificate)],
    kind: ViolationKind,
) -> Option<Violation> {
    for (name, outcome) in outcomes {
        if outcome.is_crashed() {
            continue;
        }
        let Some(cert) = outcome.certificate() else {
            return Some(Violation {
                step,
                kind,
                detail: format!("property `{name}` left unproved under faults"),
            });
        };
        let expected = baseline.iter().find(|(n, _)| n == name).map(|(_, c)| c);
        if expected != Some(cert) {
            return Some(Violation {
                step,
                kind,
                detail: format!("certificate for `{name}` differs from the clean baseline"),
            });
        }
    }
    None
}

/// The synthetic-kernel edit ladder for this run: the `small` preset at
/// the `kernel` stream's seed, variants `0..count`.
fn synth_ladder(config: &SimConfig, count: usize) -> Vec<reflex_kernels::synth::SynthKernel> {
    let gen = reflex_kernels::synth::SynthConfig::preset("small", config.stream_seed("kernel"))
        .expect("the small preset exists");
    (0..u32::try_from(count).unwrap_or(u32::MAX))
        .map(|v| reflex_kernels::synth::generate_variant(&gen, v))
        .collect()
}

/// The chaos ladder, cut to `config.steps` programs: the recorded
/// 20-edit session (both base kernels, then every edit), then the
/// synthetic ladder. Only the recorded edits reach the reuse ladder's
/// per-case splice rung; the generated variants keep kernels no one
/// wrote by hand under the same faults.
fn chaos_ladder(config: &SimConfig) -> Vec<(String, reflex_typeck::CheckedProgram)> {
    let mut ladder: Vec<_> = reflex_bench::incr::session_programs()
        .into_iter()
        .take(config.steps)
        .map(|(kernel, program)| (kernel.to_owned(), program))
        .collect();
    let synthetic = synth_ladder(config, config.steps - ladder.len());
    ladder.extend(synthetic.iter().map(|k| (k.name.clone(), k.checked())));
    ladder
}

/// Chaos: replay the recorded edit session and a synthetic edit ladder
/// through a watch session over a seeded faulty store with seeded prover
/// panics; then heal the disk, inflict external bit rot, scrub, and
/// re-verify every kernel's final program against the baseline.
pub(crate) fn run_chaos(config: &SimConfig, trace: &mut Trace) -> Option<Violation> {
    let checked = chaos_ladder(config);

    // Clean serial baseline over a healthy store: the ground truth.
    let base_dir = scratch_dir(config, "base");
    let _ = std::fs::remove_dir_all(&base_dir);
    let mut baseline: Vec<Vec<(String, Certificate)>> = Vec::with_capacity(checked.len());
    {
        let mut watch = match WatchSession::new(session_config(config, Some(&base_dir))) {
            Ok(w) => w,
            Err(e) => {
                return Some(Violation {
                    step: 0,
                    kind: ViolationKind::Abort,
                    detail: format!("baseline watch session failed to open: {e}"),
                })
            }
        };
        for (step, (name, program)) in checked.iter().enumerate() {
            match watch.verify(program, &NullSink) {
                Ok(it) => {
                    let t = tally(&it.report);
                    if t.proved != it.report.outcomes.len() {
                        return Some(Violation {
                            step,
                            kind: ViolationKind::Abort,
                            detail: format!("baseline left {} properties unproved", t.other),
                        });
                    }
                    trace.push(format!(
                        "step {step} baseline kernel={name} proved={}",
                        t.proved
                    ));
                    baseline.push(certs_of(&it.report));
                }
                Err(e) => {
                    return Some(Violation {
                        step,
                        kind: ViolationKind::Abort,
                        detail: format!("baseline iteration failed: {e}"),
                    })
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&base_dir);

    // The faulted replay: same ladder, seeded disk faults and panics.
    let dir = scratch_dir(config, "store");
    let _ = std::fs::remove_dir_all(&dir);
    let faulty = faulty_fs(config);
    let mut cfg = session_config(config, Some(&dir));
    cfg.store_fs = Some(Arc::new(faulty.clone()) as Arc<dyn VerifyFs>);
    cfg.options.panic_plan = panic_plan(config);
    let sink = StoreSink::default();
    let result = run_chaos_faulted(
        config, trace, &checked, &baseline, cfg, &sink, &faulty, &dir,
    );
    let _ = std::fs::remove_dir_all(&dir);
    result
}

// One parameter block per collaborating harness piece; bundling them
// into a struct would only rename the coupling.
#[allow(clippy::too_many_arguments)]
fn run_chaos_faulted(
    config: &SimConfig,
    trace: &mut Trace,
    checked: &[(String, reflex_typeck::CheckedProgram)],
    baseline: &[Vec<(String, Certificate)>],
    cfg: SessionConfig,
    sink: &StoreSink,
    faulty: &FaultyFs,
    dir: &std::path::Path,
) -> Option<Violation> {
    let panic_plan = cfg.options.panic_plan.clone();
    let mut watch = match WatchSession::new(cfg) {
        Ok(w) => w.with_backoff(BackoffPolicy {
            base_ms: 1,
            cap_ms: 4,
            retries: 2,
        }),
        Err(e) => {
            return Some(Violation {
                step: 0,
                kind: ViolationKind::Abort,
                detail: format!("faulted watch session failed to open: {e}"),
            })
        }
    };
    let mut faults_seen = 0u64;
    for (step, ((name, program), expected)) in checked.iter().zip(baseline).enumerate() {
        if let Some(v) = injected_violation(config, trace, step) {
            return Some(v);
        }
        let it = match watch.verify(program, sink) {
            Ok(it) => it,
            Err(e) => {
                return Some(Violation {
                    step,
                    kind: ViolationKind::Abort,
                    detail: format!("faulted iteration aborted: {e}"),
                })
            }
        };
        let t = tally(&it.report);
        let injected = faulty.injected();
        trace.push(format!(
            "step {step} chaos kernel={name} proved={} crashed={} degraded={} faults={} reused={} partial={} reproved={}",
            t.proved,
            t.crashed,
            it.degraded,
            injected - faults_seen,
            it.report.reused.len(),
            it.report.partial.len(),
            it.report.reproved.len()
        ));
        faults_seen = injected;
        trace.step_done();
        if let Some(v) =
            check_against_baseline(step, &it.report, expected, ViolationKind::CertMismatch)
        {
            return Some(v);
        }
    }
    let (retries, degraded, recovered) = sink.totals();
    trace.push(format!(
        "chaos store retries={retries} degraded={degraded} recovered={recovered}"
    ));

    // The disk heals; rot one landed entry from outside the store's
    // atomic-rename discipline, then scrub.
    faulty.heal();
    if let Some(plan) = &panic_plan {
        plan.disarm();
    }
    let corrupted = rot_first_cert(dir);
    let scrub = match reflex_verify::ProofStore::open(dir) {
        Ok(store) => match store.scrub(None) {
            Ok(s) => s,
            Err(e) => {
                return Some(Violation {
                    step: config.steps,
                    kind: ViolationKind::Abort,
                    detail: format!("scrub failed: {e}"),
                })
            }
        },
        Err(e) => {
            return Some(Violation {
                step: config.steps,
                kind: ViolationKind::Abort,
                detail: format!("post-heal store open failed: {e}"),
            })
        }
    };
    trace.push(format!(
        "chaos scrub corrupted={corrupted} scanned={} quarantined={} tmp_removed={}",
        scrub.scanned,
        scrub.quarantined.len(),
        scrub.tmp_removed
    ));
    if corrupted > 0 && scrub.quarantined.is_empty() {
        return Some(Violation {
            step: config.steps,
            kind: ViolationKind::QuarantineEscape,
            detail: format!("{corrupted} rotted entries but nothing was quarantined"),
        });
    }

    // Post-scrub: every kernel's final program re-verified over the
    // scrubbed store must still match the baseline exactly (reuse or
    // re-prove alike).
    let session = match VerifySession::new(session_config(config, Some(dir))) {
        Ok(session) => session,
        Err(e) => {
            return Some(Violation {
                step: config.steps,
                kind: ViolationKind::Abort,
                detail: format!("post-scrub session failed to open: {e}"),
            })
        }
    };
    let mut kernels: Vec<&str> = Vec::new();
    for (name, _) in checked {
        if !kernels.contains(&name.as_str()) {
            kernels.push(name);
        }
    }
    for kernel in kernels {
        let last = checked
            .iter()
            .rposition(|(name, _)| name == kernel)
            .expect("a listed kernel is in the ladder");
        let report = match session.verify_checked(&checked[last].1, &NullSink) {
            Ok(report) => report,
            Err(e) => {
                return Some(Violation {
                    step: config.steps,
                    kind: ViolationKind::Abort,
                    detail: format!("post-scrub verification of {kernel} aborted: {e}"),
                })
            }
        };
        trace.push(format!(
            "chaos post-scrub kernel={kernel} proved={}",
            tally(&report).proved
        ));
        if let Some(v) = check_against_baseline(
            config.steps,
            &report,
            &baseline[last],
            ViolationKind::QuarantineEscape,
        ) {
            return Some(v);
        }
    }
    None
}

/// Flips a payload byte in the first frame of the first log segment
/// long enough to hold one (a faulted append can leave an empty or torn
/// segment behind) and drops a stale temp file — damage the store's own
/// fsync-gated writer can never produce. The flip lands at offset 50,
/// past the 44-byte frame header and inside the first payload, so the
/// frame's integrity fingerprint provably breaks and the scrub must
/// quarantine the segment tail. Returns how many segments were rotted.
fn rot_first_cert(dir: &std::path::Path) -> usize {
    let mut segments: Vec<std::path::PathBuf> = std::fs::read_dir(dir.join("log"))
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "log"))
                .collect()
        })
        .unwrap_or_default();
    segments.sort();
    let _ = std::fs::write(dir.join(".tmp-0-sim-debris.cert"), b"crash debris");
    let Some((path, mut bytes)) = segments.iter().find_map(|path| {
        let bytes = std::fs::read(path).ok()?;
        (bytes.len() > 50).then_some((path, bytes))
    }) else {
        return 0;
    };
    bytes[50] ^= 0x40;
    usize::from(std::fs::write(path, &bytes).is_ok())
}

/// Watch: one fixed kernel re-verified every step while a seeded gate
/// flaps the store's disk; after the last step the disk is force-healed
/// and the store must re-attach.
pub(crate) fn run_watch(config: &SimConfig, trace: &mut Trace) -> Option<Violation> {
    let car = reflex_kernels::car::checked();
    let baseline = match VerifySession::new(session_config(config, None))
        .and_then(|s| s.verify_checked(&car, &NullSink))
    {
        Ok(report) => certs_of(&report),
        Err(e) => {
            return Some(Violation {
                step: 0,
                kind: ViolationKind::Abort,
                detail: format!("clean baseline failed: {e}"),
            })
        }
    };

    let dir = scratch_dir(config, "store");
    let _ = std::fs::remove_dir_all(&dir);
    let faulty = faulty_fs(config);
    faulty.heal();
    let mut cfg = session_config(config, Some(&dir));
    cfg.store_fs = Some(Arc::new(faulty.clone()) as Arc<dyn VerifyFs>);
    let sink = StoreSink::default();
    let mut watch = match WatchSession::new(cfg) {
        Ok(w) => w.with_backoff(BackoffPolicy {
            base_ms: 1,
            cap_ms: 4,
            retries: 2,
        }),
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            return Some(Violation {
                step: 0,
                kind: ViolationKind::Abort,
                detail: format!("watch session failed to open: {e}"),
            });
        }
    };

    // The disk gate: a dedicated stream decides, step by step, whether
    // the disk is up or down.
    let mut gate = SimRng::new(config.stream_seed("fsgate"));
    let mut healthy = true;
    let mut violation = None;
    for step in 0..config.steps {
        if let Some(v) = injected_violation(config, trace, step) {
            violation = Some(v);
            break;
        }
        let up = !config.stream_enabled("fs") || !gate.random_bool(0.5);
        if up != healthy {
            healthy = up;
            if healthy {
                faulty.heal();
            } else {
                faulty.unheal();
            }
        }
        match watch.verify(&car, &sink) {
            Ok(it) => {
                let t = tally(&it.report);
                trace.push(format!(
                    "step {step} watch disk={} degraded={} proved={}",
                    if healthy { "up" } else { "down" },
                    it.degraded,
                    t.proved
                ));
                trace.step_done();
                if let Some(v) =
                    check_against_baseline(step, &it.report, &baseline, ViolationKind::CertMismatch)
                {
                    violation = Some(v);
                    break;
                }
            }
            Err(e) => {
                violation = Some(Violation {
                    step,
                    kind: ViolationKind::Abort,
                    detail: format!("watch iteration aborted: {e}"),
                });
                break;
            }
        }
    }

    // Force-heal and re-attach: a healthy disk must always win.
    if violation.is_none() {
        faulty.heal();
        violation = match watch.verify(&car, &sink) {
            Ok(it) => {
                let (retries, degraded, recovered) = sink.totals();
                trace.push(format!(
                    "watch final degraded={} retries={retries} degraded_events={degraded} recovered={recovered}",
                    it.degraded
                ));
                if watch.degraded() {
                    Some(Violation {
                        step: config.steps,
                        kind: ViolationKind::Unrecovered,
                        detail: "store still degraded after the disk healed".to_owned(),
                    })
                } else {
                    check_against_baseline(
                        config.steps,
                        &it.report,
                        &baseline,
                        ViolationKind::CertMismatch,
                    )
                }
            }
            Err(e) => Some(Violation {
                step: config.steps,
                kind: ViolationKind::Abort,
                detail: format!("final watch iteration aborted: {e}"),
            }),
        };
    }
    let _ = std::fs::remove_dir_all(&dir);
    violation
}

/// Soak: the supervised runtime under seeded workload and fault plans,
/// certificate monitor on, over every bundled kernel and then the
/// synthetic one; every component must recover and the monitor must stay
/// silent.
pub(crate) fn run_soak(config: &SimConfig, trace: &mut Trace) -> Option<Violation> {
    if let Some(k) = config.inject_violation_at {
        if k < config.steps {
            return injected_violation(config, trace, k);
        }
    }
    let world_on = config.stream_enabled("world");
    let soak_cfg = reflex_bench::soak::SoakConfig {
        steps: config.steps,
        seed: config.stream_seed("world"),
        fault_rate: if world_on { 0.01 } else { 0.0 },
        world_fault_rate: if world_on { 0.02 } else { 0.0 },
        monitor: true,
    };
    let synth = synth_ladder(config, 1).remove(0);
    let kernels: Vec<(String, reflex_typeck::CheckedProgram)> = reflex_kernels::all_benchmarks()
        .iter()
        .map(|b| (b.name.to_owned(), (b.checked)()))
        .chain([(synth.name.clone(), synth.checked())])
        .collect();
    for (index, (name, program)) in kernels.iter().enumerate() {
        let outcome = reflex_bench::soak::soak_program(name, program, &soak_cfg, index);
        trace.push(format!(
            "soak kernel={name} steps={} injected={} incidents={} unrecovered={} trace_fp={:#018x} incident_fp={:#018x}",
            outcome.steps,
            outcome.injected,
            outcome.incidents,
            outcome.unrecovered,
            outcome.trace_fingerprint,
            outcome.incident_fingerprint
        ));
        trace.step_done();
        if let Some(failure) = &outcome.failure {
            return Some(Violation {
                step: index,
                kind: ViolationKind::MonitorAlarm,
                detail: format!("{name}: {failure}"),
            });
        }
        if outcome.unrecovered > 0 {
            return Some(Violation {
                step: index,
                kind: ViolationKind::Unrecovered,
                detail: format!(
                    "{name}: {} component(s) still crashed after cooldown",
                    outcome.unrecovered
                ),
            });
        }
    }
    None
}

/// Scale-edits: the synthetic edit ladder verified variant by variant,
/// store-backed incremental reuse against a storeless serial baseline.
pub(crate) fn run_scale_edits(config: &SimConfig, trace: &mut Trace) -> Option<Violation> {
    let ladder = synth_ladder(config, config.steps);
    let dir = scratch_dir(config, "store");
    let _ = std::fs::remove_dir_all(&dir);
    let mut violation = None;
    for (step, kernel) in ladder.iter().enumerate() {
        if let Some(v) = injected_violation(config, trace, step) {
            violation = Some(v);
            break;
        }
        let program = kernel.checked();
        let baseline = match VerifySession::new(session_config(config, None))
            .and_then(|s| s.verify_checked(&program, &NullSink))
        {
            Ok(report) => certs_of(&report),
            Err(e) => {
                violation = Some(Violation {
                    step,
                    kind: ViolationKind::Abort,
                    detail: format!("serial baseline aborted: {e}"),
                });
                break;
            }
        };
        match VerifySession::new(session_config(config, Some(&dir)))
            .and_then(|s| s.verify_checked(&program, &NullSink))
        {
            Ok(report) => {
                let t = tally(&report);
                trace.push(format!(
                    "step {step} scale kernel={} proved={} properties={}",
                    kernel.name,
                    t.proved,
                    report.outcomes.len()
                ));
                trace.step_done();
                if let Some(v) =
                    check_against_baseline(step, &report, &baseline, ViolationKind::CertMismatch)
                {
                    violation = Some(v);
                    break;
                }
            }
            Err(e) => {
                violation = Some(Violation {
                    step,
                    kind: ViolationKind::Abort,
                    detail: format!("store-backed session aborted: {e}"),
                });
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    violation
}

/// Compaction racing live verification: the synthetic edit ladder runs
/// through one handle of a shared log-structured store while a second
/// handle compacts the same store after every step, all over the seeded
/// faulty disk. Compaction — successful or aborted by an injected fault
/// — must never change the live entry set, and the served certificates
/// must stay bit-identical to the clean baseline. The run ends like the
/// chaos scenario: heal, rot one landed segment externally, scrub
/// through the *live* handle, and re-verify.
pub(crate) fn run_compaction_race(config: &SimConfig, trace: &mut Trace) -> Option<Violation> {
    let ladder = synth_ladder(config, config.steps);
    let checked: Vec<_> = ladder
        .iter()
        .map(|k| (k.name.clone(), k.checked()))
        .collect();
    let options = ProverOptions::default();

    // Clean storeless baseline per ladder variant: the ground truth.
    let mut baseline: Vec<Vec<(String, Certificate)>> = Vec::with_capacity(checked.len());
    for (step, (_, program)) in checked.iter().enumerate() {
        match VerifySession::new(session_config(config, None))
            .and_then(|s| s.verify_checked(program, &NullSink))
        {
            Ok(report) => baseline.push(certs_of(&report)),
            Err(e) => {
                return Some(Violation {
                    step,
                    kind: ViolationKind::Abort,
                    detail: format!("clean baseline failed: {e}"),
                })
            }
        }
    }

    let dir = scratch_dir(config, "store");
    let _ = std::fs::remove_dir_all(&dir);
    let faulty = faulty_fs(config);
    let store = match reflex_verify::ProofStore::open_with(
        &dir,
        Arc::new(faulty.clone()) as Arc<dyn VerifyFs>,
    ) {
        Ok(s) => s,
        Err(_) => {
            // The schedule faulted the very mkdir: nothing to race over.
            let _ = std::fs::remove_dir_all(&dir);
            trace.push("compaction-race store never opened".to_owned());
            trace.step_done();
            return None;
        }
    };
    // The racing handle: a clone shares the same log, index and hot tier.
    let compactor = store.clone();

    let mut violation = None;
    for (step, ((name, program), expected)) in checked.iter().zip(&baseline).enumerate() {
        if let Some(v) = injected_violation(config, trace, step) {
            violation = Some(v);
            break;
        }
        let sr = match reflex_verify::verify_with_store(program, &options, &store, 1) {
            Ok(sr) => sr,
            Err(e) => {
                violation = Some(Violation {
                    step,
                    kind: ViolationKind::Abort,
                    detail: format!("store-backed verification aborted: {e}"),
                });
                break;
            }
        };
        if let Some(v) = check_outcomes(
            step,
            &sr.report.outcomes,
            expected,
            ViolationKind::CertMismatch,
        ) {
            violation = Some(v);
            break;
        }

        // The race: compact through the second handle while the first
        // keeps its hot tier and index live. Entry-set identity is the
        // invariant — whether the pass commits or an injected fault
        // aborts it mid-way, the store must keep serving the same keys.
        // Odd steps compact over a healed disk so the commit path is
        // exercised too; heal/unheal only gate injection, the operation
        // counter keeps advancing, so the schedule stays deterministic.
        let quiet = step % 2 == 1;
        if quiet {
            faulty.heal();
        }
        let _ = store.flush();
        let before = store.entries();
        let compacted = match compactor.compact(Some((program, &options))) {
            Ok(report) => {
                trace.push(format!(
                    "step {step} race kernel={name} loaded={} saved={} compact: ok={} superseded={} quarantined={}",
                    sr.loaded,
                    sr.saved,
                    report.ok,
                    report.superseded,
                    report.quarantined.len()
                ));
                true
            }
            Err(_) => {
                // The error text carries scratch paths; keep the trace
                // deterministic and record only the fact.
                trace.push(format!(
                    "step {step} race kernel={name} loaded={} saved={} compact: aborted by fault",
                    sr.loaded, sr.saved
                ));
                false
            }
        };
        if quiet {
            faulty.unheal();
        }
        let after = store.entries();
        if after != before {
            violation = Some(Violation {
                step,
                kind: ViolationKind::CompactionLoss,
                detail: format!(
                    "live set changed across {} compaction: {} entries before, {} after",
                    if compacted {
                        "a committed"
                    } else {
                        "an aborted"
                    },
                    before.len(),
                    after.len()
                ),
            });
            break;
        }
        trace.step_done();
    }
    if violation.is_some() {
        let _ = std::fs::remove_dir_all(&dir);
        return violation;
    }

    // Heal, rot one landed segment from outside the append discipline,
    // scrub through the live handle, and the rot must be quarantined.
    faulty.heal();
    let corrupted = rot_first_cert(&dir);
    let scrub = match store.scrub(None) {
        Ok(s) => s,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            return Some(Violation {
                step: config.steps,
                kind: ViolationKind::Abort,
                detail: format!("post-heal scrub failed: {e}"),
            });
        }
    };
    trace.push(format!(
        "race scrub corrupted={corrupted} scanned={} quarantined={} migrated={}",
        scrub.scanned,
        scrub.quarantined.len(),
        scrub.migrated
    ));
    if corrupted > 0 && scrub.quarantined.is_empty() {
        let _ = std::fs::remove_dir_all(&dir);
        return Some(Violation {
            step: config.steps,
            kind: ViolationKind::QuarantineEscape,
            detail: format!("{corrupted} rotted segments but nothing was quarantined"),
        });
    }

    // Post-scrub: the final variant re-verified over the scrubbed store
    // must still match the baseline exactly (reuse or re-prove alike).
    let (_, final_program) = checked.last().expect("at least one step");
    let expected = baseline.last().expect("baseline matches ladder");
    let violation = match reflex_verify::verify_with_store(final_program, &options, &store, 1) {
        Ok(sr) => {
            trace.push(format!(
                "race post-scrub loaded={} entries={}",
                sr.loaded,
                store.entries().len()
            ));
            check_outcomes(
                config.steps,
                &sr.report.outcomes,
                expected,
                ViolationKind::QuarantineEscape,
            )
        }
        Err(e) => Some(Violation {
            step: config.steps,
            kind: ViolationKind::Abort,
            detail: format!("post-scrub verification aborted: {e}"),
        }),
    };
    let _ = std::fs::remove_dir_all(&dir);
    violation
}

/// The service configuration the resident-core scenarios run under: one
/// worker so request execution is serial (see the module docs — the
/// concurrency under test is the *scheduler's*, across clients, and
/// its round-robin pick order is only deterministic at one executor),
/// prover `jobs = 1`, simulated time, and a scratch store.
fn storm_config(dir: &std::path::Path, record_schedule: bool) -> ServiceConfig {
    ServiceConfig {
        store_dir: Some(dir.to_string_lossy().into_owned()),
        jobs: 1,
        workers: 1,
        clock: Some(Arc::new(VirtualClock::new(1_000))),
        record_schedule,
        ..ServiceConfig::default()
    }
}

/// A full no-budget verify request for one synthetic kernel.
fn verify_request(kernel: &reflex_kernels::synth::SynthKernel) -> Request {
    Request::Verify {
        name: kernel.name.clone(),
        source: kernel.source.clone(),
        property: None,
        budget_ms: None,
        budget_nodes: None,
        want_events: false,
        deadline_ms: None,
        idempotency_key: None,
    }
}

/// One blocking verify request through a service core, unwrapped to its
/// session report.
fn request_verify(
    core: &ServiceCore,
    client: u64,
    kernel: &reflex_kernels::synth::SynthKernel,
) -> Result<SessionReport, String> {
    match core.request(client, verify_request(kernel), Arc::new(NullSink)) {
        Ok(Reply::Verify(report)) => Ok(*report),
        Ok(other) => Err(format!("unexpected reply to a verify request: {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

/// Client storm: simulated clients hammer one resident [`ServiceCore`]
/// over a shared warm store — a greedy client bursts three requests per
/// step while two single-shot clients interleave, each wave fully
/// drained before the next. Every served certificate must match the
/// storeless serial baseline (zero cross-client mismatches, store and
/// cache reuse included) and the recorded round-robin schedule must
/// serve every client its whole wave every step (no starved client).
pub(crate) fn run_client_storm(config: &SimConfig, trace: &mut Trace) -> Option<Violation> {
    const CLIENTS: usize = 3;
    const BURST: usize = 3;

    let ladder = synth_ladder(config, config.steps);
    // Storeless serial baseline per variant: the ground truth.
    let mut baseline: Vec<Vec<(String, Certificate)>> = Vec::with_capacity(ladder.len());
    for (step, kernel) in ladder.iter().enumerate() {
        match VerifySession::new(session_config(config, None))
            .and_then(|s| s.verify_checked(&kernel.checked(), &NullSink))
        {
            Ok(report) => baseline.push(certs_of(&report)),
            Err(e) => {
                return Some(Violation {
                    step,
                    kind: ViolationKind::Abort,
                    detail: format!("clean baseline failed: {e}"),
                })
            }
        }
    }

    let dir = scratch_dir(config, "store");
    let _ = std::fs::remove_dir_all(&dir);
    let core = match ServiceCore::start(storm_config(&dir, true)) {
        Ok(core) => core,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            return Some(Violation {
                step: 0,
                kind: ViolationKind::Abort,
                detail: format!("service core failed to start: {e}"),
            });
        }
    };

    let mut violation = None;
    let mut schedule_seen = 0usize;
    'steps: for step in 0..config.steps {
        if let Some(v) = injected_violation(config, trace, step) {
            violation = Some(v);
            break;
        }
        // Submit the step's whole wave, then await every ticket: the
        // schedule decomposes into per-step segments and the next wave
        // never races this one.
        let mut tickets = Vec::new();
        let mut wave_id = 0u64;
        for client in 0..CLIENTS {
            let variant = (step + client) % ladder.len();
            let count = if client == 0 { BURST } else { 1 };
            for _ in 0..count {
                wave_id += 1;
                match core.submit(
                    client as u64,
                    (step as u64) * 100 + wave_id,
                    verify_request(&ladder[variant]),
                    Arc::new(NullSink),
                ) {
                    Ok(ticket) => tickets.push((client, variant, ticket)),
                    Err(e) => {
                        violation = Some(Violation {
                            step,
                            kind: ViolationKind::Abort,
                            detail: format!("client {client} submit refused: {e}"),
                        });
                        break 'steps;
                    }
                }
            }
        }
        let mut proved = 0usize;
        for (client, variant, ticket) in tickets {
            match ticket.wait() {
                Ok(Reply::Verify(report)) => {
                    let t = tally(&report);
                    if t.proved != report.outcomes.len() {
                        violation = Some(Violation {
                            step,
                            kind: ViolationKind::Abort,
                            detail: format!(
                                "client {client} left {} propert(y/ies) unproved",
                                report.outcomes.len() - t.proved
                            ),
                        });
                        break 'steps;
                    }
                    proved += t.proved;
                    if let Some(v) = check_against_baseline(
                        step,
                        &report,
                        &baseline[variant],
                        ViolationKind::CertMismatch,
                    ) {
                        violation = Some(Violation {
                            detail: format!("client {client}: {}", v.detail),
                            ..v
                        });
                        break 'steps;
                    }
                }
                Ok(other) => {
                    violation = Some(Violation {
                        step,
                        kind: ViolationKind::Abort,
                        detail: format!("client {client} got an unexpected reply: {other:?}"),
                    });
                    break 'steps;
                }
                Err(e) => {
                    violation = Some(Violation {
                        step,
                        kind: ViolationKind::Abort,
                        detail: format!("client {client} request failed: {e}"),
                    });
                    break 'steps;
                }
            }
        }
        // Fairness: this step's schedule segment must hold exactly the
        // wave — the burst for the greedy client, one pick for each
        // single-shot client. A short count is a starved client.
        let schedule = core.schedule();
        let mut served = [0usize; CLIENTS];
        for &client in &schedule[schedule_seen..] {
            served[client as usize] += 1;
        }
        schedule_seen = schedule.len();
        for (client, &count) in served.iter().enumerate() {
            let expected = if client == 0 { BURST } else { 1 };
            if count != expected {
                violation = Some(Violation {
                    step,
                    kind: ViolationKind::Starvation,
                    detail: format!(
                        "client {client} was served {count} of its {expected} request(s)"
                    ),
                });
                break 'steps;
            }
        }
        trace.push(format!(
            "step {step} storm served c0={} c1={} c2={} proved={proved}",
            served[0], served[1], served[2]
        ));
        trace.step_done();
    }
    core.shutdown();
    if violation.is_none() {
        let stats = core.stats().snapshot();
        trace.push(format!(
            "storm totals submitted={} served={} busy={}",
            stats.requests_submitted, stats.requests_served, stats.rejected_busy
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    violation
}

/// Daemon crash and restart: a resident core verifies the front half of
/// the edit ladder, group-committing after every request, then is
/// [`ServiceCore::abandon`]ed with a request still queued — the crash
/// path, queued work dropped, final flush skipped. A fresh core over
/// the same store directory must serve every committed certificate warm
/// (zero re-proves for the front half), prove the back half fresh, all
/// byte-identical to the storeless baseline, and a closing scrub must
/// quarantine nothing.
pub(crate) fn run_daemon_restart(config: &SimConfig, trace: &mut Trace) -> Option<Violation> {
    let ladder = synth_ladder(config, config.steps);
    // Storeless serial baseline per variant: the ground truth on both
    // sides of the crash.
    let mut baseline: Vec<Vec<(String, Certificate)>> = Vec::with_capacity(ladder.len());
    for (step, kernel) in ladder.iter().enumerate() {
        match VerifySession::new(session_config(config, None))
            .and_then(|s| s.verify_checked(&kernel.checked(), &NullSink))
        {
            Ok(report) => baseline.push(certs_of(&report)),
            Err(e) => {
                return Some(Violation {
                    step,
                    kind: ViolationKind::Abort,
                    detail: format!("clean baseline failed: {e}"),
                })
            }
        }
    }

    let dir = scratch_dir(config, "store");
    let _ = std::fs::remove_dir_all(&dir);
    let split = config.steps.div_ceil(2);

    // Phase one: the first core serves the ladder's front half.
    let core = match ServiceCore::start(storm_config(&dir, false)) {
        Ok(core) => core,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            return Some(Violation {
                step: 0,
                kind: ViolationKind::Abort,
                detail: format!("service core failed to start: {e}"),
            });
        }
    };
    let mut violation = None;
    for (step, kernel) in ladder.iter().take(split).enumerate() {
        if let Some(v) = injected_violation(config, trace, step) {
            violation = Some(v);
            break;
        }
        match request_verify(&core, 0, kernel) {
            Ok(report) => {
                let t = tally(&report);
                if t.proved != report.outcomes.len() {
                    violation = Some(Violation {
                        step,
                        kind: ViolationKind::Abort,
                        detail: format!(
                            "pre-crash core left {} propert(y/ies) unproved",
                            report.outcomes.len() - t.proved
                        ),
                    });
                    break;
                }
                trace.push(format!(
                    "step {step} serve kernel={} proved={} saved={}",
                    kernel.name, t.proved, report.store_saved
                ));
                if let Some(v) = check_against_baseline(
                    step,
                    &report,
                    &baseline[step],
                    ViolationKind::CertMismatch,
                ) {
                    violation = Some(v);
                    break;
                }
                // The daemon's group-commit cadence: flush after every
                // served request, so the crash below only loses work
                // accepted after the last commit.
                if let Some(store) = core.env().store() {
                    let _ = store.flush();
                }
            }
            Err(e) => {
                violation = Some(Violation {
                    step,
                    kind: ViolationKind::Abort,
                    detail: format!("pre-crash request failed: {e}"),
                });
                break;
            }
        }
    }
    if violation.is_some() {
        core.abandon();
        let _ = std::fs::remove_dir_all(&dir);
        return violation;
    }

    // The crash: kill the core with one more request still in flight.
    // The doomed request re-verifies an already-committed variant, so
    // the store's on-disk state is the same whether the worker got to it
    // or the abandon dropped it — the trace stays deterministic.
    let _ = core.submit(0, u64::MAX, verify_request(&ladder[0]), Arc::new(NullSink));
    core.abandon();
    trace.push("crash: core abandoned mid-flight (no final group commit)".to_owned());

    // Phase two: a fresh core over the same directory. The front half
    // must be served warm from the store; the back half proves fresh.
    let core = match ServiceCore::start(storm_config(&dir, false)) {
        Ok(core) => core,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            return Some(Violation {
                step: split,
                kind: ViolationKind::RestartLoss,
                detail: format!("restart against the crashed store failed: {e}"),
            });
        }
    };
    for (step, kernel) in ladder.iter().enumerate() {
        if step >= split {
            if let Some(v) = injected_violation(config, trace, step) {
                violation = Some(v);
                break;
            }
        }
        match request_verify(&core, 0, kernel) {
            Ok(report) => {
                let t = tally(&report);
                if t.proved != report.outcomes.len() {
                    violation = Some(Violation {
                        step,
                        kind: ViolationKind::Abort,
                        detail: format!(
                            "post-crash core left {} propert(y/ies) unproved",
                            report.outcomes.len() - t.proved
                        ),
                    });
                    break;
                }
                trace.push(format!(
                    "step {step} restart kernel={} proved={} loaded={}",
                    kernel.name, t.proved, report.store_loaded
                ));
                if step < split && report.store_loaded != report.outcomes.len() {
                    violation = Some(Violation {
                        step,
                        kind: ViolationKind::RestartLoss,
                        detail: format!(
                            "kernel `{}`: only {} of {} certificates served warm after restart",
                            kernel.name,
                            report.store_loaded,
                            report.outcomes.len()
                        ),
                    });
                    break;
                }
                if let Some(v) = check_against_baseline(
                    step,
                    &report,
                    &baseline[step],
                    ViolationKind::CertMismatch,
                ) {
                    violation = Some(v);
                    break;
                }
                trace.step_done();
            }
            Err(e) => {
                violation = Some(Violation {
                    step,
                    kind: ViolationKind::Abort,
                    detail: format!("post-crash request failed: {e}"),
                });
                break;
            }
        }
    }

    // The crash must have left nothing for the scrub to quarantine: the
    // store's append discipline makes a dropped batch invisible, never
    // corrupt.
    if violation.is_none() {
        match core.env().store().map(|s| s.scrub(None)) {
            Some(Ok(scrub)) => {
                trace.push(format!(
                    "restart scrub scanned={} quarantined={} tmp_removed={}",
                    scrub.scanned,
                    scrub.quarantined.len(),
                    scrub.tmp_removed
                ));
                if !scrub.quarantined.is_empty() {
                    violation = Some(Violation {
                        step: config.steps,
                        kind: ViolationKind::QuarantineEscape,
                        detail: format!(
                            "{} entr(y/ies) quarantined after a clean-crash restart",
                            scrub.quarantined.len()
                        ),
                    });
                }
            }
            Some(Err(e)) => {
                violation = Some(Violation {
                    step: config.steps,
                    kind: ViolationKind::Abort,
                    detail: format!("post-restart scrub failed: {e}"),
                });
            }
            None => {
                violation = Some(Violation {
                    step: config.steps,
                    kind: ViolationKind::RestartLoss,
                    detail: "store not attached after restart".to_owned(),
                });
            }
        }
    }
    core.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    violation
}
