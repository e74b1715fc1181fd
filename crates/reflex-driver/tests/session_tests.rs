//! Integration tests for the `VerifySession` pipeline engine: budget
//! expiry, event-count determinism across worker counts, in-memory watch
//! reuse, and many sessions over one shared env.

use std::sync::Arc;

use reflex_driver::{
    Env, Event, MemorySink, NullSink, PropertyStatus, SessionConfig, VerifySession, WatchSession,
};
use reflex_verify::ProverOptions;

fn checked(name: &str, source: &str) -> reflex_typeck::CheckedProgram {
    let program = reflex_parser::parse_program(name, source).expect("kernel parses");
    reflex_typeck::check(&program).expect("kernel typechecks")
}

fn session(config: SessionConfig) -> VerifySession {
    VerifySession::new(config).expect("session opens")
}

/// An exhausted wall-clock budget must stop every property with
/// `Outcome::Timeout` — never hang, never report a plain failure.
#[test]
fn expired_wall_clock_budget_reports_timeout_for_every_property() {
    let car = checked("car", reflex_kernels::car::SOURCE);
    let sink = MemorySink::new();
    let report = session(SessionConfig {
        options: ProverOptions::default(),
        budget_ms: Some(0),
        ..SessionConfig::default()
    })
    .verify_checked(&car, &sink)
    .expect("session completes despite the budget");

    assert!(!report.outcomes.is_empty());
    assert_eq!(
        report.timeouts(),
        report.outcomes.len(),
        "all must time out"
    );
    assert_eq!(report.proved(), 0);
    for (name, outcome) in &report.outcomes {
        assert!(outcome.is_timeout(), "{name} should be a timeout");
        let reason = outcome.failure().expect("timeout carries a reason");
        assert!(
            reason.reason.contains("budget"),
            "{name}: reason should mention the budget: {}",
            reason.reason
        );
    }
    // The sink saw the same story.
    let statuses: Vec<_> = sink
        .properties()
        .iter()
        .filter_map(|e| match e {
            Event::Property { status, .. } => Some(*status),
            _ => None,
        })
        .collect();
    assert_eq!(statuses.len(), report.outcomes.len());
    assert!(statuses.iter().all(|s| *s == PropertyStatus::Timeout));
}

/// A node budget too small for real proof search must surface as timeouts,
/// and the session must still terminate with a report.
#[test]
fn tiny_node_budget_reports_timeouts_not_hangs() {
    let ssh = checked("ssh", reflex_kernels::ssh::SOURCE);
    let report = session(SessionConfig {
        options: ProverOptions {
            jobs: 2,
            ..ProverOptions::default()
        },
        budget_nodes: Some(1),
        ..SessionConfig::default()
    })
    .verify_checked(&ssh, &NullSink)
    .expect("session completes despite the budget");

    assert!(report.timeouts() > 0, "a 1-node budget cannot prove ssh");
    assert_eq!(
        report.failures(),
        report.outcomes.len() - report.proved(),
        "timeouts count as failures"
    );
}

/// Serial and parallel runs must emit the same *events* (same properties,
/// same statuses, same obligation counts) — only timings may differ — and
/// byte-identical certificates.
#[test]
fn event_counts_and_certificates_match_across_job_counts() {
    let car = checked("car", reflex_kernels::car::SOURCE);

    let run = |jobs: usize| {
        let sink = MemorySink::new();
        let report = session(SessionConfig {
            options: ProverOptions {
                jobs,
                ..ProverOptions::default()
            },
            ..SessionConfig::default()
        })
        .verify_checked(&car, &sink)
        .expect("car verifies");
        (report, sink)
    };
    let (serial, serial_sink) = run(1);
    let (parallel, parallel_sink) = run(8);

    assert_eq!(
        serial_sink.len(),
        parallel_sink.len(),
        "event counts differ"
    );

    let rows = |sink: &MemorySink| {
        let mut v: Vec<(String, PropertyStatus, usize)> = sink
            .properties()
            .iter()
            .filter_map(|e| match e {
                Event::Property {
                    name,
                    status,
                    obligations,
                    ..
                } => Some((name.clone(), *status, *obligations)),
                _ => None,
            })
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    };
    assert_eq!(rows(&serial_sink), rows(&parallel_sink));

    // Certificates must be byte-identical, not merely equivalent.
    assert_eq!(serial.outcomes.len(), parallel.outcomes.len());
    for ((name_s, out_s), (name_p, out_p)) in serial.outcomes.iter().zip(&parallel.outcomes) {
        assert_eq!(name_s, name_p, "property order must be declaration order");
        assert_eq!(
            out_s.certificate(),
            out_p.certificate(),
            "{name_s}: serial and parallel certificates differ"
        );
    }
}

/// The in-memory watch loop: iteration one proves from scratch, iteration
/// two (unchanged program) reuses every certificate in full.
#[test]
fn watch_session_reuses_certificates_across_iterations() {
    let car = checked("car", reflex_kernels::car::SOURCE);
    let mut watch = WatchSession::new(SessionConfig {
        options: ProverOptions::default(),
        ..SessionConfig::default()
    })
    .expect("watch session opens");

    let first = watch.verify(&car, &NullSink).expect("first iteration");
    assert_eq!(first.failures(), 0);
    assert!(first.report.reused.is_empty(), "nothing to reuse yet");

    let second = watch.verify(&car, &NullSink).expect("second iteration");
    assert_eq!(second.failures(), 0);
    assert_eq!(
        second.report.reused.len(),
        second.report.outcomes.len(),
        "an unchanged program must reuse every proof: {:?}",
        second.report.summary()
    );
}

/// Sessions over one shared env verify distinct kernels, one report
/// each — and the per-program cache namespacing keeps their packages from
/// cross-contaminating: every certificate matches a fresh env's.
#[test]
fn sessions_over_one_env_verify_many_kernels() {
    let env = Arc::new(
        Env::new(&SessionConfig {
            options: ProverOptions {
                jobs: 4,
                ..ProverOptions::default()
            },
            ..SessionConfig::default()
        })
        .expect("env opens"),
    );
    for (name, source) in [
        ("car", reflex_kernels::car::SOURCE),
        ("ssh", reflex_kernels::ssh::SOURCE),
        ("car", reflex_kernels::car::SOURCE),
    ] {
        let report = VerifySession::with_env(Arc::clone(&env))
            .verify_source(name, source, &NullSink)
            .expect("kernel verifies");
        assert_eq!(report.program, name);
        assert_eq!(report.failures(), 0, "{name}: {}", report.summary());
        let fresh = session(SessionConfig::default())
            .verify_source(name, source, &NullSink)
            .expect("kernel verifies");
        for ((n, shared), (_, alone)) in report.outcomes.iter().zip(&fresh.outcomes) {
            assert_eq!(shared.certificate(), alone.certificate(), "{name}::{n}");
        }
    }
}

/// Asking for a property that does not exist is a session error, not a
/// silent empty report.
#[test]
fn unknown_property_filter_is_an_error() {
    let car = checked("car", reflex_kernels::car::SOURCE);
    let err = session(SessionConfig {
        options: ProverOptions::default(),
        property: Some("NoSuchThing".to_owned()),
        ..SessionConfig::default()
    })
    .verify_checked(&car, &NullSink)
    .expect_err("must refuse an unknown property");
    assert!(err.to_string().contains("NoSuchThing"), "{err}");
}

/// A store that starts failing mid-loop must degrade the watch session
/// to in-memory caching (after capped-backoff retries) without losing a
/// single verdict, and re-attach the moment the disk heals.
#[test]
fn watch_session_degrades_and_recovers_on_store_failure() {
    use std::sync::Arc;

    use reflex_driver::BackoffPolicy;
    use reflex_verify::{FaultyFs, VerifyFs};

    let car = checked("car", reflex_kernels::car::SOURCE);
    let dir = std::env::temp_dir().join(format!("rx-watch-degrade-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Every operation faults while unhealed; healed it is a passthrough.
    let fs = FaultyFs::seeded(0, 1_000_000);
    fs.heal();

    let mut watch = WatchSession::new(SessionConfig {
        options: ProverOptions::default(),
        store_dir: Some(dir.to_string_lossy().into_owned()),
        store_fs: Some(Arc::new(fs.clone()) as Arc<dyn VerifyFs>),
        ..SessionConfig::default()
    })
    .expect("healthy store opens")
    .with_backoff(BackoffPolicy {
        base_ms: 1,
        cap_ms: 2,
        retries: 2,
    });
    assert!(!watch.degraded());

    let sink = MemorySink::new();
    // 1: healthy store-backed iteration.
    let it = watch.verify(&car, &sink).expect("iteration 1");
    assert!(!it.degraded);
    assert_eq!(it.failures(), 0);

    // 2: the disk starts failing. The iteration still completes (errors
    // are misses) and flags the store for a retry.
    fs.unheal();
    let it = watch.verify(&car, &sink).expect("iteration 2");
    assert!(!it.degraded, "one bad iteration is tolerated");
    assert_eq!(it.failures(), 0);

    // 3: retries fail, the store detaches, the iteration runs degraded on
    // the in-memory carry.
    let it = watch.verify(&car, &sink).expect("iteration 3");
    assert!(it.degraded, "persistent failure must degrade");
    assert!(watch.degraded());
    assert!(watch.degraded_reason().is_some());
    assert_eq!(it.failures(), 0, "degraded mode loses no verdicts");
    assert!(it.summary().contains("DEGRADED"));

    // 4: the disk heals; the store is re-attached before the iteration.
    fs.heal();
    let it = watch.verify(&car, &sink).expect("iteration 4");
    assert!(!it.degraded, "a healthy store must re-attach");
    assert!(!watch.degraded());
    assert_eq!(it.failures(), 0);

    let (mut retries, mut degraded, mut recovered) = (0, 0, 0);
    for event in sink.events() {
        match event {
            Event::StoreRetry { .. } => retries += 1,
            Event::StoreDegraded { .. } => degraded += 1,
            Event::StoreRecovered => recovered += 1,
            _ => {}
        }
    }
    assert_eq!(retries, 2, "both backoff probes fired");
    assert_eq!(degraded, 1);
    assert_eq!(recovered, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A proof task that panics must be isolated as `Outcome::Crashed` —
/// never torn down the session or poisoned its siblings — and classified
/// identically whether the fan-out runs on one worker or eight. The
/// siblings must still prove with certificates the independent checker
/// accepts.
#[test]
fn injected_panic_is_isolated_and_deterministic_across_job_counts() {
    const VICTIM: &str = "NoLockAfterCrash";
    let car = checked("car", reflex_kernels::car::SOURCE);

    let run = |jobs: usize| {
        let sink = MemorySink::new();
        let report = session(SessionConfig {
            options: ProverOptions {
                panic_on: Some(VICTIM.to_owned()),
                jobs,
                ..ProverOptions::default()
            },
            ..SessionConfig::default()
        })
        .verify_checked(&car, &sink)
        .expect("the session survives a panicking proof task");
        (report, sink)
    };
    let (serial, serial_sink) = run(1);
    let (parallel, parallel_sink) = run(8);

    for (label, report) in [("serial", &serial), ("parallel", &parallel)] {
        assert_eq!(report.crashes(), 1, "{label}: exactly one crash");
        assert_eq!(
            report.proved(),
            report.outcomes.len() - 1,
            "{label}: every sibling still proves"
        );
        for (name, outcome) in &report.outcomes {
            if name == VICTIM {
                assert!(outcome.is_crashed(), "{label}: {name} must be Crashed");
                let failure = outcome.failure().expect("a crash carries a reason");
                assert!(
                    failure.reason.contains("panicked"),
                    "{label}: crash reason should mention the panic: {}",
                    failure.reason
                );
            } else {
                // The session already validated these; re-check anyway so
                // this test stands alone.
                let cert = outcome
                    .certificate()
                    .unwrap_or_else(|| panic!("{label}: {name} should have proved"));
                reflex_verify::check_certificate(&car, cert, &ProverOptions::default())
                    .unwrap_or_else(|e| panic!("{label}: {name}: {e}"));
            }
        }
    }

    // Identical classification and identical certificates across worker
    // counts — a crash is a deterministic verdict, not a race artifact.
    for ((n1, o1), (n2, o2)) in serial.outcomes.iter().zip(&parallel.outcomes) {
        assert_eq!(n1, n2);
        assert_eq!(o1.is_crashed(), o2.is_crashed(), "{n1}");
        assert_eq!(o1.certificate(), o2.certificate(), "{n1}");
        assert_eq!(
            o1.failure().map(|f| f.reason.clone()),
            o2.failure().map(|f| f.reason.clone()),
            "{n1}: crash reasons must match"
        );
    }

    // Both sinks told the same story: one crashed property event, the
    // rest proved.
    for sink in [&serial_sink, &parallel_sink] {
        let crashed = sink
            .properties()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::Property {
                        status: PropertyStatus::Crashed,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(crashed, 1);
    }
}

/// The `✓` lines of a report's property listing.
fn proved_lines(report: &reflex_driver::SessionReport) -> Vec<String> {
    report
        .render_properties()
        .lines()
        .filter(|l| l.contains('✓'))
        .map(str::to_owned)
        .collect()
}

/// Every certificate a session returns passed the independent checker in
/// this run — store re-proves included, even for a caller that opted out
/// — except full reuses of an in-process previous run; each property's
/// label says which happened.
#[test]
fn labels_state_which_certificates_were_checked() {
    let car = checked("car", reflex_kernels::car::SOURCE);
    let dir = std::env::temp_dir().join(format!("rx-check-labels-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_run = || {
        session(SessionConfig {
            store_dir: Some(dir.to_string_lossy().into_owned()),
            ..SessionConfig::default()
        })
        .without_certificate_checks()
        .verify_checked(&car, &NullSink)
        .expect("store session verifies")
    };
    let storeless = |checks: bool| {
        let s = session(SessionConfig::default());
        let s = if checks {
            s
        } else {
            s.without_certificate_checks()
        };
        s.verify_checked(&car, &NullSink).expect("car verifies")
    };

    // A cold store run re-proves everything and checks every certificate:
    // it issues exactly the solver queries of a checked storeless run,
    // and more than an unchecked one.
    let cold = store_run();
    let checked_run = storeless(true);
    let unchecked_run = storeless(false);
    assert!(cold.certificates_checked);
    assert_eq!(cold.stats.solver_queries, checked_run.stats.solver_queries);
    assert!(cold.stats.solver_queries > unchecked_run.stats.solver_queries);
    assert!(proved_lines(&cold)
        .iter()
        .all(|l| l.ends_with(", certificate checked)")));
    assert!(proved_lines(&unchecked_run)
        .iter()
        .all(|l| !l.contains("checked")));

    // A warm store run reuses every certificate after re-checking it.
    let warm = store_run();
    assert_eq!(warm.reused.len(), warm.outcomes.len());
    assert!(proved_lines(&warm)
        .iter()
        .all(|l| l.ends_with(", reused from store, re-checked)")));

    // The in-memory watch loop returns its previous certificates as they
    // were, and says so.
    let mut watch = WatchSession::new(SessionConfig::default()).expect("watch opens");
    watch.verify(&car, &NullSink).expect("first iteration");
    let second = watch.verify(&car, &NullSink).expect("second iteration");
    assert_eq!(second.report.reused.len(), second.report.outcomes.len());
    assert!(proved_lines(&second.report)
        .iter()
        .all(|l| l.ends_with(", reused from the previous run)")));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A seeded panic plan that crashes some of car's properties — one of
/// them inside a whole-property (`Enables`/`Disables`) obligation on the
/// pool — leaves exactly those properties `Crashed` at one and at four
/// workers; every other property proves with its clean-run certificate.
#[test]
fn panic_plan_crashes_only_its_victims_at_one_and_four_workers() {
    use reflex_ast::{PropBody, TracePropKind};
    use reflex_verify::PanicPlan;

    let car = checked("car", reflex_kernels::car::SOURCE);
    let props = &car.program().properties;
    let whole_obligation = |name: &str| {
        props.iter().any(|p| {
            p.name == name
                && matches!(&p.body, PropBody::Trace(tp)
                    if matches!(tp.kind, TracePropKind::Enables | TracePropKind::Disables))
        })
    };
    // The first seed whose plan crashes some, but not all, properties,
    // including one whole-property obligation.
    let (seed, victims) = (0..10_000u64)
        .find_map(|seed| {
            let plan = PanicPlan::seeded(seed, 300_000);
            let victims: Vec<String> = props
                .iter()
                .map(|p| p.name.clone())
                .filter(|n| plan.should_panic(n))
                .collect();
            (victims.len() < props.len() && victims.iter().any(|v| whole_obligation(v)))
                .then_some((seed, victims))
        })
        .expect("some seed crashes a whole-property obligation");

    let clean = session(SessionConfig::default())
        .verify_checked(&car, &NullSink)
        .expect("car verifies");
    for jobs in [1, 4] {
        let report = session(SessionConfig {
            options: ProverOptions {
                panic_plan: Some(std::sync::Arc::new(PanicPlan::seeded(seed, 300_000))),
                jobs,
                ..ProverOptions::default()
            },
            ..SessionConfig::default()
        })
        .verify_checked(&car, &NullSink)
        .expect("the session survives the crashes");
        for ((name, outcome), (_, expected)) in report.outcomes.iter().zip(&clean.outcomes) {
            if victims.contains(name) {
                assert!(outcome.is_crashed(), "jobs {jobs}: {name} must crash");
            } else {
                assert_eq!(
                    outcome.certificate(),
                    expected.certificate(),
                    "jobs {jobs}: {name} must prove exactly as in a clean run"
                );
            }
        }
        assert_eq!(report.crashes(), victims.len(), "jobs {jobs}");
    }
}
