//! Resident programs in the verification service: a request whose exact
//! source is already resident skips parsing, type checking and the
//! abstraction build, yet answers byte for byte what the first (missing)
//! request answered — for the Figure 6 kernels and the §6.3 mutants, with
//! and without a proof store, at one and at eight proof threads.
//!
//! A resident program also keeps the certificates the checker accepted
//! for it: a repeated checked run reuses them instead of searching and
//! checking again, and answers the same bytes. With a store, the table is
//! consulted first and the store only for what it lacks; certificates
//! read from the store are checked before they are trusted.

use std::sync::Arc;

use reflex_driver::{
    Env, Event, MemorySink, NullSink, SessionConfig, SessionReport, VerifySession,
};
use reflex_service::{Reply, Request, ServiceConfig, ServiceCore};
use reflex_verify::certificate::Certificate;
use reflex_verify::{certificate_to_bytes, check_certificate, ProofStore, ProverOptions};

/// `(name, source, property)` for every program the daemon benchmark
/// serves: each kernel proving everything, each mutant scoped to the
/// property its bug breaks.
fn programs() -> Vec<(String, String, Option<String>)> {
    let kernels = reflex_kernels::all_benchmarks()
        .into_iter()
        .map(|b| (b.name.to_owned(), b.source.to_owned(), None));
    let mutants = reflex_bench::seeded_mutants().into_iter().map(|m| {
        (
            format!("{}-mutant", m.kernel),
            m.source,
            Some(m.property.to_owned()),
        )
    });
    kernels.chain(mutants).collect()
}

/// Each outcome as `(property, certificate bytes)`, or the failure text
/// for an unproved property.
type Answer = Vec<(String, Vec<u8>)>;

/// A report's [`Answer`].
fn outcome_bytes(report: &SessionReport) -> Answer {
    report
        .outcomes
        .iter()
        .map(|(name, outcome)| match outcome.certificate() {
            Some(cert) => (name.clone(), certificate_to_bytes(cert)),
            None => (name.clone(), format!("{outcome:?}").into_bytes()),
        })
        .collect()
}

#[test]
fn hits_and_misses_give_identical_outcomes_and_certificates() {
    let programs = programs();
    assert_eq!(programs.len(), 11);
    let mut expected: Vec<Option<Answer>> = vec![None; programs.len()];
    for with_store in [false, true] {
        for jobs in [1, 8] {
            let dir = std::env::temp_dir().join(format!(
                "rx-resident-{}-{jobs}-{with_store}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let core = ServiceCore::start(ServiceConfig {
                jobs,
                workers: 1,
                store_dir: with_store.then(|| dir.to_string_lossy().into_owned()),
                ..ServiceConfig::default()
            })
            .expect("core starts");
            let context = format!("store {with_store}, jobs {jobs}");
            for ((name, source, property), expected) in programs.iter().zip(&mut expected) {
                let verify = || {
                    let request = Request::Verify {
                        name: name.clone(),
                        source: source.clone(),
                        property: property.clone(),
                        budget_ms: None,
                        budget_nodes: None,
                        want_events: false,
                        deadline_ms: None,
                        idempotency_key: None,
                    };
                    match core.request(0, request, Arc::new(NullSink)) {
                        Ok(Reply::Verify(report)) => report,
                        other => panic!("{name} ({context}): expected a report, got {other:?}"),
                    }
                };
                let miss = verify();
                let hit = verify();
                let verdict_ok = match property {
                    None => miss.failures() == 0,
                    Some(_) => miss.outcomes.len() == 1 && miss.proved() == 0,
                };
                assert!(
                    verdict_ok,
                    "{name} ({context}):\n{}",
                    miss.render_properties()
                );
                let answer = outcome_bytes(&miss);
                assert_eq!(
                    outcome_bytes(&hit),
                    answer,
                    "{name} ({context}): hit differs"
                );
                let expected = expected.get_or_insert_with(|| answer.clone());
                assert_eq!(
                    &answer, expected,
                    "{name} ({context}): differs across configurations"
                );
            }
            let stats = core.stats().snapshot();
            let n = programs.len() as u64;
            assert_eq!(
                (stats.resident_misses, stats.resident_hits),
                (n, n),
                "{context}"
            );
            core.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// The 11 served programs plus each mutant over all of its properties,
/// so some runs mix proved and failing properties.
fn programs_and_whole_mutants() -> Vec<(String, String, Option<String>)> {
    let whole = reflex_bench::seeded_mutants()
        .into_iter()
        .map(|m| (format!("{}-mutant", m.kernel), m.source, None));
    programs().into_iter().chain(whole).collect()
}

fn env(jobs: usize) -> Arc<Env> {
    Arc::new(
        Env::new(&SessionConfig {
            options: ProverOptions {
                jobs,
                ..ProverOptions::default()
            },
            ..SessionConfig::default()
        })
        .expect("storeless env"),
    )
}

/// One storeless, checked run of `source` over `env`.
fn run(env: &Arc<Env>, name: &str, source: &str, property: Option<&str>) -> SessionReport {
    VerifySession::with_env(Arc::clone(env))
        .with_property(property.map(str::to_owned))
        .verify_source(name, source, &NullSink)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn names(report: &SessionReport, proved: bool) -> Vec<String> {
    report
        .outcomes
        .iter()
        .filter(|(_, o)| o.is_proved() == proved)
        .map(|(n, _)| n.clone())
        .collect()
}

#[test]
fn repeated_storeless_runs_reuse_exactly_the_proved_properties() {
    for jobs in [1, 8] {
        let env = env(jobs);
        for (name, source, property) in programs_and_whole_mutants() {
            let context = format!("{name} {property:?} (jobs {jobs})");
            let first = run(&env, &name, &source, property.as_deref());
            assert!(first.reused.is_empty(), "{context}: nothing recorded yet");
            assert!(first.certificates_checked, "{context}");
            let answer = outcome_bytes(&first);
            for round in 2..=3 {
                let again = run(&env, &name, &source, property.as_deref());
                assert_eq!(outcome_bytes(&again), answer, "{context}: run {round}");
                assert_eq!(again.reused, names(&again, true), "{context}: run {round}");
                assert_eq!(
                    again.reproved,
                    names(&again, false),
                    "{context}: run {round}"
                );
                assert!(again.partial.is_empty(), "{context}: run {round}");
                assert!(again.certificates_checked, "{context}: run {round}");
                if again.failures() == 0 {
                    assert_eq!(again.stats.paths_explored, 0, "{context}: run {round}");
                    assert_eq!(again.stats.solver_queries, 0, "{context}: run {round}");
                }
            }
        }
    }
}

#[test]
fn reuse_is_visible_in_events_text_and_json() {
    let env = env(1);
    let car = reflex_kernels::car::SOURCE;
    let first = run(&env, "car", car, None);
    let sink = MemorySink::new();
    let again = VerifySession::with_env(Arc::clone(&env))
        .verify_source("car", car, &sink)
        .expect("verifies");
    let reuses: Vec<Option<&str>> = sink
        .properties()
        .into_iter()
        .map(|e| match e {
            Event::Property { reuse, .. } => reuse,
            _ => unreachable!("properties() yields property events"),
        })
        .collect();
    assert_eq!(reuses.len(), first.outcomes.len());
    assert!(reuses.iter().all(|r| *r == Some("full")), "{reuses:?}");
    let text = again.render_properties();
    assert_eq!(
        text.matches(", reused from the previous run").count(),
        first.outcomes.len(),
        "{text}"
    );
    let json = again.render_json();
    let n = first.outcomes.len();
    assert!(json.contains(&format!(r#""proved":{n},"#)), "{json}");
    assert!(json.contains(&format!(r#""reused":{n},"#)), "{json}");
    assert!(json.contains(r#""paths_explored":0,"#), "{json}");
}

#[test]
fn unchecked_sessions_neither_record_nor_read_the_table() {
    let env = env(1);
    let ssh = reflex_kernels::ssh::SOURCE;
    let unchecked = || {
        VerifySession::with_env(Arc::clone(&env))
            .without_certificate_checks()
            .verify_source("ssh", ssh, &NullSink)
            .expect("verifies")
    };
    let first = unchecked();
    assert_eq!(first.failures(), 0, "{}", first.render_properties());

    // The unchecked run recorded nothing: a checked session re-proves
    // and checks everything itself.
    let checked = run(&env, "ssh", ssh, None);
    assert!(checked.certificates_checked);
    assert!(checked.reused.is_empty());
    assert_eq!(checked.reproved.len(), checked.outcomes.len());
    assert!(checked.stats.paths_explored > 0);
    assert_eq!(outcome_bytes(&checked), outcome_bytes(&first));

    // An unchecked session does not read what the checked one recorded,
    // though a checked one does.
    let again = unchecked();
    assert!(again.reused.is_empty());
    assert!(again.stats.paths_explored > 0);
    assert_eq!(outcome_bytes(&again), outcome_bytes(&first));
    let recorded = run(&env, "ssh", ssh, None);
    assert_eq!(recorded.reused.len(), recorded.outcomes.len());
}

#[test]
fn a_scoped_run_then_a_whole_run_reuses_exactly_the_scoped_property() {
    for bench in reflex_kernels::all_benchmarks() {
        let env = env(1);
        let checked = reflex_typeck::check(
            &reflex_parser::parse_program(bench.name, bench.source).expect("parses"),
        )
        .expect("checks");
        let Some(last) = checked.program().properties.last() else {
            continue;
        };
        let scoped = run(&env, bench.name, bench.source, Some(&last.name));
        assert_eq!(scoped.outcomes.len(), 1);
        let whole = run(&env, bench.name, bench.source, None);
        assert_eq!(whole.reused, vec![last.name.clone()], "{}", bench.name);
        assert_eq!(
            whole.reproved.len(),
            whole.outcomes.len() - 1,
            "{}",
            bench.name
        );
        let fresh = run(&self::env(1), bench.name, bench.source, None);
        assert_eq!(
            outcome_bytes(&whole),
            outcome_bytes(&fresh),
            "{}",
            bench.name
        );
    }
}

fn store_env(dir: &std::path::Path) -> Arc<Env> {
    Arc::new(
        Env::new(&SessionConfig {
            options: ProverOptions {
                jobs: 1,
                ..ProverOptions::default()
            },
            store_dir: Some(dir.to_string_lossy().into_owned()),
            ..SessionConfig::default()
        })
        .expect("store env"),
    )
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rx-resident-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_tampered_store_entry_is_reproved_and_never_served() {
    const PROP: &str = "NoLockAfterCrash";
    let car = reflex_kernels::car::SOURCE;
    let checked = reflex_typeck::check(&reflex_parser::parse_program("car", car).expect("parses"))
        .expect("checks");
    let options = ProverOptions::default();
    let storeless = outcome_bytes(&run(&env(1), "car", car, None));
    let good = storeless
        .iter()
        .find(|(name, _)| name == PROP)
        .map(|(_, bytes)| bytes.clone())
        .expect("car proves the property");

    // The genuine certificate, dependency record intact, minus one case:
    // the planner sees a full reuse, the checker a missing case.
    let mut tampered =
        reflex_verify::certificate_from_bytes(&good).expect("the certificate decodes");
    let Certificate::Trace(trace) = &mut tampered else {
        panic!("{PROP} has a trace certificate");
    };
    assert!(trace.cases.pop().is_some(), "{PROP} has inductive cases");
    assert!(check_certificate(&checked, &tampered, &options).is_err());
    let tampered_bytes = certificate_to_bytes(&tampered);

    let dir = scratch_dir("tampered");
    {
        let store = ProofStore::open(&dir).expect("store opens");
        let fps = checked.fingerprints();
        let pfp = fps.property(PROP).expect("the property is declared");
        store
            .save(fps.program, pfp, options.fingerprint(), &tampered)
            .expect("the entry is filed");
        store.flush().expect("the entry is committed");
    }

    let core = ServiceCore::start(ServiceConfig {
        workers: 1,
        jobs: 1,
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServiceConfig::default()
    })
    .expect("core starts");
    let verify = || {
        let request = Request::Verify {
            name: "car".to_owned(),
            source: car.to_owned(),
            property: None,
            budget_ms: None,
            budget_nodes: None,
            want_events: false,
            deadline_ms: None,
            idempotency_key: None,
        };
        match core.request(0, request, Arc::new(NullSink)) {
            Ok(Reply::Verify(report)) => report,
            other => panic!("expected a report, got {other:?}"),
        }
    };
    let first = verify();
    assert_eq!(first.store_loaded, 1, "{}", first.render_properties());
    assert!(
        first.reproved.iter().any(|n| n == PROP),
        "{:?}",
        first.reproved
    );
    assert_eq!(outcome_bytes(&first), storeless);

    // What the table recorded is what a storeless run proves.
    let again = verify();
    assert_eq!(again.store_loaded, 0);
    assert_eq!(again.reused.len(), again.outcomes.len());
    assert_eq!(outcome_bytes(&again), storeless);
    for report in [&first, &again] {
        assert!(outcome_bytes(report)
            .iter()
            .all(|(_, bytes)| *bytes != tampered_bytes));
    }
    core.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_scoped_then_whole_store_run_labels_each_certificate_by_its_source() {
    const PROP: &str = "NoLockAfterCrash";
    let car = reflex_kernels::car::SOURCE;
    let dir = scratch_dir("scoped-store");
    let filed = run(&store_env(&dir), "car", car, None);
    assert_eq!(filed.failures(), 0, "{}", filed.render_properties());

    // A fresh env over the filed store: the scoped run reads its one
    // property from the store, the whole run takes that one from the
    // table and the rest from the store.
    let env = store_env(&dir);
    let scoped = run(&env, "car", car, Some(PROP));
    assert_eq!(scoped.from_store, Some(vec![PROP.to_owned()]));
    let whole = run(&env, "car", car, None);
    let n = whole.outcomes.len();
    assert_eq!(whole.reused.len(), n);
    assert_eq!(whole.store_loaded, n - 1);
    let from_store = whole
        .from_store
        .as_deref()
        .expect("a local report names its reads");
    assert_eq!(from_store.len(), n - 1);
    assert!(!from_store.iter().any(|name| name == PROP));
    assert_eq!(outcome_bytes(&whole), outcome_bytes(&filed));

    let text = whole.render_properties();
    for line in text.lines() {
        if line.contains(&format!(" {PROP} ")) {
            assert!(line.ends_with(", reused from the previous run)"), "{line}");
        } else {
            assert!(line.ends_with(", reused from store, re-checked)"), "{line}");
        }
    }
    assert_eq!(text.matches("re-checked").count(), n - 1, "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
