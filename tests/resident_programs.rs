//! Resident programs in the verification service: a request whose exact
//! source is already resident skips parsing, type checking and the
//! abstraction build, yet answers byte for byte what the first (missing)
//! request answered — for the Figure 6 kernels and the §6.3 mutants, with
//! and without a proof store, at one and at eight proof threads.

use std::sync::Arc;

use reflex_driver::{NullSink, SessionReport};
use reflex_service::{Reply, Request, ServiceConfig, ServiceCore};
use reflex_verify::certificate_to_bytes;

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
