//! Determinism regression tests for the parallel prover and the shared
//! cross-property proof cache.
//!
//! The design claim (see `reflex-verify`'s `cache.rs`): because cached
//! subproofs are self-contained packages that are pure functions of their
//! keys, the property-at-a-time prover and the obligation engine at any
//! pool width produce *identical* outcomes — not just the same
//! proved/failed statuses, but equal certificates and equal failure
//! messages — on every bundled kernel. These tests pin that claim.

use reflex_kernels::all_benchmarks;
use reflex_typeck::CheckedProgram;
use reflex_verify::{
    check_certificate, prove_all, prove_with_cache, reverify_core, Abstraction, Outcome,
    ProofCache, ProverOptions, VerifyRun,
};

/// Every property proved whole, one after another, over one shared cache
/// — the reference the engine's obligation split must reproduce.
fn property_at_a_time(checked: &CheckedProgram, options: &ProverOptions) -> Vec<(String, Outcome)> {
    let abs = Abstraction::build(checked, options);
    let cache = ProofCache::new();
    checked
        .program()
        .properties
        .iter()
        .map(|p| {
            let outcome = prove_with_cache(&abs, &p.name, options, Some(&cache)).expect("exists");
            (p.name.clone(), outcome)
        })
        .collect()
}

fn with_jobs(jobs: usize) -> ProverOptions {
    ProverOptions {
        jobs,
        ..ProverOptions::default()
    }
}

/// Asserts two outcome lists are fully identical (names, certificates,
/// failures).
fn assert_outcomes_identical(
    bench: &str,
    label: &str,
    a: &[(String, Outcome)],
    b: &[(String, Outcome)],
) {
    assert_eq!(a.len(), b.len(), "{bench}: {label}: property count");
    for ((an, ao), (bn, bo)) in a.iter().zip(b) {
        assert_eq!(an, bn, "{bench}: {label}: property order");
        match (ao, bo) {
            (Outcome::Proved(ac), Outcome::Proved(bc)) => {
                assert_eq!(ac, bc, "{bench}::{an}: {label}: certificates differ");
            }
            (Outcome::Failed(af), Outcome::Failed(bf)) => {
                assert_eq!(af, bf, "{bench}::{an}: {label}: failures differ");
            }
            _ => panic!(
                "{bench}::{an}: {label}: one run proved, the other failed \
                 ({ao:?} vs {bo:?})"
            ),
        }
    }
}

#[test]
fn parallel_prover_is_outcome_identical_on_every_kernel() {
    let options = ProverOptions::default();
    for bench in all_benchmarks() {
        let checked = (bench.checked)();
        let serial = property_at_a_time(&checked, &options);
        let par1 = prove_all(&checked, &with_jobs(1));
        let par4 = prove_all(&checked, &with_jobs(4));
        assert_outcomes_identical(bench.name, "whole vs jobs=1", &serial, &par1);
        assert_outcomes_identical(bench.name, "whole vs jobs=4", &serial, &par4);
        // Soundness backstop: every certificate from the parallel,
        // shared-cache run passes the independent checker.
        for (name, outcome) in &par4 {
            if let Some(cert) = outcome.certificate() {
                check_certificate(&checked, cert, &options).unwrap_or_else(|e| {
                    panic!("{}::{name}: certificate rejected: {e}", bench.name)
                });
            }
        }
    }
}

#[test]
fn single_property_runs_split_cases_over_a_four_worker_pool() {
    // A run restricted to one property still spreads that property's
    // inductive cases over the pool; certificates must not depend on it.
    for bench in all_benchmarks() {
        let checked = (bench.checked)();
        let whole = property_at_a_time(&checked, &ProverOptions::default());
        for (name, expected) in &whole {
            let run = |jobs: usize| {
                reverify_core(
                    &checked,
                    &with_jobs(jobs),
                    VerifyRun {
                        property: Some(name),
                        ..VerifyRun::default()
                    },
                )
                .expect("the property exists")
                .outcomes
            };
            let expected = [(name.clone(), expected.clone())];
            assert_outcomes_identical(bench.name, "one property, jobs=1", &expected, &run(1));
            assert_outcomes_identical(bench.name, "one property, jobs=4", &expected, &run(4));
        }
    }
}

#[test]
fn shared_cache_never_changes_proved_set() {
    // The cache may change certificate *shapes* relative to the cache-off
    // prover (packages splice their own dependency copies), but never
    // which properties prove — and both configurations' certificates must
    // pass the checker.
    let on = ProverOptions::default();
    let off = ProverOptions {
        shared_cache: false,
        ..ProverOptions::default()
    };
    for bench in all_benchmarks() {
        let checked = (bench.checked)();
        let with_cache = prove_all(&checked, &on);
        let without = prove_all(&checked, &off);
        assert_eq!(with_cache.len(), without.len());
        for ((name, a), (_, b)) in with_cache.iter().zip(&without) {
            assert_eq!(
                a.is_proved(),
                b.is_proved(),
                "{}::{name}: shared cache changed the outcome",
                bench.name
            );
            for (outcome, opts) in [(a, &on), (b, &off)] {
                if let Some(cert) = outcome.certificate() {
                    check_certificate(&checked, cert, opts).unwrap_or_else(|e| {
                        panic!("{}::{name}: certificate rejected: {e}", bench.name)
                    });
                }
            }
        }
    }
}
