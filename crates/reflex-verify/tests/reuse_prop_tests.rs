//! Property-based tests for incremental re-verification: mutate one
//! randomly chosen handler of every bundled kernel and assert the two
//! contracts the reuse machinery must never break, regardless of which
//! handler changed:
//!
//! * the incremental report is **byte-identical** to a from-scratch
//!   `prove_all` of the mutated program — same outcomes, same
//!   certificates;
//! * every certificate the planner reused or patched still passes the
//!   independent checker against the *mutated* program.
//!
//! The mutation is a self-assignment of a state variable inserted at the
//! top of the chosen handler: semantically a no-op (so every property
//! stays provable), but a new handler fingerprint (so the planner must
//! actually work — full reuse is only allowed where the dependency sets
//! justify it).

use std::sync::OnceLock;

use proptest::prelude::*;
use reflex_parser::parse_program;
use reflex_typeck::check;
use reflex_verify::{check_certificate, prove_all, reverify, Certificate, ProverOptions};

/// Every bundled kernel, with a state variable to self-assign.
const KERNELS: [(&str, &str, &str); 7] = [
    ("car", reflex_kernels::car::SOURCE, "crashed"),
    ("browser", reflex_kernels::browser::SOURCE, "tab_counter"),
    ("browser2", reflex_kernels::browser2::SOURCE, "tab_counter"),
    ("browser3", reflex_kernels::browser3::SOURCE, "tab_counter"),
    ("ssh", reflex_kernels::ssh::SOURCE, "attempts"),
    ("ssh2", reflex_kernels::ssh2::SOURCE, "auth_user"),
    ("webserver", reflex_kernels::webserver::SOURCE, "cur_user"),
];

/// Offsets of every handler's opening `{` in `source`.
fn handler_braces(source: &str) -> Vec<usize> {
    let mut braces = Vec::new();
    let mut pos = 0;
    while let Some(p) = source[pos..].find("\n  when ") {
        let at = pos + p;
        let brace = at + source[at..].find('{').expect("handler opens a block");
        braces.push(brace);
        pos = at + 1;
    }
    braces
}

/// Inserts `var = var;` as the first statement of the `idx`-th handler.
fn mutate_handler(source: &str, idx: usize, var: &str) -> String {
    let braces = handler_braces(source);
    let brace = braces[idx % braces.len()];
    let mut out = String::with_capacity(source.len() + var.len() * 2 + 16);
    out.push_str(&source[..=brace]);
    out.push_str(&format!("\n    {var} = {var};"));
    out.push_str(&source[brace + 1..]);
    out
}

/// One kernel's handler count and base-run certificates.
type BaseRun = (usize, Vec<(String, Certificate)>);

/// Base certificates per kernel, proved once and shared by every case.
fn base_certificates() -> &'static Vec<BaseRun> {
    static BASE: OnceLock<Vec<BaseRun>> = OnceLock::new();
    BASE.get_or_init(|| {
        let options = ProverOptions::default();
        KERNELS
            .iter()
            .map(|(name, source, _)| {
                let checked =
                    check(&parse_program(name, source).expect("kernel parses")).expect("checks");
                let certs: Vec<_> = prove_all(&checked, &options)
                    .into_iter()
                    .map(|(prop, o)| {
                        let cert = o
                            .certificate()
                            .unwrap_or_else(|| panic!("{name}/{prop}: bundled kernels all prove"));
                        (prop, cert.clone())
                    })
                    .collect();
                (handler_braces(source).len(), certs)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_handler_mutation_reverifies_byte_identically(seed in any::<u64>()) {
        let options = ProverOptions::default();
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for ((name, source, var), (handlers, previous)) in
            KERNELS.iter().zip(base_certificates())
        {
            let idx = (next() as usize) % handlers;
            let mutated = mutate_handler(source, idx, var);
            let new = check(&parse_program(name, &mutated).expect("mutation parses"))
                .expect("mutation type-checks");

            let report = reverify(previous, &new, &options).expect("well-formed previous");
            let scratch = prove_all(&new, &options);

            // Byte-identical to a from-scratch run, failures included.
            prop_assert_eq!(report.outcomes.len(), scratch.len());
            for ((n, o), (sn, so)) in report.outcomes.iter().zip(&scratch) {
                prop_assert_eq!(n, sn);
                prop_assert_eq!(o.is_proved(), so.is_proved(), "{}/{}", name, n);
                prop_assert_eq!(o.certificate(), so.certificate(), "{}/{}", name, n);
            }

            // Everything served from the previous run still satisfies the
            // independent checker against the mutated program.
            for prop in report.reused.iter().chain(&report.partial) {
                let (_, outcome) = report
                    .outcomes
                    .iter()
                    .find(|(n, _)| n == prop)
                    .expect("classified properties are reported");
                let cert = outcome.certificate().expect("reused implies proved");
                prop_assert!(
                    check_certificate(&new, cert, &options).is_ok(),
                    "{}/{}: reused certificate rejected by the checker",
                    name,
                    prop
                );
            }

            // Thread fan-out must not change a single byte.
            let pooled = ProverOptions { jobs: 8, ..options.clone() };
            let parallel = reverify(previous, &new, &pooled).expect("parallel");
            prop_assert_eq!(&report.reused, &parallel.reused, "{}", name);
            prop_assert_eq!(&report.partial, &parallel.partial, "{}", name);
            prop_assert_eq!(&report.reproved, &parallel.reproved, "{}", name);
            for ((n, o), (pn, po)) in report.outcomes.iter().zip(&parallel.outcomes) {
                prop_assert_eq!(n, pn);
                prop_assert_eq!(o.certificate(), po.certificate(), "{}/{}", name, n);
            }
        }
    }
}
