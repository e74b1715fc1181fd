//! Pushbutton verification for Reflex programs — the paper's core
//! contribution (§5), reproduced as a proof-search engine emitting
//! machine-checkable certificates.
//!
//! * [`prove`] / [`prove_all`] — fully automatic proof search for trace
//!   properties (`ImmBefore`, `ImmAfter`, `Enables`, `Ensures`,
//!   `Disables`) and non-interference, by induction over the behavioral
//!   abstraction [`Abstraction`];
//! * [`check_certificate`] — the independent trusted checker that validates
//!   every step of a certificate (the analog of Coq's kernel);
//! * [`falsify`] — bounded concrete counterexample search for properties
//!   the automation fails on;
//! * [`ProverOptions`] — the §6.4 optimization toggles, for the ablation
//!   experiments.
//!
//! # Example
//!
//! ```
//! use reflex_parser::parse_program;
//! use reflex_verify::{prove, check_certificate, ProverOptions};
//!
//! let src = r#"
//! components { Pinger "p.py" (); }
//! messages { Ping(str); Pong(str); }
//! init { p <- spawn Pinger(); }
//! handlers {
//!   when Pinger:Ping(s) { send(p, Pong(s)); }
//! }
//! properties {
//!   PongOnlyAfterPing: forall s: str.
//!     [Recv(Pinger(), Ping(s))] Enables [Send(Pinger(), Pong(s))];
//! }
//! "#;
//! let program = parse_program("ping", src).unwrap();
//! let checked = reflex_typeck::check(&program).unwrap();
//! let options = ProverOptions::default();
//! let outcome = prove(&checked, "PongOnlyAfterPing", &options).unwrap();
//! let cert = outcome.certificate().expect("proved");
//! check_certificate(&checked, cert, &options).expect("certificate valid");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abstraction;
pub mod budget;
mod cache;
pub mod canon;
pub mod certificate;
mod checker;
pub mod clock;
mod codec;
mod falsify;
pub mod incremental;
mod ni_prover;
mod oblig;
mod options;
pub mod sched;
mod shared;
pub mod store;
mod trace_prover;
pub mod vfs;

pub use abstraction::{Abstraction, ResidentProgram, World};
pub use budget::{BudgetExceeded, ProofBudget};
pub use cache::{CacheStats, ProofCache};
pub use certificate::{Certificate, DepSet};
pub use checker::{check_certificate, check_certificate_with, CheckError};
pub use clock::{Clock, RealClock, VirtualClock};
pub use falsify::{falsify, Counterexample, FalsifyOptions};
pub use incremental::{
    reverify, reverify_core, reverify_observed, Checks, DepGraph, IncrementalReport, PropObserver,
    Reuse, ReusePlan, VerifyRun,
};
pub use options::{
    catch_crash, resolve_jobs, Outcome, PanicPlan, ProofFailure, ProverOptions, VerifyError,
};
pub use store::{
    load_candidates, load_candidates_where, persist_outcomes, verify_with_store, ProofStore,
    ScrubReport, StoreHead, StoreReport, StoreStat, QUARANTINE_DIR, STORE_VERSION,
};
pub use vfs::{FaultyFs, FsFault, FsFaultPlan, FsOp, RealFs, VerifyFs};

use reflex_ast::PropBody;
use reflex_typeck::CheckedProgram;

/// Encodes a certificate with the store's deterministic binary codec.
///
/// Equal certificates produce equal bytes (no padding, no timestamps), so
/// byte-comparing two encodings is exactly certificate equality — the
/// wire protocol ships certificates this way, and the daemon-vs-one-shot
/// identity tests diff these bytes directly.
pub fn certificate_to_bytes(cert: &Certificate) -> Vec<u8> {
    let mut e = codec::Enc::new();
    codec::enc_certificate(&mut e, cert);
    e.buf
}

/// Decodes a certificate produced by [`certificate_to_bytes`].
///
/// Returns `None` on any truncation, trailing garbage or tag mismatch —
/// the same corrupt-means-miss discipline the proof store uses.
pub fn certificate_from_bytes(bytes: &[u8]) -> Option<Certificate> {
    let mut d = codec::Dec::new(bytes);
    let cert = codec::dec_certificate(&mut d)?;
    d.finish()?;
    Some(cert)
}

/// Proves the named property of a checked program.
///
/// Builds the program's behavioral abstraction and runs the appropriate
/// prover. For verifying many properties of one program, build the
/// [`Abstraction`] once and use [`prove_with`].
///
/// # Errors
///
/// Returns [`VerifyError::NoSuchProperty`] if the property does not exist.
/// Proof-search failures are reported inside [`Outcome`], not as errors.
pub fn prove(
    checked: &CheckedProgram,
    property: &str,
    options: &ProverOptions,
) -> Result<Outcome, VerifyError> {
    let abs = Abstraction::build(checked, options);
    prove_with(&abs, property, options)
}

/// Proves the named property against a pre-built abstraction.
///
/// # Errors
///
/// Returns [`VerifyError::NoSuchProperty`] if the property does not exist.
pub fn prove_with(
    abs: &Abstraction<'_>,
    property: &str,
    options: &ProverOptions,
) -> Result<Outcome, VerifyError> {
    // A private cache still pays off within one property (repeated
    // obligations), and — because cached packages are pure functions of
    // their keys — yields exactly the certificate a warm cross-property
    // cache would.
    let cache = options.shared_cache.then(ProofCache::new);
    prove_with_cache(abs, property, options, cache.as_ref())
}

/// Proves the named property against a pre-built abstraction, sharing
/// subproofs through `cache`.
///
/// Pass the same [`ProofCache`] for every property of a program to reuse
/// auxiliary invariants and lemmas across them (this is what
/// [`reverify_core`] does). The cache never changes outcomes or
/// certificates — cached subproofs are self-contained packages that are
/// pure functions of their keys — and it is ignored entirely when
/// [`ProverOptions::shared_cache`] is off.
///
/// # Errors
///
/// Returns [`VerifyError::NoSuchProperty`] if the property does not exist.
pub fn prove_with_cache(
    abs: &Abstraction<'_>,
    property: &str,
    options: &ProverOptions,
    cache: Option<&ProofCache>,
) -> Result<Outcome, VerifyError> {
    let prop =
        abs.checked()
            .program()
            .property(property)
            .ok_or_else(|| VerifyError::NoSuchProperty {
                name: property.to_owned(),
            })?;
    if let Some(outcome) = pre_check(abs, options, property) {
        return Ok(outcome);
    }
    let shared = if options.shared_cache { cache } else { None };
    // The whole property proof is one task for the scratch term arena:
    // nodes it re-interns stay thread-local, and the scratch is torn down
    // when the task ends (see `reflex_symbolic::arena`).
    let outcome = reflex_symbolic::with_scratch(|| match &prop.body {
        PropBody::Trace(tp) => trace_prover::prove_trace(abs, options, prop, tp, shared),
        PropBody::NonInterference(spec) => ni_prover::prove_ni(abs, options, prop, spec),
    });
    Ok(finalize_outcome(abs, outcome))
}

/// The pre-flight checks every prover entry (whole-property and
/// obligation-split alike) must run before searching: `Some` is a
/// short-circuit outcome.
pub(crate) fn pre_check(
    abs: &Abstraction<'_>,
    options: &ProverOptions,
    property: &str,
) -> Option<Outcome> {
    // The §7 design lesson, reproduced as a hard boundary: a `broadcast`
    // can emit an unbounded number of send actions, which the induction
    // over BehAbs cannot case-split. (The interpreter and the falsifier
    // execute broadcasts fine — only the *automation* refuses.)
    if program_uses_broadcast(abs.checked().program()) {
        return Some(Outcome::Failed(ProofFailure {
            location: "program".into(),
            reason: "the program uses `broadcast`, which emits an unbounded \
number of actions; rewrite it with `lookup` (paper §7: this is precisely \
why Reflex replaced broadcast)"
                .into(),
        }));
    }
    // Fail fast when the session budget is already spent: a batch whose
    // budget tripped on one property should not burn the same allowance
    // again on each remaining property.
    if let Some(b) = &options.budget {
        if let Err(why) = b.check() {
            let failure = ProofFailure {
                location: format!("property `{property}`"),
                reason: format!(
                    "{} ({why}) before the search started",
                    budget::BUDGET_REASON_PREFIX
                ),
            };
            return Some(if matches!(why, budget::BudgetExceeded::Cancelled) {
                Outcome::Cancelled(failure)
            } else {
                Outcome::Timeout(failure)
            });
        }
    }
    None
}

/// The shared post-processing every prover exit must apply. Idempotent, so
/// the scheduled path may apply it to outcomes that already passed through.
pub(crate) fn finalize_outcome(abs: &Abstraction<'_>, mut outcome: Outcome) -> Outcome {
    // A failure manufactured by a budget tick is a *timeout* (or, for an
    // explicit cancel, a *cancellation*), not a verdict about the
    // property; re-classify it at this (single) boundary.
    if let Outcome::Failed(f) = &outcome {
        if budget::is_cancel_failure(f) {
            outcome = Outcome::Cancelled(f.clone());
        } else if budget::is_budget_failure(f) {
            outcome = Outcome::Timeout(f.clone());
        }
    }
    // Stamp the certificate with what its induction consulted, so the
    // incremental planner and the proof store can reason about it later.
    // The dependency set is a deterministic function of the (deterministic)
    // certificate and the program, so serial, parallel and re-proved runs
    // all stamp identical sets.
    if let Outcome::Proved(cert) = &mut outcome {
        let deps = certificate::DepSet::compute(abs.checked(), abs.ranges_fp(), cert);
        cert.set_deps(deps);
    }
    outcome
}

/// Whether any handler or the init section uses the unautomatable
/// `broadcast` primitive.
pub(crate) fn program_uses_broadcast(program: &reflex_ast::Program) -> bool {
    let mut found = false;
    let mut scan = |cmd: &reflex_ast::Cmd| {
        cmd.visit(&mut |c| {
            if matches!(c, reflex_ast::Cmd::Broadcast { .. }) {
                found = true;
            }
        });
    };
    scan(&program.init);
    for h in &program.handlers {
        scan(&h.body);
    }
    found
}

/// Proves every property of the program, returning `(name, outcome)`
/// pairs in declaration order, on [`ProverOptions::jobs`] pool workers.
/// Properties share one [`ProofCache`], so an auxiliary invariant derived
/// for one property is reused by the rest. Outcomes and certificates are
/// identical for every job count (see [`reverify_core`]).
pub fn prove_all(checked: &CheckedProgram, options: &ProverOptions) -> Vec<(String, Outcome)> {
    reverify_core(checked, options, VerifyRun::default())
        .expect("no previous certificates and no requested checks")
        .outcomes
}
