//! Cross-property obligation scheduling.
//!
//! A property-level fan-out has a long-tail problem: a batch of cheap
//! properties plus one huge one keeps a single worker busy for the whole
//! run while the rest go idle. This module decomposes each property into
//! its individually schedulable proof obligations so the engine
//! ([`crate::reverify_core`]) can interleave them *across* properties on
//! the work-stealing pool ([`crate::sched`]):
//!
//! * witness-only trace properties (`ImmBefore`/`ImmAfter`/`Ensures`)
//!   split into their inductive cases ([`trace_prover::PreparedTrace`]);
//! * non-interference properties split into their exchange cases
//!   ([`ni_prover::PreparedNi`]);
//! * `Enables`/`Disables` extend the prover's invariant/lemma tables in a
//!   global visit order that the certificate records, so they stay whole —
//!   one (possibly large) obligation each.
//!
//! Determinism: preparation, each obligation, and assembly are all pure
//! functions of the abstraction and options; the scheduler only decides
//! *which worker* computes each result. Assembly consumes results in
//! serial visit order, so outcomes and certificates are byte-identical to
//! the whole-property prover ([`crate::prove_with_cache`]) for every job
//! count (enforced by the `determinism.rs` integration tests and the CI
//! `scale` job).

use reflex_ast::PropBody;

use crate::abstraction::Abstraction;
use crate::cache::ProofCache;
use crate::certificate::{CaseCert, NiCaseCert};
use crate::ni_prover::{self, PreparedNi};
use crate::options::{Outcome, ProofFailure, ProverOptions};
use crate::trace_prover::{self, PreparedTrace, TracePrep};

/// A property readied for obligation-level scheduling.
// The prepared variants are the common case and live only for one prove
// call; boxing them would cost an allocation per property for nothing.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Prepared<'a, 'p> {
    /// Resolved during preparation (broadcast refusal, budget fail-fast,
    /// or a base-case failure): zero obligations left.
    Done(Box<Outcome>),
    /// Witness-only trace property: one obligation per inductive case.
    Trace(PreparedTrace<'a, 'p>),
    /// Non-interference property: one obligation per exchange case.
    Ni(PreparedNi<'a, 'p>),
    /// Must run whole (`Enables`/`Disables`): a single obligation that
    /// proves the entire property.
    Whole(&'a str),
}

/// One obligation's result, tagged with the property shape it belongs to.
pub(crate) enum UnitOut {
    Case(Result<CaseCert, ProofFailure>),
    NiCase(Result<NiCaseCert, ProofFailure>),
    Whole(Box<Outcome>),
}

/// Prepares one property: runs the shared pre-checks and, where the kind
/// allows it, proves the base cases and enumerates the inductive
/// obligations.
pub(crate) fn prepare<'a, 'p>(
    abs: &'a Abstraction<'p>,
    options: &'a ProverOptions,
    prop: &'a reflex_ast::PropertyDecl,
    cache: Option<&'a ProofCache>,
) -> Prepared<'a, 'p> {
    if let Some(outcome) = crate::pre_check(abs, options, &prop.name) {
        return Prepared::Done(Box::new(outcome));
    }
    let shared = if options.shared_cache { cache } else { None };
    match &prop.body {
        PropBody::Trace(tp) => {
            // Preparation proves the base cases — a proof task of its own
            // for the scratch term arena.
            match reflex_symbolic::with_scratch(|| {
                trace_prover::prepare_trace(abs, options, prop, tp, shared)
            }) {
                TracePrep::Prepared(p) => Prepared::Trace(p),
                TracePrep::NotSchedulable => Prepared::Whole(&prop.name),
                TracePrep::Failed(f) => Prepared::Done(Box::new(Outcome::Failed(f))),
            }
        }
        PropBody::NonInterference(spec) => {
            Prepared::Ni(ni_prover::prepare_ni(abs, options, prop, spec))
        }
    }
}

/// Number of schedulable obligations this property contributes.
pub(crate) fn unit_count(prepared: &Prepared<'_, '_>) -> usize {
    match prepared {
        Prepared::Done(_) => 0,
        Prepared::Trace(p) => p.unit_count(),
        Prepared::Ni(p) => p.unit_count(),
        Prepared::Whole(_) => 1,
    }
}

/// Discharges obligation `u` of a prepared property (pure; callable from
/// any worker).
pub(crate) fn run_unit(
    prepared: &Prepared<'_, '_>,
    u: usize,
    abs: &Abstraction<'_>,
    options: &ProverOptions,
    cache: Option<&ProofCache>,
) -> UnitOut {
    // Each obligation is one task for the scratch term arena; inside a
    // pool worker's scope these nest into it instead of opening their own
    // (whole properties get theirs inside `prove_with_cache`).
    match prepared {
        Prepared::Done(_) => unreachable!("resolved properties contribute no obligations"),
        Prepared::Trace(p) => UnitOut::Case(reflex_symbolic::with_scratch(|| p.run_unit(u))),
        Prepared::Ni(p) => UnitOut::NiCase(reflex_symbolic::with_scratch(|| p.run_unit(u))),
        Prepared::Whole(name) => UnitOut::Whole(Box::new(
            crate::prove_with_cache(abs, name, options, cache)
                .expect("property exists by construction"),
        )),
    }
}

/// Reassembles a property's outcome from its obligation results (in unit
/// order) and applies the shared post-processing (budget re-classification
/// and dependency stamping) so the result is indistinguishable from
/// [`crate::prove_with_cache`]'s.
pub(crate) fn assemble(
    prepared: Prepared<'_, '_>,
    units: Vec<UnitOut>,
    abs: &Abstraction<'_>,
) -> Outcome {
    match prepared {
        Prepared::Done(outcome) => crate::finalize_outcome(abs, *outcome),
        Prepared::Trace(p) => {
            let cases = units
                .into_iter()
                .map(|u| match u {
                    UnitOut::Case(c) => c,
                    _ => unreachable!("trace property obligations are cases"),
                })
                .collect();
            crate::finalize_outcome(abs, p.assemble(cases))
        }
        Prepared::Ni(p) => {
            let cases = units
                .into_iter()
                .map(|u| match u {
                    UnitOut::NiCase(c) => c,
                    _ => unreachable!("NI property obligations are NI cases"),
                })
                .collect();
            crate::finalize_outcome(abs, p.assemble(cases))
        }
        Prepared::Whole(_) => match units.into_iter().next() {
            // Already fully post-processed by `prove_with_cache`.
            Some(UnitOut::Whole(outcome)) => *outcome,
            _ => unreachable!("whole properties yield exactly one outcome"),
        },
    }
}
