//! Independent validation of proof certificates.
//!
//! The checker is the *trusted core* of the reproduction, playing the role
//! of Coq's kernel: the proof search in [`crate::trace_prover`] is free to
//! use any heuristic, because nothing it produces is believed until this
//! module re-derives it. The checker re-runs the deterministic parts
//! (symbolic evaluation of the program, trigger enumeration) and validates
//! every claimed justification with solver entailments; it contains no
//! search.
//!
//! Certificates are checked against the same [`ProverOptions`] that
//! produced them, because the options determine the shape of the symbolic
//! path set the certificate indexes into.

use std::fmt;

use reflex_ast::{ActionPat, PropBody, TraceProp, TracePropKind, Ty};
use reflex_symbolic::{CondKind, Path, Solver, SymAction, SymBindings, SymComp, SymState, Term};
use reflex_typeck::CheckedProgram;

use crate::abstraction::Abstraction;
use crate::canon::prop_term;
use crate::certificate::{
    Certificate, CompOriginRef, InvPathJust, InvariantCert, Justification, NegPrior, NegPriorStep,
    TraceCert,
};
use crate::options::ProverOptions;
use crate::shared::{
    case_can_emit_match, conds_entailed, conds_refuted, definite_match, definite_no_match,
    specialize_pattern, trigger_instances,
};

/// A certificate that failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckErrorInner {
    /// Where in the certificate the problem is.
    pub context: String,
    /// What is wrong.
    pub reason: String,
}

/// Certificate validation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckError(pub CheckErrorInner);

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "certificate rejected at {}: {}",
            self.0.context, self.0.reason
        )
    }
}

impl std::error::Error for CheckError {}

fn reject(context: impl Into<String>, reason: impl Into<String>) -> CheckError {
    CheckError(CheckErrorInner {
        context: context.into(),
        reason: reason.into(),
    })
}

/// Validates `certificate` against `checked`, under the options it was
/// produced with.
///
/// # Errors
///
/// Returns a [`CheckError`] describing the first invalid step.
pub fn check_certificate(
    checked: &CheckedProgram,
    certificate: &Certificate,
    options: &ProverOptions,
) -> Result<(), CheckError> {
    // Programs using `broadcast` are outside the automatable fragment
    // (§7): the symbolic abstraction under-approximates them, so no
    // certificate over it can be trusted — and the prover never emits one.
    if crate::program_uses_broadcast(checked.program()) {
        return Err(reject(
            "program",
            "programs using `broadcast` have no checkable certificates",
        ));
    }
    let abs = Abstraction::build(checked, options);
    check_certificate_with(&abs, certificate, options)
}

/// [`check_certificate`] against a pre-built behavioral abstraction.
///
/// Building the abstraction dominates the cost of checking small
/// certificates, so a caller validating many certificates of one program —
/// the incremental pipeline re-checking every store-loaded proof — should
/// build it once and use this entry point. `abs` must have been built from
/// the program and options the certificate is being checked against;
/// [`check_certificate`] is exactly this function after an
/// [`Abstraction::build`].
///
/// # Errors
///
/// Returns a [`CheckError`] describing the first invalid step.
pub fn check_certificate_with(
    abs: &Abstraction<'_>,
    certificate: &Certificate,
    options: &ProverOptions,
) -> Result<(), CheckError> {
    let checked = abs.checked();
    if crate::program_uses_broadcast(checked.program()) {
        return Err(reject(
            "program",
            "programs using `broadcast` have no checkable certificates",
        ));
    }
    // Checking replays the proof's term construction; give it the same
    // scratch term arena a proof task gets.
    reflex_symbolic::with_scratch(|| check_certificate_inner(abs, certificate, options))
}

fn check_certificate_inner(
    abs: &Abstraction<'_>,
    certificate: &Certificate,
    options: &ProverOptions,
) -> Result<(), CheckError> {
    let checked = abs.checked();
    match certificate {
        Certificate::Trace(cert) => check_trace_cert(checked, abs, cert, options),
        Certificate::NonInterference(cert) => {
            // The NI analysis is deterministic and search-free; checking
            // is re-running it and comparing the full case inventory.
            let prop = checked
                .program()
                .property(&cert.property)
                .ok_or_else(|| reject("property", format!("no property `{}`", cert.property)))?;
            let PropBody::NonInterference(spec) = &prop.body else {
                return Err(reject(
                    "property",
                    format!("`{}` is not a non-interference property", cert.property),
                ));
            };
            match crate::ni_prover::prove_ni(abs, options, prop, spec) {
                crate::options::Outcome::Proved(Certificate::NonInterference(re)) => {
                    // Compare the proof content only: the dependency set is
                    // a planning artifact recorded against the program the
                    // proof originally ran over, which may legitimately
                    // differ from this checker's program.
                    if re.property == cert.property && re.cases == cert.cases {
                        Ok(())
                    } else {
                        Err(reject(
                            "non-interference",
                            "certificate does not match the re-derived analysis",
                        ))
                    }
                }
                crate::options::Outcome::Proved(_) => unreachable!("NI proof yields NI cert"),
                crate::options::Outcome::Failed(e)
                | crate::options::Outcome::Timeout(e)
                | crate::options::Outcome::Cancelled(e)
                | crate::options::Outcome::Crashed(e) => Err(reject(
                    "non-interference",
                    format!("re-derivation failed: {e}"),
                )),
            }
        }
    }
}

fn check_trace_cert(
    checked: &CheckedProgram,
    abs: &Abstraction<'_>,
    cert: &TraceCert,
    options: &ProverOptions,
) -> Result<(), CheckError> {
    let prop = checked
        .program()
        .property(&cert.property)
        .ok_or_else(|| reject("property", format!("no property `{}`", cert.property)))?;
    let PropBody::Trace(tp) = &prop.body else {
        return Err(reject(
            "property",
            format!("`{}` is not a trace property", cert.property),
        ));
    };
    check_trace_cert_core(checked, abs, cert, tp, options, 0)
}

/// Maximum lemma nesting the checker accepts (mirrors the prover).
const MAX_LEMMA_DEPTH: usize = 2;

fn check_trace_cert_core(
    checked: &CheckedProgram,
    abs: &Abstraction<'_>,
    cert: &TraceCert,
    tp: &TraceProp,
    options: &ProverOptions,
    lemma_depth: usize,
) -> Result<(), CheckError> {
    let forall_ty = |_v: &str| Ty::Str;

    // 0. Validate the auxiliary lemmas (each is a full `Enables`
    //    certificate in its own right).
    if !cert.lemmas.is_empty() && lemma_depth >= MAX_LEMMA_DEPTH {
        return Err(reject("lemmas", "lemma nesting too deep"));
    }
    for (li, lemma) in cert.lemmas.iter().enumerate() {
        let ctx = format!("lemma #{li}");
        // The positive-obligation variable rule must hold for the lemma.
        let b_vars = lemma.b.vars();
        for v in lemma.a.vars() {
            if !b_vars.contains(&v) {
                return Err(reject(&ctx, format!("lemma variable `{v}` not in trigger")));
            }
        }
        let lemma_tp = TraceProp::new(TracePropKind::Enables, lemma.a.clone(), lemma.b.clone());
        check_trace_cert_core(
            checked,
            abs,
            &lemma.cert,
            &lemma_tp,
            options,
            lemma_depth + 1,
        )?;
    }

    // 1. Validate all auxiliary invariants first (references must point
    //    backwards, so this order is well-founded).
    for (id, inv) in cert.invariants.iter().enumerate() {
        check_invariant(checked, abs, cert, id, inv, options)?;
    }

    // 2. Base cases.
    if cert.base.len() != abs.worlds().len() {
        return Err(reject("base", "wrong number of base cases"));
    }
    for (wi, (world, path_cert)) in abs.worlds().iter().zip(&cert.base).enumerate() {
        let actions: Vec<&SymAction> = world.init.actions.iter().collect();
        check_segment(
            cert,
            tp,
            &forall_ty,
            &actions,
            &world.init.condition,
            None,
            &path_cert.obligations,
            &format!("base {wi}"),
        )?;
    }

    // 3. Inductive cases, in (world × exchange) order.
    let expected_cases: usize = abs.worlds().iter().map(|w| w.exchanges.len()).sum();
    if cert.cases.len() != expected_cases {
        return Err(reject("cases", "wrong number of inductive cases"));
    }
    let mut case_iter = cert.cases.iter();
    for (wi, world) in abs.worlds().iter().enumerate() {
        for exchange in &world.exchanges {
            let case = case_iter.next().expect("length checked");
            let ctx = format!("world {wi}, case {}:{}", exchange.ctype, exchange.msg);
            if case.ctype != exchange.ctype || case.msg != exchange.msg {
                return Err(reject(&ctx, "case order mismatch"));
            }
            if case.skipped {
                if case_can_emit_match(checked, &exchange.ctype, &exchange.msg, tp.trigger()) {
                    return Err(reject(
                        &ctx,
                        "claimed syntactic skip, but the case can emit a trigger match",
                    ));
                }
                continue;
            }
            if case.paths.len() != exchange.paths.len() {
                return Err(reject(&ctx, "wrong number of path certificates"));
            }
            for (pi, (path, path_cert)) in exchange.paths.iter().zip(&case.paths).enumerate() {
                let actions = exchange.appended_actions(path);
                let conditions: Vec<(Term, bool)> = world
                    .range_assumptions
                    .iter()
                    .chain(path.condition.iter())
                    .cloned()
                    .collect();
                check_segment(
                    cert,
                    tp,
                    &forall_ty,
                    &actions,
                    &conditions,
                    Some((&world.pre, &exchange.sender, path)),
                    &path_cert.obligations,
                    &format!("{ctx}, path {pi}"),
                )?;
            }
        }
    }
    Ok(())
}

/// Validates the obligations of one appended-action segment. `pre` is
/// `None` for base cases (empty prior trace).
#[allow(clippy::too_many_arguments)]
fn check_segment(
    cert: &TraceCert,
    tp: &reflex_ast::TraceProp,
    forall_ty: &impl Fn(&str) -> Ty,
    actions: &[&SymAction],
    conditions: &[(Term, bool)],
    exchange_ctx: Option<(&SymState, &SymComp, &Path)>,
    obligations: &[(usize, Justification)],
    ctx: &str,
) -> Result<(), CheckError> {
    let pre: Option<&SymState> = exchange_ctx.map(|(p, _, _)| p);
    let solver0 = Solver::with_assumptions(conditions);
    let instances = trigger_instances(tp.trigger(), actions, &SymBindings::new());
    if instances.len() != obligations.len()
        || instances
            .iter()
            .zip(obligations)
            .any(|(inst, (idx, _))| inst.index != *idx)
    {
        return Err(reject(
            ctx,
            "certificate does not cover exactly the trigger instances",
        ));
    }
    for (inst, (_, just)) in instances.iter().zip(obligations) {
        let octx = format!("{ctx}, trigger #{}", inst.index);
        // Context for this obligation: path condition + match conditions.
        let mut solver = solver0.clone();
        for (t, pol) in &inst.conds {
            solver.assert_term(t.clone(), *pol);
        }
        match just {
            Justification::Refuted => {
                if !(conds_refuted(&solver0, &inst.conds) || solver.is_unsat()) {
                    return Err(reject(&octx, "claimed refutation does not hold"));
                }
                continue;
            }
            Justification::Witness { index } => {
                let position_ok = match tp.kind {
                    TracePropKind::Enables => *index < inst.index,
                    TracePropKind::Ensures => *index > inst.index,
                    TracePropKind::ImmBefore => inst.index > 0 && *index == inst.index - 1,
                    TracePropKind::ImmAfter => *index == inst.index + 1,
                    TracePropKind::Disables => false,
                };
                if !position_ok || *index >= actions.len() {
                    return Err(reject(&octx, "witness index at an illegal position"));
                }
                if !definite_match(&solver, tp.obligation(), actions[*index], &inst.bindings) {
                    return Err(reject(&octx, "claimed witness does not definitely match"));
                }
            }
            Justification::Invariant { inv_id } => {
                if tp.kind != TracePropKind::Enables {
                    return Err(reject(&octx, "invariant justification outside Enables"));
                }
                let Some(world_pre) = pre else {
                    return Err(reject(&octx, "invariant justification in a base case"));
                };
                check_invariant_applies(
                    cert,
                    *inv_id,
                    true,
                    tp.obligation(),
                    inst,
                    &solver,
                    world_pre,
                    &octx,
                )?;
            }
            Justification::NoMatch { prior } => {
                if tp.kind != TracePropKind::Disables {
                    return Err(reject(&octx, "NoMatch justification outside Disables"));
                }
                for (j, action) in actions.iter().enumerate().take(inst.index) {
                    if !definite_no_match(&solver, tp.obligation(), action, &inst.bindings) {
                        return Err(reject(
                            &octx,
                            format!("action #{j} may match the forbidden pattern"),
                        ));
                    }
                }
                match (prior, exchange_ctx) {
                    (NegPrior::EmptyTrace, None) => {}
                    (NegPrior::EmptyTrace, Some(_)) => {
                        return Err(reject(&octx, "EmptyTrace claimed in an inductive case"))
                    }
                    (NegPrior::Invariant { .. } | NegPrior::MissedLookup { .. }, None) => {
                        return Err(reject(&octx, "inductive justification in a base case"))
                    }
                    (NegPrior::Invariant { inv_id }, Some((world_pre, _, _))) => {
                        check_invariant_applies(
                            cert,
                            *inv_id,
                            false,
                            tp.obligation(),
                            inst,
                            &solver,
                            world_pre,
                            &octx,
                        )?;
                    }
                    (NegPrior::MissedLookup { lookup_index }, Some((_, _, path))) => {
                        let Some(ml) = path.missed_lookups.get(*lookup_index) else {
                            return Err(reject(&octx, "dangling missed-lookup index"));
                        };
                        if !crate::trace_prover::missed_lookup_covers(
                            ml,
                            tp.obligation(),
                            inst,
                            &solver,
                        ) {
                            return Err(reject(
                                &octx,
                                "claimed missed lookup does not cover the pattern",
                            ));
                        }
                    }
                }
            }
            Justification::ViaCompOrigin { origin, lemma_id } => {
                if tp.kind != TracePropKind::Enables {
                    return Err(reject(&octx, "ViaCompOrigin outside Enables"));
                }
                let Some((_, sender, path)) = exchange_ctx else {
                    return Err(reject(&octx, "ViaCompOrigin in a base case"));
                };
                // Resolve the origin component.
                let comp: &SymComp = match origin {
                    CompOriginRef::Sender => sender,
                    CompOriginRef::Lookup { index } => {
                        let mut found = None;
                        let mut li = 0;
                        for kind in &path.cond_kinds {
                            if let CondKind::LookupPred { comp } = kind {
                                if li == *index {
                                    found = Some(comp);
                                    break;
                                }
                                li += 1;
                            }
                        }
                        let Some(c) = found else {
                            return Err(reject(&octx, "dangling lookup origin index"));
                        };
                        // A same-exchange spawn of this type would break
                        // the ordering argument.
                        if actions.iter().any(
                            |a| matches!(a, SymAction::Spawn { comp: s } if s.ctype == c.ctype),
                        ) {
                            return Err(reject(
                                &octx,
                                "lookup origin invalid: same-type spawn in this exchange",
                            ));
                        }
                        c
                    }
                };
                let Some(lemma_id) = lemma_id else {
                    // Direct discharge: the obligation must be a spawn
                    // pattern the origin component provably matches.
                    match reflex_symbolic::unify_action(
                        tp.obligation(),
                        &SymAction::Spawn { comp: comp.clone() },
                        &inst.bindings,
                    ) {
                        reflex_symbolic::Unify::Match { conditions, .. }
                            if conds_entailed(&solver, &conditions) =>
                        {
                            continue;
                        }
                        _ => {
                            return Err(reject(
                                &octx,
                                "origin component does not match the spawn obligation",
                            ))
                        }
                    }
                };
                let Some(lemma) = cert.lemmas.get(*lemma_id) else {
                    return Err(reject(&octx, "dangling lemma id"));
                };
                // The lemma's spawn pattern must pin the origin component.
                let ActionPat::Spawn {
                    comp:
                        reflex_ast::CompPat {
                            ctype: Some(pat_ctype),
                            config: Some(fields),
                        },
                } = &lemma.b
                else {
                    return Err(reject(
                        &octx,
                        "lemma trigger is not a concrete spawn pattern",
                    ));
                };
                if *pat_ctype != comp.ctype || fields.len() != comp.config.len() {
                    return Err(reject(&octx, "lemma spawn pattern does not fit the origin"));
                }
                for (field, cfg_term) in fields.iter().zip(&comp.config) {
                    match field {
                        reflex_ast::PatField::Any => {}
                        reflex_ast::PatField::Lit(val) => {
                            let lit = Term::Lit(val.clone());
                            if !solver.entails_equal(cfg_term, &lit) {
                                return Err(reject(
                                    &octx,
                                    "origin configuration does not match the lemma literal",
                                ));
                            }
                        }
                        reflex_ast::PatField::Var(v) => {
                            let Some(bound) = inst.bindings.get(v) else {
                                return Err(reject(
                                    &octx,
                                    format!("lemma variable `{v}` unbound at the obligation"),
                                ));
                            };
                            if bound != cfg_term && !solver.entails_equal(bound, cfg_term) {
                                return Err(reject(
                                    &octx,
                                    format!(
                                        "binding of `{v}` is not provably the origin's \
                                         configuration field"
                                    ),
                                ));
                            }
                        }
                    }
                }
                // The lemma's conclusion must be exactly the (specialized)
                // obligation.
                let expected = specialize_pattern(tp.obligation(), &inst.bindings);
                if lemma.a != expected {
                    return Err(reject(
                        &octx,
                        format!(
                            "lemma proves `{}` but the obligation needs `{expected}`",
                            lemma.a
                        ),
                    ));
                }
            }
        }
        // Silence unused warning for forall_ty in release config — it is
        // used below through check_invariant_applies indirectly.
        let _ = forall_ty;
    }
    Ok(())
}

/// Verifies that invariant `inv_id` discharges this obligation: right
/// polarity, exactly the specialized obligation pattern, and a guard whose
/// instantiation (pre-state + the trigger's bindings) is entailed.
#[allow(clippy::too_many_arguments)]
fn check_invariant_applies(
    cert: &TraceCert,
    inv_id: usize,
    positive: bool,
    obligation: &ActionPat,
    inst: &crate::shared::TriggerInstance,
    solver: &Solver,
    pre: &SymState,
    ctx: &str,
) -> Result<(), CheckError> {
    let Some(inv) = cert.invariants.get(inv_id) else {
        return Err(reject(ctx, format!("dangling invariant id {inv_id}")));
    };
    if inv.positive != positive {
        return Err(reject(ctx, "invariant has the wrong polarity"));
    }
    let expected = specialize_pattern(obligation, &inst.bindings);
    if inv.pattern != expected {
        return Err(reject(
            ctx,
            format!(
                "invariant pattern `{}` does not match the obligation `{expected}`",
                inv.pattern
            ),
        ));
    }
    let binding = |v: &str| inst.bindings.get(v).cloned();
    let guard_inst = inv.guard.instantiate_with(pre, &binding);
    if !conds_entailed(solver, &guard_inst) {
        return Err(reject(
            ctx,
            format!(
                "the invariant guard `{}` is not entailed at this obligation",
                inv.guard
            ),
        ));
    }
    // For a positive invariant, its conclusion must pin every pattern
    // variable the obligation needs: each pattern variable must be bound
    // by the trigger instance (which `specialize_pattern` + binding
    // entailment connect to the invariant's quantifiers).
    if positive {
        for v in inv.pattern.vars() {
            if inst.bindings.get(&v).is_none() {
                return Err(reject(
                    ctx,
                    format!("pattern variable `{v}` is unbound at the obligation"),
                ));
            }
        }
    }
    Ok(())
}

/// Validates one auxiliary invariant's induction.
fn check_invariant(
    checked: &CheckedProgram,
    abs: &Abstraction<'_>,
    cert: &TraceCert,
    id: usize,
    inv: &InvariantCert,
    _options: &ProverOptions,
) -> Result<(), CheckError> {
    let ctx0 = format!("invariant #{id} ({inv})");
    let mut sigma0 = SymBindings::new();
    for (v, ty) in &inv.vars {
        sigma0.insert(v.clone(), prop_term(v, *ty));
    }
    // Every guard/pattern property variable must be quantified.
    for v in inv.guard.prop_vars().into_iter().chain(inv.pattern.vars()) {
        if !inv.vars.iter().any(|(n, _)| *n == v) {
            return Err(reject(&ctx0, format!("unquantified variable `{v}`")));
        }
    }

    // Base cases.
    if inv.base.len() != abs.worlds().len() {
        return Err(reject(&ctx0, "wrong number of base cases"));
    }
    for (wi, (world, just)) in abs.worlds().iter().zip(&inv.base).enumerate() {
        let ctx = format!("{ctx0}, base {wi}");
        let post = inv.guard.instantiate(&world.init.state);
        let mut solver = Solver::with_assumptions(world.init.condition.iter().chain(post.iter()));
        let actions: Vec<&SymAction> = world.init.actions.iter().collect();
        match just {
            InvPathJust::GuardUnsat => {
                if !solver.is_unsat() {
                    return Err(reject(&ctx, "claimed GuardUnsat is satisfiable"));
                }
            }
            InvPathJust::Witness { index } => {
                if !inv.positive {
                    return Err(reject(&ctx, "witness in a negative invariant"));
                }
                if *index >= actions.len()
                    || !definite_match(&solver, &inv.pattern, actions[*index], &sigma0)
                {
                    return Err(reject(&ctx, "claimed base witness does not match"));
                }
            }
            InvPathJust::NegativeOk {
                prior: NegPriorStep::EmptyTrace,
            } => {
                if inv.positive {
                    return Err(reject(&ctx, "NegativeOk in a positive invariant"));
                }
                for (j, act) in actions.iter().enumerate() {
                    if !definite_no_match(&solver, &inv.pattern, act, &sigma0) {
                        return Err(reject(&ctx, format!("init action #{j} may match")));
                    }
                }
            }
            other => {
                return Err(reject(
                    &ctx,
                    format!("illegal base justification {other:?}"),
                ))
            }
        }
    }

    // Inductive cases.
    let expected_cases: usize = abs.worlds().iter().map(|w| w.exchanges.len()).sum();
    if inv.cases.len() != expected_cases {
        return Err(reject(&ctx0, "wrong number of inductive cases"));
    }
    let guard_state_vars: Vec<String> = {
        let mut out = Vec::new();
        for (t, _) in &inv.guard.atoms {
            let mut syms = Vec::new();
            t.collect_syms(&mut syms);
            for s in syms {
                if let reflex_symbolic::SymKind::StateVar(n) = s.kind {
                    if !out.contains(&n) {
                        out.push(n);
                    }
                }
            }
        }
        out
    };
    let mut case_iter = inv.cases.iter();
    for (wi, world) in abs.worlds().iter().enumerate() {
        for exchange in &world.exchanges {
            let case = case_iter.next().expect("length checked");
            let ctx = format!(
                "{ctx0}, world {wi}, case {}:{}",
                exchange.ctype, exchange.msg
            );
            if case.ctype != exchange.ctype || case.msg != exchange.msg {
                return Err(reject(&ctx, "case order mismatch"));
            }
            if case.skipped {
                let emits =
                    case_can_emit_match(checked, &exchange.ctype, &exchange.msg, &inv.pattern);
                let assigns = checked
                    .program()
                    .handler(&exchange.ctype, &exchange.msg)
                    .map(|h| {
                        h.body
                            .assigned_vars()
                            .iter()
                            .any(|v| guard_state_vars.contains(v))
                    })
                    .unwrap_or(false);
                if emits || assigns {
                    return Err(reject(&ctx, "claimed skip is not justified"));
                }
                continue;
            }
            if case.paths.len() != exchange.paths.len() {
                return Err(reject(&ctx, "wrong number of path justifications"));
            }
            for (pi, (path, just)) in exchange.paths.iter().zip(&case.paths).enumerate() {
                let pctx = format!("{ctx}, path {pi}");
                let post = inv.guard.instantiate(&path.state);
                let phi: Vec<(Term, bool)> = world
                    .range_assumptions
                    .iter()
                    .cloned()
                    .chain(path.condition.iter().cloned())
                    .chain(post.iter().cloned())
                    .collect();
                let mut solver = Solver::with_assumptions(&phi);
                let pre_atoms = inv.guard.instantiate(&world.pre);
                let actions = exchange.appended_actions(path);
                match just {
                    InvPathJust::GuardUnsat => {
                        if !solver.is_unsat() {
                            return Err(reject(&pctx, "claimed GuardUnsat is satisfiable"));
                        }
                    }
                    InvPathJust::Preserved => {
                        if !inv.positive {
                            return Err(reject(&pctx, "Preserved in a negative invariant"));
                        }
                        if !conds_entailed(&solver, &pre_atoms) {
                            return Err(reject(&pctx, "guard not entailed in the pre-state"));
                        }
                    }
                    InvPathJust::Witness { index } => {
                        if !inv.positive {
                            return Err(reject(&pctx, "witness in a negative invariant"));
                        }
                        if *index >= actions.len()
                            || !definite_match(&solver, &inv.pattern, actions[*index], &sigma0)
                        {
                            return Err(reject(&pctx, "claimed witness does not match"));
                        }
                    }
                    InvPathJust::ViaInvariant { inv_id } => {
                        if !inv.positive {
                            return Err(reject(&pctx, "ViaInvariant in a negative invariant"));
                        }
                        check_invariant_chain(
                            cert, id, *inv_id, inv, &solver, &world.pre, &pctx, true,
                        )?;
                    }
                    InvPathJust::NegativeOk { prior } => {
                        if inv.positive {
                            return Err(reject(&pctx, "NegativeOk in a positive invariant"));
                        }
                        for (j, act) in actions.iter().enumerate() {
                            if !definite_no_match(&solver, &inv.pattern, act, &sigma0) {
                                return Err(reject(
                                    &pctx,
                                    format!("appended action #{j} may match"),
                                ));
                            }
                        }
                        match prior {
                            NegPriorStep::Ih => {
                                if !conds_entailed(&solver, &pre_atoms) {
                                    return Err(reject(
                                        &pctx,
                                        "IH claimed but guard not entailed in the pre-state",
                                    ));
                                }
                            }
                            NegPriorStep::Invariant { inv_id } => {
                                check_invariant_chain(
                                    cert, id, *inv_id, inv, &solver, &world.pre, &pctx, false,
                                )?;
                            }
                            NegPriorStep::EmptyTrace => {
                                return Err(reject(&pctx, "EmptyTrace prior in an inductive case"))
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Verifies a chained invariant reference inside another invariant's
/// induction: backward reference, same pattern and polarity, guard
/// entailed at the pre-state (canonical property variables are shared).
#[allow(clippy::too_many_arguments)]
fn check_invariant_chain(
    cert: &TraceCert,
    current_id: usize,
    target_id: usize,
    inv: &InvariantCert,
    solver: &Solver,
    pre: &SymState,
    ctx: &str,
    positive: bool,
) -> Result<(), CheckError> {
    if target_id >= current_id {
        return Err(reject(
            ctx,
            format!("invariant #{current_id} references non-prior invariant #{target_id}"),
        ));
    }
    let target = &cert.invariants[target_id];
    if target.positive != positive {
        return Err(reject(ctx, "chained invariant has the wrong polarity"));
    }
    if target.pattern != inv.pattern {
        return Err(reject(ctx, "chained invariant proves a different pattern"));
    }
    let guard_inst = target.guard.instantiate(pre);
    if !conds_entailed(solver, &guard_inst) {
        return Err(reject(
            ctx,
            format!(
                "chained guard `{}` not entailed in the pre-state",
                target.guard
            ),
        ));
    }
    Ok(())
}
