//! Automatic proof search for trace properties (paper §5.1).
//!
//! The proof is an induction over the behavioral abstraction `BehAbs`:
//!
//! * **base case** — the property holds on every init trace;
//! * **inductive step** — for every `(component type, message type)`
//!   exchange and every symbolic path of its handler, assuming the property
//!   held before the exchange, it holds after.
//!
//! Each *trigger instance* (an appended action that may match the
//! property's trigger pattern) yields one obligation, discharged by:
//!
//! 1. **refutation** — the match's side conditions contradict the path
//!    condition;
//! 2. **a local witness** — the required action occurs inside the same
//!    exchange at the right position;
//! 3. **an auxiliary invariant** (for `Enables`/`Disables`) — a guard over
//!    kernel state variables, extracted from the branch conditions of the
//!    path, that implies the presence (resp. absence) of the required
//!    action in the prior trace. Invariants are proved by a *secondary
//!    induction* which may recursively require further invariants — the
//!    paper's "adding branch conditions to the context is crucial"
//!    mechanism, generalized into a depth-bounded chain.

use std::collections::BTreeMap;
use std::collections::HashMap;

use reflex_ast::{ActionPat, CompPat, PatField, PropertyDecl, TraceProp, TracePropKind, Ty};
use reflex_symbolic::{CondKind, Path, Solver, SymAction, SymBindings, SymComp, Term};

use crate::abstraction::{Abstraction, World};
use crate::cache::{InvariantPackage, LemmaPackage, ProofCache, SharedInvKey, SharedLemmaKey};
use crate::canon::{
    canonicalize_state_term, flatten_literals, generalize_literal, prop_term, weaken_guard, Guard,
};
use crate::certificate::{
    CaseCert, Certificate, CompOriginRef, InvCaseCert, InvPathJust, InvariantCert, Justification,
    LemmaCert, NegPrior, NegPriorStep, PathCert, TraceCert,
};
use crate::options::{Outcome, ProofFailure, ProverOptions};
use crate::shared::{
    case_can_emit_match, conds_refuted, definite_match, definite_no_match, specialize_pattern,
    trigger_instances, TriggerInstance,
};

type InvKey = (Guard, ActionPat, bool);

#[derive(Debug, Clone, Copy)]
enum CacheEntry {
    InProgress,
    Proved(usize),
    Failed,
}

/// Maximum nesting of component-origin lemmas.
const MAX_LEMMA_DEPTH: usize = 2;

/// One trigger obligation of a path segment: already refuted, or open with
/// the solver context under which it must be justified.
// `Open` is the variant that matters and these never outlive one segment
// walk; boxing it would add an allocation per obligation for nothing.
#[allow(clippy::large_enum_variant)]
enum ObligationCtx {
    Refuted {
        index: usize,
    },
    Open {
        inst: TriggerInstance,
        solver: Solver,
        all_conds: Vec<(Term, bool)>,
    },
}

/// Proves one trace property over the program abstraction, sharing
/// subproofs through `shared` when one is supplied.
pub fn prove_trace(
    abs: &Abstraction<'_>,
    options: &ProverOptions,
    prop: &PropertyDecl,
    tp: &TraceProp,
    shared: Option<&ProofCache>,
) -> Outcome {
    // Chaos hook: deliberately crash this proof task so the session-level
    // panic isolation can be exercised end to end. Compiled out unless the
    // `panic-injection` feature is on; inert unless the option names this
    // property. Fires before any lock is taken, so sibling properties
    // sharing the ProofCache are unaffected.
    #[cfg(feature = "panic-injection")]
    if options.panic_armed(&prop.name) {
        panic!("injected panic for `{}`", prop.name);
    }
    match prove_trace_inner(abs, options, prop, tp, 0, shared) {
        Ok(cert) => Outcome::Proved(Certificate::Trace(cert)),
        Err(failure) => Outcome::Failed(failure),
    }
}

/// Re-proves only the `dirty` `(ctype, msg)` cases of `prior`, splicing the
/// prior base and clean-case justifications — the middle rung of the
/// incremental reuse ladder (full reuse → per-case reuse → re-prove).
///
/// # Preconditions (established by the planner, enforced by the checker)
///
/// The caller guarantees that, relative to the program `prior` was proved
/// over: the declaration group, the property, and the range assumptions are
/// unchanged; `prior` has no auxiliary invariants or lemmas (its clean-case
/// justifications are then facts about those cases alone); and every case
/// *not* in `dirty` has an unchanged handler (or is a still-valid
/// syntactic skip). Under those conditions the spliced certificate is
/// byte-identical to a from-scratch proof: local justifications are
/// deterministic per-case functions, clean local cases contribute nothing
/// to the prover's invariant/lemma state, and dirty cases are visited in
/// the same global order a from-scratch run would visit them.
///
/// If the structure does not line up after all (planner bug, fingerprint
/// collision), the result simply fails [`crate::check_certificate`] or
/// differs from the scratch proof — soundness never rests on this path.
pub(crate) fn prove_trace_partial(
    abs: &Abstraction<'_>,
    options: &ProverOptions,
    prop: &PropertyDecl,
    tp: &TraceProp,
    shared: Option<&ProofCache>,
    prior: &TraceCert,
    dirty: &std::collections::BTreeSet<(String, String)>,
) -> Outcome {
    let expected: usize = abs.worlds().iter().map(|w| w.exchanges.len()).sum();
    if prior.cases.len() != expected || prior.base.len() != abs.worlds().len() {
        // Structure drifted: partial splicing is meaningless; fall back to
        // a full proof.
        return prove_trace(abs, options, prop, tp, shared);
    }
    let mut prover = TraceProver {
        abs,
        options,
        prop,
        tp,
        invariants: Vec::new(),
        cache: HashMap::new(),
        lemmas: Vec::new(),
        lemma_cache: HashMap::new(),
        lemma_depth: 0,
        shared,
    };
    let trigger = tp.trigger().clone();
    let mut cases = Vec::with_capacity(expected);
    let mut flat = 0usize;
    for wi in 0..abs.worlds().len() {
        for ei in 0..abs.worlds()[wi].exchanges.len() {
            let exchange = &abs.worlds()[wi].exchanges[ei];
            let key = (exchange.ctype.clone(), exchange.msg.clone());
            if dirty.contains(&key) {
                match prover.prove_case_serial(wi, ei, &trigger) {
                    Ok(case) => cases.push(case),
                    Err(failure) => return Outcome::Failed(failure),
                }
            } else {
                cases.push(prior.cases[flat].clone());
            }
            flat += 1;
        }
    }
    Outcome::Proved(Certificate::Trace(TraceCert {
        property: prop.name.clone(),
        base: prior.base.clone(),
        cases,
        invariants: prover.invariants,
        lemmas: prover.lemmas,
        deps: Default::default(),
    }))
}

/// The outcome of preparing a trace property for cross-property
/// obligation scheduling (see `oblig.rs`).
// `Prepared` is the common case and lives only for one prove call;
// boxing it would cost an allocation per property for nothing.
#[allow(clippy::large_enum_variant)]
pub(crate) enum TracePrep<'a, 'p> {
    /// Witness-only kind with a proved base: the inductive cases are
    /// independent pure obligations ready for the scheduler.
    Prepared(PreparedTrace<'a, 'p>),
    /// `Enables`/`Disables` extend the invariant and lemma tables as they
    /// go, which fixes a global visit order — the property must run whole.
    NotSchedulable,
    /// A base case already failed; no inductive obligations to schedule.
    Failed(ProofFailure),
}

/// A witness-only trace property (`ImmBefore`/`ImmAfter`/`Ensures`) with
/// its base cases proved and its inductive cases enumerated as independent
/// obligations. Each obligation is a pure `&self` function of the
/// abstraction, so a work-stealing scheduler may interleave them freely
/// with other properties' obligations; [`PreparedTrace::assemble`] then
/// rebuilds exactly the certificate (or the first-in-case-order failure)
/// that the serial prover would have produced.
pub(crate) struct PreparedTrace<'a, 'p> {
    prover: TraceProver<'a, 'p>,
    trigger: ActionPat,
    base: Vec<PathCert>,
    /// Flat `(world, exchange)` indices in serial visit order.
    units: Vec<(usize, usize)>,
}

/// Prepares one trace property for obligation-level scheduling: runs the
/// base cases (serially, as `prove` would) and enumerates the inductive
/// cases. Mirrors the entry sequence of [`prove_trace`], including the
/// chaos panic hook.
pub(crate) fn prepare_trace<'a, 'p>(
    abs: &'a Abstraction<'p>,
    options: &'a ProverOptions,
    prop: &'a PropertyDecl,
    tp: &'a TraceProp,
    shared: Option<&'a ProofCache>,
) -> TracePrep<'a, 'p> {
    #[cfg(feature = "panic-injection")]
    if options.panic_armed(&prop.name) {
        panic!("injected panic for `{}`", prop.name);
    }
    let pure_kind = matches!(
        tp.kind,
        TracePropKind::ImmBefore | TracePropKind::ImmAfter | TracePropKind::Ensures
    );
    if !pure_kind {
        return TracePrep::NotSchedulable;
    }
    let mut prover = TraceProver {
        abs,
        options,
        prop,
        tp,
        invariants: Vec::new(),
        cache: HashMap::new(),
        lemmas: Vec::new(),
        lemma_cache: HashMap::new(),
        lemma_depth: 0,
        shared,
    };
    let mut base = Vec::new();
    for (wi, world) in abs.worlds().iter().enumerate() {
        let location = format!("init path {wi}");
        if let Err(e) = crate::budget::tick_path(options, &location) {
            return TracePrep::Failed(e);
        }
        let actions: Vec<&SymAction> = world.init.actions.iter().collect();
        match prover.check_actions(&actions, &world.init.condition, None, &location) {
            Ok(cert) => base.push(cert),
            Err(e) => return TracePrep::Failed(e),
        }
    }
    let trigger = tp.trigger().clone();
    let units: Vec<(usize, usize)> = abs
        .worlds()
        .iter()
        .enumerate()
        .flat_map(|(wi, world)| (0..world.exchanges.len()).map(move |ei| (wi, ei)))
        .collect();
    TracePrep::Prepared(PreparedTrace {
        prover,
        trigger,
        base,
        units,
    })
}

impl<'a, 'p> PreparedTrace<'a, 'p> {
    /// Number of schedulable inductive obligations.
    pub(crate) fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// Discharges obligation `u` (pure; callable from any worker).
    pub(crate) fn run_unit(&self, u: usize) -> Result<CaseCert, ProofFailure> {
        let (wi, ei) = self.units[u];
        let exchange = &self.prover.abs.worlds()[wi].exchanges[ei];
        self.prover
            .check_case_witness_only(wi, exchange, &self.trigger)
    }

    /// Rebuilds the serial result from the per-obligation results (in unit
    /// order): the first failure in case order, or the full certificate.
    pub(crate) fn assemble(self, cases: Vec<Result<CaseCert, ProofFailure>>) -> Outcome {
        match cases.into_iter().collect::<Result<Vec<_>, _>>() {
            Err(failure) => Outcome::Failed(failure),
            Ok(cases) => Outcome::Proved(Certificate::Trace(TraceCert {
                property: self.prover.prop.name.clone(),
                base: self.base,
                cases,
                invariants: self.prover.invariants,
                lemmas: self.prover.lemmas,
                deps: Default::default(),
            })),
        }
    }
}

fn prove_trace_inner(
    abs: &Abstraction<'_>,
    options: &ProverOptions,
    prop: &PropertyDecl,
    tp: &TraceProp,
    lemma_depth: usize,
    shared: Option<&ProofCache>,
) -> Result<TraceCert, ProofFailure> {
    let prover = TraceProver {
        abs,
        options,
        prop,
        tp,
        invariants: Vec::new(),
        cache: HashMap::new(),
        lemmas: Vec::new(),
        lemma_cache: HashMap::new(),
        lemma_depth,
        shared,
    };
    prover.prove()
}

struct TraceProver<'a, 'p> {
    abs: &'a Abstraction<'p>,
    options: &'a ProverOptions,
    prop: &'a PropertyDecl,
    tp: &'a TraceProp,
    invariants: Vec<InvariantCert>,
    cache: HashMap<InvKey, CacheEntry>,
    lemmas: Vec<LemmaCert>,
    lemma_cache: HashMap<(ActionPat, ActionPat), Option<usize>>,
    lemma_depth: usize,
    /// Cross-property proof cache; `None` inside package computations (see
    /// `cache.rs` for why packages must be computed detached).
    shared: Option<&'a ProofCache>,
}

impl<'a, 'p> TraceProver<'a, 'p> {
    fn fail(&self, location: impl Into<String>, reason: impl Into<String>) -> ProofFailure {
        ProofFailure {
            location: location.into(),
            reason: reason.into(),
        }
    }

    fn forall_ty(&self, var: &str) -> Ty {
        self.prop.forall_ty(var).unwrap_or(Ty::Str)
    }

    fn prove(mut self) -> Result<TraceCert, ProofFailure> {
        let mut base = Vec::new();
        for (wi, world) in self.abs.worlds().iter().enumerate() {
            let location = format!("init path {wi}");
            crate::budget::tick_path(self.options, &location)?;
            let actions: Vec<&SymAction> = world.init.actions.iter().collect();
            base.push(self.check_actions(&actions, &world.init.condition, None, &location)?);
        }
        let trigger = self.tp.trigger().clone();
        let cases = self.prove_cases_serial(&trigger)?;
        Ok(TraceCert {
            property: self.prop.name.clone(),
            base,
            cases,
            invariants: self.invariants,
            lemmas: self.lemmas,
            deps: Default::default(),
        })
    }

    fn prove_cases_serial(&mut self, trigger: &ActionPat) -> Result<Vec<CaseCert>, ProofFailure> {
        let mut cases = Vec::new();
        for wi in 0..self.abs.worlds().len() {
            for ei in 0..self.abs.worlds()[wi].exchanges.len() {
                let case = self.prove_case_serial(wi, ei, trigger)?;
                cases.push(case);
            }
        }
        Ok(cases)
    }

    /// Proves one inductive case (the serial path; may extend the invariant
    /// and lemma tables).
    fn prove_case_serial(
        &mut self,
        wi: usize,
        ei: usize,
        trigger: &ActionPat,
    ) -> Result<CaseCert, ProofFailure> {
        let world = &self.abs.worlds()[wi];
        let exchange = &world.exchanges[ei];
        if self.options.syntactic_skip
            && !case_can_emit_match(self.abs.checked(), &exchange.ctype, &exchange.msg, trigger)
        {
            return Ok(CaseCert {
                ctype: exchange.ctype.clone(),
                msg: exchange.msg.clone(),
                skipped: true,
                paths: Vec::new(),
            });
        }
        let mut paths = Vec::new();
        for (pi, path) in exchange.paths.iter().enumerate() {
            let location = format!(
                "world {wi}, case {}:{}, path {pi}",
                exchange.ctype, exchange.msg
            );
            crate::budget::tick_path(self.options, &location)?;
            let actions = exchange.appended_actions(path);
            // Inductive steps may assume the interval invariants of
            // the pre-state (they hold in every reachable state).
            let conditions: Vec<(Term, bool)> = world
                .range_assumptions
                .iter()
                .chain(path.condition.iter())
                .cloned()
                .collect();
            paths.push(self.check_actions(
                &actions,
                &conditions,
                Some((&exchange.sender, path)),
                &location,
            )?);
        }
        Ok(CaseCert {
            ctype: exchange.ctype.clone(),
            msg: exchange.msg.clone(),
            skipped: false,
            paths,
        })
    }

    /// One inductive case of a witness-only property (an obligation of
    /// [`PreparedTrace`]; takes `&self` because these justifications never
    /// extend the invariant/lemma tables).
    fn check_case_witness_only(
        &self,
        wi: usize,
        exchange: &reflex_symbolic::Exchange,
        trigger: &ActionPat,
    ) -> Result<CaseCert, ProofFailure> {
        if self.options.syntactic_skip
            && !case_can_emit_match(self.abs.checked(), &exchange.ctype, &exchange.msg, trigger)
        {
            return Ok(CaseCert {
                ctype: exchange.ctype.clone(),
                msg: exchange.msg.clone(),
                skipped: true,
                paths: Vec::new(),
            });
        }
        let world = &self.abs.worlds()[wi];
        let mut paths = Vec::new();
        for (pi, path) in exchange.paths.iter().enumerate() {
            let location = format!(
                "world {wi}, case {}:{}, path {pi}",
                exchange.ctype, exchange.msg
            );
            crate::budget::tick_path(self.options, &location)?;
            let actions = exchange.appended_actions(path);
            let conditions: Vec<(Term, bool)> = world
                .range_assumptions
                .iter()
                .chain(path.condition.iter())
                .cloned()
                .collect();
            paths.push(self.check_actions_witness_only(&actions, &conditions, &location)?);
        }
        Ok(CaseCert {
            ctype: exchange.ctype.clone(),
            msg: exchange.msg.clone(),
            skipped: false,
            paths,
        })
    }

    /// Enumerates the trigger obligations of one appended-action segment:
    /// each trigger instance is either refuted (side conditions contradict
    /// the path condition) or open, carrying the solver context extended
    /// with its side conditions. Shared by the whole-property and
    /// obligation-split paths.
    fn obligation_contexts(
        &self,
        actions: &[&SymAction],
        conditions: &[(Term, bool)],
    ) -> Vec<ObligationCtx> {
        let trigger = self.tp.trigger().clone();
        let solver0 = Solver::with_assumptions(conditions);
        let mut out = Vec::new();
        let insts = trigger_instances(&trigger, actions, &SymBindings::new());
        for inst in insts {
            if conds_refuted(&solver0, &inst.conds) {
                out.push(ObligationCtx::Refuted { index: inst.index });
                continue;
            }
            // The obligation only needs to hold in runs where the trigger
            // actually matches: case-split by assuming the side conditions.
            let mut solver = solver0.clone();
            for (t, pol) in &inst.conds {
                solver.assert_term(t.clone(), *pol);
            }
            if solver.is_unsat() {
                out.push(ObligationCtx::Refuted { index: inst.index });
                continue;
            }
            let all_conds: Vec<(Term, bool)> = conditions
                .iter()
                .cloned()
                .chain(inst.conds.iter().cloned())
                .collect();
            out.push(ObligationCtx::Open {
                inst,
                solver,
                all_conds,
            });
        }
        out
    }

    /// Checks every trigger obligation over one appended-action segment.
    fn check_actions(
        &mut self,
        actions: &[&SymAction],
        conditions: &[(Term, bool)],
        exchange_ctx: Option<(&SymComp, &Path)>,
        location: &str,
    ) -> Result<PathCert, ProofFailure> {
        let mut obligations = Vec::new();
        for ctx in self.obligation_contexts(actions, conditions) {
            match ctx {
                ObligationCtx::Refuted { index } => {
                    obligations.push((index, Justification::Refuted));
                }
                ObligationCtx::Open {
                    inst,
                    solver,
                    all_conds,
                } => {
                    let just = match self.tp.kind {
                        TracePropKind::Enables => self.justify_enables(
                            actions,
                            &inst,
                            &solver,
                            &all_conds,
                            exchange_ctx,
                            location,
                        )?,
                        TracePropKind::Disables => self.justify_disables(
                            actions,
                            &inst,
                            &solver,
                            &all_conds,
                            exchange_ctx,
                            location,
                        )?,
                        TracePropKind::ImmBefore => {
                            self.justify_imm_before(actions, &inst, &solver, location)?
                        }
                        TracePropKind::ImmAfter => {
                            self.justify_imm_after(actions, &inst, &solver, location)?
                        }
                        TracePropKind::Ensures => {
                            self.justify_ensures(actions, &inst, &solver, location)?
                        }
                    };
                    obligations.push((inst.index, just));
                }
            }
        }
        Ok(PathCert { obligations })
    }

    /// `check_actions` restricted to the witness-only kinds, so it can run
    /// on worker threads with `&self`.
    fn check_actions_witness_only(
        &self,
        actions: &[&SymAction],
        conditions: &[(Term, bool)],
        location: &str,
    ) -> Result<PathCert, ProofFailure> {
        let mut obligations = Vec::new();
        for ctx in self.obligation_contexts(actions, conditions) {
            match ctx {
                ObligationCtx::Refuted { index } => {
                    obligations.push((index, Justification::Refuted));
                }
                ObligationCtx::Open { inst, solver, .. } => {
                    let just = match self.tp.kind {
                        TracePropKind::ImmBefore => {
                            self.justify_imm_before(actions, &inst, &solver, location)?
                        }
                        TracePropKind::ImmAfter => {
                            self.justify_imm_after(actions, &inst, &solver, location)?
                        }
                        TracePropKind::Ensures => {
                            self.justify_ensures(actions, &inst, &solver, location)?
                        }
                        TracePropKind::Enables | TracePropKind::Disables => {
                            unreachable!("witness-only path never sees Enables/Disables")
                        }
                    };
                    obligations.push((inst.index, just));
                }
            }
        }
        Ok(PathCert { obligations })
    }

    fn justify_enables(
        &mut self,
        actions: &[&SymAction],
        inst: &TriggerInstance,
        solver: &Solver,
        all_conds: &[(Term, bool)],
        exchange_ctx: Option<(&SymComp, &Path)>,
        location: &str,
    ) -> Result<Justification, ProofFailure> {
        let obligation = self.tp.obligation().clone();
        for (j, action) in actions.iter().enumerate().take(inst.index) {
            if definite_match(solver, &obligation, action, &inst.bindings) {
                return Ok(Justification::Witness { index: j });
            }
        }
        let Some((sender, path)) = exchange_ctx else {
            return Err(self.fail(
                location,
                format!(
                    "init emits [{}] (action #{}) without a prior [{}]",
                    self.tp.trigger(),
                    inst.index,
                    obligation
                ),
            ));
        };
        let inv_result =
            self.invariant_from_obligation(&obligation, inst, all_conds, true, location);
        let inv_err = match inv_result {
            Ok(inv_id) => return Ok(Justification::Invariant { inv_id }),
            Err(e) => e,
        };
        // Fallback: the obligation variables may be pinned to the
        // configuration of an existing component (the sender or a looked-up
        // component), whose Spawn is in the prior trace; a lemma shows such
        // spawns are always preceded by the required action.
        match self.justify_via_comp_origin(
            actions,
            inst,
            solver,
            sender,
            path,
            &obligation,
            location,
        ) {
            Ok(Some(just)) => Ok(just),
            Ok(None) | Err(_) => Err(inv_err),
        }
    }

    /// Attempts the component-origin justification; `Ok(None)` means "not
    /// applicable".
    #[allow(clippy::too_many_arguments)]
    fn justify_via_comp_origin(
        &mut self,
        actions: &[&SymAction],
        inst: &TriggerInstance,
        solver: &Solver,
        sender: &SymComp,
        path: &Path,
        obligation: &ActionPat,
        location: &str,
    ) -> Result<Option<Justification>, ProofFailure> {
        if self.lemma_depth >= MAX_LEMMA_DEPTH {
            return Ok(None);
        }
        let pattern = specialize_pattern(obligation, &inst.bindings);
        let free_vars = pattern.vars();
        let mut origins: Vec<(CompOriginRef, &SymComp)> = vec![(CompOriginRef::Sender, sender)];
        let mut li = 0;
        for kind in &path.cond_kinds {
            if let CondKind::LookupPred { comp } = kind {
                origins.push((CompOriginRef::Lookup { index: li }, comp));
                li += 1;
            }
        }
        'origins: for (oref, comp) in origins {
            // Lookup-found components may have been spawned earlier in this
            // same exchange, which would not order the enabling action
            // before the trigger; restrict to cases where no same-type
            // spawn occurs in this exchange.
            if matches!(oref, CompOriginRef::Lookup { .. })
                && actions
                    .iter()
                    .any(|a| matches!(a, SymAction::Spawn { comp: c } if c.ctype == comp.ctype))
            {
                continue;
            }
            // Direct discharge: the obligation is itself a spawn pattern
            // that the origin component provably matches — its own Spawn
            // action (in the prior trace) is the witness.
            if let reflex_symbolic::Unify::Match { conditions, .. } = reflex_symbolic::unify_action(
                obligation,
                &SymAction::Spawn { comp: comp.clone() },
                &inst.bindings,
            ) {
                if crate::shared::conds_entailed(solver, &conditions) {
                    return Ok(Some(Justification::ViaCompOrigin {
                        origin: oref,
                        lemma_id: None,
                    }));
                }
            }
            // Build the spawn pattern: each configuration field pinned to a
            // bound variable the solver proves equal to it.
            let mut fields = Vec::with_capacity(comp.config.len());
            let mut covered: Vec<String> = Vec::new();
            for cfg_term in &comp.config {
                let hit = inst
                    .bindings
                    .iter()
                    .find(|(_, t)| *t == cfg_term || solver.entails_equal(t, cfg_term));
                match hit {
                    Some((v, _)) => {
                        fields.push(PatField::var(v));
                        covered.push(v.to_owned());
                    }
                    None => fields.push(PatField::Any),
                }
            }
            for v in &free_vars {
                if !covered.contains(v) {
                    continue 'origins; // this origin does not pin everything
                }
            }
            let spawn_pat = ActionPat::Spawn {
                comp: CompPat {
                    ctype: Some(comp.ctype.clone()),
                    config: Some(fields),
                },
            };
            if let Some(lemma_id) = self.prove_lemma(&pattern, &spawn_pat, location)? {
                return Ok(Some(Justification::ViaCompOrigin {
                    origin: oref,
                    lemma_id: Some(lemma_id),
                }));
            }
        }
        Ok(None)
    }

    /// Proves (or reuses) the lemma `∀vars, [a] Enables [b]`.
    fn prove_lemma(
        &mut self,
        a: &ActionPat,
        b: &ActionPat,
        location: &str,
    ) -> Result<Option<usize>, ProofFailure> {
        let key = (a.clone(), b.clone());
        if let Some(cached) = self.lemma_cache.get(&key) {
            return Ok(*cached);
        }
        let mut vars: Vec<(String, Ty)> = Vec::new();
        for v in b.vars().into_iter().chain(a.vars()) {
            if !vars.iter().any(|(n, _)| *n == v) {
                vars.push((v.clone(), self.forall_ty(&v)));
            }
        }
        // Property-level lemma requests go through the shared cache; nested
        // lemmas (inside a lemma proof) stay local, exactly as the package
        // computation itself proves them.
        if self.lemma_depth == 0 {
            if let Some(shared) = self.shared {
                let skey: SharedLemmaKey = (vars.clone(), a.clone(), b.clone());
                let pkg = shared.lemma_package(&skey, || {
                    compute_lemma_package(self.abs, self.options, &skey, shared)
                });
                let cached = match &*pkg {
                    Some(lemma) => {
                        self.lemmas.push(lemma.clone());
                        Some(self.lemmas.len() - 1)
                    }
                    None => None,
                };
                self.lemma_cache.insert(key, cached);
                let _ = location;
                return Ok(cached);
            }
        }
        self.lemma_cache.insert(key.clone(), None); // cycle guard
        let lemma_prop = PropertyDecl {
            name: format!("lemma:{a} Enables {b}"),
            forall: vars.clone(),
            body: reflex_ast::PropBody::Trace(TraceProp::new(
                TracePropKind::Enables,
                a.clone(),
                b.clone(),
            )),
        };
        let reflex_ast::PropBody::Trace(lemma_tp) = &lemma_prop.body else {
            unreachable!("constructed as trace property");
        };
        match prove_trace_inner(
            self.abs,
            self.options,
            &lemma_prop,
            lemma_tp,
            self.lemma_depth + 1,
            self.shared,
        ) {
            Ok(cert) => {
                self.lemmas.push(LemmaCert {
                    vars,
                    a: a.clone(),
                    b: b.clone(),
                    cert,
                });
                let id = self.lemmas.len() - 1;
                self.lemma_cache.insert(key, Some(id));
                Ok(Some(id))
            }
            Err(e) => {
                let _ = location;
                let _ = e;
                Ok(None)
            }
        }
    }

    fn justify_disables(
        &mut self,
        actions: &[&SymAction],
        inst: &TriggerInstance,
        solver: &Solver,
        all_conds: &[(Term, bool)],
        exchange_ctx: Option<(&SymComp, &Path)>,
        location: &str,
    ) -> Result<Justification, ProofFailure> {
        let obligation = self.tp.obligation().clone();
        for (j, action) in actions.iter().enumerate().take(inst.index) {
            if !definite_no_match(solver, &obligation, action, &inst.bindings) {
                return Err(self.fail(
                    location,
                    format!(
                        "forbidden [{}] (action #{j}) may precede [{}] (action #{})",
                        obligation,
                        self.tp.trigger(),
                        inst.index
                    ),
                ));
            }
        }
        let Some((_, path)) = exchange_ctx else {
            return Ok(Justification::NoMatch {
                prior: NegPrior::EmptyTrace,
            });
        };
        // A missed lookup covering the forbidden spawn pattern shows the
        // prior trace is clean: components never die, so a prior matching
        // Spawn would have left something for the lookup to find.
        if let Some(li) = missed_lookup_covering(path, &obligation, inst, solver) {
            return Ok(Justification::NoMatch {
                prior: NegPrior::MissedLookup { lookup_index: li },
            });
        }
        let inv_id =
            self.invariant_from_obligation(&obligation, inst, all_conds, false, location)?;
        Ok(Justification::NoMatch {
            prior: NegPrior::Invariant { inv_id },
        })
    }

    fn justify_imm_before(
        &self,
        actions: &[&SymAction],
        inst: &TriggerInstance,
        solver: &Solver,
        location: &str,
    ) -> Result<Justification, ProofFailure> {
        let obligation = self.tp.obligation().clone();
        if inst.index == 0 {
            return Err(self.fail(
                location,
                format!(
                    "[{}] may occur at the start of the exchange, where the \
                     immediately preceding action is unknown",
                    self.tp.trigger()
                ),
            ));
        }
        let j = inst.index - 1;
        if definite_match(solver, &obligation, actions[j], &inst.bindings) {
            Ok(Justification::Witness { index: j })
        } else {
            Err(self.fail(
                location,
                format!(
                    "action immediately before [{}] (action #{}) does not match [{}]",
                    self.tp.trigger(),
                    inst.index,
                    obligation
                ),
            ))
        }
    }

    fn justify_imm_after(
        &self,
        actions: &[&SymAction],
        inst: &TriggerInstance,
        solver: &Solver,
        location: &str,
    ) -> Result<Justification, ProofFailure> {
        let obligation = self.tp.obligation().clone();
        if inst.index + 1 >= actions.len() {
            return Err(self.fail(
                location,
                format!(
                    "[{}] may be the last action of a reachable trace, with no \
                     [{}] after it",
                    self.tp.trigger(),
                    obligation
                ),
            ));
        }
        let j = inst.index + 1;
        if definite_match(solver, &obligation, actions[j], &inst.bindings) {
            Ok(Justification::Witness { index: j })
        } else {
            Err(self.fail(
                location,
                format!(
                    "action immediately after [{}] (action #{}) does not match [{}]",
                    self.tp.trigger(),
                    inst.index,
                    obligation
                ),
            ))
        }
    }

    fn justify_ensures(
        &self,
        actions: &[&SymAction],
        inst: &TriggerInstance,
        solver: &Solver,
        location: &str,
    ) -> Result<Justification, ProofFailure> {
        let obligation = self.tp.obligation().clone();
        for (j, action) in actions.iter().enumerate().skip(inst.index + 1) {
            if definite_match(solver, &obligation, action, &inst.bindings) {
                return Ok(Justification::Witness { index: j });
            }
        }
        Err(self.fail(
            location,
            format!(
                "[{}] (action #{}) is not followed by [{}] within the same \
                 exchange, so a reachable trace violates Ensures",
                self.tp.trigger(),
                inst.index,
                obligation
            ),
        ))
    }

    // ---- invariant synthesis -------------------------------------------

    /// Builds and proves the auxiliary invariant needed to discharge an
    /// `Enables`/`Disables` obligation: generalize the path condition into
    /// a guard over state variables, specialize the obligation pattern
    /// with the literal bindings, and run the secondary induction.
    fn invariant_from_obligation(
        &mut self,
        obligation: &ActionPat,
        inst: &TriggerInstance,
        all_conds: &[(Term, bool)],
        positive: bool,
        location: &str,
    ) -> Result<usize, ProofFailure> {
        // Literal bindings specialize the pattern; symbolic bindings must
        // be generalized through the guard.
        let pattern = specialize_pattern(obligation, &inst.bindings);
        let mut sigma_inverse: BTreeMap<Term, Term> = BTreeMap::new();
        for (v, t) in inst.bindings.iter() {
            if !matches!(t, Term::Lit(_)) {
                sigma_inverse.insert(t.clone(), prop_term(v, self.forall_ty(v)));
            }
        }
        let mut atoms = Vec::new();
        for (t, pol) in flatten_literals(all_conds) {
            if let Some(atom) = generalize_literal(&t, pol, &sigma_inverse) {
                atoms.push(atom);
            }
        }
        // The bindings themselves relate property variables to the kernel
        // state (e.g. `?i == next_id + 1` for a freshly spawned tab id):
        // add each state-expressible binding as a guard atom.
        for (v, t) in inst.bindings.iter() {
            if matches!(t, Term::Lit(_)) {
                continue;
            }
            if let Some(canon) = canonicalize_state_term(t) {
                atoms.push((
                    Term::bin(
                        reflex_ast::BinOp::Eq,
                        prop_term(v, self.forall_ty(v)),
                        canon,
                    ),
                    true,
                ));
            }
        }
        let guard = Guard::new(atoms);

        if positive {
            // A positive invariant must pin every remaining pattern
            // variable, else its conclusion cannot supply the witness.
            let pinned = guard.prop_vars();
            for v in pattern.vars() {
                if !pinned.contains(&v) {
                    return Err(self.fail(
                        location,
                        format!(
                            "cannot relate obligation variable `{v}` (bound to a \
                             handler-local value) to any kernel state variable; \
                             no inductive invariant can be synthesized"
                        ),
                    ));
                }
            }
        }

        let vars = invariant_vars(&guard, &pattern, self.prop);
        // Candidate guards: the exact generalization, and its widened form
        // (equalities with constant offsets weakened to inequalities, which
        // is what monotone-counter invariants need). For negative
        // invariants the widened guard is usually the inductive one, so it
        // goes first; for positive invariants the exact one.
        let mut candidates = vec![guard.clone()];
        if let Some(weak) = weaken_guard(&guard) {
            if positive {
                candidates.push(weak);
            } else {
                candidates.insert(0, weak);
            }
        }
        let mut last_err = None;
        for cand in candidates {
            let vars = if cand == guard {
                vars.clone()
            } else {
                invariant_vars(&cand, &pattern, self.prop)
            };
            if positive && pattern.vars().iter().any(|v| !cand.prop_vars().contains(v)) {
                continue; // widening lost a required pin
            }
            match self.prove_invariant(vars, cand, pattern.clone(), positive, 0, location) {
                Ok(id) => return Ok(id),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err
            .unwrap_or_else(|| self.fail(location, "no invariant candidate could be synthesized")))
    }

    /// Proves (or reuses) the invariant `∀ vars, guard ⇒ (∃/∄) pattern`,
    /// returning its certificate id.
    fn prove_invariant(
        &mut self,
        vars: Vec<(String, Ty)>,
        guard: Guard,
        pattern: ActionPat,
        positive: bool,
        depth: usize,
        location: &str,
    ) -> Result<usize, ProofFailure> {
        let key = (guard.clone(), pattern.clone(), positive);
        match self.cache.get(&key).copied() {
            Some(CacheEntry::Proved(id)) => return Ok(id),
            Some(CacheEntry::InProgress) => {
                return Err(self.fail(
                    location,
                    format!("cyclic invariant dependency on `{guard}`"),
                ))
            }
            Some(CacheEntry::Failed) => {
                return Err(self.fail(
                    location,
                    format!("invariant `{guard}` was already found unprovable"),
                ))
            }
            None => {}
        }
        if depth >= self.options.max_invariant_depth {
            return Err(self.fail(
                location,
                format!(
                    "invariant chain exceeded depth {} at `{guard}`",
                    self.options.max_invariant_depth
                ),
            ));
        }
        if let Some(shared) = self.shared {
            return self.splice_shared_invariant(shared, vars, guard, pattern, positive, location);
        }
        self.cache.insert(key.clone(), CacheEntry::InProgress);
        let result = self.prove_invariant_inner(&vars, &guard, &pattern, positive, depth, location);
        match result {
            Ok(cert) => {
                self.invariants.push(cert);
                let id = self.invariants.len() - 1;
                if self.options.cache_invariants {
                    self.cache.insert(key, CacheEntry::Proved(id));
                } else {
                    // Ablation mode: forget the subproof so future
                    // obligations re-derive it (certificates then contain
                    // duplicate invariants — harmless, just slower).
                    self.cache.remove(&key);
                }
                Ok(id)
            }
            Err(e) => {
                self.cache.insert(key, CacheEntry::Failed);
                Err(e)
            }
        }
    }

    /// Discharges an invariant request from the shared cross-property
    /// cache: fetch (or compute) the self-contained package for the key and
    /// splice its certificate slice into this proof's invariant table,
    /// shifting the package's internal references by the splice offset.
    ///
    /// The package is a pure function of the key (see `cache.rs`), so this
    /// returns exactly what proving the invariant locally from a fresh
    /// context would have — whichever property, on whichever thread, paid
    /// for the computation first.
    fn splice_shared_invariant(
        &mut self,
        shared: &ProofCache,
        vars: Vec<(String, Ty)>,
        guard: Guard,
        pattern: ActionPat,
        positive: bool,
        location: &str,
    ) -> Result<usize, ProofFailure> {
        let skey: SharedInvKey = (vars, guard, pattern, positive);
        let pkg = shared.invariant_package(&skey, || {
            compute_invariant_package(self.abs, self.options, &skey)
        });
        let (_, guard, pattern, positive) = skey;
        match &*pkg {
            Ok(certs) => {
                let base = self.invariants.len();
                for (i, cert) in certs.iter().enumerate() {
                    let mut cert = cert.clone();
                    shift_invariant_refs(&mut cert, base);
                    if self.options.cache_invariants {
                        // Make the package's sub-invariants (root included)
                        // locally reusable; first splice wins on key
                        // collisions between packages — later duplicates
                        // still reference their own copies, so every
                        // certificate link stays valid.
                        self.cache
                            .entry((cert.guard.clone(), cert.pattern.clone(), cert.positive))
                            .or_insert(CacheEntry::Proved(base + i));
                    }
                    self.invariants.push(cert);
                }
                Ok(self.invariants.len() - 1)
            }
            Err(e) => {
                self.cache
                    .insert((guard, pattern, positive), CacheEntry::Failed);
                Err(ProofFailure {
                    location: location.to_owned(),
                    reason: e.reason.clone(),
                })
            }
        }
    }

    fn prove_invariant_inner(
        &mut self,
        vars: &[(String, Ty)],
        guard: &Guard,
        pattern: &ActionPat,
        positive: bool,
        depth: usize,
        location: &str,
    ) -> Result<InvariantCert, ProofFailure> {
        let mut sigma0 = SymBindings::new();
        for (v, ty) in vars {
            sigma0.insert(v.clone(), prop_term(v, *ty));
        }
        let guard_state_vars: Vec<String> = guard_state_vars(guard);

        // Base cases.
        let mut base = Vec::new();
        for (wi, world) in self.abs.worlds().iter().enumerate() {
            crate::budget::tick_path(self.options, location)?;
            let post = guard.instantiate(&world.init.state);
            let mut solver =
                Solver::with_assumptions(world.init.condition.iter().chain(post.iter()));
            if solver.is_unsat() {
                base.push(InvPathJust::GuardUnsat);
                continue;
            }
            let actions: Vec<&SymAction> = world.init.actions.iter().collect();
            if positive {
                let witness = (0..actions.len())
                    .find(|&j| definite_match(&solver, pattern, actions[j], &sigma0));
                match witness {
                    Some(j) => base.push(InvPathJust::Witness { index: j }),
                    None => {
                        return Err(self.fail(
                            location,
                            format!(
                                "invariant `{guard} ⇒ ∃ {pattern}` fails in init \
                                 path {wi}: guard may hold but no matching action \
                                 occurs"
                            ),
                        ))
                    }
                }
            } else {
                if let Some(j) = (0..actions.len())
                    .find(|&j| !definite_no_match(&solver, pattern, actions[j], &sigma0))
                {
                    return Err(self.fail(
                        location,
                        format!(
                            "invariant `{guard} ⇒ ∄ {pattern}` fails in init path \
                             {wi}: action #{j} may match"
                        ),
                    ));
                }
                base.push(InvPathJust::NegativeOk {
                    prior: NegPriorStep::EmptyTrace,
                });
            }
        }

        // Inductive cases.
        let mut cases = Vec::new();
        for world in self.abs.worlds() {
            for exchange in &world.exchanges {
                let emits = case_can_emit_match(
                    self.abs.checked(),
                    &exchange.ctype,
                    &exchange.msg,
                    pattern,
                );
                let assigns_guard_vars = match self
                    .abs
                    .checked()
                    .program()
                    .handler(&exchange.ctype, &exchange.msg)
                {
                    Some(h) => h
                        .body
                        .assigned_vars()
                        .iter()
                        .any(|v| guard_state_vars.contains(v)),
                    None => false,
                };
                if self.options.syntactic_skip && !emits && !assigns_guard_vars {
                    cases.push(InvCaseCert {
                        ctype: exchange.ctype.clone(),
                        msg: exchange.msg.clone(),
                        skipped: true,
                        paths: Vec::new(),
                    });
                    continue;
                }
                let mut paths = Vec::new();
                for (pi, path) in exchange.paths.iter().enumerate() {
                    let step_loc = format!(
                        "{location} → invariant `{guard}` case {}:{} path {pi}",
                        exchange.ctype, exchange.msg
                    );
                    crate::budget::tick_path(self.options, &step_loc)?;
                    paths.push(self.invariant_step(
                        world, exchange, path, guard, pattern, positive, &sigma0, depth, &step_loc,
                    )?);
                }
                cases.push(InvCaseCert {
                    ctype: exchange.ctype.clone(),
                    msg: exchange.msg.clone(),
                    skipped: false,
                    paths,
                });
            }
        }

        Ok(InvariantCert {
            vars: vars.to_vec(),
            guard: guard.clone(),
            pattern: pattern.clone(),
            positive,
            base,
            cases,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn invariant_step(
        &mut self,
        world: &World,
        exchange: &reflex_symbolic::Exchange,
        path: &reflex_symbolic::Path,
        guard: &Guard,
        pattern: &ActionPat,
        positive: bool,
        sigma0: &SymBindings,
        depth: usize,
        location: &str,
    ) -> Result<InvPathJust, ProofFailure> {
        let post = guard.instantiate(&path.state);
        let phi: Vec<(Term, bool)> = world
            .range_assumptions
            .iter()
            .cloned()
            .chain(path.condition.iter().cloned())
            .chain(post.iter().cloned())
            .collect();
        let mut solver = Solver::with_assumptions(&phi);
        if solver.is_unsat() {
            return Ok(InvPathJust::GuardUnsat);
        }
        let pre = guard.instantiate(&world.pre);
        let pre_holds = pre.iter().all(|(t, pol)| solver.entails(t, *pol));
        let actions = exchange.appended_actions(path);

        if positive {
            if pre_holds {
                return Ok(InvPathJust::Preserved);
            }
            if let Some(j) =
                (0..actions.len()).find(|&j| definite_match(&solver, pattern, actions[j], sigma0))
            {
                return Ok(InvPathJust::Witness { index: j });
            }
            // Chain: the pre-state may satisfy a different guard that
            // already implies the witness.
            let sub_guard = extract_canonical_guard(&phi);
            if sub_guard != *guard && !sub_guard.is_trivial() {
                let mut candidates = vec![sub_guard.clone()];
                if let Some(weak) = weaken_guard(&sub_guard) {
                    candidates.push(weak);
                }
                let mut last_err = None;
                for cand in candidates {
                    if cand == *guard
                        || !pattern.vars().iter().all(|v| cand.prop_vars().contains(v))
                    {
                        continue;
                    }
                    let vars = invariant_vars(&cand, pattern, self.prop);
                    match self.prove_invariant(
                        vars,
                        cand,
                        pattern.clone(),
                        true,
                        depth + 1,
                        location,
                    ) {
                        Ok(inv_id) => return Ok(InvPathJust::ViaInvariant { inv_id }),
                        Err(e) => last_err = Some(e),
                    }
                }
                if let Some(e) = last_err {
                    return Err(e);
                }
            }
            Err(self.fail(
                location,
                format!(
                    "guard `{guard}` may become true without the required \
                     [{pattern}] occurring (and no supporting invariant applies)"
                ),
            ))
        } else {
            // New actions must not match, regardless of how the prior
            // trace is justified.
            if let Some(j) = (0..actions.len())
                .find(|&j| !definite_no_match(&solver, pattern, actions[j], sigma0))
            {
                return Err(self.fail(
                    location,
                    format!(
                        "guard `{guard}` may hold after an exchange that emits a \
                         forbidden [{pattern}] (action #{j})"
                    ),
                ));
            }
            if pre_holds {
                return Ok(InvPathJust::NegativeOk {
                    prior: NegPriorStep::Ih,
                });
            }
            let sub_guard = extract_canonical_guard(&phi);
            if sub_guard != *guard && !sub_guard.is_trivial() {
                let mut candidates = Vec::new();
                if let Some(weak) = weaken_guard(&sub_guard) {
                    candidates.push(weak);
                }
                candidates.push(sub_guard);
                let mut last_err = None;
                for cand in candidates {
                    if cand == *guard {
                        continue;
                    }
                    let vars = invariant_vars(&cand, pattern, self.prop);
                    match self.prove_invariant(
                        vars,
                        cand,
                        pattern.clone(),
                        false,
                        depth + 1,
                        location,
                    ) {
                        Ok(inv_id) => {
                            return Ok(InvPathJust::NegativeOk {
                                prior: NegPriorStep::Invariant { inv_id },
                            })
                        }
                        Err(e) => last_err = Some(e),
                    }
                }
                if let Some(e) = last_err {
                    return Err(e);
                }
            }
            Err(self.fail(
                location,
                format!(
                    "guard `{guard}` may become newly true but the prior trace \
                     cannot be shown free of [{pattern}]"
                ),
            ))
        }
    }
}

// ---- shared proof packages ---------------------------------------------

/// Computes the self-contained proof package for one invariant key, in a
/// fresh prover context (see `cache.rs`): empty tables, depth 0, and the
/// shared cache detached so the result depends on nothing but the key.
///
/// The synthetic property exists only to carry the key's quantifier types
/// (`forall_ty` lookups during sub-invariant synthesis resolve against it);
/// its body is never proved.
fn compute_invariant_package(
    abs: &Abstraction<'_>,
    options: &ProverOptions,
    key: &SharedInvKey,
) -> InvariantPackage {
    let (vars, guard, pattern, positive) = key;
    let prop = PropertyDecl {
        name: format!("invariant:{guard}"),
        forall: vars.clone(),
        body: reflex_ast::PropBody::Trace(TraceProp::new(
            TracePropKind::Enables,
            pattern.clone(),
            pattern.clone(),
        )),
    };
    let reflex_ast::PropBody::Trace(tp) = &prop.body else {
        unreachable!("constructed as trace property");
    };
    let mut prover = TraceProver {
        abs,
        options,
        prop: &prop,
        tp,
        invariants: Vec::new(),
        cache: HashMap::new(),
        lemmas: Vec::new(),
        lemma_cache: HashMap::new(),
        // Invariant proofs never reach the lemma machinery; saturate the
        // depth so any future path there would be a no-op, not a package
        // impurity.
        lemma_depth: MAX_LEMMA_DEPTH,
        shared: None,
    };
    prover.prove_invariant(
        vars.clone(),
        guard.clone(),
        pattern.clone(),
        *positive,
        0,
        "shared invariant",
    )?;
    // The root is the last certificate pushed; dependencies precede it and
    // every internal reference points backwards within the slice.
    Ok(prover.invariants)
}

/// Computes the self-contained proof package for one lemma key. Lemma
/// proofs may themselves request invariants, which go through the shared
/// cache (lemma packages read invariant packages, never other lemma
/// packages, so the package dependency graph stays acyclic).
fn compute_lemma_package(
    abs: &Abstraction<'_>,
    options: &ProverOptions,
    key: &SharedLemmaKey,
    shared: &ProofCache,
) -> LemmaPackage {
    let (vars, a, b) = key;
    let lemma_prop = PropertyDecl {
        name: format!("lemma:{a} Enables {b}"),
        forall: vars.clone(),
        body: reflex_ast::PropBody::Trace(TraceProp::new(
            TracePropKind::Enables,
            a.clone(),
            b.clone(),
        )),
    };
    let reflex_ast::PropBody::Trace(lemma_tp) = &lemma_prop.body else {
        unreachable!("constructed as trace property");
    };
    match prove_trace_inner(abs, options, &lemma_prop, lemma_tp, 1, Some(shared)) {
        Ok(cert) => Some(LemmaCert {
            vars: vars.clone(),
            a: a.clone(),
            b: b.clone(),
            cert,
        }),
        Err(_) => None,
    }
}

/// Shifts every intra-package invariant reference of a spliced certificate
/// by the splice offset.
fn shift_invariant_refs(cert: &mut InvariantCert, base: usize) {
    for just in cert
        .base
        .iter_mut()
        .chain(cert.cases.iter_mut().flat_map(|c| c.paths.iter_mut()))
    {
        match just {
            InvPathJust::ViaInvariant { inv_id } => *inv_id += base,
            InvPathJust::NegativeOk {
                prior: NegPriorStep::Invariant { inv_id },
            } => *inv_id += base,
            _ => {}
        }
    }
}

/// The state variables mentioned by a guard.
fn guard_state_vars(guard: &Guard) -> Vec<String> {
    let mut out = Vec::new();
    for (t, _) in &guard.atoms {
        let mut syms = Vec::new();
        t.collect_syms(&mut syms);
        for s in syms {
            if let reflex_symbolic::SymKind::StateVar(n) = &s.kind {
                if !out.contains(n) {
                    out.push(n.clone());
                }
            }
        }
    }
    out
}

/// Extracts the strongest canonical guard entailed by a literal set: every
/// literal expressible purely over state variables and property variables.
fn extract_canonical_guard(phi: &[(Term, bool)]) -> Guard {
    let empty = BTreeMap::new();
    let atoms = flatten_literals(phi)
        .into_iter()
        .filter_map(|(t, pol)| generalize_literal(&t, pol, &empty))
        .collect();
    Guard::new(atoms)
}

/// Quantified variables of an invariant: those of its guard and pattern,
/// typed per the enclosing property's `forall`.
fn invariant_vars(guard: &Guard, pattern: &ActionPat, prop: &PropertyDecl) -> Vec<(String, Ty)> {
    let mut vars: Vec<(String, Ty)> = Vec::new();
    for v in guard.prop_vars().into_iter().chain(pattern.vars()) {
        if !vars.iter().any(|(n, _)| *n == v) {
            let ty = prop.forall_ty(&v).unwrap_or(Ty::Str);
            vars.push((v, ty));
        }
    }
    vars
}

/// Finds a missed lookup on `path` that *covers* the forbidden spawn
/// pattern: the lookup searched the pattern's component type and its
/// predicate is entailed for any candidate matching the pattern under the
/// trigger's bindings. Shared with the certificate checker.
pub(crate) fn missed_lookup_covering(
    path: &Path,
    obligation: &ActionPat,
    inst: &TriggerInstance,
    solver: &Solver,
) -> Option<usize> {
    (0..path.missed_lookups.len())
        .find(|&li| missed_lookup_covers(&path.missed_lookups[li], obligation, inst, solver))
}

/// Whether one missed lookup covers the forbidden spawn pattern (see
/// [`missed_lookup_covering`]). Also used by the certificate checker to
/// validate a claimed index.
pub(crate) fn missed_lookup_covers(
    ml: &reflex_symbolic::MissedLookup,
    obligation: &ActionPat,
    inst: &TriggerInstance,
    solver: &Solver,
) -> bool {
    let ActionPat::Spawn { comp: pat } = obligation else {
        return false;
    };
    if pat.ctype.as_deref() != Some(ml.ctype.as_str()) {
        return false;
    }
    // Unify the hypothetical candidate with the pattern under the trigger
    // bindings; the resulting equalities plus the obligation context must
    // entail the lookup predicate.
    let probe = SymAction::Spawn {
        comp: ml.candidate.clone(),
    };
    match reflex_symbolic::unify_action(obligation, &probe, &inst.bindings) {
        reflex_symbolic::Unify::Never => false,
        reflex_symbolic::Unify::Match { conditions, .. } => {
            let mut s = solver.clone();
            for (t, pol) in &conditions {
                s.assert_term(t.clone(), *pol);
            }
            !s.clone().is_unsat() && s.entails(&ml.pred_term, true)
        }
    }
}
