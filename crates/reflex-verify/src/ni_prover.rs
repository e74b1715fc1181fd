//! Automatic proof of non-interference via the `NIlo`/`NIhi` sufficient
//! conditions (paper §5.2, Theorem 1).
//!
//! Given a labeling of components (patterns over type + configuration,
//! possibly mentioning the property's universally quantified variables) and
//! of state variables, the analysis checks, for every exchange case:
//!
//! * **`NIlo`** (sender assumed *low*): the handler never sends to or
//!   spawns a high component and never changes a high state variable;
//! * **`NIhi`** (sender assumed *high*): two runs of the handler from
//!   states agreeing on high inputs, high variables and the
//!   non-deterministic context take the same branches and produce the same
//!   high-visible effects. Concretely, every branch condition must be
//!   *agreement-determined* (built from high variables, message payload,
//!   sender configuration, init-time values and world inputs), `lookup`s
//!   must be restricted to provably high components (whose sub-list the two
//!   runs agree on, inductively), and the payloads of high-directed sends,
//!   the configurations of possibly-high spawns and the new values of high
//!   variables must be agreement-determined.
//!
//! High outputs are compared modulo component identity and file-descriptor
//! values (see DESIGN.md): those are allocator artifacts that legitimately
//! differ between runs with different low traffic.

use std::collections::BTreeSet;

use reflex_ast::{NiSpec, PropertyDecl};
use reflex_symbolic::{
    unify_action, CondKind, Solver, SymAction, SymBindings, SymComp, SymVar, Term, Unify,
};

use crate::abstraction::{Abstraction, World};
use crate::canon::prop_term;
use crate::certificate::{Certificate, NiCaseCert, NiCert};
use crate::options::{Outcome, ProofFailure, ProverOptions};

/// Proves a non-interference property.
pub fn prove_ni(
    abs: &Abstraction<'_>,
    options: &ProverOptions,
    prop: &PropertyDecl,
    spec: &NiSpec,
) -> Outcome {
    let prover = NiProver {
        abs,
        prop,
        spec,
        options,
    };
    match prover.prove() {
        Ok(cert) => Outcome::Proved(Certificate::NonInterference(cert)),
        Err(e) => Outcome::Failed(e),
    }
}

struct NiProver<'a, 'p> {
    abs: &'a Abstraction<'p>,
    prop: &'a PropertyDecl,
    spec: &'a NiSpec,
    options: &'a ProverOptions,
}

/// A non-interference property prepared for cross-property obligation
/// scheduling (see `oblig.rs`): every exchange case is an independent pure
/// obligation, and [`PreparedNi::assemble`] rebuilds exactly the serial
/// result (certificate, or first failure in case order).
pub(crate) struct PreparedNi<'a, 'p> {
    prover: NiProver<'a, 'p>,
    sigma0: SymBindings,
    /// Flat `(world, exchange)` indices in serial visit order.
    units: Vec<(usize, usize)>,
}

/// Prepares one NI property for obligation-level scheduling.
pub(crate) fn prepare_ni<'a, 'p>(
    abs: &'a Abstraction<'p>,
    options: &'a ProverOptions,
    prop: &'a PropertyDecl,
    spec: &'a NiSpec,
) -> PreparedNi<'a, 'p> {
    let prover = NiProver {
        abs,
        prop,
        spec,
        options,
    };
    let sigma0 = prover.sigma0();
    let units: Vec<(usize, usize)> = abs
        .worlds()
        .iter()
        .enumerate()
        .flat_map(|(wi, world)| (0..world.exchanges.len()).map(move |ei| (wi, ei)))
        .collect();
    PreparedNi {
        prover,
        sigma0,
        units,
    }
}

impl<'a, 'p> PreparedNi<'a, 'p> {
    /// Number of schedulable obligations.
    pub(crate) fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// Discharges obligation `u` (pure; callable from any worker).
    pub(crate) fn run_unit(&self, u: usize) -> Result<NiCaseCert, ProofFailure> {
        let (wi, ei) = self.units[u];
        let world = &self.prover.abs.worlds()[wi];
        self.prover
            .check_case(wi, world, &world.exchanges[ei], &self.sigma0)
    }

    /// Rebuilds the serial result from the per-obligation results.
    pub(crate) fn assemble(self, cases: Vec<Result<NiCaseCert, ProofFailure>>) -> Outcome {
        match cases.into_iter().collect::<Result<Vec<_>, _>>() {
            Err(failure) => Outcome::Failed(failure),
            Ok(cases) => Outcome::Proved(Certificate::NonInterference(NiCert {
                property: self.prover.prop.name.clone(),
                cases,
                deps: Default::default(),
            })),
        }
    }
}

/// Conjunction of match side-conditions as a single boolean term
/// (`None` when the condition list is empty, i.e. the match is definite).
fn conds_term(conds: &[(Term, bool)]) -> Option<Term> {
    let mut acc: Option<Term> = None;
    for (t, pol) in conds {
        let lit = if *pol { t.clone() } else { t.clone().not() };
        acc = Some(match acc {
            None => lit,
            Some(a) => a.and(lit),
        });
    }
    acc
}

/// The component-label match conditions of `comp` against every applicable
/// high pattern, with the property's quantified variables pre-bound.
///
/// Returns a list of per-pattern results: `None` entry means a *definite*
/// match (the component is unconditionally high).
fn high_match_terms(spec: &NiSpec, sigma0: &SymBindings, comp: &SymComp) -> Vec<Option<Term>> {
    let mut out = Vec::new();
    for hp in &spec.high_comps {
        let probe = SymAction::Spawn { comp: comp.clone() };
        let pat = reflex_ast::ActionPat::Spawn { comp: hp.clone() };
        match unify_action(&pat, &probe, sigma0) {
            Unify::Never => {}
            Unify::Match {
                conditions: conds, ..
            } => out.push(conds_term(&conds)),
        }
    }
    out
}

/// The "is high" disjunction for `comp`, or a definite answer.
enum Highness {
    Never,
    Always,
    When(Vec<Term>),
}

fn highness(spec: &NiSpec, sigma0: &SymBindings, comp: &SymComp) -> Highness {
    let matches = high_match_terms(spec, sigma0, comp);
    if matches.is_empty() {
        return Highness::Never;
    }
    if matches.iter().any(Option::is_none) {
        return Highness::Always;
    }
    Highness::When(matches.into_iter().flatten().collect())
}

/// Whether `comp` is *provably low* under the solver context: every high
/// pattern's match condition is refuted.
fn provably_low(solver: &Solver, spec: &NiSpec, sigma0: &SymBindings, comp: &SymComp) -> bool {
    match highness(spec, sigma0, comp) {
        Highness::Never => true,
        Highness::Always => false,
        Highness::When(terms) => terms.iter().all(|t| solver.entails(t, false)),
    }
}

/// Whether `comp` is *provably high*: some high pattern's match condition
/// is entailed.
fn provably_high(solver: &Solver, spec: &NiSpec, sigma0: &SymBindings, comp: &SymComp) -> bool {
    match highness(spec, sigma0, comp) {
        Highness::Never => false,
        Highness::Always => true,
        Highness::When(terms) => terms.iter().any(|t| solver.entails(t, true)),
    }
}

fn syms_of(term: &Term) -> Vec<SymVar> {
    let mut out = Vec::new();
    term.collect_syms(&mut out);
    out
}

fn comp_syms(comp: &SymComp) -> Vec<SymVar> {
    let mut out = Vec::new();
    comp.id.collect_syms(&mut out);
    for c in &comp.config {
        c.collect_syms(&mut out);
    }
    out
}

impl<'a, 'p> NiProver<'a, 'p> {
    fn fail(&self, location: impl Into<String>, reason: impl Into<String>) -> ProofFailure {
        ProofFailure {
            location: location.into(),
            reason: reason.into(),
        }
    }

    fn sigma0(&self) -> SymBindings {
        let mut s = SymBindings::new();
        for (v, ty) in &self.prop.forall {
            s.insert(v.clone(), prop_term(v, *ty));
        }
        s
    }

    fn prove(&self) -> Result<NiCert, ProofFailure> {
        let sigma0 = self.sigma0();
        // Every case is checked, even after a failure (the lowest failing
        // case is the one reported): the engine's serial path runs NI
        // obligations the same way, so budget ticks agree between the two.
        let cases: Vec<Result<NiCaseCert, ProofFailure>> = self
            .abs
            .worlds()
            .iter()
            .enumerate()
            .flat_map(|(wi, world)| {
                world
                    .exchanges
                    .iter()
                    .map(move |exchange| (wi, world, exchange))
            })
            .map(|(wi, world, exchange)| self.check_case(wi, world, exchange, &sigma0))
            .collect();
        let cases = cases.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(NiCert {
            property: self.prop.name.clone(),
            cases,
            deps: Default::default(),
        })
    }

    /// Checks both NI conditions for one exchange case.
    fn check_case(
        &self,
        wi: usize,
        world: &World,
        exchange: &reflex_symbolic::Exchange,
        sigma0: &SymBindings,
    ) -> Result<NiCaseCert, ProofFailure> {
        let location = format!("world {wi}, case {}:{}", exchange.ctype, exchange.msg);
        let sender_high = highness(self.spec, sigma0, &exchange.sender);
        let (check_low, check_high, low_assumption, high_assumption) = match &sender_high {
            Highness::Never => (true, false, Vec::new(), Vec::new()),
            Highness::Always => (false, true, Vec::new(), Vec::new()),
            Highness::When(terms) => {
                // Low: every pattern's condition false. High: their
                // disjunction true.
                let low: Vec<(Term, bool)> = terms.iter().map(|t| (t.clone(), false)).collect();
                let disj = terms
                    .iter()
                    .cloned()
                    .reduce(|a, b| Term::bin(reflex_ast::BinOp::Or, a, b))
                    .expect("nonempty");
                (true, true, low, vec![(disj, true)])
            }
        };

        let mut low_paths = None;
        if check_low {
            for (pi, path) in exchange.paths.iter().enumerate() {
                crate::budget::tick_path(self.options, &format!("{location}, path {pi} (NIlo)"))?;
                self.check_nilo(world, exchange, path, &low_assumption, sigma0)
                    .map_err(|r| self.fail(format!("{location}, path {pi} (NIlo)"), r))?;
            }
            low_paths = Some(exchange.paths.len());
        }
        let mut high_paths = None;
        if check_high {
            for (pi, path) in exchange.paths.iter().enumerate() {
                crate::budget::tick_path(self.options, &format!("{location}, path {pi} (NIhi)"))?;
                let strict = self.check_nihi(world, exchange, path, &high_assumption, sigma0);
                if let Err(reason) = strict {
                    // Fallback: a case with no high-visible effects
                    // on ANY path is non-interfering even if its
                    // branching is low-influenced — both runs
                    // contribute nothing to the high observation
                    // regardless of the paths they take.
                    self.check_case_high_inert(world, exchange, &high_assumption, sigma0)
                        .map_err(|_| self.fail(format!("{location}, path {pi} (NIhi)"), reason))?;
                    high_paths = Some(exchange.paths.len());
                    break;
                }
            }
            high_paths = Some(high_paths.unwrap_or(exchange.paths.len()));
        }
        Ok(NiCaseCert {
            ctype: exchange.ctype.clone(),
            msg: exchange.msg.clone(),
            low_paths,
            high_paths,
        })
    }

    /// `NIlo`: the path must not touch high variables nor send to / spawn
    /// high components.
    fn check_nilo(
        &self,
        world: &World,
        exchange: &reflex_symbolic::Exchange,
        path: &reflex_symbolic::Path,
        assumption: &[(Term, bool)],
        sigma0: &SymBindings,
    ) -> Result<(), String> {
        let solver = Solver::with_assumptions(path.condition.iter().chain(assumption.iter()));
        // If the low assumption contradicts the path condition, the path
        // cannot occur with a low sender.
        if solver.clone().is_unsat() {
            return Ok(());
        }
        for v in &self.spec.high_vars {
            let pre = world.pre.data.get(v).expect("typeck: high var exists");
            let post = path.state.data.get(v).expect("state has var");
            if pre != post && !solver.entails_equal(pre, post) {
                return Err(format!(
                    "low handler may change high state variable `{v}` (from {pre} to {post})"
                ));
            }
        }
        for (ai, action) in path.actions.iter().enumerate() {
            match action {
                SymAction::Send { comp, .. } | SymAction::Spawn { comp } => {
                    if !provably_low(&solver, self.spec, sigma0, comp) {
                        return Err(format!(
                            "low handler for {}:{} may {} a possibly-high component \
                             {comp} (action #{ai})",
                            exchange.ctype,
                            exchange.msg,
                            if matches!(action, SymAction::Send { .. }) {
                                "send to"
                            } else {
                                "spawn"
                            },
                        ));
                    }
                }
                SymAction::Call { .. } | SymAction::Select { .. } | SymAction::Recv { .. } => {}
            }
        }
        Ok(())
    }

    /// `NIhi`: the path must be replayed identically by any two runs that
    /// agree on high inputs — see the module docs for the discipline.
    fn check_nihi(
        &self,
        world: &World,
        exchange: &reflex_symbolic::Exchange,
        path: &reflex_symbolic::Path,
        assumption: &[(Term, bool)],
        sigma0: &SymBindings,
    ) -> Result<(), String> {
        let full_solver = Solver::with_assumptions(path.condition.iter().chain(assumption.iter()));
        if full_solver.clone().is_unsat() {
            return Ok(());
        }

        // Agreement-determined symbols: everything both runs share.
        let mut allowed: BTreeSet<SymVar> = BTreeSet::new();
        let low_state_vars: Vec<&String> = self
            .abs
            .checked()
            .globals()
            .iter()
            .filter(|(n, i)| i.mutable && !self.spec.high_vars.contains(n))
            .map(|(n, _)| n)
            .collect();
        for (name, term) in &world.pre.data {
            if low_state_vars.contains(&name) {
                continue; // low variable: may differ between runs
            }
            allowed.extend(syms_of(term));
        }
        for comp in world.pre.comps.values() {
            allowed.extend(comp_syms(comp));
        }
        allowed.extend(comp_syms(&exchange.sender));
        for (_, t) in &exchange.params {
            allowed.extend(syms_of(t));
        }
        // World inputs (call results) are part of the shared
        // non-deterministic context of the high handler.
        for action in &path.actions {
            if let SymAction::Call { result, .. } = action {
                allowed.extend(syms_of(result));
            }
        }
        // Quantified property variables are shared by construction.
        for (v, ty) in &self.prop.forall {
            allowed.insert(crate::canon::prop_sym(v, *ty));
        }

        let is_allowed =
            |allowed: &BTreeSet<SymVar>, t: &Term| syms_of(t).iter().all(|s| allowed.contains(s));

        // 1. Branch conditions and lookup predicates, in order.
        for (k, ((term, _pol), kind)) in path.condition.iter().zip(&path.cond_kinds).enumerate() {
            match kind {
                CondKind::Branch => {
                    if !is_allowed(&allowed, term) {
                        return Err(format!(
                            "high handler branches on a low-influenced condition: {term}"
                        ));
                    }
                }
                CondKind::LookupPred { comp } => {
                    self.check_high_lookup(
                        &path.condition[..=k],
                        assumption,
                        term,
                        comp,
                        &allowed,
                        sigma0,
                    )?;
                    allowed.extend(comp_syms(comp));
                }
            }
        }
        // Missed lookups: the (empty) search result must also be
        // agreement-determined.
        for ml in &path.missed_lookups {
            if ml.pred_term.as_bool() == Some(false) {
                continue; // vacuous search
            }
            let prior: Vec<(Term, bool)> = path.condition[..ml.cond_index]
                .iter()
                .cloned()
                .chain(std::iter::once((ml.pred_term.clone(), true)))
                .collect();
            self.check_high_lookup(
                &prior,
                assumption,
                &ml.pred_term,
                &ml.candidate,
                &allowed,
                sigma0,
            )?;
        }

        // 2. Effects.
        for (ai, action) in path.actions.iter().enumerate() {
            match action {
                SymAction::Spawn { comp } => {
                    if provably_low(&full_solver, self.spec, sigma0, comp) {
                        continue; // a low output; unconstrained
                    }
                    for c in &comp.config {
                        if !is_allowed(&allowed, c) {
                            return Err(format!(
                                "high handler spawns possibly-high component {comp} \
                                 (action #{ai}) with a low-influenced configuration"
                            ));
                        }
                    }
                    allowed.extend(comp_syms(comp));
                }
                SymAction::Send { comp, args, .. } => {
                    if provably_low(&full_solver, self.spec, sigma0, comp) {
                        continue; // a low output; unconstrained
                    }
                    if !comp_syms(comp).iter().all(|s| allowed.contains(s)) {
                        return Err(format!(
                            "high handler sends to a component whose identity is \
                             low-influenced: {comp} (action #{ai})"
                        ));
                    }
                    for a in args {
                        if !is_allowed(&allowed, a) {
                            return Err(format!(
                                "high handler sends a low-influenced payload {a} to \
                                 possibly-high component {comp} (action #{ai})"
                            ));
                        }
                    }
                }
                SymAction::Call { .. } | SymAction::Select { .. } | SymAction::Recv { .. } => {}
            }
        }

        // 3. High state variables.
        for v in &self.spec.high_vars {
            let post = path.state.data.get(v).expect("state has var");
            if !is_allowed(&allowed, post) {
                return Err(format!(
                    "high handler may assign a low-influenced value to high \
                     variable `{v}`: {post}"
                ));
            }
        }
        Ok(())
    }

    /// Whether the whole exchange case is *high-inert*: no path sends to
    /// or spawns a possibly-high component, and every path preserves every
    /// high variable. Such a case contributes nothing to the high
    /// observation no matter which path each run takes.
    fn check_case_high_inert(
        &self,
        world: &World,
        exchange: &reflex_symbolic::Exchange,
        assumption: &[(Term, bool)],
        sigma0: &SymBindings,
    ) -> Result<(), String> {
        for path in &exchange.paths {
            let solver = Solver::with_assumptions(path.condition.iter().chain(assumption.iter()));
            if solver.clone().is_unsat() {
                continue;
            }
            for action in &path.actions {
                if let SymAction::Send { comp, .. } | SymAction::Spawn { comp } = action {
                    if !provably_low(&solver, self.spec, sigma0, comp) {
                        return Err(format!("case is not high-inert: may affect {comp}"));
                    }
                }
            }
            for v in &self.spec.high_vars {
                let pre = world.pre.data.get(v).expect("typeck: high var exists");
                let post = path.state.data.get(v).expect("state has var");
                if pre != post && !solver.entails_equal(pre, post) {
                    return Err(format!("case is not high-inert: may change `{v}`"));
                }
            }
        }
        Ok(())
    }

    /// A `lookup` inside a high handler is only deterministic when its
    /// search is restricted to provably high components (the two runs agree
    /// on the high component sub-list): the predicate must entail some high
    /// pattern for the candidate, and the predicate's non-candidate inputs
    /// must be agreement-determined.
    fn check_high_lookup(
        &self,
        prior_conditions: &[(Term, bool)],
        assumption: &[(Term, bool)],
        pred_term: &Term,
        candidate: &SymComp,
        allowed: &BTreeSet<SymVar>,
        sigma0: &SymBindings,
    ) -> Result<(), String> {
        let cand_syms: BTreeSet<SymVar> = comp_syms(candidate).into_iter().collect();
        let foreign: Vec<SymVar> = syms_of(pred_term)
            .into_iter()
            .filter(|s| !cand_syms.contains(s) && !allowed.contains(s))
            .collect();
        if !foreign.is_empty() {
            return Err(format!(
                "lookup predicate in high handler reads low-influenced values: {pred_term}"
            ));
        }
        let solver = Solver::with_assumptions(prior_conditions.iter().chain(assumption.iter()));
        if solver.clone().is_unsat() {
            return Ok(()); // this lookup cannot actually be reached high
        }
        if !provably_high(&solver, self.spec, sigma0, candidate) {
            return Err(format!(
                "lookup in high handler is not restricted to high components \
                 (predicate {pred_term} does not entail a high labeling for {candidate})"
            ));
        }
        Ok(())
    }
}
