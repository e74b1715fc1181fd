//! The cached behavioral abstraction: init paths and all exchange cases.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use reflex_ast::{BinOp, Ty, UnOp, Value};
use reflex_symbolic::{Evaluator, Exchange, Path, SymCtx, SymState, SymVar, Term};
use reflex_typeck::CheckedProgram;

use crate::certificate::Certificate;
use crate::options::{Outcome, ProverOptions};

/// One "world": the behavioral abstraction rooted at one init path.
///
/// Init sections may branch (e.g. on an external `call` result), producing
/// several post-init states; the induction must hold over each. Handlers
/// are evaluated against the *generic* pre-state derived from the init
/// state (opaque mutable variables, init-time component handles).
#[derive(Debug, Clone)]
pub struct World {
    /// The init path this world is rooted at.
    pub init: Path,
    /// The generic pre-state for the inductive step.
    pub pre: SymState,
    /// One exchange per `(component type, message type)` pair, in
    /// [`reflex_ast::Program::exchange_cases`] order.
    pub exchanges: Vec<Exchange>,
    /// Sound interval facts about numeric state variables in *every*
    /// reachable pre-state (e.g. `0 <= attempts`), instantiated at this
    /// world's pre-state symbols. Derived by a standard interval fixpoint
    /// with widening over the exchange paths; the provers and the checker
    /// add them to every inductive-step solver context.
    pub range_assumptions: Vec<(Term, bool)>,
}

/// The symbolic behavioral abstraction of a program, computed once and
/// shared by every property proof (one of the reasons re-verification after
/// program edits is fast).
///
/// The worlds sit behind an [`Arc`] so a [`ResidentProgram`] can hand out
/// views of the one abstraction it keeps. The only ways to obtain one are
/// [`Abstraction::build`] and [`ResidentProgram::abstraction`], so an
/// abstraction always belongs to the program it was built from — the
/// checker trusts it.
#[derive(Debug)]
pub struct Abstraction<'p> {
    checked: &'p CheckedProgram,
    worlds: Arc<Vec<World>>,
}

impl<'p> Abstraction<'p> {
    /// Builds the abstraction by symbolically evaluating init and every
    /// exchange case.
    pub fn build(checked: &'p CheckedProgram, options: &ProverOptions) -> Abstraction<'p> {
        Abstraction {
            checked,
            worlds: Arc::new(build_worlds(checked, options.prune_paths)),
        }
    }

    /// The worlds, one per init path.
    pub fn worlds(&self) -> &[World] {
        &self.worlds
    }

    /// The checked program.
    pub fn checked(&self) -> &'p CheckedProgram {
        self.checked
    }

    /// A canonical fingerprint of the per-world interval range assumptions.
    ///
    /// The range assumptions are derived from *every* exchange path, so an
    /// edit anywhere in the program may strengthen or weaken the solver
    /// context of every inductive case. Certificates record this
    /// fingerprint in their dependency set; the planner refuses any reuse
    /// when it changes (see [`crate::certificate::DepSet`]).
    pub fn ranges_fp(&self) -> reflex_ast::Fp {
        let mut h = reflex_ast::fingerprint::FpHasher::new();
        h.write_str("ranges");
        for world in self.worlds() {
            h.write_str("world");
            for (term, pol) in &world.range_assumptions {
                h.write_str(&term.to_string());
                h.write(&[u8::from(*pol)]);
            }
        }
        h.finish()
    }

    /// Total number of symbolic paths across all worlds and cases (a
    /// proof-effort measure reported by the benches).
    pub fn path_count(&self) -> usize {
        self.worlds
            .iter()
            .map(|w| w.exchanges.iter().map(|e| e.paths.len()).sum::<usize>() + 1)
            .sum()
    }
}

/// Symbolically evaluates init and every exchange case of `checked`.
/// Reads no budget and no option other than `prune`.
fn build_worlds(checked: &CheckedProgram, prune: bool) -> Vec<World> {
    let mut evaluator = Evaluator::new(checked);
    evaluator.prune = prune;
    let mut ctx = SymCtx::new();
    let init_paths = evaluator.eval_init(&mut ctx);
    let mut worlds = Vec::with_capacity(init_paths.len());
    for init in init_paths {
        let pre = evaluator.generic_pre_state(&mut ctx, &init.state);
        let mut exchanges = Vec::new();
        for case in checked.program().exchange_cases() {
            exchanges.push(evaluator.eval_exchange(&mut ctx, &pre, case.ctype, case.msg));
        }
        let range_assumptions = compute_ranges(checked, &init.state, &pre, &exchanges);
        worlds.push(World {
            init,
            pre,
            exchanges,
            range_assumptions,
        });
    }
    worlds
}

/// A type-checked program that keeps its abstraction and the certificates
/// the checker accepted for it: what a long-lived service holds per
/// program so a repeated request skips parsing, type checking, the
/// abstraction build and, for properties already proved, proof search and
/// checking.
///
/// The abstraction is built on the first [`ResidentProgram::abstraction`]
/// call and kept; concurrent first calls build it once. It depends only on
/// the program and `prune_paths`, both fixed at construction.
///
/// The certificate table holds each recorded property's exact
/// [`crate::certificate_to_bytes`] output (about 2.6 KB per Figure 6
/// certificate; a decoded copy is about five times that), filed under the
/// construction options' [`ProverOptions::fingerprint`] and served only to
/// runs under an equal fingerprint. Readers take an [`Arc`] snapshot, so no
/// lock is held while a run decodes or plans. The table lives and dies
/// with the program.
#[derive(Debug)]
pub struct ResidentProgram {
    checked: CheckedProgram,
    prune_paths: bool,
    worlds: OnceLock<Arc<Vec<World>>>,
    /// The options fingerprint the certificate table is filed under.
    options_fp: reflex_ast::Fp,
    /// Checked certificates by property name, as encoded bytes.
    certified: Mutex<Arc<CertTable>>,
}

/// A resident program's checked certificates: property name → encoded
/// certificate.
type CertTable = BTreeMap<String, Arc<[u8]>>;

impl ResidentProgram {
    /// Takes ownership of `checked`; the abstraction will be built with
    /// `options.prune_paths`, and certificates are recorded and served
    /// under `options.fingerprint()`.
    pub fn new(checked: CheckedProgram, options: &ProverOptions) -> ResidentProgram {
        ResidentProgram {
            checked,
            prune_paths: options.prune_paths,
            worlds: OnceLock::new(),
            options_fp: options.fingerprint(),
            certified: Mutex::default(),
        }
    }

    /// The checked program.
    pub fn checked(&self) -> &CheckedProgram {
        &self.checked
    }

    /// The program's abstraction, built on first use.
    pub fn abstraction(&self) -> Abstraction<'_> {
        let worlds = self
            .worlds
            .get_or_init(|| Arc::new(build_worlds(&self.checked, self.prune_paths)));
        Abstraction {
            checked: &self.checked,
            worlds: Arc::clone(worlds),
        }
    }

    /// The recorded certificates for `property` (every recorded property
    /// when `None`), decoded, in property-name order: the `previous` of a
    /// run that should reuse them. Empty under options whose fingerprint
    /// differs from the table's.
    pub fn certified(
        &self,
        options: &ProverOptions,
        property: Option<&str>,
    ) -> Vec<(String, Certificate)> {
        if options.fingerprint() != self.options_fp {
            return Vec::new();
        }
        let table = self.snapshot();
        table
            .iter()
            .filter(|(name, _)| property.is_none_or(|p| p == name.as_str()))
            .filter_map(|(name, bytes)| Some((name.clone(), crate::certificate_from_bytes(bytes)?)))
            .collect()
    }

    /// Records the certificates of `outcomes`' proved properties that the
    /// table does not hold yet. Failures, timeouts, cancellations and
    /// crashes are never recorded.
    ///
    /// Trust rule: call this only with outcomes whose every certificate
    /// passed the independent checker in this process — in the run that
    /// produced it, or when it was first recorded. Certificates are
    /// deterministic, so two runs that record the same property record
    /// equal bytes; the first insert wins.
    pub fn record_checked(&self, options: &ProverOptions, outcomes: &[(String, Outcome)]) {
        if options.fingerprint() != self.options_fp {
            return;
        }
        let known = self.snapshot();
        // Encode outside the lock; most runs of a resident program record
        // nothing new and stop here.
        let fresh: Vec<(&String, Arc<[u8]>)> = outcomes
            .iter()
            .filter(|(name, _)| !known.contains_key(name))
            .filter_map(|(name, outcome)| {
                Some((
                    name,
                    crate::certificate_to_bytes(outcome.certificate()?).into(),
                ))
            })
            .collect();
        if fresh.is_empty() {
            return;
        }
        let mut slot = self.certified.lock().expect("certificate table poisoned");
        let mut table = CertTable::clone(&slot);
        for (name, bytes) in fresh {
            table.entry(name.clone()).or_insert(bytes);
        }
        *slot = Arc::new(table);
    }

    fn snapshot(&self) -> Arc<CertTable> {
        Arc::clone(&self.certified.lock().expect("certificate table poisoned"))
    }
}

/// A (possibly unbounded) integer interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Interval {
    lo: Option<i64>,
    hi: Option<i64>,
}

impl Interval {
    const TOP: Interval = Interval { lo: None, hi: None };

    fn exact(n: i64) -> Interval {
        Interval {
            lo: Some(n),
            hi: Some(n),
        }
    }

    fn join(self, other: Interval) -> Interval {
        Interval {
            lo: match (self.lo, other.lo) {
                (Some(a), Some(b)) => Some(a.min(b)),
                _ => None,
            },
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }
    }

    fn meet(self, other: Interval) -> Interval {
        Interval {
            lo: match (self.lo, other.lo) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            },
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
        }
    }

    fn add(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.zip(other.lo).and_then(|(a, b)| a.checked_add(b)),
            hi: self.hi.zip(other.hi).and_then(|(a, b)| a.checked_add(b)),
        }
    }

    fn neg(self) -> Interval {
        Interval {
            lo: self.hi.and_then(i64::checked_neg),
            hi: self.lo.and_then(i64::checked_neg),
        }
    }
}

/// Abstractly evaluates a numeric term under per-symbol intervals.
fn eval_interval(t: &Term, env: &BTreeMap<SymVar, Interval>) -> Interval {
    match t {
        Term::Lit(Value::Num(n)) => Interval::exact(*n),
        Term::Sym(s) => env.get(s).copied().unwrap_or(Interval::TOP),
        Term::Un(UnOp::Neg, inner) => eval_interval(inner, env).neg(),
        Term::Bin(BinOp::Add, l, r) => eval_interval(l, env).add(eval_interval(r, env)),
        Term::Bin(BinOp::Sub, l, r) => eval_interval(l, env).add(eval_interval(r, env).neg()),
        _ => Interval::TOP,
    }
}

/// Refines `env` with single-variable bounds extracted from a path
/// condition literal (`var ⋈ const` shapes only — this is a cheap
/// refinement, not the solver).
fn refine_with_condition(env: &mut BTreeMap<SymVar, Interval>, term: &Term, pol: bool) {
    let (op, l, r) = match term {
        Term::Bin(op @ (BinOp::Lt | BinOp::Le | BinOp::Eq), l, r) => (*op, &**l, &**r),
        _ => return,
    };
    let (sym, c, var_on_left) = match (l, r) {
        (Term::Sym(s), Term::Lit(Value::Num(n))) if s.ty == Ty::Num => (s.clone(), *n, true),
        (Term::Lit(Value::Num(n)), Term::Sym(s)) if s.ty == Ty::Num => (s.clone(), *n, false),
        _ => return,
    };
    let cur = env.entry(sym).or_insert(Interval::TOP);
    let bound = match (op, pol, var_on_left) {
        (BinOp::Lt, true, true) => Interval {
            lo: None,
            hi: Some(c - 1),
        },
        (BinOp::Lt, true, false) => Interval {
            lo: Some(c + 1),
            hi: None,
        },
        (BinOp::Lt, false, true) => Interval {
            lo: Some(c),
            hi: None,
        },
        (BinOp::Lt, false, false) => Interval {
            lo: None,
            hi: Some(c),
        },
        (BinOp::Le, true, true) => Interval {
            lo: None,
            hi: Some(c),
        },
        (BinOp::Le, true, false) => Interval {
            lo: Some(c),
            hi: None,
        },
        (BinOp::Le, false, true) => Interval {
            lo: Some(c + 1),
            hi: None,
        },
        (BinOp::Le, false, false) => Interval {
            lo: None,
            hi: Some(c - 1),
        },
        (BinOp::Eq, true, _) => Interval::exact(c),
        (BinOp::Eq, false, _) => return,
        _ => unreachable!("op restricted above"),
    };
    *cur = cur.meet(bound);
}

/// Computes sound interval invariants for the mutable numeric state
/// variables of one world, by fixpoint over the exchange paths (with
/// widening to ⊤ for bounds still unstable after a fixed number of
/// rounds), and returns them as solver assumptions over the pre-state
/// symbols.
fn compute_ranges(
    checked: &CheckedProgram,
    init_state: &SymState,
    pre: &SymState,
    exchanges: &[Exchange],
) -> Vec<(Term, bool)> {
    // Mutable numeric state variables and their pre-state symbols.
    let mut vars: Vec<(String, SymVar)> = Vec::new();
    for (name, info) in checked.globals() {
        if info.mutable && info.ty == Ty::Num {
            if let Some(Term::Sym(sym)) = pre.data.get(name) {
                vars.push((name.clone(), sym.clone()));
            }
        }
    }
    if vars.is_empty() {
        return Vec::new();
    }

    // Start from the init values.
    let mut ranges: BTreeMap<String, Interval> = BTreeMap::new();
    for (name, _) in &vars {
        let iv = match init_state.data.get(name) {
            Some(Term::Lit(Value::Num(n))) => Interval::exact(*n),
            _ => Interval::TOP,
        };
        ranges.insert(name.clone(), iv);
    }

    const WIDEN_AFTER: usize = 8;
    for round in 0..WIDEN_AFTER + 2 {
        let mut next = ranges.clone();
        for exchange in exchanges {
            for path in &exchange.paths {
                // Pre-state environment refined by the path condition.
                let mut env: BTreeMap<SymVar, Interval> = vars
                    .iter()
                    .map(|(name, sym)| (sym.clone(), ranges[name]))
                    .collect();
                for (t, pol) in &path.condition {
                    refine_with_condition(&mut env, t, *pol);
                }
                for (name, _) in &vars {
                    let post = path.state.data.get(name).expect("state var present");
                    let post_iv = eval_interval(post, &env);
                    let entry = next.get_mut(name).expect("seeded");
                    *entry = entry.join(post_iv);
                }
            }
        }
        if next == ranges {
            break;
        }
        if round >= WIDEN_AFTER {
            // Widen whatever is still moving.
            for (name, iv) in next.iter_mut() {
                let old = ranges[name];
                if iv.lo != old.lo {
                    iv.lo = None;
                }
                if iv.hi != old.hi {
                    iv.hi = None;
                }
            }
        }
        ranges = next;
    }
    // One more safety pass: after widening the result must be inductive;
    // verify and drop anything that still moves.
    let verify = |ranges: &BTreeMap<String, Interval>| -> bool {
        for exchange in exchanges {
            for path in &exchange.paths {
                let mut env: BTreeMap<SymVar, Interval> = vars
                    .iter()
                    .map(|(name, sym)| (sym.clone(), ranges[name]))
                    .collect();
                for (t, pol) in &path.condition {
                    refine_with_condition(&mut env, t, *pol);
                }
                for (name, _) in &vars {
                    let post = path.state.data.get(name).expect("state var present");
                    let post_iv = eval_interval(post, &env);
                    if ranges[name].join(post_iv) != ranges[name] {
                        return false;
                    }
                }
            }
        }
        true
    };
    if !verify(&ranges) {
        return Vec::new();
    }

    let mut out = Vec::new();
    for (name, sym) in &vars {
        let iv = ranges[name];
        let sym_term = Term::Sym(sym.clone());
        if let Some(lo) = iv.lo {
            out.push((Term::bin(BinOp::Le, Term::lit(lo), sym_term.clone()), true));
        }
        if let Some(hi) = iv.hi {
            out.push((Term::bin(BinOp::Le, sym_term, Term::lit(hi)), true));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use reflex_ast::build::ProgramBuilder;
    use reflex_ast::Expr;

    /// Two component types, two messages, a counter bounded by a guard.
    fn sample() -> CheckedProgram {
        let program = ProgramBuilder::new("t")
            .component("C", "c.py", [])
            .component("D", "d.py", [])
            .message("M", [Ty::Num])
            .message("N", [])
            .state("x", Ty::Num, Expr::lit(0i64))
            .init_spawn("c0", "C", [])
            .handler("C", "M", ["n"], |h| {
                h.if_else(
                    Expr::var("x").le(Expr::lit(2i64)),
                    |t| {
                        t.assign("x", Expr::var("x").add(Expr::lit(1i64)));
                    },
                    |e| {
                        e.send(Expr::var("c0"), "N", []);
                    },
                );
            })
            .finish();
        reflex_typeck::check(&program).expect("well-formed")
    }

    #[test]
    fn builds_worlds_and_exchanges() {
        let checked = sample();
        let abs = Abstraction::build(&checked, &ProverOptions::default());
        assert_eq!(abs.worlds().len(), 1);
        let w = &abs.worlds()[0];
        assert_eq!(w.exchanges.len(), 4); // 2 comp types × 2 msgs
        let cm = w
            .exchanges
            .iter()
            .find(|e| e.ctype == "C" && e.msg == "M")
            .expect("case exists");
        assert_eq!(cm.paths.len(), 2);
        assert!(abs.path_count() >= 5);
        // Implicit cases have a single silent path.
        let dn = w
            .exchanges
            .iter()
            .find(|e| e.ctype == "D" && e.msg == "N")
            .expect("case exists");
        assert_eq!(dn.paths.len(), 1);
        assert!(dn.paths[0].actions.is_empty());
        assert!(!dn.explicit);
    }

    #[test]
    fn a_resident_program_builds_its_abstraction_once() {
        let options = ProverOptions::default();
        let checked = sample();
        let fresh = Abstraction::build(&checked, &options);
        let resident = ResidentProgram::new(sample(), &options);
        let first = resident.abstraction();
        let second = resident.abstraction();
        assert!(std::ptr::eq(first.worlds(), second.worlds()));
        assert!(std::ptr::eq(first.checked(), resident.checked()));
        assert_eq!(first.ranges_fp(), fresh.ranges_fp());
        assert_eq!(first.path_count(), fresh.path_count());
    }
}
