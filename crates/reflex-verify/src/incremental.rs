//! Dependency-driven incremental re-verification — the future work flagged
//! in the paper's §6.4: "Future work can explore incremental verification
//! in order to further reduce the time required for re-verification."
//!
//! Every certificate records a [`DepSet`]: the canonical fingerprints of
//! the declaration group, the property, the abstraction's range
//! assumptions, and each handler case its induction consulted (plus the
//! cases it discharged purely syntactically). The planner here compares
//! those recorded fingerprints against the *new* program's and sorts each
//! property onto the **reuse ladder**:
//!
//! 1. **full reuse** — nothing the proof consulted changed: the previous
//!    certificate is returned as-is (it is byte-identical to what a
//!    from-scratch run would emit);
//! 2. **per-case reuse** — only some handler cases changed and the
//!    certificate is free of auxiliary invariants and lemmas (which
//!    quantify over *all* handlers): the unchanged base and case proofs
//!    are spliced and only the dirty cases re-proved
//!    ([`crate::trace_prover`]'s partial entry point);
//! 3. **re-prove** — anything else (declaration, property or
//!    range-assumption changes, or invariant/lemma-bearing and NI
//!    certificates with any dirty handler).
//!
//! The planner is *untrusted*, like the proof search itself: a planning
//! bug can cost a missed reuse or a certificate that fails the independent
//! checker — never a wrong "Proved". Trust follows where a certificate
//! came from: one produced earlier in this process ([`VerifyRun::previous`])
//! is exactly as trustworthy as the run that produced it, while one read
//! from unreliable media such as the on-disk proof store
//! ([`VerifyRun::loaded`]) is re-validated through
//! [`crate::check_certificate`] before being trusted at all.
//!
//! The ladder is also the one verification engine: [`reverify_core`]
//! plans every run (a run without previous certificates plans every
//! property as a re-prove), splits the re-proves into obligations and is
//! the only code that fans proof work out onto the pool.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::time::Instant;

use reflex_ast::{Fp, PropBody, PropertyDecl};
use reflex_typeck::CheckedProgram;

use crate::cache::ProofCache;
use crate::certificate::{Certificate, DepSet};
use crate::oblig;
use crate::options::{catch_crash, Outcome, ProverOptions, VerifyError};
use crate::shared::case_can_emit_match;
use crate::Abstraction;

/// The result of an incremental re-verification.
#[derive(Debug)]
pub struct IncrementalReport {
    /// `(property, outcome)` in declaration order, as from
    /// [`crate::prove_all`].
    pub outcomes: Vec<(String, Outcome)>,
    /// Properties whose previous certificates were reused wholesale.
    pub reused: Vec<String>,
    /// Properties whose certificates were patched per-case: unchanged base
    /// and exchange-case proofs spliced, dirty cases re-proved.
    pub partial: Vec<String>,
    /// Properties that were re-proved from scratch.
    pub reproved: Vec<String>,
}

impl IncrementalReport {
    /// Properties served entirely or partially from previous proofs.
    pub fn reuse_count(&self) -> usize {
        self.reused.len() + self.partial.len()
    }
}

/// What the planner decided for one property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReusePlan {
    /// Return the previous certificate unchanged.
    Full,
    /// Splice the previous certificate, re-proving only these
    /// `(ctype, msg)` cases.
    Partial {
        /// The dirty exchange cases.
        dirty: BTreeSet<(String, String)>,
    },
    /// Prove from scratch (also used when no previous certificate exists).
    Reprove,
}

/// The dependency graph over a set of previous certificates: which
/// properties consulted which handler cases, by fingerprint.
///
/// Built once per re-verification from the certificates' recorded
/// [`DepSet`]s; [`DepGraph::plan`] maps the edit diff (expressed as the new
/// program's fingerprints) to a [`ReusePlan`] per property.
#[derive(Debug)]
pub struct DepGraph<'c> {
    /// Property name → its previous certificate.
    certs: BTreeMap<&'c str, &'c Certificate>,
    /// Handler case → properties whose proofs fingerprint-track it.
    dependents: BTreeMap<(String, String), Vec<&'c str>>,
}

impl<'c> DepGraph<'c> {
    /// Indexes `previous` by property name (one scan — the certificates
    /// are consulted many times during planning).
    ///
    /// # Errors
    ///
    /// Rejects malformed inputs instead of panicking, so a bad slice can
    /// never abort a long-running watch session:
    /// [`VerifyError::DuplicateCertificate`] when a name appears twice,
    /// [`VerifyError::CertificateMismatch`] when a pair's certificate was
    /// issued for a different property than the name it is filed under.
    pub fn build(
        previous: impl IntoIterator<Item = &'c (String, Certificate)>,
    ) -> Result<DepGraph<'c>, VerifyError> {
        let mut certs: BTreeMap<&str, &Certificate> = BTreeMap::new();
        let mut dependents: BTreeMap<(String, String), Vec<&str>> = BTreeMap::new();
        for (name, cert) in previous {
            if cert.property() != name {
                return Err(VerifyError::CertificateMismatch {
                    name: name.clone(),
                    certified: cert.property().to_owned(),
                });
            }
            if certs.insert(name.as_str(), cert).is_some() {
                return Err(VerifyError::DuplicateCertificate { name: name.clone() });
            }
            for (ctype, msg, _) in &cert.deps().handlers {
                dependents
                    .entry((ctype.clone(), msg.clone()))
                    .or_default()
                    .push(name.as_str());
            }
        }
        Ok(DepGraph { certs, dependents })
    }

    /// The previous certificate for `property`, if any.
    pub fn certificate(&self, property: &str) -> Option<&'c Certificate> {
        self.certs.get(property).copied()
    }

    /// The properties whose proofs fingerprint-track the `(ctype, msg)`
    /// handler case.
    pub fn dependents_of(&self, ctype: &str, msg: &str) -> &[&'c str] {
        self.dependents
            .get(&(ctype.to_owned(), msg.to_owned()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Plans one property of `new` (whose abstraction has range-assumption
    /// fingerprint `ranges`).
    pub fn plan(&self, property: &str, new: &CheckedProgram, ranges: Fp) -> ReusePlan {
        let Some(cert) = self.certificate(property) else {
            return ReusePlan::Reprove;
        };
        let fps = new.fingerprints();
        let deps = cert.deps();
        // The declaration group shapes the case split and the base cases;
        // the range assumptions feed every inductive solver context; the
        // property is the statement itself. Any change invalidates every
        // part of the proof.
        if deps.decls != fps.decls
            || Some(deps.property) != fps.property(property)
            || deps.ranges != ranges
        {
            return ReusePlan::Reprove;
        }
        // Fingerprint-tracked cases: dirty where the handler changed.
        let mut dirty: BTreeSet<(String, String)> = BTreeSet::new();
        for (ctype, msg, fp) in &deps.handlers {
            if fps.handler(ctype, msg) != Some(*fp) {
                dirty.insert((ctype.clone(), msg.clone()));
            }
        }
        // Syntactically-skipped cases: dirty only if the new handler could
        // now emit an action unifiable with the trigger (the same check the
        // independent checker re-runs to validate a skip).
        let trigger = new
            .program()
            .property(property)
            .and_then(|p| match &p.body {
                PropBody::Trace(tp) => Some(tp.trigger()),
                PropBody::NonInterference(_) => None,
            });
        for (ctype, msg) in &deps.syntactic_only {
            let still_skippable = match trigger {
                Some(pat) => !case_can_emit_match(new, ctype, msg, pat),
                None => false,
            };
            if !still_skippable {
                dirty.insert((ctype.clone(), msg.clone()));
            }
        }
        if dirty.is_empty() {
            return ReusePlan::Full;
        }
        // Per-case splicing is sound and deterministic only for
        // certificates whose justifications are local to their own cases:
        // auxiliary invariants and lemmas quantify over every handler, and
        // the NI conditions are re-derived wholesale.
        match cert {
            Certificate::Trace(t) if t.invariants.is_empty() && t.lemmas.is_empty() => {
                ReusePlan::Partial { dirty }
            }
            _ => ReusePlan::Reprove,
        }
    }
}

/// Re-verifies `new` given the certificates of a previous run.
///
/// `previous` pairs property names with the certificates obtained from a
/// successful [`crate::prove_all`] (or earlier `reverify`) run under the
/// *same* [`ProverOptions`]; mixing configurations is detected by the
/// proof store but is the caller's responsibility here. The re-proving
/// work runs on [`ProverOptions::jobs`] pool workers; every job count
/// schedules from the *same* dirty-set plan, so outcomes, certificates and
/// report classifications are byte-identical for every value.
///
/// Outcomes are byte-identical to a from-scratch [`crate::prove_all`] over
/// `new` — full reuse only triggers when everything the proof consulted is
/// unchanged, and per-case splicing re-proves exactly the cases a scratch
/// run would prove differently.
///
/// # Errors
///
/// Returns a [`VerifyError`] when `previous` is malformed (duplicate or
/// misfiled certificates); proof-search failures are reported per-property
/// inside the report, never as errors.
pub fn reverify(
    previous: &[(String, Certificate)],
    new: &CheckedProgram,
    options: &ProverOptions,
) -> Result<IncrementalReport, VerifyError> {
    reverify_core(
        new,
        options,
        VerifyRun {
            previous,
            ..VerifyRun::default()
        },
    )
}

/// [`reverify`] on `jobs` pool workers (`0`: one per available CPU,
/// overriding [`ProverOptions::jobs`]), with a per-property
/// [`PropObserver`] invoked as each outcome is decided, and an explicit
/// trust decision for `previous`.
///
/// With `validate` set, `previous` is treated as [`VerifyRun::loaded`]
/// and every certificate the run returns — reused, spliced or fresh —
/// passes [`crate::check_certificate`] against `new` first: required when
/// `previous` came from unreliable media like the on-disk proof store.
/// Leave it unset for certificates produced in this process.
pub fn reverify_observed(
    previous: &[(String, Certificate)],
    new: &CheckedProgram,
    options: &ProverOptions,
    jobs: usize,
    validate: bool,
    observer: Option<PropObserver<'_>>,
) -> Result<IncrementalReport, VerifyError> {
    let (previous, loaded, checks) = if validate {
        (&[][..], previous, Checks::Produced)
    } else {
        (previous, &[][..], Checks::None)
    };
    reverify_core(
        new,
        &with_jobs(options, jobs),
        VerifyRun {
            previous,
            loaded,
            checks,
            observer,
            ..VerifyRun::default()
        },
    )
}

/// `options` with the pool width replaced.
pub(crate) fn with_jobs(options: &ProverOptions, jobs: usize) -> ProverOptions {
    ProverOptions {
        jobs,
        ..options.clone()
    }
}

/// How a property's outcome was actually obtained (the plan, demoted to
/// [`Reuse::Reproved`] when validation rejects reused content).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reuse {
    /// The previous certificate was returned unchanged.
    Full,
    /// Unchanged cases were spliced from the previous certificate; dirty
    /// cases re-proved.
    Partial,
    /// Proved from scratch.
    Reproved,
}

impl Reuse {
    /// Stable lower-case name, as used in instrumentation events.
    pub fn as_str(self) -> &'static str {
        match self {
            Reuse::Full => "full",
            Reuse::Partial => "partial",
            Reuse::Reproved => "reproved",
        }
    }
}

/// Per-property observer invoked as each property's outcome is decided:
/// `(property, reuse, outcome, wall_ms)`. May be called from worker
/// threads, in completion (not declaration) order.
pub type PropObserver<'a> = &'a (dyn Fn(&str, Reuse, &Outcome, f64) + Sync);

/// Which certificates an engine run produces that it passes through the
/// independent checker ([`crate::check_certificate_with`]) before
/// returning them. Full reuses of [`VerifyRun::previous`] are returned as
/// they are, and everything built on [`VerifyRun::loaded`] is checked,
/// whatever this says: trust follows where a certificate came from.
///
/// A rejected reused or spliced certificate falls back to a re-prove; a
/// rejected fresh certificate is a prover bug and fails the run with
/// [`VerifyError::CertificateRejected`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Checks {
    /// Check only what was built on loaded certificates.
    #[default]
    None,
    /// Check every certificate this run produced (fresh proofs and
    /// per-case splices) as well.
    Produced,
}

/// One engine run's inputs beyond the program and the options.
#[derive(Clone, Copy, Default)]
pub struct VerifyRun<'a> {
    /// Certificates an earlier run produced in this process, planned onto
    /// the reuse ladder; a full reuse returns one as it is.
    pub previous: &'a [(String, Certificate)],
    /// Certificates read from unreliable media such as the proof store,
    /// planned like `previous`. Each one, and each splice of one, passes
    /// the checker before it is returned; a rejected one is re-proved. No
    /// property may appear in both slices.
    pub loaded: &'a [(String, Certificate)],
    /// Verify only this property (every property when `None`).
    pub property: Option<&'a str>,
    /// Cross-property proof cache; `None` gives the run a fresh one.
    pub cache: Option<&'a ProofCache>,
    /// Which certificates are checked before they are returned.
    pub checks: Checks,
    /// Called as each property's outcome is decided.
    pub observer: Option<PropObserver<'a>>,
    /// The program's abstraction, when the caller keeps one (a
    /// [`crate::ResidentProgram`]'s); `None` builds it for this run. It
    /// must be the abstraction of the program being verified.
    pub abstraction: Option<&'a Abstraction<'a>>,
}

/// The verification engine: the one place proof work fans out.
///
/// Every requested property is planned onto the reuse ladder (all plans
/// are [`ReusePlan::Reprove`] when `run.previous` and `run.loaded` are
/// empty). `Reprove` plans split into their obligations (`oblig.rs`);
/// `Full`/`Partial` plans and whole properties (`Enables`/`Disables`)
/// are single units.
/// The units run on the [`crate::sched`] pool with
/// [`ProverOptions::jobs`] workers in three passes — prepare every
/// property, discharge every obligation of every property, assemble and
/// check every property — and results are read back in declaration
/// order, so outcomes and certificates are identical for every job count.
///
/// At one worker the engine instead finishes one property (including its
/// check) before preparing the next, in declaration order, and stops a
/// trace property at its first failing case — the order of budget ticks
/// (and so the `Outcome::Timeout` set under a node or virtual-clock
/// budget) is then exactly that of a property-at-a-time prover.
///
/// A panic anywhere in a property's preparation, obligations, assembly or
/// check becomes that property's [`Outcome::Crashed`]; its siblings are
/// unaffected.
///
/// # Errors
///
/// [`VerifyError::NoSuchProperty`] for an unknown `run.property`,
/// malformed `run.previous` and `run.loaded` (see [`DepGraph::build`]),
/// and [`VerifyError::CertificateRejected`] when a fresh certificate
/// fails a requested check.
pub fn reverify_core(
    new: &CheckedProgram,
    options: &ProverOptions,
    run: VerifyRun<'_>,
) -> Result<IncrementalReport, VerifyError> {
    let graph = DepGraph::build(run.previous.iter().chain(run.loaded))?;
    let props: Vec<&PropertyDecl> = match run.property {
        Some(name) => {
            vec![new
                .program()
                .property(name)
                .ok_or_else(|| VerifyError::NoSuchProperty {
                    name: name.to_owned(),
                })?]
        }
        None => new.program().properties.iter().collect(),
    };
    let built;
    let abs = match run.abstraction {
        Some(abs) => {
            assert!(
                std::ptr::eq(abs.checked(), new),
                "a prebuilt abstraction must be the verified program's own"
            );
            abs
        }
        None => {
            built = Abstraction::build(new, options);
            &built
        }
    };
    let ranges = abs.ranges_fp();
    let plans = props
        .into_iter()
        .map(|p| (p, graph.plan(&p.name, new, ranges)))
        .collect();
    let own_cache;
    let cache = match run.cache {
        Some(cache) => cache,
        None => {
            own_cache = ProofCache::new();
            &own_cache
        }
    };
    let engine = Engine {
        abs,
        options,
        graph: &graph,
        cache,
        run: &run,
        plans,
    };
    let decided = match options.effective_jobs() {
        1 => engine.run_serial(),
        jobs => engine.run_pooled(jobs),
    }?;

    let mut report = IncrementalReport {
        outcomes: Vec::with_capacity(decided.len()),
        reused: Vec::new(),
        partial: Vec::new(),
        reproved: Vec::new(),
    };
    for ((prop, _), (outcome, used)) in engine.plans.iter().zip(decided) {
        let name = prop.name.clone();
        match used {
            Reuse::Full => report.reused.push(name.clone()),
            Reuse::Partial => report.partial.push(name.clone()),
            Reuse::Reproved => report.reproved.push(name.clone()),
        }
        report.outcomes.push((name, outcome));
    }
    Ok(report)
}

/// One property's work in an engine run.
// `Prove` is the common case and lives only for one run; boxing it would
// cost an allocation per property for nothing.
#[allow(clippy::large_enum_variant)]
enum Task<'a, 'p> {
    /// A `Reprove` plan, split into obligations.
    Prove(oblig::Prepared<'a, 'p>),
    /// A `Full` or `Partial` plan: one unit.
    Reuse,
}

/// One unit's result.
enum UnitResult {
    Oblig(oblig::UnitOut),
    Reused(Outcome, Reuse),
    Crashed(Outcome),
}

struct Engine<'a, 'p> {
    abs: &'a Abstraction<'p>,
    options: &'a ProverOptions,
    graph: &'a DepGraph<'a>,
    cache: &'a ProofCache,
    run: &'a VerifyRun<'a>,
    plans: Vec<(&'a PropertyDecl, ReusePlan)>,
}

type Decided = (Outcome, Reuse);

impl<'a, 'p> Engine<'a, 'p> {
    fn run_serial(&self) -> Result<Vec<Decided>, VerifyError> {
        reflex_symbolic::with_scratch(|| {
            (0..self.plans.len())
                .map(|i| {
                    let (task, mut spent) = self.prepare(i);
                    let mut units = Vec::new();
                    for u in 0..unit_count(&task) {
                        let (unit, ms) = self.unit(i, &task, u);
                        spent += ms;
                        // A trace property stops at its first failing case.
                        // Non-interference cases all run, as the
                        // property-at-a-time NI prover always did.
                        let stop = matches!(
                            unit,
                            UnitResult::Crashed(_)
                                | UnitResult::Oblig(oblig::UnitOut::Case(Err(_)))
                        );
                        units.push(unit);
                        if stop {
                            break;
                        }
                    }
                    self.finish(i, task, units, spent)
                })
                .collect()
        })
    }

    fn run_pooled(&self, jobs: usize) -> Result<Vec<Decided>, VerifyError> {
        let n = self.plans.len();
        let prepared = crate::sched::run_indexed(jobs, n, |i| self.prepare(i));
        let flat: Vec<(usize, usize)> = prepared
            .iter()
            .enumerate()
            .flat_map(|(i, (task, _))| (0..unit_count(task)).map(move |u| (i, u)))
            .collect();
        let mut results = crate::sched::run_indexed(jobs, flat.len(), |k| {
            let (i, u) = flat[k];
            self.unit(i, &prepared[i].0, u)
        })
        .into_iter();
        // Regroup the property-major unit results; each property is then
        // assembled (and checked) by whichever worker takes it.
        type Slot<'a, 'p> = Mutex<Option<(Task<'a, 'p>, Vec<UnitResult>, f64)>>;
        let slots: Vec<Slot<'_, '_>> = prepared
            .into_iter()
            .map(|(task, mut spent)| {
                let units = (0..unit_count(&task))
                    .map(|_| {
                        let (unit, ms) = results.next().expect("every unit has a result");
                        spent += ms;
                        unit
                    })
                    .collect();
                Mutex::new(Some((task, units, spent)))
            })
            .collect();
        crate::sched::run_indexed(jobs, n, |i| {
            let (task, units, spent) = slots[i]
                .lock()
                .expect("engine slot poisoned")
                .take()
                .expect("each property is finished once");
            self.finish(i, task, units, spent)
        })
        .into_iter()
        .collect()
    }

    /// Splits property `i`'s `Reprove` plan into obligations (running its
    /// pre-checks and base cases).
    fn prepare(&self, i: usize) -> (Task<'a, 'p>, f64) {
        let start = Instant::now();
        let (prop, plan) = &self.plans[i];
        let task = match plan {
            ReusePlan::Reprove => Task::Prove(
                catch_crash(&prop.name, || {
                    oblig::prepare(self.abs, self.options, prop, Some(self.cache))
                })
                .unwrap_or_else(|crashed| oblig::Prepared::Done(Box::new(crashed))),
            ),
            ReusePlan::Full | ReusePlan::Partial { .. } => Task::Reuse,
        };
        (task, ms_since(start))
    }

    /// Runs unit `u` of property `i`.
    fn unit(&self, i: usize, task: &Task<'_, '_>, u: usize) -> (UnitResult, f64) {
        let start = Instant::now();
        let (prop, plan) = &self.plans[i];
        let result = catch_crash(&prop.name, || match task {
            Task::Prove(prepared) => UnitResult::Oblig(oblig::run_unit(
                prepared,
                u,
                self.abs,
                self.options,
                Some(self.cache),
            )),
            Task::Reuse => {
                let (outcome, used) = self.reuse(prop, plan);
                UnitResult::Reused(outcome, used)
            }
        })
        .unwrap_or_else(UnitResult::Crashed);
        (result, ms_since(start))
    }

    /// Assembles property `i` from its unit results, applies the check
    /// rule and reports it to the observer.
    fn finish(
        &self,
        i: usize,
        task: Task<'_, '_>,
        units: Vec<UnitResult>,
        spent_ms: f64,
    ) -> Result<Decided, VerifyError> {
        let start = Instant::now();
        let name = &self.plans[i].0.name;
        let decided = catch_crash(name, || -> Result<Decided, VerifyError> {
            let mut outs = Vec::with_capacity(units.len());
            let mut reused = None;
            for unit in units {
                match unit {
                    UnitResult::Crashed(crashed) => return Ok((crashed, Reuse::Reproved)),
                    UnitResult::Oblig(out) => outs.push(out),
                    UnitResult::Reused(outcome, used) => reused = Some((outcome, used)),
                }
            }
            let (outcome, used) = match task {
                Task::Prove(prepared) => {
                    (oblig::assemble(prepared, outs, self.abs), Reuse::Reproved)
                }
                Task::Reuse => reused.expect("a reuse plan has one unit"),
            };
            if used == Reuse::Reproved && self.run.checks != Checks::None {
                if let Outcome::Proved(cert) = &outcome {
                    crate::check_certificate_with(self.abs, cert, self.options).map_err(|e| {
                        VerifyError::CertificateRejected {
                            name: name.clone(),
                            message: e.to_string(),
                        }
                    })?;
                }
            }
            Ok((outcome, used))
        })
        .unwrap_or_else(|crashed| Ok((crashed, Reuse::Reproved)))?;
        if let Some(observe) = self.run.observer {
            observe(name, decided.1, &decided.0, spent_ms + ms_since(start));
        }
        Ok(decided)
    }

    /// Runs a `Full` or `Partial` plan. Content that fails a check is
    /// re-proved from scratch instead.
    fn reuse(&self, prop: &PropertyDecl, plan: &ReusePlan) -> Decided {
        let name = &prop.name;
        let loaded = self.run.loaded.iter().any(|(n, _)| n == name);
        let passes = |cert: &Certificate| {
            crate::check_certificate_with(self.abs, cert, self.options).is_ok()
        };
        let reprove = || {
            let outcome = crate::prove_with_cache(self.abs, name, self.options, Some(self.cache))
                .expect("planned properties come from the program");
            (outcome, Reuse::Reproved)
        };
        let prior = self.graph.certificate(name);
        match (plan, prior) {
            (ReusePlan::Full, Some(cert)) => {
                if loaded && !passes(cert) {
                    return reprove();
                }
                (Outcome::Proved(cert.clone()), Reuse::Full)
            }
            (ReusePlan::Partial { dirty }, Some(Certificate::Trace(prior))) => {
                let PropBody::Trace(tp) = &prop.body else {
                    unreachable!("plan is Partial only for trace properties");
                };
                let shared = self.options.shared_cache.then_some(self.cache);
                let mut outcome = crate::trace_prover::prove_trace_partial(
                    self.abs,
                    self.options,
                    prop,
                    tp,
                    shared,
                    prior,
                    dirty,
                );
                if let Outcome::Proved(cert) = &mut outcome {
                    cert.set_deps(DepSet::compute(
                        self.abs.checked(),
                        self.abs.ranges_fp(),
                        cert,
                    ));
                    if (loaded || self.run.checks != Checks::None) && !passes(cert) {
                        return reprove();
                    }
                }
                (outcome, Reuse::Partial)
            }
            _ => unreachable!("reuse plans exist only for stored certificates"),
        }
    }
}

fn unit_count(task: &Task<'_, '_>) -> usize {
    match task {
        Task::Prove(prepared) => oblig::unit_count(prepared),
        Task::Reuse => 1,
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}
