//! Prover configuration and outcomes.

use std::fmt;

/// Configuration of the proof search.
///
/// The three toggles correspond to the §6.4 optimizations whose effect the
/// paper reports (80× average speedup, 5× memory): disabling any of them
/// only makes the search slower or weaker, never unsound. They exist so the
/// ablation benches can reproduce that experiment.
#[derive(Debug, Clone)]
pub struct ProverOptions {
    /// Skip symbolic analysis of handler cases that cannot syntactically
    /// emit an action matching the property's trigger pattern ("a simple
    /// syntactic check suffices", §6.4).
    pub syntactic_skip: bool,
    /// Prune infeasible paths and collapse entailed branches during
    /// symbolic evaluation ("domain-specific reduction strategies", §6.4).
    pub prune_paths: bool,
    /// Cache and reuse proved auxiliary invariants across obligations
    /// ("saving subproofs at key cut points", §6.4).
    pub cache_invariants: bool,
    /// Maximum depth of chained auxiliary invariants (the secondary
    /// inductions of §5.1 may themselves require supporting invariants).
    pub max_invariant_depth: usize,
    /// Share proved auxiliary invariants and lemmas *across properties*
    /// through a [`crate::ProofCache`] — §6.4's "saving subproofs at key
    /// cut points" taken fleet-wide. Cached subproofs are self-contained
    /// packages proved from a fresh context, so a cache hit and a fresh
    /// derivation yield identical certificates (see `cache.rs`); and every
    /// certificate is still validated step-by-step by the independent
    /// checker, so a cache bug can surface only as a check failure, never a
    /// wrong "Proved".
    pub shared_cache: bool,
    /// Proof threads in total: the width of the one work-stealing pool
    /// every verification runs its obligations on (see
    /// [`crate::reverify_core`]). `1` is fully serial; `0` means one worker
    /// per available CPU. Results are collected in declaration and case
    /// order, so every emitted certificate is identical for every value.
    pub jobs: usize,
    /// Optional cooperative wall-clock/node budget and cancellation token
    /// (see [`crate::ProofBudget`]). Like `jobs`, a budget can only stop a
    /// search early — it never changes what a completed search proves — so
    /// it is excluded from [`ProverOptions::fingerprint`] and from
    /// equality.
    pub budget: Option<std::sync::Arc<crate::budget::ProofBudget>>,
    /// Test-only chaos hook: the name of a property whose proof task should
    /// deliberately panic, exercising the session's panic isolation. The
    /// panic only fires when the `panic-injection` cargo feature is enabled;
    /// without it the field is inert. Like `budget`, this is run-scoped
    /// scaffolding that can only *stop* a proof, never change what one
    /// proves, so it is excluded from [`ProverOptions::fingerprint`] and
    /// from equality — a crashed property must not fork the proof-store
    /// namespace.
    pub panic_on: Option<String>,
    /// Seeded chaos hook: a [`PanicPlan`] deciding *per property name*
    /// whether its proof task should deliberately panic. The simulator's
    /// generalization of [`ProverOptions::panic_on`] (which names exactly
    /// one victim): the plan is a pure function of `(seed, property)`, so
    /// a root seed reproduces the crash set. Gated behind the same
    /// `panic-injection` feature and excluded from fingerprints and
    /// equality for the same reason.
    pub panic_plan: Option<std::sync::Arc<PanicPlan>>,
}

/// A deterministic schedule of injected proof-task panics.
///
/// Each property panics iff the FNV/SplitMix roll of `(seed, name)` lands
/// under `rate_ppm` parts per million — stateless, so serial and parallel
/// runs crash the same set. [`PanicPlan::disarm`] turns the plan off (the
/// "chaos stopped" switch the watch scenario flips before its recovery
/// pass), after which every decision is `false`.
#[derive(Debug)]
pub struct PanicPlan {
    seed: u64,
    rate_ppm: u32,
    armed: std::sync::atomic::AtomicBool,
}

impl PanicPlan {
    /// A plan firing on `rate_ppm` parts per million of property names.
    pub fn seeded(seed: u64, rate_ppm: u32) -> PanicPlan {
        PanicPlan {
            seed,
            rate_ppm,
            armed: std::sync::atomic::AtomicBool::new(true),
        }
    }

    /// Stops all injection (decisions become `false`).
    pub fn disarm(&self) {
        self.armed.store(false, std::sync::atomic::Ordering::SeqCst);
    }

    /// Whether the proof task for `property` should panic.
    pub fn should_panic(&self, property: &str) -> bool {
        self.armed.load(std::sync::atomic::Ordering::SeqCst)
            && reflex_rng::derive(self.seed, property) % 1_000_000 < u64::from(self.rate_ppm)
    }
}

// Manual impls: `budget` carries atomics (no `Eq`) and, like `panic_on`,
// is run-scoped scaffolding, not configuration — two options values are
// "the same configuration" iff the deterministic fields agree.
impl PartialEq for ProverOptions {
    fn eq(&self, other: &Self) -> bool {
        self.syntactic_skip == other.syntactic_skip
            && self.prune_paths == other.prune_paths
            && self.cache_invariants == other.cache_invariants
            && self.max_invariant_depth == other.max_invariant_depth
            && self.shared_cache == other.shared_cache
            && self.jobs == other.jobs
    }
}

impl Eq for ProverOptions {}

impl Default for ProverOptions {
    fn default() -> Self {
        ProverOptions {
            syntactic_skip: true,
            prune_paths: true,
            cache_invariants: true,
            max_invariant_depth: 6,
            shared_cache: true,
            jobs: 1,
            budget: None,
            panic_on: None,
            panic_plan: None,
        }
    }
}

impl ProverOptions {
    /// The configuration used by the paper's final system (all
    /// optimizations on).
    pub fn optimized() -> Self {
        Self::default()
    }

    /// A deliberately slow configuration with every optimization disabled,
    /// for the ablation experiment.
    pub fn unoptimized() -> Self {
        ProverOptions {
            syntactic_skip: false,
            prune_paths: false,
            cache_invariants: false,
            max_invariant_depth: 6,
            shared_cache: false,
            jobs: 1,
            budget: None,
            panic_on: None,
            panic_plan: None,
        }
    }

    /// Whether the chaos hooks request a deliberate panic for `property`
    /// (either the single-victim [`ProverOptions::panic_on`] or a seeded
    /// [`PanicPlan`]). Only consulted when the `panic-injection` feature
    /// is compiled in.
    pub fn panic_armed(&self, property: &str) -> bool {
        self.panic_on.as_deref() == Some(property)
            || self
                .panic_plan
                .as_ref()
                .is_some_and(|plan| plan.should_panic(property))
    }

    /// The number of worker threads [`ProverOptions::jobs`] resolves to
    /// (`0` means one per available CPU).
    pub fn effective_jobs(&self) -> usize {
        resolve_jobs(self.jobs)
    }

    /// A stable fingerprint of the options that can affect the *content* of
    /// an emitted certificate. Used as part of the proof-store key: a
    /// certificate proved under one configuration must never be served to a
    /// run using another.
    ///
    /// `jobs` and `shared_cache` are deliberately excluded — by
    /// construction (see [`crate::ProofCache`] and the parallel provers)
    /// they never change outcomes or certificates, and including them would
    /// needlessly split the store between serial and parallel runs.
    pub fn fingerprint(&self) -> reflex_ast::Fp {
        let mut h = reflex_ast::fingerprint::FpHasher::new();
        h.write_str("prover-options");
        h.write(&[
            u8::from(self.syntactic_skip),
            u8::from(self.prune_paths),
            u8::from(self.cache_invariants),
        ]);
        h.write(&(self.max_invariant_depth as u64).to_le_bytes());
        h.finish()
    }
}

/// Resolves a `jobs` request: `0` means one worker per available CPU.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        jobs
    }
}

/// Why the proof search failed.
///
/// Reflex automation is deliberately incomplete (§5.3): a failure means the
/// property could not be *proved*, not necessarily that it is false. Use
/// [`crate::falsify`] to search for a concrete counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProofFailure {
    /// Which part of the induction failed.
    pub location: String,
    /// Human-readable explanation of the unprovable obligation.
    pub reason: String,
}

impl fmt::Display for ProofFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.location, self.reason)
    }
}

/// The result of running the prover on one property.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The property was proved; the certificate records the full argument
    /// and can be validated independently with
    /// [`crate::check_certificate`].
    Proved(crate::certificate::Certificate),
    /// The proof search failed.
    Failed(ProofFailure),
    /// The proof search was stopped by a session budget or cancellation
    /// before it could finish (see [`crate::ProofBudget`]). Unlike
    /// [`Outcome::Failed`], this says nothing about the property — a rerun
    /// with a larger budget may well prove it.
    Timeout(ProofFailure),
    /// The proof search was stopped by an explicit cancellation request
    /// ([`crate::ProofBudget::cancel`]) rather than an exhausted
    /// allowance. Like [`Outcome::Timeout`], this says nothing about the
    /// property — the caller asked for the work to stop.
    Cancelled(ProofFailure),
    /// The proof task panicked and was isolated by [`catch_crash`]. Like
    /// [`Outcome::Timeout`], this says nothing about the property itself —
    /// it records a defect (or injected fault) in the prover run. A crashed
    /// outcome carries no certificate, so it can never be persisted to a
    /// [`crate::ProofStore`]; and because the crash hook is excluded from
    /// [`ProverOptions::fingerprint`], a crash never forks the store
    /// namespace either.
    Crashed(ProofFailure),
}

impl Outcome {
    /// Whether the property was proved.
    pub fn is_proved(&self) -> bool {
        matches!(self, Outcome::Proved(_))
    }

    /// Whether the proof search was stopped by an exhausted budget.
    pub fn is_timeout(&self) -> bool {
        matches!(self, Outcome::Timeout(_))
    }

    /// Whether the proof search was stopped by explicit cancellation.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, Outcome::Cancelled(_))
    }

    /// Whether the proof task panicked and was isolated.
    pub fn is_crashed(&self) -> bool {
        matches!(self, Outcome::Crashed(_))
    }

    /// The certificate, if proved.
    pub fn certificate(&self) -> Option<&crate::certificate::Certificate> {
        match self {
            Outcome::Proved(c) => Some(c),
            Outcome::Failed(_)
            | Outcome::Timeout(_)
            | Outcome::Cancelled(_)
            | Outcome::Crashed(_) => None,
        }
    }

    /// The failure, if the proof search failed, was stopped, or crashed.
    pub fn failure(&self) -> Option<&ProofFailure> {
        match self {
            Outcome::Proved(_) => None,
            Outcome::Failed(e)
            | Outcome::Timeout(e)
            | Outcome::Cancelled(e)
            | Outcome::Crashed(e) => Some(e),
        }
    }
}

/// Runs one proof task with panic isolation: a panic inside `f` is caught
/// and surfaced as `Err(Outcome::Crashed)` for the given property instead
/// of unwinding into (and killing) the caller's job pool.
///
/// The crash reason is the panic payload when it is a string (the common
/// case — `panic!`/`assert!` messages), so serial and parallel runs of the
/// same deterministic panic classify identically; worker scheduling decides
/// nothing.
// The Err variant is the classified verdict itself, produced at most once
// per crashed property — not an error type on a hot path worth boxing.
#[allow(clippy::result_large_err)]
pub fn catch_crash<R>(property: &str, f: impl FnOnce() -> R) -> Result<R, Outcome> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(value) => Ok(value),
        Err(payload) => {
            let reason = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_owned()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "proof task panicked with a non-string payload".to_owned()
            };
            Err(Outcome::Crashed(ProofFailure {
                location: format!("property `{property}`"),
                reason: format!("proof task panicked: {reason}"),
            }))
        }
    }
}

/// Errors that prevent the prover from running at all (as opposed to proof
/// search failures).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The named property does not exist in the program.
    NoSuchProperty {
        /// The requested name.
        name: String,
    },
    /// A previous-certificate slice contains the same property twice.
    DuplicateCertificate {
        /// The duplicated name.
        name: String,
    },
    /// A previous-certificate slice files a certificate under a name
    /// different from the property it certifies.
    CertificateMismatch {
        /// The name the certificate was filed under.
        name: String,
        /// The property the certificate actually certifies.
        certified: String,
    },
    /// A freshly produced certificate failed the independent checker — a
    /// prover bug surfacing exactly where the architecture routes it.
    CertificateRejected {
        /// The property whose certificate was rejected.
        name: String,
        /// The checker's complaint.
        message: String,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::NoSuchProperty { name } => {
                write!(f, "no property named `{name}` in the program")
            }
            VerifyError::DuplicateCertificate { name } => {
                write!(f, "two previous certificates for property `{name}`")
            }
            VerifyError::CertificateMismatch { name, certified } => {
                write!(
                    f,
                    "certificate filed under `{name}` actually certifies `{certified}`"
                )
            }
            VerifyError::CertificateRejected { name, message } => {
                write!(f, "{name}: certificate rejected by the checker: {message}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}
