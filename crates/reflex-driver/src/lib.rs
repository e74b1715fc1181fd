//! The unified verification session engine behind every `rx` entry point.
//!
//! The paper's pushbutton thesis rests on one fixed pipeline shape —
//! parse → typecheck → symbolically evaluate → prove over the behavioral
//! abstraction — yet a growing toolchain keeps re-wiring that shape by
//! hand: the CLI, the watch loop, the incremental validator and the
//! benchmark harness each had private copies of the same staging, stats
//! and error plumbing. This crate is the one copy they all share now:
//!
//! * [`VerifySession`] — a staged pipeline
//!   (`Load → Parse → Typecheck → Plan → Prove → Persist → Report`) over a
//!   shared [`Env`] (cross-property [`ProofCache`], prover options — whose
//!   `jobs` is the width of the one obligation pool — proof store handle,
//!   session budget). Many sessions over one [`Env`] verify many kernels
//!   while sharing the term interner and each program's proof cache;
//! * [`Instrument`] — structured per-stage events (wall time, cache and
//!   store hit counts, proof-search node counts) into pluggable sinks:
//!   human text, JSON lines, in-memory for tests and benches;
//! * cooperative cancellation and wall-clock/node budgets
//!   ([`reflex_verify::ProofBudget`]) threaded into the provers, so a
//!   stuck property degrades to a reported [`Outcome::Timeout`] instead of
//!   hanging the batch.
//!
//! Determinism contract: outcomes and certificates are byte-identical for
//! every `jobs` value (inherited from [`reflex_verify`]'s pure-package
//! caches), and instrumentation event *counts* are a pure function of the
//! input and configuration — only timings and completion order vary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod instrument;
mod lru;
mod stats;
pub mod watch;

pub use instrument::{
    json_string, Counters, Event, HumanSink, Instrument, JsonLinesSink, MemorySink, NullSink,
    PropertyStatus, Stage,
};
pub use stats::{PropStats, ProverStats};
pub use watch::{BackoffPolicy, WatchIteration, WatchSession};

use std::fmt;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use reflex_ast::Fp;

use reflex_typeck::CheckedProgram;
use reflex_verify::certificate::Certificate;
use reflex_verify::{
    load_candidates_where, persist_outcomes, reverify_core, CacheStats, Checks, Outcome,
    ProofBudget, ProofCache, ProofStore, ProverOptions, ResidentProgram, Reuse, VerifyError,
    VerifyRun,
};

use crate::lru::Lru;

/// How many programs an [`Env`] keeps resident, and how many per-program
/// proof caches it keeps; the least recently used entry goes first.
/// Sixteen holds the seven Figure 6 kernels and the four §6.3 mutants with
/// room to spare, at 120–240 KB per resident program (mostly the
/// abstraction's per-path symbolic states) plus its recorded certificates
/// as encoded bytes (2.6 KB per Figure 6 certificate on average, 105 KB
/// for all 41). Store-backed envs record them too, since the table is
/// consulted before the store. Evicting a program drops its certificate
/// table with it.
pub const RESIDENT_CAPACITY: usize = 16;

/// A resident-table key: program name and exact source text.
type SourceKey = (String, String);

/// Why a session could not run to completion (as opposed to per-property
/// proof failures, which are reported inside [`SessionReport`]).
#[derive(Debug, Clone)]
pub enum SessionError {
    /// The kernel source could not be read.
    Load {
        /// Offending path.
        path: String,
        /// The I/O error.
        message: String,
    },
    /// The source did not parse.
    Parse(String),
    /// The program did not type-check.
    Typecheck(String),
    /// The prover rejected the request (unknown property, malformed
    /// previous certificates) or the independent checker rejected a fresh
    /// certificate.
    Verify(VerifyError),
    /// The proof store could not be opened.
    Store {
        /// Store directory.
        path: String,
        /// The I/O error.
        message: String,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Load { path, message } => write!(f, "{path}: {message}"),
            SessionError::Parse(e) => write!(f, "{e}"),
            SessionError::Typecheck(e) => write!(f, "type error: {e}"),
            SessionError::Verify(e) => write!(f, "{e}"),
            SessionError::Store { path, message } => write!(f, "{path}: {message}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<VerifyError> for SessionError {
    fn from(e: VerifyError) -> Self {
        SessionError::Verify(e)
    }
}

/// Configuration for a [`VerifySession`].
#[derive(Debug, Clone, Default)]
pub struct SessionConfig {
    /// Proof-search configuration (a session budget configured below is
    /// installed into `options.budget` automatically). `options.jobs` is
    /// the number of proof threads (`0`: one per CPU).
    pub options: ProverOptions,
    /// Persist and reuse certificates through a content-addressed proof
    /// store at this directory.
    pub store_dir: Option<String>,
    /// Wall-clock budget for the whole session, milliseconds.
    pub budget_ms: Option<u64>,
    /// Explored-path budget for the whole session.
    pub budget_nodes: Option<u64>,
    /// Verify only this property (all properties when `None`).
    pub property: Option<String>,
    /// Filesystem the proof store runs on. `None` means the real
    /// filesystem; tests and the chaos harness inject a
    /// [`reflex_verify::vfs::FaultyFs`] here to exercise the store's
    /// degradation paths end to end.
    pub store_fs: Option<Arc<dyn reflex_verify::vfs::VerifyFs>>,
    /// Treat a proof store that cannot be opened as fatal. Off by default
    /// for the watch loop, which instead starts degraded (in-memory) and
    /// re-attaches when the store recovers; `rx watch --strict-store`
    /// turns it on.
    pub strict_store: bool,
    /// Clock behind the session budget's wall-clock axis and the watch
    /// loop's retry backoff. `None` means the machine's monotonic clock;
    /// the simulator injects a [`reflex_verify::VirtualClock`] so
    /// `budget_ms` timeouts and backoff delays become deterministic
    /// functions of the work performed rather than of the host's speed.
    pub clock: Option<Arc<dyn reflex_verify::Clock>>,
}

/// Shared state of one or many sessions: options, the cross-property
/// proof caches, the resident programs, the store handle and the budget.
///
/// The term interner and the entailment memo are process-global by
/// construction, so every [`Env`] shares them implicitly. The
/// [`ProofCache`] tables are shared too, but namespaced by program
/// fingerprint: cached subproof packages are pure functions of
/// *(program, key)*, so serving a package across different programs
/// would be wrong — an env shares each program's cache across its
/// properties and across repeated sessions (the watch loop), never
/// across distinct programs.
///
/// Resident programs are keyed by program name and exact source text,
/// compared in full: a request whose source is byte-identical to an
/// earlier one reuses that request's checked program and abstraction
/// ([`VerifySession::verify_source`]) and, in a checked run, the
/// certificates the checker accepted for it, before any store lookup.
/// Both tables hold at most [`RESIDENT_CAPACITY`] entries.
#[derive(Debug)]
pub struct Env {
    /// Prover configuration, with the session budget installed.
    pub options: ProverOptions,
    /// Per-program cross-property proof caches, keyed by the program's
    /// canonical content fingerprint.
    caches: Mutex<Lru<Fp, Arc<ProofCache>>>,
    /// Type-checked programs and their abstractions, by name and source.
    resident: Mutex<Lru<SourceKey, Arc<ResidentProgram>>>,
    /// Proof store, when persistence is configured. Behind a lock so the
    /// watch loop can detach it on repeated I/O failure (degraded mode)
    /// and re-attach it on recovery without rebuilding the env.
    store: RwLock<Option<ProofStore>>,
    /// The session budget / cancellation token, if one was configured.
    pub budget: Option<Arc<ProofBudget>>,
}

impl Env {
    /// Builds the shared state: opens the store, creates the budget and
    /// installs it into the prover options.
    pub fn new(config: &SessionConfig) -> Result<Env, SessionError> {
        let store = match &config.store_dir {
            Some(dir) => {
                let opened = match &config.store_fs {
                    Some(fs) => ProofStore::open_with(dir, Arc::clone(fs)),
                    None => ProofStore::open(dir),
                };
                Some(opened.map_err(|e| SessionError::Store {
                    path: dir.clone(),
                    message: e.to_string(),
                })?)
            }
            None => None,
        };
        let budget = (config.budget_ms.is_some() || config.budget_nodes.is_some()).then(|| {
            let clock = config
                .clock
                .clone()
                .unwrap_or_else(reflex_verify::RealClock::shared);
            Arc::new(ProofBudget::new_with_clock(
                clock,
                config.budget_ms.map(std::time::Duration::from_millis),
                config.budget_nodes,
            ))
        });
        let mut options = config.options.clone();
        options.budget = budget.clone();
        Ok(Env {
            options,
            caches: Mutex::new(Lru::new(RESIDENT_CAPACITY)),
            resident: Mutex::new(Lru::new(RESIDENT_CAPACITY)),
            store: RwLock::new(store),
            budget,
        })
    }

    /// A snapshot of the proof store handle, if one is attached. The
    /// handle is cheap to clone (a path plus shared counters); sessions
    /// take one snapshot per run so a mid-run detach cannot split a run
    /// between two store states.
    pub fn store(&self) -> Option<ProofStore> {
        self.store.read().expect("store slot poisoned").clone()
    }

    /// Whether a proof store is currently attached.
    pub fn has_store(&self) -> bool {
        self.store.read().expect("store slot poisoned").is_some()
    }

    /// Attaches (or replaces) the proof store — the watch loop's recovery
    /// path.
    pub fn attach_store(&self, store: ProofStore) {
        *self.store.write().expect("store slot poisoned") = Some(store);
    }

    /// Detaches the proof store, returning the old handle — the watch
    /// loop's degradation path. Subsequent sessions run purely in memory.
    pub fn detach_store(&self) -> Option<ProofStore> {
        self.store.write().expect("store slot poisoned").take()
    }

    /// The proof cache for the program with canonical fingerprint `fp`
    /// (created on first use). Repeated sessions over the same program —
    /// watch iterations, batch retries — share one cache; distinct
    /// programs never do. An evicted program starts over with an empty
    /// cache, which costs time but never changes a certificate.
    pub fn cache_for(&self, fp: Fp) -> Arc<ProofCache> {
        self.caches
            .lock()
            .expect("cache map poisoned")
            .get_or_insert(|k| *k == fp, || (fp, Arc::default()))
    }

    /// Proof caches currently kept (at most [`RESIDENT_CAPACITY`]).
    pub fn cache_count(&self) -> usize {
        self.caches.lock().expect("cache map poisoned").len()
    }

    /// The resident program named `name` with exactly the source `src`.
    pub fn resident(&self, name: &str, src: &str) -> Option<Arc<ResidentProgram>> {
        self.resident
            .lock()
            .expect("resident table poisoned")
            .get(|(n, s)| n == name && s == src)
    }

    /// Makes `checked` — the program `src` under `name` — resident and
    /// returns the table's entry. When another session made the same
    /// source resident first, that entry wins and `checked` is dropped.
    pub fn make_resident(
        &self,
        name: &str,
        src: &str,
        checked: CheckedProgram,
    ) -> Arc<ResidentProgram> {
        let program = ResidentProgram::new(checked, &self.options);
        self.resident
            .lock()
            .expect("resident table poisoned")
            .get_or_insert(
                |(n, s)| n == name && s == src,
                || ((name.to_owned(), src.to_owned()), Arc::new(program)),
            )
    }

    /// Programs currently resident (at most [`RESIDENT_CAPACITY`]).
    pub fn resident_count(&self) -> usize {
        self.resident.lock().expect("resident table poisoned").len()
    }
}

/// The result of one session run: outcomes, reuse classification, store
/// traffic, the counter block, and the single serializer every `--stats`
/// and `--json` consumer goes through. `Clone` so a resident service can
/// cache whole reports for idempotent retries.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Program name.
    pub program: String,
    /// `(property, outcome)` in declaration order.
    pub outcomes: Vec<(String, Outcome)>,
    /// Properties whose previous certificates were reused wholesale.
    pub reused: Vec<String>,
    /// Properties whose certificates were patched per-case.
    pub partial: Vec<String>,
    /// Properties proved from scratch.
    pub reproved: Vec<String>,
    /// Certificates read from the proof store in this run. A resident
    /// program's recorded certificates are served before the store is
    /// consulted and are not counted here. A session sets it to the
    /// length of `from_store`; it is kept as its own field because the
    /// wire protocol carries this count and not the names.
    pub store_loaded: usize,
    /// The properties whose certificates were read from the proof store,
    /// in declaration order, or `None` for a report decoded from the
    /// wire, which does not carry them.
    pub from_store: Option<Vec<String>>,
    /// Certificates written back to the proof store.
    pub store_saved: usize,
    /// Whether every certificate in this report passed the independent
    /// checker in this process: during this run, except full reuses of
    /// an in-process previous run, which are returned as they were. Those
    /// are the watch loop's previous certificates, or a resident
    /// program's recorded ones, which passed the checker when a checked
    /// run first produced them. Certificates read from the store are
    /// checked in every run. Store runs always check; only
    /// [`VerifySession::without_certificate_checks`] turns this off.
    pub certificates_checked: bool,
    /// The run's counter block and per-property rows.
    pub stats: ProverStats,
    /// Whole-session wall-clock, milliseconds.
    pub wall_ms: f64,
}

impl SessionReport {
    /// Properties proved.
    pub fn proved(&self) -> usize {
        self.outcomes.iter().filter(|(_, o)| o.is_proved()).count()
    }

    /// Properties not proved (genuine failures *and* budget timeouts —
    /// both mean "no certificate", which is what exit codes care about).
    pub fn failures(&self) -> usize {
        self.outcomes.len() - self.proved()
    }

    /// Properties stopped by the session budget.
    pub fn timeouts(&self) -> usize {
        self.outcomes.iter().filter(|(_, o)| o.is_timeout()).count()
    }

    /// Properties stopped by an explicit cancellation request.
    pub fn cancellations(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, o)| o.is_cancelled())
            .count()
    }

    /// How many proof tasks panicked and were isolated as
    /// [`Outcome::Crashed`].
    pub fn crashes(&self) -> usize {
        self.outcomes.iter().filter(|(_, o)| o.is_crashed()).count()
    }

    /// One ✓/✗/⏱ line per property (plus an indented failure reason),
    /// matching the `rx verify` output format.
    pub fn render_properties(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (name, outcome) in &self.outcomes {
            match outcome {
                Outcome::Proved(cert) => {
                    // Certificates read from the store are re-checked;
                    // in-process full reuses never are.
                    let reused = self.reused.iter().any(|n| n == name);
                    let patched = self.partial.iter().any(|n| n == name);
                    let reuse = match &self.from_store {
                        Some(names) if names.iter().any(|n| n == name) => {
                            ", reused from store, re-checked"
                        }
                        // A decoded report counts its store reads but
                        // does not name them.
                        None if self.store_loaded > 0 => ", reused",
                        _ => ", reused from the previous run",
                    };
                    let how = match (reused, patched, self.certificates_checked) {
                        (true, _, _) => reuse,
                        (_, true, true) => ", patched per-case, re-checked",
                        (_, true, false) => ", patched per-case",
                        (_, _, true) => ", certificate checked",
                        _ => "",
                    };
                    let _ = writeln!(
                        s,
                        "  ✓ {name}  ({} obligations{how})",
                        cert.obligation_count()
                    );
                }
                Outcome::Timeout(failure) => {
                    let _ = writeln!(s, "  ⏱ {name} (timeout)");
                    let _ = writeln!(s, "      {failure}");
                }
                Outcome::Cancelled(failure) => {
                    let _ = writeln!(s, "  ⊘ {name} (cancelled)");
                    let _ = writeln!(s, "      {failure}");
                }
                Outcome::Crashed(failure) => {
                    let _ = writeln!(s, "  ✗ {name} (crashed)");
                    let _ = writeln!(s, "      {failure}");
                }
                Outcome::Failed(failure) => {
                    let _ = writeln!(s, "  ✗ {name}");
                    let _ = writeln!(s, "      {failure}");
                }
            }
        }
        s
    }

    /// One summary line, e.g.
    /// `5 reused, 1 patched, 2 re-proved (3 from store) in 412.0 ms`.
    pub fn summary(&self) -> String {
        let store = if self.store_loaded > 0 {
            format!(" ({} from store)", self.store_loaded)
        } else {
            String::new()
        };
        format!(
            "{} reused, {} patched, {} re-proved{store} in {:.1} ms",
            self.reused.len(),
            self.partial.len(),
            self.reproved.len(),
            self.wall_ms
        )
    }

    /// The human-readable counter block (`rx verify --stats`).
    pub fn render_stats(&self) -> String {
        self.stats.render()
    }

    /// The whole report as one JSON document (`rx verify --json`). Same
    /// field names as the event stream, so the two can be joined.
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut props = String::new();
        for (i, (name, outcome)) in self.outcomes.iter().enumerate() {
            if i > 0 {
                props.push(',');
            }
            let status = status_of(outcome);
            let row = self.stats.properties.iter().find(|p| p.name == *name);
            let _ = write!(
                props,
                r#"{{"name":{},"status":"{}","obligations":{},"wall_ms":{:.1}}}"#,
                json_string(name),
                status.as_str(),
                outcome
                    .certificate()
                    .map_or(0, Certificate::obligation_count),
                row.map_or(0.0, |p| p.wall_ms),
            );
        }
        format!(
            concat!(
                r#"{{"program":{},"jobs":{},"wall_ms":{:.1},"#,
                r#""proved":{},"failed":{},"timeout":{},"cancelled":{},"crashed":{},"#,
                r#""reused":{},"partial":{},"reproved":{},"#,
                r#""store_loaded":{},"store_saved":{},"#,
                r#""paths_explored":{},"cache_hits":{},"cache_misses":{},"#,
                r#""solver_queries":{},"solver_memo_hits":{},"interned_terms":{},"#,
                r#""properties":[{}]}}"#
            ),
            json_string(&self.program),
            self.stats.jobs,
            self.wall_ms,
            self.proved(),
            self.failures() - self.timeouts() - self.cancellations() - self.crashes(),
            self.timeouts(),
            self.cancellations(),
            self.crashes(),
            self.reused.len(),
            self.partial.len(),
            self.reproved.len(),
            self.store_loaded,
            self.store_saved,
            self.stats.paths_explored,
            self.stats.cache.invariant_hits + self.stats.cache.lemma_hits,
            self.stats.cache.invariant_misses + self.stats.cache.lemma_misses,
            self.stats.solver_queries,
            self.stats.solver_memo_hits,
            self.stats.interned_terms,
            props
        )
    }
}

fn status_of(outcome: &Outcome) -> PropertyStatus {
    match outcome {
        Outcome::Proved(_) => PropertyStatus::Proved,
        Outcome::Timeout(_) => PropertyStatus::Timeout,
        Outcome::Cancelled(_) => PropertyStatus::Cancelled,
        Outcome::Failed(_) => PropertyStatus::Failed,
        Outcome::Crashed(_) => PropertyStatus::Crashed,
    }
}

/// A staged, instrumented verification pipeline over a shared [`Env`].
///
/// One session verifies one program (from a path, source text, a checked
/// program, or incrementally against previous certificates); construct
/// many sessions over one [`Env`] to share the proof cache and budget
/// across kernels.
#[derive(Debug, Clone)]
pub struct VerifySession {
    env: Arc<Env>,
    /// Verify only this property, when set.
    property: Option<String>,
    /// Check the certificates this session produces with the independent
    /// checker (store candidates are checked regardless).
    check_certificates: bool,
    /// Request-scoped prover options: the env's options with this
    /// session's own budget installed. `None` means the env's options
    /// (and env-wide budget, if any) apply unchanged. This is what lets a
    /// long-lived service env run many concurrent request sessions, each
    /// under its own budget.
    options_override: Option<ProverOptions>,
}

impl VerifySession {
    /// A session with its own fresh [`Env`].
    pub fn new(config: SessionConfig) -> Result<VerifySession, SessionError> {
        let property = config.property.clone();
        Ok(VerifySession {
            env: Arc::new(Env::new(&config)?),
            property,
            check_certificates: true,
            options_override: None,
        })
    }

    /// A session over an existing shared [`Env`].
    pub fn with_env(env: Arc<Env>) -> VerifySession {
        VerifySession {
            env,
            property: None,
            check_certificates: true,
            options_override: None,
        }
    }

    /// A request-scoped session over a shared [`Env`] with its own
    /// budget: the env's interner, caches and store are shared, but this
    /// session's proof work ticks (and is cancelled) against `budget`
    /// alone. Pass `None` to drop an env-wide budget for this request.
    pub fn with_env_budget(env: Arc<Env>, budget: Option<Arc<ProofBudget>>) -> VerifySession {
        let mut options = env.options.clone();
        options.budget = budget;
        VerifySession {
            env,
            property: None,
            check_certificates: true,
            options_override: Some(options),
        }
    }

    /// Restricts the session to one property (the service core's
    /// single-property requests), with or without a store.
    pub fn with_property(mut self, property: Option<String>) -> VerifySession {
        self.property = property;
        self
    }

    /// The shared state (options, cache, store, budget).
    pub fn env(&self) -> &Arc<Env> {
        &self.env
    }

    /// The prover options this session actually runs under: the env's,
    /// unless a request-scoped budget was installed.
    fn options(&self) -> &ProverOptions {
        self.options_override.as_ref().unwrap_or(&self.env.options)
    }

    /// The session budget, for cooperative cancellation from another
    /// thread ([`ProofBudget::cancel`]). A request-scoped budget shadows
    /// the env-wide one.
    pub fn budget(&self) -> Option<&Arc<ProofBudget>> {
        match &self.options_override {
            Some(options) => options.budget.as_ref(),
            None => self.env.budget.as_ref(),
        }
    }

    /// Disables independent-checker validation of the certificates this
    /// session produces (with a store attached, every certificate is
    /// checked regardless). A storeless session built this way neither
    /// reads nor records the resident certificate table.
    pub fn without_certificate_checks(mut self) -> VerifySession {
        self.check_certificates = false;
        self
    }

    /// Runs the full pipeline on a kernel file: `Load` through `Report`.
    pub fn verify_path(
        &self,
        path: &str,
        sink: &dyn Instrument,
    ) -> Result<SessionReport, SessionError> {
        let load_start = Instant::now();
        sink.event(&Event::StageStart { stage: Stage::Load });
        let src = std::fs::read_to_string(path).map_err(|e| SessionError::Load {
            path: path.to_owned(),
            message: e.to_string(),
        })?;
        let name = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("kernel")
            .to_owned();
        sink.event(&Event::StageFinish {
            stage: Stage::Load,
            wall_ms: ms_since(load_start),
        });
        self.verify_source(&name, &src, sink)
    }

    /// Runs the pipeline on in-memory source: `Parse` through `Report`.
    /// A source already resident in the env skips parsing, type checking
    /// and the abstraction build (see [`VerifySession::load_source`]).
    pub fn verify_source(
        &self,
        name: &str,
        src: &str,
        sink: &dyn Instrument,
    ) -> Result<SessionReport, SessionError> {
        let (program, _) = self.load_source(name, src, sink)?;
        self.verify_resident(&program, sink)
    }

    /// `Parse → Typecheck` through the env's resident table: returns the
    /// resident program for `name` and exactly `src`, and whether it was
    /// resident already. A miss parses, type-checks and makes the result
    /// resident; a source that fails either stage is never resident.
    ///
    /// Both stages emit their start and finish events on a hit too, so
    /// event counts stay a pure function of the input.
    pub fn load_source(
        &self,
        name: &str,
        src: &str,
        sink: &dyn Instrument,
    ) -> Result<(Arc<ResidentProgram>, bool), SessionError> {
        let start = |stage| {
            sink.event(&Event::StageStart { stage });
            Instant::now()
        };
        let finish = |stage, started| {
            sink.event(&Event::StageFinish {
                stage,
                wall_ms: ms_since(started),
            });
        };
        let parse_start = start(Stage::Parse);
        if let Some(program) = self.env.resident(name, src) {
            finish(Stage::Parse, parse_start);
            finish(Stage::Typecheck, start(Stage::Typecheck));
            return Ok((program, true));
        }
        let program = reflex_parser::parse_program(name, src)
            .map_err(|e| SessionError::Parse(e.to_string()))?;
        finish(Stage::Parse, parse_start);

        let typecheck_start = start(Stage::Typecheck);
        let checked =
            reflex_typeck::check(&program).map_err(|e| SessionError::Typecheck(e.to_string()))?;
        let program = self.env.make_resident(name, src, checked);
        finish(Stage::Typecheck, typecheck_start);
        Ok((program, false))
    }

    /// Runs `Plan` through `Report` on a resident program, over the
    /// abstraction it keeps (built here on its first use). A checked
    /// session (every store-backed one is) plans the program's recorded
    /// certificates as the previous run's, so each recorded property is a
    /// full reuse whatever the session's budget; only the properties the
    /// table lacks are looked up in the store. It records what it proves.
    pub fn verify_resident(
        &self,
        program: &ResidentProgram,
        sink: &dyn Instrument,
    ) -> Result<SessionReport, SessionError> {
        self.run(program.checked(), Some(program), None, sink)
    }

    /// Runs `Plan` through `Report` on an already-checked program.
    pub fn verify_checked(
        &self,
        checked: &CheckedProgram,
        sink: &dyn Instrument,
    ) -> Result<SessionReport, SessionError> {
        self.run(checked, None, None, sink)
    }

    /// Runs `Plan` through `Report`, reusing `previous` certificates from
    /// an earlier in-process run (the watch loop's in-memory mode).
    pub fn verify_incremental(
        &self,
        checked: &CheckedProgram,
        previous: &[(String, Certificate)],
        sink: &dyn Instrument,
    ) -> Result<SessionReport, SessionError> {
        self.run(checked, None, Some(previous), sink)
    }

    /// The `Plan → Prove → Persist → Report` core every entry point above
    /// funnels into. `resident`, when given, is `checked`'s resident entry,
    /// whose abstraction the run uses instead of building one.
    fn run(
        &self,
        checked: &CheckedProgram,
        resident: Option<&ResidentProgram>,
        previous: Option<&[(String, Certificate)]>,
        sink: &dyn Instrument,
    ) -> Result<SessionReport, SessionError> {
        let env = &*self.env;
        let options = self.options();
        let jobs = options.effective_jobs();
        // One store snapshot per run: a concurrent detach (watch
        // degradation) must not split this run between two store states.
        let store = env.store();
        let from_store = previous.is_none() && store.is_some();
        // Store candidates must pass the checker before they are trusted;
        // with checks on, so must everything this run produces.
        let checks = if from_store || self.check_certificates {
            Checks::Produced
        } else {
            Checks::None
        };
        // The first rung: a checked run of a resident program starts from
        // the certificates the checker already accepted for it in this
        // process, and records what it proves. The store is the second.
        let recorded = match resident {
            Some(program) if previous.is_none() && checks == Checks::Produced => Some(program),
            _ => None,
        };
        let session_start = Instant::now();
        sink.event(&Event::SessionStart {
            program: checked.program().name.clone(),
            jobs,
        });

        // ---- Plan: previous / recorded certificates, then the store -----
        let plan_start = Instant::now();
        sink.event(&Event::StageStart { stage: Stage::Plan });
        let mut candidates: Vec<(String, Certificate)> = match (previous, recorded) {
            (Some(prev), _) => prev.to_vec(),
            (None, Some(program)) => program.certified(options, self.property.as_deref()),
            (None, None) => Vec::new(),
        };
        if let Some(property) = &self.property {
            candidates.retain(|(name, _)| name == property);
        }
        let loaded = match &store {
            Some(store) if from_store => load_candidates_where(checked, options, store, |name| {
                self.property.as_deref().is_none_or(|p| p == name)
                    && !candidates.iter().any(|(n, _)| n == name)
            }),
            _ => Vec::new(),
        };
        let from_store_names: Vec<String> = loaded.iter().map(|(name, _)| name.clone()).collect();
        let reuse_in_play = previous.is_some() || from_store || !candidates.is_empty();
        sink.event(&Event::StageFinish {
            stage: Stage::Plan,
            wall_ms: ms_since(plan_start),
        });

        // ---- Prove ------------------------------------------------------
        let prove_start = Instant::now();
        sink.event(&Event::StageStart {
            stage: Stage::Prove,
        });
        // Storeless runs share the env's per-program cache (a repeated
        // session over the same program starts warm, also for what its
        // recorded certificates do not cover); store and incremental runs
        // get a cache of their own.
        let cache = if previous.is_some() || from_store {
            Arc::new(ProofCache::new())
        } else {
            env.cache_for(checked.fingerprints().program)
        };
        let cache_before = cache.stats();
        let prop_rows: Mutex<Vec<PropStats>> = Mutex::new(Vec::new());
        let observe = |name: &str, reuse: Reuse, outcome: &Outcome, wall_ms: f64| {
            let obligations = outcome
                .certificate()
                .map_or(0, Certificate::obligation_count);
            sink.event(&Event::Property {
                name: name.to_owned(),
                status: status_of(outcome),
                reuse: reuse_in_play.then_some(reuse.as_str()),
                obligations,
                wall_ms,
            });
            if let Ok(mut rows) = prop_rows.lock() {
                rows.push(PropStats {
                    name: name.to_owned(),
                    proved: outcome.is_proved(),
                    wall_ms,
                    obligations,
                });
            }
        };
        // This run's own counters, scoped over the whole Prove stage (the
        // engine's pool re-installs the scope on every worker), so a
        // session reports its own work alone even while other sessions
        // share the process-global interner and memo. A resident program's
        // first run counts the abstraction build, as a fresh run does.
        let counters = reflex_symbolic::SymSessionStats::new();
        let report = reflex_symbolic::with_session_stats(Arc::clone(&counters), || {
            let abstraction = resident.map(ResidentProgram::abstraction);
            reverify_core(
                checked,
                options,
                VerifyRun {
                    previous: &candidates,
                    loaded: &loaded,
                    property: self.property.as_deref(),
                    cache: Some(&cache),
                    checks,
                    observer: Some(&observe),
                    abstraction: abstraction.as_ref(),
                },
            )
        })?;
        // Every certificate of a checked run passed the checker in this
        // process: in this run, or before it was recorded.
        if let Some(program) = recorded {
            program.record_checked(options, &report.outcomes);
        }
        sink.event(&Event::StageFinish {
            stage: Stage::Prove,
            wall_ms: ms_since(prove_start),
        });

        // ---- Persist ----------------------------------------------------
        let mut store_saved = 0usize;
        if let (Some(store), None) = (&store, previous) {
            let persist_start = Instant::now();
            sink.event(&Event::StageStart {
                stage: Stage::Persist,
            });
            store_saved = persist_outcomes(checked, options, store, &report.outcomes);
            sink.event(&Event::StageFinish {
                stage: Stage::Persist,
                wall_ms: ms_since(persist_start),
            });
        }

        // ---- Report -----------------------------------------------------
        let report_start = Instant::now();
        sink.event(&Event::StageStart {
            stage: Stage::Report,
        });
        let mut rows = prop_rows.into_inner().unwrap_or_default();
        // Worker threads pushed rows in completion order; report them in
        // declaration order like every other consumer.
        rows.sort_by_key(|r| {
            report
                .outcomes
                .iter()
                .position(|(n, _)| *n == r.name)
                .unwrap_or(usize::MAX)
        });
        let stats = ProverStats {
            jobs,
            total_ms: ms_since(session_start),
            properties: rows,
            paths_explored: counters.paths_explored(),
            cache: cache_delta(&cache_before, &cache.stats()),
            solver_queries: counters.memo_queries(),
            solver_memo_hits: counters.memo_hits(),
            interned_terms: reflex_symbolic::intern_stats().nodes,
        };
        sink.event(&Event::Counters(Counters {
            paths_explored: stats.paths_explored,
            cache_hits: stats.cache.invariant_hits + stats.cache.lemma_hits,
            cache_misses: stats.cache.invariant_misses + stats.cache.lemma_misses,
            solver_queries: stats.solver_queries,
            solver_memo_hits: stats.solver_memo_hits,
            interned_terms: stats.interned_terms,
            store_loaded: from_store_names.len() as u64,
            store_saved: store_saved as u64,
        }));
        sink.event(&Event::StageFinish {
            stage: Stage::Report,
            wall_ms: ms_since(report_start),
        });

        let report = SessionReport {
            program: checked.program().name.clone(),
            reused: report.reused,
            partial: report.partial,
            reproved: report.reproved,
            store_loaded: from_store_names.len(),
            from_store: Some(from_store_names),
            store_saved,
            certificates_checked: checks != Checks::None,
            wall_ms: ms_since(session_start),
            stats,
            outcomes: report.outcomes,
        };
        sink.event(&Event::SessionFinish {
            proved: report.proved(),
            failed: report.failures() - report.timeouts() - report.crashes(),
            timeout: report.timeouts(),
            crashed: report.crashes(),
            wall_ms: report.wall_ms,
        });
        Ok(report)
    }
}

/// `Load → Parse → Typecheck` as a standalone helper, for entry points
/// that need a checked program without proving anything (`rx check`,
/// `rx falsify`, `rx show`, `rx run`).
pub fn load_program(path: &str) -> Result<CheckedProgram, SessionError> {
    let src = std::fs::read_to_string(path).map_err(|e| SessionError::Load {
        path: path.to_owned(),
        message: e.to_string(),
    })?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("kernel");
    let program = reflex_parser::parse_program(name, &src)
        .map_err(|e| SessionError::Parse(format!("{path}: {e}")))?;
    reflex_typeck::check(&program).map_err(|e| SessionError::Typecheck(e.to_string()))
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Session-scoped cache counters: the difference between two snapshots of
/// a long-lived (env-shared) cache. Entry counts report the live table
/// size, not a delta.
fn cache_delta(before: &CacheStats, after: &CacheStats) -> CacheStats {
    CacheStats {
        invariant_entries: after.invariant_entries,
        lemma_entries: after.lemma_entries,
        invariant_hits: after.invariant_hits.saturating_sub(before.invariant_hits),
        invariant_misses: after
            .invariant_misses
            .saturating_sub(before.invariant_misses),
        lemma_hits: after.lemma_hits.saturating_sub(before.lemma_hits),
        lemma_misses: after.lemma_misses.saturating_sub(before.lemma_misses),
    }
}
