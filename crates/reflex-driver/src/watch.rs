//! The edit-verify loop: repeated [`VerifySession`] runs that carry
//! certificates forward from one iteration to the next.
//!
//! With a proof store configured the carrying is done by the store itself
//! (certificates persist across processes); without one, the session
//! keeps the previous iteration's certificates in memory and hands them
//! to the incremental planner each round.
//!
//! # Degraded mode
//!
//! The watch loop must survive a flaky disk. Store I/O errors are
//! tolerated per iteration (a failed write is a future miss, a failed
//! read is a miss now); when errors persist, the loop retries the store
//! with capped exponential backoff and, if the store still fails,
//! *detaches* it and degrades to in-memory certificate carrying — the
//! same soundness, minus cross-process persistence. Every store-backed
//! iteration ends with a probe (a framed write, fsync and read-back), so
//! a failing disk is noticed even when the iteration had nothing new to
//! write. Every iteration in degraded mode probes the store and
//! re-attaches it the moment it recovers. Both transitions are reported as instrument events
//! ([`Event::StoreDegraded`] / [`Event::StoreRecovered`]) and on the
//! iteration summary. A store that cannot even be *opened* at startup
//! follows the same policy (start degraded, keep probing) unless
//! [`SessionConfig::strict_store`] demands a hard error.

use std::sync::Arc;

use reflex_typeck::CheckedProgram;
use reflex_verify::certificate::Certificate;
use reflex_verify::{Clock, ProofStore, VerifyFs};

use crate::{Event, Instrument, SessionConfig, SessionError, SessionReport, VerifySession};

/// Retry policy for a store that starts returning I/O errors: `retries`
/// probe attempts with exponential backoff from `base_ms`, capped at
/// `cap_ms`, before the store is detached.
#[derive(Debug, Clone, Copy)]
pub struct BackoffPolicy {
    /// First retry delay, milliseconds.
    pub base_ms: u64,
    /// Upper bound on any single delay, milliseconds.
    pub cap_ms: u64,
    /// Probe attempts before degrading.
    pub retries: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base_ms: 50,
            cap_ms: 2_000,
            retries: 3,
        }
    }
}

impl BackoffPolicy {
    /// The capped exponential delay before the 1-based `attempt`.
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        self.base_ms
            .checked_shl(attempt.saturating_sub(1))
            .unwrap_or(self.cap_ms)
            .min(self.cap_ms)
    }
}

/// A long-lived verification session for the watch loop.
#[derive(Debug)]
pub struct WatchSession {
    session: VerifySession,
    /// The configured store directory, kept (even while degraded) so the
    /// loop can re-open and re-attach the store when it recovers.
    store_dir: Option<String>,
    store_fs: Option<Arc<dyn VerifyFs>>,
    /// Clock behind the retry backoff: real by default, virtual under the
    /// simulator (backoff then costs simulated time only).
    clock: Arc<dyn Clock>,
    backoff: BackoffPolicy,
    /// Store configured but currently detached.
    degraded: bool,
    degraded_reason: Option<String>,
    /// The store's error counter at the last reconciliation — new errors
    /// beyond this snapshot mean the disk is acting up.
    io_errors_seen: u64,
    /// Errors were observed last iteration; the next iteration must probe
    /// (with backoff) before trusting the store again.
    pending_retry: bool,
    /// In-memory certificate carry: kept up to date in *both* modes, so
    /// degrading mid-loop loses nothing.
    previous: Vec<(String, Certificate)>,
}

/// The result of one watch iteration.
#[derive(Debug)]
pub struct WatchIteration {
    /// The underlying session report.
    pub report: SessionReport,
    /// Whether this iteration ran degraded (store detached, in-memory
    /// certificate carrying only).
    pub degraded: bool,
}

impl WatchSession {
    /// Creates a session. With `store_dir` set in the config, certificates
    /// are reused through the proof store; otherwise they are carried
    /// in memory from iteration to iteration.
    ///
    /// A store directory that cannot be opened is not fatal unless
    /// [`SessionConfig::strict_store`] is set: the session starts in
    /// degraded (in-memory) mode — see [`WatchSession::degraded_reason`]
    /// for the warning to surface — and re-attaches the store if a later
    /// iteration finds it healthy.
    pub fn new(config: SessionConfig) -> Result<WatchSession, SessionError> {
        let store_dir = config.store_dir.clone();
        let store_fs = config.store_fs.clone();
        let clock = config
            .clock
            .clone()
            .unwrap_or_else(reflex_verify::RealClock::shared);
        match VerifySession::new(config.clone()) {
            Ok(session) => {
                let io_errors_seen = session.env().store().map_or(0, |s| s.io_errors());
                Ok(WatchSession {
                    session,
                    store_dir,
                    store_fs,
                    clock,
                    backoff: BackoffPolicy::default(),
                    degraded: false,
                    degraded_reason: None,
                    io_errors_seen,
                    pending_retry: false,
                    previous: Vec::new(),
                })
            }
            Err(SessionError::Store { path, message }) if !config.strict_store => {
                let mut memory_config = config;
                memory_config.store_dir = None;
                let session = VerifySession::new(memory_config)?;
                Ok(WatchSession {
                    session,
                    store_dir,
                    store_fs,
                    clock,
                    backoff: BackoffPolicy::default(),
                    degraded: true,
                    degraded_reason: Some(format!("store open failed: {path}: {message}")),
                    io_errors_seen: 0,
                    pending_retry: false,
                    previous: Vec::new(),
                })
            }
            Err(e) => Err(e),
        }
    }

    /// A watch loop over an existing session — the service core's
    /// in-process watch path, where the core's long-lived [`Env`] (not
    /// this loop) owns the store. The loop only drives the retry /
    /// degrade / re-attach policy around the env's store slot; it starts
    /// degraded if `store_dir` is configured but the env has no store
    /// attached.
    ///
    /// [`Env`]: crate::Env
    pub fn over(
        session: VerifySession,
        store_dir: Option<String>,
        store_fs: Option<Arc<dyn VerifyFs>>,
        clock: Arc<dyn Clock>,
    ) -> WatchSession {
        let attached = session.env().has_store();
        let io_errors_seen = session.env().store().map_or(0, |s| s.io_errors());
        let degraded = store_dir.is_some() && !attached;
        WatchSession {
            session,
            store_dir,
            store_fs,
            clock,
            backoff: BackoffPolicy::default(),
            degraded,
            degraded_reason: degraded.then(|| "store not attached at startup".to_owned()),
            io_errors_seen,
            pending_retry: false,
            previous: Vec::new(),
        }
    }

    /// Overrides the store retry/backoff policy (tests use tiny delays).
    pub fn with_backoff(mut self, backoff: BackoffPolicy) -> WatchSession {
        self.backoff = backoff;
        self
    }

    /// Whether the loop is currently degraded (store configured but
    /// detached).
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Why the loop is (or started) degraded, for startup warnings.
    pub fn degraded_reason(&self) -> Option<&str> {
        self.degraded_reason.as_deref()
    }

    /// Verifies the program, reusing whatever previous certificates still
    /// apply, and remembers this iteration's certificates for the next.
    ///
    /// Store trouble never makes this return an error: transient I/O
    /// failures are retried with capped exponential backoff, persistent
    /// ones degrade the loop to in-memory carrying (with an
    /// [`Event::StoreDegraded`]), and a recovered store is re-attached
    /// (with an [`Event::StoreRecovered`]).
    pub fn verify(
        &mut self,
        checked: &CheckedProgram,
        sink: &dyn Instrument,
    ) -> Result<WatchIteration, SessionError> {
        if self.store_dir.is_some() {
            self.reconcile_store(sink);
        }
        let store_attached = self.session.env().has_store();
        let report = if store_attached {
            self.session.verify_checked(checked, sink)?
        } else {
            self.session
                .verify_incremental(checked, &self.previous, sink)?
        };
        // Keep the in-memory carry fresh in both modes: when the store
        // degrades mid-loop, the next iteration still reuses this run's
        // certificates.
        self.previous = report
            .outcomes
            .iter()
            .filter_map(|(name, o)| o.certificate().map(|c| (name.clone(), c.clone())))
            .collect();
        if store_attached {
            if let Some(store) = self.session.env().store() {
                // An iteration over an unchanged program writes nothing
                // (its certificates and head record are already stored),
                // so it ends with a probe: a disk that fails is noticed
                // on the iteration it starts failing, whatever the edit.
                let probed = store.probe().is_ok();
                let now = store.io_errors();
                if !probed || now > self.io_errors_seen {
                    self.pending_retry = true;
                }
                self.io_errors_seen = now;
            }
        }
        Ok(WatchIteration {
            report,
            degraded: self.degraded,
        })
    }

    /// Before an iteration: retry a store that erred last round (with
    /// backoff, detaching it if it stays broken), or probe a detached
    /// store for recovery (re-attaching it if healthy).
    fn reconcile_store(&mut self, sink: &dyn Instrument) {
        if self.degraded {
            if let Some(store) = self.reopen_store() {
                if store.probe().is_ok() {
                    self.io_errors_seen = store.io_errors();
                    self.session.env().attach_store(store);
                    self.degraded = false;
                    self.degraded_reason = None;
                    self.pending_retry = false;
                    sink.event(&Event::StoreRecovered);
                }
            }
            return;
        }
        if !self.pending_retry {
            return;
        }
        let Some(store) = self.session.env().store() else {
            self.pending_retry = false;
            return;
        };
        let mut healthy = false;
        let mut last_reason = "store kept failing".to_owned();
        for attempt in 1..=self.backoff.retries {
            let delay_ms = self.backoff.delay_ms(attempt);
            sink.event(&Event::StoreRetry { attempt, delay_ms });
            self.clock.sleep_ms(delay_ms);
            match store.probe() {
                Ok(()) => {
                    healthy = true;
                    break;
                }
                Err(e) => last_reason = e.to_string(),
            }
        }
        self.io_errors_seen = store.io_errors();
        self.pending_retry = false;
        if !healthy {
            self.session.env().detach_store();
            self.degraded = true;
            self.degraded_reason = Some(last_reason.clone());
            sink.event(&Event::StoreDegraded {
                reason: last_reason,
            });
        }
    }

    /// Re-opens the configured store directory on the configured
    /// filesystem (for recovery probes while degraded).
    fn reopen_store(&self) -> Option<ProofStore> {
        let dir = self.store_dir.as_ref()?;
        let opened = match &self.store_fs {
            Some(fs) => ProofStore::open_with(dir, Arc::clone(fs)),
            None => ProofStore::open(dir),
        };
        opened.ok()
    }
}

impl WatchIteration {
    /// Number of properties that failed to verify this iteration
    /// (including budget timeouts and isolated crashes).
    pub fn failures(&self) -> usize {
        self.report.failures()
    }

    /// One-line summary, e.g.
    /// `5 reused, 1 patched, 2 re-proved (3 from store) in 412.0 ms`,
    /// with a degraded-mode banner when the store is detached.
    pub fn summary(&self) -> String {
        if self.degraded {
            format!(
                "{} [DEGRADED: store detached, in-memory only]",
                self.report.summary()
            )
        } else {
            self.report.summary()
        }
    }
}
