//! The resident service core: one long-lived shared [`Env`] serving
//! many request-scoped sessions.
//!
//! [`ServiceCore`] inverts the ownership model of the one-shot CLI:
//! instead of every invocation building (and tearing down) its own
//! interner traffic, proof caches and proof store, the core owns them
//! once and multiplexes verify/check requests from many clients over
//! them. Each request runs as its own [`VerifySession`] with a
//! *request-scoped* budget (clamped to the server's per-client cap), so
//! one client's deadline never cancels another's work, while all of
//! them share the warm caches and the open log-structured store.
//!
//! # Fairness and backpressure
//!
//! Requests queue per client; worker threads pick the next job by
//! round-robin over clients with pending work, so a client issuing
//! thousands of requests cannot starve one issuing a single request —
//! between two consecutive picks of any active client, every other
//! active client is picked at most once. A client whose queue is full
//! (the per-client cap) is refused immediately with
//! [`ServiceError::Busy`] rather than buffered without bound; the
//! client retries after its in-flight work drains.
//!
//! # Shutdown
//!
//! [`ServiceCore::shutdown`] closes intake, drains every queued job to
//! its terminal reply, then group-commits the proof store
//! ([`reflex_verify::ProofStore::flush`]) so no accepted certificate is
//! lost. [`ServiceCore::abandon`] is the crash path the simulator uses:
//! queued jobs are dropped with [`ServiceError::ShuttingDown`] and the
//! store is *not* flushed — restarting against the same directory must
//! still find every previously committed certificate.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use reflex_driver::{
    Env, Instrument, NullSink, SessionConfig, SessionError, VerifySession, WatchSession,
};
use reflex_verify::{Clock, ProofBudget, ProverOptions, ResidentProgram};

use crate::protocol::{CheckSummary, Reply, Request, StatsSnapshot};

/// Configuration for a [`ServiceCore`].
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Persist and reuse certificates through a proof store here.
    pub store_dir: Option<String>,
    /// Filesystem the store runs on (`None`: the real one; the
    /// simulator injects a faulty one).
    pub store_fs: Option<Arc<dyn reflex_verify::vfs::VerifyFs>>,
    /// Proof threads *per request* — the width of the request's
    /// obligation pool, in total (0: one per CPU).
    pub jobs: usize,
    /// Concurrent request executors (0: one per CPU). Sim scenarios use
    /// 1 so the round-robin pick order is deterministic.
    pub workers: usize,
    /// Per-client pending-request cap; a submit beyond it is refused
    /// with [`ServiceError::Busy`]. 0 means the default (16).
    pub queue_cap: usize,
    /// Upper bound any request's wall-clock budget is clamped to.
    pub max_budget_ms: Option<u64>,
    /// Upper bound any request's explored-path budget is clamped to.
    pub max_budget_nodes: Option<u64>,
    /// Clock behind request budgets (`None`: the machine's monotonic
    /// clock; the simulator injects a virtual one).
    pub clock: Option<Arc<dyn Clock>>,
    /// Record the scheduler's client pick order (fairness tests).
    pub record_schedule: bool,
    /// Admission-control high watermark on *total* queued jobs across
    /// all clients: a submit at or above it is shed immediately with
    /// [`ServiceError::Overloaded`] instead of queueing. 0 disables.
    pub shed_queue_depth: usize,
    /// Per-client cap on queued + executing requests; beyond it a
    /// submit is shed with [`ServiceError::Overloaded`]. 0 disables.
    pub client_inflight_cap: usize,
    /// `retry_after_ms` hint attached to shed rejections. 0 means the
    /// default (100 ms).
    pub shed_retry_after_ms: u64,
    /// Completed-reply entries kept in the idempotency dedup window.
    /// 0 means the default (256).
    pub idempotency_window: usize,
}

/// Why the service refused or failed a request. `Clone` so an
/// idempotent in-flight attempt can fan its result out to every
/// attached retry.
#[derive(Debug, Clone)]
pub enum ServiceError {
    /// The client's queue is full — backpressure, retry after in-flight
    /// work drains.
    Busy {
        /// The refused client.
        client: u64,
    },
    /// Admission control shed the request before queueing it (global
    /// queue depth or per-client in-flight watermark).
    Overloaded {
        /// Suggested client backoff before retrying, milliseconds.
        retry_after_ms: u64,
    },
    /// The request was cancelled while still queued (a running request
    /// instead finishes with a typed `Outcome::Cancelled` reply).
    Cancelled,
    /// The request's deadline expired before a worker picked it up.
    DeadlineExpired,
    /// The core is shutting down and takes no new work.
    ShuttingDown,
    /// The request ran and failed (parse, typecheck, store…).
    Session(SessionError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Busy { client } => {
                write!(f, "client {client}: queue full, retry later")
            }
            ServiceError::Overloaded { retry_after_ms } => {
                write!(f, "service overloaded, retry after {retry_after_ms} ms")
            }
            ServiceError::Cancelled => write!(f, "request cancelled while queued"),
            ServiceError::DeadlineExpired => {
                write!(f, "request deadline expired while queued")
            }
            ServiceError::ShuttingDown => write!(f, "service shutting down"),
            ServiceError::Session(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// What a [`Ticket`] hands its result to instead of a waiting thread.
pub type ReplyFn = Box<dyn FnOnce(Result<Reply, ServiceError>) + Send>;

/// A pending request's completion slot. Its result goes either to one
/// thread blocked in [`Ticket::wait`] or to one callback registered with
/// [`Ticket::on_reply`], whichever is asked first.
#[derive(Default)]
pub struct Ticket {
    slot: Mutex<Slot>,
    done: Condvar,
}

#[derive(Default)]
struct Slot {
    /// The terminal result, once filled and until taken.
    result: Option<Result<Reply, ServiceError>>,
    /// The registered callback, until the fill runs it.
    on_reply: Option<ReplyFn>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl Ticket {
    /// Blocks until the request reaches its terminal reply.
    pub fn wait(&self) -> Result<Reply, ServiceError> {
        let mut slot = self.slot.lock().expect("ticket poisoned");
        loop {
            if let Some(result) = slot.result.take() {
                return result;
            }
            slot = self.done.wait(slot).expect("ticket poisoned");
        }
    }

    /// Hands the terminal reply to `callback` instead of a waiting
    /// thread. A ticket that is already filled (an idempotent replay)
    /// runs it at once on this thread; otherwise it runs on the thread
    /// that fills the ticket: the worker that completes or expires the
    /// request, or the thread that cancels or abandons it. The core
    /// fills tickets with none of its locks held.
    pub fn on_reply(&self, callback: ReplyFn) {
        let mut slot = self.slot.lock().expect("ticket poisoned");
        match slot.result.take() {
            Some(result) => {
                drop(slot);
                callback(result);
            }
            None => slot.on_reply = Some(callback),
        }
    }

    fn fill(&self, result: Result<Reply, ServiceError>) {
        let mut slot = self.slot.lock().expect("ticket poisoned");
        match slot.on_reply.take() {
            Some(callback) => {
                drop(slot);
                callback(result);
            }
            None => {
                slot.result = Some(result);
                self.done.notify_all();
            }
        }
    }
}

/// One queued unit of work.
struct Job {
    client: u64,
    request_id: u64,
    request: Request,
    sink: Arc<dyn Instrument + Send>,
    ticket: Arc<Ticket>,
    /// Absolute deadline on the core clock, if the request carried one.
    deadline_ns: Option<u64>,
    /// The request's idempotency key, if any (Verify only).
    idem_key: Option<u64>,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("request", &self.request)
            .finish()
    }
}

/// Scheduler state: per-client FIFO queues plus the round-robin ring of
/// clients with pending work.
#[derive(Debug, Default)]
struct SchedState {
    queues: HashMap<u64, VecDeque<Job>>,
    /// Clients with at least one queued job, in pick order. Invariant
    /// (at lock release): `client ∈ ring ⟺ !queues[client].is_empty()`.
    ring: VecDeque<u64>,
    /// Total queued jobs across all clients (the shed watermark input).
    queued_total: usize,
    /// Budgets of jobs currently executing, keyed `(client, request_id)`
    /// — the handle [`ServiceCore::cancel`] trips for mid-run stops —
    /// each with whether its job carries an idempotency key.
    running: HashMap<(u64, u64), (Arc<ProofBudget>, bool)>,
    /// Accepting new submissions.
    open: bool,
    /// Drop queued jobs instead of draining them (the crash path).
    aborting: bool,
    /// Jobs currently executing on workers.
    active: usize,
    /// Recorded client pick order, when enabled.
    schedule: Vec<u64>,
}

impl SchedState {
    /// Pops the next job round-robin; re-queues the client at the back
    /// of the ring if it still has pending work.
    fn pop_next(&mut self, record: bool) -> Option<Job> {
        let client = self.ring.pop_front()?;
        let queue = self.queues.get_mut(&client)?;
        let job = queue.pop_front()?;
        self.queued_total -= 1;
        if !queue.is_empty() {
            self.ring.push_back(client);
        }
        if record {
            self.schedule.push(client);
        }
        Some(job)
    }

    /// Removes a specific queued job, maintaining the ring invariant.
    fn remove_queued(&mut self, client: u64, request_id: u64) -> Option<Job> {
        let queue = self.queues.get_mut(&client)?;
        let at = queue.iter().position(|j| j.request_id == request_id)?;
        let job = queue.remove(at)?;
        self.queued_total -= 1;
        if queue.is_empty() {
            self.ring.retain(|c| *c != client);
        }
        Some(job)
    }

    /// Queued + executing requests for one client.
    fn inflight_of(&self, client: u64) -> usize {
        let queued = self.queues.get(&client).map_or(0, VecDeque::len);
        let running = self.running.keys().filter(|(c, _)| *c == client).count();
        queued + running
    }

    fn drained(&self) -> bool {
        self.active == 0 && self.queues.values().all(VecDeque::is_empty)
    }
}

/// What [`ServiceCore::cancel`] found to cancel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelStatus {
    /// The request was still queued; its ticket was filled with
    /// [`ServiceError::Cancelled`] without running.
    Queued,
    /// The request was executing; its budget's cancellation flag was
    /// set, so it will finish with a typed `Outcome::Cancelled` reply.
    Running,
    /// No such request is queued or running (already completed, or the
    /// id was never submitted). Cancellation is idempotent: this is an
    /// acknowledgement, not an error.
    Unknown,
}

/// Service-wide counters (shared with the [`crate::server`] layer,
/// which owns the protocol-error and connection counts).
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Requests accepted into a client queue.
    pub requests_submitted: AtomicU64,
    /// Requests executed to a terminal reply.
    pub requests_served: AtomicU64,
    /// Requests refused for backpressure.
    pub rejected_busy: AtomicU64,
    /// Frames that failed to decode, across all connections.
    pub protocol_errors: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Requests shed by admission control.
    pub rejected_overloaded: AtomicU64,
    /// Requests cancelled: queued requests killed by CANCEL or by their
    /// connection breaking, and running ones stopped by CANCEL. A running
    /// request stopped because its connection broke is counted in
    /// `requests_served` when it ends, not here.
    pub cancelled: AtomicU64,
    /// Requests whose deadline expired while still queued.
    pub deadline_expired: AtomicU64,
    /// Verify requests answered from the idempotency window.
    pub idempotent_hits: AtomicU64,
    /// Verify requests that actually ran a proof session.
    pub requests_executed: AtomicU64,
    /// Connections reaped by the server's read/idle deadline.
    pub reaped_connections: AtomicU64,
    /// Transient `accept()` errors survived by the listener loop.
    pub accept_errors: AtomicU64,
    /// Check and verify requests whose source was already resident.
    pub resident_hits: AtomicU64,
    /// Check and verify requests that parsed and type-checked their
    /// source (failures included).
    pub resident_misses: AtomicU64,
}

impl ServiceStats {
    /// A point-in-time copy, in wire form.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests_submitted: self.requests_submitted.load(Ordering::Relaxed),
            requests_served: self.requests_served.load(Ordering::Relaxed),
            rejected_busy: self.rejected_busy.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            rejected_overloaded: self.rejected_overloaded.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            idempotent_hits: self.idempotent_hits.load(Ordering::Relaxed),
            requests_executed: self.requests_executed.load(Ordering::Relaxed),
            reaped_connections: self.reaped_connections.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            resident_hits: self.resident_hits.load(Ordering::Relaxed),
            resident_misses: self.resident_misses.load(Ordering::Relaxed),
        }
    }
}

/// One idempotency-window entry.
enum IdemEntry {
    /// The keyed request is queued or executing; retries attach their
    /// tickets here and are filled when the first attempt finishes.
    InFlight { followers: Vec<Arc<Ticket>> },
    /// The keyed request completed; retries get the cached reply (the
    /// certificates inside are the very bytes the first attempt
    /// produced).
    Done(Reply),
}

/// Bounded dedup window: key → entry, with completed entries evicted
/// oldest-first past the cap. In-flight entries are bounded by the
/// queues themselves and never evicted.
#[derive(Default)]
struct IdemWindow {
    entries: HashMap<u64, IdemEntry>,
    /// Completed keys in insertion order (the eviction queue).
    done_order: VecDeque<u64>,
}

impl IdemWindow {
    /// Records a completed keyed request and returns the attached
    /// retries, for the caller to fill once the window's lock is
    /// released. Only successful replies are cached: a deterministic
    /// failure will fail identically on a re-run, and caching errors
    /// would let one transient fault poison every retry.
    fn complete(
        &mut self,
        key: u64,
        result: &Result<Reply, ServiceError>,
        cap: usize,
    ) -> Vec<Arc<Ticket>> {
        let followers = match self.entries.remove(&key) {
            Some(IdemEntry::InFlight { followers }) => followers,
            _ => Vec::new(),
        };
        if let Ok(reply) = result {
            self.entries.insert(key, IdemEntry::Done(reply.clone()));
            self.done_order.push_back(key);
            while self.done_order.len() > cap {
                if let Some(old) = self.done_order.pop_front() {
                    if matches!(self.entries.get(&old), Some(IdemEntry::Done(_))) {
                        self.entries.remove(&old);
                    }
                }
            }
        }
        followers
    }

    /// Drops an in-flight entry whose first attempt died before
    /// executing (cancelled / deadline-expired / abandoned) and returns
    /// its attached retries, which the caller fails with the same typed
    /// error once the window's lock is released.
    fn fail_inflight(&mut self, key: u64) -> Vec<Arc<Ticket>> {
        match self.entries.remove(&key) {
            Some(IdemEntry::InFlight { followers }) => followers,
            _ => Vec::new(),
        }
    }
}

struct Inner {
    env: Arc<Env>,
    clock: Arc<dyn Clock>,
    /// Filesystem the store runs on, kept for the watch loop's
    /// degraded-mode reopen probes.
    store_fs: Option<Arc<dyn reflex_verify::vfs::VerifyFs>>,
    queue_cap: usize,
    max_budget_ms: Option<u64>,
    max_budget_nodes: Option<u64>,
    record_schedule: bool,
    shed_queue_depth: usize,
    client_inflight_cap: usize,
    shed_retry_after_ms: u64,
    idempotency_cap: usize,
    state: Mutex<SchedState>,
    /// The idempotency dedup window. Lock order: `state` before `idem`
    /// when both are held (submit); workers take `idem` alone.
    idem: Mutex<IdemWindow>,
    /// Internal request-id source for [`ServiceCore::request`] callers
    /// that have no wire ids; starts in the top half of the id space so
    /// it can never collide with a connection's frame ids.
    next_internal_id: AtomicU64,
    /// Woken on submit, job completion and shutdown; workers and the
    /// draining shutdown both wait on it.
    changed: Condvar,
    stats: ServiceStats,
}

impl Inner {
    /// Fails a job that dies before executing, and every retry attached
    /// to it, with `error`. Runs with no scheduler lock held and fills
    /// only after the idempotency lock is released, since a fill may
    /// run a reply callback.
    fn fail_job(&self, job: Job, error: ServiceError) {
        let followers = match job.idem_key {
            Some(key) => self
                .idem
                .lock()
                .expect("idempotency window poisoned")
                .fail_inflight(key),
            None => Vec::new(),
        };
        for follower in followers {
            follower.fill(Err(error.clone()));
        }
        job.ticket.fill(Err(error));
    }
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("queue_cap", &self.queue_cap)
            .finish()
    }
}

/// The resident verification service: a long-lived shared [`Env`] plus
/// a fair, backpressured request scheduler (see the module docs).
#[derive(Debug)]
pub struct ServiceCore {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl ServiceCore {
    /// Opens the store (if configured), builds the shared [`Env`] and
    /// spawns the worker pool.
    pub fn start(config: ServiceConfig) -> Result<ServiceCore, SessionError> {
        let session_config = SessionConfig {
            options: ProverOptions {
                jobs: config.jobs,
                ..ProverOptions::default()
            },
            store_dir: config.store_dir.clone(),
            store_fs: config.store_fs.clone(),
            clock: config.clock.clone(),
            ..SessionConfig::default()
        };
        let env = Arc::new(Env::new(&session_config)?);
        let clock = config
            .clock
            .clone()
            .unwrap_or_else(reflex_verify::RealClock::shared);
        let inner = Arc::new(Inner {
            env,
            clock,
            store_fs: config.store_fs.clone(),
            queue_cap: if config.queue_cap == 0 {
                16
            } else {
                config.queue_cap
            },
            max_budget_ms: config.max_budget_ms,
            max_budget_nodes: config.max_budget_nodes,
            record_schedule: config.record_schedule,
            shed_queue_depth: config.shed_queue_depth,
            client_inflight_cap: config.client_inflight_cap,
            shed_retry_after_ms: if config.shed_retry_after_ms == 0 {
                100
            } else {
                config.shed_retry_after_ms
            },
            idempotency_cap: if config.idempotency_window == 0 {
                256
            } else {
                config.idempotency_window
            },
            state: Mutex::new(SchedState {
                open: true,
                ..SchedState::default()
            }),
            idem: Mutex::new(IdemWindow::default()),
            next_internal_id: AtomicU64::new(1 << 63),
            changed: Condvar::new(),
            stats: ServiceStats::default(),
        });
        let workers = reflex_verify::resolve_jobs(config.workers);
        let handles = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Ok(ServiceCore {
            inner,
            workers: Mutex::new(handles),
        })
    }

    /// The shared environment (caches, store slot, job pool).
    pub fn env(&self) -> &Arc<Env> {
        &self.inner.env
    }

    /// The clock request budgets tick against.
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.inner.clock)
    }

    /// The service counters (shared with the socket server).
    pub fn stats(&self) -> &ServiceStats {
        &self.inner.stats
    }

    /// Enqueues a request for `client`, refusing with
    /// [`ServiceError::Busy`] when the client's queue is at its cap and
    /// with [`ServiceError::Overloaded`] when admission control's
    /// watermarks say queueing would only grow the backlog. Events
    /// stream into `sink` while the request runs; the returned ticket
    /// delivers the terminal reply ([`Ticket::wait`] or
    /// [`Ticket::on_reply`]). `request_id` must be unique
    /// among the client's live requests — it is the handle
    /// [`ServiceCore::cancel`] takes.
    pub fn submit(
        &self,
        client: u64,
        request_id: u64,
        request: Request,
        sink: Arc<dyn Instrument + Send>,
    ) -> Result<Arc<Ticket>, ServiceError> {
        let inner = &*self.inner;
        let mut state = inner.state.lock().expect("scheduler poisoned");
        if !state.open {
            return Err(ServiceError::ShuttingDown);
        }
        // Idempotency first: a retry of known work is never shed — it
        // costs nothing to answer from the window.
        let (deadline_ms, idem_key) = match &request {
            Request::Verify {
                deadline_ms,
                idempotency_key,
                ..
            } => (*deadline_ms, *idempotency_key),
            _ => (None, None),
        };
        if let Some(key) = idem_key {
            let mut idem = inner.idem.lock().expect("idempotency window poisoned");
            match idem.entries.get_mut(&key) {
                Some(IdemEntry::Done(reply)) => {
                    let ticket = Arc::new(Ticket::default());
                    // A fresh ticket has no callback yet, so this fill
                    // only stores: the caller's `on_reply` runs once
                    // these locks are released.
                    ticket.fill(Ok(reply.clone()));
                    inner.stats.idempotent_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(ticket);
                }
                Some(IdemEntry::InFlight { followers }) => {
                    let ticket = Arc::new(Ticket::default());
                    followers.push(Arc::clone(&ticket));
                    inner.stats.idempotent_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(ticket);
                }
                None => {
                    idem.entries.insert(
                        key,
                        IdemEntry::InFlight {
                            followers: Vec::new(),
                        },
                    );
                }
            }
        }
        // Admission control: shed fast while the backlog is high
        // instead of buffering up to the hard cap.
        let shed = (inner.shed_queue_depth > 0 && state.queued_total >= inner.shed_queue_depth)
            || (inner.client_inflight_cap > 0
                && state.inflight_of(client) >= inner.client_inflight_cap);
        if shed {
            if let Some(key) = idem_key {
                inner
                    .idem
                    .lock()
                    .expect("idempotency window poisoned")
                    .entries
                    .remove(&key);
            }
            inner
                .stats
                .rejected_overloaded
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::Overloaded {
                retry_after_ms: inner.shed_retry_after_ms,
            });
        }
        let queue = state.queues.entry(client).or_default();
        if queue.len() >= inner.queue_cap {
            if let Some(key) = idem_key {
                inner
                    .idem
                    .lock()
                    .expect("idempotency window poisoned")
                    .entries
                    .remove(&key);
            }
            inner.stats.rejected_busy.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::Busy { client });
        }
        // Only read the clock when a deadline was actually asked for:
        // under the simulator's virtual clock every read advances time,
        // so deadline-free requests must stay read-free.
        let deadline_ns = deadline_ms.map(|ms| {
            inner
                .clock
                .now_ns()
                .saturating_add(ms.saturating_mul(1_000_000))
        });
        let ticket = Arc::new(Ticket::default());
        let was_empty = queue.is_empty();
        queue.push_back(Job {
            client,
            request_id,
            request,
            sink,
            ticket: Arc::clone(&ticket),
            deadline_ns,
            idem_key,
        });
        state.queued_total += 1;
        if was_empty {
            state.ring.push_back(client);
        }
        inner
            .stats
            .requests_submitted
            .fetch_add(1, Ordering::Relaxed);
        drop(state);
        inner.changed.notify_all();
        Ok(ticket)
    }

    /// Submits and waits: the blocking convenience the in-process CLI
    /// path uses. Request ids are allocated internally (no wire ids to
    /// collide with).
    pub fn request(
        &self,
        client: u64,
        request: Request,
        sink: Arc<dyn Instrument + Send>,
    ) -> Result<Reply, ServiceError> {
        let id = self.inner.next_internal_id.fetch_add(1, Ordering::Relaxed);
        self.submit(client, id, request, sink)?.wait()
    }

    /// Cancels a queued or running request. A queued request dies here
    /// with [`ServiceError::Cancelled`]; a running one gets its
    /// budget's cancellation flag set and finishes with a typed
    /// `Outcome::Cancelled` reply. Unknown or completed ids are a
    /// no-op acknowledgement.
    pub fn cancel(&self, client: u64, request_id: u64) -> CancelStatus {
        let inner = &*self.inner;
        let mut state = inner.state.lock().expect("scheduler poisoned");
        if let Some(job) = state.remove_queued(client, request_id) {
            drop(state);
            inner.stats.cancelled.fetch_add(1, Ordering::Relaxed);
            inner.fail_job(job, ServiceError::Cancelled);
            inner.changed.notify_all();
            return CancelStatus::Queued;
        }
        if let Some((budget, _)) = state.running.get(&(client, request_id)) {
            budget.cancel();
            inner.stats.cancelled.fetch_add(1, Ordering::Relaxed);
            return CancelStatus::Running;
        }
        CancelStatus::Unknown
    }

    /// Stops `client`'s unkeyed work: the server's answer to a broken
    /// connection, whose replies nobody can read. Queued requests end here
    /// with [`ServiceError::Cancelled`] through the one fill path, as with
    /// [`ServiceCore::cancel`]; running ones have their budgets cancelled
    /// and finish at their next budget check. Requests with an
    /// idempotency key run on: their retry, on another connection, is
    /// answered from the window, so a cancelled run would reach it as
    /// final. Idempotent.
    pub fn cancel_client(&self, client: u64) {
        let inner = &*self.inner;
        let mut state = inner.state.lock().expect("scheduler poisoned");
        let mut queued = VecDeque::new();
        if let Some(queue) = state.queues.get_mut(&client) {
            let (keyed, unkeyed): (VecDeque<Job>, _) = std::mem::take(queue)
                .into_iter()
                .partition(|job| job.idem_key.is_some());
            *queue = keyed;
            queued = unkeyed;
            if queue.is_empty() {
                state.ring.retain(|c| *c != client);
            }
        }
        state.queued_total -= queued.len();
        for ((c, _), (budget, keyed)) in &state.running {
            if *c == client && !keyed {
                budget.cancel();
            }
        }
        drop(state);
        inner
            .stats
            .cancelled
            .fetch_add(queued.len() as u64, Ordering::Relaxed);
        for job in queued {
            inner.fail_job(job, ServiceError::Cancelled);
        }
        inner.changed.notify_all();
    }

    /// A watch loop over this core's shared env: the in-process
    /// `rx watch` path. The loop drives the store retry/degrade/
    /// re-attach policy around the env's store slot. The budget (clamped
    /// to the per-client caps, like any request's) spans the whole loop,
    /// exactly as the one-shot watch command's env-wide budget did.
    pub fn watch(
        &self,
        store_dir: Option<String>,
        budget_ms: Option<u64>,
        budget_nodes: Option<u64>,
    ) -> WatchSession {
        let ms = clamp(budget_ms, self.inner.max_budget_ms);
        let nodes = clamp(budget_nodes, self.inner.max_budget_nodes);
        let budget = (ms.is_some() || nodes.is_some()).then(|| {
            Arc::new(ProofBudget::new_with_clock(
                Arc::clone(&self.inner.clock),
                ms.map(Duration::from_millis),
                nodes,
            ))
        });
        let session = match budget {
            Some(_) => VerifySession::with_env_budget(Arc::clone(&self.inner.env), budget),
            None => VerifySession::with_env(Arc::clone(&self.inner.env)),
        };
        WatchSession::over(
            session,
            store_dir,
            self.inner.store_fs.clone(),
            Arc::clone(&self.inner.clock),
        )
    }

    /// The recorded client pick order (empty unless
    /// [`ServiceConfig::record_schedule`] was set).
    pub fn schedule(&self) -> Vec<u64> {
        self.inner
            .state
            .lock()
            .expect("scheduler poisoned")
            .schedule
            .clone()
    }

    /// Graceful shutdown: closes intake, drains every queued job to its
    /// reply, joins the workers and group-commits the proof store.
    pub fn shutdown(&self) {
        {
            let mut state = self.inner.state.lock().expect("scheduler poisoned");
            state.open = false;
            while !state.drained() {
                self.inner.changed.notify_all();
                state = self.inner.changed.wait(state).expect("scheduler poisoned");
            }
        }
        self.inner.changed.notify_all();
        self.join_workers();
        if let Some(store) = self.inner.env.store() {
            // Shutdown must not lose group-buffered writes; an fsync
            // error here is the store's to count, not ours to panic on.
            let _ = store.flush();
        }
    }

    /// Crash shutdown (the simulator's kill switch): closes intake,
    /// drops queued jobs with [`ServiceError::ShuttingDown`], joins the
    /// workers and deliberately skips the store flush.
    pub fn abandon(&self) {
        let dropped: Vec<Job> = {
            let mut state = self.inner.state.lock().expect("scheduler poisoned");
            state.open = false;
            state.aborting = true;
            state.ring.clear();
            state.queued_total = 0;
            state.queues.values_mut().flat_map(std::mem::take).collect()
        };
        for job in dropped {
            self.inner.fail_job(job, ServiceError::ShuttingDown);
        }
        self.inner.changed.notify_all();
        self.join_workers();
    }

    fn join_workers(&self) {
        let handles = std::mem::take(&mut *self.workers.lock().expect("workers poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let (job, budget) = {
            let mut state = inner.state.lock().expect("scheduler poisoned");
            loop {
                if state.aborting {
                    return;
                }
                if let Some(job) = state.pop_next(inner.record_schedule) {
                    // Expired-in-queue: answer with the typed error
                    // without spending a worker on it.
                    if let Some(deadline_ns) = job.deadline_ns {
                        if inner.clock.now_ns() >= deadline_ns {
                            drop(state);
                            inner.stats.deadline_expired.fetch_add(1, Ordering::Relaxed);
                            inner.fail_job(job, ServiceError::DeadlineExpired);
                            inner.changed.notify_all();
                            state = inner.state.lock().expect("scheduler poisoned");
                            continue;
                        }
                    }
                    state.active += 1;
                    // Every job gets a budget — unlimited if nothing was
                    // asked — so it is always cancellable mid-run. The
                    // remaining deadline folds into the wall axis, so
                    // mid-run expiry surfaces as a typed Timeout reply.
                    let budget = request_budget(inner, &job);
                    state.running.insert(
                        (job.client, job.request_id),
                        (Arc::clone(&budget), job.idem_key.is_some()),
                    );
                    break (job, budget);
                }
                if !state.open {
                    // Intake is closed and nothing is queued: drained.
                    return;
                }
                state = inner.changed.wait(state).expect("scheduler poisoned");
            }
        };
        let result = execute(inner, job.request, &*job.sink, budget);
        inner.stats.requests_served.fetch_add(1, Ordering::Relaxed);
        let followers = match job.idem_key {
            Some(key) => inner
                .idem
                .lock()
                .expect("idempotency window poisoned")
                .complete(key, &result, inner.idempotency_cap),
            None => Vec::new(),
        };
        // Retire the job before replying, so a client that sends its
        // next request the moment the reply lands is not still counted
        // against its in-flight cap. Shutdown's drain ends early here,
        // but it joins this worker, so the fills below still finish
        // before it returns.
        {
            let mut state = inner.state.lock().expect("scheduler poisoned");
            state.running.remove(&(job.client, job.request_id));
            state.active -= 1;
        }
        inner.changed.notify_all();
        for follower in followers {
            follower.fill(result.clone());
        }
        job.ticket.fill(result);
    }
}

/// Runs one request to its terminal reply.
fn execute(
    inner: &Inner,
    request: Request,
    sink: &dyn Instrument,
    budget: Arc<ProofBudget>,
) -> Result<Reply, ServiceError> {
    match request {
        Request::Ping => Ok(Reply::Pong),
        Request::Check { name, source } => {
            let session = VerifySession::with_env(Arc::clone(&inner.env));
            let program = load(inner, &session, &name, &source, &NullSink)?;
            let p = program.checked().program();
            Ok(Reply::Checked(CheckSummary {
                program: p.name.clone(),
                components: p.components.len() as u64,
                messages: p.messages.len() as u64,
                state_vars: p.state.len() as u64,
                handlers: p.handlers.len() as u64,
                properties: p.properties.len() as u64,
            }))
        }
        Request::Verify {
            name,
            source,
            property,
            ..
        } => {
            inner
                .stats
                .requests_executed
                .fetch_add(1, Ordering::Relaxed);
            let session = VerifySession::with_env_budget(Arc::clone(&inner.env), Some(budget))
                .with_property(property);
            let program = load(inner, &session, &name, &source, sink)?;
            let report = session
                .verify_resident(&program, sink)
                .map_err(ServiceError::Session)?;
            Ok(Reply::Verify(Box::new(report)))
        }
    }
}

/// Looks `source` up in the env's resident table (parsing and
/// type-checking it on a miss) and counts the hit or miss.
fn load(
    inner: &Inner,
    session: &VerifySession,
    name: &str,
    source: &str,
    sink: &dyn Instrument,
) -> Result<Arc<ResidentProgram>, ServiceError> {
    let loaded = session.load_source(name, source, sink);
    let hit = matches!(loaded, Ok((_, true)));
    let counter = if hit {
        &inner.stats.resident_hits
    } else {
        &inner.stats.resident_misses
    };
    counter.fetch_add(1, Ordering::Relaxed);
    loaded
        .map(|(program, _)| program)
        .map_err(ServiceError::Session)
}

/// The job's effective budget: its own asks clamped to the per-client
/// caps (a capped dimension applies even when the request asked for
/// nothing), with any remaining deadline folded into the wall axis.
/// Always present, so every running job doubles as a cancellation
/// target; an unlimited budget never reads the clock, keeping
/// deadline-free simulator runs read-for-read identical.
fn request_budget(inner: &Inner, job: &Job) -> Arc<ProofBudget> {
    let (budget_ms, budget_nodes) = match &job.request {
        Request::Verify {
            budget_ms,
            budget_nodes,
            ..
        } => (*budget_ms, *budget_nodes),
        _ => (None, None),
    };
    let mut ms = clamp(budget_ms, inner.max_budget_ms);
    if let Some(deadline_ns) = job.deadline_ns {
        let left_ms = deadline_ns
            .saturating_sub(inner.clock.now_ns())
            .div_ceil(1_000_000)
            .max(1);
        ms = Some(ms.map_or(left_ms, |m| m.min(left_ms)));
    }
    let nodes = clamp(budget_nodes, inner.max_budget_nodes);
    Arc::new(ProofBudget::new_with_clock(
        Arc::clone(&inner.clock),
        ms.map(Duration::from_millis),
        nodes,
    ))
}

fn clamp(requested: Option<u64>, cap: Option<u64>) -> Option<u64> {
    match (requested, cap) {
        (Some(r), Some(c)) => Some(r.min(c)),
        (Some(r), None) => Some(r),
        (None, cap) => cap,
    }
}
