//! Structured per-stage instrumentation for [`crate::VerifySession`].
//!
//! The session engine narrates its run as a stream of [`Event`]s — stage
//! boundaries with wall time, per-property outcomes, and a final counter
//! block (paths explored, cache and store hits, solver memo traffic) —
//! into an [`Instrument`] sink chosen by the caller:
//!
//! * [`HumanSink`] — readable one-line-per-event text, for terminals;
//! * [`JsonLinesSink`] — one self-contained JSON object per line, for
//!   `rx verify --trace-json` and machine consumers;
//! * [`MemorySink`] — an in-memory event log, for tests and the benchmark
//!   harness (which reads counters out of it instead of private structs);
//! * [`NullSink`] — discards everything (the default).
//!
//! Events are *facts about the run*, not rendering: every sink sees the
//! same stream, so the human text, the JSON trace and the benchmark
//! tables can never drift apart. Property events may be emitted from
//! worker threads in completion order; stage events are always emitted
//! from the session thread in pipeline order. Event **counts** (not
//! timings) are deterministic for a given input and configuration,
//! regardless of `--jobs` — CI diffs serial vs parallel traces on exactly
//! that.

use std::io::Write;
use std::sync::Mutex;

/// Encodes a string as a JSON string literal (with quotes).
pub use reflex_verify::store::json_str as json_string;

/// The fixed stages of the verification pipeline, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Reading the kernel source from disk (skipped for in-memory input).
    Load,
    /// Parsing the source into an AST.
    Parse,
    /// Type-checking the AST.
    Typecheck,
    /// Building the behavioral abstraction and planning proof reuse
    /// (loading store candidates, diffing dependency fingerprints).
    Plan,
    /// Proof search and certificate checking.
    Prove,
    /// Writing certificates back to the proof store.
    Persist,
    /// Assembling the session report and counter block.
    Report,
}

impl Stage {
    /// Stable lower-case name used in event streams.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Load => "load",
            Stage::Parse => "parse",
            Stage::Typecheck => "typecheck",
            Stage::Plan => "plan",
            Stage::Prove => "prove",
            Stage::Persist => "persist",
            Stage::Report => "report",
        }
    }
}

/// How one property's verification ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropertyStatus {
    /// Proved, certificate in hand.
    Proved,
    /// The proof search failed (the property may still be false or just
    /// beyond the automation).
    Failed,
    /// Stopped by the session budget.
    Timeout,
    /// Stopped by an explicit cancellation request (see
    /// [`reflex_verify::Outcome::Cancelled`]).
    Cancelled,
    /// The proof task panicked and was isolated (see
    /// [`reflex_verify::Outcome::Crashed`]).
    Crashed,
}

impl PropertyStatus {
    /// Stable lower-case name used in event streams.
    pub fn as_str(self) -> &'static str {
        match self {
            PropertyStatus::Proved => "proved",
            PropertyStatus::Failed => "failed",
            PropertyStatus::Timeout => "timeout",
            PropertyStatus::Cancelled => "cancelled",
            PropertyStatus::Crashed => "crashed",
        }
    }
}

/// The counter block emitted once per session, after the prove stage.
///
/// All counters are scoped to the session (assembled from deltas of the
/// process-wide atomics), except `interned_terms`, which reports the
/// interner's live size — it is shared state by design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// Symbolic path segments analyzed.
    pub paths_explored: u64,
    /// Cross-property proof-cache hits (invariants + lemmas).
    pub cache_hits: u64,
    /// Cross-property proof-cache misses (invariants + lemmas).
    pub cache_misses: u64,
    /// Solver entailment queries issued.
    pub solver_queries: u64,
    /// Entailment queries answered from the global memo table.
    pub solver_memo_hits: u64,
    /// Distinct hash-consed term nodes alive in the interner.
    pub interned_terms: u64,
    /// Certificates loaded from the proof store.
    pub store_loaded: u64,
    /// Certificates written back to the proof store.
    pub store_saved: u64,
}

/// One structured fact about a session run.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The session started on the named program.
    SessionStart {
        /// Program name.
        program: String,
        /// Resolved worker-thread count.
        jobs: usize,
    },
    /// A pipeline stage began.
    StageStart {
        /// Which stage.
        stage: Stage,
    },
    /// A pipeline stage finished.
    StageFinish {
        /// Which stage.
        stage: Stage,
        /// Stage wall-clock, milliseconds.
        wall_ms: f64,
    },
    /// One property's outcome was decided (possibly on a worker thread,
    /// in completion order).
    Property {
        /// Property name.
        name: String,
        /// How it ended.
        status: PropertyStatus,
        /// How the outcome was obtained, when proof reuse was in play
        /// (`"full"`, `"partial"`, `"reproved"`; `None` for plain proving).
        reuse: Option<&'static str>,
        /// Discharged obligations in the certificate (0 if not proved).
        obligations: usize,
        /// Proof-search wall-clock for this property, milliseconds.
        wall_ms: f64,
    },
    /// The session's counter block (once, after proving).
    Counters(Counters),
    /// The session finished.
    SessionFinish {
        /// Properties proved.
        proved: usize,
        /// Properties whose proof search failed.
        failed: usize,
        /// Properties stopped by the budget.
        timeout: usize,
        /// Proof tasks that panicked and were isolated.
        crashed: usize,
        /// Whole-session wall-clock, milliseconds.
        wall_ms: f64,
    },
    /// The watch loop is retrying the proof store after a transient I/O
    /// error, before the backoff sleep.
    StoreRetry {
        /// 1-based retry attempt.
        attempt: u32,
        /// Backoff sleep before this attempt, milliseconds.
        delay_ms: u64,
    },
    /// The proof store failed repeatedly; the watch loop detached it and
    /// dropped to in-memory caching.
    StoreDegraded {
        /// The last I/O failure that tripped the degradation.
        reason: String,
    },
    /// A previously degraded store responded to a health probe and was
    /// re-attached.
    StoreRecovered,
}

impl Event {
    /// Renders the event as one self-contained JSON object (no trailing
    /// newline). Timings are rounded to 0.1 ms; counts are exact.
    pub fn to_json(&self) -> String {
        match self {
            Event::SessionStart { program, jobs } => format!(
                r#"{{"event":"session_start","program":{},"jobs":{jobs}}}"#,
                json_string(program)
            ),
            Event::StageStart { stage } => {
                format!(r#"{{"event":"stage_start","stage":"{}"}}"#, stage.as_str())
            }
            Event::StageFinish { stage, wall_ms } => format!(
                r#"{{"event":"stage_finish","stage":"{}","wall_ms":{:.1}}}"#,
                stage.as_str(),
                wall_ms
            ),
            Event::Property {
                name,
                status,
                reuse,
                obligations,
                wall_ms,
            } => {
                let reuse = match reuse {
                    Some(r) => format!(r#""{r}""#),
                    None => "null".to_owned(),
                };
                format!(
                    r#"{{"event":"property","name":{},"status":"{}","reuse":{reuse},"obligations":{obligations},"wall_ms":{:.1}}}"#,
                    json_string(name),
                    status.as_str(),
                    wall_ms
                )
            }
            Event::Counters(c) => format!(
                r#"{{"event":"counters","paths_explored":{},"cache_hits":{},"cache_misses":{},"solver_queries":{},"solver_memo_hits":{},"interned_terms":{},"store_loaded":{},"store_saved":{}}}"#,
                c.paths_explored,
                c.cache_hits,
                c.cache_misses,
                c.solver_queries,
                c.solver_memo_hits,
                c.interned_terms,
                c.store_loaded,
                c.store_saved
            ),
            Event::SessionFinish {
                proved,
                failed,
                timeout,
                crashed,
                wall_ms,
            } => format!(
                r#"{{"event":"session_finish","proved":{proved},"failed":{failed},"timeout":{timeout},"crashed":{crashed},"wall_ms":{:.1}}}"#,
                wall_ms
            ),
            Event::StoreRetry { attempt, delay_ms } => {
                format!(r#"{{"event":"store_retry","attempt":{attempt},"delay_ms":{delay_ms}}}"#)
            }
            Event::StoreDegraded { reason } => format!(
                r#"{{"event":"store_degraded","reason":{}}}"#,
                json_string(reason)
            ),
            Event::StoreRecovered => r#"{"event":"store_recovered"}"#.to_owned(),
        }
    }

    /// Renders the event as one human-readable line (no trailing newline).
    pub fn to_human(&self) -> String {
        match self {
            Event::SessionStart { program, jobs } => {
                format!("session {program}: starting ({jobs} job(s))")
            }
            Event::StageStart { stage } => format!("stage {}: start", stage.as_str()),
            Event::StageFinish { stage, wall_ms } => {
                format!("stage {}: done in {wall_ms:.1} ms", stage.as_str())
            }
            Event::Property {
                name,
                status,
                reuse,
                obligations,
                wall_ms,
            } => {
                let reuse = reuse.map(|r| format!(", {r}")).unwrap_or_default();
                format!(
                    "property {name}: {} ({obligations} obligations{reuse}) in {wall_ms:.1} ms",
                    status.as_str()
                )
            }
            Event::Counters(c) => format!(
                "counters: {} paths, cache {}/{} hit/miss, solver {} queries ({} memo hits), {} interned terms, store {} loaded / {} saved",
                c.paths_explored,
                c.cache_hits,
                c.cache_misses,
                c.solver_queries,
                c.solver_memo_hits,
                c.interned_terms,
                c.store_loaded,
                c.store_saved
            ),
            Event::SessionFinish {
                proved,
                failed,
                timeout,
                crashed,
                wall_ms,
            } => format!(
                "session finished: {proved} proved, {failed} failed, {timeout} timed out, {crashed} crashed in {wall_ms:.1} ms"
            ),
            Event::StoreRetry { attempt, delay_ms } => {
                format!("store: transient I/O error, retry #{attempt} after {delay_ms} ms")
            }
            Event::StoreDegraded { reason } => {
                format!("store: DEGRADED to in-memory caching ({reason})")
            }
            Event::StoreRecovered => "store: recovered, re-attached".to_owned(),
        }
    }
}

/// A sink for session events.
///
/// Implementations must be `Sync`: property events may arrive from worker
/// threads concurrently.
pub trait Instrument: Sync {
    /// Receives one event. Must not panic; slow sinks slow the session.
    fn event(&self, event: &Event);
}

/// Discards every event.
#[derive(Debug, Default)]
pub struct NullSink;

impl Instrument for NullSink {
    fn event(&self, _event: &Event) {}
}

/// Writes one human-readable text line per event.
pub struct HumanSink<W: Write + Send> {
    out: Mutex<W>,
}

impl<W: Write + Send> HumanSink<W> {
    /// A sink writing to `out` (stderr, a file, a buffer…).
    pub fn new(out: W) -> Self {
        HumanSink {
            out: Mutex::new(out),
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<W: Write + Send> Instrument for HumanSink<W> {
    fn event(&self, event: &Event) {
        if let Ok(mut out) = self.out.lock() {
            let _ = writeln!(out, "{}", event.to_human());
        }
    }
}

/// Writes one JSON object per line per event (JSON Lines).
pub struct JsonLinesSink<W: Write + Send> {
    out: Mutex<W>,
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// A sink writing to `out`.
    pub fn new(out: W) -> Self {
        JsonLinesSink {
            out: Mutex::new(out),
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<W: Write + Send> Instrument for JsonLinesSink<W> {
    fn event(&self, event: &Event) {
        if let Ok(mut out) = self.out.lock() {
            let _ = writeln!(out, "{}", event.to_json());
        }
    }
}

/// Records every event in memory, for tests and the benchmark harness.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of the events recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().map(|e| e.clone()).unwrap_or_default()
    }

    /// The recorded property events, in completion order.
    pub fn properties(&self) -> Vec<Event> {
        self.events()
            .into_iter()
            .filter(|e| matches!(e, Event::Property { .. }))
            .collect()
    }

    /// The session's counter block, if the run got far enough to emit it.
    pub fn counters(&self) -> Option<Counters> {
        self.events().into_iter().rev().find_map(|e| match e {
            Event::Counters(c) => Some(c),
            _ => None,
        })
    }

    /// Total events recorded.
    pub fn len(&self) -> usize {
        self.events.lock().map(|e| e.len()).unwrap_or(0)
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Instrument for MemorySink {
    fn event(&self, event: &Event) {
        if let Ok(mut events) = self.events.lock() {
            events.push(event.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_are_self_contained_objects() {
        let e = Event::Property {
            name: "a \"quoted\" prop".into(),
            status: PropertyStatus::Proved,
            reuse: Some("full"),
            obligations: 3,
            wall_ms: 1.25,
        };
        let json = e.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(r#"\"quoted\""#));
        assert!(json.contains(r#""reuse":"full""#));
    }

    #[test]
    fn memory_sink_records_in_order() {
        let sink = MemorySink::new();
        sink.event(&Event::StageStart { stage: Stage::Load });
        sink.event(&Event::StageFinish {
            stage: Stage::Load,
            wall_ms: 0.5,
        });
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[0],
            Event::StageStart { stage: Stage::Load }
        ));
    }
}
