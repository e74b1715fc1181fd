//! The `rxd` wire protocol: length-prefixed frames with request ids.
//!
//! Every message on a connection — in either direction — is one frame:
//!
//! ```text
//! [u32 len LE][u8 kind][u64 request_id LE][payload…]
//! ```
//!
//! where `len` counts everything after itself (`1 + 8 + payload.len()`).
//! Frames larger than [`MAX_FRAME`] are rejected before any allocation,
//! so a hostile length prefix cannot balloon memory. All integers are
//! little-endian; floats travel as `f64::to_bits`; strings are UTF-8
//! with a `u32` byte-length prefix — the same conventions as the proof
//! store's certificate codec, and deliberately position-independent so
//! equal values always encode to equal bytes.
//!
//! The conversation is strictly client-initiated: after a
//! [`HELLO`]/[`HELLO_OK`] version handshake, the client sends request
//! frames ([`REQUEST`], [`STATS`], [`SHUTDOWN`]) and the server answers
//! each with zero or more [`EVENT`] frames (streamed `Instrument`
//! events, tagged with the request's id) followed by exactly one
//! terminal frame ([`REPLY`], [`STATS_REPLY`], [`SHUTDOWN_OK`] or
//! [`ERROR`]). Malformed input never panics the peer: decoding returns
//! `None`/[`ProtoError`] and the server answers with a typed [`ERROR`]
//! frame (see the `ERR_*` codes) before closing the connection.

use std::fmt;
use std::io::{Read, Write};

use reflex_driver::{PropStats, ProverStats, SessionReport};
use reflex_verify::{
    certificate_from_bytes, certificate_to_bytes, CacheStats, Outcome, ProofFailure,
};

/// Protocol magic, first field of the [`HELLO`] payload (`"RXD1"`).
pub const MAGIC: u32 = 0x5258_4431;

/// Protocol version, bumped on any incompatible frame change.
/// Version 2 added [`CANCEL`], per-request deadlines and idempotency
/// keys on `Verify`, the overload/cancel/deadline [`ERROR`] codes
/// (with an optional `retry_after_ms` hint), and the extended
/// [`StatsSnapshot`]. Version 3 added the resident-program counters to
/// [`StatsSnapshot`].
pub const VERSION: u16 = 3;

/// Upper bound on `len` (kind + request id + payload), 8 MiB. A frame
/// announcing more is answered with [`ERR_OVERSIZED`] and the
/// connection is closed without reading the body.
pub const MAX_FRAME: u32 = 8 * 1024 * 1024;

/// Client → server: version handshake (`magic u32, version u16`).
pub const HELLO: u8 = 1;
/// Server → client: handshake accepted (`version u16`).
pub const HELLO_OK: u8 = 2;
/// Client → server: one [`Request`] (tagged payload).
pub const REQUEST: u8 = 3;
/// Server → client: one streamed session event (payload: the event's
/// JSON-line rendering), tagged with the request id it belongs to.
pub const EVENT: u8 = 4;
/// Server → client: the terminal [`Reply`] for a request.
pub const REPLY: u8 = 5;
/// Server → client: typed failure (`code u16, message str`).
pub const ERROR: u8 = 6;
/// Client → server: service counters request (empty payload).
pub const STATS: u8 = 7;
/// Server → client: the [`StatsSnapshot`] payload.
pub const STATS_REPLY: u8 = 8;
/// Client → server: drain and stop the daemon (empty payload).
pub const SHUTDOWN: u8 = 9;
/// Server → client: shutdown acknowledged; the server drains queued
/// work, group-commits the store and exits.
pub const SHUTDOWN_OK: u8 = 10;
/// Client → server: cancel the in-flight or queued request whose id is
/// in the frame header (empty payload). Answered through the original
/// request's terminal frame: a queued request dies with
/// [`ERR_CANCELLED`], a running one finishes with a typed
/// `Outcome::Cancelled` reply. A CANCEL for an unknown or completed id
/// is acknowledged with [`CANCEL_OK`] and otherwise ignored.
pub const CANCEL: u8 = 11;
/// Server → client: the [`CANCEL`] frame was processed (whether or not
/// it found a live request), tagged with the cancelled request's id.
pub const CANCEL_OK: u8 = 12;

/// [`ERROR`] code: a frame or payload failed to decode.
pub const ERR_MALFORMED: u16 = 1;
/// [`ERROR`] code: the announced frame length exceeds [`MAX_FRAME`].
pub const ERR_OVERSIZED: u16 = 2;
/// [`ERROR`] code: handshake magic/version mismatch.
pub const ERR_VERSION: u16 = 3;
/// [`ERROR`] code: the client's queue is full (backpressure) — retry
/// after in-flight requests finish.
pub const ERR_BUSY: u16 = 4;
/// [`ERROR`] code: the server is shutting down and takes no new work.
pub const ERR_SHUTDOWN: u16 = 5;
/// [`ERROR`] code: the request ran and failed (payload message is the
/// session error: load/parse/typecheck/store…).
pub const ERR_REQUEST: u16 = 6;
/// [`ERROR`] code: an internal invariant broke while serving.
pub const ERR_INTERNAL: u16 = 7;
/// [`ERROR`] code: the request was cancelled while still queued (a
/// request cancelled mid-run instead gets a typed `Cancelled` reply).
pub const ERR_CANCELLED: u16 = 8;
/// [`ERROR`] code: the request's deadline expired before it started
/// running (expiry mid-run yields a typed `Timeout` reply instead).
pub const ERR_DEADLINE: u16 = 9;
/// [`ERROR`] code: admission control shed the request before queueing
/// it (load above the high watermark or the per-client in-flight cap).
/// The payload carries a `retry_after_ms` hint — see
/// [`decode_error_retry`].
pub const ERR_OVERLOADED: u16 = 10;
/// [`ERROR`] code: the connection sat idle (or mid-frame) past the
/// server's read deadline and is being reaped.
pub const ERR_IDLE: u16 = 11;

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame kind ([`HELLO`] … [`SHUTDOWN_OK`]).
    pub kind: u8,
    /// Request id this frame belongs to (0 for connection-level frames).
    pub request_id: u64,
    /// Kind-specific payload.
    pub payload: Vec<u8>,
}

/// Why reading or decoding a frame failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The underlying transport failed (or hit EOF mid-frame).
    Io(String),
    /// The peer closed the connection cleanly (EOF between frames).
    Closed,
    /// The announced length exceeds [`MAX_FRAME`].
    Oversized {
        /// The announced `len` field.
        len: u32,
    },
    /// The frame or its payload did not decode.
    Malformed(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::Oversized { len } => {
                write!(f, "oversized frame: {len} bytes (max {MAX_FRAME})")
            }
            ProtoError::Malformed(e) => write!(f, "malformed frame: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Writes one frame. A frame whose `kind + id + payload` would exceed
/// [`MAX_FRAME`] is refused here too, so both sides enforce the same
/// bound.
pub fn write_frame(w: &mut dyn Write, frame: &Frame) -> Result<(), ProtoError> {
    let len = 1u64 + 8 + frame.payload.len() as u64;
    if len > u64::from(MAX_FRAME) {
        return Err(ProtoError::Oversized {
            len: u32::try_from(len).unwrap_or(u32::MAX),
        });
    }
    let mut buf = Vec::with_capacity(4 + len as usize);
    buf.extend_from_slice(&(len as u32).to_le_bytes());
    buf.push(frame.kind);
    buf.extend_from_slice(&frame.request_id.to_le_bytes());
    buf.extend_from_slice(&frame.payload);
    w.write_all(&buf)
        .map_err(|e| ProtoError::Io(e.to_string()))?;
    w.flush().map_err(|e| ProtoError::Io(e.to_string()))
}

/// Reads one frame, enforcing [`MAX_FRAME`] before allocating the body.
///
/// EOF cleanly between frames is [`ProtoError::Closed`]; EOF inside a
/// frame (a truncated peer) is [`ProtoError::Io`].
pub fn read_frame(r: &mut dyn Read) -> Result<Frame, ProtoError> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Err(ProtoError::Closed),
        Err(e) => return Err(ProtoError::Io(e.to_string())),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(ProtoError::Oversized { len });
    }
    if len < 9 {
        return Err(ProtoError::Malformed(format!(
            "frame length {len} is shorter than its own header"
        )));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)
        .map_err(|e| ProtoError::Io(e.to_string()))?;
    let kind = body[0];
    let mut id = [0u8; 8];
    id.copy_from_slice(&body[1..9]);
    Ok(Frame {
        kind,
        request_id: u64::from_le_bytes(id),
        payload: body[9..].to_vec(),
    })
}

// ---------------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------------

/// Append-only payload encoder (little-endian, position-independent).
#[derive(Debug, Default)]
pub struct Enc {
    /// The bytes written so far.
    pub buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a byte string with a `u32` length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(u32::try_from(v.len()).unwrap_or(u32::MAX));
        self.buf.extend_from_slice(v);
    }

    /// Appends a UTF-8 string with a `u32` byte-length prefix.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends an optional `u64` (presence byte, then the value).
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
            None => self.u8(0),
        }
    }

    /// Appends an optional string (presence byte, then the string).
    pub fn opt_str(&mut self, v: Option<&str>) {
        match v {
            Some(v) => {
                self.u8(1);
                self.str(v);
            }
            None => self.u8(0),
        }
    }
}

/// Checked payload decoder: every accessor returns `None` on
/// truncation, so a hostile payload can never index out of bounds.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`; any byte other than 0/1 is malformed.
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?.to_vec()).ok()
    }

    /// Reads an optional `u64`.
    pub fn opt_u64(&mut self) -> Option<Option<u64>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.u64()?)),
            _ => None,
        }
    }

    /// Reads an optional string.
    pub fn opt_str(&mut self) -> Option<Option<String>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.str()?)),
            _ => None,
        }
    }

    /// Succeeds only if every byte was consumed — trailing garbage is
    /// malformed, same discipline as the certificate codec.
    pub fn finish(self) -> Option<()> {
        (self.pos == self.buf.len()).then_some(())
    }
}

// ---------------------------------------------------------------------------
// Requests and replies
// ---------------------------------------------------------------------------

/// One unit of work a client asks the service core to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered with [`Reply::Pong`].
    Ping,
    /// Parse and type-check a kernel without proving anything
    /// (the `rx check` path).
    Check {
        /// Program name (for reports).
        name: String,
        /// Kernel source text.
        source: String,
    },
    /// Verify a kernel end to end (the `rx verify` path).
    Verify {
        /// Program name (for reports and the store namespace).
        name: String,
        /// Kernel source text.
        source: String,
        /// Verify only this property (all properties when `None`).
        property: Option<String>,
        /// Request wall-clock budget, ms (clamped to the server's
        /// per-client cap).
        budget_ms: Option<u64>,
        /// Request explored-path budget (clamped likewise).
        budget_nodes: Option<u64>,
        /// Stream per-stage/per-property [`EVENT`] frames back while
        /// the request runs.
        want_events: bool,
        /// Relative deadline, ms from admission on the server's clock.
        /// A request still queued when it expires dies with
        /// [`ERR_DEADLINE`]; one already running is stopped with a
        /// typed `Timeout` reply. Folds into the wall budget.
        deadline_ms: Option<u64>,
        /// Client-generated idempotency key. Two `Verify` requests with
        /// the same key inside the server's dedup window are one unit
        /// of work: a retry of a completed attempt returns the cached
        /// reply (byte-identical certificates), a retry of an in-flight
        /// attempt attaches to it instead of re-proving.
        idempotency_key: Option<u64>,
    },
}

const REQ_PING: u8 = 0;
const REQ_CHECK: u8 = 1;
const REQ_VERIFY: u8 = 2;

/// Encodes a [`Request`] as a [`REQUEST`] frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut e = Enc::new();
    match req {
        Request::Ping => e.u8(REQ_PING),
        Request::Check { name, source } => {
            e.u8(REQ_CHECK);
            e.str(name);
            e.str(source);
        }
        Request::Verify {
            name,
            source,
            property,
            budget_ms,
            budget_nodes,
            want_events,
            deadline_ms,
            idempotency_key,
        } => {
            e.u8(REQ_VERIFY);
            e.str(name);
            e.str(source);
            e.opt_str(property.as_deref());
            e.opt_u64(*budget_ms);
            e.opt_u64(*budget_nodes);
            e.bool(*want_events);
            e.opt_u64(*deadline_ms);
            e.opt_u64(*idempotency_key);
        }
    }
    e.buf
}

/// Decodes a [`REQUEST`] frame payload.
pub fn decode_request(payload: &[u8]) -> Option<Request> {
    let mut d = Dec::new(payload);
    let req = match d.u8()? {
        REQ_PING => Request::Ping,
        REQ_CHECK => Request::Check {
            name: d.str()?,
            source: d.str()?,
        },
        REQ_VERIFY => Request::Verify {
            name: d.str()?,
            source: d.str()?,
            property: d.opt_str()?,
            budget_ms: d.opt_u64()?,
            budget_nodes: d.opt_u64()?,
            want_events: d.bool()?,
            deadline_ms: d.opt_u64()?,
            idempotency_key: d.opt_u64()?,
        },
        _ => return None,
    };
    d.finish()?;
    Some(req)
}

/// The shape summary `rx check` reports (no proving involved).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckSummary {
    /// Program name.
    pub program: String,
    /// Component types declared.
    pub components: u64,
    /// Message types declared.
    pub messages: u64,
    /// State variables declared.
    pub state_vars: u64,
    /// Handlers declared.
    pub handlers: u64,
    /// Properties declared.
    pub properties: u64,
}

/// The terminal answer to one [`Request`]. `Clone` so the service core
/// can cache replies for idempotent retries.
#[derive(Debug, Clone)]
pub enum Reply {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Check`].
    Checked(CheckSummary),
    /// Answer to [`Request::Verify`]: the full session report,
    /// certificates included — the client renders it with the same code
    /// as a local run, so daemon output is byte-identical.
    Verify(Box<SessionReport>),
}

const REP_PONG: u8 = 0;
const REP_CHECKED: u8 = 1;
const REP_VERIFY: u8 = 2;

/// Encodes a [`Reply`] as a [`REPLY`] frame payload.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut e = Enc::new();
    match reply {
        Reply::Pong => e.u8(REP_PONG),
        Reply::Checked(c) => {
            e.u8(REP_CHECKED);
            e.str(&c.program);
            e.u64(c.components);
            e.u64(c.messages);
            e.u64(c.state_vars);
            e.u64(c.handlers);
            e.u64(c.properties);
        }
        Reply::Verify(report) => {
            e.u8(REP_VERIFY);
            enc_report(&mut e, report);
        }
    }
    e.buf
}

/// Decodes a [`REPLY`] frame payload.
pub fn decode_reply(payload: &[u8]) -> Option<Reply> {
    let mut d = Dec::new(payload);
    let reply = match d.u8()? {
        REP_PONG => Reply::Pong,
        REP_CHECKED => Reply::Checked(CheckSummary {
            program: d.str()?,
            components: d.u64()?,
            messages: d.u64()?,
            state_vars: d.u64()?,
            handlers: d.u64()?,
            properties: d.u64()?,
        }),
        REP_VERIFY => Reply::Verify(Box::new(dec_report(&mut d)?)),
        _ => return None,
    };
    d.finish()?;
    Some(reply)
}

const OUT_PROVED: u8 = 0;
const OUT_FAILED: u8 = 1;
const OUT_TIMEOUT: u8 = 2;
const OUT_CRASHED: u8 = 3;
const OUT_CANCELLED: u8 = 4;

fn enc_outcome(e: &mut Enc, outcome: &Outcome) {
    match outcome {
        Outcome::Proved(cert) => {
            e.u8(OUT_PROVED);
            e.bytes(&certificate_to_bytes(cert));
        }
        Outcome::Failed(f) | Outcome::Timeout(f) | Outcome::Cancelled(f) | Outcome::Crashed(f) => {
            e.u8(match outcome {
                Outcome::Failed(_) => OUT_FAILED,
                Outcome::Timeout(_) => OUT_TIMEOUT,
                Outcome::Cancelled(_) => OUT_CANCELLED,
                _ => OUT_CRASHED,
            });
            e.str(&f.location);
            e.str(&f.reason);
        }
    }
}

fn dec_outcome(d: &mut Dec) -> Option<Outcome> {
    let tag = d.u8()?;
    if tag == OUT_PROVED {
        return Some(Outcome::Proved(certificate_from_bytes(d.bytes()?)?));
    }
    let failure = ProofFailure {
        location: d.str()?,
        reason: d.str()?,
    };
    match tag {
        OUT_FAILED => Some(Outcome::Failed(failure)),
        OUT_TIMEOUT => Some(Outcome::Timeout(failure)),
        OUT_CANCELLED => Some(Outcome::Cancelled(failure)),
        OUT_CRASHED => Some(Outcome::Crashed(failure)),
        _ => None,
    }
}

fn enc_names(e: &mut Enc, names: &[String]) {
    e.u32(u32::try_from(names.len()).unwrap_or(u32::MAX));
    for n in names {
        e.str(n);
    }
}

fn dec_names(d: &mut Dec) -> Option<Vec<String>> {
    let n = d.u32()? as usize;
    // Bound pre-allocation by the bytes actually present: each name
    // costs at least its 4-byte length prefix.
    let mut out = Vec::with_capacity(n.min(d.buf.len() / 4 + 1));
    for _ in 0..n {
        out.push(d.str()?);
    }
    Some(out)
}

/// Encodes a full [`SessionReport`] (certificates included, via the
/// store's deterministic certificate codec).
pub fn enc_report(e: &mut Enc, r: &SessionReport) {
    e.str(&r.program);
    e.u32(u32::try_from(r.outcomes.len()).unwrap_or(u32::MAX));
    for (name, outcome) in &r.outcomes {
        e.str(name);
        enc_outcome(e, outcome);
    }
    enc_names(e, &r.reused);
    enc_names(e, &r.partial);
    enc_names(e, &r.reproved);
    e.u64(r.store_loaded as u64);
    e.u64(r.store_saved as u64);
    e.bool(r.certificates_checked);
    e.f64(r.wall_ms);
    e.u64(r.stats.jobs as u64);
    e.f64(r.stats.total_ms);
    e.u32(u32::try_from(r.stats.properties.len()).unwrap_or(u32::MAX));
    for p in &r.stats.properties {
        e.str(&p.name);
        e.bool(p.proved);
        e.f64(p.wall_ms);
        e.u64(p.obligations as u64);
    }
    e.u64(r.stats.paths_explored);
    e.u64(r.stats.cache.invariant_entries);
    e.u64(r.stats.cache.lemma_entries);
    e.u64(r.stats.cache.invariant_hits);
    e.u64(r.stats.cache.invariant_misses);
    e.u64(r.stats.cache.lemma_hits);
    e.u64(r.stats.cache.lemma_misses);
    e.u64(r.stats.solver_queries);
    e.u64(r.stats.solver_memo_hits);
    e.u64(r.stats.interned_terms);
}

/// Decodes a [`SessionReport`] produced by [`enc_report`].
pub fn dec_report(d: &mut Dec) -> Option<SessionReport> {
    let program = d.str()?;
    let n = d.u32()? as usize;
    let mut outcomes = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let name = d.str()?;
        outcomes.push((name, dec_outcome(d)?));
    }
    let reused = dec_names(d)?;
    let partial = dec_names(d)?;
    let reproved = dec_names(d)?;
    let store_loaded = usize::try_from(d.u64()?).ok()?;
    let store_saved = usize::try_from(d.u64()?).ok()?;
    let certificates_checked = d.bool()?;
    let wall_ms = d.f64()?;
    let jobs = usize::try_from(d.u64()?).ok()?;
    let total_ms = d.f64()?;
    let rows = d.u32()? as usize;
    let mut properties = Vec::with_capacity(rows.min(1024));
    for _ in 0..rows {
        properties.push(PropStats {
            name: d.str()?,
            proved: d.bool()?,
            wall_ms: d.f64()?,
            obligations: usize::try_from(d.u64()?).ok()?,
        });
    }
    let paths_explored = d.u64()?;
    let cache = CacheStats {
        invariant_entries: d.u64()?,
        lemma_entries: d.u64()?,
        invariant_hits: d.u64()?,
        invariant_misses: d.u64()?,
        lemma_hits: d.u64()?,
        lemma_misses: d.u64()?,
    };
    let solver_queries = d.u64()?;
    let solver_memo_hits = d.u64()?;
    let interned_terms = d.u64()?;
    Some(SessionReport {
        program,
        outcomes,
        reused,
        partial,
        reproved,
        store_loaded,
        from_store: None,
        store_saved,
        certificates_checked,
        stats: ProverStats {
            jobs,
            total_ms,
            properties,
            paths_explored,
            cache,
            solver_queries,
            solver_memo_hits,
            interned_terms,
        },
        wall_ms,
    })
}

/// Service-wide counters, served over [`STATS`] and gated on by the
/// bench harness and CI (`protocol_errors` must stay 0 under load).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests accepted into a client queue.
    pub requests_submitted: u64,
    /// Requests executed to a terminal reply.
    pub requests_served: u64,
    /// Requests refused with [`ERR_BUSY`] (per-client backpressure).
    pub rejected_busy: u64,
    /// Frames that failed to decode (malformed, oversized, bad
    /// handshake) across all connections.
    pub protocol_errors: u64,
    /// Connections accepted over the daemon's lifetime.
    pub connections: u64,
    /// Requests shed with [`ERR_OVERLOADED`] by admission control.
    pub rejected_overloaded: u64,
    /// Requests that ended cancelled (queued kills and mid-run stops).
    pub cancelled: u64,
    /// Requests whose deadline expired while still queued.
    pub deadline_expired: u64,
    /// Verify requests answered from the idempotency window (cached
    /// reply or attach-to-in-flight) without re-proving.
    pub idempotent_hits: u64,
    /// Verify requests that actually executed a proof session (the
    /// denominator for the duplicate-work invariant).
    pub requests_executed: u64,
    /// Connections reaped by the server's read/idle deadline.
    pub reaped_connections: u64,
    /// Transient `accept()` errors survived by the listener loop.
    pub accept_errors: u64,
    /// Check and verify requests whose exact source was resident, so
    /// they skipped parsing, type checking and the abstraction build.
    pub resident_hits: u64,
    /// Check and verify requests that parsed and type-checked their
    /// source.
    pub resident_misses: u64,
}

/// Encodes a [`StatsSnapshot`] as a [`STATS_REPLY`] payload.
pub fn encode_stats(s: &StatsSnapshot) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(s.requests_submitted);
    e.u64(s.requests_served);
    e.u64(s.rejected_busy);
    e.u64(s.protocol_errors);
    e.u64(s.connections);
    e.u64(s.rejected_overloaded);
    e.u64(s.cancelled);
    e.u64(s.deadline_expired);
    e.u64(s.idempotent_hits);
    e.u64(s.requests_executed);
    e.u64(s.reaped_connections);
    e.u64(s.accept_errors);
    e.u64(s.resident_hits);
    e.u64(s.resident_misses);
    e.buf
}

/// Decodes a [`STATS_REPLY`] payload.
pub fn decode_stats(payload: &[u8]) -> Option<StatsSnapshot> {
    let mut d = Dec::new(payload);
    let s = StatsSnapshot {
        requests_submitted: d.u64()?,
        requests_served: d.u64()?,
        rejected_busy: d.u64()?,
        protocol_errors: d.u64()?,
        connections: d.u64()?,
        rejected_overloaded: d.u64()?,
        cancelled: d.u64()?,
        deadline_expired: d.u64()?,
        idempotent_hits: d.u64()?,
        requests_executed: d.u64()?,
        reaped_connections: d.u64()?,
        accept_errors: d.u64()?,
        resident_hits: d.u64()?,
        resident_misses: d.u64()?,
    };
    d.finish()?;
    Some(s)
}

/// Builds an [`ERROR`] frame payload (no retry hint).
pub fn encode_error(code: u16, message: &str) -> Vec<u8> {
    encode_error_retry(code, message, None)
}

/// Builds an [`ERROR`] frame payload carrying an optional
/// `retry_after_ms` hint (used by [`ERR_OVERLOADED`]).
pub fn encode_error_retry(code: u16, message: &str, retry_after_ms: Option<u64>) -> Vec<u8> {
    let mut e = Enc::new();
    e.u16(code);
    e.str(message);
    e.opt_u64(retry_after_ms);
    e.buf
}

/// Decodes an [`ERROR`] frame payload into `(code, message)`, dropping
/// any retry hint.
pub fn decode_error(payload: &[u8]) -> Option<(u16, String)> {
    decode_error_retry(payload).map(|(code, message, _)| (code, message))
}

/// Decodes an [`ERROR`] frame payload into
/// `(code, message, retry_after_ms)`.
pub fn decode_error_retry(payload: &[u8]) -> Option<(u16, String, Option<u64>)> {
    let mut d = Dec::new(payload);
    let code = d.u16()?;
    let message = d.str()?;
    let retry_after_ms = d.opt_u64()?;
    d.finish()?;
    Some((code, message, retry_after_ms))
}

/// Builds the [`HELLO`] payload.
pub fn encode_hello() -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(MAGIC);
    e.u16(VERSION);
    e.buf
}

/// Decodes and validates a [`HELLO`] payload.
pub fn decode_hello(payload: &[u8]) -> Option<u16> {
    let mut d = Dec::new(payload);
    let magic = d.u32()?;
    let version = d.u16()?;
    d.finish()?;
    (magic == MAGIC).then_some(version)
}
