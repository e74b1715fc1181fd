//! The client SDK: connect, handshake, one request at a time — plus the
//! retrying layer that makes the path fault-tolerant.
//!
//! [`Client`] is the library face of `rx client` (and of the re-routed
//! local subcommands when they talk to a remote daemon): it speaks the
//! frame protocol over a unix socket or TCP, streams back the
//! [`EVENT`](crate::protocol::EVENT) frames of a running verify through
//! a caller-supplied callback, and decodes the terminal reply into the
//! same [`SessionReport`] a local run produces — so rendering code
//! downstream cannot tell a daemon run from a one-shot run.
//!
//! [`RetryingClient`] wraps it with capped-exponential-backoff retries
//! (jitter drawn from a seeded `reflex-rng` stream, so a retry schedule
//! is reproducible from its seed) over the retryable failures: connect
//! refused, mid-stream disconnect, [`ERR_BUSY`] and [`ERR_OVERLOADED`]
//! (the latter's `retry_after_ms` hint overrides the backoff). Every
//! verify it sends carries a client-generated idempotency key, so a
//! retry of a request whose reply was lost in a disconnect is answered
//! from the server's dedup window with the byte-identical reply instead
//! of re-running the proof search.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

use reflex_driver::SessionReport;

use crate::protocol::{
    decode_error_retry, decode_reply, decode_stats, encode_hello, encode_request, read_frame,
    write_frame, Frame, ProtoError, Reply, Request, StatsSnapshot, CANCEL, CANCEL_OK, ERROR,
    ERR_BUSY, ERR_OVERLOADED, EVENT, HELLO, HELLO_OK, REPLY, REQUEST, SHUTDOWN, SHUTDOWN_OK, STATS,
    STATS_REPLY,
};

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A unix socket path.
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7171`.
    Tcp(String),
}

/// Why a client call failed.
#[derive(Debug, Clone)]
pub enum ClientError {
    /// Connecting or transporting frames failed.
    Io(String),
    /// The server broke protocol (unexpected frame, undecodable reply).
    Protocol(String),
    /// The server answered with a typed error frame.
    Remote {
        /// The `ERR_*` code.
        code: u16,
        /// The server's message.
        message: String,
        /// How long the server suggests waiting before retrying
        /// (carried by [`ERR_OVERLOADED`] sheds).
        retry_after_ms: Option<u64>,
    },
}

impl ClientError {
    /// Whether retrying the same request can succeed: transport
    /// failures (connect refused, mid-stream disconnect) and the
    /// server's explicit try-again answers ([`ERR_BUSY`],
    /// [`ERR_OVERLOADED`]). Protocol violations and every other typed
    /// error are final.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Io(_) => true,
            ClientError::Protocol(_) => false,
            ClientError::Remote { code, .. } => *code == ERR_BUSY || *code == ERR_OVERLOADED,
        }
    }

    /// The server's retry-after hint, when it sent one.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            ClientError::Remote { retry_after_ms, .. } => *retry_after_ms,
            _ => None,
        }
    }

    /// The typed `ERR_*` code, when the server sent one.
    pub fn remote_code(&self) -> Option<u16> {
        match self {
            ClientError::Remote { code, .. } => Some(*code),
            _ => None,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "{e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Remote { code, message, .. } => {
                write!(f, "server error {code}: {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Io(m) => ClientError::Io(m),
            ProtoError::Closed => ClientError::Io("connection closed by server".into()),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

/// A bidirectional byte stream the client can speak frames over. The
/// plug-in point for test transports: `reflex-sim`'s FaultyNet wraps a
/// real socket in a fault-injecting `Duplex` and hands it to
/// [`Client::over`].
pub trait Duplex: Read + Write + Send {}

impl<T: Read + Write + Send> Duplex for T {}

enum Transport {
    Tcp(TcpStream),
    Unix(UnixStream),
    Boxed(Box<dyn Duplex>),
}

impl Read for Transport {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.read(buf),
            Transport::Unix(s) => s.read(buf),
            Transport::Boxed(s) => s.read(buf),
        }
    }
}

impl Write for Transport {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.write(buf),
            Transport::Unix(s) => s.write(buf),
            Transport::Boxed(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Transport::Tcp(s) => s.flush(),
            Transport::Unix(s) => s.flush(),
            Transport::Boxed(s) => s.flush(),
        }
    }
}

/// A connected, handshaken daemon client.
pub struct Client {
    stream: Transport,
    next_id: u64,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("next_id", &self.next_id)
            .finish()
    }
}

impl Client {
    /// Connects and performs the version handshake.
    pub fn connect(endpoint: &Endpoint) -> Result<Client, ClientError> {
        let stream = match endpoint {
            Endpoint::Unix(path) => Transport::Unix(
                UnixStream::connect(path)
                    .map_err(|e| ClientError::Io(format!("{}: {e}", path.display())))?,
            ),
            Endpoint::Tcp(addr) => Transport::Tcp(
                TcpStream::connect(addr).map_err(|e| ClientError::Io(format!("{addr}: {e}")))?,
            ),
        };
        Client::handshake(stream)
    }

    /// Performs the version handshake over an arbitrary byte stream —
    /// the entry point fault-injecting test transports use.
    pub fn over(stream: Box<dyn Duplex>) -> Result<Client, ClientError> {
        Client::handshake(Transport::Boxed(stream))
    }

    fn handshake(stream: Transport) -> Result<Client, ClientError> {
        let mut client = Client { stream, next_id: 1 };
        client.send(HELLO, 0, encode_hello())?;
        let frame = client.read()?;
        match frame.kind {
            HELLO_OK => Ok(client),
            ERROR => Err(remote_error(&frame)),
            kind => Err(ClientError::Protocol(format!(
                "expected hello-ok, got frame kind {kind}"
            ))),
        }
    }

    fn send(&mut self, kind: u8, request_id: u64, payload: Vec<u8>) -> Result<(), ClientError> {
        write_frame(
            &mut self.stream,
            &Frame {
                kind,
                request_id,
                payload,
            },
        )
        .map_err(ClientError::from)
    }

    fn read(&mut self) -> Result<Frame, ClientError> {
        read_frame(&mut self.stream).map_err(ClientError::from)
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Sends one request and collects its terminal reply, feeding any
    /// streamed event JSON lines to `on_event` along the way.
    fn roundtrip(
        &mut self,
        request: &Request,
        on_event: &mut dyn FnMut(&str),
    ) -> Result<Reply, ClientError> {
        let id = self.fresh_id();
        self.send(REQUEST, id, encode_request(request))?;
        loop {
            let frame = self.read()?;
            if frame.request_id != id && frame.kind != ERROR {
                // Frames for earlier ids are stale — the tail of a
                // cancelled request, or the echo of a duplicated frame
                // on a faulty transport — and are skipped, not fatal.
                if frame.request_id < id {
                    continue;
                }
                return Err(ClientError::Protocol(format!(
                    "reply for unknown request id {}",
                    frame.request_id
                )));
            }
            match frame.kind {
                EVENT => {
                    if let Ok(line) = std::str::from_utf8(&frame.payload) {
                        on_event(line);
                    }
                }
                REPLY => {
                    return decode_reply(&frame.payload).ok_or_else(|| {
                        ClientError::Protocol("reply payload did not decode".into())
                    });
                }
                ERROR => return Err(remote_error(&frame)),
                kind => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected frame kind {kind} mid-request"
                    )))
                }
            }
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Ping, &mut |_| {})? {
            Reply::Pong => Ok(()),
            _ => Err(ClientError::Protocol("expected pong".into())),
        }
    }

    /// Parses and type-checks a kernel on the daemon.
    pub fn check(
        &mut self,
        name: &str,
        source: &str,
    ) -> Result<crate::protocol::CheckSummary, ClientError> {
        let request = Request::Check {
            name: name.to_owned(),
            source: source.to_owned(),
        };
        match self.roundtrip(&request, &mut |_| {})? {
            Reply::Checked(summary) => Ok(summary),
            _ => Err(ClientError::Protocol("expected check summary".into())),
        }
    }

    /// Verifies a kernel on the daemon, streaming event JSON lines to
    /// `on_event`, and returns the full report (certificates included).
    pub fn verify(
        &mut self,
        request: Request,
        on_event: &mut dyn FnMut(&str),
    ) -> Result<SessionReport, ClientError> {
        debug_assert!(matches!(request, Request::Verify { .. }));
        match self.roundtrip(&request, on_event)? {
            Reply::Verify(report) => Ok(*report),
            _ => Err(ClientError::Protocol("expected verify report".into())),
        }
    }

    /// Fetches the daemon's service counters.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        let id = self.fresh_id();
        self.send(STATS, id, Vec::new())?;
        let frame = self.read()?;
        match frame.kind {
            STATS_REPLY => decode_stats(&frame.payload)
                .ok_or_else(|| ClientError::Protocol("stats payload did not decode".into())),
            ERROR => Err(remote_error(&frame)),
            kind => Err(ClientError::Protocol(format!(
                "expected stats reply, got frame kind {kind}"
            ))),
        }
    }

    /// Asks the daemon to cancel request `request_id` on this
    /// connection. Idempotent: cancelling an unknown or already
    /// completed id is still acknowledged. The cancelled request's own
    /// typed terminal frame travels separately under its original id;
    /// for a request cancelled while queued it follows the
    /// acknowledgement.
    pub fn cancel(&mut self, request_id: u64) -> Result<(), ClientError> {
        self.send(CANCEL, request_id, Vec::new())?;
        let frame = self.read()?;
        match frame.kind {
            CANCEL_OK => Ok(()),
            ERROR => Err(remote_error(&frame)),
            kind => Err(ClientError::Protocol(format!(
                "expected cancel-ok, got frame kind {kind}"
            ))),
        }
    }

    /// Asks the daemon to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let id = self.fresh_id();
        self.send(SHUTDOWN, id, Vec::new())?;
        let frame = self.read()?;
        match frame.kind {
            SHUTDOWN_OK => Ok(()),
            ERROR => Err(remote_error(&frame)),
            kind => Err(ClientError::Protocol(format!(
                "expected shutdown-ok, got frame kind {kind}"
            ))),
        }
    }
}

fn remote_error(frame: &Frame) -> ClientError {
    match decode_error_retry(&frame.payload) {
        Some((code, message, retry_after_ms)) => ClientError::Remote {
            code,
            message,
            retry_after_ms,
        },
        None => ClientError::Protocol("error frame did not decode".into()),
    }
}

// ---------------------------------------------------------------------------
// Retrying layer
// ---------------------------------------------------------------------------

/// Backoff schedule for [`RetryingClient`]: capped exponential with
/// seeded jitter, so a given `(seed, attempt)` always sleeps the same
/// amount — retry schedules reproduce exactly under the simulator.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total tries per request, the first included. 0 behaves as 1
    /// (no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, milliseconds; doubles per
    /// subsequent retry.
    pub base_delay_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub max_delay_ms: u64,
    /// Seed for the jitter stream (and for idempotency-key
    /// generation). Callers outside the simulator should derive this
    /// from something unique per process.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 25,
            max_delay_ms: 1_000,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `retry` (1-based): the capped
    /// exponential step, halved and topped back up with a seeded draw
    /// (half-jitter), so concurrent retriers decorrelate without ever
    /// exceeding the cap.
    pub fn delay_ms(&self, retry: u32) -> u64 {
        let step = self
            .base_delay_ms
            .saturating_mul(1u64 << (retry - 1).min(20))
            .min(self.max_delay_ms);
        let half = step / 2;
        half + reflex_rng::stream_u64(reflex_rng::derive(self.seed, "retry-jitter"), retry as u64)
            % (step - half + 1)
    }
}

/// What one retried call went through, for logs and assertions.
#[derive(Debug, Clone, Copy, Default)]
pub struct RetryStats {
    /// Connections dialled (including the successful one).
    pub connects: u64,
    /// Requests re-sent after a retryable failure.
    pub retries: u64,
    /// Milliseconds slept in backoff.
    pub backoff_ms: u64,
}

/// A [`Client`] that survives transient failures: it dials lazily,
/// re-dials after transport errors, and retries retryable failures
/// (see [`ClientError::is_retryable`]) under the [`RetryPolicy`]'s
/// backoff. Verify requests are stamped with a client-generated
/// idempotency key before the first send, so a retry after a lost
/// reply deduplicates server-side.
pub struct RetryingClient {
    dial: Box<dyn FnMut() -> Result<Client, ClientError> + Send>,
    policy: RetryPolicy,
    sleep: Box<dyn FnMut(u64) + Send>,
    client: Option<Client>,
    keys_issued: u64,
    stats: RetryStats,
}

impl std::fmt::Debug for RetryingClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetryingClient")
            .field("policy", &self.policy)
            .field("connected", &self.client.is_some())
            .field("stats", &self.stats)
            .finish()
    }
}

impl RetryingClient {
    /// A retrying client for `endpoint`. Does not dial yet — the first
    /// call does (and a refused dial is itself retried).
    pub fn connect(endpoint: &Endpoint, policy: RetryPolicy) -> RetryingClient {
        let endpoint = endpoint.clone();
        RetryingClient::with_dialer(Box::new(move || Client::connect(&endpoint)), policy)
    }

    /// A retrying client over a custom dialer — how the simulator
    /// interposes its fault-injecting transport on every (re)connect.
    pub fn with_dialer(
        dial: Box<dyn FnMut() -> Result<Client, ClientError> + Send>,
        policy: RetryPolicy,
    ) -> RetryingClient {
        RetryingClient {
            dial,
            policy,
            sleep: Box::new(|ms| std::thread::sleep(std::time::Duration::from_millis(ms))),
            client: None,
            keys_issued: 0,
            stats: RetryStats::default(),
        }
    }

    /// Replaces the backoff sleeper (tests substitute a no-op so a
    /// retry storm runs at full speed).
    pub fn set_sleeper(&mut self, sleep: Box<dyn FnMut(u64) + Send>) {
        self.sleep = sleep;
    }

    /// What this client has been through so far.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// The next idempotency key: a fresh draw from the seed-derived
    /// key stream. Unique per logical request, stable across that
    /// request's retries (it is stamped once, before the first send).
    fn fresh_key(&mut self) -> u64 {
        self.keys_issued += 1;
        reflex_rng::stream_u64(
            reflex_rng::derive(self.policy.seed, "idem-key"),
            self.keys_issued,
        )
    }

    /// Runs `op` against a live connection, dialling and retrying as
    /// the policy allows. Transport errors drop the connection so the
    /// next attempt re-dials.
    fn with_retries<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let max = self.policy.max_attempts.max(1);
        let mut attempt = 1u32;
        loop {
            let result = match &mut self.client {
                Some(client) => op(client),
                None => match (self.dial)() {
                    Ok(mut client) => {
                        self.stats.connects += 1;
                        let r = op(&mut client);
                        self.client = Some(client);
                        r
                    }
                    Err(e) => Err(e),
                },
            };
            let e = match result {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            if matches!(e, ClientError::Io(_)) {
                // The stream is in an unknown state; re-dial.
                self.client = None;
            }
            if !e.is_retryable() || attempt >= max {
                return Err(e);
            }
            let delay = e
                .retry_after_ms()
                .unwrap_or_else(|| self.policy.delay_ms(attempt));
            self.stats.backoff_ms += delay;
            self.stats.retries += 1;
            (self.sleep)(delay);
            attempt += 1;
        }
    }

    /// [`Client::ping`], retried.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.with_retries(|c| c.ping())
    }

    /// [`Client::stats`], retried.
    pub fn server_stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        self.with_retries(|c| c.stats())
    }

    /// [`Client::check`], retried (check is read-only, so it needs no
    /// idempotency key).
    pub fn check(
        &mut self,
        name: &str,
        source: &str,
    ) -> Result<crate::protocol::CheckSummary, ClientError> {
        self.with_retries(|c| c.check(name, source))
    }

    /// [`Client::verify`], retried, with an idempotency key stamped
    /// before the first send (unless the caller provided one) so every
    /// retry names the same logical request.
    pub fn verify(
        &mut self,
        mut request: Request,
        on_event: &mut dyn FnMut(&str),
    ) -> Result<SessionReport, ClientError> {
        if let Request::Verify {
            idempotency_key: key @ None,
            ..
        } = &mut request
        {
            *key = Some(self.fresh_key());
        }
        self.with_retries(|c| c.verify(request.clone(), on_event))
    }
}
