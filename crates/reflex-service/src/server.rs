//! The `rxd` socket server: unix-socket and TCP front ends over one
//! shared [`ServiceCore`].
//!
//! Each accepted connection gets its own reader thread and its own
//! client id (so per-client queueing, budgets and fairness apply per
//! connection). After the version handshake the reader keeps reading
//! frames while requests run: each accepted [`REQUEST`] is submitted to
//! the core, and whichever thread fills its ticket writes its terminal
//! frame — the worker that completes or expires it (after any
//! [`EVENT`](crate::protocol::EVENT) frames it streamed), the worker
//! that completes the attempt an idempotent retry follows, the reader
//! that cancels it while queued, or the reader itself when an
//! idempotent replay is answered at submit. Every write goes through the
//! connection's one locked writer, and no thread exists per request.
//! That is what lets a [`CANCEL`] frame reach a request already in
//! flight, and lets one connection pipeline requests.
//!
//! Hostile or dead peers cannot wedge the server: reads run under a
//! per-frame progress deadline (a slow-loris trickling bytes is reaped
//! mid-frame) and an idle deadline (a dead TCP half with nothing in
//! flight is reaped between frames), both answered with a typed
//! [`ERR_IDLE`] frame before close. Writes carry a socket write
//! timeout; the first write that fails or times out marks the
//! connection broken and shuts it down, and later frames for it are
//! dropped at once, so a peer that stops reading costs the writers at
//! most one write timeout. A broken connection's work stops with it
//! ([`ServiceCore::cancel_client`]): a failed write, a reap or a read
//! error other than a clean EOF cancels its queued requests and the
//! budgets of its running ones, except those with an idempotency key,
//! whose retry is answered from the window. A clean close still gets
//! every accepted request's reply. Malformed input is answered, counted and
//! dropped — never panicked on: a frame that fails to decode gets a
//! typed [`ERROR`](crate::protocol::ERROR) frame, bumps
//! [`ServiceStats::protocol_errors`] and closes the connection.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use reflex_driver::{Event, Instrument, NullSink};

use crate::core::{ServiceCore, ServiceError, ServiceStats};
use crate::protocol::{
    decode_hello, decode_request, encode_error, encode_error_retry, encode_reply, encode_stats,
    read_frame, write_frame, Frame, ProtoError, Reply, CANCEL, CANCEL_OK, ERROR, ERR_BUSY,
    ERR_CANCELLED, ERR_DEADLINE, ERR_IDLE, ERR_MALFORMED, ERR_OVERLOADED, ERR_OVERSIZED,
    ERR_REQUEST, ERR_SHUTDOWN, ERR_VERSION, EVENT, HELLO, HELLO_OK, REPLY, REQUEST, SHUTDOWN,
    SHUTDOWN_OK, STATS, STATS_REPLY, VERSION,
};

/// Where the server listens and how aggressively it reaps bad peers.
/// At least one of the two endpoints must be set.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Unix-socket path (a stale socket file is replaced).
    pub unix: Option<PathBuf>,
    /// TCP bind address, e.g. `127.0.0.1:7171` (port 0 picks a free
    /// port, reported by [`ServerHandle::tcp_addr`]).
    pub tcp: Option<String>,
    /// Once a frame's first byte arrives, the whole frame must complete
    /// within this long or the peer is reaped (slow-loris guard).
    /// 0 means the default (10 000 ms).
    pub frame_timeout_ms: u64,
    /// A connection with no in-flight requests and no bytes arriving
    /// for this long is reaped (dead-half guard). 0 means the default
    /// (300 000 ms).
    pub idle_timeout_ms: u64,
    /// Socket write timeout, so a peer that stopped draining cannot
    /// block event/reply writers forever: the first write that times
    /// out closes the connection. 0 means the default (30 000 ms).
    pub write_timeout_ms: u64,
}

/// Resolved read/write deadlines for one server.
#[derive(Debug, Clone, Copy)]
struct Timeouts {
    /// Socket-level read poll granularity (how often deadline checks
    /// run while the peer is silent).
    poll: Duration,
    frame: Duration,
    idle: Duration,
    write: Duration,
}

impl Timeouts {
    fn of(config: &ServerConfig) -> Timeouts {
        let or = |v: u64, d: u64| if v == 0 { d } else { v };
        let frame = or(config.frame_timeout_ms, 10_000);
        // Poll fast enough that a small frame deadline is enforced with
        // useful resolution, without spinning.
        let poll = (frame / 8).clamp(5, 100);
        Timeouts {
            poll: Duration::from_millis(poll),
            frame: Duration::from_millis(frame),
            idle: Duration::from_millis(or(config.idle_timeout_ms, 300_000)),
            write: Duration::from_millis(or(config.write_timeout_ms, 30_000)),
        }
    }
}

/// One live transport stream (both halves).
#[derive(Debug)]
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    fn close(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(dur),
            Stream::Unix(s) => s.set_read_timeout(dur),
        }
    }

    fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(dur),
            Stream::Unix(s) => s.set_write_timeout(dur),
        }
    }
}

/// Why [`TimedReader`] gave up on a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reaped {
    /// A frame started arriving but did not finish inside the frame
    /// deadline (slow-loris).
    SlowFrame,
    /// Nothing in flight and no bytes for the idle deadline (dead
    /// half).
    Idle,
}

/// A deadline-enforcing read adapter over a [`Stream`] whose socket
/// read timeout is set to [`Timeouts::poll`]: timeouts from the socket
/// are absorbed here and turned into deadline checks, so the framed
/// reader above ([`read_frame`]) never sees a spurious timeout mid
/// `read_exact` (which would lose the bytes already consumed).
struct TimedReader<'a> {
    stream: &'a mut Stream,
    timeouts: Timeouts,
    stop: Arc<AtomicBool>,
    /// The connection's write side; while it has requests in flight,
    /// silence is legitimate (the peer is waiting for replies) and idle
    /// reaping is off.
    conn: Arc<Conn>,
    /// Deadline for the frame currently arriving (set at its first
    /// byte, cleared by [`TimedReader::begin_frame`]).
    frame_deadline: Option<Instant>,
    /// Start of the current between-frames gap.
    idle_since: Instant,
    /// Set when a deadline tripped; the connection loop turns it into
    /// a typed [`ERR_IDLE`] frame before closing.
    reaped: Option<Reaped>,
}

impl<'a> TimedReader<'a> {
    fn new(
        stream: &'a mut Stream,
        timeouts: Timeouts,
        stop: Arc<AtomicBool>,
        conn: Arc<Conn>,
    ) -> TimedReader<'a> {
        TimedReader {
            stream,
            timeouts,
            stop,
            conn,
            frame_deadline: None,
            idle_since: Instant::now(),
            reaped: None,
        }
    }

    /// Marks a frame boundary: the next byte starts a new frame (and a
    /// new frame deadline); until it arrives the idle clock runs.
    fn begin_frame(&mut self) {
        self.frame_deadline = None;
        self.idle_since = Instant::now();
    }
}

impl Read for TimedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Ok(n) => {
                    if n > 0 && self.frame_deadline.is_none() {
                        self.frame_deadline = Some(Instant::now() + self.timeouts.frame);
                    }
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if self.stop.load(Ordering::Relaxed) {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "server stopping"));
                    }
                    let now = Instant::now();
                    if let Some(deadline) = self.frame_deadline {
                        if now >= deadline {
                            self.reaped = Some(Reaped::SlowFrame);
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                "frame read deadline exceeded",
                            ));
                        }
                    } else if !self.conn.has_inflight()
                        && now.duration_since(self.idle_since) >= self.timeouts.idle
                    {
                        self.reaped = Some(Reaped::Idle);
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "idle deadline exceeded",
                        ));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// One connection's write side. Every frame the server sends on a
/// connection goes through [`Conn::send`], from whichever thread has it
/// to send: the reader, a worker streaming events or finishing a
/// request, or the thread that cancels one.
struct Conn {
    /// The write half, or `None` once the connection is broken: the
    /// first write that fails or times out shuts the socket down (which
    /// also ends the reader), and every later frame is dropped without
    /// touching it.
    writer: Mutex<Option<Stream>>,
    /// Requests submitted on this connection and not yet answered.
    inflight: Mutex<usize>,
    /// Signalled when `inflight` drops to 0.
    drained: Condvar,
}

impl Conn {
    fn new(writer: Stream) -> Conn {
        Conn {
            writer: Mutex::new(Some(writer)),
            inflight: Mutex::new(0),
            drained: Condvar::new(),
        }
    }

    /// Writes one frame, best-effort: a peer that stopped reading costs
    /// one write timeout, once.
    fn send(&self, kind: u8, request_id: u64, payload: Vec<u8>) {
        let mut writer = self.writer.lock().expect("connection writer poisoned");
        let Some(stream) = writer.as_mut() else {
            return;
        };
        let frame = Frame {
            kind,
            request_id,
            payload,
        };
        if write_frame(stream, &frame).is_err() {
            stream.close();
            *writer = None;
        }
    }

    /// Whether a write failed and shut the connection down.
    fn is_broken(&self) -> bool {
        self.writer
            .lock()
            .expect("connection writer poisoned")
            .is_none()
    }

    /// Sends a request's terminal frame: its REPLY, or the typed
    /// [`ERROR`] for a [`ServiceError`] (with the `retry_after_ms` hint
    /// when it is an overload shed).
    fn reply(&self, request_id: u64, result: Result<Reply, ServiceError>) {
        match result {
            Ok(reply) => self.send(REPLY, request_id, encode_reply(&reply)),
            Err(e) => {
                let retry_after = match e {
                    ServiceError::Overloaded { retry_after_ms } => Some(retry_after_ms),
                    _ => None,
                };
                let payload = encode_error_retry(error_code(&e), &e.to_string(), retry_after);
                self.send(ERROR, request_id, payload);
            }
        }
    }

    fn has_inflight(&self) -> bool {
        *self.inflight.lock().expect("inflight poisoned") > 0
    }

    fn begin_request(&self) {
        *self.inflight.lock().expect("inflight poisoned") += 1;
    }

    fn end_request(&self) {
        let mut inflight = self.inflight.lock().expect("inflight poisoned");
        *inflight -= 1;
        if *inflight == 0 {
            self.drained.notify_all();
        }
    }

    /// Waits up to `timeout` for every submitted request to have had its
    /// terminal frame sent (or dropped, on a broken connection), and
    /// says whether they all have.
    fn wait_drained(&self, timeout: Duration) -> bool {
        let inflight = self.inflight.lock().expect("inflight poisoned");
        let (inflight, _) = self
            .drained
            .wait_timeout_while(inflight, timeout, |n| *n > 0)
            .expect("inflight poisoned");
        *inflight == 0
    }

    /// Answers a peer's protocol violation with a typed [`ERROR`] frame
    /// and counts it.
    fn protocol_error(&self, stats: &ServiceStats, request_id: u64, code: u16, message: &str) {
        stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
        self.send(ERROR, request_id, encode_error(code, message));
    }
}

/// Forwards session events as [`EVENT`] frames through the connection's
/// writer, tagged with the request they belong to.
struct FrameSink {
    conn: Arc<Conn>,
    request_id: u64,
}

impl Instrument for FrameSink {
    fn event(&self, event: &Event) {
        self.conn
            .send(EVENT, self.request_id, event.to_json().into_bytes());
    }
}

/// A running server: its listeners, connection threads and shutdown
/// switchboard.
#[derive(Debug)]
pub struct ServerHandle {
    core: Arc<ServiceCore>,
    /// Tells accept loops and connections to wind down.
    stop: Arc<AtomicBool>,
    /// Set when a client asked the daemon to shut down.
    shutdown_requested: Arc<AtomicBool>,
    accept_threads: Mutex<Vec<(JoinHandle<()>, Wake)>>,
    shared: Arc<Shared>,
    /// The unix socket path actually bound, if any.
    pub unix_path: Option<PathBuf>,
    /// The TCP address actually bound, if any (resolves port 0).
    pub tcp_addr: Option<SocketAddr>,
}

/// Where an accept loop listens, so [`ServerHandle::stop`] can wake it
/// from its blocking `accept` with a connection of its own.
#[derive(Debug)]
enum Wake {
    Unix(PathBuf),
    Tcp(SocketAddr),
}

impl Wake {
    /// Connects to the listener and hangs up at once. Returns whether the
    /// connection was made: if not, the loop cannot be woken.
    fn wake(&self) -> bool {
        match self {
            Wake::Unix(path) => UnixStream::connect(path).is_ok(),
            Wake::Tcp(addr) => {
                // A listener on the unspecified address is reached over
                // loopback.
                let mut addr = *addr;
                if addr.ip().is_unspecified() {
                    addr.set_ip(match addr {
                        SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                        SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
                    });
                }
                TcpStream::connect_timeout(&addr, Duration::from_secs(1)).is_ok()
            }
        }
    }
}

/// State shared by every accept loop and connection thread.
struct Shared {
    core: Arc<ServiceCore>,
    stop: Arc<AtomicBool>,
    shutdown_requested: Arc<AtomicBool>,
    next_client: AtomicU64,
    timeouts: Timeouts,
    /// Live connections by client id. Each connection removes its own
    /// entry as it ends, so a long-lived daemon holds nothing for the
    /// connections it has already served.
    conns: Mutex<HashMap<u64, LiveConn>>,
}

/// What [`ServerHandle::stop`] needs of a live connection.
struct LiveConn {
    /// A clone of the socket, closed on stop to unblock the reader.
    stream: Stream,
    thread: JoinHandle<()>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").finish()
    }
}

/// Binds the configured listeners and starts serving `core`.
pub fn serve(core: Arc<ServiceCore>, config: &ServerConfig) -> io::Result<ServerHandle> {
    if config.unix.is_none() && config.tcp.is_none() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "server needs a unix socket path or a tcp address",
        ));
    }
    let stop = Arc::new(AtomicBool::new(false));
    let shutdown_requested = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(Shared {
        core: Arc::clone(&core),
        stop: Arc::clone(&stop),
        shutdown_requested: Arc::clone(&shutdown_requested),
        next_client: AtomicU64::new(1),
        timeouts: Timeouts::of(config),
        conns: Mutex::new(HashMap::new()),
    });
    let mut accept_threads = Vec::new();
    let mut unix_path = None;
    if let Some(path) = &config.unix {
        // A previous daemon's stale socket file would make bind fail;
        // replacing it is the standard unix-daemon move.
        if path.exists() {
            let _ = std::fs::remove_file(path);
        }
        let listener = UnixListener::bind(path)?;
        unix_path = Some(path.clone());
        let shared = Arc::clone(&shared);
        let thread = std::thread::spawn(move || {
            accept_loop(&shared, || listener.accept().map(|(s, _)| Stream::Unix(s)));
        });
        accept_threads.push((thread, Wake::Unix(path.clone())));
    }
    let mut tcp_addr = None;
    if let Some(addr) = &config.tcp {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        tcp_addr = Some(local);
        let shared = Arc::clone(&shared);
        let thread = std::thread::spawn(move || {
            accept_loop(&shared, || listener.accept().map(|(s, _)| Stream::Tcp(s)));
        });
        accept_threads.push((thread, Wake::Tcp(local)));
    }
    Ok(ServerHandle {
        core,
        stop,
        shutdown_requested,
        accept_threads: Mutex::new(accept_threads),
        shared,
        unix_path,
        tcp_addr,
    })
}

impl ServerHandle {
    /// Whether a client has requested daemon shutdown.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested.load(Ordering::Relaxed)
    }

    /// Blocks until a client requests shutdown (the `rxd` main loop).
    pub fn wait_for_shutdown(&self) {
        while !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// The core this server fronts.
    pub fn core(&self) -> &Arc<ServiceCore> {
        &self.core
    }

    /// Stops accepting, closes the connections still live, joins every
    /// server thread and removes the unix socket file. The core itself
    /// is left running — call [`ServiceCore::shutdown`] after this to
    /// drain and flush.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for (handle, wake) in
            std::mem::take(&mut *self.accept_threads.lock().expect("accept poisoned"))
        {
            // An accept loop blocks in `accept`; the wake connection
            // returns it to its stop check. A loop that cannot be reached
            // (its socket file replaced) is left to exit on its next
            // accept rather than joined.
            if wake.wake() {
                let _ = handle.join();
            }
        }
        let live = std::mem::take(&mut *self.shared.conns.lock().expect("conns poisoned"));
        for conn in live.values() {
            conn.stream.close();
        }
        for (_, conn) in live {
            let _ = conn.thread.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Accepts connections until told to stop, spawning one thread per
/// accepted connection. `accept` blocks; [`ServerHandle::stop`] sets the
/// flag and then connects, so the loop sees the flag as that connection
/// arrives and drops it unserved.
fn accept_loop(shared: &Arc<Shared>, mut accept: impl FnMut() -> io::Result<Stream>) {
    loop {
        let accepted = accept();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok(stream) => {
                shared
                    .core
                    .stats()
                    .connections
                    .fetch_add(1, Ordering::Relaxed);
                let client = shared.next_client.fetch_add(1, Ordering::Relaxed);
                let closer = match stream.try_clone() {
                    Ok(closer) => closer,
                    Err(e) => {
                        accept_error(shared, &e);
                        continue;
                    }
                };
                // Spawned with the map locked, so the connection's
                // removal of its own entry cannot run before the insert.
                let mut conns = shared.conns.lock().expect("conns poisoned");
                let shared2 = Arc::clone(shared);
                let thread = std::thread::spawn(move || {
                    let mut stream = stream;
                    handle_connection(&shared2, &mut stream, client);
                    // Shut the socket down so the peer sees the close at
                    // once, then drop this connection's entry: that
                    // closes the clone and detaches this thread, whose
                    // stack is freed as it exits.
                    stream.close();
                    shared2
                        .conns
                        .lock()
                        .expect("conns poisoned")
                        .remove(&client);
                });
                conns.insert(
                    client,
                    LiveConn {
                        stream: closer,
                        thread,
                    },
                );
            }
            Err(e) => accept_error(shared, &e),
        }
    }
}

/// Transient listener trouble (EMFILE, ECONNABORTED, a shutdown race):
/// log, count, back off and keep accepting — one bad accept must never
/// kill the listener for every future client.
fn accept_error(shared: &Shared, e: &io::Error) {
    shared
        .core
        .stats()
        .accept_errors
        .fetch_add(1, Ordering::Relaxed);
    eprintln!("rxd: accept error (continuing): {e}");
    std::thread::sleep(Duration::from_millis(5));
}

/// Runs one connection to completion: handshake, then the pipelined
/// request loop. The reader keeps reading (so CANCEL frames land) while
/// each request's terminal frame is written by whichever thread fills
/// its ticket. Every exit path waits for the connection's in-flight count
/// to reach 0 before closing, so on a clean close accepted requests
/// always get their terminal frame; a broken connection cancels its work
/// first. Nothing in here panics on hostile input.
fn handle_connection(shared: &Arc<Shared>, reader: &mut Stream, client: u64) {
    let stats = shared.core.stats();
    // The poll-granularity socket timeout drives TimedReader's deadline
    // checks; the write timeout bounds every writer through the shared
    // half (the fd is shared with the clone, so setting it here covers
    // both).
    let _ = reader.set_read_timeout(Some(shared.timeouts.poll));
    let _ = reader.set_write_timeout(Some(shared.timeouts.write));
    let conn = match reader.try_clone() {
        Ok(w) => Arc::new(Conn::new(w)),
        Err(_) => return,
    };
    let timeouts = shared.timeouts;
    let mut timed = TimedReader::new(
        reader,
        timeouts,
        Arc::clone(&shared.stop),
        Arc::clone(&conn),
    );

    // ---- Handshake ------------------------------------------------------
    timed.begin_frame();
    match read_frame(&mut timed) {
        Ok(frame) if frame.kind == HELLO => match decode_hello(&frame.payload) {
            Some(version) if version == VERSION => {
                let mut e = crate::protocol::Enc::new();
                e.u16(VERSION);
                conn.send(HELLO_OK, frame.request_id, e.buf);
            }
            Some(version) => {
                conn.protocol_error(
                    stats,
                    frame.request_id,
                    ERR_VERSION,
                    &format!("unsupported protocol version {version} (server speaks {VERSION})"),
                );
                return;
            }
            None => {
                conn.protocol_error(stats, frame.request_id, ERR_VERSION, "bad hello payload");
                return;
            }
        },
        Ok(frame) => {
            conn.protocol_error(
                stats,
                frame.request_id,
                ERR_MALFORMED,
                "expected hello frame first",
            );
            return;
        }
        Err(e) => {
            report_reap(&conn, stats, timed.reaped);
            report_read_error(&conn, stats, &e);
            return;
        }
    }

    // ---- Request loop ---------------------------------------------------
    let mut broken = false;
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        timed.begin_frame();
        let frame = match read_frame(&mut timed) {
            Ok(frame) => frame,
            Err(e) => {
                report_reap(&conn, stats, timed.reaped);
                report_read_error(&conn, stats, &e);
                // A reap or a transport failure breaks the connection; a
                // clean EOF or the server's own stop does not.
                broken = timed.reaped.is_some()
                    || (matches!(e, ProtoError::Io(_)) && !shared.stop.load(Ordering::Relaxed));
                break;
            }
        };
        match frame.kind {
            REQUEST => {
                let Some(request) = decode_request(&frame.payload) else {
                    conn.protocol_error(
                        stats,
                        frame.request_id,
                        ERR_MALFORMED,
                        "request payload did not decode",
                    );
                    break;
                };
                let want_events = matches!(
                    request,
                    crate::protocol::Request::Verify {
                        want_events: true,
                        ..
                    }
                );
                let sink: Arc<dyn Instrument + Send> = if want_events {
                    Arc::new(FrameSink {
                        conn: Arc::clone(&conn),
                        request_id: frame.request_id,
                    })
                } else {
                    Arc::new(NullSink)
                };
                // Submit on the reader thread (preserving the client's
                // send order in its queue); the reply is written by
                // whichever thread fills the ticket, so this loop keeps
                // reading — that is what lets CANCEL reach an in-flight
                // request.
                let request_id = frame.request_id;
                match shared.core.submit(client, request_id, request, sink) {
                    Ok(ticket) => {
                        conn.begin_request();
                        let conn = Arc::clone(&conn);
                        ticket.on_reply(Box::new(move |result| {
                            conn.reply(request_id, result);
                            conn.end_request();
                        }));
                    }
                    Err(e) => conn.reply(request_id, Err(e)),
                }
            }
            CANCEL => {
                // Idempotent: unknown/completed ids are acknowledged
                // the same way — the interesting effect (a typed
                // Cancelled terminal frame) travels on the original
                // request's id. The ack goes first: cancelling a queued
                // request writes its terminal frame right here, on this
                // thread.
                conn.send(CANCEL_OK, frame.request_id, Vec::new());
                let _ = shared.core.cancel(client, frame.request_id);
            }
            STATS => {
                conn.send(
                    STATS_REPLY,
                    frame.request_id,
                    encode_stats(&stats.snapshot()),
                );
            }
            SHUTDOWN => {
                conn.send(SHUTDOWN_OK, frame.request_id, Vec::new());
                shared.shutdown_requested.store(true, Ordering::Relaxed);
                break;
            }
            _ => {
                conn.protocol_error(
                    stats,
                    frame.request_id,
                    ERR_MALFORMED,
                    &format!("unknown frame kind {}", frame.kind),
                );
                break;
            }
        }
    }
    // Every accepted request still gets its terminal frame (or has it
    // dropped, when broken) before the connection closes. A broken
    // connection's replies cannot be read, so its work stops; a write
    // can still break it after a clean EOF (a half-closed peer that went
    // away), so the drain keeps watching.
    let mut cancelled = false;
    loop {
        if !cancelled && (broken || conn.is_broken()) {
            shared.core.cancel_client(client);
            cancelled = true;
        }
        if conn.wait_drained(timeouts.poll) {
            break;
        }
    }
}

fn error_code(e: &ServiceError) -> u16 {
    match e {
        ServiceError::Busy { .. } => ERR_BUSY,
        ServiceError::Overloaded { .. } => ERR_OVERLOADED,
        ServiceError::Cancelled => ERR_CANCELLED,
        ServiceError::DeadlineExpired => ERR_DEADLINE,
        ServiceError::ShuttingDown => ERR_SHUTDOWN,
        ServiceError::Session(_) => ERR_REQUEST,
    }
}

/// Announces a reaped connection: a typed [`ERR_IDLE`] frame
/// (best-effort — a dead half will not read it, a slow-loris might) and
/// the reaped-connections counter.
fn report_reap(conn: &Conn, stats: &ServiceStats, reaped: Option<Reaped>) {
    let Some(why) = reaped else { return };
    stats.reaped_connections.fetch_add(1, Ordering::Relaxed);
    let message = match why {
        Reaped::SlowFrame => "connection reaped: frame did not complete within the read deadline",
        Reaped::Idle => "connection reaped: idle past the deadline with nothing in flight",
    };
    conn.send(ERROR, 0, encode_error(ERR_IDLE, message));
}

/// Classifies a failed read: hostile frames get a typed error reply and
/// count as protocol errors; a peer that just went away does not.
fn report_read_error(conn: &Conn, stats: &ServiceStats, e: &ProtoError) {
    match e {
        ProtoError::Oversized { .. } => {
            conn.protocol_error(stats, 0, ERR_OVERSIZED, &e.to_string());
        }
        ProtoError::Malformed(_) => {
            conn.protocol_error(stats, 0, ERR_MALFORMED, &e.to_string());
        }
        ProtoError::Closed | ProtoError::Io(_) => {}
    }
}
