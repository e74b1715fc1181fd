//! The real `rxd`, spawned as a child process, and framed unix-socket
//! connections to it.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use reflex_driver::SessionReport;
use reflex_service::protocol::{
    decode_error, decode_reply, encode_hello, encode_request, read_frame, write_frame, Frame,
    ERROR, ERR_BUSY, ERR_OVERLOADED, ERR_SHUTDOWN, EVENT, HELLO, HELLO_OK, MAX_FRAME, REPLY,
    REQUEST, SHUTDOWN, SHUTDOWN_OK,
};
use reflex_service::{Reply, Request};

/// The longest any reply may take before the run is declared broken.
/// A reply over the frame cap is never sent by the server, so this is
/// also how an oversized reply shows.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Per-connection queue cap given to the daemon: deep enough that an
/// open-loop burst queues instead of being refused as busy.
const QUEUE_CAP: &str = "4096";

/// A running `rxd` child. Dropping it kills and reaps the process.
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns `rxd` on `socket` with `workers` executors, one prover job
    /// per request, and an optional proof store; returns it with a
    /// handshaken connection once it accepts.
    pub fn spawn(
        rxd: &Path,
        socket: &Path,
        workers: usize,
        store: Option<&Path>,
    ) -> Result<(Daemon, Conn), String> {
        let _ = std::fs::remove_file(socket);
        let mut cmd = Command::new(rxd);
        cmd.arg("--socket")
            .arg(socket)
            .args(["--workers", &workers.to_string(), "--jobs", "1"])
            .args(["--queue", QUEUE_CAP])
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if let Some(dir) = store {
            cmd.arg("--store").arg(dir);
        }
        let child = cmd.spawn().map_err(|e| format!("{}: {e}", rxd.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            socket: socket.to_owned(),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Conn::connect(socket) {
                Ok(conn) => return Ok((daemon, conn)),
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("rxd did not come up: {e}"))
                }
                Err(_) => {}
            }
            if let Some(child) = daemon.child.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    daemon.child = None;
                    return Err(format!("rxd exited during start-up: {status}"));
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().ok_or("rxd is not running")?.id();
        vm_hwm_mb(&format!("/proc/{pid}/status"))
    }

    /// Asks the daemon to drain and exit, and reaps it.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = Conn::connect(&self.socket)?;
        conn.send(SHUTDOWN, 1, Vec::new())?;
        let ack = conn.read()?;
        if ack.kind != SHUTDOWN_OK {
            return Err(format!("expected shutdown-ok, got frame kind {}", ack.kind));
        }
        let mut child = self.child.take().ok_or("rxd is not running")?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("rxd exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("rxd did not exit after shutdown".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `VmHWM` from a `/proc/*/status` file, in MiB.
pub fn vm_hwm_mb(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{status_path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// One handshaken connection.
#[derive(Debug)]
pub struct Conn {
    stream: UnixStream,
}

impl Conn {
    /// Connects and performs the version handshake.
    pub fn connect(socket: &Path) -> Result<Conn, String> {
        let stream =
            UnixStream::connect(socket).map_err(|e| format!("{}: {e}", socket.display()))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let mut conn = Conn { stream };
        conn.send(HELLO, 0, encode_hello())?;
        match conn.read()?.kind {
            HELLO_OK => Ok(conn),
            kind => Err(format!("handshake answered with frame kind {kind}")),
        }
    }

    /// A second handle on the same connection (for a reader thread).
    pub fn try_clone(&self) -> Result<Conn, String> {
        Ok(Conn {
            stream: self.stream.try_clone().map_err(|e| e.to_string())?,
        })
    }

    /// Writes one frame.
    pub fn send(&mut self, kind: u8, request_id: u64, payload: Vec<u8>) -> Result<(), String> {
        write_frame(
            &mut self.stream,
            &Frame {
                kind,
                request_id,
                payload,
            },
        )
        .map_err(|e| e.to_string())
    }

    /// Reads one frame.
    pub fn read(&mut self) -> Result<Frame, String> {
        read_frame(&mut self.stream).map_err(|e| {
            format!("{e} (the server never sends a reply over the {MAX_FRAME}-byte frame cap)")
        })
    }

    /// Sends one verify request and reads up to its terminal frame.
    pub fn call(
        &mut self,
        request_id: u64,
        request: &Request,
        on_event: &mut dyn FnMut(&Frame),
    ) -> Result<Frame, String> {
        self.send(REQUEST, request_id, encode_request(request))?;
        self.read_terminal(on_event)
    }

    /// Shuts both halves down, waking a reader blocked on this
    /// connection.
    pub fn close(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// Reads frames until the terminal one for a request, handing each
    /// streamed event frame to `on_event`.
    pub fn read_terminal(&mut self, on_event: &mut dyn FnMut(&Frame)) -> Result<Frame, String> {
        loop {
            let frame = self.read()?;
            if frame.kind == EVENT {
                on_event(&frame);
            } else {
                return Ok(frame);
            }
        }
    }
}

/// What a terminal frame says.
#[derive(Debug)]
pub enum Answer {
    /// A verify report.
    Report(Box<SessionReport>),
    /// The service refused the request (busy, overloaded, shutting down).
    Refused(String),
    /// Anything else: an error reply or an undecodable frame.
    Broken(String),
}

impl Answer {
    /// Decodes a terminal frame the way the client SDK does.
    pub fn of(frame: &Frame) -> Answer {
        match frame.kind {
            REPLY => match decode_reply(&frame.payload) {
                Some(Reply::Verify(report)) => Answer::Report(report),
                Some(_) => Answer::Broken("reply is not a verify report".into()),
                None => Answer::Broken("reply payload did not decode".into()),
            },
            ERROR => match decode_error(&frame.payload) {
                Some((code, message))
                    if [ERR_BUSY, ERR_OVERLOADED, ERR_SHUTDOWN].contains(&code) =>
                {
                    Answer::Refused(message)
                }
                Some((code, message)) => Answer::Broken(format!("server error {code}: {message}")),
                None => Answer::Broken("error frame did not decode".into()),
            },
            kind => Answer::Broken(format!("unexpected frame kind {kind}")),
        }
    }
}
