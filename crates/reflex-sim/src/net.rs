//! FaultyNet — deterministic network-fault injection — and the two
//! scenarios that drive the full client→daemon path through it.
//!
//! [`FaultyNet`] is the transport-level sibling of the store's
//! `FaultyFs`: it wraps a real socket in a [`Duplex`] the service
//! client speaks frames over, and mutates the client→server byte
//! stream at *frame* granularity — drop-and-cut, duplicate, truncate,
//! cut-after-delivery, bit-flip — with every decision drawn from the
//! `net` stream of the run's seed tree by a global frame counter.
//! Nothing is keyed on time: the same seed injects the same fault into
//! the same frame on every machine, which is what lets a violating run
//! shrink and replay bit for bit.
//!
//! The scenarios boot a real in-process [`serve`] loop on a scratch
//! unix socket, so the path under test is the production one: framed
//! protocol, pipelined reader, replies written by the thread that
//! finishes each request, admission control, the idempotency window and
//! the retrying SDK.

use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use reflex_driver::{NullSink, SessionConfig, VerifySession};
use reflex_service::protocol::{
    encode_hello, read_frame, write_frame, Frame, ERROR, ERR_IDLE, HELLO, HELLO_OK, REQUEST,
};
use reflex_service::{
    serve, Client, ClientError, RetryPolicy, RetryingClient, ServerConfig, ServerHandle,
    ServiceConfig, ServiceCore,
};
use reflex_verify::Certificate;

use crate::{injected_violation, scratch_dir, SimConfig, Trace, Violation, ViolationKind};

/// Fault probability per frame, parts per million. Fixed rather than
/// configurable so repro files need no new fields: the `net` stream
/// seed alone decides which frames are hit.
const NET_FAULT_PPM: u64 = 250_000;

/// What FaultyNet does to one outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NetFault {
    /// Pass the frame through untouched.
    Deliver,
    /// Swallow the frame and cut the connection: a partition before
    /// the request ever reached the server.
    DropCut,
    /// Deliver the frame twice: a retransmission the dedup window must
    /// absorb without doing the work twice.
    Duplicate,
    /// Deliver half the frame, then cut: a mid-frame disconnect the
    /// server must survive without a submit.
    TruncateCut,
    /// Deliver the frame, then cut: the request lands but its reply is
    /// lost — the idempotent-retry path.
    DeliverCut,
    /// Deliver the frame with one byte flipped: hostile corruption the
    /// server must answer with a typed error, never a panic.
    BitFlip,
}

/// The shared, seeded fault schedule. One plan spans every connection a
/// scenario client dials: the frame counter is global, so a retried
/// frame rolls a fresh decision instead of replaying the fault that
/// killed it (which would loop forever), while staying a pure function
/// of `(seed, frames sent so far)`.
pub struct NetPlan {
    seed: u64,
    rate_ppm: u64,
    /// Frames decided so far, across all connections on this plan.
    frames: AtomicU64,
    /// Whether the corruption flavor is in the rotation. The scenarios
    /// leave it out (a corrupt frame draws a non-retryable typed error
    /// by design, which would turn an injected fault into a scenario
    /// failure); the hostile-peer tests switch it on.
    corrupt: bool,
}

impl NetPlan {
    /// A plan firing on `rate_ppm` of frames, seeded from `seed`.
    pub fn new(seed: u64, rate_ppm: u64, corrupt: bool) -> Arc<NetPlan> {
        Arc::new(NetPlan {
            seed,
            rate_ppm,
            frames: AtomicU64::new(0),
            corrupt,
        })
    }

    /// Decides the fate of the next frame of kind `kind`.
    fn roll(&self, kind: u8) -> NetFault {
        let index = self.frames.fetch_add(1, Ordering::Relaxed);
        let draw = reflex_rng::stream_u64(self.seed, index);
        if self.rate_ppm == 0 || draw % 1_000_000 >= self.rate_ppm {
            return NetFault::Deliver;
        }
        let flavors: &[NetFault] = if self.corrupt {
            &[
                NetFault::DropCut,
                NetFault::Duplicate,
                NetFault::TruncateCut,
                NetFault::DeliverCut,
                NetFault::BitFlip,
            ]
        } else {
            &[
                NetFault::DropCut,
                NetFault::Duplicate,
                NetFault::TruncateCut,
                NetFault::DeliverCut,
            ]
        };
        let mut fault = flavors[usize::try_from(draw >> 32).unwrap_or(0) % flavors.len()];
        // Only requests may be duplicated: a doubled handshake or
        // control frame is a protocol error, not a retransmission.
        if fault == NetFault::Duplicate && kind != REQUEST {
            fault = NetFault::DeliverCut;
        }
        fault
    }

    /// The seeded byte position to corrupt inside a frame of `len`
    /// total bytes (past the length prefix, so framing survives and the
    /// *payload* corruption reaches the decoder).
    fn flip_at(&self, index: u64, len: usize) -> usize {
        let body = len.saturating_sub(4).max(1);
        4 + usize::try_from(reflex_rng::stream_u64(
            reflex_rng::derive(self.seed, "flip"),
            index,
        ))
        .unwrap_or(0)
            % body
    }
}

/// A fault-injecting [`reflex_service::Duplex`] over a unix socket.
///
/// Writes are buffered to frame boundaries; each complete frame rolls
/// the plan and is delivered, mutated or swallowed. A cutting fault
/// shuts the socket down both ways, so the client's next read sees a
/// clean EOF (a typed `Io` failure upstream) instead of hanging on a
/// reply that will never come.
pub struct FaultyNet {
    stream: UnixStream,
    plan: Arc<NetPlan>,
    /// Outgoing bytes not yet assembled into a complete frame.
    out: Vec<u8>,
    dead: bool,
}

impl FaultyNet {
    /// Wraps `stream` under `plan`.
    pub fn new(stream: UnixStream, plan: Arc<NetPlan>) -> FaultyNet {
        FaultyNet {
            stream,
            plan,
            out: Vec::new(),
            dead: false,
        }
    }

    fn cut(&mut self) {
        self.dead = true;
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// Drains every complete frame buffered in `out` through the plan.
    fn pump(&mut self) -> io::Result<()> {
        while !self.dead && self.out.len() >= 4 {
            let len = u32::from_le_bytes([self.out[0], self.out[1], self.out[2], self.out[3]]);
            let total = 4 + usize::try_from(len).unwrap_or(usize::MAX);
            if self.out.len() < total {
                break;
            }
            let frame: Vec<u8> = self.out.drain(..total).collect();
            let kind = frame[4];
            let index = self.plan.frames.load(Ordering::Relaxed);
            match self.plan.roll(kind) {
                NetFault::Deliver => self.stream.write_all(&frame)?,
                NetFault::DropCut => self.cut(),
                NetFault::Duplicate => {
                    self.stream.write_all(&frame)?;
                    self.stream.write_all(&frame)?;
                }
                NetFault::TruncateCut => {
                    self.stream.write_all(&frame[..total / 2])?;
                    self.cut();
                }
                NetFault::DeliverCut => {
                    self.stream.write_all(&frame)?;
                    self.cut();
                }
                NetFault::BitFlip => {
                    let mut mutated = frame;
                    let at = self.plan.flip_at(index, total);
                    mutated[at] ^= 0x20;
                    self.stream.write_all(&mutated)?;
                }
            }
        }
        Ok(())
    }
}

impl Read for FaultyNet {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.dead {
            // EOF: upstream this is `ProtoError::Closed`, a typed,
            // retryable transport failure.
            return Ok(0);
        }
        self.stream.read(buf)
    }
}

impl Write for FaultyNet {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.dead {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "connection cut by injected fault",
            ));
        }
        self.out.extend_from_slice(buf);
        self.pump()?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "connection cut by injected fault",
            ));
        }
        self.stream.flush()
    }
}

/// A real in-process daemon on a scratch unix socket.
struct ScratchServer {
    dir: PathBuf,
    socket: PathBuf,
    handle: ServerHandle,
    core: Arc<ServiceCore>,
}

impl ScratchServer {
    fn boot(config: &SimConfig, tag: &str, server: ServerConfig) -> Result<ScratchServer, String> {
        let dir = scratch_dir(config, tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("scratch dir: {e}"))?;
        let socket = dir.join("rxd.sock");
        let core = Arc::new(
            ServiceCore::start(ServiceConfig {
                jobs: 1,
                workers: 1,
                ..ServiceConfig::default()
            })
            .map_err(|e| format!("core start: {e}"))?,
        );
        let handle = serve(
            Arc::clone(&core),
            &ServerConfig {
                unix: Some(socket.clone()),
                ..server
            },
        )
        .map_err(|e| format!("serve: {e}"))?;
        Ok(ScratchServer {
            dir,
            socket,
            handle,
            core,
        })
    }

    fn stop(self) {
        self.handle.stop();
        self.core.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The scenario kernel (the `kernel` stream's base variant of the
/// `small` preset) and its clean storeless baseline certificates.
fn kernel_and_baseline(
    config: &SimConfig,
) -> Result<
    (
        reflex_kernels::synth::SynthKernel,
        Vec<(String, Certificate)>,
    ),
    String,
> {
    let gen = reflex_kernels::synth::SynthConfig::preset("small", config.stream_seed("kernel"))
        .expect("the small preset exists");
    let kernel = reflex_kernels::synth::generate_variant(&gen, 0);
    let report = VerifySession::new(SessionConfig::default())
        .and_then(|s| s.verify_checked(&kernel.checked(), &NullSink))
        .map_err(|e| format!("clean baseline failed: {e}"))?;
    let baseline = report
        .outcomes
        .iter()
        .filter_map(|(name, o)| o.certificate().map(|c| (name.clone(), c.clone())))
        .collect();
    Ok((kernel, baseline))
}

fn abort(step: usize, detail: String) -> Option<Violation> {
    Some(Violation {
        step,
        kind: ViolationKind::Abort,
        detail,
    })
}

/// A stable one-word class for a client failure, for the trace.
fn error_class(e: &ClientError) -> String {
    match e {
        ClientError::Io(_) => "io".to_owned(),
        ClientError::Protocol(_) => "protocol".to_owned(),
        ClientError::Remote { code, .. } => format!("remote-{code}"),
    }
}

/// Net-partition: a retrying client pushes one logical verify per step
/// through FaultyNet at a real daemon. Faults cut, drop, duplicate and
/// truncate frames mid-stream; the retry layer (idempotency keys
/// included) must land every request as either a baseline-identical
/// report or a typed error — never a hang, never a protocol error and
/// never duplicated proof work.
pub(crate) fn run_net_partition(config: &SimConfig, trace: &mut Trace) -> Option<Violation> {
    let (kernel, baseline) = match kernel_and_baseline(config) {
        Ok(v) => v,
        Err(e) => return abort(0, e),
    };
    let server = match ScratchServer::boot(config, "net", ServerConfig::default()) {
        Ok(s) => s,
        Err(e) => return abort(0, e),
    };
    let rate = if config.stream_enabled("net") {
        NET_FAULT_PPM
    } else {
        0
    };
    let plan = NetPlan::new(config.stream_seed("net"), rate, false);
    trace.push(format!(
        "net-partition kernel={} rate_ppm={rate}",
        kernel.name
    ));

    let socket = server.socket.clone();
    let dial_plan = Arc::clone(&plan);
    let mut client = RetryingClient::with_dialer(
        Box::new(move || {
            let stream = UnixStream::connect(&socket)
                .map_err(|e| ClientError::Io(format!("connect: {e}")))?;
            // Watchdog only: the fault plan always ends an attempt in a
            // reply or an EOF, so this read deadline never fires on a
            // correct stack — but a buggy one must fail typed, not hang.
            let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
            Client::over(Box::new(FaultyNet::new(stream, Arc::clone(&dial_plan))))
        }),
        RetryPolicy {
            max_attempts: 6,
            base_delay_ms: 1,
            max_delay_ms: 8,
            seed: reflex_rng::derive(config.stream_seed("net"), "client"),
        },
    );
    // Backoff sleeps are part of the *schedule* (seeded, recorded in
    // RetryStats), not of the simulation's wall clock.
    client.set_sleeper(Box::new(|_| {}));

    let mut violation = None;
    for step in 0..config.steps {
        if let Some(v) = injected_violation(config, trace, step) {
            violation = Some(v);
            break;
        }
        let before = client.stats();
        let request = reflex_service::Request::Verify {
            name: kernel.name.clone(),
            source: kernel.source.clone(),
            property: None,
            budget_ms: None,
            budget_nodes: None,
            want_events: false,
            deadline_ms: None,
            idempotency_key: None,
        };
        let result = client.verify(request, &mut |_| {});
        let after = client.stats();
        let attempts = 1 + after.retries - before.retries;
        match result {
            Ok(report) => {
                let served: Vec<(String, Certificate)> = report
                    .outcomes
                    .iter()
                    .filter_map(|(name, o)| o.certificate().map(|c| (name.clone(), c.clone())))
                    .collect();
                let matches = served == baseline;
                trace.push(format!(
                    "step {step} verify attempts={attempts} outcome=ok proved={} certs_match={matches}",
                    served.len()
                ));
                if !matches {
                    violation = Some(Violation {
                        step,
                        kind: ViolationKind::CertMismatch,
                        detail: format!(
                            "retried verify served {} certificate(s) differing from the clean baseline",
                            served.len()
                        ),
                    });
                    break;
                }
            }
            Err(e) if matches!(e, ClientError::Protocol(_)) => {
                trace.push(format!(
                    "step {step} verify attempts={attempts} outcome=error:{}",
                    error_class(&e)
                ));
                violation = Some(Violation {
                    step,
                    kind: ViolationKind::LostReply,
                    detail: format!("client left protocol-confused: {e}"),
                });
                break;
            }
            Err(e) => {
                // Typed and final after a full retry budget: a legal
                // outcome under heavy injected loss.
                trace.push(format!(
                    "step {step} verify attempts={attempts} outcome=error:{}",
                    error_class(&e)
                ));
            }
        }
        trace.step_done();
    }

    let stats = server.core.stats().snapshot();
    if violation.is_none() {
        let requests = config.steps as u64;
        let dedup_ok = stats.requests_executed <= requests;
        trace.push(format!(
            "net-partition done requests={requests} connects={} retries={} dedup_ok={dedup_ok}",
            client.stats().connects,
            client.stats().retries,
        ));
        if !dedup_ok {
            violation = Some(Violation {
                step: config.steps.saturating_sub(1),
                kind: ViolationKind::DuplicateWork,
                detail: format!(
                    "{} executions for {requests} idempotent request(s): the dedup window re-ran retried work",
                    stats.requests_executed
                ),
            });
        }
    }
    server.stop();
    violation
}

/// Slow-client: each step parks a slow-loris peer mid-frame on a daemon
/// with a tight frame deadline, proves the worker pool still serves a
/// well-behaved client underneath it, then collects the slow peer's
/// typed reap. The peer must be answered with [`ERR_IDLE`] before the
/// close — a silent drop or a hang is a violation.
pub(crate) fn run_slow_client(config: &SimConfig, trace: &mut Trace) -> Option<Violation> {
    let (kernel, baseline) = match kernel_and_baseline(config) {
        Ok(v) => v,
        Err(e) => return abort(0, e),
    };
    let server = match ScratchServer::boot(
        config,
        "slow",
        ServerConfig {
            frame_timeout_ms: 60,
            ..ServerConfig::default()
        },
    ) {
        Ok(s) => s,
        Err(e) => return abort(0, e),
    };
    trace.push(format!(
        "slow-client kernel={} frame_timeout_ms=60",
        kernel.name
    ));

    let mut violation = None;
    for step in 0..config.steps {
        if let Some(v) = injected_violation(config, trace, step) {
            violation = Some(v);
            break;
        }
        match slow_client_step(config, &server.socket, &kernel, &baseline, step) {
            Ok(line) => trace.push(line),
            Err(v) => {
                violation = Some(v);
                break;
            }
        }
        trace.step_done();
    }

    if violation.is_none() {
        let stats = server.core.stats().snapshot();
        let reaped_ok = stats.reaped_connections >= trace.steps_run as u64;
        trace.push(format!("slow-client done reaped_ok={reaped_ok}"));
        if !reaped_ok {
            violation = Some(Violation {
                step: config.steps.saturating_sub(1),
                kind: ViolationKind::Stall,
                detail: "reaped-connection counter below the number of slow peers parked"
                    .to_owned(),
            });
        }
    }
    server.stop();
    violation
}

/// One slow-client step. Returns the deterministic trace line, or the
/// violation.
fn slow_client_step(
    _config: &SimConfig,
    socket: &Path,
    kernel: &reflex_kernels::synth::SynthKernel,
    baseline: &[(String, Certificate)],
    step: usize,
) -> Result<String, Violation> {
    let stall = |detail: String| Violation {
        step,
        kind: ViolationKind::Stall,
        detail,
    };

    // Park the hostile peer: a clean handshake, then a frame that
    // starts arriving and never finishes.
    let mut slow = UnixStream::connect(socket).map_err(|e| stall(format!("slow connect: {e}")))?;
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| stall(format!("slow socket: {e}")))?;
    write_frame(
        &mut slow,
        &Frame {
            kind: HELLO,
            request_id: 0,
            payload: encode_hello(),
        },
    )
    .map_err(|e| stall(format!("slow hello: {e}")))?;
    let hello_ok = read_frame(&mut slow).map_err(|e| stall(format!("slow hello reply: {e}")))?;
    if hello_ok.kind != HELLO_OK {
        return Err(stall(format!(
            "slow peer handshake answered with frame kind {}",
            hello_ok.kind
        )));
    }
    // Announce a 64-byte frame, deliver 2 bytes of it, go silent.
    slow.write_all(&64u32.to_le_bytes())
        .and_then(|()| slow.write_all(&[REQUEST, 0]))
        .map_err(|e| stall(format!("slow partial frame: {e}")))?;

    // The worker pool must be unbothered: a well-behaved client
    // verifies to completion while the slow peer squats on its reader.
    let mut healthy = Client::connect(&reflex_service::Endpoint::Unix(socket.to_path_buf()))
        .map_err(|e| stall(format!("healthy connect: {e}")))?;
    let report = healthy
        .verify(
            reflex_service::Request::Verify {
                name: kernel.name.clone(),
                source: kernel.source.clone(),
                property: None,
                budget_ms: None,
                budget_nodes: None,
                want_events: false,
                deadline_ms: None,
                idempotency_key: None,
            },
            &mut |_| {},
        )
        .map_err(|e| stall(format!("healthy verify failed under a slow peer: {e}")))?;
    let served: Vec<(String, Certificate)> = report
        .outcomes
        .iter()
        .filter_map(|(name, o)| o.certificate().map(|c| (name.clone(), c.clone())))
        .collect();
    if served != baseline {
        return Err(Violation {
            step,
            kind: ViolationKind::CertMismatch,
            detail: "certificates served under a slow peer differ from the clean baseline"
                .to_owned(),
        });
    }

    // The slow peer's sentence: a typed ERR_IDLE frame, then the close.
    let reap = read_frame(&mut slow).map_err(|e| stall(format!("slow peer never reaped: {e}")))?;
    if reap.kind != ERROR {
        return Err(Violation {
            step,
            kind: ViolationKind::LostReply,
            detail: format!(
                "slow peer got frame kind {} instead of a typed reap error",
                reap.kind
            ),
        });
    }
    let typed_idle = reflex_service::protocol::decode_error(&reap.payload)
        .is_some_and(|(code, _)| code == ERR_IDLE);
    if !typed_idle {
        return Err(Violation {
            step,
            kind: ViolationKind::LostReply,
            detail: "slow peer's reap error was not ERR_IDLE".to_owned(),
        });
    }
    Ok(format!(
        "step {step} slow peer reaped typed=true healthy proved={} certs_match=true",
        served.len()
    ))
}
