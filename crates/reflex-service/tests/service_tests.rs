//! Service-core and daemon tests: backpressure, fairness, budget
//! clamps, shutdown draining, the ≥8-concurrent-clients acceptance run
//! over unix socket AND TCP with daemon certificates byte-identical to
//! a one-shot session, and hostile raw-socket input answered with typed
//! protocol errors while the server stays up.

use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

use reflex_driver::{Event, Instrument, NullSink, SessionConfig, VerifySession};
use reflex_kernels::car;
use reflex_service::protocol::{
    decode_error_retry, decode_reply, encode_hello, encode_reply, encode_request, read_frame,
    write_frame, Frame, ProtoError, CANCEL, CANCEL_OK, ERROR, ERR_CANCELLED, ERR_DEADLINE,
    ERR_MALFORMED, ERR_OVERLOADED, ERR_OVERSIZED, HELLO, HELLO_OK, MAX_FRAME, REPLY, REQUEST,
    STATS, STATS_REPLY,
};
use reflex_service::{
    serve, CancelStatus, Client, Endpoint, Reply, Request, ServerConfig, ServerHandle,
    ServiceConfig, ServiceCore, ServiceError,
};
use reflex_verify::{certificate_to_bytes, Outcome};

/// A sink whose first event parks its worker until the test opens the
/// gate — the deterministic way to hold the single executor mid-request
/// while the test lines up queue state behind it.
#[derive(Default)]
struct Gate {
    state: Mutex<(bool, bool)>, // (open, entered)
    cv: Condvar,
}

impl Gate {
    fn wait_entered(&self) {
        let mut s = self.state.lock().expect("gate poisoned");
        while !s.1 {
            s = self.cv.wait(s).expect("gate poisoned");
        }
    }

    fn open(&self) {
        self.state.lock().expect("gate poisoned").0 = true;
        self.cv.notify_all();
    }
}

struct GateSink(Arc<Gate>);

impl Instrument for GateSink {
    fn event(&self, _event: &Event) {
        let mut s = self.0.state.lock().expect("gate poisoned");
        s.1 = true;
        self.0.cv.notify_all();
        while !s.0 {
            s = self.0.cv.wait(s).expect("gate poisoned");
        }
    }
}

fn single_worker_core(config: ServiceConfig) -> ServiceCore {
    ServiceCore::start(ServiceConfig {
        jobs: 1,
        workers: 1,
        ..config
    })
    .expect("core starts")
}

fn car_verify() -> Request {
    verify_request("car", car::SOURCE, None)
}

fn verify_request(name: &str, source: &str, property: Option<&str>) -> Request {
    Request::Verify {
        name: name.into(),
        source: source.to_owned(),
        property: property.map(str::to_owned),
        budget_ms: None,
        budget_nodes: None,
        want_events: false,
        deadline_ms: None,
        idempotency_key: None,
    }
}

fn hold_worker(core: &ServiceCore) -> (Arc<Gate>, Arc<reflex_service::Ticket>) {
    let gate = Arc::new(Gate::default());
    let held = core
        .submit(0, 1, car_verify(), Arc::new(GateSink(Arc::clone(&gate))))
        .expect("the held request submits");
    // Once the sink has fired, the worker has *popped* the job: client
    // 0's queue is empty again and the executor is pinned.
    gate.wait_entered();
    (gate, held)
}

/// With `queue_cap = 1` and the only worker pinned, a client gets
/// exactly one queued slot; the next submit is refused with
/// [`ServiceError::Busy`] and counted.
#[test]
fn backpressure_refuses_past_the_queue_cap() {
    let core = single_worker_core(ServiceConfig {
        queue_cap: 1,
        ..ServiceConfig::default()
    });
    let (gate, held) = hold_worker(&core);

    let queued = core
        .submit(0, 2, Request::Ping, Arc::new(NullSink))
        .expect("one queued request fits the cap");
    match core.submit(0, 3, Request::Ping, Arc::new(NullSink)) {
        Err(ServiceError::Busy { client }) => assert_eq!(client, 0),
        other => panic!("expected Busy, got {other:?}"),
    }
    // Backpressure is per client: another client still gets its slot.
    let other = core
        .submit(1, 4, Request::Ping, Arc::new(NullSink))
        .expect("a different client is not throttled");

    assert_eq!(core.stats().rejected_busy.load(Ordering::Relaxed), 1);

    gate.open();
    assert!(matches!(held.wait(), Ok(Reply::Verify(_))));
    assert!(matches!(queued.wait(), Ok(Reply::Pong)));
    assert!(matches!(other.wait(), Ok(Reply::Pong)));
    core.shutdown();
    assert_eq!(core.stats().requests_served.load(Ordering::Relaxed), 3);
}

/// Fairness: a client with a burst queued cannot starve later arrivals.
/// The recorded pick order must interleave round-robin, not drain the
/// burst first.
#[test]
fn scheduler_round_robins_across_clients() {
    let core = single_worker_core(ServiceConfig {
        record_schedule: true,
        ..ServiceConfig::default()
    });
    let (gate, held) = hold_worker(&core);

    // Client 1 bursts two requests; clients 2 and 3 arrive after.
    let tickets: Vec<_> = [1u64, 1, 2, 3]
        .into_iter()
        .enumerate()
        .map(|(i, client)| {
            core.submit(client, 10 + i as u64, Request::Ping, Arc::new(NullSink))
                .expect("queued")
        })
        .collect();

    gate.open();
    held.wait().expect("held request completes");
    for ticket in tickets {
        assert!(matches!(ticket.wait(), Ok(Reply::Pong)));
    }
    core.shutdown();

    // Pick 0 is the held request (client 0). The burst's second request
    // must wait for clients 2 and 3 despite arriving before them.
    assert_eq!(core.schedule(), vec![0, 1, 2, 3, 1]);
}

/// The per-core budget cap clamps every request: with a 0 ms ceiling no
/// proof search gets to run, and every property lands on `Timeout` —
/// never a hang, never a panic.
#[test]
fn budget_cap_clamps_every_request() {
    let core = single_worker_core(ServiceConfig {
        max_budget_ms: Some(0),
        ..ServiceConfig::default()
    });
    let reply = core
        .request(0, car_verify(), Arc::new(NullSink))
        .expect("the request itself succeeds");
    let Reply::Verify(report) = reply else {
        panic!("verify reply expected");
    };
    assert!(!report.outcomes.is_empty());
    assert_eq!(report.proved(), 0);
    for (name, outcome) in &report.outcomes {
        assert!(
            matches!(outcome, Outcome::Timeout(_)),
            "{name}: a zero budget must time out, got a different outcome"
        );
    }
    core.shutdown();
}

/// Graceful shutdown closes intake immediately but drains what was
/// already accepted: every queued ticket resolves with its real reply.
#[test]
fn shutdown_drains_queued_requests() {
    let core = Arc::new(single_worker_core(ServiceConfig::default()));
    let (gate, held) = hold_worker(&core);

    let queued: Vec<_> = (1u64..=3)
        .map(|client| {
            core.submit(client, 20 + client, Request::Ping, Arc::new(NullSink))
                .expect("queued")
        })
        .collect();

    let closer = {
        let core = Arc::clone(&core);
        std::thread::spawn(move || core.shutdown())
    };
    // Intake closes as soon as the shutdown thread takes the lock; only
    // then does the gate open, so the drain provably covers the queue.
    // Submits that race in before the close are legitimate accepts —
    // they must drain too, so keep their tickets and check them below.
    let mut raced_in = Vec::new();
    let mut race_id = 30u64;
    loop {
        race_id += 1;
        match core.submit(7, race_id, Request::Ping, Arc::new(NullSink)) {
            Err(ServiceError::ShuttingDown) => break,
            Ok(ticket) => raced_in.push(ticket),
            Err(other) => panic!("unexpected submit error: {other:?}"),
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    gate.open();
    closer.join().expect("shutdown thread joins");

    assert!(matches!(held.wait(), Ok(Reply::Verify(_))));
    for ticket in queued.into_iter().chain(raced_in) {
        assert!(matches!(ticket.wait(), Ok(Reply::Pong)));
    }
    assert!(matches!(
        core.submit(0, 99, Request::Ping, Arc::new(NullSink)),
        Err(ServiceError::ShuttingDown)
    ));
}

fn baseline_certificates() -> BTreeMap<String, Vec<u8>> {
    let report = VerifySession::new(SessionConfig {
        ..SessionConfig::default()
    })
    .expect("session opens")
    .verify_checked(&car::checked(), &NullSink)
    .expect("car verifies");
    let mut map = BTreeMap::new();
    for (name, outcome) in &report.outcomes {
        let cert = outcome
            .certificate()
            .expect("every car property proves one-shot");
        map.insert(name.clone(), certificate_to_bytes(cert));
    }
    assert!(!map.is_empty());
    map
}

fn temp_socket_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("rxd-test-{tag}-{}.sock", std::process::id()))
}

/// The acceptance run: one daemon, both transports, eight concurrent
/// clients — and every certificate that comes back over the wire is
/// byte-identical to the one-shot session's.
#[test]
fn eight_concurrent_clients_get_oneshot_identical_certificates() {
    let baseline = Arc::new(baseline_certificates());
    let core = Arc::new(
        ServiceCore::start(ServiceConfig {
            jobs: 1,
            workers: 2,
            ..ServiceConfig::default()
        })
        .expect("core starts"),
    );
    let socket = temp_socket_path("accept");
    let handle = serve(
        Arc::clone(&core),
        &ServerConfig {
            unix: Some(socket.clone()),
            tcp: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let tcp_addr = handle.tcp_addr.expect("tcp bound");

    let clients: Vec<_> = (0..8)
        .map(|i| {
            let endpoint = if i % 2 == 0 {
                Endpoint::Unix(socket.clone())
            } else {
                Endpoint::Tcp(tcp_addr.to_string())
            };
            let baseline = Arc::clone(&baseline);
            std::thread::spawn(move || {
                let mut client = Client::connect(&endpoint).expect("client connects");
                client.ping().expect("ping");
                let report = client
                    .verify(car_verify(), &mut |_| {})
                    .expect("remote verify");
                assert_eq!(report.outcomes.len(), baseline.len());
                for (name, outcome) in &report.outcomes {
                    let cert = outcome.certificate().unwrap_or_else(|| {
                        panic!("{name}: daemon failed to prove what one-shot proved")
                    });
                    assert_eq!(
                        &certificate_to_bytes(cert),
                        baseline.get(name).expect("known property"),
                        "{name}: daemon certificate differs from the one-shot bytes"
                    );
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread succeeds");
    }

    let stats = core.stats().snapshot();
    assert!(stats.connections >= 8, "stats: {stats:?}");
    assert_eq!(stats.protocol_errors, 0, "stats: {stats:?}");
    assert_eq!(stats.rejected_busy, 0, "stats: {stats:?}");

    handle.stop();
    core.shutdown();
    let _ = std::fs::remove_file(&socket);
}

fn hostile_connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connects");
    // A server regression must fail the test, not hang it.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("timeout set");
    stream
}

fn read_error_frame(stream: &mut TcpStream) -> Frame {
    let frame = read_frame(stream).expect("server answers before closing");
    assert_eq!(frame.kind, ERROR, "expected a typed error frame");
    frame
}

/// Hostile bytes on a raw socket: the server answers with a typed
/// ERROR frame, counts it, closes that connection — and keeps serving
/// well-behaved clients.
#[test]
fn hostile_frames_get_typed_errors_and_the_server_survives() {
    let core = Arc::new(
        ServiceCore::start(ServiceConfig {
            jobs: 1,
            workers: 1,
            ..ServiceConfig::default()
        })
        .expect("core starts"),
    );
    let handle = serve(
        Arc::clone(&core),
        &ServerConfig {
            unix: None,
            tcp: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let addr = handle.tcp_addr.expect("tcp bound");

    // A first frame that is not HELLO: malformed handshake.
    {
        let mut stream = hostile_connect(addr);
        write_frame(
            &mut stream,
            &Frame {
                kind: REQUEST,
                request_id: 1,
                payload: vec![1, 2, 3],
            },
        )
        .expect("frame writes");
        let error = read_error_frame(&mut stream);
        let (code, _) =
            reflex_service::protocol::decode_error(&error.payload).expect("error decodes");
        assert_eq!(code, ERR_MALFORMED);
        // The connection is closed after the error.
        assert!(matches!(
            read_frame(&mut stream),
            Err(ProtoError::Closed | ProtoError::Io(_))
        ));
    }

    // An oversized length prefix: refused before any allocation.
    {
        let mut stream = hostile_connect(addr);
        stream
            .write_all(&(MAX_FRAME + 1).to_le_bytes())
            .expect("prefix writes");
        stream.write_all(&[0u8; 32]).expect("junk writes");
        let error = read_error_frame(&mut stream);
        let (code, _) =
            reflex_service::protocol::decode_error(&error.payload).expect("error decodes");
        assert_eq!(code, ERR_OVERSIZED);
    }

    // Raw garbage that parses as a short frame: still a typed answer or
    // a clean close — the accept loop must not die either way.
    {
        let mut stream = hostile_connect(addr);
        stream.write_all(&[0xff; 7]).expect("garbage writes");
        stream.shutdown(std::net::Shutdown::Write).ok();
        let mut rest = Vec::new();
        let _ = stream.read_to_end(&mut rest);
    }

    assert!(core.stats().protocol_errors.load(Ordering::Relaxed) >= 2);

    // The server is still alive for a well-behaved client.
    let mut client = Client::connect(&Endpoint::Tcp(addr.to_string())).expect("still serving");
    client.ping().expect("ping after hostile traffic");
    let summary = client.check("car", car::SOURCE).expect("check works");
    assert!(summary.properties > 0);

    handle.stop();
    core.shutdown();
}

// ---------------------------------------------------------------------------
// Cancellation, deadlines, overload shedding and idempotency
// ---------------------------------------------------------------------------

/// Cancelling a request that is still queued resolves its ticket with
/// the typed [`ServiceError::Cancelled`] — the reply frame a connected
/// client would see — without the job ever running.
#[test]
fn cancelling_a_queued_request_yields_a_typed_error() {
    let core = single_worker_core(ServiceConfig::default());
    let (gate, held) = hold_worker(&core);

    let queued = core
        .submit(0, 2, Request::Ping, Arc::new(NullSink))
        .expect("queued behind the pinned worker");
    assert_eq!(core.cancel(0, 2), CancelStatus::Queued);
    assert!(matches!(queued.wait(), Err(ServiceError::Cancelled)));
    assert_eq!(core.stats().cancelled.load(Ordering::Relaxed), 1);
    // Cancellation is idempotent: the id is gone now.
    assert_eq!(core.cancel(0, 2), CancelStatus::Unknown);

    gate.open();
    assert!(matches!(held.wait(), Ok(Reply::Verify(_))));
    core.shutdown();
}

/// Cancelling a request mid-run flips its budget's cancellation flag:
/// the prover stops at the next check and the client still gets a real
/// reply whose outcomes are typed `Cancelled` — never a dropped
/// connection, never a hang.
#[test]
fn cancelling_a_running_request_yields_a_typed_cancelled_outcome() {
    let core = single_worker_core(ServiceConfig::default());
    let (gate, held) = hold_worker(&core);

    assert_eq!(core.cancel(0, 1), CancelStatus::Running);
    gate.open();
    let reply = held.wait().expect("a cancelled run still replies");
    let Reply::Verify(report) = reply else {
        panic!("verify reply expected");
    };
    assert!(!report.outcomes.is_empty());
    assert!(
        report
            .outcomes
            .iter()
            .any(|(_, o)| matches!(o, Outcome::Cancelled(_))),
        "at least one property must land on the typed Cancelled outcome"
    );
    assert_eq!(core.stats().cancelled.load(Ordering::Relaxed), 1);
    core.shutdown();
}

/// A request whose deadline expires while it waits in the queue is
/// refused with the typed [`ServiceError::DeadlineExpired`] at dequeue —
/// the worker never wastes time starting it.
#[test]
fn a_deadline_that_expires_in_the_queue_is_a_typed_refusal() {
    let core = single_worker_core(ServiceConfig::default());
    let (gate, held) = hold_worker(&core);

    let mut request = car_verify();
    if let Request::Verify { deadline_ms, .. } = &mut request {
        *deadline_ms = Some(0);
    }
    let doomed = core
        .submit(0, 2, request, Arc::new(NullSink))
        .expect("an expired deadline is caught at dequeue, not submit");
    gate.open();
    assert!(matches!(held.wait(), Ok(Reply::Verify(_))));
    assert!(matches!(doomed.wait(), Err(ServiceError::DeadlineExpired)));
    assert_eq!(core.stats().deadline_expired.load(Ordering::Relaxed), 1);
    core.shutdown();
}

/// The shedding arm's queue-depth watermark `W`.
const OVERLOAD_W: usize = 4;

/// Offers `4 * W` pings to a single-worker core whose only executor is
/// held, one client each (so no per-client cap is in play), then
/// releases the executor. Every admitted ping must complete and every
/// shed one must carry the 40 ms retry hint. Returns how many were
/// admitted, how many were shed, and the pick position of the last
/// admitted ping (the held request is pick 0).
fn offer_four_times_capacity(shed_queue_depth: usize) -> (usize, usize, usize) {
    let core = single_worker_core(ServiceConfig {
        shed_queue_depth,
        shed_retry_after_ms: 40,
        record_schedule: true,
        ..ServiceConfig::default()
    });
    let (gate, held) = hold_worker(&core);

    let mut admitted = Vec::new();
    let mut shed = 0;
    for client in 1..=4 * OVERLOAD_W as u64 {
        match core.submit(client, 100 + client, Request::Ping, Arc::new(NullSink)) {
            Ok(ticket) => admitted.push((client, ticket)),
            Err(ServiceError::Overloaded { retry_after_ms }) => {
                assert_eq!(retry_after_ms, 40);
                shed += 1;
            }
            Err(other) => panic!("expected admission or Overloaded, got {other:?}"),
        }
    }
    assert_eq!(
        core.stats().rejected_overloaded.load(Ordering::Relaxed),
        shed as u64,
        "sheds are counted separately from Busy"
    );
    assert_eq!(core.stats().rejected_busy.load(Ordering::Relaxed), 0);

    gate.open();
    assert!(matches!(held.wait(), Ok(Reply::Verify(_))));
    for (_, ticket) in &admitted {
        assert!(matches!(ticket.wait(), Ok(Reply::Pong)));
    }
    core.shutdown();

    let schedule = core.schedule();
    assert_eq!(schedule.len(), 1 + admitted.len());
    let last = admitted.last().expect("something is admitted").0;
    let position = schedule
        .iter()
        .position(|&client| client == last)
        .expect("the last admitted ping was picked");
    (admitted.len(), shed, position)
}

/// Admission control at four times capacity, on the pick order instead
/// of a clock. With the global queue watermark at `W`, exactly `W` of
/// `4W` submits are admitted and `3W` are shed fast with the configured
/// retry hint (distinct from the per-client Busy cap); the last admitted
/// request is served after at most `W` others. With shedding off, all
/// `4W` queue and the last one waits behind the held request and the
/// `4W - 1` others.
#[test]
fn overload_sheds_with_a_retry_hint_before_the_hard_cap() {
    let w = OVERLOAD_W;
    let (admitted, shed, position) = offer_four_times_capacity(w);
    assert_eq!((admitted, shed), (w, 3 * w));
    assert!(
        position <= w,
        "the last admitted request waited behind {position}"
    );

    let (admitted, shed, position) = offer_four_times_capacity(0);
    assert_eq!((admitted, shed), (4 * w, 0));
    assert_eq!(position, 4 * w);
}

/// The per-client in-flight cap sheds the hoarding client only; other
/// clients keep their slots.
#[test]
fn the_per_client_inflight_cap_sheds_only_the_hoarder() {
    let core = single_worker_core(ServiceConfig {
        client_inflight_cap: 1,
        ..ServiceConfig::default()
    });
    let (gate, held) = hold_worker(&core);

    let first = core
        .submit(5, 2, Request::Ping, Arc::new(NullSink))
        .expect("first request fits the cap");
    assert!(matches!(
        core.submit(5, 3, Request::Ping, Arc::new(NullSink)),
        Err(ServiceError::Overloaded { .. })
    ));
    let other = core
        .submit(6, 4, Request::Ping, Arc::new(NullSink))
        .expect("a different client is not shed");

    gate.open();
    assert!(matches!(held.wait(), Ok(Reply::Verify(_))));
    assert!(matches!(first.wait(), Ok(Reply::Pong)));
    assert!(matches!(other.wait(), Ok(Reply::Pong)));
    core.shutdown();
}

fn keyed_car_verify(key: u64) -> Request {
    match car_verify() {
        Request::Verify {
            name,
            source,
            property,
            budget_ms,
            budget_nodes,
            want_events,
            deadline_ms,
            ..
        } => Request::Verify {
            name,
            source,
            property,
            budget_ms,
            budget_nodes,
            want_events,
            deadline_ms,
            idempotency_key: Some(key),
        },
        _ => unreachable!(),
    }
}

/// The idempotency window: a retry of a completed verify is answered
/// from the window with a byte-identical reply — and byte-identical to
/// the one-shot session's certificates — without re-running the proof
/// search. This extends the certificate-identity guarantee across the
/// retry path.
#[test]
fn idempotent_retries_replay_the_exact_reply_bytes() {
    use reflex_service::protocol::encode_reply;

    let baseline = baseline_certificates();
    let core = single_worker_core(ServiceConfig::default());

    let first = core
        .submit(0, 1, keyed_car_verify(0xfeed), Arc::new(NullSink))
        .expect("first submit")
        .wait()
        .expect("first verify completes");
    // A reconnecting client retries under a fresh connection id and a
    // fresh request id; only the key matches.
    let retried = core
        .submit(9, 700, keyed_car_verify(0xfeed), Arc::new(NullSink))
        .expect("retry submits")
        .wait()
        .expect("retry is served from the window");

    assert_eq!(
        encode_reply(&first),
        encode_reply(&retried),
        "the retried reply must be byte-identical"
    );
    let Reply::Verify(report) = &retried else {
        panic!("verify reply expected");
    };
    for (name, outcome) in &report.outcomes {
        let cert = outcome.certificate().expect("car proves everything");
        assert_eq!(
            &certificate_to_bytes(cert),
            baseline.get(name).expect("known property"),
            "{name}: the deduped certificate must match the one-shot bytes"
        );
    }
    assert_eq!(
        core.stats().requests_executed.load(Ordering::Relaxed),
        1,
        "the proof search must not run twice"
    );
    assert_eq!(core.stats().idempotent_hits.load(Ordering::Relaxed), 1);
    core.shutdown();
}

/// A retry that lands while the original is still running attaches as a
/// follower of the in-flight attempt: one execution, two identical
/// replies.
#[test]
fn an_inflight_idempotent_retry_attaches_as_a_follower() {
    use reflex_service::protocol::encode_reply;

    let core = single_worker_core(ServiceConfig::default());
    let gate = Arc::new(Gate::default());
    let original = core
        .submit(
            0,
            1,
            keyed_car_verify(0xcafe),
            Arc::new(GateSink(Arc::clone(&gate))),
        )
        .expect("original submits");
    gate.wait_entered();

    let follower = core
        .submit(3, 9, keyed_car_verify(0xcafe), Arc::new(NullSink))
        .expect("follower attaches");
    assert_eq!(core.stats().idempotent_hits.load(Ordering::Relaxed), 1);

    gate.open();
    let a = original.wait().expect("original completes");
    let b = follower.wait().expect("follower completes with it");
    assert_eq!(encode_reply(&a), encode_reply(&b));
    assert_eq!(core.stats().requests_executed.load(Ordering::Relaxed), 1);
    core.shutdown();
}

// ---------------------------------------------------------------------------
// Hostile peers against the socket server
// ---------------------------------------------------------------------------

/// A slow-loris peer — a frame that starts arriving and never finishes —
/// is reaped within the frame deadline with a typed [`ERR_IDLE`] frame
/// before the close, and the server keeps serving.
#[test]
fn a_slow_loris_peer_is_reaped_with_a_typed_error() {
    use reflex_service::protocol::{decode_error, encode_hello, HELLO, HELLO_OK};

    let core = Arc::new(single_worker_core(ServiceConfig::default()));
    let handle = serve(
        Arc::clone(&core),
        &ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            frame_timeout_ms: 80,
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let addr = handle.tcp_addr.expect("tcp bound");

    let mut stream = hostile_connect(addr);
    write_frame(
        &mut stream,
        &Frame {
            kind: HELLO,
            request_id: 0,
            payload: encode_hello(),
        },
    )
    .expect("hello writes");
    let hello_ok = read_frame(&mut stream).expect("handshake completes");
    assert_eq!(hello_ok.kind, HELLO_OK);

    // Announce a frame, deliver two bytes of it, go silent.
    stream.write_all(&64u32.to_le_bytes()).expect("prefix");
    stream.write_all(&[REQUEST, 0]).expect("trickle");
    let reap = read_error_frame(&mut stream);
    let (code, message) = decode_error(&reap.payload).expect("reap error decodes");
    assert_eq!(code, reflex_service::protocol::ERR_IDLE);
    assert!(message.contains("reaped"), "{message}");
    assert!(matches!(
        read_frame(&mut stream),
        Err(ProtoError::Closed | ProtoError::Io(_))
    ));
    assert_eq!(core.stats().reaped_connections.load(Ordering::Relaxed), 1);

    // The pool was never blocked: a well-behaved client is served.
    let mut client = Client::connect(&Endpoint::Tcp(addr.to_string())).expect("still serving");
    client.ping().expect("ping after the reap");

    handle.stop();
    core.shutdown();
}

/// A peer that sends a length prefix and disconnects mid-frame: the
/// server treats it as a gone peer (no panic, no protocol-error count)
/// and keeps serving.
#[test]
fn a_mid_frame_disconnect_after_the_length_prefix_is_survived() {
    let core = Arc::new(single_worker_core(ServiceConfig::default()));
    let handle = serve(
        Arc::clone(&core),
        &ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let addr = handle.tcp_addr.expect("tcp bound");

    {
        let mut stream = hostile_connect(addr);
        stream.write_all(&32u32.to_le_bytes()).expect("prefix");
        stream.write_all(&[REQUEST]).expect("one body byte");
        stream.shutdown(std::net::Shutdown::Write).ok();
        let mut rest = Vec::new();
        let _ = stream.read_to_end(&mut rest);
    }

    let mut client = Client::connect(&Endpoint::Tcp(addr.to_string())).expect("still serving");
    client.ping().expect("ping after the truncated peer");
    assert_eq!(core.stats().protocol_errors.load(Ordering::Relaxed), 0);

    handle.stop();
    core.shutdown();
}

/// CANCEL is idempotent on the wire: unknown ids and completed ids are
/// both acknowledged with CANCEL_OK and the connection stays usable.
#[test]
fn cancel_frames_for_unknown_and_completed_ids_are_acknowledged() {
    let core = Arc::new(single_worker_core(ServiceConfig::default()));
    let handle = serve(
        Arc::clone(&core),
        &ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let addr = handle.tcp_addr.expect("tcp bound");

    let mut client = Client::connect(&Endpoint::Tcp(addr.to_string())).expect("connects");
    client.ping().expect("a request completes");
    // Id 1 was the ping (completed); id 999 was never submitted.
    client
        .cancel(1)
        .expect("cancelling a completed id is acked");
    client
        .cancel(999)
        .expect("cancelling an unknown id is acked");
    client.ping().expect("the connection is still usable");

    handle.stop();
    core.shutdown();
}

// ---------------------------------------------------------------------------
// The retrying client
// ---------------------------------------------------------------------------

/// The retrying client redials through connect failures and counts its
/// attempts; the backoff schedule is a pure function of the policy
/// seed.
#[test]
fn retrying_client_survives_connect_failures_and_reconnects() {
    use reflex_service::{ClientError, RetryPolicy, RetryingClient};

    let core = Arc::new(single_worker_core(ServiceConfig::default()));
    let handle = serve(
        Arc::clone(&core),
        &ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let addr = handle.tcp_addr.expect("tcp bound");

    let mut failures = 2;
    let mut client = RetryingClient::with_dialer(
        Box::new(move || {
            if failures > 0 {
                failures -= 1;
                return Err(ClientError::Io("injected connect failure".into()));
            }
            Client::connect(&Endpoint::Tcp(addr.to_string()))
        }),
        RetryPolicy {
            max_attempts: 4,
            seed: 7,
            ..RetryPolicy::default()
        },
    );
    let mut slept = Vec::new();
    let sleeps = Arc::new(Mutex::new(Vec::new()));
    {
        let sleeps = Arc::clone(&sleeps);
        client.set_sleeper(Box::new(move |ms| {
            sleeps.lock().expect("sleeps poisoned").push(ms)
        }));
    }
    client.ping().expect("the third dial succeeds");
    assert_eq!(client.stats().connects, 1);
    assert_eq!(client.stats().retries, 2);
    slept.extend(sleeps.lock().expect("sleeps poisoned").iter().copied());

    // The schedule is deterministic from the seed, capped exponential
    // with half-jitter: retry n sleeps within (step/2 ..= step).
    let policy = RetryPolicy {
        seed: 7,
        ..RetryPolicy::default()
    };
    assert_eq!(slept, vec![policy.delay_ms(1), policy.delay_ms(2)]);
    for (i, ms) in slept.iter().enumerate() {
        let step = policy.base_delay_ms << i;
        assert!(*ms >= step / 2 && *ms <= step, "retry {i} slept {ms}");
    }

    handle.stop();
    core.shutdown();
}

/// A verify retried across a mid-stream disconnect lands exactly once:
/// the client stamps one idempotency key before the first send, the
/// second attempt is answered from the window, and the certificates are
/// byte-identical to the one-shot baseline.
#[test]
fn a_retried_verify_is_deduplicated_across_reconnects() {
    use reflex_service::{RetryPolicy, RetryingClient};

    let baseline = baseline_certificates();
    let core = Arc::new(single_worker_core(ServiceConfig::default()));
    let socket = temp_socket_path("retry-dedup");
    let handle = serve(
        Arc::clone(&core),
        &ServerConfig {
            unix: Some(socket.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("server binds");

    // Warm the window with the "first attempt whose reply was lost":
    // the first key a seed-99 retrying client stamps is draw 1 of its
    // seed-derived key stream, so the test can pre-run that request.
    let key = reflex_rng::stream_u64(reflex_rng::derive(99, "idem-key"), 1);
    let lost_attempt = core
        .request(1000, keyed_car_verify(key), Arc::new(NullSink))
        .expect("first attempt completes server-side");

    // The retry: same seed, so the client stamps the same key.
    let endpoint = Endpoint::Unix(socket.clone());
    let mut client = RetryingClient::connect(
        &endpoint,
        RetryPolicy {
            seed: 99,
            ..RetryPolicy::default()
        },
    );
    client.set_sleeper(Box::new(|_| {}));
    let report = client
        .verify(car_verify(), &mut |_| {})
        .expect("retried verify is served from the window");

    let Reply::Verify(first_report) = &lost_attempt else {
        panic!("verify reply expected");
    };
    assert_eq!(report.outcomes.len(), first_report.outcomes.len());
    for (name, outcome) in &report.outcomes {
        let cert = outcome.certificate().expect("car proves everything");
        assert_eq!(
            &certificate_to_bytes(cert),
            baseline.get(name).expect("known property"),
            "{name}: retried certificate differs from the one-shot bytes"
        );
    }
    assert_eq!(core.stats().requests_executed.load(Ordering::Relaxed), 1);
    assert_eq!(core.stats().idempotent_hits.load(Ordering::Relaxed), 1);

    handle.stop();
    core.shutdown();
    let _ = std::fs::remove_file(&socket);
}

/// With a store attached, a single-property verify proves, returns and
/// persists that property alone — and a repeat reuses exactly it.
#[test]
fn a_store_verify_of_one_property_returns_and_persists_only_it() {
    const PROP: &str = "NoLockAfterCrash";
    let dir = std::env::temp_dir().join(format!("rxd-test-prop-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let core = single_worker_core(ServiceConfig {
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServiceConfig::default()
    });
    let verify = || match core.request(
        0,
        verify_request("car", car::SOURCE, Some(PROP)),
        Arc::new(NullSink),
    ) {
        Ok(Reply::Verify(report)) => report,
        other => panic!("expected a verify reply, got {other:?}"),
    };
    let first = verify();
    assert_eq!(first.outcomes.len(), 1, "{}", first.render_properties());
    assert_eq!(first.outcomes[0].0, PROP);
    assert!(first.outcomes[0].1.is_proved());
    assert_eq!(first.store_saved, 1, "exactly one certificate is persisted");

    let again = verify();
    assert_eq!(again.outcomes.len(), 1);
    assert_eq!(again.reused, vec![PROP.to_owned()]);
    assert_eq!(again.store_loaded, 1);
    core.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Parks each session at its first event until both have started, so
/// the two are guaranteed to overlap.
struct BarrierSink {
    barrier: Arc<Barrier>,
    entered: AtomicBool,
}

impl Instrument for BarrierSink {
    fn event(&self, _event: &Event) {
        if !self.entered.swap(true, Ordering::SeqCst) {
            self.barrier.wait();
        }
    }
}

/// Counters belong to the request that caused them: two sessions
/// overlapping on a 2-worker core each report exactly the paths and
/// solver queries they report when run alone.
#[test]
fn overlapping_sessions_count_only_their_own_work() {
    let kernels = [("car", car::SOURCE), ("ssh", reflex_kernels::ssh::SOURCE)];
    let counters = |reply: Result<Reply, ServiceError>| match reply {
        Ok(Reply::Verify(report)) => (report.stats.paths_explored, report.stats.solver_queries),
        other => panic!("expected a verify reply, got {other:?}"),
    };
    let alone: Vec<(u64, u64)> = kernels
        .iter()
        .map(|(name, source)| {
            let core = single_worker_core(ServiceConfig::default());
            let c =
                counters(core.request(0, verify_request(name, source, None), Arc::new(NullSink)));
            core.shutdown();
            c
        })
        .collect();

    let core = ServiceCore::start(ServiceConfig {
        jobs: 1,
        workers: 2,
        ..ServiceConfig::default()
    })
    .expect("core starts");
    let barrier = Arc::new(Barrier::new(kernels.len()));
    let tickets: Vec<_> = kernels
        .iter()
        .zip(0u64..)
        .map(|((name, source), client)| {
            let sink = BarrierSink {
                barrier: Arc::clone(&barrier),
                entered: AtomicBool::new(false),
            };
            core.submit(
                client,
                client + 1,
                verify_request(name, source, None),
                Arc::new(sink),
            )
            .expect("submits")
        })
        .collect();
    let together: Vec<(u64, u64)> = tickets.iter().map(|t| counters(t.wait())).collect();
    core.shutdown();

    assert!(alone.iter().all(|(paths, _)| *paths > 0));
    assert_eq!(together, alone);
}

fn verify_reply(reply: Result<Reply, ServiceError>) -> Box<reflex_driver::SessionReport> {
    match reply {
        Ok(Reply::Verify(report)) => report,
        other => panic!("expected a verify reply, got {other:?}"),
    }
}

/// Each outcome as `(property, certificate bytes)`, or the failure text
/// for an unproved property.
fn outcome_bytes(report: &reflex_driver::SessionReport) -> Vec<(String, Vec<u8>)> {
    report
        .outcomes
        .iter()
        .map(|(name, outcome)| match outcome.certificate() {
            Some(cert) => (name.clone(), certificate_to_bytes(cert)),
            None => (name.clone(), format!("{outcome:?}").into_bytes()),
        })
        .collect()
}

/// `count` small generated kernels with pairwise distinct sources.
fn synth_kernels(count: u64) -> Vec<reflex_kernels::synth::SynthKernel> {
    use reflex_kernels::synth::{generate, SynthConfig};
    (0..count)
        .map(|seed| {
            let mut kernel = generate(&SynthConfig {
                components: 3,
                handlers: 1,
                properties: 3,
                high_components: 0,
                seed,
            });
            kernel.name = format!("synth-{seed}");
            kernel
        })
        .collect()
}

#[test]
fn a_check_then_a_verify_of_one_source_is_one_miss_then_one_hit() {
    let core = single_worker_core(ServiceConfig::default());
    let check = Request::Check {
        name: "car".into(),
        source: car::SOURCE.into(),
    };
    assert!(matches!(
        core.request(0, check, Arc::new(NullSink)),
        Ok(Reply::Checked(_))
    ));
    let report = verify_reply(core.request(0, car_verify(), Arc::new(NullSink)));
    assert_eq!(report.failures(), 0, "{}", report.render_properties());
    let stats = core.stats().snapshot();
    assert_eq!((stats.resident_misses, stats.resident_hits), (1, 1));
    assert_eq!(core.env().resident_count(), 1);
    core.shutdown();
}

/// A storeless daemon fed a stream of distinct programs keeps a bounded
/// number of proof caches and resident programs, and a program whose
/// cache was evicted still verifies to the very same certificates.
#[test]
fn forty_programs_keep_at_most_sixteen_proof_caches() {
    use reflex_driver::RESIDENT_CAPACITY;
    let kernels = synth_kernels(40);
    let fingerprints: std::collections::BTreeSet<_> = kernels
        .iter()
        .map(|k| k.checked().fingerprints().program)
        .collect();
    assert!(
        fingerprints.len() > RESIDENT_CAPACITY,
        "the stream must overflow the bound"
    );
    let core = single_worker_core(ServiceConfig::default());
    let verify = |k: &reflex_kernels::synth::SynthKernel| {
        verify_reply(core.request(
            0,
            verify_request(&k.name, &k.source, None),
            Arc::new(NullSink),
        ))
    };
    let first = outcome_bytes(&verify(&kernels[0]));
    assert!(!first.is_empty());
    for kernel in &kernels[1..] {
        let report = verify(kernel);
        assert_eq!(report.failures(), 0, "{}", report.render_properties());
        assert!(core.env().cache_count() <= RESIDENT_CAPACITY);
        assert!(core.env().resident_count() <= RESIDENT_CAPACITY);
    }
    assert_eq!(core.env().cache_count(), RESIDENT_CAPACITY);
    assert_eq!(core.env().resident_count(), RESIDENT_CAPACITY);
    assert_eq!(outcome_bytes(&verify(&kernels[0])), first);
    assert_eq!(core.stats().snapshot().resident_misses, 41);
    core.shutdown();
}

#[test]
fn a_seventeenth_program_evicts_the_first() {
    let kernels = synth_kernels(17);
    let core = single_worker_core(ServiceConfig::default());
    let verify = |k: &reflex_kernels::synth::SynthKernel| {
        outcome_bytes(&verify_reply(core.request(
            0,
            verify_request(&k.name, &k.source, None),
            Arc::new(NullSink),
        )))
    };
    let first = verify(&kernels[0]);
    for kernel in &kernels[1..] {
        verify(kernel);
    }
    assert_eq!(core.env().resident_count(), 16);
    assert_eq!(core.stats().snapshot().resident_misses, 17);
    // The first program was evicted: its next request is a miss that
    // answers exactly as its first request did.
    assert_eq!(verify(&kernels[0]), first);
    let stats = core.stats().snapshot();
    assert_eq!((stats.resident_misses, stats.resident_hits), (18, 0));
    // The most recently used programs are still resident.
    verify(&kernels[16]);
    assert_eq!(core.stats().snapshot().resident_hits, 1);
    core.shutdown();
}

#[test]
fn one_source_under_two_names_is_two_resident_programs() {
    let core = single_worker_core(ServiceConfig::default());
    for name in ["car", "car-copy", "car"] {
        let check = Request::Check {
            name: name.into(),
            source: car::SOURCE.into(),
        };
        match core.request(0, check, Arc::new(NullSink)) {
            Ok(Reply::Checked(summary)) => assert_eq!(summary.program, name),
            other => panic!("expected a check reply, got {other:?}"),
        }
    }
    assert_eq!(core.env().resident_count(), 2);
    let stats = core.stats().snapshot();
    assert_eq!((stats.resident_misses, stats.resident_hits), (2, 1));
    core.shutdown();
}

#[test]
fn sources_that_fail_to_load_are_never_resident() {
    let core = single_worker_core(ServiceConfig::default());
    let unparsable = "components { Broken";
    let ill_typed = car::SOURCE.replacen("crashed = true;", "crashed = 7;", 1);
    assert_ne!(ill_typed, car::SOURCE, "the seeded type error applies");
    for source in [unparsable, ill_typed.as_str()] {
        let requests = [
            Request::Check {
                name: "bad".into(),
                source: source.into(),
            },
            verify_request("bad", source, None),
            verify_request("bad", source, None),
        ];
        let messages: Vec<String> = requests
            .into_iter()
            .map(
                |request| match core.request(0, request, Arc::new(NullSink)) {
                    Err(ServiceError::Session(e)) => e.to_string(),
                    other => panic!("expected a session error, got {other:?}"),
                },
            )
            .collect();
        assert!(messages.iter().all(|m| *m == messages[0]), "{messages:?}");
        assert_eq!(core.env().resident_count(), 0);
    }
    let stats = core.stats().snapshot();
    assert_eq!((stats.resident_misses, stats.resident_hits), (6, 0));
    core.shutdown();
}

/// Two workers that both miss on one new program both answer with the
/// certificates a one-shot session produces, and one entry stays.
#[test]
fn two_workers_racing_on_one_new_program_both_answer_correctly() {
    let baseline = baseline_certificates();
    let core = ServiceCore::start(ServiceConfig {
        jobs: 1,
        workers: 2,
        ..ServiceConfig::default()
    })
    .expect("core starts");
    let barrier = Arc::new(Barrier::new(2));
    let tickets: Vec<_> = (0u64..2)
        .map(|client| {
            let sink = BarrierSink {
                barrier: Arc::clone(&barrier),
                entered: AtomicBool::new(false),
            };
            core.submit(client, client + 1, car_verify(), Arc::new(sink))
                .expect("submits")
        })
        .collect();
    for ticket in tickets {
        let answer: BTreeMap<String, Vec<u8>> = outcome_bytes(&verify_reply(ticket.wait()))
            .into_iter()
            .collect();
        assert_eq!(answer, baseline);
    }
    let stats = core.stats().snapshot();
    assert_eq!(stats.resident_misses + stats.resident_hits, 2);
    assert_eq!(core.env().resident_count(), 1);
    core.shutdown();
}

/// Parks each session as its Prove stage starts until both have reached
/// it: by then both have read their program's certificate table, so
/// neither can reuse what the other records.
struct ProveBarrierSink(Arc<Barrier>);

impl Instrument for ProveBarrierSink {
    fn event(&self, event: &Event) {
        if matches!(
            event,
            Event::StageStart {
                stage: reflex_driver::Stage::Prove
            }
        ) {
            self.0.wait();
        }
    }
}

/// Two workers that search one resident program at once both answer the
/// one-shot certificates and both record them; the first record stands,
/// and a third request reuses every certificate.
#[test]
fn two_workers_racing_on_one_resident_program_record_identical_certificates() {
    let baseline = baseline_certificates();
    let core = ServiceCore::start(ServiceConfig {
        jobs: 1,
        workers: 2,
        ..ServiceConfig::default()
    })
    .expect("core starts");
    let check = Request::Check {
        name: "car".into(),
        source: car::SOURCE.into(),
    };
    assert!(matches!(
        core.request(0, check, Arc::new(NullSink)),
        Ok(Reply::Checked(_))
    ));
    let barrier = Arc::new(Barrier::new(2));
    let tickets: Vec<_> = (0u64..2)
        .map(|client| {
            let sink = ProveBarrierSink(Arc::clone(&barrier));
            core.submit(client, client + 1, car_verify(), Arc::new(sink))
                .expect("submits")
        })
        .collect();
    for ticket in tickets {
        let report = verify_reply(ticket.wait());
        assert!(report.reused.is_empty(), "both searched");
        let answer: BTreeMap<String, Vec<u8>> = outcome_bytes(&report).into_iter().collect();
        assert_eq!(answer, baseline);
    }
    let third = verify_reply(core.request(0, car_verify(), Arc::new(NullSink)));
    assert_eq!(third.reused.len(), baseline.len());
    assert_eq!(third.stats.paths_explored, 0);
    let answer: BTreeMap<String, Vec<u8>> = outcome_bytes(&third).into_iter().collect();
    assert_eq!(answer, baseline);
    assert_eq!(core.env().resident_count(), 1);
    core.shutdown();
}

/// Evicting a program drops the certificates recorded for it: its next
/// request searches again and answers the same bytes, and the one after
/// that reuses them.
#[test]
fn evicting_a_program_drops_its_recorded_certificates() {
    let kernels = synth_kernels(17);
    let core = single_worker_core(ServiceConfig::default());
    let verify = |k: &reflex_kernels::synth::SynthKernel| {
        verify_reply(core.request(
            0,
            verify_request(&k.name, &k.source, None),
            Arc::new(NullSink),
        ))
    };
    let first = verify(&kernels[0]);
    assert_eq!(first.failures(), 0, "{}", first.render_properties());
    let all: Vec<String> = first.outcomes.iter().map(|(n, _)| n.clone()).collect();
    assert_eq!(verify(&kernels[0]).reused, all, "recorded while resident");
    for kernel in &kernels[1..] {
        verify(kernel);
    }
    let evicted = verify(&kernels[0]);
    assert!(evicted.reused.is_empty(), "the table went with the program");
    assert_eq!(evicted.reproved, all);
    assert_eq!(outcome_bytes(&evicted), outcome_bytes(&first));
    let again = verify(&kernels[0]);
    assert_eq!(again.reused, all);
    assert_eq!(outcome_bytes(&again), outcome_bytes(&first));
    core.shutdown();
}

/// A recorded certificate is served whatever the request's budget, as a
/// store hit is: a zero wall-clock budget times every car property out
/// on a fresh core, yet is answered with the recorded certificates once
/// an unbudgeted request has proved them.
#[test]
fn a_budgeted_request_is_served_the_recorded_certificates() {
    let baseline = baseline_certificates();
    let budgeted = || Request::Verify {
        name: "car".into(),
        source: car::SOURCE.into(),
        property: None,
        budget_ms: Some(0),
        budget_nodes: None,
        want_events: false,
        deadline_ms: None,
        idempotency_key: None,
    };
    let fresh = single_worker_core(ServiceConfig::default());
    let bitten = verify_reply(fresh.request(0, budgeted(), Arc::new(NullSink)));
    assert_eq!(bitten.proved(), 0, "{}", bitten.render_properties());
    assert_eq!(bitten.timeouts(), baseline.len());
    fresh.shutdown();

    let core = single_worker_core(ServiceConfig::default());
    let proved = verify_reply(core.request(0, car_verify(), Arc::new(NullSink)));
    assert_eq!(proved.failures(), 0, "{}", proved.render_properties());
    let served = verify_reply(core.request(0, budgeted(), Arc::new(NullSink)));
    assert_eq!(served.reused.len(), baseline.len());
    let answer: BTreeMap<String, Vec<u8>> = outcome_bytes(&served).into_iter().collect();
    assert_eq!(answer, baseline);
    core.shutdown();
}

// ---------------------------------------------------------------------------
// Every way a request ends, over the wire: exactly one terminal frame
// ---------------------------------------------------------------------------

/// Serves `core` on a scratch unix socket named after `tag`.
fn serve_unix(core: &Arc<ServiceCore>, tag: &str, config: ServerConfig) -> (ServerHandle, PathBuf) {
    let socket = temp_socket_path(tag);
    let handle = serve(
        Arc::clone(core),
        &ServerConfig {
            unix: Some(socket.clone()),
            ..config
        },
    )
    .expect("server binds");
    (handle, socket)
}

/// A raw protocol peer that pipelines frames without waiting for the
/// replies, which the SDK client never does.
struct Wire(UnixStream);

impl Wire {
    fn connect(socket: &Path) -> Wire {
        let stream = UnixStream::connect(socket).expect("connects");
        // A server regression must fail the test, not hang it.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout set");
        let mut wire = Wire(stream);
        wire.send(HELLO, 0, encode_hello());
        assert_eq!(wire.read().kind, HELLO_OK);
        wire
    }

    fn send(&mut self, kind: u8, request_id: u64, payload: Vec<u8>) {
        let frame = Frame {
            kind,
            request_id,
            payload,
        };
        write_frame(&mut self.0, &frame).expect("frame writes");
    }

    fn request(&mut self, request_id: u64, request: &Request) {
        self.send(REQUEST, request_id, encode_request(request));
    }

    fn read(&mut self) -> Frame {
        read_frame(&mut self.0).expect("a frame arrives")
    }

    /// Half-closes the write side and reads every frame the server sends
    /// before it closes the connection.
    fn drain(mut self) -> Vec<Frame> {
        self.0
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut frames = Vec::new();
        loop {
            match read_frame(&mut self.0) {
                Ok(frame) => frames.push(frame),
                Err(ProtoError::Closed) => return frames,
                Err(e) => panic!("the connection failed before a clean close: {e}"),
            }
        }
    }
}

/// An ERROR frame's `(code, retry_after_ms)`.
fn error_of(frame: &Frame) -> (u16, Option<u64>) {
    assert_eq!(frame.kind, ERROR, "expected an error frame");
    let (code, _, retry_after_ms) = decode_error_retry(&frame.payload).expect("error decodes");
    (code, retry_after_ms)
}

fn stop(handle: ServerHandle, core: &ServiceCore, socket: &Path) {
    handle.stop();
    core.shutdown();
    let _ = std::fs::remove_file(socket);
}

/// A request cancelled while queued: CANCEL_OK comes first, then the
/// request's one terminal frame, `ERR_CANCELLED` on the same id.
#[test]
fn a_cancelled_queued_request_is_acked_then_ends_in_one_cancelled_error() {
    let core = Arc::new(single_worker_core(ServiceConfig::default()));
    let (handle, socket) = serve_unix(&core, "wire-cancel", ServerConfig::default());
    let (gate, held) = hold_worker(&core);

    let mut wire = Wire::connect(&socket);
    wire.request(1, &Request::Ping);
    wire.send(CANCEL, 1, Vec::new());
    let ack = wire.read();
    assert_eq!((ack.kind, ack.request_id), (CANCEL_OK, 1));
    let terminal = wire.read();
    assert_eq!(terminal.request_id, 1);
    assert_eq!(error_of(&terminal).0, ERR_CANCELLED);

    gate.open();
    assert!(matches!(held.wait(), Ok(Reply::Verify(_))));
    assert!(
        wire.drain().is_empty(),
        "nothing follows the terminal frame"
    );
    stop(handle, &core, &socket);
}

/// A request whose deadline expires in the queue ends in one
/// `ERR_DEADLINE` frame, written by the worker that dequeues it.
#[test]
fn a_queue_expired_deadline_ends_in_one_deadline_error() {
    let core = Arc::new(single_worker_core(ServiceConfig::default()));
    let (handle, socket) = serve_unix(&core, "wire-deadline", ServerConfig::default());
    let (gate, held) = hold_worker(&core);

    let mut request = car_verify();
    if let Request::Verify { deadline_ms, .. } = &mut request {
        *deadline_ms = Some(0);
    }
    let mut wire = Wire::connect(&socket);
    wire.request(1, &request);
    gate.open();
    assert!(matches!(held.wait(), Ok(Reply::Verify(_))));
    let frames = wire.drain();
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0].request_id, 1);
    assert_eq!(error_of(&frames[0]).0, ERR_DEADLINE);
    stop(handle, &core, &socket);
}

/// A shed request ends in one `ERR_OVERLOADED` frame carrying the retry
/// hint, while the request queued before it still gets its reply.
#[test]
fn a_shed_request_ends_in_one_overloaded_error_with_its_retry_hint() {
    let core = Arc::new(single_worker_core(ServiceConfig {
        shed_queue_depth: 1,
        shed_retry_after_ms: 40,
        ..ServiceConfig::default()
    }));
    let (handle, socket) = serve_unix(&core, "wire-shed", ServerConfig::default());
    let (gate, held) = hold_worker(&core);

    let mut wire = Wire::connect(&socket);
    wire.request(1, &Request::Ping);
    wire.request(2, &Request::Ping);
    let shed = wire.read();
    assert_eq!(shed.request_id, 2, "the queued ping cannot answer yet");
    assert_eq!(error_of(&shed), (ERR_OVERLOADED, Some(40)));

    gate.open();
    assert!(matches!(held.wait(), Ok(Reply::Verify(_))));
    let frames = wire.drain();
    assert_eq!(frames.len(), 1);
    assert_eq!((frames[0].kind, frames[0].request_id), (REPLY, 1));
    assert!(matches!(
        decode_reply(&frames[0].payload),
        Some(Reply::Pong)
    ));
    stop(handle, &core, &socket);
}

/// A keyed verify retried after it completed is answered from the
/// idempotency window at submit: one REPLY, byte for byte the first.
#[test]
fn an_idempotent_replay_ends_in_one_identical_reply() {
    let core = Arc::new(single_worker_core(ServiceConfig::default()));
    let (handle, socket) = serve_unix(&core, "wire-replay", ServerConfig::default());

    let mut wire = Wire::connect(&socket);
    wire.request(1, &keyed_car_verify(0xbeef));
    let first = wire.read();
    assert_eq!((first.kind, first.request_id), (REPLY, 1));
    wire.request(2, &keyed_car_verify(0xbeef));
    let frames = wire.drain();
    assert_eq!(frames.len(), 1);
    assert_eq!((frames[0].kind, frames[0].request_id), (REPLY, 2));
    assert_eq!(frames[0].payload, first.payload);
    assert_eq!(core.stats().requests_executed.load(Ordering::Relaxed), 1);
    assert_eq!(core.stats().idempotent_hits.load(Ordering::Relaxed), 1);
    stop(handle, &core, &socket);
}

/// A keyed verify that arrives while the same key is running follows
/// that attempt: one REPLY, byte for byte the attempt's own.
#[test]
fn an_inflight_follower_ends_in_one_copy_of_the_leaders_reply() {
    let core = Arc::new(single_worker_core(ServiceConfig::default()));
    let (handle, socket) = serve_unix(&core, "wire-follower", ServerConfig::default());
    let gate = Arc::new(Gate::default());
    let leader = core
        .submit(
            0,
            1,
            keyed_car_verify(0xd00d),
            Arc::new(GateSink(Arc::clone(&gate))),
        )
        .expect("the leader submits");
    gate.wait_entered();

    let mut wire = Wire::connect(&socket);
    wire.request(1, &keyed_car_verify(0xd00d));
    // Frames are handled in order: once STATS is answered, the request
    // before it has attached as a follower.
    wire.send(STATS, 2, Vec::new());
    assert_eq!(wire.read().kind, STATS_REPLY);
    assert_eq!(core.stats().idempotent_hits.load(Ordering::Relaxed), 1);

    gate.open();
    let lead = leader.wait().expect("the leader completes");
    let frames = wire.drain();
    assert_eq!(frames.len(), 1);
    assert_eq!((frames[0].kind, frames[0].request_id), (REPLY, 1));
    assert_eq!(frames[0].payload, encode_reply(&lead));
    assert_eq!(core.stats().requests_executed.load(Ordering::Relaxed), 1);
    stop(handle, &core, &socket);
}

/// A peer that pipelines verifies and half-closes at once still gets
/// every reply, each exactly once, before the server closes.
#[test]
fn pipelined_verifies_all_reply_before_a_clean_close() {
    let core = Arc::new(
        ServiceCore::start(ServiceConfig {
            jobs: 1,
            workers: 2,
            ..ServiceConfig::default()
        })
        .expect("core starts"),
    );
    let (handle, socket) = serve_unix(&core, "wire-close", ServerConfig::default());

    let mut wire = Wire::connect(&socket);
    for id in 1..=6 {
        wire.request(id, &car_verify());
    }
    let frames = wire.drain();
    let mut ids: Vec<u64> = frames.iter().map(|f| f.request_id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (1..=6).collect::<Vec<_>>());
    for frame in &frames {
        assert_eq!(frame.kind, REPLY);
        let Some(Reply::Verify(report)) = decode_reply(&frame.payload) else {
            panic!("verify reply expected");
        };
        assert_eq!(report.failures(), 0, "{}", report.render_properties());
    }
    stop(handle, &core, &socket);
}

/// A peer that pipelines verifies and never reads fills its socket
/// buffer. The first write that times out shuts its connection down and
/// every later frame for it is dropped, so it costs the worker one write
/// timeout, not one per frame, and other clients are served meanwhile.
#[test]
fn a_peer_that_never_reads_costs_one_write_timeout_and_blocks_no_one() {
    const PIPELINED: u64 = 32;
    const WRITE_TIMEOUT_MS: u64 = 200;
    let core = Arc::new(single_worker_core(ServiceConfig {
        queue_cap: PIPELINED as usize,
        ..ServiceConfig::default()
    }));
    let (handle, socket) = serve_unix(
        &core,
        "wire-stuck",
        ServerConfig {
            write_timeout_ms: WRITE_TIMEOUT_MS,
            ..ServerConfig::default()
        },
    );

    // Each verify streams about 30 kB of events and reply: 32 of them
    // are several times what a socket buffer holds.
    let mut request = car_verify();
    if let Request::Verify { want_events, .. } = &mut request {
        *want_events = true;
    }
    let started = Instant::now();
    let mut stuck = Wire::connect(&socket);
    for id in 1..=PIPELINED {
        stuck.request(id, &request);
    }

    let mut client = Client::connect(&Endpoint::Unix(socket.clone())).expect("connects");
    let report = client
        .verify(car_verify(), &mut |_| {})
        .expect("another client is served");
    assert_eq!(report.failures(), 0, "{}", report.render_properties());

    let served = || core.stats().requests_served.load(Ordering::Relaxed);
    let deadline = Duration::from_millis(PIPELINED * WRITE_TIMEOUT_MS);
    while served() < PIPELINED + 1 && started.elapsed() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        served(),
        PIPELINED + 1,
        "the stuck peer's requests took longer than a write timeout each"
    );

    // The server shut the connection down although the peer never
    // closed its side: reading ends at EOF, short of everything sent.
    let mut received = Vec::new();
    stuck
        .0
        .read_to_end(&mut received)
        .expect("the server closed the stuck connection");
    assert!(
        received.len() < PIPELINED as usize * 28_000,
        "{}",
        received.len()
    );
    stop(handle, &core, &socket);
}

/// `stop()` on an idle server returns promptly: the accept loops block in
/// `accept` and are woken by a connection of the server's own.
#[test]
fn stop_returns_promptly_on_an_idle_server() {
    let core = Arc::new(single_worker_core(ServiceConfig::default()));
    let socket = temp_socket_path("idle-stop");
    let handle = serve(
        Arc::clone(&core),
        &ServerConfig {
            unix: Some(socket.clone()),
            tcp: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    // Serve one client on each listener first, so both loops have been
    // through an accept and are blocked in the next one.
    let tcp = handle.tcp_addr.expect("tcp bound").to_string();
    for endpoint in [Endpoint::Unix(socket.clone()), Endpoint::Tcp(tcp)] {
        let mut client = Client::connect(&endpoint).expect("connects");
        client.ping().expect("pongs");
    }
    std::thread::sleep(Duration::from_millis(50));

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        handle.stop();
        let _ = done_tx.send(());
    });
    assert!(
        done_rx.recv_timeout(Duration::from_secs(10)).is_ok(),
        "stop() must not wait for another client to connect"
    );
    stopper.join().expect("stop does not panic");
    assert!(!socket.exists(), "stop removes the socket file");
    core.shutdown();
}
