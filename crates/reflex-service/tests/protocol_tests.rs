//! Wire-protocol tests: frame and payload codecs round-trip exactly,
//! and hostile input — malformed, truncated, oversized, mutated — is
//! rejected with a typed error, never a panic.

use std::io::Cursor;

use proptest::prelude::*;
use reflex_driver::{NullSink, SessionConfig, VerifySession};
use reflex_service::protocol::{
    decode_error, decode_error_retry, decode_hello, decode_reply, decode_request, decode_stats,
    enc_report, encode_error, encode_error_retry, encode_hello, encode_reply, encode_request,
    encode_stats, read_frame, write_frame, Dec, Enc, Frame, ProtoError, Reply, Request,
    StatsSnapshot, HELLO, MAX_FRAME, REQUEST,
};

fn roundtrip_frame(frame: &Frame) -> Frame {
    let mut buf = Vec::new();
    write_frame(&mut buf, frame).expect("frame writes");
    read_frame(&mut Cursor::new(buf)).expect("frame reads back")
}

#[test]
fn frames_roundtrip_bit_exactly() {
    for frame in [
        Frame {
            kind: HELLO,
            request_id: 0,
            payload: encode_hello(),
        },
        Frame {
            kind: REQUEST,
            request_id: u64::MAX,
            payload: vec![],
        },
        Frame {
            kind: 200,
            request_id: 7,
            payload: (0..=255).collect(),
        },
    ] {
        assert_eq!(roundtrip_frame(&frame), frame);
    }
}

#[test]
fn oversized_frames_are_refused_on_both_sides() {
    // Writing: a payload pushing past MAX_FRAME never hits the wire.
    let frame = Frame {
        kind: REQUEST,
        request_id: 1,
        payload: vec![0u8; MAX_FRAME as usize],
    };
    let mut buf = Vec::new();
    assert!(matches!(
        write_frame(&mut buf, &frame),
        Err(ProtoError::Oversized { .. })
    ));
    assert!(buf.is_empty(), "nothing may be written for a refused frame");

    // Reading: a hostile length prefix is rejected before any body
    // allocation.
    let mut hostile = Vec::new();
    hostile.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
    hostile.extend_from_slice(&[0u8; 16]);
    assert!(matches!(
        read_frame(&mut Cursor::new(hostile)),
        Err(ProtoError::Oversized { len }) if len == MAX_FRAME + 1
    ));
}

#[test]
fn truncated_and_undersized_frames_are_typed_errors() {
    // Clean EOF between frames: the peer hung up.
    assert!(matches!(
        read_frame(&mut Cursor::new(Vec::new())),
        Err(ProtoError::Closed)
    ));

    // A length shorter than the kind + request-id header is malformed.
    let mut short = Vec::new();
    short.extend_from_slice(&3u32.to_le_bytes());
    short.extend_from_slice(&[1, 2, 3]);
    assert!(matches!(
        read_frame(&mut Cursor::new(short)),
        Err(ProtoError::Malformed(_))
    ));

    // EOF inside an announced body: a truncated peer, surfaced as I/O.
    let frame = Frame {
        kind: REQUEST,
        request_id: 9,
        payload: vec![1, 2, 3, 4],
    };
    let mut buf = Vec::new();
    write_frame(&mut buf, &frame).expect("frame writes");
    buf.truncate(buf.len() - 2);
    assert!(matches!(
        read_frame(&mut Cursor::new(buf)),
        Err(ProtoError::Io(_))
    ));
}

#[test]
fn request_payloads_roundtrip() {
    for request in [
        Request::Ping,
        Request::Check {
            name: "kernel".into(),
            source: "components { }".into(),
        },
        Request::Verify {
            name: "car".into(),
            source: "state { x: num = 0; }".into(),
            property: Some("P1".into()),
            budget_ms: Some(250),
            budget_nodes: None,
            want_events: true,
            deadline_ms: Some(5_000),
            idempotency_key: Some(0xfeed_beef_dead_cafe),
        },
        Request::Verify {
            name: String::new(),
            source: String::new(),
            property: None,
            budget_ms: None,
            budget_nodes: Some(u64::MAX),
            want_events: false,
            deadline_ms: None,
            idempotency_key: None,
        },
    ] {
        let decoded = decode_request(&encode_request(&request)).expect("request decodes");
        assert_eq!(decoded, request);
    }
}

#[test]
fn stats_error_and_hello_payloads_roundtrip() {
    let stats = StatsSnapshot {
        requests_submitted: 1,
        requests_served: 2,
        rejected_busy: 3,
        protocol_errors: 4,
        connections: 5,
        rejected_overloaded: 6,
        cancelled: 7,
        deadline_expired: 8,
        idempotent_hits: 9,
        requests_executed: 10,
        reaped_connections: 11,
        accept_errors: 12,
        resident_hits: 13,
        resident_misses: 14,
    };
    let encoded = encode_stats(&stats);
    assert_eq!(decode_stats(&encoded), Some(stats));
    // Every field is on the wire: a payload one counter short is refused.
    assert_eq!(decode_stats(&encoded[..encoded.len() - 8]), None);

    let (code, message) = decode_error(&encode_error(6, "queue full")).expect("error decodes");
    assert_eq!((code, message.as_str()), (6, "queue full"));

    // The retry-hint variant round-trips both with and without a hint,
    // and the hintless decoder still reads a hinted payload.
    let hinted = encode_error_retry(10, "shedding", Some(250));
    assert_eq!(
        decode_error_retry(&hinted),
        Some((10, "shedding".to_owned(), Some(250)))
    );
    assert_eq!(decode_error(&hinted), Some((10, "shedding".to_owned())));
    assert_eq!(
        decode_error_retry(&encode_error(6, "queue full")),
        Some((6, "queue full".to_owned(), None))
    );

    assert_eq!(
        decode_hello(&encode_hello()),
        Some(reflex_service::protocol::VERSION)
    );
    // Wrong magic is refused outright.
    let mut e = Enc::new();
    e.u32(0xdead_beef);
    e.u16(reflex_service::protocol::VERSION);
    assert_eq!(decode_hello(&e.buf), None);
}

/// A real session report — certificates included — must survive the
/// reply codec byte-for-byte: this is what makes daemon verify output
/// indistinguishable from a local one-shot run.
#[test]
fn verify_reply_roundtrips_with_certificates() {
    let report = VerifySession::new(SessionConfig {
        ..SessionConfig::default()
    })
    .expect("session opens")
    .verify_checked(&reflex_kernels::car::checked(), &NullSink)
    .expect("car verifies");
    assert!(report.proved() > 0, "the fixture must prove something");

    let reply = Reply::Verify(Box::new(report));
    let encoded = encode_reply(&reply);
    let decoded = decode_reply(&encoded).expect("reply decodes");

    // Certificates have no PartialEq shortcut at the report level, so
    // compare through the codec itself: a second encode of the decoded
    // reply must reproduce the exact bytes.
    assert_eq!(encode_reply(&decoded), encoded);

    let (Reply::Verify(a), Reply::Verify(b)) = (&reply, &decoded) else {
        panic!("verify replies expected");
    };
    assert_eq!(a.program, b.program);
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for ((name_a, out_a), (name_b, out_b)) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(name_a, name_b);
        assert_eq!(out_a.certificate(), out_b.certificate());
    }
}

#[test]
fn trailing_garbage_is_malformed() {
    let mut payload = encode_request(&Request::Ping);
    payload.push(0);
    assert_eq!(decode_request(&payload), None);

    let mut d = Dec::new(&[1, 2]);
    assert!(d.u8().is_some());
    assert!(d.finish().is_none(), "an unconsumed byte must fail finish");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes on the wire: the frame reader returns a typed
    /// error or a frame — it never panics and never over-allocates.
    #[test]
    fn read_frame_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = read_frame(&mut Cursor::new(bytes));
    }

    /// Arbitrary payloads through every decoder: `None` or a value,
    /// never a panic, never an out-of-bounds read.
    #[test]
    fn payload_decoders_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_request(&bytes);
        let _ = decode_reply(&bytes);
        let _ = decode_stats(&bytes);
        let _ = decode_error(&bytes);
        let _ = decode_hello(&bytes);
    }

    /// Flipping any single byte of a valid request payload yields either
    /// a clean decode failure or a (different or equal) valid request —
    /// never a panic.
    #[test]
    fn mutated_requests_fail_closed(
        flip_at in 0usize..64,
        flip_with in 1u8..255,
        budget in proptest::option::of(0u64..1_000_000),
    ) {
        let request = Request::Verify {
            name: "kernel".into(),
            source: "state { x: num = 0; }".into(),
            property: Some("P".into()),
            budget_ms: budget,
            budget_nodes: budget.map(|b| b.saturating_mul(2)),
            want_events: budget.is_some(),
            deadline_ms: budget.map(|b| b + 1),
            idempotency_key: budget,
        };
        let mut payload = encode_request(&request);
        let index = flip_at % payload.len();
        payload[index] ^= flip_with;
        let _ = decode_request(&payload);
    }

    /// Truncating a valid reply payload at any point decodes to `None`
    /// (a prefix can never masquerade as a full report).
    #[test]
    fn truncated_replies_fail_closed(cut in 0usize..64) {
        let report = Reply::Checked(reflex_service::CheckSummary {
            program: "p".into(),
            components: 1,
            messages: 2,
            state_vars: 3,
            handlers: 4,
            properties: 5,
        });
        let payload = encode_reply(&report);
        if cut < payload.len() {
            prop_assert!(decode_reply(&payload[..cut]).is_none());
        }
    }
}

/// The helper [`enc_report`] and the reply wrapper agree: a report
/// encoded standalone is exactly the reply payload minus its tag byte.
#[test]
fn report_codec_and_reply_wrapper_agree() {
    let report = VerifySession::new(SessionConfig {
        ..SessionConfig::default()
    })
    .expect("session opens")
    .verify_checked(&reflex_kernels::car::checked(), &NullSink)
    .expect("car verifies");
    let mut e = Enc::new();
    enc_report(&mut e, &report);
    let reply_payload = encode_reply(&Reply::Verify(Box::new(report)));
    assert_eq!(&reply_payload[1..], &e.buf[..]);
}
