//! Fault-path integration tests for the session engine: virtual-clock
//! budget determinism, and scripted read-EIO / fsync-fault schedules
//! driving a watch session through degrade → retry → re-attach.

use std::sync::Arc;

use reflex_driver::{
    BackoffPolicy, Event, MemorySink, NullSink, SessionConfig, VerifySession, WatchSession,
};
use reflex_verify::{FaultyFs, FsFault, FsFaultPlan, FsOp, ProverOptions, VerifyFs, VirtualClock};

fn checked(name: &str, source: &str) -> reflex_typeck::CheckedProgram {
    let program = reflex_parser::parse_program(name, source).expect("kernel parses");
    reflex_typeck::check(&program).expect("kernel typechecks")
}

fn session(config: SessionConfig) -> VerifySession {
    VerifySession::new(config).expect("session opens")
}

/// Under a [`VirtualClock`] the wall-clock budget is a pure function of
/// how many times the provers poll it, so the same budget must time out
/// the *same* property set on every run — no scheduling or machine-speed
/// dependence left.
#[test]
fn virtual_clock_budget_times_out_the_same_property_set_every_run() {
    let ssh = checked("ssh", reflex_kernels::ssh::SOURCE);
    let run = || {
        let report = session(SessionConfig {
            options: ProverOptions::default(),
            budget_ms: Some(1),
            // 50µs per budget poll: a 1ms budget allows ~20 explored
            // paths before the simulated deadline passes.
            clock: Some(Arc::new(VirtualClock::new(50_000))),
            ..SessionConfig::default()
        })
        .verify_checked(&ssh, &NullSink)
        .expect("session completes despite the budget");
        report
            .outcomes
            .iter()
            .map(|(name, outcome)| (name.clone(), outcome.is_timeout()))
            .collect::<Vec<_>>()
    };

    let first = run();
    let second = run();
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "a simulated deadline must be deterministic across runs"
    );
    assert!(
        first.iter().any(|(_, timed_out)| *timed_out),
        "a 1ms virtual budget (~20 polls) cannot finish ssh"
    );
}

/// Drives one watch session over `fs` through the canonical four
/// iterations — healthy, tolerated-faulty, degraded, re-attached — and
/// asserts no verdict is ever lost and the store events tell the story.
fn degrade_and_reattach(fs: &FaultyFs, dir: &std::path::Path) {
    let car = checked("car", reflex_kernels::car::SOURCE);
    let mut watch = WatchSession::new(SessionConfig {
        options: ProverOptions::default(),
        store_dir: Some(dir.to_string_lossy().into_owned()),
        store_fs: Some(Arc::new(fs.clone()) as Arc<dyn VerifyFs>),
        ..SessionConfig::default()
    })
    .expect("healthy store opens")
    .with_backoff(BackoffPolicy {
        base_ms: 1,
        cap_ms: 2,
        retries: 2,
    });
    assert!(!watch.degraded());

    let sink = MemorySink::new();
    // 1: healthy store-backed iteration populates certificates.
    let it = watch.verify(&car, &sink).expect("iteration 1");
    assert!(!it.degraded);
    assert_eq!(it.failures(), 0);

    // 2: the scripted faults start firing. The iteration completes
    // (store errors are misses) and flags the store for a retry.
    fs.unheal();
    let it = watch.verify(&car, &sink).expect("iteration 2");
    assert!(!it.degraded, "one bad iteration is tolerated");
    assert_eq!(it.failures(), 0);

    // 3: the backoff probes hit the same faults, the store detaches.
    let it = watch.verify(&car, &sink).expect("iteration 3");
    assert!(it.degraded, "persistent faults must degrade");
    assert!(watch.degraded());
    assert_eq!(it.failures(), 0, "degraded mode loses no verdicts");

    // 4: the disk heals; the probe passes and the store re-attaches.
    fs.heal();
    let it = watch.verify(&car, &sink).expect("iteration 4");
    assert!(!it.degraded, "a healthy store must re-attach");
    assert!(!watch.degraded());
    assert_eq!(it.failures(), 0);

    assert!(fs.injected() > 0, "the scripted schedule must have fired");
    let (mut retries, mut degraded, mut recovered) = (0, 0, 0);
    for event in sink.events() {
        match event {
            Event::StoreRetry { .. } => retries += 1,
            Event::StoreDegraded { .. } => degraded += 1,
            Event::StoreRecovered => recovered += 1,
            _ => {}
        }
    }
    assert_eq!(retries, 2, "both backoff probes fired");
    assert_eq!(degraded, 1);
    assert_eq!(recovered, 1);
}

/// A disk whose every *read* fails with EIO must push the watch loop
/// through degrade and re-attach: the certificate loads and the probe's
/// read-back all miss, while writes keep landing.
#[test]
fn scripted_read_eio_faults_degrade_then_reattach_the_watch_store() {
    let dir = std::env::temp_dir().join(format!("rx-watch-eio-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fs = FaultyFs::new(FsFaultPlan::Scripted(
        (0..4096)
            .map(|n| (FsOp::Read, n, FsFault::ReadEio))
            .collect(),
    ));
    fs.heal(); // start with a healthy disk; `unheal` arms the schedule
    degrade_and_reattach(&fs, &dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A disk whose every *fsync* fails must likewise degrade and re-attach:
/// reads stay fine, but every framed write (head records, probe entries)
/// loses its durability barrier and is rolled back.
#[test]
fn scripted_fsync_faults_degrade_then_reattach_the_watch_store() {
    let dir = std::env::temp_dir().join(format!("rx-watch-fsync-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fs = FaultyFs::new(FsFaultPlan::Scripted(
        (0..4096)
            .map(|n| (FsOp::Sync, n, FsFault::SyncFail))
            .collect(),
    ));
    fs.heal();
    degrade_and_reattach(&fs, &dir);
    let _ = std::fs::remove_dir_all(&dir);
}
