//! Integration tests for the deterministic simulator: byte-identical
//! traces, jobs-independence of the swarm, scenario smoke coverage, and
//! the inject → shrink → repro.json → replay pipeline.

use reflex_sim::{repro, shrink, swarm, Scenario, Sim, SimConfig, ViolationKind};

/// Every scenario, same seed, run twice: the traces must be
/// byte-identical (this is the simulator's core contract).
#[test]
fn same_seed_reproduces_a_byte_identical_trace() {
    for scenario in Scenario::ALL {
        let mut config = SimConfig::new(scenario, 7);
        // Keep runs quick; determinism does not need many steps.
        config.steps = config.steps.min(4);
        if scenario == Scenario::Soak {
            config.steps = 40;
        }
        let first = Sim::run(&config);
        let second = Sim::run(&config);
        assert_eq!(
            first.trace_text(),
            second.trace_text(),
            "{scenario}: traces must be byte-identical"
        );
        assert_eq!(first.trace_fingerprint, second.trace_fingerprint);
        assert_eq!(first.violation, second.violation);
    }
}

/// The default configurations must run clean: the stack's robustness
/// invariants hold under the seeded fault schedules.
#[test]
fn default_scenarios_run_clean() {
    for scenario in [Scenario::Chaos, Scenario::Watch, Scenario::ScaleEdits] {
        let mut config = SimConfig::new(scenario, 3);
        config.steps = 3;
        let outcome = Sim::run(&config);
        assert_eq!(
            outcome.violation,
            None,
            "{scenario}: expected a clean run, got: {:?}\ntrace:\n{}",
            outcome.violation,
            outcome.trace_text()
        );
        assert_eq!(outcome.steps_run, 3, "{scenario}");
    }
    let mut config = SimConfig::new(Scenario::Soak, 3);
    config.steps = 40;
    let outcome = Sim::run(&config);
    assert_eq!(outcome.violation, None, "soak: {}", outcome.trace_text());
}

/// The swarm's report must be identical at one worker and at eight —
/// parallelism across seeds must never leak into the results.
#[test]
fn swarm_results_are_identical_across_job_counts() {
    let run = |jobs: usize| {
        let cfg = swarm::SwarmConfig {
            scenarios: vec![Scenario::Watch, Scenario::ScaleEdits],
            seeds: (0..4).collect(),
            steps: Some(2),
            jobs,
            ..swarm::SwarmConfig::default()
        };
        swarm::run_swarm(&cfg)
    };
    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial.swarm_fingerprint(), parallel.swarm_fingerprint());
    assert_eq!(serial.runs.len(), parallel.runs.len());
    for (a, b) in serial.runs.iter().zip(&parallel.runs) {
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.trace_fingerprint, b.trace_fingerprint);
        assert_eq!(a.violation, b.violation);
    }
    assert_eq!(
        swarm::render_swarm_json(&serial),
        swarm::render_swarm_json(&parallel),
        "the rendered bench document must be jobs-independent"
    );
}

/// A seeded injected violation must be detected, shrunk to the minimal
/// step prefix, serialized as repro.json, and replayed bit-identically.
#[test]
fn injected_violation_shrinks_and_replays() {
    let mut config = SimConfig::new(Scenario::ScaleEdits, 11);
    config.steps = 5;
    config.inject_violation_at = Some(2);

    let outcome = Sim::run(&config);
    let violation = outcome.violation.clone().expect("the injection must fire");
    assert_eq!(violation.kind, ViolationKind::Injected);
    assert_eq!(violation.step, 2);
    assert_eq!(outcome.steps_run, 2, "the run stops at the violation");

    // Shrink: steps 5 -> 3 (the minimal prefix reaching step 2), and
    // no fault stream is needed to reproduce an injected violation.
    let shrunk = shrink::shrink(&config, &violation);
    assert_eq!(shrunk.minimized.steps, 3);
    assert_eq!(shrunk.violation.kind, ViolationKind::Injected);
    assert!(
        !shrunk.minimized.stream_enabled("fs")
            && !shrunk.minimized.stream_enabled("world")
            && !shrunk.minimized.stream_enabled("panic"),
        "an injected violation needs no fault stream: {:?}",
        shrunk.minimized.disabled
    );

    // Repro: render -> parse round-trips, and the replay reproduces the
    // minimized run bit for bit.
    let minimized_outcome = Sim::run(&shrunk.minimized);
    let record = repro::Repro::of(&minimized_outcome);
    let text = repro::render(&record);
    let parsed = repro::parse(&text).expect("repro.json parses");
    assert_eq!(parsed, record);
    let verdict = parsed.replay();
    assert!(verdict.violation_matches, "violation must replay");
    assert!(verdict.trace_matches, "trace must replay bit-identically");
    assert!(verdict.reproduced());

    // And through a file, as `rx sim replay FILE` does it.
    let path = std::env::temp_dir().join(format!("rx-sim-test-repro-{}.json", std::process::id()));
    std::fs::write(&path, &text).expect("repro file writes");
    let verdict = repro::replay_file(&path).expect("repro file replays");
    assert!(verdict.reproduced());
    let _ = std::fs::remove_file(&path);
}

/// The chaos scenario rots a landed segment on every seed, so the scrub
/// always has damage to quarantine and the quarantine-escape check is
/// never vacuous; and the recorded session's browser edits reach the
/// reuse ladder's per-case splice rung under the faults. (A seeded panic
/// can crash the one property the splice would patch, as on seeds 11 and
/// 38; none of these seeds does.)
#[test]
fn chaos_rot_is_quarantined_and_the_splice_rung_fires_on_every_seed() {
    for seed in 0..8 {
        let outcome = Sim::run(&SimConfig::new(Scenario::Chaos, seed));
        let trace = outcome.trace_text();
        assert_eq!(outcome.violation, None, "seed {seed}:\n{trace}");
        let scrub = outcome
            .trace
            .iter()
            .find(|line| line.starts_with("chaos scrub "))
            .unwrap_or_else(|| panic!("seed {seed}: no scrub record\n{trace}"));
        assert!(scrub.contains(" corrupted=1 "), "seed {seed}: {scrub}");
        let quarantined: usize = scrub
            .split(" quarantined=")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("seed {seed}: {scrub}"));
        assert!(quarantined >= 1, "seed {seed}: {scrub}");
        assert!(
            outcome.trace.iter().any(
                |line| line.contains(" chaos kernel=browser ") && !line.contains(" partial=0 ")
            ),
            "seed {seed}: no per-case splice\n{trace}"
        );
    }
}

/// Disabling a fault stream changes the run (the trace head records
/// it) but a clean scenario stays clean.
#[test]
fn disabled_streams_zero_their_faults() {
    let mut config = SimConfig::new(Scenario::Chaos, 5);
    config.steps = 2;
    config.disabled = vec!["fs".to_owned(), "panic".to_owned()];
    let outcome = Sim::run(&config);
    assert_eq!(outcome.violation, None, "{}", outcome.trace_text());
    assert!(
        outcome.trace[0].contains("fs_ppm=0") && outcome.trace[0].contains("panic_ppm=0"),
        "{}",
        outcome.trace[0]
    );
    for line in &outcome.trace {
        if line.contains("faults=") {
            assert!(line.contains("faults=0"), "no fs faults may fire: {line}");
        }
    }
}

/// Scenario and violation labels round-trip through their parsers (the
/// repro format depends on this).
#[test]
fn labels_round_trip() {
    for scenario in Scenario::ALL {
        assert_eq!(Scenario::parse(scenario.label()), Some(scenario));
    }
    for kind in [
        ViolationKind::Abort,
        ViolationKind::CertMismatch,
        ViolationKind::QuarantineEscape,
        ViolationKind::Unrecovered,
        ViolationKind::MonitorAlarm,
        ViolationKind::CompactionLoss,
        ViolationKind::Starvation,
        ViolationKind::RestartLoss,
        ViolationKind::LostReply,
        ViolationKind::DuplicateWork,
        ViolationKind::Stall,
        ViolationKind::Injected,
    ] {
        assert_eq!(ViolationKind::parse(kind.label()), Some(kind));
    }
}
