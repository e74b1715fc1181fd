//! Integration tests for the supervised-runtime soak engine:
//! determinism of fault injection and recovery, transparency of the
//! runtime monitor, and the monitor's ability to catch a real
//! (deliberately introduced) supervision-visible kernel bug.

use reflex_bench::soak::{soak_program, SoakConfig};
use reflex_kernels::all_benchmarks;
use reflex_runtime::{
    EmptyWorld, FaultPlan, MonitorError, Registry, SupStep, Supervisor, SupervisorConfig,
    SupervisorError,
};
use reflex_trace::Msg;

/// Soaks every bundled kernel under `cfg` (each at its position in the
/// kernel list, as the simulator's soak scenario does) and returns each
/// kernel's trace and incident-log fingerprints.
fn fingerprints(cfg: &SoakConfig) -> Vec<(String, u64, u64)> {
    all_benchmarks()
        .iter()
        .enumerate()
        .map(|(index, bench)| {
            let o = soak_program(bench.name, &(bench.checked)(), cfg, index);
            assert!(o.failure.is_none(), "{}: {:?}", o.kernel, o.failure);
            assert_eq!(o.unrecovered, 0, "{}: components left crashed", o.kernel);
            (o.kernel, o.trace_fingerprint, o.incident_fingerprint)
        })
        .collect()
}

#[test]
fn soak_is_deterministic_across_runs() {
    let base = SoakConfig {
        steps: 250,
        seed: 11,
        ..SoakConfig::default()
    };
    let first = fingerprints(&base);
    assert_eq!(
        first,
        fingerprints(&base),
        "repeat runs must be byte-identical"
    );
    // And a different seed must actually change the executions.
    let reseeded = fingerprints(&SoakConfig { seed: 12, ..base });
    assert_ne!(first, reseeded, "the seed must matter");
}

#[test]
fn monitor_is_transparent_to_the_execution() {
    // The monitor is a pure observer: switching it off must not change
    // the committed trace or the incident log of any kernel.
    let monitored = SoakConfig {
        steps: 250,
        seed: 5,
        monitor: true,
        ..SoakConfig::default()
    };
    let unmonitored = SoakConfig {
        monitor: false,
        ..monitored
    };
    assert_eq!(fingerprints(&monitored), fingerprints(&unmonitored));
}

#[test]
fn every_kernel_survives_a_hostile_fault_schedule() {
    // Much higher fault rates than the default soak: roughly one injected
    // fault op every three exchanges plus frequent spontaneous call
    // faults. Everything must still recover and stay certified.
    let cfg = SoakConfig {
        steps: 300,
        seed: 3,
        fault_rate: 0.3,
        world_fault_rate: 0.2,
        monitor: true,
    };
    for (i, bench) in all_benchmarks().iter().enumerate() {
        let o = soak_program(bench.name, &(bench.checked)(), &cfg, i);
        assert!(o.failure.is_none(), "{}: {:?}", o.kernel, o.failure);
        assert_eq!(o.unrecovered, 0, "{}: components left crashed", o.kernel);
        assert!(
            o.incidents > 0,
            "{}: hostile schedule never fired",
            o.kernel
        );
    }
}

/// The acceptance scenario from the issue: delete the `crashed = true;`
/// latch from the car kernel's `Engine:Crash()` handler, so a later
/// `Radio:LockReq()` re-locks the doors after a crash — violating the
/// verified property `NoLockAfterCrash: [Recv(Engine(), Crash())]
/// Disables [Send(Doors(), Lock())]`. The runtime monitor must halt the
/// supervised run and report the index of the forbidden `Lock` send.
#[test]
fn monitor_catches_a_property_violating_handler_mutation() {
    let benches = all_benchmarks();
    let car = benches.iter().find(|b| b.name == "car").expect("bundled");
    assert!(car.source.contains("crashed = true;"), "latch moved?");
    let mutated = car.source.replace("crashed = true;", "");
    let program = reflex_parser::parse_program("car_mutated", &mutated).expect("parses");
    let checked = reflex_typeck::check(&program).expect("well-formed");

    let drive = |checked: &reflex_typeck::CheckedProgram| {
        let mut sup = Supervisor::new(
            checked,
            Registry::new(),
            Box::new(EmptyWorld),
            0,
            FaultPlan::none(),
            SupervisorConfig::default(),
        )
        .expect("boots");
        let engine = sup.interpreter().components_of("Engine")[0].id;
        let radio = sup.interpreter().components_of("Radio")[0].id;
        sup.inject(engine, Msg::new("Crash", [])).unwrap();
        assert!(matches!(sup.step().unwrap(), SupStep::Serviced(_)));
        sup.inject(radio, Msg::new("LockReq", [])).unwrap();
        let committed = sup.trace().len();
        (sup.step(), committed)
    };

    // The intact kernel serves the same workload without complaint...
    let intact = reflex_typeck::check(&(car.program)()).expect("well-formed");
    let (ok, _) = drive(&intact);
    assert!(matches!(ok, Ok(SupStep::Serviced(_))), "{ok:?}");

    // ...the mutated one is halted by the monitor at the forbidden send.
    let (err, committed) = drive(&checked);
    let err = match err {
        Err(SupervisorError::Monitor(e)) => e,
        other => panic!("expected a monitor violation, got {other:?}"),
    };
    match &err {
        MonitorError::Property { name, .. } => assert_eq!(name, "NoLockAfterCrash"),
        other => panic!("expected a property violation, got {other:?}"),
    }
    // The violating exchange appends Select, Recv(LockReq), Send(Lock):
    // the forbidden Lock lands two actions past the committed prefix.
    assert_eq!(err.action_index(), Some(committed + 2), "{err}");
}
