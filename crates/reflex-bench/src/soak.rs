//! Long-horizon soak testing of the supervised runtime.
//!
//! One kernel is driven for a configurable number of exchanges under a
//! randomized (but fully deterministic) fault plan: external-call
//! failures and timeouts, component crashes, message drop/duplication/
//! reordering. The supervisor must recover from all of it, the runtime
//! monitor must find no certificate violation, and — after a cooldown
//! with fault injection disarmed — no component may remain down.
//!
//! The simulator's `soak` scenario soaks every bundled kernel plus a
//! generated one this way, and `rx run --faults/--supervise/--monitor`
//! drives a user kernel with the same workload. Outcomes carry 64-bit
//! fingerprints of the committed trace and the incident log, so
//! determinism tests can assert byte-identical behavior across seeds and
//! processes without shipping whole traces around.

use rand::RngExt;
use reflex_rng::SimRng;

use reflex_ast::fingerprint::FpHasher;
use reflex_ast::{CompId, Fdesc, Ty, Value};
use reflex_runtime::{
    render_incident_log, EmptyWorld, FaultPlan, RetryPolicy, SupStep, Supervisor, SupervisorConfig,
};
use reflex_trace::Msg;

/// Soak parameters.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Committed/recovered exchanges to drive per kernel (excluding the
    /// cooldown phase).
    pub steps: usize,
    /// Global seed; per-kernel seeds are derived from it and the kernel's
    /// index, so each kernel's outcome is independent of the others.
    pub seed: u64,
    /// Per-exchange probability of one injected fault operation.
    pub fault_rate: f64,
    /// Per-attempt probability of a spontaneous external-call fault.
    pub world_fault_rate: f64,
    /// Re-check certificates online with the runtime monitor.
    pub monitor: bool,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            steps: 10_000,
            seed: 1,
            fault_rate: 0.01,
            world_fault_rate: 0.02,
            monitor: true,
        }
    }
}

/// The outcome of soaking one kernel.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// Kernel name.
    pub kernel: String,
    /// Exchanges committed or recovered (excluding cooldown).
    pub steps: usize,
    /// Messages injected by the workload driver.
    pub injected: usize,
    /// Final committed trace length.
    pub trace_len: usize,
    /// FNV-1a fingerprint of the rendered trace.
    pub trace_fingerprint: u64,
    /// FNV-1a fingerprint of the rendered incident log.
    pub incident_fingerprint: u64,
    /// Total incidents.
    pub incidents: usize,
    /// The rendered incident log (one line per incident).
    pub incident_log: String,
    /// Components still crashed after the cooldown (must be 0).
    pub unrecovered: usize,
    /// Monitor or unrecoverable runtime error, if any (must be `None`).
    pub failure: Option<String>,
}

/// SplitMix64-style derivation of per-kernel seeds from the global seed —
/// [`reflex_rng::stream_u64`] at position `index + 1`, exactly the
/// scramble this module used to inline, so recorded soak seeds keep their
/// per-kernel schedules.
fn derive_seed(seed: u64, index: usize) -> u64 {
    reflex_rng::stream_u64(seed, index as u64 + 1)
}

/// Messages the workload driver may inject for each component type:
/// `(ctype, handled message decls as (name, payload))`.
type Catalog = Vec<(String, Vec<(String, Vec<Ty>)>)>;

fn build_catalog(checked: &reflex_typeck::CheckedProgram) -> Catalog {
    let program = checked.program();
    program
        .components
        .iter()
        .map(|c| {
            let msgs = program
                .messages
                .iter()
                .filter(|m| program.handler(&c.name, &m.name).is_some())
                .map(|m| (m.name.clone(), m.payload.clone()))
                .collect();
            (c.name.clone(), msgs)
        })
        .collect()
}

const STR_POOL: [&str; 4] = ["", "a", "b", "x"];

fn random_payload(rng: &mut SimRng, tys: &[Ty], comps: &[CompId]) -> Vec<Value> {
    tys.iter()
        .map(|ty| match ty {
            Ty::Bool => Value::Bool(rng.random_bool(0.5)),
            Ty::Num => Value::Num(rng.random_range(0..4i64)),
            Ty::Str => Value::from(STR_POOL[rng.random_range(0..STR_POOL.len())]),
            Ty::Fdesc => Value::Fdesc(Fdesc::new(rng.random_range(0..8u64))),
            Ty::Comp => Value::Comp(comps[rng.random_range(0..comps.len())]),
        })
        .collect()
}

/// Soaks one checked program under a randomized fault plan derived from
/// `cfg.seed` and `index` (its position in the caller's kernel list).
/// Fully deterministic: the same `(program, cfg, index)` yields the same
/// fingerprints, on any machine.
pub fn soak_program(
    name: &str,
    checked: &reflex_typeck::CheckedProgram,
    cfg: &SoakConfig,
    index: usize,
) -> SoakOutcome {
    soak_program_with_plan(name, checked, cfg, index, None)
}

/// [`soak_program`] with an explicit fault plan (e.g. one parsed from a
/// `--faults` specification) instead of the randomized plan derived from
/// the config's seed and fault rate.
pub fn soak_program_with_plan(
    name: &str,
    checked: &reflex_typeck::CheckedProgram,
    cfg: &SoakConfig,
    index: usize,
    plan: Option<FaultPlan>,
) -> SoakOutcome {
    let seed = derive_seed(cfg.seed, index);
    let catalog = build_catalog(checked);
    let plan =
        plan.unwrap_or_else(|| FaultPlan::random(seed ^ 0xFA17_71A4_0000_0001, cfg.fault_rate));
    let config = SupervisorConfig {
        retry: RetryPolicy::attempts(4),
        monitor: cfg.monitor,
        world_fault_rate: cfg.world_fault_rate,
        ..SupervisorConfig::default()
    };
    let mut sup = match Supervisor::new(
        checked,
        reflex_runtime::Registry::new(),
        Box::new(EmptyWorld),
        seed,
        plan,
        config,
    ) {
        Ok(sup) => sup,
        Err(e) => {
            return SoakOutcome {
                kernel: name.to_owned(),
                steps: 0,
                injected: 0,
                trace_len: 0,
                trace_fingerprint: 0,
                incident_fingerprint: 0,
                incidents: 0,
                incident_log: String::new(),
                unrecovered: 0,
                failure: Some(e.to_string()),
            }
        }
    };
    let mut rng = SimRng::new(seed ^ 0x10AD_6E4E_8A70_12D3);

    let mut injected = 0usize;
    let mut serviced = 0usize;
    let mut failure = None;

    // Main phase: inject one plausible message, service one exchange.
    // The iteration bound guards against a (hypothetical) livelock where
    // every injected message lands on a crashed component.
    let max_iterations = cfg.steps * 4 + 1024;
    let mut iterations = 0usize;
    while serviced < cfg.steps && iterations < max_iterations && failure.is_none() {
        iterations += 1;
        inject_one(&mut sup, &catalog, &mut rng, &mut injected, &mut failure);
        if failure.is_some() {
            break;
        }
        match sup.step() {
            Ok(SupStep::Idle) => {}
            Ok(_) => serviced += 1,
            Err(e) => failure = Some(e.to_string()),
        }
    }

    // Cooldown: stop injecting faults and keep serving until every
    // crashed component has been restarted (the restart-intensity window
    // is at most `restart_window` exchanges wide, plus slack for the
    // quarantine decisions themselves).
    sup.disarm();
    let mut cooldown = 0usize;
    while failure.is_none()
        && !sup.interpreter().crashed_components().is_empty()
        && cooldown < SupervisorConfig::default().restart_window + 64
    {
        cooldown += 1;
        inject_one(&mut sup, &catalog, &mut rng, &mut injected, &mut failure);
        if failure.is_some() {
            break;
        }
        match sup.step() {
            Ok(_) => {}
            Err(e) => failure = Some(e.to_string()),
        }
    }

    let mut trace_fp = FpHasher::new();
    for act in sup.trace().actions() {
        trace_fp.write(act.to_string().as_bytes());
        trace_fp.write(b"\n");
    }
    let incidents = sup.take_incidents();
    let incident_log = render_incident_log(&incidents);
    let mut incident_fp = FpHasher::new();
    incident_fp.write(incident_log.as_bytes());

    SoakOutcome {
        kernel: name.to_owned(),
        steps: serviced,
        injected,
        trace_len: sup.trace().len(),
        trace_fingerprint: trace_fp.finish().0,
        incident_fingerprint: incident_fp.finish().0,
        incidents: incidents.len(),
        incident_log,
        unrecovered: sup.interpreter().crashed_components().len(),
        failure,
    }
}

fn inject_one(
    sup: &mut Supervisor,
    catalog: &Catalog,
    rng: &mut SimRng,
    injected: &mut usize,
    failure: &mut Option<String>,
) {
    let comps: Vec<(CompId, String)> = sup
        .interpreter()
        .components()
        .iter()
        .map(|c| (c.id, c.ctype.clone()))
        .collect();
    if comps.is_empty() {
        return;
    }
    let ids: Vec<CompId> = comps.iter().map(|(id, _)| *id).collect();
    let (comp, ctype) = &comps[rng.random_range(0..comps.len())];
    let Some((_, msgs)) = catalog.iter().find(|(c, _)| c == ctype) else {
        return;
    };
    if msgs.is_empty() {
        return;
    }
    let (name, payload) = &msgs[rng.random_range(0..msgs.len())];
    let msg = Msg::new(name.clone(), random_payload(rng, payload, &ids));
    match sup.inject(*comp, msg) {
        Ok(()) => *injected += 1,
        Err(e) => *failure = Some(e.to_string()),
    }
}
