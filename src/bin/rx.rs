//! `rx` — the Reflex command-line frontend.
//!
//! ```text
//! rx check   FILE             parse and type-check a kernel
//! rx verify  FILE [PROP]      prove all (or one) of its properties
//! rx watch   FILE             re-verify on every change, reusing proofs
//! rx falsify FILE PROP        search for a concrete counterexample
//! rx explain FILE PROP        print the discovered proof's structure
//! rx show    FILE             pretty-print the kernel and its statistics
//! rx run     FILE [N [SEED]]  boot the kernel and run up to N exchanges
//! rx sim     run              drive one deterministic whole-stack scenario
//! rx sim     swarm            fan a seed range across every scenario (CI)
//! rx sim     replay FILE      re-execute a repro.json bit for bit
//! rx store   scrub DIR [FILE] validate a proof store, quarantining bad entries
//! rx store   compact DIR      rewrite live entries into fresh segments
//! rx store   migrate DIR      fold older store layouts into the log
//! rx store   stat DIR         entry/head/segment counts and index cost
//! rx gen     PRESET           emit a deterministic synthetic kernel
//! rx bench   store            flat vs log-structured store throughput
//! rx client  ACTION           talk to a running rxd daemon
//! ```
//!
//! Every verifying subcommand is a thin client of the resident service
//! core ([`reflex::service::ServiceCore`]): `rx check`, `rx verify` and
//! `rx watch` boot an in-process core and run as its client, so a local
//! one-shot run and a request served by a long-lived `rxd` daemon take
//! the same code path (and produce byte-identical certificates).
//! `rx verify --store DIR` and `rx watch --store DIR` persist proof
//! certificates into a content-addressed store,
//! `--budget-ms`/`--budget-nodes` bound the whole session (a stuck
//! property reports a timeout instead of hanging), and
//! `--trace-json PATH` streams the session's structured stage/property
//! events as JSON lines. `rx client ACTION --socket PATH | --tcp ADDR`
//! sends the same requests to an already-running `rxd`.
//!
//! `rx run` accepts `--faults SPEC --supervise --monitor` to run the
//! kernel under the supervised runtime with deterministic fault
//! injection. `rx store scrub` audits a store directory in place. `rx sim`
//! drives the deterministic simulator, the one robustness engine: its
//! `soak` scenario runs every bundled kernel the way `rx run --faults`
//! runs one, and its `chaos` scenario replays the recorded edit session
//! with the proof store on a seeded faulty filesystem, checking the
//! robustness invariants (no aborts, no wrong reuse, no quarantine
//! escapes). One root seed drives every fault stream through a virtual
//! clock, every run leaves a replayable trace, and violations are
//! auto-shrunk into `repro.json` files `rx sim replay` re-executes.
//!
//! Exit codes: 0 success, 1 the kernel/properties have problems,
//! 2 usage errors.

use std::process::ExitCode;
use std::sync::Arc;

use reflex::bench::soak::{soak_program_with_plan, SoakConfig};
use reflex::cli::{self, FlagSpec};
use reflex::driver::{
    json_string, load_program, Instrument, JsonLinesSink, NullSink, SessionConfig, SessionError,
    VerifySession,
};
use reflex::runtime::{EmptyWorld, FaultPlan, Interpreter, Registry};
use reflex::service::{
    Client, ClientError, Endpoint, Reply, Request, RetryPolicy, RetryingClient, ServiceConfig,
    ServiceCore, ServiceError, StatsSnapshot,
};
use reflex::typeck::CheckedProgram;
use reflex::verify::{falsify, FalsifyOptions, ProverOptions};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  rx check   FILE\n  rx verify  FILE [PROP] [--jobs N] [--stats] [--json] [--store DIR]\n             [--trace-json PATH] [--budget-ms MS] [--budget-nodes N]\n  rx watch   FILE [--jobs N] [--store DIR] [--strict-store] [--interval MS]\n             [--iterations N] [--budget-ms MS] [--budget-nodes N]\n  rx falsify FILE PROP\n  rx explain FILE PROP\n  rx show    FILE\n  rx run     FILE [STEPS [SEED]] [--faults SPEC] [--supervise] [--monitor]\n  rx sim     run [--scenario NAME] [--seed N] [--steps K] [--inject-at K]\n  rx sim     swarm [--seeds A..B] [--scenario NAME] [--steps K] [--jobs N]\n             [--json] [--repro-dir DIR]\n  rx sim     replay FILE\n  rx store   scrub|compact DIR [FILE] [--json]\n  rx store   migrate|stat DIR [--json]\n  rx gen     [PRESET] [--seed N] [--variant V] [--out PATH] [--check]\n  rx bench   store [--entries N] [--lookups N] [--seed N] [--json]\n  rx client  ping|stats|shutdown|check FILE|verify FILE [PROP]\n             (--socket PATH | --tcp ADDR) [--json] [--stats]\n             [--budget-ms MS] [--budget-nodes N] [--deadline-ms MS]\n             [--trace-json PATH] [--retries N] [--retry-base-ms MS]\n             [--retry-seed N]\n\nrun `rx SUBCOMMAND --help` is not supported; each subcommand reports its\nown flags on a usage error."
    );
    ExitCode::from(2)
}

/// Prints a subcommand-specific usage error (bad flag, bad arity, bad
/// value) with the subcommand's synopsis and flag table.
fn usage_error(cmd: &str, synopsis: &str, flags: &[FlagSpec], message: &str) -> ExitCode {
    eprint!(
        "rx {cmd}: {message}\nusage: rx {cmd} {synopsis}\n{}",
        cli::render_flag_help(flags)
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => return usage(),
    };
    let spec: &CommandSpec = match COMMANDS.iter().find(|s| s.name == cmd) {
        Some(s) => s,
        None => return usage(),
    };
    let parsed = match cli::parse(spec.flags, rest) {
        Ok(p) => p,
        Err(e) => return usage_error(spec.name, spec.synopsis, spec.flags, &e),
    };
    match (spec.run)(&parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(e)) => usage_error(spec.name, spec.synopsis, spec.flags, &e),
        Err(CliError::Run(e)) => {
            eprintln!("rx: {e}");
            ExitCode::FAILURE
        }
        Err(CliError::Retry(e)) => {
            eprintln!("rx: {e} (retryable; try again)");
            ExitCode::from(3)
        }
    }
}

/// How a subcommand run can fail: a usage problem (exit 2, with the
/// subcommand's flag help), a fatal runtime failure (exit 1), or a
/// transient failure worth retrying — daemon busy/overloaded, transport
/// lost — (exit 3, so scripts can distinguish "try later" from
/// "broken").
enum CliError {
    Usage(String),
    Run(String),
    Retry(String),
}

impl CliError {
    fn run(e: impl std::fmt::Display) -> CliError {
        CliError::Run(e.to_string())
    }
}

/// One subcommand: its flag table, synopsis and entry point.
struct CommandSpec {
    name: &'static str,
    synopsis: &'static str,
    flags: &'static [FlagSpec],
    run: fn(&cli::Parsed) -> Result<(), CliError>,
}

const NO_FLAGS: &[FlagSpec] = &[];

const VERIFY_FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--jobs",
        value: Some("N"),
        help: "N proof threads in total (0: one per CPU)",
    },
    FlagSpec {
        name: "--stats",
        value: None,
        help: "print prover counters (paths, caches, solver, timing)",
    },
    FlagSpec {
        name: "--json",
        value: None,
        help: "print the session report as one JSON document",
    },
    FlagSpec {
        name: "--store",
        value: Some("DIR"),
        help: "persist certificates in a content-addressed proof store",
    },
    FlagSpec {
        name: "--trace-json",
        value: Some("PATH"),
        help: "stream per-stage/per-property events to PATH as JSON lines",
    },
    FlagSpec {
        name: "--budget-ms",
        value: Some("MS"),
        help: "wall-clock budget for the whole session (reports timeouts)",
    },
    FlagSpec {
        name: "--budget-nodes",
        value: Some("N"),
        help: "explored-path budget for the whole session",
    },
];

const WATCH_FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--jobs",
        value: Some("N"),
        help: "N proof threads in total (0: one per CPU)",
    },
    FlagSpec {
        name: "--store",
        value: Some("DIR"),
        help: "reuse certificates across restarts through a proof store",
    },
    FlagSpec {
        name: "--strict-store",
        value: None,
        help: "fail instead of starting degraded when the store won't open",
    },
    FlagSpec {
        name: "--interval",
        value: Some("MS"),
        help: "change-poll interval (default 200)",
    },
    FlagSpec {
        name: "--iterations",
        value: Some("N"),
        help: "stop after N verifications (default: run forever)",
    },
    FlagSpec {
        name: "--budget-ms",
        value: Some("MS"),
        help: "wall-clock budget per iteration's session",
    },
    FlagSpec {
        name: "--budget-nodes",
        value: Some("N"),
        help: "explored-path budget per iteration's session",
    },
];

const RUN_FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--faults",
        value: Some("SPEC"),
        help: "deterministic fault plan: none | random:RATE | STEP:OP;...",
    },
    FlagSpec {
        name: "--supervise",
        value: None,
        help: "run under the supervisor (implied by --faults)",
    },
    FlagSpec {
        name: "--monitor",
        value: None,
        help: "re-check certificates online (implies --supervise)",
    },
];

const SIM_FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--scenario",
        value: Some("NAME"),
        help: "chaos | watch | soak | scale-edits | compaction-race | client-storm \
               | daemon-crash-restart | net-partition | slow-client (swarm default: all)",
    },
    FlagSpec {
        name: "--seed",
        value: Some("N"),
        help: "root seed for `sim run` (default 0)",
    },
    FlagSpec {
        name: "--seeds",
        value: Some("A..B"),
        help: "seed range for `sim swarm` (default 0..16)",
    },
    FlagSpec {
        name: "--steps",
        value: Some("K"),
        help: "scenario steps per run (default: per-scenario)",
    },
    FlagSpec {
        name: "--fs-rate",
        value: Some("PPM"),
        help: "store-filesystem fault rate, parts per million (default 50000)",
    },
    FlagSpec {
        name: "--panic-rate",
        value: Some("PPM"),
        help: "prover panic-injection rate, parts per million (default 20000)",
    },
    FlagSpec {
        name: "--inject-at",
        value: Some("K"),
        help: "deliberately violate an invariant at step K (shrink/replay demo)",
    },
    FlagSpec {
        name: "--jobs",
        value: Some("N"),
        help: "swarm worker threads (0: one per CPU; results are identical)",
    },
    FlagSpec {
        name: "--json",
        value: None,
        help: "for `sim swarm`: also write BENCH_sim.json",
    },
    FlagSpec {
        name: "--repro-dir",
        value: Some("DIR"),
        help: "for `sim swarm`: write repro-*.json for violating runs into DIR",
    },
];

const GEN_FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--seed",
        value: Some("N"),
        help: "generator seed (default 1)",
    },
    FlagSpec {
        name: "--variant",
        value: Some("V"),
        help: "append V deterministic edit variants (default 0: base kernel)",
    },
    FlagSpec {
        name: "--out",
        value: Some("PATH"),
        help: "write the kernel to PATH instead of stdout",
    },
    FlagSpec {
        name: "--check",
        value: None,
        help: "parse and type-check the generated kernel before emitting",
    },
];

const STORE_FLAGS: &[FlagSpec] = &[FlagSpec {
    name: "--json",
    value: None,
    help: "print the stat/scrub report as JSON instead of text",
}];

const BENCH_FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--seed",
        value: Some("N"),
        help: "certificate generator seed (default 1)",
    },
    FlagSpec {
        name: "--json",
        value: None,
        help: "also write BENCH_store.json",
    },
    FlagSpec {
        name: "--entries",
        value: Some("N"),
        help: "certificates to write (default 100000)",
    },
    FlagSpec {
        name: "--lookups",
        value: Some("N"),
        help: "warm lookups to time (default 200000)",
    },
];

const CLIENT_FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--socket",
        value: Some("PATH"),
        help: "connect to the daemon's unix socket at PATH",
    },
    FlagSpec {
        name: "--tcp",
        value: Some("ADDR"),
        help: "connect to the daemon at a TCP address, e.g. 127.0.0.1:7171",
    },
    FlagSpec {
        name: "--stats",
        value: None,
        help: "for verify: print prover counters from the daemon's report",
    },
    FlagSpec {
        name: "--json",
        value: None,
        help: "print the report (verify) or counters (stats) as JSON",
    },
    FlagSpec {
        name: "--trace-json",
        value: Some("PATH"),
        help: "for verify: stream the daemon's events to PATH as JSON lines",
    },
    FlagSpec {
        name: "--budget-ms",
        value: Some("MS"),
        help: "for verify: wall-clock budget (the daemon may clamp it)",
    },
    FlagSpec {
        name: "--budget-nodes",
        value: Some("N"),
        help: "for verify: explored-path budget (the daemon may clamp it)",
    },
    FlagSpec {
        name: "--deadline-ms",
        value: Some("MS"),
        help: "for verify: whole-request deadline; expiry yields a typed reply",
    },
    FlagSpec {
        name: "--retries",
        value: Some("N"),
        help: "retry transient failures up to N times (default 3; 0 disables)",
    },
    FlagSpec {
        name: "--retry-base-ms",
        value: Some("MS"),
        help: "first-retry backoff, doubling per retry, capped at 1000 (default 25)",
    },
    FlagSpec {
        name: "--retry-seed",
        value: Some("N"),
        help: "seed for the deterministic backoff jitter and idempotency keys",
    },
];

const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "check",
        synopsis: "FILE",
        flags: NO_FLAGS,
        run: cmd_check,
    },
    CommandSpec {
        name: "verify",
        synopsis: "FILE [PROP]",
        flags: VERIFY_FLAGS,
        run: cmd_verify,
    },
    CommandSpec {
        name: "watch",
        synopsis: "FILE",
        flags: WATCH_FLAGS,
        run: cmd_watch,
    },
    CommandSpec {
        name: "falsify",
        synopsis: "FILE PROP",
        flags: NO_FLAGS,
        run: cmd_falsify,
    },
    CommandSpec {
        name: "explain",
        synopsis: "FILE PROP",
        flags: NO_FLAGS,
        run: cmd_explain,
    },
    CommandSpec {
        name: "show",
        synopsis: "FILE",
        flags: NO_FLAGS,
        run: cmd_show,
    },
    CommandSpec {
        name: "run",
        synopsis: "FILE [STEPS [SEED]]",
        flags: RUN_FLAGS,
        run: cmd_run,
    },
    CommandSpec {
        name: "sim",
        synopsis: "run | swarm | replay FILE",
        flags: SIM_FLAGS,
        run: cmd_sim,
    },
    CommandSpec {
        name: "store",
        synopsis: "scrub|compact|migrate|stat DIR [FILE]",
        flags: STORE_FLAGS,
        run: cmd_store,
    },
    CommandSpec {
        name: "gen",
        synopsis: "PRESET",
        flags: GEN_FLAGS,
        run: cmd_gen,
    },
    CommandSpec {
        name: "bench",
        synopsis: "store",
        flags: BENCH_FLAGS,
        run: cmd_bench,
    },
    CommandSpec {
        name: "client",
        synopsis: "ping|stats|shutdown|check FILE|verify FILE [PROP]",
        flags: CLIENT_FLAGS,
        run: cmd_client,
    },
];

/// Exactly one positional operand, as a usage-class error otherwise.
fn one_positional<'p>(parsed: &'p cli::Parsed, what: &str) -> Result<&'p str, CliError> {
    match parsed.positional.as_slice() {
        [one] => Ok(one),
        _ => Err(CliError::Usage(format!("expected exactly one {what}"))),
    }
}

fn two_positionals(parsed: &cli::Parsed) -> Result<(&str, &str), CliError> {
    match parsed.positional.as_slice() {
        [file, prop] => Ok((file, prop)),
        _ => Err(CliError::Usage("expected FILE and PROP operands".into())),
    }
}

fn load(path: &str) -> Result<CheckedProgram, CliError> {
    load_program(path).map_err(CliError::run)
}

/// The event sink `--trace-json PATH` selects (a no-op sink otherwise).
/// Shared (`Arc`) because the service core streams events from its
/// worker threads.
fn make_sink(parsed: &cli::Parsed) -> Result<Arc<dyn Instrument + Send>, CliError> {
    match parsed.value("--trace-json") {
        Some(path) => {
            let file =
                std::fs::File::create(path).map_err(|e| CliError::Run(format!("{path}: {e}")))?;
            Ok(Arc::new(JsonLinesSink::new(file)))
        }
        None => Ok(Arc::new(NullSink)),
    }
}

/// Reads a kernel file into (program name, source) the way the service
/// protocol wants it: the program is named after the file stem.
fn read_kernel(path: &str) -> Result<(String, String), CliError> {
    let source =
        std::fs::read_to_string(path).map_err(|e| CliError::Run(format!("{path}: {e}")))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("kernel")
        .to_owned();
    Ok((name, source))
}

/// Boots an in-process [`ServiceCore`], runs `f` as its (only) client,
/// and always shuts the core down — draining queued work and
/// group-committing the proof store — before reporting `f`'s result.
/// This is the tentpole's local path: one-shot commands are clients of
/// the same core `rxd` serves remotely.
fn with_core<T>(
    config: ServiceConfig,
    f: impl FnOnce(&ServiceCore) -> Result<T, CliError>,
) -> Result<T, CliError> {
    let core = ServiceCore::start(config).map_err(CliError::run)?;
    let result = f(&core);
    core.shutdown();
    result
}

/// Renders the one-line `rx check` summary (shared with `rx client
/// check`, whose numbers come back over the wire).
fn render_check(file: &str, s: &reflex::service::CheckSummary) -> String {
    format!(
        "{}: ok ({} component types, {} message types, {} state vars, {} handlers, {} properties)",
        file, s.components, s.messages, s.state_vars, s.handlers, s.properties
    )
}

fn cmd_check(parsed: &cli::Parsed) -> Result<(), CliError> {
    let file = one_positional(parsed, "FILE")?;
    let (name, source) = read_kernel(file)?;
    let summary = with_core(ServiceConfig::default(), |core| {
        match core
            .request(0, Request::Check { name, source }, Arc::new(NullSink))
            .map_err(|e| check_error(file, e))?
        {
            Reply::Checked(summary) => Ok(summary),
            _ => Err(CliError::Run("unexpected reply to check".into())),
        }
    })?;
    println!("{}", render_check(file, &summary));
    Ok(())
}

/// Maps a check failure to the one-shot CLI's historical message shape:
/// parse errors carry the offending path as a prefix.
fn check_error(file: &str, e: ServiceError) -> CliError {
    match e {
        ServiceError::Session(SessionError::Parse(message)) => {
            CliError::Run(format!("{file}: {message}"))
        }
        other => CliError::run(other),
    }
}

fn cmd_verify(parsed: &cli::Parsed) -> Result<(), CliError> {
    let (file, prop) = match parsed.positional.as_slice() {
        [file] => (file.as_str(), None),
        [file, prop] => (file.as_str(), Some(prop.clone())),
        _ => return Err(CliError::Usage("expected FILE and optionally PROP".into())),
    };
    let store_mode = parsed.value("--store").is_some();
    let (name, source) = read_kernel(file)?;
    let request = Request::Verify {
        name,
        source,
        property: prop,
        budget_ms: parsed.get_opt("--budget-ms").map_err(CliError::Usage)?,
        budget_nodes: parsed.get_opt("--budget-nodes").map_err(CliError::Usage)?,
        want_events: false,
        deadline_ms: None,
        idempotency_key: None,
    };
    let config = ServiceConfig {
        store_dir: parsed.value("--store").map(str::to_owned),
        jobs: parsed.get("--jobs", 1).map_err(CliError::Usage)?,
        workers: 1,
        ..ServiceConfig::default()
    };
    let sink = make_sink(parsed)?;
    let report = with_core(config, |core| {
        match core.request(0, request, sink).map_err(CliError::run)? {
            Reply::Verify(report) => Ok(*report),
            _ => Err(CliError::Run("unexpected reply to verify".into())),
        }
    })?;
    render_verify_report(parsed, store_mode, &report)
}

/// Renders a verify report and turns proof failures into the exit-1
/// error, identically for the in-process path and `rx client verify`.
/// With `--json`, stdout is the report's one JSON document and nothing
/// else; a failure's message still goes to stderr.
fn render_verify_report(
    parsed: &cli::Parsed,
    store_mode: bool,
    report: &reflex::driver::SessionReport,
) -> Result<(), CliError> {
    let json = parsed.is_set("--json");
    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_properties());
        if store_mode {
            println!("{}", report.summary());
        }
        if parsed.is_set("--stats") {
            print!("{}", report.render_stats());
        }
    }
    let failures = report.failures();
    if failures > 0 {
        let timeouts = report.timeouts();
        Err(CliError::Run(if timeouts > 0 {
            format!(
                "{failures} propert(y/ies) failed to verify ({timeouts} stopped by the session budget)"
            )
        } else {
            format!("{failures} propert(y/ies) failed to verify")
        }))
    } else {
        if !json {
            println!("all properties verified.");
        }
        Ok(())
    }
}

/// `rx watch FILE`: re-verify on every change to the file, reusing
/// unaffected proofs across iterations (and across restarts with
/// `--store`). The loop runs over an in-process [`ServiceCore`] whose
/// long-lived env owns the store; a store that cannot open starts the
/// loop degraded (in-memory only) unless `--strict-store` makes it
/// fatal.
fn cmd_watch(parsed: &cli::Parsed) -> Result<(), CliError> {
    let file = one_positional(parsed, "FILE")?;
    let interval_ms: u64 = parsed.get("--interval", 200).map_err(CliError::Usage)?;
    let iterations: Option<usize> = parsed.get_opt("--iterations").map_err(CliError::Usage)?;
    let store_dir = parsed.value("--store").map(str::to_owned);
    let config = ServiceConfig {
        store_dir: store_dir.clone(),
        jobs: parsed.get("--jobs", 1).map_err(CliError::Usage)?,
        workers: 1,
        ..ServiceConfig::default()
    };
    // Mirror the historical degraded-start policy: a store that cannot
    // open is fatal only under --strict-store; otherwise the core boots
    // storeless and the watch loop keeps probing for recovery.
    let (core, open_failure) = match ServiceCore::start(config.clone()) {
        Ok(core) => (core, None),
        Err(SessionError::Store { path, message }) if !parsed.is_set("--strict-store") => {
            let memory_config = ServiceConfig {
                store_dir: None,
                ..config
            };
            let core = ServiceCore::start(memory_config).map_err(CliError::run)?;
            (core, Some(format!("store open failed: {path}: {message}")))
        }
        Err(e) => return Err(CliError::run(e)),
    };
    let mut session = core.watch(
        store_dir,
        parsed.get_opt("--budget-ms").map_err(CliError::Usage)?,
        parsed.get_opt("--budget-nodes").map_err(CliError::Usage)?,
    );
    if let Some(reason) = open_failure
        .as_deref()
        .or_else(|| session.degraded_reason())
    {
        eprintln!(
            "rx watch: warning: starting DEGRADED (in-memory caching only): {reason}\n\
             rx watch: will re-attach the store when it becomes healthy \
             (use --strict-store to make this fatal)"
        );
    }
    let result = (|| {
        let mtime = |path: &str| std::fs::metadata(path).and_then(|m| m.modified()).ok();
        let mut last_seen = None;
        let mut iteration = 0usize;
        let mut last_failures;
        loop {
            let stamp = mtime(file);
            let changed = stamp != last_seen;
            if changed || iteration == 0 {
                last_seen = stamp;
                iteration += 1;
                match load_program(file) {
                    Ok(checked) => {
                        let it = session.verify(&checked, &NullSink).map_err(CliError::run)?;
                        last_failures = it.failures();
                        print!("{}", it.report.render_properties());
                        println!("[{iteration}] {}", it.summary());
                    }
                    Err(e) => {
                        // A half-saved file is normal mid-edit: report and
                        // keep watching.
                        last_failures = 1;
                        println!("[{iteration}] {e}");
                    }
                }
                if iterations.is_some_and(|n| iteration >= n) {
                    break;
                }
                println!("watching {file} (ctrl-c to stop)…");
            }
            std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        }
        if last_failures > 0 {
            Err(CliError::Run(format!(
                "{last_failures} propert(y/ies) failed in the last iteration"
            )))
        } else {
            Ok(())
        }
    })();
    core.shutdown();
    result
}

fn cmd_falsify(parsed: &cli::Parsed) -> Result<(), CliError> {
    let (file, prop) = two_positionals(parsed)?;
    let checked = load(file)?;
    if checked.program().property(prop).is_none() {
        return Err(CliError::Run(format!("no property named `{prop}`")));
    }
    match falsify(&checked, prop, &FalsifyOptions::default()) {
        Some(cx) => println!("{cx}"),
        None => println!(
            "no counterexample within bounds (this is NOT a proof — run `rx verify {file} {prop}`)"
        ),
    }
    Ok(())
}

fn cmd_explain(parsed: &cli::Parsed) -> Result<(), CliError> {
    let (file, prop) = two_positionals(parsed)?;
    let config = SessionConfig {
        property: Some(prop.to_owned()),
        ..SessionConfig::default()
    };
    let session = VerifySession::new(config).map_err(CliError::run)?;
    let report = session
        .verify_path(file, &NullSink)
        .map_err(CliError::run)?;
    let Some((_, outcome)) = report.outcomes.first() else {
        return Err(CliError::Run(format!("no outcome for `{prop}`")));
    };
    match outcome.certificate() {
        // The session already validated the certificate with the
        // independent checker.
        Some(cert) => {
            print!("{}", cert.render_proof_sketch());
            Ok(())
        }
        None => Err(CliError::Run(format!(
            "`{prop}` did not verify: {}",
            outcome
                .failure()
                .map(ToString::to_string)
                .unwrap_or_else(|| "no failure recorded".into())
        ))),
    }
}

fn cmd_show(parsed: &cli::Parsed) -> Result<(), CliError> {
    let file = one_positional(parsed, "FILE")?;
    let checked = load(file)?;
    print!("{}", checked.program());
    let options = ProverOptions::default();
    let abs = reflex::verify::Abstraction::build(&checked, &options);
    println!(
        "\n// behavioral abstraction: {} world(s), {} exchange case(s), {} symbolic path(s)",
        abs.worlds().len(),
        abs.worlds()
            .iter()
            .map(|w| w.exchanges.len())
            .sum::<usize>(),
        abs.path_count()
    );
    Ok(())
}

/// Options of `rx run`, decoded from the parsed flag table.
struct RunOpts {
    file: String,
    steps: usize,
    seed: u64,
    faults: Option<String>,
    supervise: bool,
    monitor: bool,
}

fn run_opts(parsed: &cli::Parsed) -> Result<RunOpts, CliError> {
    let (file, steps, seed) = match parsed.positional.as_slice() {
        [file] => (file.clone(), 64, 0),
        [file, steps] => (
            file.clone(),
            steps
                .parse()
                .map_err(|_| CliError::Usage(format!("STEPS: invalid value `{steps}`")))?,
            0,
        ),
        [file, steps, seed] => (
            file.clone(),
            steps
                .parse()
                .map_err(|_| CliError::Usage(format!("STEPS: invalid value `{steps}`")))?,
            seed.parse()
                .map_err(|_| CliError::Usage(format!("SEED: invalid value `{seed}`")))?,
        ),
        _ => return Err(CliError::Usage("expected FILE [STEPS [SEED]]".into())),
    };
    let faults = parsed.value("--faults").map(str::to_owned);
    let monitor = parsed.is_set("--monitor");
    Ok(RunOpts {
        file,
        steps,
        seed,
        supervise: parsed.is_set("--supervise") || monitor || faults.is_some(),
        faults,
        monitor,
    })
}

fn cmd_run(parsed: &cli::Parsed) -> Result<(), CliError> {
    let opts = run_opts(parsed)?;
    let checked = load(&opts.file)?;
    if opts.supervise {
        return cmd_run_supervised(&opts, &checked);
    }
    let mut kernel = Interpreter::new(&checked, Registry::new(), Box::new(EmptyWorld), opts.seed)
        .map_err(CliError::run)?;
    let n = kernel.run(opts.steps).map_err(CliError::run)?;
    println!("ran init + {n} exchange(s); trace:");
    print!("{}", kernel.trace());
    reflex::runtime::oracle::check_trace_inclusion(&checked, kernel.trace())
        .map_err(CliError::run)?;
    println!("trace ⊆ BehAbs ✓");
    Ok(())
}

/// `rx run --faults/--supervise/--monitor`: drive the kernel with the
/// soak workload under the supervised runtime.
fn cmd_run_supervised(opts: &RunOpts, checked: &CheckedProgram) -> Result<(), CliError> {
    let spec = opts.faults.as_deref().unwrap_or("none");
    let plan =
        FaultPlan::parse(spec, opts.seed).map_err(|e| CliError::Run(format!("--faults: {e}")))?;
    let cfg = SoakConfig {
        steps: opts.steps,
        seed: opts.seed,
        monitor: opts.monitor,
        world_fault_rate: 0.0,
        ..SoakConfig::default()
    };
    let outcome = soak_program_with_plan(&opts.file, checked, &cfg, 0, Some(plan));
    println!(
        "supervised run of {}: {} exchange(s), {} injected message(s), trace length {}",
        opts.file, outcome.steps, outcome.injected, outcome.trace_len
    );
    if outcome.incidents > 0 {
        println!("incidents ({}):", outcome.incidents);
        print!("{}", outcome.incident_log);
    } else {
        println!("incidents: none");
    }
    if opts.monitor && outcome.failure.is_none() {
        println!("monitor: no certificate violations ✓");
    }
    if let Some(f) = &outcome.failure {
        return Err(CliError::Run(f.clone()));
    }
    if outcome.unrecovered > 0 {
        return Err(CliError::Run(format!(
            "{} component(s) still crashed after cooldown",
            outcome.unrecovered
        )));
    }
    Ok(())
}

/// `rx gen PRESET [--seed N] [--variant V] [--out PATH] [--check]`:
/// deterministically emit a synthetic kernel at one of the generator
/// presets. The same preset/seed/variant always produces byte-identical
/// source, so generated workloads never need to be committed.
fn cmd_gen(parsed: &cli::Parsed) -> Result<(), CliError> {
    use reflex::kernels::synth;
    let preset = match parsed.positional.as_slice() {
        [] => "small",
        [one] => one.as_str(),
        _ => {
            return Err(CliError::Usage(
                "expected at most one PRESET operand".into(),
            ))
        }
    };
    let seed: u64 = parsed.get("--seed", 1).map_err(CliError::Usage)?;
    let variant: u32 = parsed.get("--variant", 0).map_err(CliError::Usage)?;
    let config = synth::SynthConfig::preset(preset, seed).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown preset `{preset}` (expected small, medium or large)"
        ))
    })?;
    let kernel = synth::generate_variant(&config, variant);
    if parsed.is_set("--check") {
        let checked = kernel.checked();
        eprintln!(
            "{}: ok ({} components, {} handlers, {} properties)",
            kernel.name,
            checked.program().components.len(),
            checked.program().handlers.len(),
            checked.program().properties.len()
        );
    }
    match parsed.value("--out") {
        Some(path) => {
            std::fs::write(path, &kernel.source)
                .map_err(|e| CliError::Run(format!("{path}: {e}")))?;
            eprintln!(
                "wrote {} ({} properties) to {path}",
                kernel.name, kernel.properties
            );
        }
        None => print!("{}", kernel.source),
    }
    Ok(())
}

/// `rx bench store [--entries N] [--lookups N] [--seed N] [--json]`: the
/// proof-store stress bench — N synthetic certificates written to a
/// flat-layout store and to the log-structured store, then timed for
/// open, warm lookup and write throughput; with `--json`, also write
/// `BENCH_store.json` pairing both layouts with their speedups.
fn cmd_bench(parsed: &cli::Parsed) -> Result<(), CliError> {
    use reflex::bench::store::{
        render_store, render_store_json, run_store_bench, StoreBenchConfig,
    };
    match parsed.positional.as_slice() {
        [action] if action == "store" => {}
        _ => return Err(CliError::Usage("expected the `store` operand".into())),
    }
    let cfg = StoreBenchConfig {
        entries: parsed.get("--entries", 100_000).map_err(CliError::Usage)?,
        lookups: parsed.get("--lookups", 200_000).map_err(CliError::Usage)?,
        seed: parsed.get("--seed", 1).map_err(CliError::Usage)?,
    };
    if cfg.entries == 0 || cfg.lookups == 0 {
        return Err(CliError::Usage(
            "--entries and --lookups must be at least 1".into(),
        ));
    }
    let bench = run_store_bench(&cfg).map_err(CliError::run)?;
    print!("{}", render_store(&bench));
    if parsed.is_set("--json") {
        std::fs::write("BENCH_store.json", render_store_json(&bench))
            .map_err(|e| CliError::Run(format!("BENCH_store.json: {e}")))?;
        println!("wrote BENCH_store.json");
    }
    Ok(())
}

/// Decodes `--socket PATH` / `--tcp ADDR` into an endpoint (at most one
/// of the two).
fn endpoint_flags(parsed: &cli::Parsed) -> Result<Option<Endpoint>, CliError> {
    match (parsed.value("--socket"), parsed.value("--tcp")) {
        (Some(_), Some(_)) => Err(CliError::Usage(
            "give --socket PATH or --tcp ADDR, not both".into(),
        )),
        (Some(path), None) => Ok(Some(Endpoint::Unix(path.into()))),
        (None, Some(addr)) => Ok(Some(Endpoint::Tcp(addr.to_owned()))),
        (None, None) => Ok(None),
    }
}

/// Renders `rx client stats` output.
fn render_stats_snapshot(s: &StatsSnapshot, json: bool) -> String {
    if json {
        format!(
            concat!(
                "{{\"requests_submitted\": {}, \"requests_served\": {}, ",
                "\"requests_executed\": {}, \"idempotent_hits\": {}, ",
                "\"rejected_busy\": {}, \"rejected_overloaded\": {}, ",
                "\"cancelled\": {}, \"deadline_expired\": {}, ",
                "\"protocol_errors\": {}, \"connections\": {}, ",
                "\"reaped_connections\": {}, \"accept_errors\": {}, ",
                "\"resident_hits\": {}, \"resident_misses\": {}}}"
            ),
            s.requests_submitted,
            s.requests_served,
            s.requests_executed,
            s.idempotent_hits,
            s.rejected_busy,
            s.rejected_overloaded,
            s.cancelled,
            s.deadline_expired,
            s.protocol_errors,
            s.connections,
            s.reaped_connections,
            s.accept_errors,
            s.resident_hits,
            s.resident_misses
        )
    } else {
        format!(
            concat!(
                "requests: {} submitted, {} served ({} executed, {} deduped), ",
                "{} busy-rejected, {} shed\n",
                "cancelled: {} ({} deadline-expired)\n",
                "protocol errors: {}\n",
                "connections: {} ({} reaped, {} accept errors)\n",
                "resident programs: {} hits, {} misses"
            ),
            s.requests_submitted,
            s.requests_served,
            s.requests_executed,
            s.idempotent_hits,
            s.rejected_busy,
            s.rejected_overloaded,
            s.cancelled,
            s.deadline_expired,
            s.protocol_errors,
            s.connections,
            s.reaped_connections,
            s.accept_errors,
            s.resident_hits,
            s.resident_misses
        )
    }
}

/// Maps a client failure to its exit class — retryable transients
/// (daemon busy/overloaded, transport lost) exit 3, everything else
/// exit 1 — and with `--json` first prints a machine-readable error
/// object carrying the typed `ERR_*` code.
fn client_error(json: bool, e: ClientError) -> CliError {
    if json {
        let code = match e.remote_code() {
            Some(code) => code.to_string(),
            None => "null".to_owned(),
        };
        let retry_after = match e.retry_after_ms() {
            Some(ms) => ms.to_string(),
            None => "null".to_owned(),
        };
        println!(
            "{{\"error\": {}, \"code\": {code}, \"retryable\": {}, \"retry_after_ms\": {retry_after}}}",
            json_string(&e.to_string()),
            e.is_retryable()
        );
    }
    if e.is_retryable() {
        CliError::Retry(e.to_string())
    } else {
        CliError::Run(e.to_string())
    }
}

/// `rx client ACTION (--socket PATH | --tcp ADDR)`: talk to a running
/// `rxd`. `verify` renders the daemon's report with exactly the code
/// the in-process path uses, so the output (and the exit code) cannot
/// tell the two apart. Transient failures — connect refused, daemon
/// busy or shedding load, connection lost mid-request — are retried
/// with capped exponential backoff (deterministic jitter from
/// `--retry-seed`); requests carry idempotency keys so a retry of a
/// verify whose reply was lost is answered from the daemon's dedup
/// window, not re-proved.
fn cmd_client(parsed: &cli::Parsed) -> Result<(), CliError> {
    let endpoint = endpoint_flags(parsed)?.ok_or_else(|| {
        CliError::Usage("nothing to connect to (give --socket PATH or --tcp ADDR)".into())
    })?;
    let json = parsed.is_set("--json");
    let retries: u32 = parsed.get("--retries", 3).map_err(CliError::Usage)?;
    let policy = RetryPolicy {
        max_attempts: retries + 1,
        base_delay_ms: parsed.get("--retry-base-ms", 25).map_err(CliError::Usage)?,
        seed: parsed
            .get("--retry-seed", u64::from(std::process::id()))
            .map_err(CliError::Usage)?,
        ..RetryPolicy::default()
    };
    let mut client = RetryingClient::connect(&endpoint, policy);
    match parsed.positional.as_slice() {
        [action] if action == "ping" => {
            client.ping().map_err(|e| client_error(json, e))?;
            println!("pong");
            Ok(())
        }
        [action] if action == "stats" => {
            let stats = client.server_stats().map_err(|e| client_error(json, e))?;
            println!("{}", render_stats_snapshot(&stats, json));
            Ok(())
        }
        [action] if action == "shutdown" => {
            // Deliberately unretried: a connection that dies mid-shutdown
            // most likely means the daemon exited before flushing the ack.
            let mut plain = Client::connect(&endpoint).map_err(|e| client_error(json, e))?;
            plain.shutdown().map_err(|e| client_error(json, e))?;
            println!("daemon is draining and shutting down.");
            Ok(())
        }
        [action, file] if action == "check" => {
            let (name, source) = read_kernel(file)?;
            let summary = client
                .check(&name, &source)
                .map_err(|e| client_error(json, e))?;
            println!("{}", render_check(file, &summary));
            Ok(())
        }
        [action, file, rest @ ..] if action == "verify" && rest.len() <= 1 => {
            let (name, source) = read_kernel(file)?;
            let request = Request::Verify {
                name,
                source,
                property: rest.first().cloned(),
                budget_ms: parsed.get_opt("--budget-ms").map_err(CliError::Usage)?,
                budget_nodes: parsed.get_opt("--budget-nodes").map_err(CliError::Usage)?,
                want_events: parsed.value("--trace-json").is_some(),
                deadline_ms: parsed.get_opt("--deadline-ms").map_err(CliError::Usage)?,
                idempotency_key: None,
            };
            let mut trace = match parsed.value("--trace-json") {
                Some(path) => Some(
                    std::fs::File::create(path)
                        .map_err(|e| CliError::Run(format!("{path}: {e}")))?,
                ),
                None => None,
            };
            let report = client
                .verify(request, &mut |line| {
                    if let Some(file) = trace.as_mut() {
                        use std::io::Write as _;
                        let _ = writeln!(file, "{line}");
                    }
                })
                .map_err(|e| client_error(json, e))?;
            render_verify_report(parsed, false, &report)
        }
        _ => Err(CliError::Usage(
            "expected `ping`, `stats`, `shutdown`, `check FILE` or `verify FILE [PROP]`".into(),
        )),
    }
}

/// `--seeds A..B` (half-open range) or a single seed `N`.
fn parse_seed_range(spec: &str) -> Result<Vec<u64>, String> {
    let parse = |s: &str| {
        s.parse::<u64>()
            .map_err(|_| format!("--seeds: invalid value `{spec}` (expected A..B or N)"))
    };
    if let Some((a, b)) = spec.split_once("..") {
        let (a, b) = (parse(a)?, parse(b)?);
        if a >= b {
            return Err(format!("--seeds: empty range `{spec}`"));
        }
        Ok((a..b).collect())
    } else {
        Ok(vec![parse(spec)?])
    }
}

/// `rx sim run|swarm|replay`: the deterministic whole-stack simulator.
/// `run` drives one scenario and prints its replayable trace; `swarm`
/// fans a seed range across scenarios (writing `BENCH_sim.json` with
/// `--json`); `replay FILE` re-executes a `repro.json` bit for bit.
/// Any invariant violation is auto-shrunk to a minimal reproduction.
fn cmd_sim(parsed: &cli::Parsed) -> Result<(), CliError> {
    use reflex::sim::{repro, shrink, swarm, Scenario, Sim, SimConfig};
    let scenario_flag = parsed
        .value("--scenario")
        .map(|label| {
            Scenario::parse(label).ok_or_else(|| {
                CliError::Usage(format!(
                    "unknown scenario `{label}` (expected chaos, watch, soak, \
                     scale-edits, compaction-race, client-storm, daemon-crash-restart, \
                     net-partition or slow-client)"
                ))
            })
        })
        .transpose()?;
    let steps: Option<usize> = parsed.get_opt("--steps").map_err(CliError::Usage)?;
    if steps == Some(0) {
        return Err(CliError::Usage("--steps must be at least 1".into()));
    }
    let fs_rate: u32 = parsed.get("--fs-rate", 50_000).map_err(CliError::Usage)?;
    let panic_rate: u32 = parsed
        .get("--panic-rate", 20_000)
        .map_err(CliError::Usage)?;
    let inject_at: Option<usize> = parsed.get_opt("--inject-at").map_err(CliError::Usage)?;

    match parsed.positional.as_slice() {
        [action] if action == "run" => {
            let scenario = scenario_flag.unwrap_or(Scenario::Chaos);
            let mut config =
                SimConfig::new(scenario, parsed.get("--seed", 0).map_err(CliError::Usage)?);
            if let Some(steps) = steps {
                config.steps = steps;
            }
            config.fs_rate_ppm = fs_rate;
            config.panic_rate_ppm = panic_rate;
            config.inject_violation_at = inject_at;
            let outcome = Sim::run(&config);
            println!("{}", outcome.trace_text());
            println!("trace fingerprint: {:#018x}", outcome.trace_fingerprint);
            match &outcome.violation {
                None => {
                    println!(
                        "sim ok: {} step(s), no invariant violations",
                        outcome.steps_run
                    );
                    Ok(())
                }
                Some(violation) => {
                    let shrunk = shrink::shrink(&config, violation);
                    let minimized = Sim::run(&shrunk.minimized);
                    let record = repro::Repro::of(&minimized);
                    std::fs::write("repro.json", repro::render(&record))
                        .map_err(|e| CliError::Run(format!("repro.json: {e}")))?;
                    Err(CliError::Run(format!(
                        "invariant violation ({violation}); shrunk to {} step(s) in {} attempt(s), wrote repro.json",
                        shrunk.minimized.steps, shrunk.attempts
                    )))
                }
            }
        }
        [action] if action == "swarm" => {
            let mut cfg = swarm::SwarmConfig {
                fs_rate_ppm: fs_rate,
                panic_rate_ppm: panic_rate,
                steps,
                inject_violation_at: inject_at,
                jobs: parsed.get("--jobs", 0).map_err(CliError::Usage)?,
                repro_dir: parsed.value("--repro-dir").map(std::path::PathBuf::from),
                ..swarm::SwarmConfig::default()
            };
            if let Some(scenario) = scenario_flag {
                cfg.scenarios = vec![scenario];
            }
            if let Some(spec) = parsed.value("--seeds") {
                cfg.seeds = parse_seed_range(spec).map_err(CliError::Usage)?;
            }
            let bench = swarm::run_swarm(&cfg);
            print!("{}", swarm::render_swarm(&bench));
            if parsed.is_set("--json") {
                std::fs::write("BENCH_sim.json", swarm::render_swarm_json(&bench))
                    .map_err(|e| CliError::Run(format!("BENCH_sim.json: {e}")))?;
                println!("wrote BENCH_sim.json");
            }
            if bench.violations() > 0 {
                return Err(CliError::Run(format!(
                    "{} run(s) violated an invariant (see repro files above)",
                    bench.violations()
                )));
            }
            Ok(())
        }
        [action, file] if action == "replay" => {
            let verdict = repro::replay_file(std::path::Path::new(file)).map_err(CliError::Run)?;
            println!("{}", verdict.outcome.trace_text());
            println!(
                "trace fingerprint: {:#018x}",
                verdict.outcome.trace_fingerprint
            );
            if verdict.reproduced() {
                println!("replay ok: the recorded violation reproduced bit-identically");
                Ok(())
            } else {
                Err(CliError::Run(format!(
                    "replay diverged: violation {}, trace {}",
                    if verdict.violation_matches {
                        "matched"
                    } else {
                        "differed"
                    },
                    if verdict.trace_matches {
                        "matched"
                    } else {
                        "differed"
                    },
                )))
            }
        }
        _ => Err(CliError::Usage(
            "expected `run`, `swarm` or `replay FILE`".into(),
        )),
    }
}

/// `rx store scrub|compact|migrate|stat DIR [FILE]`: audit or reshape a
/// proof store in place. `scrub` and `compact` are the same pass —
/// rewrite live entries and the newest head per program into fresh log
/// segments, drop superseded frames, quarantine corrupt ones, fold the
/// older flat and sharded layouts into the log; with FILE, entries
/// belonging to that kernel's current properties are additionally
/// re-validated by the independent checker. `migrate` is compaction
/// without a kernel. `stat` reports entry, head and segment counts,
/// on-disk bytes, and the open-time index build cost, as text or
/// `--json`.
fn cmd_store(parsed: &cli::Parsed) -> Result<(), CliError> {
    let (action, dir, file) =
        match parsed.positional.as_slice() {
            [action, dir] => (action.as_str(), dir.as_str(), None),
            [action, dir, file] if action == "scrub" || action == "compact" => {
                (action.as_str(), dir.as_str(), Some(file.as_str()))
            }
            _ => return Err(CliError::Usage(
                "expected `scrub DIR [FILE]`, `compact DIR [FILE]`, `migrate DIR` or `stat DIR`"
                    .into(),
            )),
        };
    let store =
        reflex::verify::ProofStore::open(dir).map_err(|e| CliError::Run(format!("{dir}: {e}")))?;
    let report = match action {
        "stat" => {
            let stat = store
                .stat()
                .map_err(|e| CliError::Run(format!("{dir}: stat failed: {e}")))?;
            if parsed.is_set("--json") {
                print!("{}", stat.render_json());
            } else {
                print!("{}", stat.render_text());
            }
            return Ok(());
        }
        "scrub" | "compact" => {
            let checked = file.map(load).transpose()?;
            let options = ProverOptions::default();
            store
                .compact(checked.as_ref().map(|c| (c, &options)))
                .map_err(|e| CliError::Run(format!("{dir}: {action} failed: {e}")))?
        }
        "migrate" => store
            .migrate()
            .map_err(|e| CliError::Run(format!("{dir}: migrate failed: {e}")))?,
        other => {
            return Err(CliError::Usage(format!(
                "unknown action `{other}` (expected scrub, compact, migrate or stat)"
            )))
        }
    };
    if parsed.is_set("--json") {
        print!("{}", report.render_json());
    } else {
        println!("{}", report.summary());
    }
    if report.quarantined.is_empty() {
        if !parsed.is_set("--json") {
            println!("{dir}: store is clean.");
        }
        Ok(())
    } else {
        Err(CliError::Run(format!(
            "{} entr(y/ies) quarantined under {dir}/{} (see report.json there)",
            report.quarantined.len(),
            reflex::verify::QUARANTINE_DIR
        )))
    }
}
