//! `rxd` — the resident Reflex verification daemon.
//!
//! ```text
//! rxd --socket PATH [--tcp ADDR] [--store DIR] [--jobs N] [--workers N]
//!     [--queue N] [--max-budget-ms MS] [--max-budget-nodes N]
//!     [--shed-queue-depth N] [--client-inflight N] [--idem-window N]
//!     [--frame-timeout-ms MS] [--idle-timeout-ms MS] [--write-timeout-ms MS]
//! ```
//!
//! One long-lived [`reflex::service::ServiceCore`] owns the interner,
//! the proof caches and the open proof store; every connected client
//! (`rx client`, the SDK, a CI load generator) gets request-scoped
//! sessions over that warm state. The daemon listens on a unix socket
//! and/or a TCP address, serves until a client sends the `SHUTDOWN`
//! frame (or the process receives ctrl-c-free orchestration via
//! `rx client shutdown`), then drains queued work and group-commits the
//! store before exiting.
//!
//! Exit codes: 0 clean shutdown, 1 runtime failure, 2 usage errors.

use std::process::ExitCode;
use std::sync::Arc;

use reflex::cli::{self, FlagSpec};
use reflex::service::{serve, ServerConfig, ServiceConfig, ServiceCore};

const SYNOPSIS: &str = "--socket PATH | --tcp ADDR";

const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--socket",
        value: Some("PATH"),
        help: "listen on a unix socket at PATH",
    },
    FlagSpec {
        name: "--tcp",
        value: Some("ADDR"),
        help: "listen on a TCP address, e.g. 127.0.0.1:7171 (port 0: pick one)",
    },
    FlagSpec {
        name: "--store",
        value: Some("DIR"),
        help: "persist certificates in a content-addressed proof store",
    },
    FlagSpec {
        name: "--jobs",
        value: Some("N"),
        help: "proof threads per request, in total (0: one per CPU)",
    },
    FlagSpec {
        name: "--workers",
        value: Some("N"),
        help: "concurrent request executors (0: one per CPU)",
    },
    FlagSpec {
        name: "--queue",
        value: Some("N"),
        help: "per-client pending-request cap before Busy (default 16)",
    },
    FlagSpec {
        name: "--max-budget-ms",
        value: Some("MS"),
        help: "clamp every request's wall-clock budget to MS",
    },
    FlagSpec {
        name: "--max-budget-nodes",
        value: Some("N"),
        help: "clamp every request's explored-path budget to N",
    },
    FlagSpec {
        name: "--shed-queue-depth",
        value: Some("N"),
        help: "shed submits once N jobs are queued in total (0: never shed)",
    },
    FlagSpec {
        name: "--client-inflight",
        value: Some("N"),
        help: "shed a client past N queued+running requests (0: no cap)",
    },
    FlagSpec {
        name: "--idem-window",
        value: Some("N"),
        help: "completed replies kept for idempotency dedup (default 256)",
    },
    FlagSpec {
        name: "--frame-timeout-ms",
        value: Some("MS"),
        help: "reap a peer whose frame stalls mid-transfer for MS (default 10000)",
    },
    FlagSpec {
        name: "--idle-timeout-ms",
        value: Some("MS"),
        help: "reap a peer idle with nothing in flight for MS (default 300000)",
    },
    FlagSpec {
        name: "--write-timeout-ms",
        value: Some("MS"),
        help: "socket write timeout towards slow readers (default 30000)",
    },
];

fn usage_error(message: &str) -> ExitCode {
    eprint!(
        "rxd: {message}\nusage: rxd {SYNOPSIS}\n{}",
        cli::render_flag_help(FLAGS)
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match cli::parse(FLAGS, &args) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    match run(&parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(RxdError::Usage(e)) => usage_error(&e),
        Err(RxdError::Run(e)) => {
            eprintln!("rxd: {e}");
            ExitCode::FAILURE
        }
    }
}

enum RxdError {
    Usage(String),
    Run(String),
}

fn run(parsed: &cli::Parsed) -> Result<(), RxdError> {
    if !parsed.positional.is_empty() {
        return Err(RxdError::Usage(format!(
            "unexpected operand `{}`",
            parsed.positional[0]
        )));
    }
    let unix = parsed.value("--socket").map(std::path::PathBuf::from);
    let tcp = parsed.value("--tcp").map(str::to_owned);
    if unix.is_none() && tcp.is_none() {
        return Err(RxdError::Usage(
            "nothing to listen on (give --socket PATH and/or --tcp ADDR)".into(),
        ));
    }
    let config = ServiceConfig {
        store_dir: parsed.value("--store").map(str::to_owned),
        jobs: parsed.get("--jobs", 1).map_err(RxdError::Usage)?,
        workers: parsed.get("--workers", 0).map_err(RxdError::Usage)?,
        queue_cap: parsed.get("--queue", 0).map_err(RxdError::Usage)?,
        max_budget_ms: parsed.get_opt("--max-budget-ms").map_err(RxdError::Usage)?,
        max_budget_nodes: parsed
            .get_opt("--max-budget-nodes")
            .map_err(RxdError::Usage)?,
        shed_queue_depth: parsed
            .get("--shed-queue-depth", 0)
            .map_err(RxdError::Usage)?,
        client_inflight_cap: parsed
            .get("--client-inflight", 0)
            .map_err(RxdError::Usage)?,
        idempotency_window: parsed.get("--idem-window", 0).map_err(RxdError::Usage)?,
        ..ServiceConfig::default()
    };
    let core = Arc::new(ServiceCore::start(config).map_err(|e| RxdError::Run(e.to_string()))?);
    let server_config = ServerConfig {
        unix,
        tcp,
        frame_timeout_ms: parsed
            .get("--frame-timeout-ms", 0)
            .map_err(RxdError::Usage)?,
        idle_timeout_ms: parsed
            .get("--idle-timeout-ms", 0)
            .map_err(RxdError::Usage)?,
        write_timeout_ms: parsed
            .get("--write-timeout-ms", 0)
            .map_err(RxdError::Usage)?,
    };
    let handle =
        serve(Arc::clone(&core), &server_config).map_err(|e| RxdError::Run(e.to_string()))?;
    if let Some(path) = &handle.unix_path {
        println!("rxd: listening on unix socket {}", path.display());
    }
    if let Some(addr) = &handle.tcp_addr {
        println!("rxd: listening on tcp {addr}");
    }
    handle.wait_for_shutdown();
    println!("rxd: shutdown requested, draining…");
    handle.stop();
    core.shutdown();
    println!("rxd: store committed, bye");
    Ok(())
}
