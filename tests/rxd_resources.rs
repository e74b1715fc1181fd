//! What a long-running `rxd` holds must not grow with the requests and
//! connections it has served. Each test runs a real daemon process and
//! reads its thread, mapping and descriptor counts from `/proc/<pid>`,
//! so nothing else running in this test process can disturb the counts.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use reflex_service::{Client, Endpoint};

const WORKERS: usize = 2;

/// An `rxd --workers 2 --jobs 1` process on a scratch unix socket.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

/// A point-in-time count of what the daemon holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Usage {
    threads: usize,
    mappings: usize,
    fds: usize,
}

impl Daemon {
    fn start(tag: &str) -> Daemon {
        let socket =
            std::env::temp_dir().join(format!("rxd-resources-{tag}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(env!("CARGO_BIN_EXE_rxd"))
            .arg("--socket")
            .arg(&socket)
            .args(["--workers", &WORKERS.to_string(), "--jobs", "1"])
            .stdout(Stdio::null())
            .spawn()
            .expect("rxd starts");
        let daemon = Daemon { child, socket };
        let started = Instant::now();
        while !daemon.socket.exists() {
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "rxd never bound its socket"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        daemon
    }

    fn connect(&self) -> Client {
        Client::connect(&Endpoint::Unix(self.socket.clone())).expect("client connects")
    }

    fn usage(&self) -> Usage {
        let proc = PathBuf::from(format!("/proc/{}", self.child.id()));
        let status = std::fs::read_to_string(proc.join("status")).expect("status readable");
        let threads = status
            .lines()
            .find_map(|line| line.strip_prefix("Threads:"))
            .and_then(|n| n.trim().parse().ok())
            .expect("status names the thread count");
        let maps = std::fs::read_to_string(proc.join("maps")).expect("maps readable");
        let fds = std::fs::read_dir(proc.join("fd"))
            .expect("fd table readable")
            .count();
        Usage {
            threads,
            mappings: maps.lines().count(),
            fds,
        }
    }

    /// The daemon's usage once its thread count has settled at or below
    /// `threads` (a closed connection's thread exits just after the
    /// close reaches the client).
    fn settled_usage(&self, threads: usize) -> Usage {
        let started = Instant::now();
        loop {
            let usage = self.usage();
            if usage.threads <= threads || started.elapsed() > Duration::from_secs(30) {
                return usage;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn shut_down(mut self) {
        self.connect()
            .shutdown()
            .expect("rxd acknowledges shutdown");
        let status = self.child.wait().expect("rxd exits");
        assert!(status.success(), "rxd exited with {status}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached with the daemon still running when a test failed.
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Mappings a warm daemon may still add (allocator arenas and the like).
const MAPPING_SLACK: usize = 32;

/// Forty thousand requests on one connection keep the daemon at its
/// workers, accept loop, main thread and one reader, with flat mappings.
#[test]
fn forty_thousand_requests_on_one_connection_hold_threads_and_mappings_flat() {
    let daemon = Daemon::start("one-connection");
    let mut client = daemon.connect();
    for _ in 0..100 {
        client.ping().expect("warm-up ping");
    }
    let base = daemon.usage();
    assert_eq!(
        base.threads,
        WORKERS + 3,
        "workers, accept loop, main thread and this connection's reader"
    );
    for i in 0..40_000 {
        if let Err(e) = client.ping() {
            panic!("ping {i} failed: {e}");
        }
    }
    let after = daemon.usage();
    assert_eq!(after.threads, base.threads, "{base:?} -> {after:?}");
    assert!(
        after.mappings <= base.mappings + MAPPING_SLACK,
        "{base:?} -> {after:?}"
    );
    assert_eq!(after.fds, base.fds, "{base:?} -> {after:?}");
    drop(client);
    daemon.shut_down();
}

/// Two thousand connect/ping/close clients in a row leave the daemon
/// with the descriptors, mappings and threads it had before them.
#[test]
fn two_thousand_closed_connections_release_their_fds_and_mappings() {
    let daemon = Daemon::start("many-connections");
    daemon.connect().ping().expect("warm-up ping");
    let base = daemon.settled_usage(WORKERS + 2);
    for i in 0..2_000 {
        if let Err(e) = daemon.connect().ping() {
            panic!("client {i} failed: {e}");
        }
    }
    let after = daemon.settled_usage(base.threads);
    assert_eq!(after.threads, base.threads, "{base:?} -> {after:?}");
    assert!(after.fds <= base.fds + 2, "{base:?} -> {after:?}");
    assert!(
        after.mappings <= base.mappings + MAPPING_SLACK,
        "{base:?} -> {after:?}"
    );
    daemon.shut_down();
}
