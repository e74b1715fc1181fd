//! Smoke tests for the `rx` command-line frontend.

use std::process::Command;

fn rx(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rx"))
        .args(args)
        .output()
        .expect("rx runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn kernel(name: &str) -> String {
    format!(
        "{}/crates/reflex-kernels/rx/{name}.rx",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn check_reports_statistics() {
    let (ok, stdout, _) = rx(&["check", &kernel("ssh")]);
    assert!(ok);
    assert!(stdout.contains("5 properties"), "{stdout}");
}

#[test]
fn verify_proves_all_car_properties() {
    let (ok, stdout, _) = rx(&["verify", &kernel("car")]);
    assert!(ok, "{stdout}");
    assert_eq!(stdout.matches("✓").count(), 8);
    assert!(stdout.contains("all properties verified."));
}

#[test]
fn verify_single_property() {
    let (ok, stdout, _) = rx(&["verify", &kernel("ssh"), "LoginEnablesPty"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("✓ LoginEnablesPty"));
}

#[test]
fn verify_fails_with_nonzero_exit_on_false_property() {
    // Write a kernel with a false property to a temp file.
    let dir = std::env::temp_dir().join("rx-cli-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("bad.rx");
    std::fs::write(
        &path,
        r#"
components { C "c.py" (); }
messages { A(); B(); }
init { c0 <- spawn C(); }
handlers {
  when C:B() { send(c0, B()); }
}
properties {
  Bogus: [Send(C(), A())] Enables [Send(C(), B())];
}
"#,
    )
    .expect("write");
    let (ok, stdout, stderr) = rx(&["verify", path.to_str().expect("utf8")]);
    assert!(!ok);
    assert!(stdout.contains("✗ Bogus"), "{stdout}");
    assert!(stderr.contains("failed to verify"), "{stderr}");

    // And falsify finds the concrete witness.
    let (ok, stdout, _) = rx(&["falsify", path.to_str().expect("utf8"), "Bogus"]);
    assert!(ok);
    assert!(stdout.contains("counterexample"), "{stdout}");
}

#[test]
fn show_prints_program_and_behabs_stats() {
    let (ok, stdout, _) = rx(&["show", &kernel("browser")]);
    assert!(ok);
    assert!(stdout.contains("handlers {"));
    assert!(stdout.contains("behavioral abstraction"));
}

#[test]
fn run_executes_and_checks_inclusion() {
    let (ok, stdout, _) = rx(&["run", &kernel("car"), "8", "3"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("trace ⊆ BehAbs ✓"));
}

#[test]
fn usage_and_io_errors() {
    let (ok, _, stderr) = rx(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
    let (ok, _, stderr) = rx(&["verify", "/nonexistent.rx"]);
    assert!(!ok);
    assert!(stderr.contains("nonexistent"));
    let (ok, _, stderr) = rx(&["frobnicate", "x"]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

#[test]
fn parse_errors_carry_positions() {
    let dir = std::env::temp_dir().join("rx-cli-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("syntax.rx");
    std::fs::write(&path, "components {\n  C \"c\" ()\n}\n").expect("write");
    let (ok, _, stderr) = rx(&["check", path.to_str().expect("utf8")]);
    assert!(!ok);
    assert!(stderr.contains("parse error at 3:"), "{stderr}");
}

#[test]
fn run_supervised_with_faults_reports_incidents_and_monitor_verdict() {
    let (ok, stdout, stderr) = rx(&[
        "run",
        &kernel("car"),
        "40",
        "3",
        "--faults",
        "10:crash",
        "--monitor",
    ]);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stdout.contains("supervised run"), "{stdout}");
    assert!(stdout.contains("comp-crashed"), "{stdout}");
    assert!(stdout.contains("comp-restarted"), "{stdout}");
    assert!(
        stdout.contains("monitor: no certificate violations ✓"),
        "{stdout}"
    );
}

#[test]
fn run_supervised_without_faults_is_clean() {
    let (ok, stdout, _) = rx(&["run", &kernel("ssh"), "20", "--supervise"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("incidents: none"), "{stdout}");
}

#[test]
fn run_rejects_a_malformed_fault_spec() {
    let (ok, _, stderr) = rx(&["run", &kernel("car"), "10", "--faults", "5:explode"]);
    assert!(!ok);
    assert!(stderr.contains("--faults"), "{stderr}");
}

#[test]
fn soak_runs_the_suite_and_writes_incident_logs() {
    let dir = std::env::temp_dir().join("rx-cli-test-soak");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().expect("utf8");
    let (ok, stdout, stderr) = rx(&[
        "soak",
        "--steps",
        "120",
        "--seed",
        "1",
        "--jobs",
        "2",
        "--incident-dir",
        dir_s,
    ]);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stdout.contains("soak ok: 7 kernel(s)"), "{stdout}");
    for k in [
        "car",
        "browser",
        "browser2",
        "browser3",
        "ssh",
        "ssh2",
        "webserver",
    ] {
        assert!(dir.join(format!("{k}.log")).is_file(), "missing {k}.log");
    }
}

#[test]
fn soak_single_kernel_row() {
    let (ok, stdout, _) = rx(&["soak", "--kernel", "webserver", "--steps", "80"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("webserver"), "{stdout}");
    assert!(stdout.contains("soak ok: 1 kernel(s)"), "{stdout}");
    let (ok, _, stderr) = rx(&["soak", "--kernel", "nope"]);
    assert!(!ok);
    assert!(stderr.contains("nope"), "{stderr}");
}

#[test]
fn watch_iterations_flag_ends_the_loop() {
    let (ok, stdout, _) = rx(&["watch", &kernel("car"), "--iterations", "1"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("[1]"), "{stdout}");
    assert!(stdout.contains("re-proved"), "{stdout}");
    assert!(
        !stdout.contains("watching"),
        "--iterations 1 must exit instead of waiting for edits: {stdout}"
    );
}

#[test]
fn verify_budget_expiry_reports_timeouts_with_nonzero_exit() {
    let (ok, stdout, stderr) = rx(&["verify", &kernel("car"), "--budget-ms", "0"]);
    assert!(!ok);
    assert!(stdout.contains("⏱"), "{stdout}");
    assert!(stderr.contains("stopped by the session budget"), "{stderr}");
}

#[test]
fn verify_trace_json_writes_event_lines() {
    let dir = std::env::temp_dir().join("rx-cli-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(format!("trace-{}.jsonl", std::process::id()));
    let path_s = path.to_str().expect("utf8");
    let (ok, _, _) = rx(&["verify", &kernel("ssh"), "--trace-json", path_s]);
    assert!(ok);
    let trace = std::fs::read_to_string(&path).expect("trace file written");
    assert!(trace.contains(r#""event":"session_start""#), "{trace}");
    assert_eq!(
        trace.matches(r#""event":"property""#).count(),
        5,
        "ssh has 5 properties: {trace}"
    );
    assert!(trace.contains(r#""event":"session_finish""#), "{trace}");
}

#[test]
fn store_scrub_quarantines_corrupt_entries() {
    let dir = std::env::temp_dir().join(format!("rx-cli-scrub-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().expect("utf8");

    // Populate the store, then bit-rot one segment's first frame (offset
    // 50 is inside its payload, breaking the integrity fingerprint).
    let (ok, stdout, _) = rx(&["verify", &kernel("car"), "--store", dir_s]);
    assert!(ok, "{stdout}");
    let mut segments: Vec<_> = std::fs::read_dir(&dir)
        .expect("store exists")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.is_dir())
        .flat_map(|shard| {
            std::fs::read_dir(shard)
                .into_iter()
                .flatten()
                .map(|e| e.expect("entry").path())
        })
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    segments.sort();
    assert!(!segments.is_empty());
    let victim = &segments[0];
    let mut bytes = std::fs::read(victim).expect("readable");
    bytes[50] ^= 0x01;
    std::fs::write(victim, &bytes).expect("writable");

    // Scrub quarantines the damaged entry and exits nonzero.
    let (ok, stdout, stderr) = rx(&["store", "scrub", dir_s]);
    assert!(!ok, "{stdout}");
    assert!(stdout.contains("quarantined"), "{stdout}");
    assert!(stderr.contains("quarantined"), "{stderr}");
    assert!(
        dir.join("quarantine").join("report.json").is_file(),
        "machine-readable quarantine report written"
    );
    assert!(
        !victim.exists(),
        "the damaged entry was moved out of the store"
    );

    // A second scrub — with the kernel supplied for full checker
    // validation — finds a clean store.
    let (ok, stdout, _) = rx(&["store", "scrub", dir_s, &kernel("car")]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("store is clean"), "{stdout}");
}

#[test]
fn watch_starts_degraded_when_the_store_cannot_open() {
    // A store path that is a *file* cannot be opened as a directory.
    let bogus = std::env::temp_dir().join(format!("rx-cli-notadir-{}", std::process::id()));
    std::fs::write(&bogus, b"not a directory").expect("write");
    let bogus_s = bogus.to_str().expect("utf8");

    // Default: warn, start degraded, still verify everything.
    let (ok, stdout, stderr) = rx(&[
        "watch",
        &kernel("car"),
        "--store",
        bogus_s,
        "--iterations",
        "1",
    ]);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stderr.contains("DEGRADED"), "{stderr}");
    assert!(stdout.contains("✓"), "{stdout}");

    // --strict-store: the same situation is fatal.
    let (ok, _, stderr) = rx(&[
        "watch",
        &kernel("car"),
        "--store",
        bogus_s,
        "--strict-store",
        "--iterations",
        "1",
    ]);
    assert!(!ok);
    assert!(!stderr.contains("DEGRADED"), "{stderr}");
    let _ = std::fs::remove_file(&bogus);
}

#[test]
fn chaos_single_seed_upholds_invariants_and_writes_json() {
    let (ok, stdout, stderr) = rx(&["chaos", "--seeds", "0..1"]);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(
        stdout.contains("all robustness invariants held"),
        "{stdout}"
    );
    let json = std::fs::read_to_string("BENCH_chaos.json").expect("BENCH_chaos.json written");
    assert!(json.contains(r#""invariants_held": true"#), "{json}");
    assert!(json.contains(r#""aborts": 0"#), "{json}");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let (ok, _, stderr) = rx(&["verify", &kernel("car"), "--bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag"), "{stderr}");
    assert!(stderr.contains("usage: rx verify"), "{stderr}");
}

#[test]
fn bad_flag_value_is_a_usage_error() {
    let (ok, _, stderr) = rx(&["verify", &kernel("car"), "--jobs", "many"]);
    assert!(!ok);
    assert!(stderr.contains("invalid value"), "{stderr}");
}

#[test]
fn client_without_an_endpoint_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_rx"))
        .args(["client", "ping"])
        .output()
        .expect("rx runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nothing to connect to"), "{stderr}");
}

#[test]
fn client_connect_failure_exits_with_the_retryable_code() {
    // Transport failures are transient by classification: exit 3, so a
    // wrapping script can tell "try again" (3) from broken (1) and
    // mis-invoked (2).
    let out = Command::new(env!("CARGO_BIN_EXE_rx"))
        .args([
            "client",
            "--socket",
            "/nonexistent/rxd.sock",
            "--retries",
            "0",
            "ping",
        ])
        .output()
        .expect("rx runs");
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("retryable"), "{stderr}");
}

#[test]
fn client_json_errors_carry_the_typed_code() {
    let out = Command::new(env!("CARGO_BIN_EXE_rx"))
        .args([
            "client",
            "--socket",
            "/nonexistent/rxd.sock",
            "--retries",
            "0",
            "--json",
            "ping",
        ])
        .output()
        .expect("rx runs");
    assert_eq!(out.status.code(), Some(3));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"retryable\": true"), "{stdout}");
    // A connect failure has no remote ERR_* code; the field is null.
    assert!(stdout.contains("\"code\": null"), "{stdout}");
}

#[test]
fn bench_serve_validates_its_flags() {
    let (ok, _, stderr) = rx(&["bench", "serve", "--clients", "0"]);
    assert!(!ok);
    assert!(stderr.contains("at least 1"), "{stderr}");
    let (ok, _, stderr) = rx(&["bench", "serve", "--socket", "a", "--tcp", "b"]);
    assert!(!ok);
    assert!(stderr.contains("not both"), "{stderr}");
}

#[test]
fn rxd_without_a_listener_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_rxd"))
        .output()
        .expect("rxd runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nothing to listen on"), "{stderr}");
    assert!(stderr.contains("usage: rxd"), "{stderr}");
}

/// End to end over a real unix socket: boot `rxd`, talk to it with
/// `rx client`, shut it down cleanly.
#[test]
fn daemon_serves_rx_client_over_a_unix_socket() {
    let socket = std::env::temp_dir().join(format!("rx-cli-rxd-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_rxd"))
        .args(["--socket", socket.to_str().expect("utf8"), "--workers", "1"])
        .spawn()
        .expect("rxd boots");
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert!(socket.exists(), "rxd never bound its socket");
    let sock = socket.to_str().expect("utf8");

    let (ok, stdout, stderr) = rx(&["client", "--socket", sock, "ping"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("pong"), "{stdout}");

    let (ok, stdout, stderr) = rx(&["client", "--socket", sock, "check", &kernel("car")]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("properties"), "{stdout}");

    // The verify reuses the program the check made resident.
    let (ok, _, stderr) = rx(&["client", "--socket", sock, "verify", &kernel("car")]);
    assert!(ok, "{stderr}");

    let (ok, stdout, _) = rx(&["client", "--socket", sock, "stats", "--json"]);
    assert!(ok);
    assert!(stdout.contains("\"requests_served\""), "{stdout}");
    assert!(
        stdout.contains("\"resident_hits\": 1, \"resident_misses\": 1"),
        "{stdout}"
    );
    let (ok, stdout, _) = rx(&["client", "--socket", sock, "stats"]);
    assert!(ok);
    assert!(
        stdout.contains("resident programs: 1 hits, 1 misses"),
        "{stdout}"
    );

    let (ok, stdout, _) = rx(&["client", "--socket", sock, "shutdown"]);
    assert!(ok);
    assert!(stdout.contains("shutting down"), "{stdout}");

    let status = daemon.wait().expect("rxd exits");
    assert!(status.success(), "rxd must exit 0 after a clean shutdown");
    let _ = std::fs::remove_file(&socket);
}
