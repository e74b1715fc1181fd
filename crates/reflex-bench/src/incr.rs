//! Incremental-verification benchmark: replays a scripted 20-edit editing
//! session over the ssh and web-browser kernels through the on-disk proof
//! store, and compares it against re-proving every version from scratch.
//!
//! The script is chosen to exercise the whole reuse ladder:
//!
//! * **formatting edits** (comments) — canonical fingerprints are computed
//!   from the *parsed* program, so these are exact store hits;
//! * **reverts and repeated edits** — content addressing means an old
//!   program version's entries are still on disk, so flipping back (or
//!   re-applying yesterday's edit) reuses everything;
//! * **handler edits** — properties whose dependency sets avoid the edited
//!   handler reuse their certificates; local trace proofs over the edited
//!   handler are patched per-case; invariant-bearing and non-interference
//!   proofs re-prove;
//! * **property edits** — only the edited property re-proves.
//!
//! The run doubles as a regression guard: it panics unless the warm replay
//! re-proves strictly fewer properties than the cold one, reuses at least
//! 60% of property instances, and finishes in less wall-clock time.

use std::path::PathBuf;
use std::time::Instant;

use reflex_driver::{Event, MemorySink, NullSink, SessionConfig, VerifySession};
use reflex_verify::ProverOptions;

/// One scripted edit: a `replacen(find, replace, 1)` on the named kernel's
/// current source. Edits are cumulative within a kernel.
#[derive(Debug, Clone, Copy)]
pub struct EditStep {
    /// Which kernel the edit applies to (`"ssh"` or `"browser"`).
    pub kernel: &'static str,
    /// Short label for reports.
    pub label: &'static str,
    /// Exact substring to replace (must occur in the current source).
    pub find: &'static str,
    /// Replacement text.
    pub replace: &'static str,
}

/// What one replayed edit cost, warm (store-backed) vs. cold (scratch).
#[derive(Debug, Clone)]
pub struct IncrIteration {
    /// Kernel the edit applied to.
    pub kernel: &'static str,
    /// The edit's label.
    pub label: &'static str,
    /// Certificates reused wholesale.
    pub reused: usize,
    /// Certificates patched per-case.
    pub partial: usize,
    /// Properties re-proved from scratch.
    pub reproved: usize,
    /// Certificates served from the on-disk store.
    pub loaded: usize,
    /// Store-backed wall-clock, milliseconds.
    pub warm_ms: f64,
    /// Scratch `prove_all` wall-clock, milliseconds.
    pub cold_ms: f64,
}

/// The whole replayed session.
#[derive(Debug, Clone)]
pub struct IncrBench {
    /// Per-edit measurements, in script order.
    pub iterations: Vec<IncrIteration>,
    /// Worker threads used for re-proving.
    pub jobs: usize,
    /// Wall-clock of the initial store-priming verification of both base
    /// kernels (the cold first run every watch session pays), milliseconds.
    pub prime_ms: f64,
    /// Property instances across the replay (sum over edits).
    pub properties_total: usize,
    /// Cold re-proves (equals `properties_total` by construction).
    pub cold_reproved: usize,
    /// Warm re-proves.
    pub warm_reproved: usize,
    /// Warm wholesale reuses.
    pub warm_reused: usize,
    /// Warm per-case patches.
    pub warm_partial: usize,
    /// Certificates served from disk across the replay.
    pub warm_loaded: usize,
    /// `(reused + partial) / properties_total`.
    pub reuse_ratio: f64,
    /// Total cold wall-clock, milliseconds.
    pub cold_total_ms: f64,
    /// Total warm wall-clock, milliseconds.
    pub warm_total_ms: f64,
}

/// The scripted session: 10 ssh edits and 10 browser edits, interleaved
/// the way an engineer hops between two files.
pub fn edit_script() -> Vec<EditStep> {
    const SSH: [(&str, &str, &str); 10] = [
        (
            "ssh: strengthen PtyCreated guard",
            "if (auth_ok && user == auth_user) {\n      send(C, PtyHandle(user, fd));",
            "if (auth_ok && user == auth_user && user != \"\") {\n      send(C, PtyHandle(user, fd));",
        ),
        (
            "ssh: revert PtyCreated guard",
            "if (auth_ok && user == auth_user && user != \"\") {\n      send(C, PtyHandle(user, fd));",
            "if (auth_ok && user == auth_user) {\n      send(C, PtyHandle(user, fd));",
        ),
        (
            "ssh: comment PassOk handler",
            "  when Pass:PassOk(user) {",
            "  // The password daemon reports success.\n  when Pass:PassOk(user) {",
        ),
        (
            "ssh: rename LoginEnablesPty variable",
            "LoginEnablesPty: forall u: str.\n    [Recv(Pass(), PassOk(u))] Enables [Send(Term(), CreatePty(u))];",
            "LoginEnablesPty: forall w: str.\n    [Recv(Pass(), PassOk(w))] Enables [Send(Term(), CreatePty(w))];",
        ),
        (
            "ssh: revert property rename",
            "LoginEnablesPty: forall w: str.\n    [Recv(Pass(), PassOk(w))] Enables [Send(Term(), CreatePty(w))];",
            "LoginEnablesPty: forall u: str.\n    [Recv(Pass(), PassOk(u))] Enables [Send(Term(), CreatePty(u))];",
        ),
        (
            "ssh: strengthen PtyReq guard",
            "if (auth_ok && user == auth_user) {\n      send(T, CreatePty(user));",
            "if (auth_ok && user == auth_user && user != \"\") {\n      send(T, CreatePty(user));",
        ),
        (
            "ssh: revert PtyReq guard",
            "if (auth_ok && user == auth_user && user != \"\") {\n      send(T, CreatePty(user));",
            "if (auth_ok && user == auth_user) {\n      send(T, CreatePty(user));",
        ),
        (
            "ssh: re-apply PtyCreated guard",
            "if (auth_ok && user == auth_user) {\n      send(C, PtyHandle(user, fd));",
            "if (auth_ok && user == auth_user && user != \"\") {\n      send(C, PtyHandle(user, fd));",
        ),
        (
            "ssh: revert PtyCreated guard again",
            "if (auth_ok && user == auth_user && user != \"\") {\n      send(C, PtyHandle(user, fd));",
            "if (auth_ok && user == auth_user) {\n      send(C, PtyHandle(user, fd));",
        ),
        (
            "ssh: reword Term comment",
            "  // Forward the PTY file descriptor to the client, eliminating any\n  // post-authentication kernel overhead.",
            "  // Hand the PTY fd straight to the client: after authentication\n  // the kernel stays off the data path.",
        ),
    ];
    const BROWSER: [(&str, &str, &str); 10] = [
        (
            "browser: strengthen OpenSocket guard",
            "    if (host == sender.domain) {\n      send(N, Connect(host));",
            "    if (host == sender.domain && host != \"\") {\n      send(N, Connect(host));",
        ),
        (
            "browser: revert OpenSocket guard",
            "    if (host == sender.domain && host != \"\") {\n      send(N, Connect(host));",
            "    if (host == sender.domain) {\n      send(N, Connect(host));",
        ),
        (
            "browser: comment NewTab handler",
            "  // The user opens a tab: allocate a fresh id.",
            "  // A user gesture opens a tab; mint a fresh id for it.",
        ),
        (
            "browser: re-apply OpenSocket guard",
            "    if (host == sender.domain) {\n      send(N, Connect(host));",
            "    if (host == sender.domain && host != \"\") {\n      send(N, Connect(host));",
        ),
        (
            "browser: revert OpenSocket guard again",
            "    if (host == sender.domain && host != \"\") {\n      send(N, Connect(host));",
            "    if (host == sender.domain) {\n      send(N, Connect(host));",
        ),
        (
            "browser: OpenSocket blank-host guard",
            "    if (host == sender.domain) {\n      send(N, Connect(host));",
            "    if (host == sender.domain && host != \"about:blank\") {\n      send(N, Connect(host));",
        ),
        (
            "browser: revert blank-host guard",
            "    if (host == sender.domain && host != \"about:blank\") {\n      send(N, Connect(host));",
            "    if (host == sender.domain) {\n      send(N, Connect(host));",
        ),
        (
            "browser: rename SocketsOnlyToOwnDomain variable",
            "  SocketsOnlyToOwnDomain: forall h: str.\n    [Recv(Tab(h, _), OpenSocket(h))] Enables [Send(Net(), Connect(h))];",
            "  SocketsOnlyToOwnDomain: forall x: str.\n    [Recv(Tab(x, _), OpenSocket(x))] Enables [Send(Net(), Connect(x))];",
        ),
        (
            "browser: revert property rename",
            "  SocketsOnlyToOwnDomain: forall x: str.\n    [Recv(Tab(x, _), OpenSocket(x))] Enables [Send(Net(), Connect(x))];",
            "  SocketsOnlyToOwnDomain: forall h: str.\n    [Recv(Tab(h, _), OpenSocket(h))] Enables [Send(Net(), Connect(h))];",
        ),
        (
            "browser: reword Push comment",
            "  // Cookie processes push updates back to a tab of their domain.",
            "  // A cookie process forwards updates to a same-domain tab.",
        ),
    ];
    let mut script = Vec::with_capacity(20);
    for i in 0..10 {
        let (label, find, replace) = SSH[i];
        script.push(EditStep {
            kernel: "ssh",
            label,
            find,
            replace,
        });
        let (label, find, replace) = BROWSER[i];
        script.push(EditStep {
            kernel: "browser",
            label,
            find,
            replace,
        });
    }
    script
}

fn parse_and_check(name: &str, source: &str) -> reflex_typeck::CheckedProgram {
    let program = reflex_parser::parse_program(name, source)
        .unwrap_or_else(|e| panic!("scripted {name} edit must stay parseable: {e}"));
    reflex_typeck::check(&program)
        .unwrap_or_else(|e| panic!("scripted {name} edit must stay well-typed: {e}"))
}

fn assert_all_proved(context: &str, outcomes: &[(String, reflex_verify::Outcome)]) {
    for (name, outcome) in outcomes {
        assert!(
            outcome.is_proved(),
            "{context}: property {name} must stay provable under every scripted edit"
        );
    }
}

/// A store directory unique to this process, under the system temp dir.
fn scratch_store_dir() -> PathBuf {
    std::env::temp_dir().join(format!("rx-incr-bench-{}", std::process::id()))
}

/// Replays the scripted session cold and warm, panicking unless the warm
/// replay beats the cold one (the CI regression guard).
///
/// The two passes model the two real workflows:
///
/// * **cold** — the engineer re-runs `rx verify` after every edit: a fresh
///   process each time, so the global entailment memo starts empty (it is
///   cleared before each cold iteration to simulate this), every property
///   is proved from scratch and every certificate is checked, exactly the
///   CLI's pipeline;
/// * **warm** — the engineer runs `rx watch` once: a single long-lived
///   session whose solver memo stays warm and whose proof store carries
///   certificates across edits.
///
/// Both passes replay exactly the same source versions.
///
/// # Panics
///
/// Panics if a scripted edit fails to apply, parse, type-check or verify,
/// or if any regression guard fails: warm re-proves must be strictly fewer
/// than cold, at least 60% of property instances must be reused or
/// patched, and the warm replay must take less wall-clock time.
pub fn run_incr(options: &ProverOptions, jobs: usize) -> IncrBench {
    // Precompute the source after each edit so both passes see identical
    // versions.
    let mut sources = std::collections::BTreeMap::new();
    sources.insert("ssh", reflex_kernels::kernels::ssh::SOURCE.to_owned());
    sources.insert(
        "browser",
        reflex_kernels::kernels::browser::SOURCE.to_owned(),
    );
    let base = sources.clone();
    let mut versions = Vec::with_capacity(20);
    for step in edit_script() {
        let source = sources.get_mut(step.kernel).expect("scripted kernel");
        assert!(
            source.contains(step.find),
            "edit '{}' does not apply: pattern not found",
            step.label
        );
        *source = source.replacen(step.find, step.replace, 1);
        versions.push((step, source.clone()));
    }

    // Both passes are deterministic, so each is run `REPEATS` times doing
    // identical work and every timing is the per-iteration minimum —
    // millisecond-scale single shots are too noisy for a CI guard.
    const REPEATS: usize = 3;

    // Cold pass: fresh `rx verify` process per edit — a brand-new
    // [`VerifySession`] (empty proof caches) proves and certificate-checks
    // everything, exactly the CLI's pipeline.
    let mut cold_times = vec![f64::INFINITY; versions.len()];
    for _ in 0..REPEATS {
        for ((step, source), best) in versions.iter().zip(cold_times.iter_mut()) {
            let checked = parse_and_check(step.kernel, source);
            reflex_symbolic::clear_entailment_memo();
            let cold_start = Instant::now();
            let session = VerifySession::new(SessionConfig {
                options: options.clone(),
                ..SessionConfig::default()
            })
            .expect("cold session config is valid");
            let report = session
                .verify_checked(&checked, &NullSink)
                .unwrap_or_else(|e| panic!("{}: {e}", step.label));
            *best = best.min(cold_start.elapsed().as_secs_f64() * 1e3);
            assert_all_proved(step.label, &report.outcomes);
        }
    }

    // Warm pass: one long-lived watch session over a fresh store each
    // repeat. Clear the memo at session start so it inherits nothing from
    // the cold pass, then let it stay warm across iterations like a real
    // session would.
    let mut prime_ms = f64::INFINITY;
    let mut iterations: Vec<IncrIteration> = Vec::new();
    for repeat in 0..REPEATS {
        let dir = scratch_store_dir();
        let _ = std::fs::remove_dir_all(&dir);
        // One long-lived session over the proof store: the watch loop's
        // exact engine. Per-edit reuse classification and store traffic are
        // read back from the session's in-memory event sink.
        let session = VerifySession::new(SessionConfig {
            options: ProverOptions {
                jobs,
                ..options.clone()
            },
            store_dir: Some(dir.to_string_lossy().into_owned()),
            ..SessionConfig::default()
        })
        .expect("temp proof store opens");
        reflex_symbolic::clear_entailment_memo();

        // Prime the store with the base versions — the cold first run
        // every watch session pays exactly once.
        let prime_start = Instant::now();
        for (name, source) in &base {
            let checked = parse_and_check(name, source);
            let report = session
                .verify_checked(&checked, &NullSink)
                .expect("priming run verifies");
            assert_all_proved("prime", &report.outcomes);
        }
        prime_ms = prime_ms.min(prime_start.elapsed().as_secs_f64() * 1e3);

        for (i, ((step, source), cold_ms)) in versions.iter().zip(&cold_times).enumerate() {
            let checked = parse_and_check(step.kernel, source);
            let sink = MemorySink::new();
            let warm_start = Instant::now();
            let report = session
                .verify_checked(&checked, &sink)
                .unwrap_or_else(|e| panic!("edit '{}' fails to verify: {e}", step.label));
            let warm_ms = warm_start.elapsed().as_secs_f64() * 1e3;
            assert_all_proved(step.label, &report.outcomes);

            let (mut reused, mut partial, mut reproved) = (0usize, 0usize, 0usize);
            for event in sink.properties() {
                if let Event::Property { reuse, .. } = event {
                    match reuse {
                        Some("full") => reused += 1,
                        Some("partial") => partial += 1,
                        Some("reproved") => reproved += 1,
                        _ => {}
                    }
                }
            }
            let it = IncrIteration {
                kernel: step.kernel,
                label: step.label,
                reused,
                partial,
                reproved,
                loaded: sink.counters().map_or(0, |c| c.store_loaded as usize),
                warm_ms,
                cold_ms: *cold_ms,
            };
            if repeat == 0 {
                iterations.push(it);
            } else {
                let prev = &mut iterations[i];
                // The replay is deterministic: every repeat must classify
                // every property identically.
                assert_eq!(
                    (prev.reused, prev.partial, prev.reproved),
                    (it.reused, it.partial, it.reproved),
                    "nondeterministic reuse classification for edit '{}'",
                    step.label
                );
                prev.warm_ms = prev.warm_ms.min(it.warm_ms);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    let properties_total: usize = iterations
        .iter()
        .map(|it| it.reused + it.partial + it.reproved)
        .sum();
    let warm_reproved: usize = iterations.iter().map(|it| it.reproved).sum();
    let warm_reused: usize = iterations.iter().map(|it| it.reused).sum();
    let warm_partial: usize = iterations.iter().map(|it| it.partial).sum();
    let warm_loaded: usize = iterations.iter().map(|it| it.loaded).sum();
    let cold_total_ms: f64 = iterations.iter().map(|it| it.cold_ms).sum();
    let warm_total_ms: f64 = iterations.iter().map(|it| it.warm_ms).sum();
    let reuse_ratio = (warm_reused + warm_partial) as f64 / properties_total as f64;

    // The regression guards: incremental verification must actually pay.
    // `RX_INCR_SKIP_GUARDS=1` disables them, to inspect a regressed
    // replay's full report without the panic cutting it short.
    if std::env::var_os("RX_INCR_SKIP_GUARDS").is_none() {
        assert!(
            warm_reproved < properties_total,
            "regression: warm replay re-proved everything ({warm_reproved} of {properties_total})"
        );
        assert!(
            reuse_ratio >= 0.60,
            "regression: reuse ratio {reuse_ratio:.2} fell below 0.60"
        );
        assert!(
            warm_total_ms < cold_total_ms,
            "regression: warm replay ({warm_total_ms:.1} ms) slower than cold ({cold_total_ms:.1} ms)"
        );
    }

    IncrBench {
        iterations,
        jobs,
        prime_ms,
        properties_total,
        cold_reproved: properties_total,
        warm_reproved,
        warm_reused,
        warm_partial,
        warm_loaded,
        reuse_ratio,
        cold_total_ms,
        warm_total_ms,
    }
}

/// Renders the replay as a text table.
pub fn render_incr(bench: &IncrBench) -> String {
    let mut out = String::new();
    out.push_str("Incremental replay: 20 scripted edits over ssh + browser\n");
    out.push_str(&format!(
        "(store primed with base kernels in {:.1} ms; jobs = {})\n\n",
        bench.prime_ms, bench.jobs
    ));
    out.push_str(&format!(
        "{:<48} {:>6} {:>7} {:>9} {:>9} {:>9}\n",
        "edit", "reused", "patched", "re-proved", "warm ms", "cold ms"
    ));
    for it in &bench.iterations {
        out.push_str(&format!(
            "{:<48} {:>6} {:>7} {:>9} {:>9.1} {:>9.1}\n",
            it.label, it.reused, it.partial, it.reproved, it.warm_ms, it.cold_ms
        ));
    }
    out.push_str(&format!(
        "\ntotals: {} of {} property instances reused or patched ({:.0}% reuse)\n",
        bench.warm_reused + bench.warm_partial,
        bench.properties_total,
        bench.reuse_ratio * 100.0
    ));
    out.push_str(&format!(
        "warm {:.1} ms vs cold {:.1} ms ({:.1}x); re-proved {} warm vs {} cold; \
         {} certificates served from disk\n",
        bench.warm_total_ms,
        bench.cold_total_ms,
        bench.cold_total_ms / bench.warm_total_ms,
        bench.warm_reproved,
        bench.cold_reproved,
        bench.warm_loaded
    ));
    out
}

/// Renders the replay as the `BENCH_incr.json` machine-readable report.
pub fn render_incr_json(bench: &IncrBench) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let rows: Vec<String> = bench
        .iterations
        .iter()
        .map(|it| {
            format!(
                "    {{\"kernel\": \"{}\", \"label\": \"{}\", \"reused\": {}, \
                 \"partial\": {}, \"reproved\": {}, \"loaded\": {}, \
                 \"warm_ms\": {:.3}, \"cold_ms\": {:.3}}}",
                esc(it.kernel),
                esc(it.label),
                it.reused,
                it.partial,
                it.reproved,
                it.loaded,
                it.warm_ms,
                it.cold_ms
            )
        })
        .collect();
    format!(
        "{{\n  \"suite\": \"incr\",\n  \"jobs\": {},\n  \"edits\": {},\n  \
         \"properties_total\": {},\n  \"prime_ms\": {:.3},\n  \
         \"cold\": {{\"reproved\": {}, \"total_ms\": {:.3}}},\n  \
         \"warm\": {{\"reused\": {}, \"partial\": {}, \"reproved\": {}, \
         \"loaded\": {}, \"total_ms\": {:.3}}},\n  \
         \"reuse_ratio\": {:.4},\n  \"warm_faster\": {},\n  \"iterations\": [\n{}\n  ]\n}}\n",
        bench.jobs,
        bench.iterations.len(),
        bench.properties_total,
        bench.prime_ms,
        bench.cold_reproved,
        bench.cold_total_ms,
        bench.warm_reused,
        bench.warm_partial,
        bench.warm_reproved,
        bench.warm_loaded,
        bench.warm_total_ms,
        bench.reuse_ratio,
        bench.warm_total_ms < bench.cold_total_ms,
        rows.join(",\n")
    )
}
