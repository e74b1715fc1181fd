//! The scripted 20-edit session (`reflex_bench::incr::edit_script`)
//! replayed through a store-backed `VerifySession`, as `rx watch --store`
//! runs it: every step's place on the reuse ladder is pinned exactly, and
//! every step's certificates must be byte-identical to a storeless run of
//! the same source. No timing is gated.

use reflex_bench::incr::edit_script;
use reflex_driver::{NullSink, SessionConfig, SessionReport, VerifySession};
use reflex_kernels::kernels::{browser, ssh};
use reflex_verify::{certificate_to_bytes, ProverOptions};

/// Per step, in script order: `(reused, partial, reproved, loaded)`.
/// `loaded` counts certificates read back from the store, including the
/// previous versions a re-proved step plans against.
const LADDER: [(usize, usize, usize, usize); 20] = [
    (0, 0, 5, 5), // ssh: strengthen PtyCreated guard
    (3, 1, 2, 6), // browser: strengthen OpenSocket guard
    (5, 0, 0, 5), // ssh: revert PtyCreated guard
    (6, 0, 0, 6), // browser: revert OpenSocket guard
    (5, 0, 0, 5), // ssh: comment PassOk handler
    (6, 0, 0, 6), // browser: comment NewTab handler
    (4, 0, 1, 4), // ssh: rename LoginEnablesPty variable
    (6, 0, 0, 6), // browser: re-apply OpenSocket guard
    (5, 0, 0, 5), // ssh: revert property rename
    (6, 0, 0, 6), // browser: revert OpenSocket guard again
    (0, 0, 5, 5), // ssh: strengthen PtyReq guard
    (3, 1, 2, 6), // browser: OpenSocket blank-host guard
    (5, 0, 0, 5), // ssh: revert PtyReq guard
    (6, 0, 0, 6), // browser: revert blank-host guard
    (5, 0, 0, 5), // ssh: re-apply PtyCreated guard
    (5, 0, 1, 5), // browser: rename SocketsOnlyToOwnDomain variable
    (5, 0, 0, 5), // ssh: revert PtyCreated guard again
    (6, 0, 0, 6), // browser: revert property rename
    (5, 0, 0, 5), // ssh: reword Term comment
    (6, 0, 0, 6), // browser: reword Push comment
];

fn session(store_dir: Option<String>) -> VerifySession {
    VerifySession::new(SessionConfig {
        options: ProverOptions {
            jobs: 1,
            ..ProverOptions::default()
        },
        store_dir,
        ..SessionConfig::default()
    })
    .expect("session opens")
}

fn verify(session: &VerifySession, name: &str, source: &str) -> SessionReport {
    let program = reflex_parser::parse_program(name, source)
        .unwrap_or_else(|e| panic!("{name} must stay parseable: {e}"));
    let checked = reflex_typeck::check(&program)
        .unwrap_or_else(|e| panic!("{name} must stay well-typed: {e}"));
    let report = session
        .verify_checked(&checked, &NullSink)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    for (property, outcome) in &report.outcomes {
        assert!(outcome.is_proved(), "{name}: {property} must stay provable");
    }
    report
}

/// Every property's certificate, as its encoded bytes.
fn certificates(report: &SessionReport) -> Vec<(String, Vec<u8>)> {
    report
        .outcomes
        .iter()
        .map(|(name, outcome)| {
            let cert = outcome
                .certificate()
                .expect("proved outcomes carry a certificate");
            (name.clone(), certificate_to_bytes(cert))
        })
        .collect()
}

#[test]
fn every_step_of_the_edit_script_lands_on_its_pinned_rung() {
    let dir = std::env::temp_dir().join(format!("rx-edit-ladder-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let stored = session(Some(dir.to_string_lossy().into_owned()));
    let storeless = session(None);

    let mut sources = [
        ("ssh", ssh::SOURCE.to_owned()),
        ("browser", browser::SOURCE.to_owned()),
    ];
    // Prime the store with both base kernels: the cold first run every
    // watch session pays once.
    for (name, source) in &sources {
        let report = verify(&stored, name, source);
        assert_eq!(
            report.reproved.len(),
            report.outcomes.len(),
            "{name}: prime"
        );
    }

    let script = edit_script();
    assert_eq!(script.len(), LADDER.len());
    for (step, &expected) in script.iter().zip(&LADDER) {
        let (_, source) = sources
            .iter_mut()
            .find(|(name, _)| *name == step.kernel)
            .expect("scripted kernel");
        assert!(
            source.contains(step.find),
            "edit '{}' does not apply",
            step.label
        );
        *source = source.replacen(step.find, step.replace, 1);

        let warm = verify(&stored, step.kernel, source);
        let got = (
            warm.reused.len(),
            warm.partial.len(),
            warm.reproved.len(),
            warm.store_loaded,
        );
        assert_eq!(
            got, expected,
            "{}: (reused, partial, reproved, loaded)",
            step.label
        );
        let cold = verify(&storeless, step.kernel, source);
        assert!(
            certificates(&warm) == certificates(&cold),
            "{}: store-backed certificates differ from a storeless run",
            step.label
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same script through `verify_source` on one store-backed env, as
/// `rxd --store` serves it: sources the env already holds are answered
/// from their resident programs' checked certificates before the store is
/// consulted. The ladder is the same; the store is read no more often.
#[test]
fn the_daemon_path_lands_on_the_same_rungs_and_reads_the_store_no_more() {
    let dir = std::env::temp_dir().join(format!("rx-edit-resident-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let stored = session(Some(dir.to_string_lossy().into_owned()));
    let storeless = session(None);
    let serve = |name: &str, source: &str| {
        stored
            .verify_source(name, source, &NullSink)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
    };

    let mut sources = [
        ("ssh", ssh::SOURCE.to_owned()),
        ("browser", browser::SOURCE.to_owned()),
    ];
    for (name, source) in &sources {
        let report = serve(name, source);
        assert_eq!(
            report.reproved.len(),
            report.outcomes.len(),
            "{name}: prime"
        );
    }

    let script = edit_script();
    assert_eq!(script.len(), LADDER.len());
    for (step, &(reused, partial, reproved, loaded)) in script.iter().zip(&LADDER) {
        let (_, source) = sources
            .iter_mut()
            .find(|(name, _)| *name == step.kernel)
            .expect("scripted kernel");
        *source = source.replacen(step.find, step.replace, 1);

        let warm = serve(step.kernel, source);
        assert_eq!(warm.failures(), 0, "{}", warm.render_properties());
        assert_eq!(
            (warm.reused.len(), warm.partial.len(), warm.reproved.len()),
            (reused, partial, reproved),
            "{}: (reused, partial, reproved)",
            step.label
        );
        assert!(
            warm.store_loaded <= loaded,
            "{}: {} loaded, the ladder reads {loaded}",
            step.label,
            warm.store_loaded
        );
        let cold = verify(&storeless, step.kernel, source);
        assert!(
            certificates(&warm) == certificates(&cold),
            "{}: daemon-path certificates differ from a storeless run",
            step.label
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
