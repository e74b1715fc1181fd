//! Tests for incremental re-verification (the paper's §6.4 future work).

use reflex_parser::parse_program;
use reflex_typeck::check;
use reflex_verify::{
    check_certificate, prove_all, reverify, Certificate, ProverOptions, VerifyError,
};

#[test]
fn unrelated_edit_reuses_local_certificates() {
    let old = reflex_kernels::browser::checked();
    let options = ProverOptions::default();
    let previous: Vec<_> = prove_all(&old, &options)
        .into_iter()
        .map(|(name, o)| (name, o.certificate().expect("proved").clone()))
        .collect();

    // Edit only the OpenSocket handler (a volume tweak that keeps its
    // behaviour shape); nothing it can emit matches the cookie or spawn
    // properties' triggers.
    let edited_src = reflex_kernels::browser::SOURCE.replace(
        "    if (host == sender.domain) {\n      send(N, Connect(host));\n    }",
        "    if (host == sender.domain && host != \"\") {\n      send(N, Connect(host));\n    }",
    );
    assert_ne!(edited_src, reflex_kernels::browser::SOURCE);
    let new = check(&parse_program("browser", &edited_src).expect("parses")).expect("checks");

    let report = reverify(&previous, &new, &options).expect("well-formed previous");
    // Everything still verifies…
    for (name, outcome) in &report.outcomes {
        assert!(outcome.is_proved(), "{name} must verify after the edit");
    }
    // …and the local certificates not involving Connect were reused.
    assert!(
        report.reused.contains(&"CookiesStayInDomain".to_owned()),
        "reused: {:?}",
        report.reused
    );
    assert!(
        report
            .reused
            .contains(&"UniqueCookieMgrPerDomain".to_owned()),
        "reused: {:?}",
        report.reused
    );
    // The socket property's trigger lives in the edited handler: its
    // certificate cannot be reused wholesale — it is either patched
    // per-case or re-proved, never served stale.
    let socket = "SocketsOnlyToOwnDomain".to_owned();
    assert!(!report.reused.contains(&socket));
    assert!(
        report.partial.contains(&socket) || report.reproved.contains(&socket),
        "partial: {:?}, reproved: {:?}",
        report.partial,
        report.reproved
    );
    // Invariant-based and NI certificates depend on every handler, so a
    // handler edit always re-proves them.
    assert!(report.reproved.contains(&"UniqueTabIds".to_owned()));
    assert!(report.reproved.contains(&"DomainNI".to_owned()));

    // The report is byte-identical to a from-scratch run, and every reused
    // or patched certificate passes the independent checker against the
    // *new* program.
    let scratch = prove_all(&new, &options);
    assert_eq!(report.outcomes.len(), scratch.len());
    for ((name, outcome), (sname, soutcome)) in report.outcomes.iter().zip(&scratch) {
        assert_eq!(name, sname);
        assert_eq!(
            outcome.certificate(),
            soutcome.certificate(),
            "certificate for {name} must be byte-identical to from-scratch"
        );
        if let Some(cert) = outcome.certificate() {
            check_certificate(&new, cert, &options).expect("reused certificate checks");
        }
    }
}

#[test]
fn breaking_edit_is_still_caught() {
    let old = reflex_kernels::browser::checked();
    let options = ProverOptions::default();
    let previous: Vec<_> = prove_all(&old, &options)
        .into_iter()
        .map(|(name, o)| (name, o.certificate().expect("proved").clone()))
        .collect();

    // Remove the socket guard: the affected property must not be reused
    // wholesale and must now fail.
    let edited_src = reflex_kernels::browser::SOURCE.replace(
        "    if (host == sender.domain) {\n      send(N, Connect(host));\n    }",
        "    send(N, Connect(host));",
    );
    let new = check(&parse_program("browser", &edited_src).expect("parses")).expect("checks");
    let report = reverify(&previous, &new, &options).expect("well-formed previous");
    let socket = report
        .outcomes
        .iter()
        .find(|(n, _)| n == "SocketsOnlyToOwnDomain")
        .expect("present");
    assert!(!socket.1.is_proved(), "the regression must be caught");
    assert!(!report.reused.contains(&"SocketsOnlyToOwnDomain".to_owned()));
}

#[test]
fn declaration_changes_force_full_reproving() {
    let old = reflex_kernels::ssh::checked();
    let options = ProverOptions::default();
    let previous: Vec<_> = prove_all(&old, &options)
        .into_iter()
        .map(|(name, o)| (name, o.certificate().expect("proved").clone()))
        .collect();

    // Adding a message type changes the case split: nothing is reusable.
    let edited_src =
        reflex_kernels::ssh::SOURCE.replace("messages {", "messages {\n  Heartbeat();");
    let new = check(&parse_program("ssh", &edited_src).expect("parses")).expect("checks");
    let report = reverify(&previous, &new, &options).expect("well-formed previous");
    assert!(report.reused.is_empty());
    assert!(report.partial.is_empty());
    assert_eq!(report.reproved.len(), new.program().properties.len());
    for (name, outcome) in &report.outcomes {
        assert!(outcome.is_proved(), "{name}");
    }
}

#[test]
fn property_edits_are_never_reused() {
    let old = reflex_kernels::webserver::checked();
    let options = ProverOptions::default();
    let previous: Vec<_> = prove_all(&old, &options)
        .into_iter()
        .map(|(name, o)| (name, o.certificate().expect("proved").clone()))
        .collect();

    // Rename a pattern variable inside a property (semantically equal but
    // syntactically different): conservative re-prove.
    let edited_src = reflex_kernels::webserver::SOURCE.replace(
        "ReadsOnlyAuthorized: forall p: str.",
        "ReadsOnlyAuthorized: forall q: str.",
    );
    let edited_src = edited_src.replace(
        "[Recv(AccessCtl(), PathOk(_, p))] Enables [Send(Disk(), ReadFile(p))];",
        "[Recv(AccessCtl(), PathOk(_, q))] Enables [Send(Disk(), ReadFile(q))];",
    );
    let new = check(&parse_program("webserver", &edited_src).expect("parses")).expect("checks");
    let report = reverify(&previous, &new, &options).expect("well-formed previous");
    assert!(report.reproved.contains(&"ReadsOnlyAuthorized".to_owned()));
    assert!(!report.reused.contains(&"ReadsOnlyAuthorized".to_owned()));
    assert!(report.outcomes.iter().all(|(_, o)| o.is_proved()));
}

#[test]
fn identical_program_reuses_everything() {
    let checked = reflex_kernels::car::checked();
    let options = ProverOptions::default();
    let previous: Vec<_> = prove_all(&checked, &options)
        .into_iter()
        .map(|(name, o)| (name, o.certificate().expect("proved").clone()))
        .collect();
    let report = reverify(&previous, &checked, &options).expect("well-formed previous");
    assert_eq!(report.reused.len(), previous.len());
    assert!(report.partial.is_empty());
    assert!(report.reproved.is_empty());
}

#[test]
fn malformed_previous_is_an_error_not_a_panic() {
    let checked = reflex_kernels::car::checked();
    let options = ProverOptions::default();
    let proved: Vec<_> = prove_all(&checked, &options)
        .into_iter()
        .map(|(name, o)| (name, o.certificate().expect("proved").clone()))
        .collect();

    // Duplicate entry.
    let mut dup = proved.clone();
    dup.push(proved[0].clone());
    match reverify(&dup, &checked, &options) {
        Err(VerifyError::DuplicateCertificate { name }) => assert_eq!(name, proved[0].0),
        other => panic!("expected DuplicateCertificate, got {other:?}"),
    }

    // Certificate filed under the wrong name.
    let mut misfiled = proved.clone();
    misfiled[0].0 = "NoSuchName".to_owned();
    match reverify(&misfiled, &checked, &options) {
        Err(VerifyError::CertificateMismatch { name, certified }) => {
            assert_eq!(name, "NoSuchName");
            assert_eq!(certified, proved[0].0);
        }
        other => panic!("expected CertificateMismatch, got {other:?}"),
    }
}

#[test]
fn parallel_reverify_matches_serial() {
    let old = reflex_kernels::browser::checked();
    let options = ProverOptions::default();
    let previous: Vec<_> = prove_all(&old, &options)
        .into_iter()
        .map(|(name, o)| (name, o.certificate().expect("proved").clone()))
        .collect();
    let edited_src = reflex_kernels::browser::SOURCE.replace(
        "    if (host == sender.domain) {",
        "    if (host == sender.domain && host != \"\") {",
    );
    let new = check(&parse_program("browser", &edited_src).expect("parses")).expect("checks");
    let serial = reverify(&previous, &new, &options).expect("serial");
    let pooled = ProverOptions {
        jobs: 8,
        ..ProverOptions::default()
    };
    let parallel = reverify(&previous, &new, &pooled).expect("parallel");
    assert_eq!(serial.reused, parallel.reused);
    assert_eq!(serial.partial, parallel.partial);
    assert_eq!(serial.reproved, parallel.reproved);
    for ((n1, o1), (n2, o2)) in serial.outcomes.iter().zip(&parallel.outcomes) {
        assert_eq!(n1, n2);
        assert_eq!(o1.certificate(), o2.certificate(), "{n1}");
        assert_eq!(o1.is_proved(), o2.is_proved(), "{n1}");
    }
}

#[test]
fn dep_sets_record_what_proofs_consult() {
    let checked = reflex_kernels::browser::checked();
    let options = ProverOptions::default();
    let all_cases = checked.fingerprints().handlers.len();
    for (name, outcome) in prove_all(&checked, &options) {
        let cert = outcome.certificate().expect("proved").clone();
        let deps = cert.deps().clone();
        assert_eq!(deps.decls, checked.fingerprints().decls);
        assert_eq!(Some(deps.property), checked.property_fp(&name));
        match &cert {
            Certificate::NonInterference(_) => {
                // NI consults every handler, recorded explicitly.
                assert_eq!(deps.handlers.len(), all_cases, "{name}");
                assert!(deps.syntactic_only.is_empty(), "{name}");
            }
            Certificate::Trace(t) if !t.invariants.is_empty() || !t.lemmas.is_empty() => {
                assert_eq!(deps.handlers.len(), all_cases, "{name}");
            }
            Certificate::Trace(_) => {
                // Local certificates: tracked + skipped partition the cases.
                assert_eq!(
                    deps.handlers.len() + deps.syntactic_only.len(),
                    all_cases,
                    "{name}"
                );
            }
        }
        // Recorded fingerprints match the program the proof ran over.
        for (ctype, msg, fp) in &deps.handlers {
            assert_eq!(checked.handler_fp(ctype, msg), Some(*fp), "{name}");
        }
    }
}
