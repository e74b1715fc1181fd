//! The scripted 20-edit editing session over the ssh and web-browser
//! kernels, replayed through the on-disk proof store by perfbench's
//! edit-store workload, by the simulator's `chaos` scenario (under store
//! faults) and by the `edit_script_ladder` test, which pins every step's
//! reuse classification.
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

/// The session as the sources an editor saves, in order: both base
/// kernels (ssh, then browser), then the edited kernel's source after
/// each step of [`edit_script`], as `(kernel, source)` pairs.
///
/// # Panics
///
/// If a step's `find` text does not occur in its kernel's current source.
pub fn session_sources() -> Vec<(&'static str, String)> {
    let mut current = [
        ("ssh", reflex_kernels::ssh::SOURCE.to_owned()),
        ("browser", reflex_kernels::browser::SOURCE.to_owned()),
    ];
    let mut sources = current.to_vec();
    for step in edit_script() {
        let (_, source) = current
            .iter_mut()
            .find(|(kernel, _)| *kernel == step.kernel)
            .expect("scripted kernel");
        assert!(
            source.contains(step.find),
            "edit '{}' does not apply",
            step.label
        );
        *source = source.replacen(step.find, step.replace, 1);
        sources.push((step.kernel, source.clone()));
    }
    sources
}

/// [`session_sources`], parsed and type-checked.
///
/// # Panics
///
/// If an edit does not apply, or leaves its kernel unparseable or
/// ill-typed.
pub fn session_programs() -> Vec<(&'static str, reflex_typeck::CheckedProgram)> {
    session_sources()
        .into_iter()
        .map(|(kernel, source)| {
            let program = reflex_parser::parse_program(kernel, &source)
                .unwrap_or_else(|e| panic!("{kernel} must stay parseable: {e}"));
            let checked = reflex_typeck::check(&program)
                .unwrap_or_else(|e| panic!("{kernel} must stay well-typed: {e}"));
            (kernel, checked)
        })
        .collect()
}
