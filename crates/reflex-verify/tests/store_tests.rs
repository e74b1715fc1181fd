//! Integration tests for the on-disk proof store: the file layer must
//! round-trip certificates across store instances (i.e. across
//! processes), shrug off corrupt or stale entries as cache misses, and
//! produce bit-identical directories regardless of thread fan-out.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use reflex_parser::parse_program;
use reflex_typeck::{check, CheckedProgram};
use reflex_verify::{certificate_to_bytes, verify_with_store, ProofStore, ProverOptions};

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rx-store-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn checked(name: &str, source: &str) -> CheckedProgram {
    check(&parse_program(name, source).expect("parses")).expect("checks")
}

/// Every segment of the store's log.
fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir.join("log"))
        .expect("the store has a log directory")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "log"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "store has segment files");
    files
}

/// `relative path -> bytes` for the whole store tree (the log included).
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in fs::read_dir(dir).expect("store directory exists") {
            let path = entry.expect("readable entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("under root")
                    .to_str()
                    .expect("utf-8 path")
                    .to_owned();
                out.insert(rel, fs::read(&path).expect("readable file"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

#[test]
fn certificates_survive_process_boundaries() {
    let dir = temp_store("roundtrip");
    let options = ProverOptions::default();
    let program = checked("ssh", reflex_kernels::ssh::SOURCE);

    // First "process": everything proves from scratch and is saved.
    let first = {
        let store = ProofStore::open(&dir).expect("store opens");
        let sr = verify_with_store(&program, &options, &store, 1).expect("verifies");
        assert_eq!(sr.loaded, 0, "a fresh store has nothing to serve");
        assert!(sr.saved > 0, "proved certificates are persisted");
        assert_eq!(sr.report.reproved.len(), program.program().properties.len());
        sr.report.outcomes
    };

    // Second "process": a brand-new store instance over the same
    // directory serves every certificate, and each one is re-validated
    // and byte-identical to the first run's.
    let store = ProofStore::open(&dir).expect("store re-opens");
    let sr = verify_with_store(&program, &options, &store, 1).expect("verifies");
    assert_eq!(sr.loaded, program.program().properties.len());
    assert_eq!(sr.report.reused.len(), program.program().properties.len());
    assert!(sr.report.reproved.is_empty());
    for ((n1, o1), (n2, o2)) in first.iter().zip(&sr.report.outcomes) {
        assert_eq!(n1, n2);
        assert_eq!(
            o1.certificate(),
            o2.certificate(),
            "{n1}: store round-trip must be byte-identical"
        );
        assert!(o2.is_proved(), "{n1}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn version_mismatch_degrades_to_a_miss() {
    let dir = temp_store("version");
    let options = ProverOptions::default();
    let program = checked("ssh", reflex_kernels::ssh::SOURCE);
    {
        let store = ProofStore::open(&dir).expect("store opens");
        verify_with_store(&program, &options, &store, 1).expect("verifies");
    }
    // Bump the format version byte of every segment's first frame (frame
    // layout: 4 bytes magic, then the version as u32 LE). The open-time
    // scan stops at the first invalid frame, darkening the whole segment.
    for path in segment_files(&dir) {
        let mut bytes = fs::read(&path).expect("readable segment");
        bytes[4] ^= 0x01;
        fs::write(&path, &bytes).expect("writable segment");
    }
    let store = ProofStore::open(&dir).expect("store re-opens");
    let sr = verify_with_store(&program, &options, &store, 1).expect("still verifies");
    assert_eq!(sr.loaded, 0, "future-version entries must read as misses");
    assert_eq!(sr.report.reproved.len(), program.program().properties.len());
    assert!(sr.report.outcomes.iter().all(|(_, o)| o.is_proved()));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_and_corrupted_entries_degrade_to_misses() {
    let dir = temp_store("corrupt");
    let options = ProverOptions::default();
    let program = checked("browser", reflex_kernels::browser::SOURCE);
    {
        let store = ProofStore::open(&dir).expect("store opens");
        verify_with_store(&program, &options, &store, 1).expect("verifies");
    }
    // Mangle each segment a different way, always hitting the *first*
    // frame so the scan finds nothing live: truncate mid-header, truncate
    // to zero, flip the first payload byte — round-robin over segments.
    for (i, path) in segment_files(&dir).into_iter().enumerate() {
        let mut bytes = fs::read(&path).expect("readable segment");
        match i % 3 {
            0 => bytes.truncate(22),
            1 => bytes.clear(),
            _ => bytes[44] ^= 0xFF,
        }
        fs::write(&path, &bytes).expect("writable segment");
    }
    let store = ProofStore::open(&dir).expect("store re-opens");
    let sr = verify_with_store(&program, &options, &store, 1).expect("still verifies");
    assert_eq!(sr.loaded, 0, "mangled entries must read as misses");
    assert_eq!(sr.report.reproved.len(), program.program().properties.len());
    assert!(sr.report.outcomes.iter().all(|(_, o)| o.is_proved()));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn parallel_and_serial_stores_are_bit_identical() {
    let options = ProverOptions::default();
    let base = checked("browser", reflex_kernels::browser::SOURCE);
    let edited_src = reflex_kernels::browser::SOURCE.replace(
        "    if (host == sender.domain) {",
        "    if (host == sender.domain && host != \"\") {",
    );
    assert_ne!(edited_src, reflex_kernels::browser::SOURCE);
    let edited = checked("browser", &edited_src);

    // The same prime-then-edit session, serial and with 8 workers.
    let mut snapshots = Vec::new();
    for (tag, jobs) in [("serial", 1), ("jobs8", 8)] {
        let dir = temp_store(tag);
        let store = ProofStore::open(&dir).expect("store opens");
        verify_with_store(&base, &options, &store, jobs).expect("prime verifies");
        let sr = verify_with_store(&edited, &options, &store, jobs).expect("edit verifies");
        assert!(sr.loaded > 0, "{tag}: the edit run uses stored proofs");
        let contents = snapshot(&dir);
        snapshots.push((dir, contents));
    }
    let (serial, parallel) = (&snapshots[0].1, &snapshots[1].1);
    assert_eq!(
        serial.keys().collect::<Vec<_>>(),
        parallel.keys().collect::<Vec<_>>(),
        "same entry set regardless of thread fan-out"
    );
    for (name, bytes) in serial {
        assert_eq!(
            Some(bytes),
            parallel.get(name),
            "{name}: store contents must be bit-identical across jobs counts"
        );
    }
    for (dir, _) in &snapshots {
        let _ = fs::remove_dir_all(dir);
    }
}

#[test]
fn flat_stores_read_transparently_and_migrate_into_segments() {
    let dir = temp_store("migrate");
    let options = ProverOptions::default();
    let program = checked("ssh", reflex_kernels::ssh::SOURCE);
    let props = program.program().properties.len();
    let fps = program.fingerprints();
    let opts_fp = options.fingerprint();

    // A "legacy" store: one flat `.cert` file per certificate, written in
    // the pre-segment format.
    let outcomes = reflex_verify::prove_all(&program, &options);
    {
        let store = ProofStore::open(&dir).expect("store opens");
        for (name, outcome) in &outcomes {
            let cert = outcome.certificate().expect("ssh proves");
            let pfp = fps.property(name).expect("known property");
            store
                .write_flat_entry(fps.program, pfp, opts_fp, cert)
                .expect("flat write");
        }
    }
    let flat_names: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("store dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "cert"))
        .collect();
    assert_eq!(flat_names.len(), props, "legacy layout on disk");

    // Transparent reads: a fresh open indexes the flat entries and serves
    // every certificate without rewriting anything.
    let store = ProofStore::open(&dir).expect("store re-opens");
    let stat = store.stat().expect("stat");
    assert_eq!(stat.flat_entries, props);
    assert_eq!(stat.entries, 0);
    let sr = verify_with_store(&program, &options, &store, 1).expect("verifies");
    assert_eq!(sr.loaded, props, "flat entries are served transparently");
    assert_eq!(sr.report.reused.len(), props);

    // Migration rewrites them into segments and removes the flat files;
    // the live set is unchanged key-for-key and byte-for-byte.
    let before = store.entries();
    let report = store.migrate().expect("migrates");
    assert_eq!(report.migrated, props, "every flat entry moved");
    assert!(report.quarantined.is_empty(), "nothing was corrupt");
    assert_eq!(store.entries(), before, "live set unchanged by migration");
    for path in &flat_names {
        assert!(!path.exists(), "{}: flat entry swept", path.display());
    }
    let stat = store.stat().expect("stat after migrate");
    assert_eq!(stat.flat_entries, 0);
    assert_eq!(stat.entries, props);
    assert!(stat.segments >= 1, "live entries now live in segments");

    // And a from-scratch open over the migrated layout still serves all.
    let store = ProofStore::open(&dir).expect("store re-opens post-migration");
    let sr = verify_with_store(&program, &options, &store, 1).expect("verifies");
    assert_eq!(sr.loaded, props, "migrated entries serve on reopen");
    assert_eq!(sr.report.reused.len(), props);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn compaction_drops_superseded_frames_and_keeps_the_live_set() {
    let dir = temp_store("compact");
    let options = ProverOptions::default();
    let base = checked("browser", reflex_kernels::browser::SOURCE);
    let edited_src = reflex_kernels::browser::SOURCE.replace(
        "    if (host == sender.domain) {",
        "    if (host == sender.domain && host != \"\") {",
    );
    let edited = checked("browser", &edited_src);

    let store = ProofStore::open(&dir).expect("store opens");
    verify_with_store(&base, &options, &store, 1).expect("prime");
    verify_with_store(&edited, &options, &store, 1).expect("edit");

    let before = store.entries();
    let loaded_before = {
        let sr = verify_with_store(&edited, &options, &store, 1).expect("warm");
        sr.loaded
    };
    let report = store.compact(Some((&edited, &options))).expect("compacts");
    assert!(report.quarantined.is_empty(), "nothing was corrupt");
    assert_eq!(report.checker_rejected, 0);
    assert_eq!(store.entries(), before, "compaction preserves the live set");

    // Reopen: the compacted layout serves exactly what it served before.
    let store = ProofStore::open(&dir).expect("store re-opens");
    assert_eq!(store.entries(), before);
    let sr = verify_with_store(&edited, &options, &store, 1).expect("verifies");
    assert_eq!(sr.loaded, loaded_before);
    assert_eq!(sr.report.reused.len(), edited.program().properties.len());
    let _ = fs::remove_dir_all(&dir);
}

/// Copies a directory tree (the checked-in fixture) to `to`.
fn copy_tree(from: &Path, to: &Path) {
    fs::create_dir_all(to).expect("fixture copy directory");
    for entry in fs::read_dir(from).expect("fixture exists") {
        let path = entry.expect("readable entry").path();
        let dest = to.join(path.file_name().expect("named entry"));
        if path.is_dir() {
            copy_tree(&path, &dest);
        } else {
            fs::copy(&path, &dest).expect("fixture file copies");
        }
    }
}

/// Every file under `dir`, as paths relative to it.
fn tree_files(dir: &Path) -> Vec<String> {
    snapshot(dir).into_keys().collect()
}

/// `tests/fixtures/sharded-store` is a store in the previous, sharded
/// layout — 16 shard directories of segments, a `MANIFEST` and one
/// `head-….head` file per program — written by `rx verify --store` of
/// `car.rx` and then `ssh.rx`. It must be served in place (every
/// certificate byte-identical to a fresh proof, both heads), and
/// compaction must fold it into the one log: no shard directory, head
/// file or manifest left, nothing quarantined, and the newest head per
/// program kept.
#[test]
fn sharded_layout_stores_serve_in_place_and_compact_into_the_log() {
    let dir = temp_store("sharded");
    copy_tree(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sharded-store"),
        &dir,
    );
    let options = ProverOptions::default();
    let opts_fp = options.fingerprint();
    let car = checked("car", reflex_kernels::car::SOURCE);
    let ssh = checked("ssh", reflex_kernels::ssh::SOURCE);

    // Every certificate, per key, with a freshly proved one's bytes, and
    // the head naming exactly that program version.
    let assert_serves = |store: &ProofStore, program: &CheckedProgram, context: &str| {
        let fps = program.fingerprints();
        let name = &program.program().name;
        for (prop, outcome) in reflex_verify::prove_all(program, &options) {
            let fresh = outcome.certificate().expect("bundled kernels prove");
            let pfp = fps.property(&prop).expect("known property");
            let stored = store
                .load(fps.program, pfp, opts_fp)
                .unwrap_or_else(|| panic!("{context}: {name}/{prop} is served"));
            assert_eq!(
                certificate_to_bytes(&stored),
                certificate_to_bytes(fresh),
                "{context}: {name}/{prop} bytes"
            );
        }
        let head = store
            .load_head(name, opts_fp)
            .unwrap_or_else(|| panic!("{context}: {name} head is read"));
        assert_eq!(head.program, fps.program, "{context}: {name} head");
    };
    let store = ProofStore::open(&dir).expect("the sharded layout opens");
    assert_serves(&store, &car, "in place");
    assert_serves(&store, &ssh, "in place");
    let props = car.program().properties.len() + ssh.program().properties.len();
    let stat = store.stat().expect("stat");
    assert_eq!((stat.entries, stat.flat_entries, stat.heads), (props, 0, 2));

    // An edited car files its certificates and a newer head in the log,
    // beside the sharded layout's head file for car.
    let edited_src =
        reflex_kernels::car::SOURCE.replacen(r#"Volume("up")"#, r#"Volume("loud")"#, 1);
    let edited = checked("car", &edited_src);
    verify_with_store(&edited, &options, &store, 1).expect("edit verifies");
    let before = store.entries();

    let report = store.compact(None).expect("compacts");
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    assert_eq!(store.entries(), before, "compaction keeps every entry");
    let files = tree_files(&dir);
    assert!(
        files.iter().all(|f| f.starts_with("log/seg-")),
        "only the one log is left: {files:?}"
    );
    let stat = store.stat().expect("stat after compaction");
    assert_eq!(stat.heads, 2, "one head per program");

    // A fresh open of the compacted store serves the same: the original
    // car and ssh certificates, the edited car's head (the newest) and
    // ssh's.
    let store = ProofStore::open(&dir).expect("the compacted store opens");
    assert_eq!(store.entries(), before);
    assert_serves(&store, &ssh, "compacted");
    let head = store.load_head("car", opts_fp).expect("car head");
    assert_eq!(head.program, edited.fingerprints().program, "newest head");
    let sr = verify_with_store(&car, &options, &store, 1).expect("verifies");
    assert_eq!(sr.report.reused.len(), car.program().properties.len());
    let _ = fs::remove_dir_all(&dir);
}
