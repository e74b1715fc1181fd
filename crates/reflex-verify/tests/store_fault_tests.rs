//! Fault-injection tests for the on-disk proof store: whatever a seeded
//! I/O fault schedule does to the disk, a store round-trip must either
//! produce byte-identical certificates or degrade to a miss (and a
//! re-prove) — never hand back a wrong certificate the checker accepts.
//! Also pins the crash-window fix: a torn write (reported as successful,
//! tail lost) must be surfaced by the commit's fsync, so no damaged frame
//! is ever served.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use reflex_parser::parse_program;
use reflex_typeck::{check, CheckedProgram};
use reflex_verify::{
    check_certificate, load_candidates, prove_all, verify_with_store, Certificate, FaultyFs,
    FsFault, FsFaultPlan, FsOp, ProofStore, ProverOptions, RealFs, VerifyFs,
};

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rx-storefault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn car() -> &'static CheckedProgram {
    static CAR: OnceLock<CheckedProgram> = OnceLock::new();
    CAR.get_or_init(|| {
        check(&parse_program("car", reflex_kernels::car::SOURCE).expect("parses")).expect("checks")
    })
}

/// The clean-run ground truth: every property proved, certificates in
/// declaration order.
fn baseline() -> &'static Vec<(String, Certificate)> {
    static BASE: OnceLock<Vec<(String, Certificate)>> = OnceLock::new();
    BASE.get_or_init(|| {
        prove_all(car(), &ProverOptions::default())
            .into_iter()
            .map(|(name, o)| {
                let cert = o.certificate().expect("car properties all prove").clone();
                (name, cert)
            })
            .collect()
    })
}

/// Asserts a store-backed run's outcomes match the baseline exactly.
fn assert_matches_baseline(context: &str, outcomes: &[(String, reflex_verify::Outcome)]) {
    assert_eq!(outcomes.len(), baseline().len(), "{context}: arity");
    for ((name, outcome), (bname, bcert)) in outcomes.iter().zip(baseline()) {
        assert_eq!(name, bname, "{context}: property order");
        assert_eq!(
            outcome.certificate(),
            Some(bcert),
            "{context}: {name} must carry the baseline certificate"
        );
    }
}

/// The crash window the fsync fix closes: a torn first append claims
/// success but loses its tail. Without the commit's fsync the damaged
/// frame would be served after a crash; with it, the commit fails and
/// rolls back the whole batch it covered — every certificate of the run
/// and its head — so each is simply missing: a future miss, re-proved
/// with an identical certificate.
#[test]
fn torn_write_is_surfaced_by_fsync_and_never_lands() {
    let dir = temp_store("torn");
    let fs = FaultyFs::new(FsFaultPlan::Scripted(vec![(
        FsOp::Write,
        0,
        FsFault::WriteTorn,
    )]));
    let options = ProverOptions::default();

    let store = ProofStore::open_with(&dir, Arc::new(fs.clone()) as Arc<dyn VerifyFs>)
        .expect("store opens");
    let sr = verify_with_store(car(), &options, &store, 1).expect("verifies");
    assert_matches_baseline("faulted save", &sr.report.outcomes);
    assert_eq!(fs.injected(), 1, "exactly the scripted torn write fired");
    assert_eq!(
        sr.saved, 0,
        "no entry of the failed commit, the torn one included, counts as saved"
    );
    assert!(store.io_errors() > 0, "the failed fsync is counted");
    assert!(
        load_candidates(car(), &options, &store).is_empty(),
        "the rolled-back batch is not served"
    );

    // No damaged frame landed: a fresh open finds nothing to serve.
    let healed = ProofStore::open(&dir).expect("store re-opens on the real fs");
    assert!(
        load_candidates(car(), &options, &healed).is_empty(),
        "every entry of the failed commit is a miss"
    );

    // A clean second run re-proves and re-saves everything, converging
    // to the baseline.
    let sr2 = verify_with_store(car(), &options, &healed, 1).expect("verifies");
    assert_matches_baseline("healed reload", &sr2.report.outcomes);
    assert_eq!(sr2.loaded, 0);
    assert_eq!(sr2.saved, baseline().len());
    let candidates = load_candidates(car(), &options, &healed);
    assert_eq!(candidates.len(), baseline().len(), "store is whole again");
    for (name, cert) in &candidates {
        let (_, expected) = baseline()
            .iter()
            .find(|(b, _)| b == name)
            .expect("known property");
        assert_eq!(cert, expected, "{name}: store entry is byte-identical");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any seeded fault schedule: store rounds either serve
    /// byte-identical certificates or miss and re-prove — outcomes always
    /// converge to the baseline, and everything the store serves passes
    /// the independent checker. Never a wrong certificate.
    #[test]
    fn seeded_fault_schedules_round_trip_or_miss(seed in 0u64..64, rate_ppm in 1_000u32..150_000) {
        let dir = temp_store(&format!("prop-{seed}-{rate_ppm}"));
        let fs = FaultyFs::seeded(seed, rate_ppm);
        let options = ProverOptions::default();
        let Ok(store) = ProofStore::open_with(&dir, Arc::new(fs.clone()) as Arc<dyn VerifyFs>)
        else {
            // The schedule faulted the very mkdir: opening degraded to
            // nothing, which is an acceptable (store-less) outcome.
            return Ok(());
        };

        // Two faulted rounds: writes may be lost and reads may error, but
        // every verdict must still match the clean baseline.
        for round in 0..2 {
            let sr = verify_with_store(car(), &options, &store, 1).expect("session never aborts");
            assert_matches_baseline(&format!("faulted round {round}"), &sr.report.outcomes);
        }

        // Whatever the store is willing to serve — under faults or after
        // healing — is byte-identical to the baseline and checker-accepted.
        for healed in [false, true] {
            if healed {
                fs.heal();
            }
            for (name, cert) in load_candidates(car(), &options, &store) {
                let (_, expected) = baseline()
                    .iter()
                    .find(|(b, _)| *b == name)
                    .expect("known property");
                prop_assert_eq!(
                    &cert, expected,
                    "healed={}: {} served a non-baseline certificate", healed, name
                );
                prop_assert!(
                    check_certificate(car(), &cert, &options).is_ok(),
                    "healed={}: {} served a certificate the checker rejects", healed, name
                );
            }
        }

        // After healing, one more round converges: everything proved,
        // certificates identical to the baseline.
        let sr = verify_with_store(car(), &options, &store, 1).expect("verifies");
        assert_matches_baseline("healed round", &sr.report.outcomes);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Repeated scrubs must not destroy earlier evidence: each scrub writes a
/// fresh sequenced `quarantine/report-NNNN.json` and mirrors the latest
/// to `report.json`.
#[test]
fn repeated_scrubs_keep_every_report() {
    let dir = temp_store("scrub-reports");
    let options = ProverOptions::default();
    // Two runs, each from its own open, file into two log segments: the
    // first scrub's damage ends one segment's scan and leaves the other
    // for the second scrub to find.
    let ssh =
        check(&parse_program("ssh", reflex_kernels::ssh::SOURCE).expect("parses")).expect("checks");
    for program in [car(), &ssh] {
        let store = ProofStore::open(&dir).expect("store opens");
        verify_with_store(program, &options, &store, 1).expect("verifies");
    }

    // Flips a payload byte in the first frame of the `skip`-th segment,
    // breaking its integrity fingerprint so the next scrub quarantines it.
    let corrupt_one_segment = |skip: usize| {
        let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("store dir")
            .map(|e| e.expect("entry").path())
            .filter(|p| p.is_dir())
            .flat_map(|shard| {
                std::fs::read_dir(shard)
                    .into_iter()
                    .flatten()
                    .map(|e| e.expect("entry").path())
            })
            .filter(|p| p.extension().is_some_and(|e| e == "log"))
            .collect();
        segments.sort();
        let victim = segments.get(skip).expect("enough segments");
        let mut bytes = std::fs::read(victim).expect("readable");
        bytes[50] ^= 0x40;
        std::fs::write(victim, bytes).expect("writable");
    };

    let quarantine = dir.join(reflex_verify::QUARANTINE_DIR);
    let store = ProofStore::open(&dir).expect("store re-opens");

    corrupt_one_segment(0);
    let first = store.scrub(None).expect("first scrub");
    assert_eq!(first.quarantined.len(), 1);
    assert!(quarantine.join("report-0000.json").exists());
    assert!(quarantine.join("report.json").exists());
    let first_seq = std::fs::read(quarantine.join("report-0000.json")).expect("report 0");

    corrupt_one_segment(0);
    let second = store.scrub(None).expect("second scrub");
    assert_eq!(second.quarantined.len(), 1);
    assert!(
        quarantine.join("report-0001.json").exists(),
        "second scrub must get its own sequenced report"
    );
    assert_eq!(
        std::fs::read(quarantine.join("report-0000.json")).expect("report 0 still there"),
        first_seq,
        "earlier reports are never overwritten"
    );
    assert_eq!(
        std::fs::read(quarantine.join("report.json")).expect("latest mirror"),
        std::fs::read(quarantine.join("report-0001.json")).expect("report 1"),
        "report.json mirrors the latest scrub"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Head records get the same torn-write discipline as certificate
/// frames: a torn head append claims success, the commit's fsync
/// surfaces it, the save is rolled back, and no damaged head is ever
/// served — not by this handle, nor by a fresh open of the directory.
#[test]
fn head_save_aborts_on_torn_write_and_recovers() {
    use reflex_ast::fingerprint::Fp;
    use reflex_verify::StoreHead;

    let dir = temp_store("head-torn");
    let fs = FaultyFs::new(FsFaultPlan::Scripted(vec![(
        FsOp::Write,
        0,
        FsFault::WriteTorn,
    )]));
    let store = ProofStore::open_with(&dir, Arc::new(fs.clone()) as Arc<dyn VerifyFs>)
        .expect("store opens");
    let head = StoreHead {
        program: Fp(0xabc),
        properties: vec![("safe".into(), Fp(1)), ("sound".into(), Fp(2))],
    };

    assert!(
        store.save_head("car", Fp(7), &head).is_err(),
        "the torn head append must be surfaced by the commit"
    );
    assert_eq!(fs.injected(), 1, "exactly the scripted torn write fired");
    assert!(store.io_errors() > 0, "the failed fsync is counted");
    assert!(
        store.load_head("car", Fp(7)).is_none(),
        "a rolled-back head is a miss"
    );
    assert!(
        ProofStore::open(&dir)
            .expect("store re-opens on the real fs")
            .load_head("car", Fp(7))
            .is_none(),
        "no damaged head lands on disk"
    );

    // The script is spent: a clean retry round-trips bit-exactly, in
    // this handle and across a reopen.
    store.save_head("car", Fp(7), &head).expect("clean save");
    let back = store.load_head("car", Fp(7)).expect("head round-trips");
    assert_eq!(back.program, head.program);
    assert_eq!(back.properties, head.properties);
    let reopened = ProofStore::open(&dir).expect("store re-opens on the real fs");
    assert_eq!(reopened.load_head("car", Fp(7)), Some(head));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A read-EIO plan makes the head a counted miss, never an error or a
/// wrong head: heads are read by the open-time scan, which skips the
/// unreadable segment. Reopening over the healed fs serves the intact
/// record again.
#[test]
fn head_load_treats_read_eio_as_a_counted_miss() {
    use reflex_ast::fingerprint::Fp;
    use reflex_verify::StoreHead;

    let dir = temp_store("head-eio");
    let head = StoreHead {
        program: Fp(0xf00d),
        properties: vec![("resp".into(), Fp(9))],
    };
    {
        let store = ProofStore::open(&dir).expect("store opens");
        store.save_head("car", Fp(7), &head).expect("saves");
    }

    // Every read faults: the head is a miss and the error is counted.
    let plan: Vec<(FsOp, u64, FsFault)> =
        (0..64).map(|i| (FsOp::Read, i, FsFault::ReadEio)).collect();
    let fs = FaultyFs::new(FsFaultPlan::Scripted(plan));
    let store = ProofStore::open_with(&dir, Arc::new(fs.clone()) as Arc<dyn VerifyFs>)
        .expect("store opens under read faults");
    assert!(
        store.load_head("car", Fp(7)).is_none(),
        "a faulted head read is a miss"
    );
    assert!(store.io_errors() > 0, "the read fault is counted");

    // Healed, the record on disk is still whole.
    fs.heal();
    let store = ProofStore::open_with(&dir, Arc::new(fs.clone()) as Arc<dyn VerifyFs>)
        .expect("store re-opens on the healed fs");
    let back = store.load_head("car", Fp(7)).expect("head survives intact");
    assert_eq!(back.program, head.program);
    assert_eq!(back.properties, head.properties);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The real filesystem, counting reads, head-frame appends and renames.
#[derive(Debug, Default)]
struct CountingFs {
    reads: std::sync::atomic::AtomicUsize,
    head_appends: std::sync::atomic::AtomicUsize,
    renames: std::sync::atomic::AtomicUsize,
}

impl CountingFs {
    /// Head frames appended to the log: one per head write. A head
    /// frame starts with the magic `RXHD`.
    fn head_writes(&self) -> usize {
        self.head_appends.load(std::sync::atomic::Ordering::SeqCst)
    }
}

impl VerifyFs for CountingFs {
    fn read(&self, path: &std::path::Path) -> std::io::Result<Vec<u8>> {
        self.reads.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        RealFs.read(path)
    }
    fn write(&self, path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
        RealFs.write(path, bytes)
    }
    fn append(&self, path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
        if bytes.starts_with(b"RXHD") {
            self.head_appends
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
        RealFs.append(path, bytes)
    }
    fn read_at(&self, path: &std::path::Path, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
        self.reads.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        RealFs.read_at(path, offset, len)
    }
    fn truncate(&self, path: &std::path::Path, len: u64) -> std::io::Result<()> {
        RealFs.truncate(path, len)
    }
    fn file_len(&self, path: &std::path::Path) -> std::io::Result<u64> {
        RealFs.file_len(path)
    }
    fn sync(&self, path: &std::path::Path) -> std::io::Result<()> {
        RealFs.sync(path)
    }
    fn rename(&self, from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
        self.renames
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        RealFs.rename(from, to)
    }
    fn remove_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        RealFs.remove_file(path)
    }
    fn remove_dir(&self, path: &std::path::Path) -> std::io::Result<()> {
        RealFs.remove_dir(path)
    }
    fn create_dir_all(&self, path: &std::path::Path) -> std::io::Result<()> {
        RealFs.create_dir_all(path)
    }
    fn read_dir(&self, path: &std::path::Path) -> std::io::Result<Vec<PathBuf>> {
        RealFs.read_dir(path)
    }
    fn exists(&self, path: &std::path::Path) -> bool {
        RealFs.exists(path)
    }
}

/// A repeated store run of an unchanged program appends no head frame;
/// a changed program appends one, and so does changing back. No run
/// renames anything.
#[test]
fn an_unchanged_head_is_not_rewritten() {
    let dir = temp_store("head-unchanged");
    let fs = Arc::new(CountingFs::default());
    let store =
        ProofStore::open_with(&dir, Arc::clone(&fs) as Arc<dyn VerifyFs>).expect("store opens");
    let options = ProverOptions::default();
    let opts_fp = options.fingerprint();
    let edited_src =
        reflex_kernels::car::SOURCE.replacen(r#"Volume("up")"#, r#"Volume("loud")"#, 1);
    assert_ne!(edited_src, reflex_kernels::car::SOURCE, "the edit applies");
    let edited = check(&parse_program("car", &edited_src).expect("parses")).expect("checks");

    let run = |program: &CheckedProgram| {
        verify_with_store(program, &options, &store, 1).expect("store run succeeds")
    };
    assert_matches_baseline("first run", &run(car()).report.outcomes);
    assert_eq!(fs.head_writes(), 1, "the first run writes the head");
    let again = run(car());
    assert_matches_baseline("repeated run", &again.report.outcomes);
    assert_eq!(again.report.reused.len(), baseline().len());
    assert_eq!(fs.head_writes(), 1, "an unchanged head is not rewritten");

    run(&edited);
    assert_eq!(fs.head_writes(), 2, "a changed program rewrites the head");
    let head = store.load_head("car", opts_fp).expect("head present");
    assert_eq!(head.program, edited.fingerprints().program);

    assert_matches_baseline("changed back", &run(car()).report.outcomes);
    assert_eq!(fs.head_writes(), 3, "changing back rewrites it again");
    let head = store.load_head("car", opts_fp).expect("head present");
    assert_eq!(head.program, car().fingerprints().program);
    assert_eq!(
        fs.renames.load(std::sync::atomic::Ordering::SeqCst),
        0,
        "head records are appended, never renamed into place"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A key the index lacks is a miss that reads no file: neither a segment
/// nor a flat `{prog}-{prop}-{opts}.cert` path is tried. Indexed entries
/// still read their segment.
#[test]
fn a_miss_reads_no_file() {
    use reflex_ast::fingerprint::Fp;

    let dir = temp_store("miss");
    let fs = Arc::new(CountingFs::default());
    let options = ProverOptions::default();
    let opts_fp = options.fingerprint();
    {
        let store = ProofStore::open(&dir).expect("store opens");
        verify_with_store(car(), &options, &store, 1).expect("verifies");
    }
    let store =
        ProofStore::open_with(&dir, Arc::clone(&fs) as Arc<dyn VerifyFs>).expect("store opens");
    let reads = || fs.reads.load(std::sync::atomic::Ordering::SeqCst);
    let fps = car().fingerprints();
    let before = reads();
    assert!(store.load(Fp(1), Fp(2), opts_fp).is_none());
    assert!(
        store.load(fps.program, Fp(0x5eed), opts_fp).is_none(),
        "an unknown property of a stored program is a miss"
    );
    assert_eq!(reads(), before, "a miss makes 0 reads");

    let (name, _) = &baseline()[0];
    let pfp = fps.property(name).expect("known property");
    assert!(store.load(fps.program, pfp, opts_fp).is_some());
    assert_eq!(reads(), before + 1, "a cold hit reads its frame once");
    let _ = std::fs::remove_dir_all(&dir);
}
