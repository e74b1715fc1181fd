//! The recorded 20-edit session (`reflex_bench::incr::session_programs`)
//! replayed through a store-backed `VerifySession` on a filesystem that
//! counts its operations. A persist appends its certificates and its
//! head record to the one log and commits them together, so:
//!
//! * every step makes at most one fsync and no rename;
//! * a step that changes nothing on disk — the comment edits, whose
//!   program fingerprints equal the previous step's — writes nothing;
//! * serial and `jobs 8` runs leave byte-identical stores.
//!
//! No timing is gated.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use reflex_bench::incr::{edit_script, session_programs};
use reflex_driver::{NullSink, SessionConfig, VerifySession};
use reflex_verify::{ProverOptions, RealFs, VerifyFs};

/// The real filesystem, counting fsyncs, renames and writes (whole-file
/// writes and appends).
#[derive(Debug, Default)]
struct CountingFs {
    syncs: AtomicUsize,
    renames: AtomicUsize,
    writes: AtomicUsize,
}

impl CountingFs {
    /// `(syncs, renames, writes)` so far.
    fn counts(&self) -> (usize, usize, usize) {
        (
            self.syncs.load(Ordering::SeqCst),
            self.renames.load(Ordering::SeqCst),
            self.writes.load(Ordering::SeqCst),
        )
    }
}

impl VerifyFs for CountingFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        RealFs.read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.writes.fetch_add(1, Ordering::SeqCst);
        RealFs.write(path, bytes)
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.writes.fetch_add(1, Ordering::SeqCst);
        RealFs.append(path, bytes)
    }
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        RealFs.read_at(path, offset, len)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        RealFs.truncate(path, len)
    }
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        RealFs.file_len(path)
    }
    fn sync(&self, path: &Path) -> io::Result<()> {
        self.syncs.fetch_add(1, Ordering::SeqCst);
        RealFs.sync(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.renames.fetch_add(1, Ordering::SeqCst);
        RealFs.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealFs.remove_file(path)
    }
    fn remove_dir(&self, path: &Path) -> io::Result<()> {
        RealFs.remove_dir(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        RealFs.create_dir_all(path)
    }
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        RealFs.read_dir(path)
    }
    fn exists(&self, path: &Path) -> bool {
        RealFs.exists(path)
    }
}

/// One step's label and its `(syncs, renames, writes)`.
type StepCounts = (String, (usize, usize, usize));

/// Replays the session with `jobs` proof threads into a fresh store at
/// `dir`; returns every step's counts.
fn replay(jobs: usize, dir: &Path) -> Vec<StepCounts> {
    let _ = std::fs::remove_dir_all(dir);
    let fs = Arc::new(CountingFs::default());
    let session = VerifySession::new(SessionConfig {
        options: ProverOptions {
            jobs,
            ..ProverOptions::default()
        },
        store_dir: Some(dir.to_string_lossy().into_owned()),
        store_fs: Some(Arc::clone(&fs) as Arc<dyn VerifyFs>),
        strict_store: true,
        ..SessionConfig::default()
    })
    .expect("session opens");
    let labels = ["ssh: base kernel", "browser: base kernel"]
        .into_iter()
        .map(str::to_owned)
        .chain(edit_script().into_iter().map(|step| step.label.to_owned()));
    labels
        .zip(session_programs())
        .map(|(label, (kernel, program))| {
            let (s0, r0, w0) = fs.counts();
            let report = session
                .verify_checked(&program, &NullSink)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(
                report.outcomes.iter().all(|(_, o)| o.is_proved()),
                "{label}: every {kernel} property proves"
            );
            let (s1, r1, w1) = fs.counts();
            (label, (s1 - s0, r1 - r0, w1 - w0))
        })
        .collect()
}

/// `relative path -> bytes` for every file under `dir`.
fn snapshot(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).expect("readable directory") {
            let path = entry.expect("readable entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).expect("under root").to_owned();
                out.insert(rel, std::fs::read(&path).expect("readable file"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

#[test]
fn every_persist_of_the_session_commits_with_at_most_one_fsync() {
    let base = std::env::temp_dir().join(format!("rx-persist-commits-{}", std::process::id()));
    let (serial_dir, parallel_dir) = (base.join("serial"), base.join("jobs8"));
    let serial = replay(1, &serial_dir);
    assert_eq!(serial.len(), 22, "two base kernels, then 20 edits");
    for (label, (syncs, renames, _)) in &serial {
        assert!(*syncs <= 1, "{label}: {syncs} fsyncs in one persist");
        assert_eq!(*renames, 0, "{label}: a persist renames nothing");
    }
    let comments: Vec<&StepCounts> = serial
        .iter()
        .filter(|(label, _)| label.contains("comment"))
        .collect();
    assert_eq!(comments.len(), 4, "two comment edits per kernel");
    for (label, counts) in comments {
        assert_eq!(
            *counts,
            (0, 0, 0),
            "{label}: an unchanged program writes nothing"
        );
    }

    let parallel = replay(8, &parallel_dir);
    assert_eq!(serial, parallel, "the same file operations with 8 jobs");
    assert!(
        snapshot(&serial_dir) == snapshot(&parallel_dir),
        "serial and jobs-8 stores differ"
    );
    let _ = std::fs::remove_dir_all(&base);
}
