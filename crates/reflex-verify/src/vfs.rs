//! Injectable filesystem for the proof store.
//!
//! PR 2 gave the *runtime* deterministic fault injection (`FaultPlan` /
//! `FaultyWorld`); this module applies the same discipline to the
//! *verifier's* environment. Everything the [`crate::ProofStore`] does to
//! disk goes through a [`VerifyFs`], so the chaos harness and the
//! robustness tests can replay a seeded schedule of I/O faults — ENOSPC,
//! short writes, torn (never-synced) writes, read EIO, fsync and rename
//! failures — against the real store code, byte for byte, and assert that
//! every one degrades to a cache miss or a reported error, never a wrong
//! certificate.
//!
//! Two implementations:
//!
//! * [`RealFs`] — the actual filesystem (the default everywhere);
//! * [`FaultyFs`] — wraps the real filesystem and injects faults from a
//!   deterministic [`FsFaultPlan`]: per-operation decisions are a pure
//!   function of `(seed, operation index)` via the same FNV fingerprinting
//!   the rest of the system uses, so a seed fully reproduces a schedule.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The filesystem operations the proof store needs. Implementations must
/// be shareable across the session's worker threads.
pub trait VerifyFs: fmt::Debug + Send + Sync {
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Writes a whole file (create or truncate).
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Appends bytes to the end of a file, creating it if missing — the
    /// log-structured store's segment writer.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Reads exactly `len` bytes starting at byte `offset`.
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>>;
    /// Truncates a file to exactly `len` bytes (discarding the tail).
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// The file's current length in bytes.
    fn file_len(&self, path: &Path) -> io::Result<u64>;
    /// Flushes a previously written file's contents to durable storage
    /// (`sync_all`). A failure here means the bytes may not survive a
    /// crash — callers must treat the file as unwritten.
    fn sync(&self, path: &Path) -> io::Result<()>;
    /// Atomically renames `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Removes an empty directory.
    fn remove_dir(&self, path: &Path) -> io::Result<()>;
    /// Creates a directory and all missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// The entries of a directory (files and subdirectories), sorted by
    /// file name so every caller iterates deterministically.
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
    /// Whether the path exists.
    fn exists(&self, path: &Path) -> bool;
    /// Whether callers may issue reads from multiple threads at once.
    /// Fault-injecting filesystems return `false`: their schedules key on
    /// a serial operation count, and concurrent reads would make fault
    /// placement nondeterministic. Bulk readers (the store's open-time
    /// index scan) fan out only when this is `true`.
    fn concurrent_reads(&self) -> bool {
        true
    }
}

/// The real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl VerifyFs for RealFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(bytes)
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        use std::io::{Read as _, Seek as _, SeekFrom};
        let mut f = fs::File::open(path)?;
        f.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        f.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        fs::OpenOptions::new().write(true).open(path)?.set_len(len)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Ok(fs::metadata(path)?.len())
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        fs::OpenOptions::new().read(true).open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn remove_dir(&self, path: &Path) -> io::Result<()> {
        fs::remove_dir(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut entries: Vec<PathBuf> = fs::read_dir(path)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        Ok(entries)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// The injectable fault classes, mirroring what flaky disks actually do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsFault {
    /// A read fails with EIO-style `Other`.
    ReadEio,
    /// A write fails up front with an ENOSPC-style error; nothing lands.
    WriteEnospc,
    /// A short write: a prefix of the bytes lands, then the write errors.
    WriteShort,
    /// A torn write: a prefix of the bytes lands and the write *reports
    /// success* — the loss only surfaces when the file is fsynced (or,
    /// if the caller skips fsync, never, which is exactly the
    /// crash-between-write-and-rename window the store must close).
    WriteTorn,
    /// `sync_all` fails; the file's contents must be treated as lost.
    SyncFail,
    /// The atomic rename fails.
    RenameFail,
}

/// Which operation class a fault decision is being made for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsOp {
    /// [`VerifyFs::read`].
    Read,
    /// [`VerifyFs::write`].
    Write,
    /// [`VerifyFs::sync`].
    Sync,
    /// [`VerifyFs::rename`].
    Rename,
}

/// A deterministic schedule of filesystem faults.
///
/// Like the runtime's `FaultPlan`, decisions are stateless functions of
/// the plan and an operation counter — no RNG state to keep in sync, so a
/// seed printed in a failing test reproduces the schedule exactly.
#[derive(Debug, Clone)]
pub enum FsFaultPlan {
    /// Inject nothing (useful as a baseline in harnesses).
    None,
    /// Fault each eligible operation with probability `rate_ppm` parts
    /// per million, derived from `(seed, operation index)`.
    Random {
        /// Schedule seed.
        seed: u64,
        /// Fault probability in parts per million (1_000_000 = always).
        rate_ppm: u32,
    },
    /// Fault exactly the listed operations: the `nth` (0-based) call of
    /// each [`FsOp`] class gets the given fault.
    Scripted(Vec<(FsOp, u64, FsFault)>),
}

impl FsFaultPlan {
    /// The fault (if any) for the `global`-th operation overall, which is
    /// the `of_kind`-th operation of class `op`.
    fn decide(&self, op: FsOp, global: u64, of_kind: u64) -> Option<FsFault> {
        match self {
            FsFaultPlan::None => None,
            FsFaultPlan::Random { seed, rate_ppm } => {
                // The roll lives in `reflex-rng` (shared with the
                // simulator's other injectors); it reproduces this
                // module's original FNV derivation bit for bit, pinned by
                // `fault_roll_matches_the_original_fp_hasher_derivation`.
                let roll = reflex_rng::fault_roll(*seed, global);
                if roll % 1_000_000 >= u64::from(*rate_ppm) {
                    return None;
                }
                // A second, independent draw picks the flavor.
                let flavor = (roll / 1_000_000) % 3;
                Some(match op {
                    FsOp::Read => FsFault::ReadEio,
                    FsOp::Write => match flavor {
                        0 => FsFault::WriteEnospc,
                        1 => FsFault::WriteShort,
                        _ => FsFault::WriteTorn,
                    },
                    FsOp::Sync => FsFault::SyncFail,
                    FsOp::Rename => FsFault::RenameFail,
                })
            }
            FsFaultPlan::Scripted(steps) => steps
                .iter()
                .find(|(o, nth, _)| *o == op && *nth == of_kind)
                .map(|(_, _, fault)| *fault),
        }
    }
}

#[derive(Debug)]
struct FaultyInner {
    real: RealFs,
    plan: FsFaultPlan,
    /// When cleared, the filesystem behaves perfectly — the harness's
    /// "disk recovered" switch.
    active: AtomicBool,
    ops: AtomicU64,
    per_kind: Mutex<HashMap<FsOp, u64>>,
    /// Files whose last write was torn: their bytes must be considered
    /// lost until a successful re-write, so fsync on them fails.
    torn: Mutex<HashSet<PathBuf>>,
    injected: AtomicU64,
}

/// A [`VerifyFs`] over the real filesystem that injects deterministic
/// faults from an [`FsFaultPlan`]. Clones share one schedule and one
/// operation counter.
#[derive(Debug, Clone)]
pub struct FaultyFs {
    inner: Arc<FaultyInner>,
}

impl FaultyFs {
    /// A faulty filesystem following `plan`.
    pub fn new(plan: FsFaultPlan) -> FaultyFs {
        FaultyFs {
            inner: Arc::new(FaultyInner {
                real: RealFs,
                plan,
                active: AtomicBool::new(true),
                ops: AtomicU64::new(0),
                per_kind: Mutex::new(HashMap::new()),
                torn: Mutex::new(HashSet::new()),
                injected: AtomicU64::new(0),
            }),
        }
    }

    /// A random schedule: each eligible operation faults with probability
    /// `rate_ppm` parts per million, derived from the seed.
    pub fn seeded(seed: u64, rate_ppm: u32) -> FaultyFs {
        FaultyFs::new(FsFaultPlan::Random { seed, rate_ppm })
    }

    /// Stops injecting faults — the disk has "recovered". Torn files stay
    /// torn until rewritten; the schedule's counters keep advancing so a
    /// later [`FaultyFs::unheal`] resumes the same schedule.
    pub fn heal(&self) {
        self.inner.active.store(false, Ordering::SeqCst);
    }

    /// Resumes injecting faults after [`FaultyFs::heal`].
    pub fn unheal(&self) {
        self.inner.active.store(true, Ordering::SeqCst);
    }

    /// How many faults have been injected so far.
    pub fn injected(&self) -> u64 {
        self.inner.injected.load(Ordering::SeqCst)
    }

    /// The fault (if any) to inject for the next operation of class `op`.
    fn next_fault(&self, op: FsOp) -> Option<FsFault> {
        let inner = &*self.inner;
        let global = inner.ops.fetch_add(1, Ordering::SeqCst);
        let of_kind = {
            let mut per_kind = inner.per_kind.lock().expect("per-kind counters poisoned");
            let slot = per_kind.entry(op).or_insert(0);
            let n = *slot;
            *slot += 1;
            n
        };
        if !inner.active.load(Ordering::SeqCst) {
            return None;
        }
        let fault = inner.plan.decide(op, global, of_kind);
        if fault.is_some() {
            inner.injected.fetch_add(1, Ordering::SeqCst);
        }
        fault
    }

    fn mark_torn(&self, path: &Path, torn: bool) {
        let mut set = self.inner.torn.lock().expect("torn set poisoned");
        if torn {
            set.insert(path.to_path_buf());
        } else {
            set.remove(path);
        }
    }

    fn is_torn(&self, path: &Path) -> bool {
        self.inner
            .torn
            .lock()
            .expect("torn set poisoned")
            .contains(path)
    }
}

fn injected(kind: &str) -> io::Error {
    io::Error::other(format!("injected fault: {kind}"))
}

impl VerifyFs for FaultyFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.next_fault(FsOp::Read) {
            Some(FsFault::ReadEio) => Err(injected("EIO on read")),
            _ => self.inner.real.read(path),
        }
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.next_fault(FsOp::Write) {
            Some(FsFault::WriteEnospc) => Err(injected("ENOSPC")),
            Some(FsFault::WriteShort) => {
                let _ = self.inner.real.write(path, &bytes[..bytes.len() / 2]);
                self.mark_torn(path, true);
                Err(injected("short write"))
            }
            Some(FsFault::WriteTorn) => {
                // The write *claims* success but only a prefix is durable:
                // the loss surfaces at fsync, or — if the caller skips
                // fsync — never, until the truncated frame is read back.
                self.inner.real.write(path, &bytes[..bytes.len() / 2])?;
                self.mark_torn(path, true);
                Ok(())
            }
            _ => {
                self.inner.real.write(path, bytes)?;
                self.mark_torn(path, false);
                Ok(())
            }
        }
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        // Appends share the write fault class: the same schedules that tear
        // whole-file writes tear segment appends, with the torn prefix
        // confined to the appended bytes (the already-durable head of the
        // segment is untouched, exactly like a real partial append).
        match self.next_fault(FsOp::Write) {
            Some(FsFault::WriteEnospc) => Err(injected("ENOSPC on append")),
            Some(FsFault::WriteShort) => {
                let _ = self.inner.real.append(path, &bytes[..bytes.len() / 2]);
                self.mark_torn(path, true);
                Err(injected("short append"))
            }
            Some(FsFault::WriteTorn) => {
                self.inner.real.append(path, &bytes[..bytes.len() / 2])?;
                self.mark_torn(path, true);
                Ok(())
            }
            // Unlike `write`, a clean append does NOT clear an earlier torn
            // mark: the lost bytes are still in the middle of the file, and
            // only truncating them away (or rewriting the whole file) makes
            // its contents trustworthy again.
            _ => self.inner.real.append(path, bytes),
        }
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        match self.next_fault(FsOp::Read) {
            Some(FsFault::ReadEio) => Err(injected("EIO on positioned read")),
            _ => self.inner.real.read_at(path, offset, len),
        }
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        // Truncation is how the store discards an untrusted (possibly torn)
        // tail after a failed append or fsync; once the tail is gone the
        // surviving prefix is exactly the bytes that were last synced, so
        // the torn mark is cleared.
        self.inner.real.truncate(path, len)?;
        self.mark_torn(path, false);
        Ok(())
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.inner.real.file_len(path)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        if self.is_torn(path) {
            // Syncing a torn file reports the lost bytes regardless of the
            // schedule: that is fsync doing its one job.
            return Err(injected("fsync surfaced a torn write"));
        }
        match self.next_fault(FsOp::Sync) {
            Some(FsFault::SyncFail) => Err(injected("fsync failure")),
            _ => self.inner.real.sync(path),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.next_fault(FsOp::Rename) {
            Some(FsFault::RenameFail) => Err(injected("rename failure")),
            _ => {
                self.inner.real.rename(from, to)?;
                if self.is_torn(from) {
                    self.mark_torn(from, false);
                    self.mark_torn(to, true);
                }
                Ok(())
            }
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.mark_torn(path, false);
        self.inner.real.remove_file(path)
    }

    fn remove_dir(&self, path: &Path) -> io::Result<()> {
        self.inner.real.remove_dir(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.real.create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.real.read_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.real.exists(path)
    }

    fn concurrent_reads(&self) -> bool {
        // Fault schedules are keyed on a serial op count; concurrent
        // readers would race for positions and break replay determinism.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_schedules_are_deterministic_per_seed() {
        let plan = FsFaultPlan::Random {
            seed: 7,
            rate_ppm: 200_000,
        };
        let a: Vec<Option<FsFault>> = (0..200).map(|i| plan.decide(FsOp::Write, i, i)).collect();
        let b: Vec<Option<FsFault>> = (0..200).map(|i| plan.decide(FsOp::Write, i, i)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(Option::is_some), "rate 20% must fire in 200");
        assert!(a.iter().any(Option::is_none), "rate 20% must also pass");
    }

    #[test]
    fn fault_roll_matches_the_original_fp_hasher_derivation() {
        // The roll used to be computed inline with reflex-ast's FpHasher;
        // recorded chaos seeds must keep their schedules now that it
        // lives in reflex-rng.
        for seed in [0u64, 7, 0xBEEF] {
            for global in 0..512u64 {
                let mut h = reflex_ast::fingerprint::FpHasher::new();
                h.write_str("fs-fault");
                h.write(&seed.to_le_bytes());
                h.write(&global.to_le_bytes());
                assert_eq!(
                    reflex_rng::fault_roll(seed, global),
                    h.finish().0,
                    "seed {seed} op {global}"
                );
            }
        }
    }

    #[test]
    fn scripted_faults_hit_the_nth_call_of_their_kind() {
        let fs = FaultyFs::new(FsFaultPlan::Scripted(vec![(
            FsOp::Write,
            1,
            FsFault::WriteEnospc,
        )]));
        let dir = std::env::temp_dir().join(format!("rx-vfs-test-{}", std::process::id()));
        fs.create_dir_all(&dir).unwrap();
        let p = dir.join("a");
        assert!(fs.write(&p, b"first").is_ok());
        assert!(fs.write(&p, b"second").is_err(), "second write faults");
        assert!(fs.write(&p, b"third").is_ok());
        assert_eq!(fs.injected(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_writes_report_success_but_fail_fsync() {
        let fs = FaultyFs::new(FsFaultPlan::Scripted(vec![(
            FsOp::Write,
            0,
            FsFault::WriteTorn,
        )]));
        let dir = std::env::temp_dir().join(format!("rx-vfs-torn-{}", std::process::id()));
        fs.create_dir_all(&dir).unwrap();
        let p = dir.join("frame");
        assert!(fs.write(&p, b"0123456789").is_ok(), "torn write lies");
        assert_eq!(fs.read(&p).unwrap(), b"01234", "only a prefix landed");
        assert!(fs.sync(&p).is_err(), "fsync surfaces the loss");
        // A healthy rewrite clears the torn state.
        assert!(fs.write(&p, b"ok").is_ok());
        assert!(fs.sync(&p).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_appends_stay_torn_until_truncated() {
        let fs = FaultyFs::new(FsFaultPlan::Scripted(vec![(
            FsOp::Write,
            1,
            FsFault::WriteTorn,
        )]));
        let dir = std::env::temp_dir().join(format!("rx-vfs-append-{}", std::process::id()));
        fs.create_dir_all(&dir).unwrap();
        let p = dir.join("seg");
        assert!(fs.append(&p, b"aaaa").is_ok());
        assert!(fs.sync(&p).is_ok(), "clean append syncs");
        assert!(fs.append(&p, b"bbbb").is_ok(), "torn append lies");
        assert_eq!(fs.read(&p).unwrap(), b"aaaabb", "half the append landed");
        assert!(fs.sync(&p).is_err(), "fsync surfaces the torn append");
        // A later clean append does not absolve the torn middle…
        assert!(fs.append(&p, b"cc").is_ok());
        assert!(fs.sync(&p).is_err(), "file still untrustworthy");
        // …but truncating the untrusted tail back to the durable prefix does.
        assert!(fs.truncate(&p, 4).is_ok());
        assert!(fs.sync(&p).is_ok());
        assert_eq!(fs.read(&p).unwrap(), b"aaaa");
        assert_eq!(fs.file_len(&p).unwrap(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn positioned_reads_share_the_read_fault_class() {
        let fs = FaultyFs::new(FsFaultPlan::Scripted(vec![(
            FsOp::Read,
            0,
            FsFault::ReadEio,
        )]));
        let dir = std::env::temp_dir().join(format!("rx-vfs-readat-{}", std::process::id()));
        fs.create_dir_all(&dir).unwrap();
        let p = dir.join("x");
        fs.write(&p, b"0123456789").unwrap();
        assert!(fs.read_at(&p, 2, 4).is_err(), "first read faults");
        assert_eq!(fs.read_at(&p, 2, 4).unwrap(), b"2345");
        assert_eq!(fs.injected(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn healing_stops_injection() {
        let fs = FaultyFs::seeded(3, 1_000_000);
        let dir = std::env::temp_dir().join(format!("rx-vfs-heal-{}", std::process::id()));
        fs.create_dir_all(&dir).unwrap();
        let p = dir.join("x");
        assert!(fs.write(&p, b"abcd").is_err() || fs.is_torn(&p));
        fs.heal();
        assert!(fs.write(&p, b"abcd").is_ok());
        assert!(fs.sync(&p).is_ok());
        assert_eq!(fs.read(&p).unwrap(), b"abcd");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
