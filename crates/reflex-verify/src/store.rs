//! The persistent, content-addressed proof store (`.rx-store/`).
//!
//! Since PR 8 the store is **log-structured**: certificates append to
//! length-framed segment logs sharded 16 ways by a fingerprint of their
//! key, an in-memory index is rebuilt on open by scanning segment frames,
//! and writes are made durable by group-commit batched fsync
//! ([`ProofStore::flush`]). A bounded LRU hot tier serves repeat lookups
//! without re-reading or re-decoding — warm `rx watch` sessions hit it on
//! every iteration. The layout under the store root:
//!
//! ```text
//! MANIFEST                    framed list of live segments per shard
//! shard-00/seg-00000000.log   length-framed certificate frames
//! …
//! shard-0f/seg-0000001c.log
//! head-{name fp}-{opts}.head  one head record per (program, options)
//! {prog}-{prop}-{opts}.cert   legacy flat entries (read-only, migrated
//!                             by `rx store migrate` / compaction)
//! quarantine/                 corrupt frames + sequenced scrub reports
//! ```
//!
//! An entry is keyed by content —
//! `(program fp, property fp, options fp)` — where the program
//! fingerprint covers declarations plus all handlers (properties
//! excluded, so editing one property never invalidates the others'
//! entries), the property fingerprint covers the statement, and the
//! options fingerprint covers every [`ProverOptions`] field that can
//! change a certificate. Content addressing makes the store
//! append-mostly: editing back and forth between two program versions
//! hits both sets of entries, and concurrent writers racing on one key
//! write identical bytes, so duplicate frames are harmless and
//! first-frame-wins on open.
//!
//! A small **head** file per (program name, options fingerprint) records
//! which program fingerprint the last run proved and under which property
//! fingerprints, so the next run can find the *previous* version's
//! certificates for cross-edit planning (full or per-case reuse via
//! [`crate::DepGraph`]) even though their keys contain old fingerprints.
//!
//! # Durability
//!
//! Appends are batched: [`ProofStore::save`] registers the entry in the
//! index immediately but the segment is only fsynced at the next group
//! commit ([`ProofStore::flush`], called once per
//! [`persist_outcomes`] run). If that fsync fails, the unsynced suffix is
//! untrustworthy: the store rolls the batch back — drops the entries from
//! the index, truncates the segment to its last durable length, seals it
//! — and reports the loss through [`ProofStore::dropped_entries`]. A
//! segment is rolled at a size cap; the roll rewrites `MANIFEST` (write
//! to temporary, fsync, rename — the PR 5 discipline) *before* the first
//! append, so a crash can leave at worst a manifest entry for a missing
//! or empty segment, never a data-bearing segment the manifest does not
//! know about. Compaction ([`ProofStore::compact`]) folds the scrub /
//! quarantine pass in: it rewrites live entries into fresh segments,
//! drops superseded frames, quarantines corrupt ones, migrates legacy
//! flat entries and atomically swaps the manifest.
//!
//! # Trust
//!
//! The store is untrusted, like the proof search and the incremental
//! planner. Four layers keep that safe:
//!
//! 1. every frame carries a versioned magic header and an integrity
//!    fingerprint of its payload — mismatches, truncations and decode
//!    errors all degrade to cache **misses**, never errors (a corrupt
//!    frame also ends its segment's scan: nothing after it is trusted);
//! 2. decoding rebuilds the exact stored structure (terms are re-interned
//!    without re-simplification), so round-tripping is the identity;
//! 3. every certificate loaded from disk must pass
//!    [`crate::check_certificate`] against the *current* program before
//!    its reuse is reported — a corrupt-but-decodable entry costs a
//!    re-prove, never a wrong "Proved";
//! 4. integrity fingerprints are re-checked on every segment read, so bit
//!    rot after the index was built is still a miss, not a bad decode.

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use reflex_ast::fingerprint::{Fp, FpHasher};
use reflex_typeck::CheckedProgram;

use crate::certificate::Certificate;
use crate::codec::{dec_certificate, enc_certificate, Dec, Enc};
use crate::incremental::IncrementalReport;
use crate::options::{Outcome, ProverOptions, VerifyError};
use crate::vfs::{RealFs, VerifyFs};
use crate::Abstraction;

/// On-disk format version; bumped whenever the encoding changes. Entries
/// written by any other version read as misses.
pub const STORE_VERSION: u32 = 1;

/// Flat-file frame magic (head records, legacy `.cert` entries, MANIFEST).
const MAGIC: &[u8; 4] = b"RXPS";
/// Per-entry frame magic inside segment logs.
const SEGMENT_MAGIC: &[u8; 4] = b"RXSG";
/// Segment frame header: magic (4) + version (4) + key (3×8) + payload
/// length (4) + payload fingerprint (8).
const FRAME_HEADER: usize = 44;
/// Fingerprint-prefix shards.
const SHARD_COUNT: usize = 16;
/// Segments roll once they exceed this many bytes.
const SEGMENT_CAP_BYTES: u64 = 4 * 1024 * 1024;
/// Group commit early when a shard accumulates this many unsynced bytes.
const GROUP_COMMIT_BYTES: u64 = 256 * 1024;
/// Hot-tier capacity, in certificates.
const LRU_CAPACITY: usize = 256;
/// The manifest file name under the store root.
const MANIFEST_FILE: &str = "MANIFEST";

/// A store key: (program fp, property fp, options fp).
type Key = (Fp, Fp, Fp);

/// Where an indexed entry lives.
#[derive(Debug, Clone, Copy)]
enum Loc {
    /// A frame inside a segment log; `offset`/`len` bound the payload.
    Seg {
        shard: u8,
        seq: u64,
        offset: u64,
        len: u32,
        payload_fp: u64,
    },
    /// A legacy flat `{prog}-{prop}-{opts}.cert` file.
    Flat,
}

/// Per-shard append state.
#[derive(Debug, Clone, Default)]
struct ShardState {
    /// The segment currently accepting appends, if any.
    active: Option<u64>,
    /// Logical file length after every successful append.
    written: u64,
    /// Length covered by the last successful fsync.
    durable: u64,
    /// Whether `written > durable` (an fsync is owed).
    dirty: bool,
    /// Keys appended since the last successful fsync, in order.
    pending: Vec<Key>,
}

/// The live segment list, per shard, plus the next segment sequence
/// number. Rewritten atomically on every roll and compaction.
#[derive(Debug, Clone)]
struct Manifest {
    segments: Vec<Vec<u64>>,
    next_seq: u64,
}

impl Manifest {
    fn empty() -> Manifest {
        Manifest {
            segments: vec![Vec::new(); SHARD_COUNT],
            next_seq: 0,
        }
    }
}

/// Everything the log engine mutates, under one lock: the key index, the
/// per-shard append states and the manifest.
#[derive(Debug)]
struct LogState {
    index: HashMap<Key, Loc>,
    shards: Vec<ShardState>,
    manifest: Manifest,
    /// Wall-clock cost of the open-time index build, milliseconds.
    build_ms: f64,
    /// Segments that could not be read at open (their entries are misses).
    scan_skipped: u64,
}

/// The bounded LRU hot tier: decoded certificates for repeat lookups.
///
/// Entries are shared [`Arc`] handles, so a warm hit costs a pointer
/// bump rather than a deep clone of the certificate.
#[derive(Debug, Default)]
struct Lru {
    map: HashMap<Key, (u64, Arc<Certificate>)>,
    tick: u64,
}

impl Lru {
    fn get(&mut self, key: &Key) -> Option<Arc<Certificate>> {
        self.tick += 1;
        let tick = self.tick;
        let (stamp, cert) = self.map.get_mut(key)?;
        *stamp = tick;
        Some(Arc::clone(cert))
    }

    fn insert(&mut self, key: Key, cert: Arc<Certificate>) {
        self.tick += 1;
        if self.map.len() >= LRU_CAPACITY && !self.map.contains_key(&key) {
            // Capacity is small enough that a linear eviction scan beats
            // maintaining an intrusive list.
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| *k)
            {
                self.map.remove(&victim);
            }
        }
        self.map.insert(key, (self.tick, cert));
    }

    fn remove(&mut self, key: &Key) {
        self.map.remove(key);
    }
}

#[derive(Debug)]
struct StoreInner {
    root: PathBuf,
    /// Every disk touch goes through this, so tests and the chaos harness
    /// can inject a [`crate::vfs::FaultyFs`].
    fs: Arc<dyn VerifyFs>,
    /// Unexpected I/O failures observed (not plain not-found misses) —
    /// the watch loop's degradation signal.
    io_errors: AtomicU64,
    /// Entries rolled back because their group commit failed: they were
    /// reported saved, then dropped when the fsync said otherwise.
    dropped: AtomicU64,
    log: Mutex<LogState>,
    lru: Mutex<Lru>,
}

impl Drop for StoreInner {
    fn drop(&mut self) {
        // Last handle out syncs whatever the final group commit missed.
        let _ = self.flush_all();
    }
}

/// A handle to an on-disk proof store directory.
///
/// Cheap to clone: clones share the index, segment states, hot tier and
/// I/O error counter.
#[derive(Debug, Clone)]
pub struct ProofStore {
    inner: Arc<StoreInner>,
}

/// What the last successful run against a program (by name) proved: the
/// program fingerprint it ran over and the property fingerprints its
/// certificates are filed under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreHead {
    /// The program fingerprint of that run.
    pub program: Fp,
    /// `(property name, property fingerprint)` pairs of that run.
    pub properties: Vec<(String, Fp)>,
}

/// Adds the offending path and action to an I/O error so multi-layer
/// failures (which shard? which segment?) stay diagnosable.
fn err_at(e: io::Error, action: &str, path: &Path) -> io::Error {
    io::Error::new(
        e.kind(),
        format!("proof store: {action} {}: {e}", path.display()),
    )
}

fn shard_dir_name(shard: usize) -> String {
    format!("shard-{shard:02x}")
}

fn segment_file_name(seq: u64) -> String {
    format!("seg-{seq:08}.log")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// Which shard a key's frames live in: a fingerprint of the full key,
/// folded to `SHARD_COUNT`.
fn shard_of(key: Key) -> usize {
    let mut h = FpHasher::new();
    h.write(&key.0 .0.to_le_bytes());
    h.write(&key.1 .0.to_le_bytes());
    h.write(&key.2 .0.to_le_bytes());
    (h.finish().0 as usize) % SHARD_COUNT
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = FpHasher::new();
    h.write(bytes);
    h.finish().0
}

/// Builds one segment frame; returns the frame and the payload fingerprint.
fn build_frame(key: Key, payload: &[u8]) -> (Vec<u8>, u64) {
    let pfp = fnv(payload);
    let mut f = Vec::with_capacity(FRAME_HEADER + payload.len());
    f.extend_from_slice(SEGMENT_MAGIC);
    f.extend_from_slice(&STORE_VERSION.to_le_bytes());
    f.extend_from_slice(&key.0 .0.to_le_bytes());
    f.extend_from_slice(&key.1 .0.to_le_bytes());
    f.extend_from_slice(&key.2 .0.to_le_bytes());
    f.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("payload fits u32")
            .to_le_bytes(),
    );
    f.extend_from_slice(&pfp.to_le_bytes());
    f.extend_from_slice(payload);
    (f, pfp)
}

/// One parsed-and-verified segment frame.
struct Frame {
    key: Key,
    payload_start: usize,
    payload_len: usize,
    payload_fp: u64,
}

/// Parses the frame at `pos`, verifying magic, version, bounds and the
/// payload integrity fingerprint. `None` ends the segment scan: nothing
/// past an unparseable frame is trusted.
fn parse_frame(bytes: &[u8], pos: usize) -> Option<Frame> {
    let hdr = bytes.get(pos..pos.checked_add(FRAME_HEADER)?)?;
    if &hdr[0..4] != SEGMENT_MAGIC {
        return None;
    }
    if u32::from_le_bytes(hdr[4..8].try_into().ok()?) != STORE_VERSION {
        return None;
    }
    let word = |a: usize| u64::from_le_bytes(hdr[a..a + 8].try_into().expect("8 bytes"));
    let key = (Fp(word(8)), Fp(word(16)), Fp(word(24)));
    let payload_len = u32::from_le_bytes(hdr[32..36].try_into().ok()?) as usize;
    let payload_fp = u64::from_le_bytes(hdr[36..44].try_into().ok()?);
    let payload_start = pos + FRAME_HEADER;
    let payload = bytes.get(payload_start..payload_start.checked_add(payload_len)?)?;
    if fnv(payload) != payload_fp {
        return None;
    }
    Some(Frame {
        key,
        payload_start,
        payload_len,
        payload_fp,
    })
}

/// Parses a legacy flat entry file name back into its key.
fn parse_entry_name(name: &str) -> Option<Key> {
    let stem = name.strip_suffix(".cert")?;
    let mut parts = stem.split('-');
    let (a, b, c) = (parts.next()?, parts.next()?, parts.next()?);
    if parts.next().is_some() {
        return None;
    }
    let fp = |s: &str| {
        (s.len() == 16)
            .then(|| u64::from_str_radix(s, 16).ok())
            .flatten()
            .map(Fp)
    };
    Some((fp(a)?, fp(b)?, fp(c)?))
}

fn enc_manifest(m: &Manifest) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(SHARD_COUNT as u32);
    e.u64(m.next_seq);
    for segs in &m.segments {
        e.len(segs.len());
        for s in segs {
            e.u64(*s);
        }
    }
    e.buf
}

fn dec_manifest(payload: &[u8]) -> Option<Manifest> {
    let mut d = Dec::new(payload);
    if d.u32()? as usize != SHARD_COUNT {
        return None;
    }
    let next_seq = d.u64()?;
    let mut segments = Vec::with_capacity(SHARD_COUNT);
    for _ in 0..SHARD_COUNT {
        let n = d.len()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(d.u64()?);
        }
        segments.push(v);
    }
    d.finish()?;
    Some(Manifest { segments, next_seq })
}

impl ProofStore {
    /// Opens (creating if needed) the store rooted at `dir`, on the real
    /// filesystem, and builds the in-memory index by scanning segment
    /// frames (plus any legacy flat entries).
    ///
    /// # Errors
    ///
    /// Fails only if the store root cannot be created or listed; the error
    /// message names the path. Unreadable segments degrade to misses and
    /// are counted, not errors.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<ProofStore> {
        ProofStore::open_with(dir, Arc::new(RealFs))
    }

    /// Opens (creating if needed) the store rooted at `dir`, routing every
    /// disk operation through `fs` — the fault-injection seam used by the
    /// robustness tests and the simulator.
    ///
    /// # Errors
    ///
    /// As [`ProofStore::open`].
    pub fn open_with(dir: impl AsRef<Path>, fs: Arc<dyn VerifyFs>) -> io::Result<ProofStore> {
        let root = dir.as_ref().to_path_buf();
        fs.create_dir_all(&root)
            .map_err(|e| err_at(e, "create store root", &root))?;
        let io_errors = AtomicU64::new(0);
        let t0 = Instant::now();
        let mut log = build_log_state(fs.as_ref(), &root, &io_errors)?;
        log.build_ms = t0.elapsed().as_secs_f64() * 1e3;
        Ok(ProofStore {
            inner: Arc::new(StoreInner {
                root,
                fs,
                io_errors,
                dropped: AtomicU64::new(0),
                log: Mutex::new(log),
                lru: Mutex::new(Lru::default()),
            }),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.inner.root
    }

    /// Unexpected I/O failures observed by this handle (and its clones)
    /// since opening. Plain not-found reads of *unindexed* keys are
    /// misses, not errors; the watch loop compares snapshots of this
    /// counter to decide when the store has become unreliable.
    pub fn io_errors(&self) -> u64 {
        self.inner.io_errors.load(Ordering::SeqCst)
    }

    /// Entries whose group commit failed after [`ProofStore::save`] had
    /// already reported them saved: the fsync rollback dropped them from
    /// the index, so they are misses now. [`persist_outcomes`] subtracts
    /// the delta from its saved count.
    pub fn dropped_entries(&self) -> u64 {
        self.inner.dropped.load(Ordering::SeqCst)
    }

    fn count_io_error(&self) {
        self.inner.count_io_error();
    }

    /// A quick read-back health check: writes a small framed probe entry,
    /// reads it back, and removes it. The watch loop calls this before
    /// re-attaching a degraded store.
    ///
    /// # Errors
    ///
    /// Any write, sync, rename or read-back failure.
    pub fn probe(&self) -> io::Result<()> {
        let path = self
            .inner
            .root
            .join(format!(".probe-{}", std::process::id()));
        self.inner.write_framed(&path, b"probe")?;
        let ok = matches!(self.inner.read_framed(&path), Some(p) if p == b"probe");
        let _ = self.inner.fs.remove_file(&path);
        if ok {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "probe entry did not read back intact",
            ))
        }
    }

    fn entry_path(&self, program: Fp, property: Fp, options: Fp) -> PathBuf {
        self.inner
            .root
            .join(format!("{program}-{property}-{options}.cert"))
    }

    fn head_path(&self, program_name: &str, options: Fp) -> PathBuf {
        // Head files are looked up before any fingerprint of the current
        // source is known, so they key on the (hashed) program *name*.
        let name = reflex_ast::fingerprint::fp_str(program_name);
        self.inner.root.join(format!("head-{name}-{options}.head"))
    }

    /// Loads the certificate stored under the given key, or `None` if
    /// absent, unreadable, truncated, corrupt or written by a different
    /// format version (all of these are cache misses, not errors).
    ///
    /// Hot entries are served from the LRU tier without touching disk,
    /// as shared handles — a warm hit costs neither deserialization nor
    /// a deep clone. Cold segment hits re-verify the payload fingerprint
    /// before decoding, so bit rot after open is still a miss.
    pub fn load(&self, program: Fp, property: Fp, options: Fp) -> Option<Arc<Certificate>> {
        let key = (program, property, options);
        if let Some(cert) = self.inner.lru_lock().get(&key) {
            return Some(cert);
        }
        let loc = self.inner.log_lock().index.get(&key).copied();
        let cert = match loc {
            Some(Loc::Seg {
                shard,
                seq,
                offset,
                len,
                payload_fp,
            }) => {
                let path = self.inner.segment_path(shard as usize, seq);
                let payload = match self.inner.fs.read_at(&path, offset, len as usize) {
                    Ok(p) => p,
                    Err(_) => {
                        // An *indexed* entry failing to read is unexpected
                        // (even NotFound: a racing compaction swept the
                        // segment from under us) — degradation signal.
                        self.count_io_error();
                        return None;
                    }
                };
                if fnv(&payload) != payload_fp {
                    return None;
                }
                decode_cert_payload(&payload)?
            }
            // Legacy flat entries, and keys another process may have
            // written flat since we opened, read through the framed path.
            Some(Loc::Flat) | None => {
                let payload = self
                    .inner
                    .read_framed(&self.entry_path(program, property, options))?;
                decode_cert_payload(&payload)?
            }
        };
        let cert = Arc::new(cert);
        self.inner.lru_lock().insert(key, Arc::clone(&cert));
        Some(cert)
    }

    /// Stores `cert` under the given key by appending a frame to its
    /// shard's active segment (rolling to a fresh segment at the size
    /// cap). An existing entry is left alone: keys are content-addressed,
    /// so it already holds the same bytes.
    ///
    /// The append is *not* fsynced here — durability comes from the next
    /// group commit ([`ProofStore::flush`]); a failed commit rolls the
    /// batch back and counts it in [`ProofStore::dropped_entries`].
    ///
    /// # Errors
    ///
    /// Propagates append/roll I/O failures (with the segment or manifest
    /// path in the message); callers persisting opportunistically may
    /// ignore them (a failed write is a future miss).
    pub fn save(
        &self,
        program: Fp,
        property: Fp,
        options: Fp,
        cert: &Certificate,
    ) -> io::Result<()> {
        let key = (program, property, options);
        if self.inner.log_lock().index.contains_key(&key) {
            return Ok(());
        }
        let mut e = Enc::new();
        enc_certificate(&mut e, cert);
        let (frame, payload_fp) = build_frame(key, &e.buf);
        let payload_len = u32::try_from(e.buf.len()).expect("payload fits u32");
        let mut log = self.inner.log_lock();
        if log.index.contains_key(&key) {
            return Ok(()); // raced with another clone
        }
        self.inner
            .append_entry(&mut log, key, frame, payload_len, payload_fp)
    }

    /// Fsyncs every shard's unsynced appends — the group commit. On a
    /// failed shard the unsynced batch is rolled back (dropped from the
    /// index, truncated away, segment sealed) and counted in
    /// [`ProofStore::dropped_entries`].
    ///
    /// # Errors
    ///
    /// The first fsync failure, with the segment path in the message;
    /// every shard is attempted regardless.
    pub fn flush(&self) -> io::Result<()> {
        self.inner.flush_all()
    }

    /// Every key the index currently serves (segment and flat entries),
    /// sorted — the compaction-loss invariant in `reflex-sim` diffs this
    /// across a compaction.
    pub fn entries(&self) -> Vec<(Fp, Fp, Fp)> {
        let log = self.inner.log_lock();
        let mut keys: Vec<Key> = log.index.keys().copied().collect();
        keys.sort();
        keys
    }

    /// Loads the head record for (`program_name`, `options`), with the same
    /// miss semantics as [`ProofStore::load`].
    pub fn load_head(&self, program_name: &str, options: Fp) -> Option<StoreHead> {
        let payload = self
            .inner
            .read_framed(&self.head_path(program_name, options))?;
        decode_head(&payload)
    }

    /// Stores the head record for (`program_name`, `options`), atomically
    /// (write to a temporary file, fsync, rename). A head already on disk
    /// with the same bytes is left alone: a repeated run of an unchanged
    /// program reads the head instead of rewriting it.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save_head(&self, program_name: &str, options: Fp, head: &StoreHead) -> io::Result<()> {
        let mut e = Enc::new();
        e.fp(head.program);
        e.len(head.properties.len());
        for (name, fp) in &head.properties {
            e.str(name);
            e.fp(*fp);
        }
        let path = self.head_path(program_name, options);
        if self.inner.read_framed(&path).as_deref() == Some(e.buf.as_slice()) {
            return Ok(());
        }
        self.inner.write_framed(&path, &e.buf)
    }

    /// Writes a legacy flat-file entry (the pre-PR-8 one-file-per-
    /// certificate format). Kept for the `rx bench store` flat baseline
    /// and the migration tests; new code appends to segments via
    /// [`ProofStore::save`].
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_flat_entry(
        &self,
        program: Fp,
        property: Fp,
        options: Fp,
        cert: &Certificate,
    ) -> io::Result<()> {
        let path = self.entry_path(program, property, options);
        if self.inner.fs.exists(&path) {
            return Ok(());
        }
        let mut e = Enc::new();
        enc_certificate(&mut e, cert);
        self.inner.write_framed(&path, &e.buf)?;
        self.inner
            .log_lock()
            .index
            .entry((program, property, options))
            .or_insert(Loc::Flat);
        Ok(())
    }
}

/// Decodes a certificate payload, requiring full consumption.
fn decode_cert_payload(payload: &[u8]) -> Option<Certificate> {
    let mut d = Dec::new(payload);
    let cert = dec_certificate(&mut d)?;
    d.finish()?;
    Some(cert)
}

/// Decodes a head record's payload.
fn decode_head(payload: &[u8]) -> Option<StoreHead> {
    let mut d = Dec::new(payload);
    let program = d.fp()?;
    let n = d.len()?;
    let mut properties = Vec::with_capacity(n);
    for _ in 0..n {
        let name = d.str()?;
        let fp = d.fp()?;
        properties.push((name, fp));
    }
    d.finish()?;
    Some(StoreHead {
        program,
        properties,
    })
}

/// Validates and strips a framed file's header, returning the payload, or
/// `None` for any mismatch.
fn decode_frame(bytes: &[u8]) -> Option<Vec<u8>> {
    if bytes.len() < 16 || &bytes[0..4] != MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
    if version != STORE_VERSION {
        return None;
    }
    let stored_fp = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
    let payload = &bytes[16..];
    if fnv(payload) != stored_fp {
        return None;
    }
    Some(payload.to_vec())
}

impl StoreInner {
    fn count_io_error(&self) {
        self.io_errors.fetch_add(1, Ordering::SeqCst);
    }

    fn log_lock(&self) -> std::sync::MutexGuard<'_, LogState> {
        self.log.lock().expect("store log state poisoned")
    }

    fn lru_lock(&self) -> std::sync::MutexGuard<'_, Lru> {
        self.lru.lock().expect("store hot tier poisoned")
    }

    fn segment_path(&self, shard: usize, seq: u64) -> PathBuf {
        self.root
            .join(shard_dir_name(shard))
            .join(segment_file_name(seq))
    }

    /// Reads a framed file: magic, version, payload integrity fingerprint,
    /// payload. Any mismatch is a miss (`None`); unexpected I/O errors
    /// (anything but not-found) also bump the I/O error counter.
    fn read_framed(&self, path: &Path) -> Option<Vec<u8>> {
        let bytes = match self.fs.read(path) {
            Ok(bytes) => bytes,
            Err(e) => {
                if e.kind() != io::ErrorKind::NotFound {
                    self.count_io_error();
                }
                return None;
            }
        };
        decode_frame(&bytes)
    }

    /// Writes a framed file atomically and durably: temporary file, then
    /// `sync_all`, then rename. The fsync closes the crash window between
    /// write and rename — without it, a crash (or a torn page-cache write)
    /// could leave a *renamed* frame with lost bytes. The bytes are a
    /// deterministic function of the payload — no timestamps — so
    /// identical content always produces identical files.
    fn write_framed(&self, path: &Path, payload: &[u8]) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(16 + payload.len());
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&STORE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&fnv(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        self.write_atomic(path, &bytes)
    }

    /// Raw write-fsync-rename (the PR 5 discipline) for already-framed
    /// bytes: compaction's fresh segments and the manifest swap.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let dir = path.parent().unwrap_or_else(|| Path::new("."));
        let file_name = path.file_name().and_then(|n| n.to_str()).unwrap_or("entry");
        let tmp = dir.join(format!(".tmp-{}-{file_name}", std::process::id()));
        let result = self
            .fs
            .write(&tmp, bytes)
            .and_then(|()| self.fs.sync(&tmp))
            .and_then(|()| self.fs.rename(&tmp, path));
        if let Err(e) = result {
            self.count_io_error();
            // Best-effort: do not leave the torn temporary behind (scrub
            // sweeps up any that survive a crash).
            let _ = self.fs.remove_file(&tmp);
            return Err(err_at(e, "write", path));
        }
        Ok(())
    }

    /// Writes `m` as the new MANIFEST, atomically.
    fn write_manifest(&self, m: &Manifest) -> io::Result<()> {
        self.write_framed(&self.root.join(MANIFEST_FILE), &enc_manifest(m))
    }

    /// Appends one framed entry to its shard, rolling segments as needed
    /// and registering the entry in the index. Group-commits early when
    /// the shard's unsynced batch crosses [`GROUP_COMMIT_BYTES`].
    fn append_entry(
        &self,
        log: &mut LogState,
        key: Key,
        frame: Vec<u8>,
        payload_len: u32,
        payload_fp: u64,
    ) -> io::Result<()> {
        let shard = shard_of(key);
        let needs_roll = match log.shards[shard].active {
            None => true,
            Some(_) => {
                log.shards[shard].written > 0
                    && log.shards[shard].written + frame.len() as u64 > SEGMENT_CAP_BYTES
            }
        };
        if needs_roll {
            self.roll_segment(log, shard)?;
        }
        let seq = log.shards[shard]
            .active
            .expect("rolled shard has a segment");
        let path = self.segment_path(shard, seq);
        match self.fs.append(&path, &frame) {
            Ok(()) => {
                let offset = log.shards[shard].written + FRAME_HEADER as u64;
                log.index.insert(
                    key,
                    Loc::Seg {
                        shard: shard as u8,
                        seq,
                        offset,
                        len: payload_len,
                        payload_fp,
                    },
                );
                let st = &mut log.shards[shard];
                st.written += frame.len() as u64;
                st.dirty = true;
                st.pending.push(key);
                if st.written - st.durable >= GROUP_COMMIT_BYTES {
                    // Opportunistic early commit; a failure already rolled
                    // this batch back (including the entry just appended),
                    // and the caller's save still reports Ok — the drop is
                    // accounted through `dropped_entries`.
                    let _ = self.flush_shard(log, shard);
                }
                Ok(())
            }
            Err(e) => {
                self.count_io_error();
                // Partial bytes may have landed, and the shard's unsynced
                // batch can no longer be committed through this segment.
                // Drop back to the durable prefix (which also trims the
                // failed append) and seal; the next append starts fresh.
                self.rollback_shard(log, shard);
                Err(err_at(e, "append to segment", &path))
            }
        }
    }

    /// Starts a fresh segment for `shard`: syncs out the old one, then
    /// rewrites the manifest *before* the first append — so a crash can
    /// leave a manifest entry for a missing/empty segment (harmless),
    /// never an unlisted data-bearing segment.
    fn roll_segment(&self, log: &mut LogState, shard: usize) -> io::Result<()> {
        self.flush_shard(log, shard)?;
        let dir = self.root.join(shard_dir_name(shard));
        self.fs.create_dir_all(&dir).map_err(|e| {
            self.count_io_error();
            err_at(e, "create shard directory", &dir)
        })?;
        let seq = log.manifest.next_seq;
        let mut m2 = log.manifest.clone();
        m2.segments[shard].push(seq);
        m2.next_seq = seq + 1;
        self.write_manifest(&m2)?;
        log.manifest = m2;
        let st = &mut log.shards[shard];
        st.active = Some(seq);
        st.written = 0;
        st.durable = 0;
        st.dirty = false;
        st.pending.clear();
        Ok(())
    }

    /// Fsyncs one shard's active segment. On failure the unsynced batch
    /// is rolled back: those bytes may not survive a crash, so the store
    /// must stop serving them now.
    fn flush_shard(&self, log: &mut LogState, shard: usize) -> io::Result<()> {
        if !log.shards[shard].dirty {
            return Ok(());
        }
        let seq = log.shards[shard].active.expect("dirty shard has a segment");
        let path = self.segment_path(shard, seq);
        match self.fs.sync(&path) {
            Ok(()) => {
                let st = &mut log.shards[shard];
                st.durable = st.written;
                st.dirty = false;
                st.pending.clear();
                Ok(())
            }
            Err(e) => {
                self.count_io_error();
                self.rollback_shard(log, shard);
                Err(err_at(e, "fsync segment", &path))
            }
        }
    }

    /// Drops a shard's unsynced batch: removes the entries from the index
    /// (and hot tier), truncates the segment back to its durable length,
    /// seals it, and counts the loss.
    fn rollback_shard(&self, log: &mut LogState, shard: usize) {
        let (pending, durable, active) = {
            let st = &mut log.shards[shard];
            let pending = std::mem::take(&mut st.pending);
            let (durable, active) = (st.durable, st.active);
            st.written = durable;
            st.dirty = false;
            st.active = None;
            (pending, durable, active)
        };
        if pending.is_empty() {
            return;
        }
        for k in &pending {
            log.index.remove(k);
        }
        {
            let mut lru = self.lru_lock();
            for k in &pending {
                lru.remove(k);
            }
        }
        self.dropped
            .fetch_add(pending.len() as u64, Ordering::SeqCst);
        if let Some(seq) = active {
            // Also clears any torn mark under FaultyFs: the untrusted tail
            // is exactly what gets cut away.
            let _ = self.fs.truncate(&self.segment_path(shard, seq), durable);
        }
    }

    /// The group commit over every shard.
    fn flush_all(&self) -> io::Result<()> {
        let mut log = self.log_lock();
        let mut first: Option<io::Error> = None;
        for shard in 0..SHARD_COUNT {
            if let Err(e) = self.flush_shard(&mut log, shard) {
                first.get_or_insert(e);
            }
        }
        match first {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

/// Rebuilds the in-memory index by scanning the manifest's segments (and
/// any orphans on disk), then legacy flat entries. Unreadable segments
/// are counted and skipped — their entries are misses, and the watch
/// loop's degradation logic owns the retry policy.
fn build_log_state(fs: &dyn VerifyFs, root: &Path, io_errors: &AtomicU64) -> io::Result<LogState> {
    let mut manifest = {
        let path = root.join(MANIFEST_FILE);
        match fs.read(&path) {
            Ok(bytes) => decode_frame(&bytes).and_then(|p| dec_manifest(&p)),
            Err(e) => {
                if e.kind() != io::ErrorKind::NotFound {
                    io_errors.fetch_add(1, Ordering::SeqCst);
                }
                None
            }
        }
    }
    .unwrap_or_else(Manifest::empty);

    // Union in any on-disk segments the manifest does not list (debris of
    // a crashed compaction): content addressing makes stale duplicates
    // harmless, and scanning them salvages entries a crash orphaned.
    for shard in 0..SHARD_COUNT {
        let dir = root.join(shard_dir_name(shard));
        if !fs.exists(&dir) {
            continue;
        }
        let Ok(listing) = fs.read_dir(&dir) else {
            io_errors.fetch_add(1, Ordering::SeqCst);
            continue;
        };
        for path in listing {
            let Some(seq) = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(parse_segment_name)
            else {
                continue;
            };
            if !manifest.segments[shard].contains(&seq) {
                manifest.segments[shard].push(seq);
            }
            manifest.next_seq = manifest.next_seq.max(seq + 1);
        }
    }

    // Shards are disjoint key spaces scanned independently; each scan
    // yields (entries in first-frame-wins order, segments skipped).
    type ShardScan = (Vec<(Key, Loc)>, u64);
    let scan_shard = |shard: usize| -> ShardScan {
        let mut entries: Vec<(Key, Loc)> = Vec::new();
        let mut skipped = 0u64;
        for &seq in &manifest.segments[shard] {
            let path = root
                .join(shard_dir_name(shard))
                .join(segment_file_name(seq));
            let bytes = match fs.read(&path) {
                Ok(b) => b,
                // A manifest-first roll that crashed before the first
                // append leaves a listed-but-missing segment: empty.
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(_) => {
                    io_errors.fetch_add(1, Ordering::SeqCst);
                    skipped += 1;
                    continue;
                }
            };
            let mut pos = 0usize;
            while let Some(frame) = parse_frame(&bytes, pos) {
                entries.push((
                    frame.key,
                    Loc::Seg {
                        shard: shard as u8,
                        seq,
                        offset: frame.payload_start as u64,
                        len: frame.payload_len as u32,
                        payload_fp: frame.payload_fp,
                    },
                ));
                pos = frame.payload_start + frame.payload_len;
            }
        }
        (entries, skipped)
    };
    // Shards fan out across scanner threads when the fs tolerates
    // concurrent readers (fault-injecting filesystems scan serially so
    // their op schedules replay deterministically) and more than one
    // core is available. Either way the merge below is identical: keys
    // cannot collide across shards, and within a shard the scan order is
    // the append order.
    let scanners = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(SHARD_COUNT);
    let scanned: Vec<ShardScan> = if fs.concurrent_reads() && scanners > 1 {
        std::thread::scope(|scope| {
            let scan_shard = &scan_shard;
            let handles: Vec<_> = (0..scanners)
                .map(|worker| {
                    scope.spawn(move || {
                        (worker..SHARD_COUNT)
                            .step_by(scanners)
                            .map(|shard| (shard, scan_shard(shard)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut all: Vec<(usize, ShardScan)> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("scanner thread does not panic"))
                .collect();
            all.sort_by_key(|(shard, _)| *shard);
            all.into_iter().map(|(_, r)| r).collect()
        })
    } else {
        (0..SHARD_COUNT).map(scan_shard).collect()
    };
    let mut index: HashMap<Key, Loc> = HashMap::new();
    let mut scan_skipped = 0u64;
    for (entries, skipped) in scanned {
        scan_skipped += skipped;
        for (key, loc) in entries {
            index.entry(key).or_insert(loc);
        }
    }

    // Legacy flat entries: indexed as a fallback tier (segments win).
    for path in fs
        .read_dir(root)
        .map_err(|e| err_at(e, "list store root", root))?
    {
        if let Some(key) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(parse_entry_name)
        {
            index.entry(key).or_insert(Loc::Flat);
        }
    }

    Ok(LogState {
        index,
        shards: vec![ShardState::default(); SHARD_COUNT],
        manifest,
        build_ms: 0.0,
        scan_skipped,
    })
}

/// The quarantine subdirectory compaction moves bad entries into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// What one [`ProofStore::compact`] (or [`ProofStore::scrub`]) pass found
/// and did.
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    /// Entries examined: segment frames, flat `.cert` files and `.head`
    /// files.
    pub scanned: usize,
    /// Entries that validated clean and were kept (rewritten into fresh
    /// segments, or left in place for heads).
    pub ok: usize,
    /// Stale temporary/probe files deleted (compaction).
    pub tmp_removed: usize,
    /// Quarantined entries that decoded fine but were rejected by the
    /// certificate checker (a subset of `quarantined`).
    pub checker_rejected: usize,
    /// Legacy flat entries rewritten into segments (their flat files are
    /// removed after the new segments are durable).
    pub migrated: usize,
    /// Duplicate frames for already-live keys dropped during the rewrite
    /// (content-addressed, so they held identical payloads).
    pub superseded: usize,
    /// Fresh segments written by the rewrite.
    pub segments_written: usize,
    /// `(file name, reason)` for every entry moved to `quarantine/`.
    pub quarantined: Vec<(String, String)>,
}

impl ScrubReport {
    /// One human-readable summary line.
    pub fn summary(&self) -> String {
        format!(
            "scrubbed {} entries: {} ok, {} quarantined ({} checker-rejected), \
             {} migrated, {} superseded, {} segments written, {} stale tmp files removed",
            self.scanned,
            self.ok,
            self.quarantined.len(),
            self.checker_rejected,
            self.migrated,
            self.superseded,
            self.segments_written,
            self.tmp_removed
        )
    }

    /// The machine-readable report written to `quarantine/report.json`.
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut entries = String::new();
        for (i, (file, reason)) in self.quarantined.iter().enumerate() {
            if i > 0 {
                entries.push(',');
            }
            let _ = write!(
                entries,
                r#"{{"file":{},"reason":{}}}"#,
                json_str(file),
                json_str(reason)
            );
        }
        format!(
            concat!(
                r#"{{"scanned":{},"ok":{},"tmp_removed":{},"#,
                r#""checker_rejected":{},"migrated":{},"superseded":{},"#,
                r#""segments_written":{},"quarantined":[{}]}}"#
            ),
            self.scanned,
            self.ok,
            self.tmp_removed,
            self.checker_rejected,
            self.migrated,
            self.superseded,
            self.segments_written,
            entries
        )
    }
}

/// Encodes a string as a JSON string literal (with quotes). The one JSON
/// string escaper of the workspace; `reflex_driver::json_string`
/// re-exports it.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl ProofStore {
    /// Validates every entry in the store, quarantining the bad ones —
    /// an alias for [`ProofStore::compact`], kept for the PR 5 surface
    /// (`rx store scrub`): since the store became log-structured, the
    /// scrub *is* the compaction pass.
    ///
    /// # Errors
    ///
    /// As [`ProofStore::compact`].
    pub fn scrub(
        &self,
        validate: Option<(&CheckedProgram, &ProverOptions)>,
    ) -> io::Result<ScrubReport> {
        self.compact(validate)
    }

    /// Migrates a legacy flat-directory store into segments: exactly a
    /// [`ProofStore::compact`] pass (which rewrites flat entries too);
    /// the report's `migrated` field says how many flat entries moved.
    ///
    /// # Errors
    ///
    /// As [`ProofStore::compact`].
    pub fn migrate(&self) -> io::Result<ScrubReport> {
        self.compact(None)
    }

    /// Compacts the store: validates every segment frame, flat entry and
    /// head record, rewrites the live set into fresh segments, atomically
    /// swaps the manifest, then removes the old segments and migrated
    /// flat files.
    ///
    /// * Corrupt frames are **quarantined** (their bytes are preserved
    ///   under [`QUARANTINE_DIR`], with a reason), and a corrupt frame
    ///   ends its segment's scan — the unparseable tail is quarantined
    ///   whole. Bad flat/head files are moved into quarantine like the
    ///   PR 5 scrub did. Quarantining never deletes evidence: a
    ///   false-positive costs a future miss, not data.
    /// * With `validate` supplied, every entry keyed by that program and
    ///   options is additionally run through the independent certificate
    ///   checker; rejects are quarantined too ("checker rejected").
    /// * Duplicate frames for one key are superseded (content-addressed:
    ///   identical payloads) and dropped.
    /// * Stale `.tmp-*` / `.probe-*` files — debris of crashed writers —
    ///   are deleted.
    /// * When anything was quarantined, a machine-readable report is
    ///   written to a fresh `quarantine/report-NNNN.json` (one per pass,
    ///   never overwritten) and mirrored to `quarantine/report.json`.
    ///
    /// The manifest swap is the commit point: a crash before it leaves
    /// the old manifest and old segments intact (fresh segments are
    /// orphans with duplicate content — harmless); a crash after it
    /// leaves old segments as unreferenced files that the next
    /// compaction sweeps.
    ///
    /// # Errors
    ///
    /// Listing failures, unreadable segments, and failures writing the
    /// fresh segments or the manifest (all with the offending path in the
    /// message). On error the store keeps serving its current index.
    pub fn compact(
        &self,
        validate: Option<(&CheckedProgram, &ProverOptions)>,
    ) -> io::Result<ScrubReport> {
        let _ = self.flush();
        let inner = &*self.inner;
        let quarantine = inner.root.join(QUARANTINE_DIR);
        let mut log = inner.log_lock();
        let mut report = ScrubReport::default();

        // Key → property name, for entries the supplied program can vouch
        // for (same program, property and options fingerprints).
        let mut expected: HashMap<Key, String> = HashMap::new();
        if let Some((checked, options)) = validate {
            let fps = checked.fingerprints();
            let opts_fp = options.fingerprint();
            for prop in &checked.program().properties {
                if let Some(pfp) = fps.property(&prop.name) {
                    expected.insert((fps.program, pfp, opts_fp), prop.name.clone());
                }
            }
        }

        // Validates one decoded payload; Err is the quarantine reason.
        // Every certificate is checked over one abstraction of the
        // program, built when the first one needs it.
        let abs = std::cell::OnceCell::new();
        let check_payload =
            |key: Key, payload: &[u8], rejected: &mut usize| -> Result<(), String> {
                let Some(cert) = decode_cert_payload(payload) else {
                    return Err("undecodable certificate payload".to_owned());
                };
                match (validate, expected.get(&key)) {
                    (Some((checked, options)), Some(prop_name)) => {
                        if cert.property() != *prop_name {
                            Err(format!(
                                "filed under `{prop_name}` but certifies `{}`",
                                cert.property()
                            ))
                        } else {
                            let abs = abs.get_or_init(|| Abstraction::build(checked, options));
                            crate::check_certificate_with(abs, &cert, options).map_err(|e| {
                                *rejected += 1;
                                format!("checker rejected: {e}")
                            })
                        }
                    }
                    _ => Ok(()),
                }
            };

        // Pass 1: the root directory — tmp/probe debris, head records,
        // legacy flat entries.
        let mut flat_live: Vec<(Key, Vec<u8>)> = Vec::new();
        let mut flat_files: HashMap<Key, PathBuf> = HashMap::new();
        for path in inner
            .fs
            .read_dir(&inner.root)
            .map_err(|e| err_at(e, "list store root", &inner.root))?
        {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.starts_with(".tmp-") || name.starts_with(".probe-") {
                if inner.fs.remove_file(&path).is_ok() {
                    report.tmp_removed += 1;
                }
                continue;
            }
            let is_cert = name.ends_with(".cert");
            let is_head = name.ends_with(".head");
            if !is_cert && !is_head {
                continue; // MANIFEST, shard dirs, quarantine/, user files, …
            }
            report.scanned += 1;
            let verdict: Result<Option<(Key, Vec<u8>)>, String> = match inner.fs.read(&path) {
                Err(e) => {
                    inner.count_io_error();
                    Err(format!("unreadable: {e}"))
                }
                Ok(bytes) => match decode_frame(&bytes) {
                    None => Err(
                        "corrupt frame (bad magic, version, or integrity fingerprint)".to_owned(),
                    ),
                    Some(payload) if is_head => match decode_head(&payload) {
                        Some(_) => Ok(None),
                        None => Err("undecodable head payload".to_owned()),
                    },
                    Some(payload) => match parse_entry_name(name) {
                        None => Err("unparseable entry file name".to_owned()),
                        Some(key) => {
                            match check_payload(key, &payload, &mut report.checker_rejected) {
                                Ok(()) => Ok(Some((key, payload))),
                                Err(reason) => Err(reason),
                            }
                        }
                    },
                },
            };
            match verdict {
                Ok(None) => report.ok += 1, // heads stay in place
                Ok(Some((key, payload))) => {
                    flat_files.insert(key, path.clone());
                    flat_live.push((key, payload));
                }
                Err(reason) => {
                    let moved = inner
                        .fs
                        .create_dir_all(&quarantine)
                        .and_then(|()| inner.fs.rename(&path, &quarantine.join(name)));
                    let outcome = match moved {
                        Ok(()) => reason,
                        Err(e) => format!("{reason}; quarantine move failed: {e}"),
                    };
                    report.quarantined.push((name.to_owned(), outcome));
                }
            }
        }

        // Pass 2: every segment the (merged) manifest knows about.
        let mut live: Vec<(Key, Vec<u8>)> = Vec::new();
        let mut seen: HashSet<Key> = HashSet::new();
        for shard in 0..SHARD_COUNT {
            for &seq in &log.manifest.segments[shard] {
                let path = inner.segment_path(shard, seq);
                let bytes = match inner.fs.read(&path) {
                    Ok(b) => b,
                    Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                    Err(e) => {
                        inner.count_io_error();
                        return Err(err_at(e, "read segment during compaction", &path));
                    }
                };
                let mut pos = 0usize;
                loop {
                    match parse_frame(&bytes, pos) {
                        Some(frame) => {
                            report.scanned += 1;
                            let end = frame.payload_start + frame.payload_len;
                            if seen.contains(&frame.key) {
                                report.superseded += 1;
                            } else {
                                let payload = &bytes[frame.payload_start..end];
                                match check_payload(
                                    frame.key,
                                    payload,
                                    &mut report.checker_rejected,
                                ) {
                                    Ok(()) => {
                                        seen.insert(frame.key);
                                        live.push((frame.key, payload.to_vec()));
                                    }
                                    Err(reason) => {
                                        let fname = format!(
                                            "shard-{shard:02x}-seg-{seq:08}-off-{pos}.frame"
                                        );
                                        let _ =
                                            inner.fs.create_dir_all(&quarantine).and_then(|()| {
                                                inner.fs.write(
                                                    &quarantine.join(&fname),
                                                    &bytes[pos..end],
                                                )
                                            });
                                        report.quarantined.push((fname, reason));
                                    }
                                }
                            }
                            pos = end;
                        }
                        None => {
                            if pos < bytes.len() {
                                // Unparseable tail: quarantine it whole —
                                // the frames inside it (if any) cannot be
                                // trusted past the corruption point.
                                report.scanned += 1;
                                let fname =
                                    format!("shard-{shard:02x}-seg-{seq:08}-off-{pos}.frame");
                                let _ = inner.fs.create_dir_all(&quarantine).and_then(|()| {
                                    inner.fs.write(&quarantine.join(&fname), &bytes[pos..])
                                });
                                report.quarantined.push((
                                    fname,
                                    "corrupt frame (bad magic, version, bounds, or integrity \
                                     fingerprint)"
                                        .to_owned(),
                                ));
                            }
                            break;
                        }
                    }
                }
            }
        }

        // Merge the flat tier behind the segments (segments win), then fix
        // a deterministic rewrite order.
        let mut migrated_paths: Vec<PathBuf> = Vec::new();
        for (key, payload) in flat_live {
            if seen.contains(&key) {
                report.superseded += 1;
                // The flat duplicate of a segment entry is removed with the
                // old segments below.
                if let Some(p) = flat_files.remove(&key) {
                    migrated_paths.push(p);
                }
            } else {
                seen.insert(key);
                report.migrated += 1;
                if let Some(p) = flat_files.remove(&key) {
                    migrated_paths.push(p);
                }
                live.push((key, payload));
            }
        }
        live.sort_by_key(|(k, _)| *k);
        report.ok += live.len();

        // Pass 3: rewrite the live set into fresh segments, build the new
        // index as we go.
        let mut m2 = Manifest::empty();
        m2.next_seq = log.manifest.next_seq;
        let mut new_index: HashMap<Key, Loc> = HashMap::new();
        for shard in 0..SHARD_COUNT {
            let mut seg_bytes: Vec<u8> = Vec::new();
            let mut seg_locs: Vec<(Key, u64, u32, u64)> = Vec::new();
            let flush_seg = |seg_bytes: &mut Vec<u8>,
                             seg_locs: &mut Vec<(Key, u64, u32, u64)>,
                             m2: &mut Manifest,
                             new_index: &mut HashMap<Key, Loc>,
                             report: &mut ScrubReport|
             -> io::Result<()> {
                if seg_bytes.is_empty() {
                    return Ok(());
                }
                let seq = m2.next_seq;
                let dir = inner.root.join(shard_dir_name(shard));
                inner
                    .fs
                    .create_dir_all(&dir)
                    .map_err(|e| err_at(e, "create shard directory", &dir))?;
                inner.write_atomic(&inner.segment_path(shard, seq), seg_bytes)?;
                for (key, offset, len, payload_fp) in seg_locs.drain(..) {
                    new_index.insert(
                        key,
                        Loc::Seg {
                            shard: shard as u8,
                            seq,
                            offset,
                            len,
                            payload_fp,
                        },
                    );
                }
                m2.segments[shard].push(seq);
                m2.next_seq = seq + 1;
                report.segments_written += 1;
                seg_bytes.clear();
                Ok(())
            };
            for (key, payload) in live.iter().filter(|(k, _)| shard_of(*k) == shard) {
                let (frame, payload_fp) = build_frame(*key, payload);
                if !seg_bytes.is_empty()
                    && seg_bytes.len() as u64 + frame.len() as u64 > SEGMENT_CAP_BYTES
                {
                    flush_seg(
                        &mut seg_bytes,
                        &mut seg_locs,
                        &mut m2,
                        &mut new_index,
                        &mut report,
                    )?;
                }
                let offset = seg_bytes.len() as u64 + FRAME_HEADER as u64;
                seg_locs.push((*key, offset, payload.len() as u32, payload_fp));
                seg_bytes.extend_from_slice(&frame);
            }
            flush_seg(
                &mut seg_bytes,
                &mut seg_locs,
                &mut m2,
                &mut new_index,
                &mut report,
            )?;
        }

        // Pass 4: the commit point — swap the manifest.
        inner.write_manifest(&m2)?;

        // Pass 5: sweep what the new manifest no longer references — old
        // segments, shard-dir debris, migrated flat files. Best-effort:
        // leftovers are orphans the next compaction sweeps.
        for shard in 0..SHARD_COUNT {
            let dir = inner.root.join(shard_dir_name(shard));
            if !inner.fs.exists(&dir) {
                continue;
            }
            let Ok(listing) = inner.fs.read_dir(&dir) else {
                continue;
            };
            for path in listing {
                let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                    continue;
                };
                if name.starts_with(".tmp-") {
                    if inner.fs.remove_file(&path).is_ok() {
                        report.tmp_removed += 1;
                    }
                    continue;
                }
                match parse_segment_name(name) {
                    Some(seq) if !m2.segments[shard].contains(&seq) => {
                        let _ = inner.fs.remove_file(&path);
                    }
                    _ => {}
                }
            }
        }
        for path in migrated_paths {
            let _ = inner.fs.remove_file(&path);
        }

        // Pass 6: serve the rewritten store.
        log.manifest = m2;
        log.index = new_index;
        log.shards = vec![ShardState::default(); SHARD_COUNT];
        drop(log);

        if !report.quarantined.is_empty() {
            // Best-effort: the report is advisory; a failed write must not
            // fail the pass that just cleaned the store. Each pass gets
            // its own sequenced `report-NNNN.json` (earlier reports are
            // evidence — a second pass must not destroy the first's), and
            // `report.json` is rewritten as a copy of the latest.
            let _ = inner.fs.create_dir_all(&quarantine).and_then(|()| {
                let seq = (0..u32::MAX)
                    .map(|i| quarantine.join(format!("report-{i:04}.json")))
                    .find(|p| !inner.fs.exists(p))
                    .expect("fewer than u32::MAX scrub reports");
                inner.fs.write(&seq, report.render_json().as_bytes())?;
                inner.fs.write(
                    &quarantine.join("report.json"),
                    report.render_json().as_bytes(),
                )
            });
        }
        Ok(report)
    }
}

/// A snapshot of the store's shape and health (`rx store stat`).
#[derive(Debug, Clone, Default)]
pub struct StoreStat {
    /// Keys served from segment logs.
    pub entries: usize,
    /// Keys still served from legacy flat files.
    pub flat_entries: usize,
    /// Head records under the root.
    pub heads: usize,
    /// Shards (fixed by the format).
    pub shards: usize,
    /// Live segment files.
    pub segments: usize,
    /// Total bytes across live segment files.
    pub segment_bytes: u64,
    /// Total bytes across legacy flat entry files.
    pub flat_bytes: u64,
    /// Total bytes across head files.
    pub head_bytes: u64,
    /// Wall-clock cost of the open-time index build, milliseconds.
    pub index_build_ms: f64,
    /// Segments skipped (unreadable) during the open-time index build.
    pub scan_skipped: u64,
    /// Certificates currently held by the LRU hot tier.
    pub hot_entries: usize,
}

impl StoreStat {
    /// The human-readable multi-line rendering.
    pub fn render_text(&self) -> String {
        format!(
            "entries        {} in segments, {} flat, {} heads\n\
             segments       {} across {} shards ({} bytes)\n\
             flat bytes     {}\n\
             head bytes     {}\n\
             index build    {:.3} ms ({} segments skipped)\n\
             hot tier       {} certificates\n",
            self.entries,
            self.flat_entries,
            self.heads,
            self.segments,
            self.shards,
            self.segment_bytes,
            self.flat_bytes,
            self.head_bytes,
            self.index_build_ms,
            self.scan_skipped,
            self.hot_entries
        )
    }

    /// The `--json` rendering.
    pub fn render_json(&self) -> String {
        format!(
            concat!(
                "{{\n  \"entries\": {},\n  \"flat_entries\": {},\n  \"heads\": {},\n",
                "  \"shards\": {},\n  \"segments\": {},\n  \"segment_bytes\": {},\n",
                "  \"flat_bytes\": {},\n  \"head_bytes\": {},\n  \"index_build_ms\": {:.3},\n",
                "  \"scan_skipped\": {},\n  \"hot_entries\": {}\n}}\n"
            ),
            self.entries,
            self.flat_entries,
            self.heads,
            self.shards,
            self.segments,
            self.segment_bytes,
            self.flat_bytes,
            self.head_bytes,
            self.index_build_ms,
            self.scan_skipped,
            self.hot_entries
        )
    }
}

impl ProofStore {
    /// Measures the store: entry/segment/shard counts, on-disk bytes and
    /// the open-time index build cost.
    ///
    /// # Errors
    ///
    /// Only if the store root cannot be listed; unreadable individual
    /// files contribute zero bytes.
    pub fn stat(&self) -> io::Result<StoreStat> {
        let inner = &*self.inner;
        let log = inner.log_lock();
        let mut stat = StoreStat {
            shards: SHARD_COUNT,
            index_build_ms: log.build_ms,
            scan_skipped: log.scan_skipped,
            hot_entries: inner.lru_lock().map.len(),
            ..StoreStat::default()
        };
        for loc in log.index.values() {
            match loc {
                Loc::Seg { .. } => stat.entries += 1,
                Loc::Flat => stat.flat_entries += 1,
            }
        }
        for shard in 0..SHARD_COUNT {
            for &seq in &log.manifest.segments[shard] {
                let path = inner.segment_path(shard, seq);
                if let Ok(len) = inner.fs.file_len(&path) {
                    stat.segments += 1;
                    stat.segment_bytes += len;
                }
            }
        }
        for path in inner
            .fs
            .read_dir(&inner.root)
            .map_err(|e| err_at(e, "list store root", &inner.root))?
        {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.ends_with(".cert") {
                stat.flat_bytes += inner.fs.file_len(&path).unwrap_or(0);
            } else if name.ends_with(".head") {
                stat.heads += 1;
                stat.head_bytes += inner.fs.file_len(&path).unwrap_or(0);
            }
        }
        Ok(stat)
    }
}

/// The result of a store-backed verification run.
#[derive(Debug)]
pub struct StoreReport {
    /// The underlying incremental report ([`IncrementalReport::reused`]
    /// counts certificates served from the store and validated).
    pub report: IncrementalReport,
    /// Previous certificates found in the store and offered to the planner.
    pub loaded: usize,
    /// Entries written back after this run.
    pub saved: usize,
}

/// Verifies every property of `new`, reusing proofs from `store` where the
/// dependency analysis allows, and persists this run's certificates back.
///
/// Candidate certificates come from two places: **exact** entries keyed by
/// the current program fingerprint (hit when editing back to a previously
/// proved version), and the **previous** run's entries found via the head
/// record (planned onto the full/per-case/re-prove ladder exactly like an
/// in-memory [`crate::reverify`]). Every certificate returned — reused,
/// spliced or fresh — passes [`crate::check_certificate`] against `new`
/// first ([`crate::Checks::All`]); rejected candidates are re-proved from
/// scratch.
///
/// Persistence is best-effort: I/O failures while writing back cost future
/// misses, not verification failures.
///
/// # Errors
///
/// Proof-search failures are reported per-property inside the report;
/// errors are reserved for malformed inputs (impossible here: loaded
/// candidates are filtered before planning) and fresh certificates the
/// checker rejects.
pub fn verify_with_store(
    new: &CheckedProgram,
    options: &ProverOptions,
    store: &ProofStore,
    jobs: usize,
) -> Result<StoreReport, VerifyError> {
    let previous = load_candidates(new, options, store);
    let loaded = previous.len();
    let report = crate::reverify_core(
        new,
        &crate::incremental::with_jobs(options, jobs),
        crate::VerifyRun {
            previous: &previous,
            checks: crate::Checks::All,
            ..crate::VerifyRun::default()
        },
    )?;
    let saved = persist_outcomes(new, options, store, &report.outcomes);
    Ok(StoreReport {
        report,
        loaded,
        saved,
    })
}

/// The **plan** half of [`verify_with_store`]: loads every certificate the
/// store can offer for `new`'s properties — exact entries keyed by the
/// current program fingerprint, then the previous run's entries via the
/// head record — filtered down to decodable, correctly-filed candidates.
///
/// The returned slice feeds the reuse planner
/// ([`crate::reverify_core`] with [`crate::Checks::All`], or
/// [`crate::DepGraph`] directly); nothing in it is trusted until it passes
/// the independent checker.
pub fn load_candidates(
    new: &CheckedProgram,
    options: &ProverOptions,
    store: &ProofStore,
) -> Vec<(String, Certificate)> {
    let fps = new.fingerprints();
    let opts_fp = options.fingerprint();
    let head = store.load_head(&new.program().name, opts_fp);

    let mut previous: Vec<(String, Certificate)> = Vec::new();
    for prop in &new.program().properties {
        let name = &prop.name;
        let exact = fps
            .property(name)
            .and_then(|pfp| store.load(fps.program, pfp, opts_fp));
        let candidate = exact.or_else(|| {
            let head = head.as_ref()?;
            if head.program == fps.program {
                // Same program: the exact lookup above already covered it.
                return None;
            }
            let (_, old_pfp) = head.properties.iter().find(|(n, _)| n == name)?;
            store.load(head.program, *old_pfp, opts_fp)
        });
        // A corrupt-but-decodable entry could certify a different property;
        // filter it here so planning (which treats that as a caller bug in
        // the in-memory API) just sees a miss.
        if let Some(cert) = candidate {
            if cert.property() == *name {
                // The planner wants owned certificates; one deep clone per
                // candidate per run, off the hot lookup path.
                previous.push((name.clone(), (*cert).clone()));
            }
        }
    }
    previous
}

/// The **persist** half of [`verify_with_store`]: writes this run's
/// certificates and the program's head record back to the store, group-
/// committing the whole batch with one [`ProofStore::flush`], and returns
/// how many entries are durably saved (batch entries rolled back by a
/// failed commit are subtracted).
///
/// Best-effort by design: I/O failures cost future misses, never
/// verification failures. Outcomes are persisted serially in declaration
/// order, so serial and `--jobs N` runs append identical bytes.
pub fn persist_outcomes(
    new: &CheckedProgram,
    options: &ProverOptions,
    store: &ProofStore,
    outcomes: &[(String, Outcome)],
) -> usize {
    let fps = new.fingerprints();
    let opts_fp = options.fingerprint();
    let dropped_before = store.dropped_entries();
    let mut saved = 0usize;
    for (name, outcome) in outcomes {
        let (Some(cert), Some(pfp)) = (outcome.certificate(), fps.property(name)) else {
            continue;
        };
        if store.save(fps.program, pfp, opts_fp, cert).is_ok() {
            saved += 1;
        }
    }
    // The group commit for everything this run appended. A failed shard
    // rolls its batch back; those entries were counted saved above, so the
    // dropped delta comes back off the total.
    let _ = store.flush();
    let head = StoreHead {
        program: fps.program,
        properties: new
            .program()
            .properties
            .iter()
            .filter_map(|p| Some((p.name.clone(), fps.property(&p.name)?)))
            .collect(),
    };
    let _ = store.save_head(&new.program().name, opts_fp, &head);
    let dropped = usize::try_from(store.dropped_entries().saturating_sub(dropped_before))
        .unwrap_or(usize::MAX);
    saved.saturating_sub(dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifests_round_trip() {
        let mut m = Manifest::empty();
        m.segments[3] = vec![0, 5, 9];
        m.segments[15] = vec![2];
        m.next_seq = 10;
        let back = dec_manifest(&enc_manifest(&m)).expect("decodes");
        assert_eq!(back.segments, m.segments);
        assert_eq!(back.next_seq, m.next_seq);
        assert!(dec_manifest(&enc_manifest(&m)[1..]).is_none());
    }

    #[test]
    fn frames_parse_back_and_reject_corruption() {
        let key = (Fp(1), Fp(2), Fp(3));
        let (frame, pfp) = build_frame(key, b"payload-bytes");
        let f = parse_frame(&frame, 0).expect("parses");
        assert_eq!(f.key, key);
        assert_eq!(f.payload_fp, pfp);
        assert_eq!(
            &frame[f.payload_start..f.payload_start + f.payload_len],
            b"payload-bytes"
        );
        // Truncations and bit flips all fail to parse.
        for cut in 0..frame.len() {
            assert!(parse_frame(&frame[..cut], 0).is_none(), "cut {cut}");
        }
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            match parse_frame(&bad, 0) {
                // The key bytes carry no checksum of their own: a flip there
                // yields a well-formed frame under a key nobody looks up — a
                // harmless miss, not an escape.
                Some(f) if (8..32).contains(&i) => assert_ne!(f.key, key, "flip {i}"),
                Some(_) => panic!("flip {i} parsed"),
                None => assert!(!(8..32).contains(&i), "flip {i} rejected"),
            }
        }
    }

    #[test]
    fn flat_entry_names_parse_back() {
        let key = (Fp(0xdead), Fp(1), Fp(u64::MAX));
        let name = format!("{}-{}-{}.cert", key.0, key.1, key.2);
        assert_eq!(parse_entry_name(&name), Some(key));
        assert_eq!(parse_entry_name("head-x-y.head"), None);
        assert_eq!(parse_entry_name("junk.cert"), None);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let checked = reflex_kernels::car::checked();
        let options = ProverOptions::default();
        let (_, outcome) = crate::prove_all(&checked, &options).remove(0);
        let cert = Arc::new(outcome.certificate().expect("proved").clone());
        let mut lru = Lru::default();
        for i in 0..LRU_CAPACITY {
            lru.insert((Fp(i as u64), Fp(0), Fp(0)), Arc::clone(&cert));
        }
        // Touch key 0 so key 1 is the coldest.
        assert!(lru.get(&(Fp(0), Fp(0), Fp(0))).is_some());
        lru.insert((Fp(999_999), Fp(0), Fp(0)), Arc::clone(&cert));
        assert_eq!(lru.map.len(), LRU_CAPACITY);
        assert!(lru.get(&(Fp(1), Fp(0), Fp(0))).is_none(), "coldest evicted");
        assert!(lru.get(&(Fp(0), Fp(0), Fp(0))).is_some());
    }
}
