//! The persistent, content-addressed proof store (`.rx-store/`).
//!
//! The store is **one append log**: certificates and head records are
//! length-framed records appended to the active segment of a single log,
//! an in-memory index is rebuilt on open by scanning every segment's
//! frames, and a persist makes everything it appended durable with one
//! fsync (the commit in [`ProofStore::save_head`], which ends every
//! [`persist_outcomes`] run). A bounded LRU hot tier serves repeat
//! lookups without re-reading or re-decoding — warm `rx watch` sessions
//! hit it on every iteration. The layout under the store root:
//!
//! ```text
//! log/seg-00000000.log        certificate and head frames, in append order
//! …
//! log/seg-00000007.log        the segment accepting appends
//! quarantine/                 corrupt frames + sequenced scrub reports
//! {prog}-{prop}-{opts}.cert   legacy flat entries
//! shard-XX/seg-NNNNNNNN.log   sharded-layout segments (16 shards)
//! head-{name fp}-{opts}.head  sharded-layout head files
//! MANIFEST                    sharded-layout segment list (unread)
//! ```
//!
//! The last four belong to older layouts. Nothing writes them any more:
//! they are served in place as fallback tiers behind the log, and
//! compaction (`rx store compact`, `rx store migrate`) folds them into it.
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
//! A **head** record per (program name, options fingerprint) records
//! which program fingerprint the last run proved and under which property
//! fingerprints, so the next run can find the *previous* version's
//! certificates for cross-edit planning (full or per-case reuse via
//! [`crate::DepGraph`]) even though their keys contain old fingerprints.
//! Head records are frames of their own kind in the same log, and the
//! last head frame for a key wins. The open-time scan keeps every head
//! decoded in memory, so reading one, and deciding that an unchanged one
//! needs no rewrite, touches no file.
//!
//! # Durability
//!
//! Appends are not synced one by one: [`ProofStore::save`] registers the
//! entry in the index at once, and the next commit fsyncs the active
//! segment once for everything appended since the last one. A commit is
//! [`ProofStore::flush`], or [`ProofStore::save_head`], which returns
//! only after the commit that covers its head frame. If that fsync, or
//! an append, fails, the unsynced suffix is untrustworthy: the store
//! rolls the batch back — drops its certificates from the index and its
//! head records from the head table, truncates the segment to its last
//! durable length, seals it — and reports the lost certificates through
//! [`ProofStore::dropped_entries`]. A head rolled back is a miss, never a
//! wrong head. A segment is rolled at a size cap; there is no manifest:
//! the open-time scan lists `log/` and applies frames in (segment,
//! offset) order, and a torn tail (a crash mid-append) ends its
//! segment's scan. Compaction ([`ProofStore::compact`]) folds the scrub /
//! quarantine pass in: it rewrites the live certificates and the newest
//! head per key into fresh segments (temporary file, fsync, rename), then
//! removes what they replace. A crash in between leaves duplicates that
//! are harmless: certificates are first-frame-wins and content-addressed,
//! and fresh segments sort after the ones they replace, so their heads
//! win.
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

use reflex_ast::fingerprint::{fp_str, Fp, FpHasher};
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

/// Flat-file frame magic (legacy `.cert` entries, `.head` files, probes).
const MAGIC: &[u8; 4] = b"RXPS";
/// Log frame magic of a certificate.
const CERT_MAGIC: &[u8; 4] = b"RXSG";
/// Log frame magic of a head record.
const HEAD_MAGIC: &[u8; 4] = b"RXHD";
/// Log frame header: magic (4) + version (4) + key (3×8) + payload
/// length (4) + payload fingerprint (8).
const FRAME_HEADER: usize = 44;
/// The log's directory under the store root.
const LOG_DIR: &str = "log";
/// The sharded layout's segment list; compaction removes it.
const SHARDED_MANIFEST: &str = "MANIFEST";
/// Segments roll once they exceed this many bytes.
const SEGMENT_CAP_BYTES: u64 = 4 * 1024 * 1024;
/// Hot-tier capacity, in certificates.
const LRU_CAPACITY: usize = 256;

/// A store key: (program fp, property fp, options fp).
type Key = (Fp, Fp, Fp);

/// A head key: (program name fp, options fp).
type HeadKey = (Fp, Fp);

/// A segment file. The derived order is the scan order: the log's
/// segments by sequence number, then the sharded layout's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SegId {
    /// `log/seg-{seq}.log`.
    Log(u64),
    /// `shard-{shard}/seg-{seq}.log`, of the sharded layout.
    Shard(u8, u64),
}

impl SegId {
    fn path(self, root: &Path) -> PathBuf {
        match self {
            SegId::Log(seq) => root.join(LOG_DIR).join(segment_file_name(seq)),
            SegId::Shard(shard, seq) => root
                .join(format!("shard-{shard:02x}"))
                .join(segment_file_name(seq)),
        }
    }

    /// The quarantine file-name prefix of this segment's frames.
    fn label(self) -> String {
        match self {
            SegId::Log(seq) => format!("log-seg-{seq:08}"),
            SegId::Shard(shard, seq) => format!("shard-{shard:02x}-seg-{seq:08}"),
        }
    }
}

/// Where an indexed entry lives.
#[derive(Debug, Clone, Copy)]
enum Loc {
    /// A frame inside a segment; `offset`/`len` bound the payload.
    Seg {
        seg: SegId,
        offset: u64,
        len: u32,
        payload_fp: u64,
    },
    /// A legacy flat `{prog}-{prop}-{opts}.cert` file.
    Flat,
}

/// Where a head record lives.
#[derive(Debug, Clone)]
enum Head {
    /// The last head frame for its key in the log, decoded.
    Log(StoreHead),
    /// A sharded-layout `head-….head` file, read on lookup.
    File,
}

/// Everything the log engine mutates, under one lock: the key index, the
/// head table and the append state of the active segment.
#[derive(Debug)]
struct LogState {
    index: HashMap<Key, Loc>,
    heads: HashMap<HeadKey, Head>,
    /// The log segment accepting appends, if any.
    active: Option<u64>,
    /// The sequence number of the next segment.
    next_seq: u64,
    /// The active segment's length after every successful append.
    written: u64,
    /// Length covered by the last successful fsync.
    durable: u64,
    /// Certificates appended since the last successful fsync, in order.
    pending: Vec<Key>,
    /// Head records appended since the last successful fsync.
    pending_heads: Vec<HeadKey>,
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
    /// Entries rolled back because their commit failed: they were
    /// reported saved, then dropped when the fsync said otherwise.
    dropped: AtomicU64,
    log: Mutex<LogState>,
    lru: Mutex<Lru>,
}

impl Drop for StoreInner {
    fn drop(&mut self) {
        // Last handle out syncs whatever the final commit missed.
        let _ = self.commit(&mut self.log_lock());
    }
}

/// A handle to an on-disk proof store directory.
///
/// Cheap to clone: clones share the index, head table, append state, hot
/// tier and I/O error counter.
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
/// failures (which segment? which file?) stay diagnosable.
fn err_at(e: io::Error, action: &str, path: &Path) -> io::Error {
    io::Error::new(
        e.kind(),
        format!("proof store: {action} {}: {e}", path.display()),
    )
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

fn file_name(path: &Path) -> Option<&str> {
    path.file_name().and_then(|n| n.to_str())
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = FpHasher::new();
    h.write(bytes);
    h.finish().0
}

/// Builds one log frame; returns the frame and the payload fingerprint.
fn build_frame(magic: &[u8; 4], key: Key, payload: &[u8]) -> (Vec<u8>, u64) {
    let pfp = fnv(payload);
    let mut f = Vec::with_capacity(FRAME_HEADER + payload.len());
    f.extend_from_slice(magic);
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

/// The key a head frame is filed under: the head key, then a zero word.
fn head_frame_key((name, options): HeadKey) -> Key {
    (name, options, Fp(0))
}

/// One parsed-and-verified log frame.
struct Frame {
    /// A head record (`true`) or a certificate.
    head: bool,
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
    let head = match &hdr[0..4] {
        m if m == CERT_MAGIC => false,
        m if m == HEAD_MAGIC => true,
        _ => return None,
    };
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
        head,
        key,
        payload_start,
        payload_len,
        payload_fp,
    })
}

/// Parses a 16-digit hex fingerprint.
fn parse_fp(s: &str) -> Option<Fp> {
    (s.len() == 16)
        .then(|| u64::from_str_radix(s, 16).ok())
        .flatten()
        .map(Fp)
}

/// Parses a legacy flat entry file name back into its key.
fn parse_entry_name(name: &str) -> Option<Key> {
    let stem = name.strip_suffix(".cert")?;
    let mut parts = stem.split('-');
    let (a, b, c) = (parts.next()?, parts.next()?, parts.next()?);
    if parts.next().is_some() {
        return None;
    }
    Some((parse_fp(a)?, parse_fp(b)?, parse_fp(c)?))
}

/// Parses a sharded-layout head file name back into its head key.
fn parse_head_name(name: &str) -> Option<HeadKey> {
    let (a, b) = name
        .strip_prefix("head-")?
        .strip_suffix(".head")?
        .split_once('-')?;
    Some((parse_fp(a)?, parse_fp(b)?))
}

/// The head key of (`program_name`, `options`). Heads are looked up
/// before any fingerprint of the current source is known, so they key on
/// the (hashed) program *name*.
fn head_key(program_name: &str, options: Fp) -> HeadKey {
    (fp_str(program_name), options)
}

/// Every segment on disk, in scan order: `log/`, then the sharded
/// layout's `shard-XX/` directories. Directories that cannot be listed
/// are counted in `io_errors` and skipped.
///
/// # Errors
///
/// Only if the store root itself cannot be listed.
fn list_segments(fs: &dyn VerifyFs, root: &Path, io_errors: &AtomicU64) -> io::Result<Vec<SegId>> {
    let mut segments = Vec::new();
    for dir in fs
        .read_dir(root)
        .map_err(|e| err_at(e, "list store root", root))?
    {
        let Some(name) = file_name(&dir) else {
            continue;
        };
        let shard = match name.strip_prefix("shard-") {
            _ if name == LOG_DIR => None,
            Some(hex) if hex.len() == 2 => match u8::from_str_radix(hex, 16) {
                Ok(shard) => Some(shard),
                Err(_) => continue,
            },
            _ => continue,
        };
        let Ok(listing) = fs.read_dir(&dir) else {
            io_errors.fetch_add(1, Ordering::SeqCst);
            continue;
        };
        segments.extend(
            listing
                .iter()
                .filter_map(|p| parse_segment_name(file_name(p)?))
                .map(|seq| match shard {
                    None => SegId::Log(seq),
                    Some(shard) => SegId::Shard(shard, seq),
                }),
        );
    }
    segments.sort();
    Ok(segments)
}

fn enc_head(head: &StoreHead) -> Vec<u8> {
    let mut e = Enc::new();
    e.fp(head.program);
    e.len(head.properties.len());
    for (name, fp) in &head.properties {
        e.str(name);
        e.fp(*fp);
    }
    e.buf
}

impl ProofStore {
    /// Opens (creating if needed) the store rooted at `dir`, on the real
    /// filesystem, and builds the in-memory index and head table by
    /// scanning segment frames (plus any legacy flat entries and head
    /// files).
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
    /// since opening. Misses are not errors; the watch loop compares
    /// snapshots of this counter to decide when the store has become
    /// unreliable.
    pub fn io_errors(&self) -> u64 {
        self.inner.io_errors.load(Ordering::SeqCst)
    }

    /// Entries whose commit failed after [`ProofStore::save`] had already
    /// reported them saved: the rollback dropped them from the index, so
    /// they are misses now. [`persist_outcomes`] subtracts the delta from
    /// its saved count.
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

    /// Loads the certificate stored under the given key, or `None` if
    /// absent, unreadable, truncated, corrupt or written by a different
    /// format version (all of these are cache misses, not errors).
    ///
    /// Hot entries are served from the LRU tier without touching disk,
    /// as shared handles — a warm hit costs neither deserialization nor
    /// a deep clone. A key the index lacks is a miss that touches no
    /// file. Cold segment hits re-verify the payload fingerprint before
    /// decoding, so bit rot after open is still a miss.
    pub fn load(&self, program: Fp, property: Fp, options: Fp) -> Option<Arc<Certificate>> {
        let key = (program, property, options);
        if let Some(cert) = self.inner.lru_lock().get(&key) {
            return Some(cert);
        }
        let loc = self.inner.log_lock().index.get(&key).copied()?;
        let cert = match loc {
            Loc::Seg {
                seg,
                offset,
                len,
                payload_fp,
            } => {
                let path = seg.path(&self.inner.root);
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
            Loc::Flat => {
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

    /// Stores `cert` under the given key by appending a frame to the
    /// log's active segment (rolling to a fresh segment at the size cap).
    /// An existing entry is left alone: keys are content-addressed, so it
    /// already holds the same bytes.
    ///
    /// The append is *not* fsynced here — durability comes from the next
    /// commit ([`ProofStore::flush`] or [`ProofStore::save_head`]); a
    /// failed commit rolls the batch back and counts it in
    /// [`ProofStore::dropped_entries`].
    ///
    /// # Errors
    ///
    /// Propagates append I/O failures (with the segment path in the
    /// message); callers persisting opportunistically may ignore them (a
    /// failed write is a future miss).
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
        let (frame, payload_fp) = build_frame(CERT_MAGIC, key, &e.buf);
        let mut log = self.inner.log_lock();
        if log.index.contains_key(&key) {
            return Ok(()); // raced with another clone
        }
        let (seg, frame_start) = self.inner.append_frame(&mut log, &frame)?;
        log.index.insert(
            key,
            Loc::Seg {
                seg,
                offset: frame_start + FRAME_HEADER as u64,
                len: u32::try_from(e.buf.len()).expect("payload fits u32"),
                payload_fp,
            },
        );
        log.pending.push(key);
        Ok(())
    }

    /// Commits every unsynced append with one fsync of the active
    /// segment. On failure the unsynced batch is rolled back (dropped
    /// from the index and head table, truncated away, segment sealed) and
    /// its certificates are counted in [`ProofStore::dropped_entries`].
    ///
    /// # Errors
    ///
    /// The fsync failure, with the segment path in the message.
    pub fn flush(&self) -> io::Result<()> {
        self.inner.commit(&mut self.inner.log_lock())
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
    /// miss semantics as [`ProofStore::load`]. A head from the log is
    /// served from memory; only a sharded-layout head file is read.
    pub fn load_head(&self, program_name: &str, options: Fp) -> Option<StoreHead> {
        let key = head_key(program_name, options);
        let head = self.inner.log_lock().heads.get(&key).cloned()?;
        match head {
            Head::Log(head) => Some(head),
            Head::File => decode_head(&self.inner.read_framed(&self.inner.head_file_path(key))?),
        }
    }

    /// Stores the head record for (`program_name`, `options`): appends a
    /// head frame to the log, then commits it together with every
    /// certificate appended since the last commit, with one fsync. It
    /// returns only after that commit. A head equal to the one in memory
    /// is not appended again: a repeated run of an unchanged program
    /// writes nothing (its commit has nothing to sync).
    ///
    /// # Errors
    ///
    /// Propagates the append or fsync failure; the batch is rolled back,
    /// so the head is then a miss.
    pub fn save_head(&self, program_name: &str, options: Fp, head: &StoreHead) -> io::Result<()> {
        let key = head_key(program_name, options);
        let mut log = self.inner.log_lock();
        if !matches!(log.heads.get(&key), Some(Head::Log(current)) if current == head) {
            let (frame, _) = build_frame(HEAD_MAGIC, head_frame_key(key), &enc_head(head));
            self.inner.append_frame(&mut log, &frame)?;
            log.heads.insert(key, Head::Log(head.clone()));
            log.pending_heads.push(key);
        }
        self.inner.commit(&mut log)
    }

    /// Writes a legacy flat-file entry (the pre-PR-8 one-file-per-
    /// certificate format). Kept for the `rx bench store` flat baseline
    /// and the migration tests; new code appends to the log via
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

    fn head_file_path(&self, (name, options): HeadKey) -> PathBuf {
        self.root.join(format!("head-{name}-{options}.head"))
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
    /// bytes: compaction's fresh segments, flat entries and probes.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let dir = path.parent().unwrap_or_else(|| Path::new("."));
        let file_name = file_name(path).unwrap_or("entry");
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

    /// Allocates the next log segment: creates `log/` if needed and
    /// returns the new sequence number. Sequence numbers are never
    /// reused, so a segment allocated after another sorts after it.
    fn next_segment(&self, log: &mut LogState) -> io::Result<u64> {
        let dir = self.root.join(LOG_DIR);
        self.fs.create_dir_all(&dir).map_err(|e| {
            self.count_io_error();
            err_at(e, "create log directory", &dir)
        })?;
        let seq = log.next_seq;
        log.next_seq += 1;
        Ok(seq)
    }

    /// Appends one frame to the active segment, rolling to a fresh one
    /// when there is none or the frame would cross the size cap. Returns
    /// the segment and the frame's offset in it. A failed append rolls
    /// the unsynced batch back.
    fn append_frame(&self, log: &mut LogState, frame: &[u8]) -> io::Result<(SegId, u64)> {
        let full = log.written > 0 && log.written + frame.len() as u64 > SEGMENT_CAP_BYTES;
        if log.active.is_none() || full {
            // What the full segment holds must be durable before appends
            // move on past it.
            self.commit(log)?;
            log.active = Some(self.next_segment(log)?);
            log.written = 0;
            log.durable = 0;
        }
        let seg = SegId::Log(log.active.expect("rolled log has a segment"));
        let path = seg.path(&self.root);
        match self.fs.append(&path, frame) {
            Ok(()) => {
                let start = log.written;
                log.written += frame.len() as u64;
                Ok((seg, start))
            }
            Err(e) => {
                self.count_io_error();
                // Partial bytes may have landed, and the unsynced batch
                // can no longer be committed through this segment. Drop
                // back to the durable prefix (which also trims the failed
                // append) and seal; the next append starts fresh.
                self.rollback(log);
                Err(err_at(e, "append to segment", &path))
            }
        }
    }

    /// The commit: one fsync of the active segment covers everything
    /// appended since the last commit. On failure the unsynced batch is
    /// rolled back: those bytes may not survive a crash, so the store
    /// must stop serving them now.
    fn commit(&self, log: &mut LogState) -> io::Result<()> {
        if log.written == log.durable {
            return Ok(());
        }
        let seq = log.active.expect("unsynced appends have a segment");
        let path = SegId::Log(seq).path(&self.root);
        match self.fs.sync(&path) {
            Ok(()) => {
                log.durable = log.written;
                log.pending.clear();
                log.pending_heads.clear();
                Ok(())
            }
            Err(e) => {
                self.count_io_error();
                self.rollback(log);
                Err(err_at(e, "fsync segment", &path))
            }
        }
    }

    /// Drops the unsynced batch: removes its certificates from the index
    /// (and hot tier) and its heads from the head table, truncates the
    /// segment back to its durable length, seals it, and counts the lost
    /// certificates.
    fn rollback(&self, log: &mut LogState) {
        let pending = std::mem::take(&mut log.pending);
        for key in std::mem::take(&mut log.pending_heads) {
            log.heads.remove(&key);
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
        log.written = log.durable;
        if let Some(seq) = log.active.take() {
            // Also clears any torn mark under FaultyFs: the untrusted tail
            // is exactly what gets cut away.
            let _ = self
                .fs
                .truncate(&SegId::Log(seq).path(&self.root), log.durable);
        }
    }
}

/// What one segment's scan found, in frame order.
#[derive(Default)]
struct SegScan {
    certs: Vec<(Key, Loc)>,
    heads: Vec<(HeadKey, StoreHead)>,
    /// The segment could not be read: its entries are misses.
    skipped: bool,
}

fn scan_segment(fs: &dyn VerifyFs, root: &Path, seg: SegId, io_errors: &AtomicU64) -> SegScan {
    let mut scan = SegScan::default();
    let bytes = match fs.read(&seg.path(root)) {
        Ok(b) => b,
        // Removed between the listing and the read (a racing compaction).
        Err(e) if e.kind() == io::ErrorKind::NotFound => return scan,
        Err(_) => {
            io_errors.fetch_add(1, Ordering::SeqCst);
            scan.skipped = true;
            return scan;
        }
    };
    let mut pos = 0usize;
    while let Some(frame) = parse_frame(&bytes, pos) {
        let end = frame.payload_start + frame.payload_len;
        if frame.head {
            // An undecodable head is a miss, like an undecodable
            // certificate.
            if let Some(head) = decode_head(&bytes[frame.payload_start..end]) {
                scan.heads.push(((frame.key.0, frame.key.1), head));
            }
        } else {
            scan.certs.push((
                frame.key,
                Loc::Seg {
                    seg,
                    offset: frame.payload_start as u64,
                    len: frame.payload_len as u32,
                    payload_fp: frame.payload_fp,
                },
            ));
        }
        pos = end;
    }
    scan
}

/// Rebuilds the in-memory index and head table by scanning every segment
/// (the log's, then the sharded layout's), then legacy flat entries and
/// head files. Unreadable segments are counted and skipped — their
/// entries are misses, and the watch loop's degradation logic owns the
/// retry policy.
fn build_log_state(fs: &dyn VerifyFs, root: &Path, io_errors: &AtomicU64) -> io::Result<LogState> {
    let segments = list_segments(fs, root, io_errors)?;
    // Segments fan out across scanner threads when the fs tolerates
    // concurrent readers (fault-injecting filesystems scan serially so
    // their op schedules replay deterministically) and more than one
    // core is available. Either way the merge below applies frames in
    // scan order.
    let scanners = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(segments.len());
    let scan = |seg: SegId| scan_segment(fs, root, seg, io_errors);
    let scanned: Vec<SegScan> = if fs.concurrent_reads() && scanners > 1 {
        std::thread::scope(|scope| {
            let (scan, segments) = (&scan, &segments);
            let handles: Vec<_> = (0..scanners)
                .map(|worker| {
                    scope.spawn(move || {
                        (worker..segments.len())
                            .step_by(scanners)
                            .map(|i| (i, scan(segments[i])))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut all: Vec<(usize, SegScan)> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("scanner thread does not panic"))
                .collect();
            all.sort_by_key(|(i, _)| *i);
            all.into_iter().map(|(_, s)| s).collect()
        })
    } else {
        segments.iter().map(|&seg| scan(seg)).collect()
    };
    let mut index: HashMap<Key, Loc> = HashMap::new();
    let mut heads: HashMap<HeadKey, Head> = HashMap::new();
    let mut scan_skipped = 0u64;
    for scan in scanned {
        scan_skipped += u64::from(scan.skipped);
        for (key, loc) in scan.certs {
            index.entry(key).or_insert(loc);
        }
        for (key, head) in scan.heads {
            heads.insert(key, Head::Log(head));
        }
    }

    // Legacy flat entries and sharded-layout head files: fallback tiers
    // behind the log.
    for path in fs
        .read_dir(root)
        .map_err(|e| err_at(e, "list store root", root))?
    {
        let Some(name) = file_name(&path) else {
            continue;
        };
        if let Some(key) = parse_entry_name(name) {
            index.entry(key).or_insert(Loc::Flat);
        } else if let Some(key) = parse_head_name(name) {
            heads.entry(key).or_insert(Head::File);
        }
    }

    let next_seq = segments
        .iter()
        .filter_map(|seg| match seg {
            SegId::Log(seq) => Some(seq + 1),
            SegId::Shard(..) => None,
        })
        .max()
        .unwrap_or(0);
    Ok(LogState {
        index,
        heads,
        active: None,
        next_seq,
        written: 0,
        durable: 0,
        pending: Vec::new(),
        pending_heads: Vec::new(),
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
    /// Entries examined: segment frames (certificates and heads), flat
    /// `.cert` files and `.head` files.
    pub scanned: usize,
    /// Entries that validated clean and were kept: the live certificates
    /// and the newest head per key, rewritten into fresh segments.
    pub ok: usize,
    /// Stale temporary/probe files deleted (compaction).
    pub tmp_removed: usize,
    /// Quarantined entries that decoded fine but were rejected by the
    /// certificate checker (a subset of `quarantined`).
    pub checker_rejected: usize,
    /// Legacy flat entries rewritten into segments (their flat files are
    /// removed after the new segments are durable).
    pub migrated: usize,
    /// Entries dropped during the rewrite because a live one shadows
    /// them: duplicate certificates (content-addressed, so they held
    /// identical payloads) and older heads for the same key.
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

    /// Compacts the store: validates every log frame, sharded-layout
    /// segment frame, flat entry and head file, rewrites the live
    /// certificates and the newest head per key into fresh log segments,
    /// then removes everything they replace: old segments, the sharded
    /// layout's directories, head files and manifest, and migrated flat
    /// files.
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
    /// * Duplicate certificate frames for one key (content-addressed:
    ///   identical payloads) and older head frames for one key are
    ///   superseded and dropped.
    /// * Stale `.tmp-*` / `.probe-*` files — debris of crashed writers —
    ///   are deleted.
    /// * When anything was quarantined, a machine-readable report is
    ///   written to a fresh `quarantine/report-NNNN.json` (one per pass,
    ///   never overwritten) and mirrored to `quarantine/report.json`.
    ///
    /// Fresh segments are written whole (temporary file, fsync, rename)
    /// before anything is removed. A crash before the removal leaves the
    /// old files beside them: their certificates are duplicates, and
    /// fresh segments sort after every old one, so their heads win. The
    /// next compaction sweeps the leftovers.
    ///
    /// # Errors
    ///
    /// Listing failures, unreadable segments, and failures writing the
    /// fresh segments (all with the offending path in the message). On
    /// error the store keeps serving its current index.
    pub fn compact(
        &self,
        validate: Option<(&CheckedProgram, &ProverOptions)>,
    ) -> io::Result<ScrubReport> {
        let inner = &*self.inner;
        let quarantine = inner.root.join(QUARANTINE_DIR);
        let mut log = inner.log_lock();
        let _ = inner.commit(&mut log);
        // Seal the active segment: appends after this pass, committed or
        // aborted, go to a segment that sorts after its fresh ones.
        log.active = None;
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

        // Pass 1: the root directory — tmp/probe debris, legacy flat
        // entries, the sharded layout's head files and manifest. Valid
        // files are folded into the log and removed once it is durable.
        let mut flat_live: Vec<(Key, Vec<u8>)> = Vec::new();
        let mut file_heads: Vec<(HeadKey, StoreHead)> = Vec::new();
        let mut replaced: Vec<PathBuf> = Vec::new();
        for path in inner
            .fs
            .read_dir(&inner.root)
            .map_err(|e| err_at(e, "list store root", &inner.root))?
        {
            let Some(name) = file_name(&path) else {
                continue;
            };
            if name.starts_with(".tmp-") || name.starts_with(".probe-") {
                if inner.fs.remove_file(&path).is_ok() {
                    report.tmp_removed += 1;
                }
                continue;
            }
            if name == SHARDED_MANIFEST {
                replaced.push(path);
                continue;
            }
            let is_cert = name.ends_with(".cert");
            let is_head = name.ends_with(".head");
            if !is_cert && !is_head {
                continue; // log/, shard dirs, quarantine/, user files, …
            }
            report.scanned += 1;
            let verdict: Result<(), String> = match inner.fs.read(&path) {
                Err(e) => {
                    inner.count_io_error();
                    Err(format!("unreadable: {e}"))
                }
                Ok(bytes) => match decode_frame(&bytes) {
                    None => Err(
                        "corrupt frame (bad magic, version, or integrity fingerprint)".to_owned(),
                    ),
                    Some(payload) if is_head => {
                        match (parse_head_name(name), decode_head(&payload)) {
                            (None, _) => Err("unparseable head file name".to_owned()),
                            (_, None) => Err("undecodable head payload".to_owned()),
                            (Some(key), Some(head)) => {
                                file_heads.push((key, head));
                                Ok(())
                            }
                        }
                    }
                    Some(payload) => match parse_entry_name(name) {
                        None => Err("unparseable entry file name".to_owned()),
                        Some(key) => check_payload(key, &payload, &mut report.checker_rejected)
                            .map(|()| flat_live.push((key, payload))),
                    },
                },
            };
            match verdict {
                Ok(()) => replaced.push(path),
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

        // Pass 2: every segment on disk, in scan order.
        let segments = list_segments(inner.fs.as_ref(), &inner.root, &inner.io_errors)?;
        let mut live: Vec<(Key, Vec<u8>)> = Vec::new();
        let mut seen: HashSet<Key> = HashSet::new();
        let mut heads: HashMap<HeadKey, StoreHead> = HashMap::new();
        let quarantine_bytes = |fname: &str, bytes: &[u8]| {
            let _ = inner
                .fs
                .create_dir_all(&quarantine)
                .and_then(|()| inner.fs.write(&quarantine.join(fname), bytes));
        };
        for &seg in &segments {
            let path = seg.path(&inner.root);
            let bytes = match inner.fs.read(&path) {
                Ok(b) => b,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => {
                    inner.count_io_error();
                    return Err(err_at(e, "read segment during compaction", &path));
                }
            };
            let mut pos = 0usize;
            while let Some(frame) = parse_frame(&bytes, pos) {
                report.scanned += 1;
                let end = frame.payload_start + frame.payload_len;
                let payload = &bytes[frame.payload_start..end];
                let verdict = if frame.head {
                    match decode_head(payload) {
                        Some(head) => {
                            // Last frame wins: an earlier head is superseded.
                            if heads.insert((frame.key.0, frame.key.1), head).is_some() {
                                report.superseded += 1;
                            }
                            Ok(())
                        }
                        None => Err("undecodable head payload".to_owned()),
                    }
                } else if seen.contains(&frame.key) {
                    report.superseded += 1;
                    Ok(())
                } else {
                    check_payload(frame.key, payload, &mut report.checker_rejected).map(|()| {
                        seen.insert(frame.key);
                        live.push((frame.key, payload.to_vec()));
                    })
                };
                if let Err(reason) = verdict {
                    let fname = format!("{}-off-{pos}.frame", seg.label());
                    quarantine_bytes(&fname, &bytes[pos..end]);
                    report.quarantined.push((fname, reason));
                }
                pos = end;
            }
            if pos < bytes.len() {
                // Unparseable tail: quarantine it whole — the frames
                // inside it (if any) cannot be trusted past the
                // corruption point.
                report.scanned += 1;
                let fname = format!("{}-off-{pos}.frame", seg.label());
                quarantine_bytes(&fname, &bytes[pos..]);
                report.quarantined.push((
                    fname,
                    "corrupt frame (bad magic, version, bounds, or integrity fingerprint)"
                        .to_owned(),
                ));
            }
        }

        // Merge the fallback tiers behind the log (log frames win), then
        // fix a deterministic rewrite order.
        for (key, payload) in flat_live {
            if seen.insert(key) {
                report.migrated += 1;
                live.push((key, payload));
            } else {
                report.superseded += 1;
            }
        }
        for (key, head) in file_heads {
            match heads.entry(key) {
                std::collections::hash_map::Entry::Occupied(_) => report.superseded += 1,
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(head);
                }
            }
        }
        live.sort_by_key(|(k, _)| *k);
        let mut heads: Vec<(HeadKey, StoreHead)> = heads.into_iter().collect();
        heads.sort_by_key(|(k, _)| *k);
        report.ok += live.len() + heads.len();

        // Pass 3: lay the live set out into segment-sized chunks,
        // certificates then heads, and write each as a fresh segment.
        let head_payloads: Vec<(HeadKey, Vec<u8>)> =
            heads.iter().map(|(k, h)| (*k, enc_head(h))).collect();
        let frames = live
            .iter()
            .map(|(key, payload)| (CERT_MAGIC, *key, payload))
            .chain(
                head_payloads
                    .iter()
                    .map(|(key, payload)| (HEAD_MAGIC, head_frame_key(*key), payload)),
            );
        // (segment bytes, (key, payload offset, payload length, payload fp)
        // of each certificate in it).
        type Chunk = (Vec<u8>, Vec<(Key, u64, u32, u64)>);
        let mut chunks: Vec<Chunk> = Vec::new();
        for (magic, key, payload) in frames {
            let (frame, payload_fp) = build_frame(magic, key, payload);
            let fits = chunks.last().is_some_and(|(bytes, _)| {
                bytes.len() as u64 + frame.len() as u64 <= SEGMENT_CAP_BYTES
            });
            if !fits {
                chunks.push(Chunk::default());
            }
            let (bytes, certs) = chunks.last_mut().expect("a chunk was just ensured");
            if magic == CERT_MAGIC {
                let offset = (bytes.len() + FRAME_HEADER) as u64;
                certs.push((key, offset, payload.len() as u32, payload_fp));
            }
            bytes.extend_from_slice(&frame);
        }
        let mut new_index: HashMap<Key, Loc> = HashMap::new();
        for (bytes, certs) in chunks {
            let seq = inner.next_segment(&mut log)?;
            inner.write_atomic(&SegId::Log(seq).path(&inner.root), &bytes)?;
            report.segments_written += 1;
            for (key, offset, len, payload_fp) in certs {
                new_index.insert(
                    key,
                    Loc::Seg {
                        seg: SegId::Log(seq),
                        offset,
                        len,
                        payload_fp,
                    },
                );
            }
        }

        // Pass 4: the fresh segments are durable; sweep what they
        // replace. Best-effort: leftovers are duplicates the next
        // compaction sweeps.
        for seg in &segments {
            let _ = inner.fs.remove_file(&seg.path(&inner.root));
        }
        let mut shard_dirs: Vec<u8> = segments
            .iter()
            .filter_map(|seg| match seg {
                SegId::Shard(shard, _) => Some(*shard),
                SegId::Log(_) => None,
            })
            .collect();
        shard_dirs.dedup();
        for shard in shard_dirs {
            let _ = inner
                .fs
                .remove_dir(&inner.root.join(format!("shard-{shard:02x}")));
        }
        if let Ok(listing) = inner.fs.read_dir(&inner.root.join(LOG_DIR)) {
            for path in listing {
                if file_name(&path).is_some_and(|n| n.starts_with(".tmp-"))
                    && inner.fs.remove_file(&path).is_ok()
                {
                    report.tmp_removed += 1;
                }
            }
        }
        for path in replaced {
            let _ = inner.fs.remove_file(&path);
        }

        // Pass 5: serve the rewritten store.
        log.index = new_index;
        log.heads = heads
            .into_iter()
            .map(|(key, head)| (key, Head::Log(head)))
            .collect();
        log.written = 0;
        log.durable = 0;
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
    /// Keys served from segments.
    pub entries: usize,
    /// Keys still served from legacy flat files.
    pub flat_entries: usize,
    /// Head records served (head frames in the log, plus sharded-layout
    /// head files not yet folded into it).
    pub heads: usize,
    /// Segment files on disk.
    pub segments: usize,
    /// Total bytes across segment files.
    pub segment_bytes: u64,
    /// Total bytes across legacy flat entry files.
    pub flat_bytes: u64,
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
             segments       {} ({} bytes)\n\
             flat bytes     {}\n\
             index build    {:.3} ms ({} segments skipped)\n\
             hot tier       {} certificates\n",
            self.entries,
            self.flat_entries,
            self.heads,
            self.segments,
            self.segment_bytes,
            self.flat_bytes,
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
                "  \"segments\": {},\n  \"segment_bytes\": {},\n  \"flat_bytes\": {},\n",
                "  \"index_build_ms\": {:.3},\n  \"scan_skipped\": {},\n  \"hot_entries\": {}\n}}\n"
            ),
            self.entries,
            self.flat_entries,
            self.heads,
            self.segments,
            self.segment_bytes,
            self.flat_bytes,
            self.index_build_ms,
            self.scan_skipped,
            self.hot_entries
        )
    }
}

impl ProofStore {
    /// Measures the store: entry, head and segment counts, on-disk bytes
    /// and the open-time index build cost.
    ///
    /// # Errors
    ///
    /// Only if the store root cannot be listed; unreadable individual
    /// files contribute zero bytes.
    pub fn stat(&self) -> io::Result<StoreStat> {
        let inner = &*self.inner;
        let log = inner.log_lock();
        let mut stat = StoreStat {
            heads: log.heads.len(),
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
        for seg in list_segments(inner.fs.as_ref(), &inner.root, &inner.io_errors)? {
            if let Ok(len) = inner.fs.file_len(&seg.path(&inner.root)) {
                stat.segments += 1;
                stat.segment_bytes += len;
            }
        }
        for path in inner
            .fs
            .read_dir(&inner.root)
            .map_err(|e| err_at(e, "list store root", &inner.root))?
        {
            if file_name(&path).is_some_and(|n| n.ends_with(".cert")) {
                stat.flat_bytes += inner.fs.file_len(&path).unwrap_or(0);
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
/// first (the candidates are the run's [`crate::VerifyRun::loaded`], under
/// [`crate::Checks::Produced`]); rejected candidates are re-proved from
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
    let candidates = load_candidates(new, options, store);
    let loaded = candidates.len();
    let report = crate::reverify_core(
        new,
        &crate::incremental::with_jobs(options, jobs),
        crate::VerifyRun {
            loaded: &candidates,
            checks: crate::Checks::Produced,
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
/// The returned slice feeds the reuse planner (as
/// [`crate::VerifyRun::loaded`] of [`crate::reverify_core`], or
/// [`crate::DepGraph`] directly); nothing in it is trusted until it passes
/// the independent checker.
pub fn load_candidates(
    new: &CheckedProgram,
    options: &ProverOptions,
    store: &ProofStore,
) -> Vec<(String, Certificate)> {
    load_candidates_where(new, options, store, |_| true)
}

/// [`load_candidates`] for the properties `wanted` accepts only. When it
/// accepts none of `new`'s properties, nothing is read from the store,
/// not even the head record.
pub fn load_candidates_where(
    new: &CheckedProgram,
    options: &ProverOptions,
    store: &ProofStore,
    wanted: impl Fn(&str) -> bool,
) -> Vec<(String, Certificate)> {
    let props: Vec<&str> = new
        .program()
        .properties
        .iter()
        .map(|p| p.name.as_str())
        .filter(|name| wanted(name))
        .collect();
    if props.is_empty() {
        return Vec::new();
    }
    let fps = new.fingerprints();
    let opts_fp = options.fingerprint();
    let head = store.load_head(&new.program().name, opts_fp);

    let mut previous: Vec<(String, Certificate)> = Vec::new();
    for name in props {
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
            if cert.property() == name {
                // The planner wants owned certificates; one deep clone per
                // candidate per run, off the hot lookup path.
                previous.push((name.to_owned(), (*cert).clone()));
            }
        }
    }
    previous
}

/// The **persist** half of [`verify_with_store`]: appends this run's
/// certificates and the program's head record to the store's log and
/// commits them with one fsync ([`ProofStore::save_head`]), or none when
/// nothing changed, and returns how many entries are durably saved
/// (batch entries rolled back by a failed commit are subtracted).
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
    let head = StoreHead {
        program: fps.program,
        properties: new
            .program()
            .properties
            .iter()
            .filter_map(|p| Some((p.name.clone(), fps.property(&p.name)?)))
            .collect(),
    };
    // The commit for everything this run appended. A failed commit rolls
    // the batch back; its entries were counted saved above, so the
    // dropped delta comes back off the total.
    let _ = store.save_head(&new.program().name, opts_fp, &head);
    let dropped = usize::try_from(store.dropped_entries().saturating_sub(dropped_before))
        .unwrap_or(usize::MAX);
    saved.saturating_sub(dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_records_round_trip_and_name_files_back() {
        let head = StoreHead {
            program: Fp(0xabc),
            properties: vec![("Safe".into(), Fp(1)), ("Live".into(), Fp(u64::MAX))],
        };
        assert_eq!(decode_head(&enc_head(&head)), Some(head.clone()));
        assert_eq!(decode_head(&enc_head(&head)[1..]), None);
        let key = (Fp(0xdead), Fp(7));
        let (frame, _) = build_frame(HEAD_MAGIC, head_frame_key(key), &enc_head(&head));
        let f = parse_frame(&frame, 0).expect("parses");
        assert!(f.head, "a head frame is told apart from certificates");
        assert_eq!((f.key.0, f.key.1), key);
        assert_eq!(
            parse_head_name(&format!("head-{}-{}.head", key.0, key.1)),
            Some(key)
        );
        assert_eq!(parse_head_name("head-x-y.head"), None);
    }

    #[test]
    fn frames_parse_back_and_reject_corruption() {
        let key = (Fp(1), Fp(2), Fp(3));
        let (frame, pfp) = build_frame(CERT_MAGIC, key, b"payload-bytes");
        let f = parse_frame(&frame, 0).expect("parses");
        assert!(!f.head);
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
