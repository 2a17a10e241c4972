//! A zero-dependency log-structured durable backend.
//!
//! [`FileBackend`] keeps the authoritative committed state in append-only
//! *segment files* under a directory, with a full in-memory [`MvStore`]
//! as the index (every read is served from memory; the files exist so a
//! process crash loses nothing that was committed). The on-disk format
//! deliberately reuses the WAL's checksummed framing
//! (`txn_model::wal::{frame_into, raw_frame, encode_value,
//! decode_value}`) so both durable artifacts share one torn-tail story:
//!
//! ```text
//! seg-NNNNNN.log := "HDDSEG" [version u8] frame*
//! frame          := [u32 len LE] [u64 fnv LE] payload
//! payload        := REC_VERSION  seg u32, key u64, ts u64, writer u64, value
//!                 | REC_TRUNCATE wm u64
//! ```
//!
//! * `REC_VERSION` records one committed version (seeds are versions at
//!   `Timestamp::ZERO` by `TxnId(0)`); replay is idempotent — a later
//!   record at the same `(granule, ts)` replaces the earlier one, which
//!   is exactly what redo replay needs.
//! * `REC_TRUNCATE` journals a GC watermark so replay re-prunes instead
//!   of resurrecting reclaimed versions.
//!
//! # Crash safety
//!
//! [`FileBackend::open`] replays every segment in order. A torn frame at
//! the tail of the **last** segment is the expected crash artifact: it is
//! physically truncated (`set_len`) and appending resumes at the cut. A
//! torn frame in any *earlier* segment, or a file with the wrong magic or
//! version, is not a crash artifact — it is corruption or a foreign file,
//! and `open` refuses with a clear [`OpenError`] rather than silently
//! dropping data. Segment rotation writes and syncs the new header, then
//! fsyncs the directory, before any record lands in the new file.

use crate::backend::{StorageBackend, VersionRecord};
use crate::chain::VersionChain;
use crate::store::MvStore;
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use txn_model::wal::{decode_value, encode_value, frame_into, raw_frame};
use txn_model::{GranuleId, SegmentId, Timestamp, TxnId, Value};

/// Magic bytes opening every segment file (followed by [`SEG_VERSION`]).
pub const SEG_MAGIC: [u8; 6] = *b"HDDSEG";

/// Current segment file-format version.
pub const SEG_VERSION: u8 = 1;

/// Length of the segment file header (magic + version byte).
pub const SEG_HEADER_LEN: usize = SEG_MAGIC.len() + 1;

/// Record tags (first payload byte).
const REC_VERSION: u8 = 1;
const REC_TRUNCATE: u8 = 2;

/// Knobs for the file backend.
#[derive(Debug, Clone)]
pub struct FileBackendConfig {
    /// Rotate to a new segment file once the current one reaches this
    /// many bytes (a single oversized append may still exceed it).
    pub segment_bytes: u64,
    /// Journal committed versions to the segment files at commit time
    /// (synced before the commit returns).
    /// Disable to run the backend as index-plus-checkpoint only, with
    /// the WAL carrying all redo state — the E19 soak configuration,
    /// which keeps segments from getting *ahead* of a torn WAL.
    pub log_commits: bool,
}

impl Default for FileBackendConfig {
    fn default() -> Self {
        FileBackendConfig {
            segment_bytes: 4 << 20,
            log_commits: true,
        }
    }
}

/// Why [`FileBackend::open`] refused a directory.
#[derive(Debug)]
pub enum OpenError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A segment file is not ours: bad magic or unsupported version.
    /// Refusing beats silently truncating someone else's data to zero.
    Foreign {
        /// Offending file.
        file: PathBuf,
        /// What was wrong with its header.
        reason: String,
    },
    /// A torn frame in a *non-last* segment. Only the last segment can
    /// legitimately tear (the crash artifact); an interior tear means
    /// corruption that redo replay cannot safely skip over.
    TornInterior {
        /// Offending file.
        file: PathBuf,
        /// Absolute byte offset of the torn frame.
        offset: usize,
    },
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::Io(e) => write!(f, "file backend I/O error: {e}"),
            OpenError::Foreign { file, reason } => {
                write!(f, "{} is not an HDD segment file: {reason}", file.display())
            }
            OpenError::TornInterior { file, offset } => write!(
                f,
                "{} has a torn frame at byte {offset} but is not the last segment: \
                 refusing to replay past interior corruption",
                file.display()
            ),
        }
    }
}

impl std::error::Error for OpenError {}

impl From<std::io::Error> for OpenError {
    fn from(e: std::io::Error) -> Self {
        OpenError::Io(e)
    }
}

/// The append head (current segment file and its fill level).
#[derive(Debug)]
struct SegWriter {
    file: File,
    seg_no: u32,
    bytes: u64,
}

/// The log-structured durable backend (see module docs).
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
    cfg: FileBackendConfig,
    index: MvStore,
    writer: Mutex<SegWriter>,
}

fn seg_path(dir: &Path, seg_no: u32) -> PathBuf {
    dir.join(format!("seg-{seg_no:06}.log"))
}

/// Create a segment file with its header written and synced, then fsync
/// the directory so the new name survives a crash.
fn create_segment(dir: &Path, seg_no: u32) -> std::io::Result<File> {
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(seg_path(dir, seg_no))?;
    file.write_all(&SEG_MAGIC)?;
    file.write_all(&[SEG_VERSION])?;
    file.sync_data()?;
    File::open(dir)?.sync_all()?;
    Ok(file)
}

fn encode_version_record(out: &mut Vec<u8>, r: &VersionRecord) {
    let mut payload = Vec::with_capacity(40);
    payload.push(REC_VERSION);
    payload.extend_from_slice(&r.granule.segment.0.to_le_bytes());
    payload.extend_from_slice(&r.granule.key.to_le_bytes());
    payload.extend_from_slice(&r.ts.0.to_le_bytes());
    payload.extend_from_slice(&r.writer.0.to_le_bytes());
    encode_value(&mut payload, &r.value);
    frame_into(out, &payload);
}

fn encode_truncate_record(out: &mut Vec<u8>, wm: Timestamp) {
    let mut payload = Vec::with_capacity(9);
    payload.push(REC_TRUNCATE);
    payload.extend_from_slice(&wm.0.to_le_bytes());
    frame_into(out, &payload);
}

fn rd_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let b = buf.get(*pos..*pos + 4)?;
    *pos += 4;
    Some(u32::from_le_bytes(b.try_into().unwrap()))
}

fn rd_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let b = buf.get(*pos..*pos + 8)?;
    *pos += 8;
    Some(u64::from_le_bytes(b.try_into().unwrap()))
}

/// One decoded segment record.
enum SegRecord {
    Version(VersionRecord),
    Truncate(Timestamp),
}

fn decode_record(payload: &[u8]) -> Option<SegRecord> {
    let tag = *payload.first()?;
    let mut pos = 1usize;
    match tag {
        REC_VERSION => {
            let seg = rd_u32(payload, &mut pos)?;
            let key = rd_u64(payload, &mut pos)?;
            let ts = rd_u64(payload, &mut pos)?;
            let writer = rd_u64(payload, &mut pos)?;
            let (value, used) = decode_value(&payload[pos..])?;
            pos += used;
            (pos == payload.len()).then_some(SegRecord::Version(VersionRecord {
                granule: GranuleId::new(SegmentId(seg), key),
                ts: Timestamp(ts),
                value: Arc::new(value),
                writer: TxnId(writer),
            }))
        }
        REC_TRUNCATE => {
            let wm = rd_u64(payload, &mut pos)?;
            (pos == payload.len()).then_some(SegRecord::Truncate(Timestamp(wm)))
        }
        _ => None,
    }
}

impl FileBackend {
    /// Open (creating if needed) the backend rooted at `dir`, replaying
    /// every segment file into the in-memory index. See the module docs
    /// for the torn-tail / foreign-file policy.
    pub fn open(dir: &Path, cfg: FileBackendConfig) -> Result<Self, OpenError> {
        std::fs::create_dir_all(dir)?;
        let mut seg_nos: Vec<u32> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".log"))
            {
                if let Ok(n) = num.parse::<u32>() {
                    seg_nos.push(n);
                }
            }
        }
        seg_nos.sort_unstable();

        let index = MvStore::new();
        let mut writer = None;
        for (i, &seg_no) in seg_nos.iter().enumerate() {
            let path = seg_path(dir, seg_no);
            let buf = std::fs::read(&path)?;
            if buf.len() < SEG_HEADER_LEN || buf[..SEG_MAGIC.len()] != SEG_MAGIC {
                return Err(OpenError::Foreign {
                    file: path,
                    reason: "magic bytes mismatch (expected \"HDDSEG\")".into(),
                });
            }
            if buf[SEG_MAGIC.len()] != SEG_VERSION {
                return Err(OpenError::Foreign {
                    file: path,
                    reason: format!(
                        "segment format version {} not supported (this build reads {SEG_VERSION})",
                        buf[SEG_MAGIC.len()]
                    ),
                });
            }
            let mut pos = SEG_HEADER_LEN;
            let mut torn_at = None;
            while pos < buf.len() {
                let Some((payload, next)) = raw_frame(&buf, pos) else {
                    torn_at = Some(pos);
                    break;
                };
                let Some(rec) = decode_record(payload) else {
                    torn_at = Some(pos);
                    break;
                };
                match rec {
                    SegRecord::Version(r) => index.put_versions(std::slice::from_ref(&r)),
                    SegRecord::Truncate(wm) => {
                        MvStore::prune_before(&index, wm);
                    }
                }
                pos = next;
            }
            let is_last = i == seg_nos.len() - 1;
            if let Some(off) = torn_at {
                if !is_last {
                    return Err(OpenError::TornInterior {
                        file: path,
                        offset: off,
                    });
                }
                // The crash artifact: physically truncate the torn tail
                // so appending resumes from a clean frame boundary.
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(off as u64)?;
                file.sync_data()?;
                pos = off;
            }
            if is_last {
                let mut file = OpenOptions::new().write(true).open(&path)?;
                // Append from the replayed (possibly truncated) end.
                file.seek(std::io::SeekFrom::End(0))?;
                writer = Some(SegWriter {
                    file,
                    seg_no,
                    bytes: pos as u64,
                });
            }
        }
        let writer = match writer {
            Some(w) => w,
            None => SegWriter {
                file: create_segment(dir, 0)?,
                seg_no: 0,
                bytes: SEG_HEADER_LEN as u64,
            },
        };
        Ok(FileBackend {
            dir: dir.to_path_buf(),
            cfg,
            index,
            writer: Mutex::new(writer),
        })
    }

    /// Directory the segment files live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of the segment currently being appended to.
    pub fn current_segment(&self) -> u32 {
        self.writer.lock().seg_no
    }

    /// Append pre-encoded frames to the log, rotating first if the
    /// current segment is full, then optionally forcing them to disk.
    fn append(&self, frames: &[u8], sync: bool) -> std::io::Result<()> {
        let mut w = self.writer.lock();
        if w.bytes >= self.cfg.segment_bytes {
            // Crash-safe rotation: the old segment is synced shut, the
            // new header is durable (file + directory) before any record
            // lands in it.
            w.file.sync_data()?;
            let next = w.seg_no + 1;
            w.file = create_segment(&self.dir, next)?;
            w.seg_no = next;
            w.bytes = SEG_HEADER_LEN as u64;
        }
        w.file.write_all(frames)?;
        w.bytes += frames.len() as u64;
        if sync {
            w.file.sync_data()?;
        }
        Ok(())
    }

    fn append_version_records(&self, recs: &[VersionRecord], sync: bool) {
        let mut frames = Vec::with_capacity(recs.len() * 52);
        for r in recs {
            encode_version_record(&mut frames, r);
        }
        self.append(&frames, sync).expect("segment append failed");
    }
}

impl StorageBackend for FileBackend {
    fn name(&self) -> &'static str {
        "file"
    }

    fn persistent(&self) -> bool {
        true
    }

    fn seed(&self, g: GranuleId, value: Value) {
        // Seeds are journaled unconditionally (even with `log_commits`
        // off): the WAL never carries them, so a reopened backend must
        // restore the initial database itself. No per-seed fsync —
        // population syncs once via `sync()` or the first commit.
        let rec = VersionRecord {
            granule: g,
            ts: Timestamp::ZERO,
            value: Arc::new(value.clone()),
            writer: TxnId(0),
        };
        self.index.seed(g, value);
        self.append_version_records(std::slice::from_ref(&rec), false);
    }

    fn with_chain_dyn(&self, g: GranuleId, f: &mut dyn FnMut(&mut VersionChain)) {
        self.index.with_chain(g, |c| f(c));
    }

    fn commit_writes(&self, writer: TxnId, write_set: &[GranuleId]) {
        let mut recs = Vec::new();
        for &g in write_set {
            self.index.with_chain(g, |c| {
                c.commit_writer(writer);
                if self.cfg.log_commits {
                    if let Some(v) = c.version_by_writer(writer) {
                        if v.committed {
                            recs.push(VersionRecord {
                                granule: g,
                                ts: v.ts,
                                value: Arc::clone(&v.value),
                                writer,
                            });
                        }
                    }
                }
            });
        }
        if !recs.is_empty() {
            // The trait's durability point: records hit stable storage
            // before commit_writes returns.
            self.append_version_records(&recs, true);
        }
    }

    fn abort_writes(&self, writer: TxnId, write_set: &[GranuleId]) {
        // Redo discipline: pending versions were never journaled, so an
        // abort is memory-only.
        self.index.abort_writes(writer, write_set);
    }

    fn put_versions(&self, batch: &[VersionRecord]) {
        StorageBackend::put_versions(&self.index, batch);
        if !batch.is_empty() {
            // Recovery replay re-journals what it installs so the next
            // crash recovers from segments alone; synced because the
            // caller (recovery) has no later durability point.
            self.append_version_records(batch, true);
        }
    }

    fn scan_chains(&self, f: &mut dyn FnMut(GranuleId, &VersionChain)) {
        self.index.for_each_chain(f);
    }

    fn prune_before(&self, wm: Timestamp) -> usize {
        let reclaimed = self.index.prune_before(wm);
        // Journal the watermark so replay re-prunes; advisory, unsynced.
        let mut frames = Vec::with_capacity(32);
        encode_truncate_record(&mut frames, wm);
        self.append(&frames, false).expect("segment append failed");
        reclaimed
    }

    fn version_count(&self) -> usize {
        self.index.version_count()
    }

    fn granule_count(&self) -> usize {
        self.index.granule_count()
    }

    fn max_chain_len(&self) -> usize {
        self.index.max_chain_len()
    }

    fn sync(&self) -> std::io::Result<()> {
        self.writer.lock().file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        // ordering: Relaxed — test-dir name uniqueness only needs RMW
        // atomicity of the counter, no cross-thread publication.
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("hdd-filestore-{}-{tag}-{n}", std::process::id()))
    }

    fn g(seg: u32, key: u64) -> GranuleId {
        GranuleId::new(SegmentId(seg), key)
    }

    fn commit_one(store: &FileBackend, key: u64, ts: u64, val: i64, txn: u64) {
        store.index.with_chain(g(0, key), |c| {
            c.mvto_write(Timestamp(ts), Arc::new(Value::Int(val)), TxnId(txn));
        });
        StorageBackend::commit_writes(store, TxnId(txn), &[g(0, key)]);
    }

    #[test]
    fn seeds_and_commits_survive_reopen() {
        let dir = temp_dir("reopen");
        {
            let store = FileBackend::open(&dir, FileBackendConfig::default()).unwrap();
            assert_eq!(store.name(), "file");
            assert!(store.persistent());
            StorageBackend::seed(&store, g(0, 1), Value::Int(10));
            StorageBackend::seed(&store, g(0, 2), Value::Int(20));
            commit_one(&store, 1, 5, 50, 7);
            store.sync().unwrap();
        }
        let store = FileBackend::open(&dir, FileBackendConfig::default()).unwrap();
        let dynstore: &dyn StorageBackend = &store;
        assert_eq!(dynstore.latest_value(g(0, 1)), Value::Int(50));
        assert_eq!(dynstore.latest_value(g(0, 2)), Value::Int(20));
        assert_eq!(dynstore.value_as_of(g(0, 1), Timestamp(5)), Value::Int(10));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_splits_the_log_and_replay_stitches_it() {
        let dir = temp_dir("rotate");
        let cfg = FileBackendConfig {
            segment_bytes: 256,
            ..FileBackendConfig::default()
        };
        {
            let store = FileBackend::open(&dir, cfg.clone()).unwrap();
            StorageBackend::seed(&store, g(0, 1), Value::Int(0));
            for ts in 1..=40u64 {
                commit_one(&store, 1, ts, ts as i64, ts);
            }
            assert!(store.current_segment() >= 2, "tiny segments must rotate");
        }
        let store = FileBackend::open(&dir, cfg).unwrap();
        let dynstore: &dyn StorageBackend = &store;
        assert_eq!(dynstore.latest_value(g(0, 1)), Value::Int(40));
        assert_eq!(store.version_count(), 41);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_segment_file_is_rejected_with_a_clear_error() {
        let dir = temp_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(seg_path(&dir, 0), b"NOT A SEGMENT FILE AT ALL").unwrap();
        match FileBackend::open(&dir, FileBackendConfig::default()) {
            Err(OpenError::Foreign { file, reason }) => {
                assert_eq!(file, seg_path(&dir, 0));
                assert!(reason.contains("magic"), "got: {reason}");
            }
            other => panic!("expected Foreign, got {other:?}"),
        }
        // Future format version: also refused, naming the version.
        std::fs::write(seg_path(&dir, 0), [b'H', b'D', b'D', b'S', b'E', b'G', 9]).unwrap();
        match FileBackend::open(&dir, FileBackendConfig::default()) {
            Err(OpenError::Foreign { reason, .. }) => assert!(reason.contains('9')),
            other => panic!("expected Foreign, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_in_last_segment_truncates_and_appends_resume() {
        let dir = temp_dir("torn");
        {
            let store = FileBackend::open(&dir, FileBackendConfig::default()).unwrap();
            StorageBackend::seed(&store, g(0, 1), Value::Int(1));
            commit_one(&store, 1, 3, 33, 2);
            store.sync().unwrap();
        }
        // Tear the tail: chop 5 bytes off the last (only) segment.
        let path = seg_path(&dir, 0);
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 5)
            .unwrap();
        {
            let store = FileBackend::open(&dir, FileBackendConfig::default()).unwrap();
            let dynstore: &dyn StorageBackend = &store;
            // The torn commit record did not replay; the seed did.
            assert_eq!(dynstore.latest_value(g(0, 1)), Value::Int(1));
            // The file was physically truncated back to a frame boundary
            // (strictly shorter than the torn image, but past the header).
            let new_len = std::fs::metadata(&path).unwrap().len();
            assert!(new_len < len - 5, "tear cut back to frame start");
            assert!(new_len > SEG_HEADER_LEN as u64);
            // And appending resumes cleanly after the cut.
            commit_one(&store, 1, 7, 77, 3);
        }
        let store = FileBackend::open(&dir, FileBackendConfig::default()).unwrap();
        let dynstore: &dyn StorageBackend = &store;
        assert_eq!(dynstore.latest_value(g(0, 1)), Value::Int(77));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_frame_in_interior_segment_is_refused() {
        let dir = temp_dir("interior");
        let cfg = FileBackendConfig {
            segment_bytes: 128,
            ..FileBackendConfig::default()
        };
        {
            let store = FileBackend::open(&dir, cfg.clone()).unwrap();
            StorageBackend::seed(&store, g(0, 1), Value::Int(0));
            for ts in 1..=20u64 {
                commit_one(&store, 1, ts, ts as i64, ts);
            }
            assert!(store.current_segment() >= 1);
        }
        // Corrupt the FIRST segment's tail — not a legal crash artifact.
        let path = seg_path(&dir, 0);
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        match FileBackend::open(&dir, cfg) {
            Err(OpenError::TornInterior { file, .. }) => assert_eq!(file, path),
            other => panic!("expected TornInterior, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_records_replay_the_gc_watermark() {
        let dir = temp_dir("gc");
        {
            let store = FileBackend::open(&dir, FileBackendConfig::default()).unwrap();
            StorageBackend::seed(&store, g(0, 1), Value::Int(0));
            for ts in 1..=5u64 {
                commit_one(&store, 1, ts, ts as i64, ts);
            }
            assert_eq!(store.version_count(), 6);
            let reclaimed = StorageBackend::prune_before(&store, Timestamp(5));
            assert_eq!(reclaimed, 4); // keep ts=4 (snapshot below wm) and 5
            store.sync().unwrap();
        }
        let store = FileBackend::open(&dir, FileBackendConfig::default()).unwrap();
        assert_eq!(store.version_count(), 2, "replay must re-prune");
        let dynstore: &dyn StorageBackend = &store;
        assert_eq!(dynstore.latest_value(g(0, 1)), Value::Int(5));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn put_versions_is_durable_without_explicit_sync() {
        let dir = temp_dir("putv");
        {
            let store = FileBackend::open(&dir, FileBackendConfig::default()).unwrap();
            StorageBackend::put_versions(
                &store,
                &[VersionRecord {
                    granule: g(0, 9),
                    ts: Timestamp(4),
                    value: Arc::new(Value::Int(44)),
                    writer: TxnId(3),
                }],
            );
        }
        let store = FileBackend::open(&dir, FileBackendConfig::default()).unwrap();
        let dynstore: &dyn StorageBackend = &store;
        assert_eq!(dynstore.latest_value(g(0, 9)), Value::Int(44));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every chain rendered as `granule: [(ts, value, writer), …]`, sorted.
    fn views(store: &FileBackend) -> Vec<String> {
        let mut out = Vec::new();
        store.scan_chains(&mut |gr, c| {
            let versions: Vec<_> = c
                .versions()
                .iter()
                .map(|v| (v.ts.raw(), &*v.value, v.writer.0))
                .collect();
            out.push(format!("{gr}: {versions:?}"));
        });
        out.sort();
        out
    }

    #[test]
    fn reopened_store_equals_the_live_one_and_collects_the_same() {
        let dir = temp_dir("gc-equiv");
        let live = FileBackend::open(&dir, FileBackendConfig::default()).unwrap();
        for key in 0..8u64 {
            StorageBackend::seed(&live, g(0, key), Value::Int(0));
        }
        // Commits interleaved with prunes: keys 0..4 keep growing after
        // the last prune, the rest are back at one version.
        let mut ts = 0u64;
        for round in 0..6u64 {
            for key in 0..8u64 {
                if round < 4 || key < 4 {
                    ts += 1;
                    commit_one(&live, key, ts, ts as i64, ts);
                }
            }
            if round % 2 == 1 && round < 4 {
                StorageBackend::prune_before(&live, Timestamp(ts - 3));
            }
        }
        live.sync().unwrap();

        // The crash image: what a reopen after a kill would read.
        let image = temp_dir("gc-equiv-image");
        std::fs::create_dir_all(&image).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), image.join(entry.file_name())).unwrap();
        }
        let reopened = FileBackend::open(&image, FileBackendConfig::default()).unwrap();
        assert_eq!(views(&reopened), views(&live));

        // Chains replay rebuilt with more than one version are queued —
        // otherwise a recovered store would never collect them.
        let queued = reopened.index.gc_queue();
        let mut long = 0;
        reopened.scan_chains(&mut |gr, c| {
            if c.len() > 1 {
                long += 1;
                assert!(queued.contains(&gr), "{gr} rebuilt long but not queued");
            }
        });
        assert!(long >= 4, "the script must leave chains to collect");

        let wm = Timestamp(ts - 1);
        let reclaimed = StorageBackend::prune_before(&live, wm);
        assert!(reclaimed > 0);
        assert_eq!(StorageBackend::prune_before(&reopened, wm), reclaimed);
        assert_eq!(views(&reopened), views(&live));
        assert_eq!(reopened.version_count(), live.version_count());
        assert_eq!(reopened.max_chain_len(), live.max_chain_len());
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&image).ok();
    }
}
