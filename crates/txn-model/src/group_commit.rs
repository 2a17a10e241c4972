//! Group commit: a WAL pipeline that batches commit frames from
//! concurrent workers and fsyncs once per batch.
//!
//! The fsync is the expensive step of a durable commit — paying it per
//! transaction serializes every committer behind the disk. DGCC-style
//! batch execution (see PAPERS.md) amortizes it: workers *submit* their
//! redo frames into a shared pending buffer; the first submitter whose
//! batch is open becomes the **leader**, waits until the batch is full
//! ([`GroupCommitConfig::max_batch_frames`]) or aged
//! ([`GroupCommitConfig::max_delay`]), writes the whole batch with one
//! `write` + one `fsync`, and wakes every follower. A submit returns
//! only once its batch is durable — the **ack rule**: no commit is
//! acknowledged (and no driver counts it) before its batch reached
//! stable storage.
//!
//! # Crash and fault emulation
//!
//! The writer models the OS page cache explicitly: `write` appends to an
//! in-process `cache` buffer; `fsync` moves the cache into the real file
//! and `sync_data`s it. A [`WalFault`] hook (implemented by
//! `chaos::disk`) can, per batch, tear the write at an arbitrary byte
//! offset, drop the fsync (acked-but-volatile — the lying-disk case), or
//! crash before/after the write. After a crash the real file holds
//! exactly the synced bytes (plus any torn prefix), which is what a
//! kill-at-any-point harness then hands to recovery. This module is not
//! modeled under `--cfg mc` (it does real file I/O), so it uses
//! `std::sync` primitives directly.

use crate::schedule::ScheduleEvent;
use crate::wal::{encode_events, WAL_MAGIC, WAL_VERSION};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Batching policy for the commit pipeline.
#[derive(Debug, Clone)]
pub struct GroupCommitConfig {
    /// Flush when this many frames are pending (1 = no batching: every
    /// submit pays its own fsync — the comparison point E19 measures).
    pub max_batch_frames: usize,
    /// Flush when the oldest pending frame has waited this long, even if
    /// the batch is not full (bounds commit latency under low load).
    pub max_delay: Duration,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig {
            max_batch_frames: 16,
            max_delay: Duration::from_millis(2),
        }
    }
}

/// What the fault hook tells the writer to do with one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Healthy path: write the batch, fsync it, ack.
    Write,
    /// Write only the first `n` bytes of the batch, force them to disk,
    /// then crash — the torn-final-write case recovery must truncate.
    TornWrite(usize),
    /// Write the batch but silently skip the fsync and ack anyway — the
    /// lying-disk case: the commit is acknowledged yet volatile, and a
    /// later crash loses it.
    DropFsync,
    /// Crash before any byte of the batch reaches the page cache.
    CrashBeforeWrite,
    /// Crash after the write but before the fsync (between WAL append
    /// and ack): the batch sat only in the page cache and is lost.
    CrashAfterWrite,
}

/// Per-batch fault hook (implemented by `chaos::disk`). `batch` is the
/// 1-based batch sequence number, `bytes` the batch size.
pub trait WalFault: Send + Sync + std::fmt::Debug {
    /// Decide this batch's fate.
    fn on_batch(&self, batch: u64, bytes: usize) -> FaultAction;
}

/// Returned to the submitter that led a batch: what one write+fsync
/// covered (followers get `None` — their frames rode in the leader's
/// batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchAck {
    /// 1-based batch sequence number.
    pub batch: u64,
    /// Frames the batch carried.
    pub frames: usize,
    /// Encoded bytes the batch carried.
    pub bytes: usize,
    /// Nanoseconds the write+fsync took.
    pub fsync_ns: u64,
}

/// The WAL crashed (a fault hook fired, or a real I/O error): the
/// submitted frames were *not* made durable and the commit must not be
/// acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalCrashed;

impl std::fmt::Display for WalCrashed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "group-commit WAL crashed before this batch became durable"
        )
    }
}

impl std::error::Error for WalCrashed {}

/// Cumulative pipeline counters (quiescent reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupCommitStats {
    /// Batches made durable.
    pub batches: u64,
    /// Frames made durable.
    pub frames: u64,
    /// Bytes made durable (acked; under `DropFsync` acked ≠ synced).
    pub bytes: u64,
    /// Bytes actually forced to stable storage.
    pub synced_bytes: u64,
}

/// Shared batching state (under the state mutex).
#[derive(Debug)]
struct State {
    /// Encoded frames waiting for the next batch.
    pending: Vec<u8>,
    /// Frame count in `pending`.
    pending_frames: usize,
    /// When the oldest pending frame arrived.
    batch_open_at: Option<Instant>,
    /// A leader is filling/writing a batch.
    leader: bool,
    /// 1-based id of the batch currently accumulating.
    next_batch: u64,
    /// Highest batch id acked durable.
    durable_batch: u64,
    /// A fault or I/O error killed the WAL.
    crashed: bool,
    stats: GroupCommitStats,
}

/// Emulated disk state (under its own mutex; only the current leader
/// touches it, but the mutex keeps batch writes ordered).
#[derive(Debug)]
struct Disk {
    file: File,
    /// The emulated OS page cache: written, not yet fsynced. A crash
    /// drops it; only `file` contents survive.
    cache: Vec<u8>,
}

/// The group-commit WAL pipeline (see module docs).
#[derive(Debug)]
pub struct GroupCommitWal {
    cfg: GroupCommitConfig,
    path: PathBuf,
    state: Mutex<State>,
    wakeup: Condvar,
    disk: Mutex<Disk>,
    fault: Option<Box<dyn WalFault>>,
}

impl GroupCommitWal {
    /// Create (truncating) the WAL file at `path` and write + sync its
    /// magic header.
    pub fn create(path: &Path, cfg: GroupCommitConfig) -> std::io::Result<Self> {
        Self::with_fault(path, cfg, None)
    }

    /// Like [`create`](Self::create), with a per-batch fault hook.
    pub fn with_fault(
        path: &Path,
        cfg: GroupCommitConfig,
        fault: Option<Box<dyn WalFault>>,
    ) -> std::io::Result<Self> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&WAL_MAGIC)?;
        file.write_all(&[WAL_VERSION])?;
        file.sync_data()?;
        Ok(GroupCommitWal {
            cfg,
            path: path.to_path_buf(),
            state: Mutex::new(State {
                pending: Vec::new(),
                pending_frames: 0,
                batch_open_at: None,
                leader: false,
                next_batch: 1,
                durable_batch: 0,
                crashed: false,
                stats: GroupCommitStats::default(),
            }),
            wakeup: Condvar::new(),
            disk: Mutex::new(Disk {
                file,
                cache: Vec::new(),
            }),
            fault,
        })
    }

    /// Path of the WAL file (what a harness hands to recovery after a
    /// crash: the file holds exactly the bytes that were synced).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// True once a fault or I/O error killed the pipeline.
    pub fn crashed(&self) -> bool {
        self.state.lock().unwrap().crashed
    }

    /// Cumulative counters.
    pub fn stats(&self) -> GroupCommitStats {
        self.state.lock().unwrap().stats
    }

    /// Submit a transaction's redo frames and block until their batch is
    /// durable (the ack rule). Returns `Some(BatchAck)` when this call
    /// led the batch (so the caller can record fsync latency), `None`
    /// when it rode as a follower. `Err(WalCrashed)` means the frames
    /// did **not** become durable.
    pub fn submit(&self, events: &[ScheduleEvent]) -> Result<Option<BatchAck>, WalCrashed> {
        if events.is_empty() {
            return Ok(None);
        }
        let frames = encode_events(events);
        let mut st = self.state.lock().unwrap();
        if st.crashed {
            return Err(WalCrashed);
        }
        if st.pending_frames == 0 {
            st.batch_open_at = Some(Instant::now());
        }
        st.pending.extend_from_slice(&frames);
        st.pending_frames += events.len();
        let my_batch = st.next_batch;
        if st.pending_frames >= self.cfg.max_batch_frames {
            // Wake a leader stuck in its fill window.
            self.wakeup.notify_all();
        }
        let mut ack = None;
        while st.durable_batch < my_batch {
            if st.crashed {
                return Err(WalCrashed);
            }
            if st.leader {
                // A leader is filling or writing; wait for its ack (the
                // timeout only guards against missed wakeups).
                st = self
                    .wakeup
                    .wait_timeout(st, Duration::from_millis(5))
                    .unwrap()
                    .0;
                continue;
            }
            // Become the leader of the currently accumulating batch.
            st.leader = true;
            loop {
                if st.crashed {
                    st.leader = false;
                    self.wakeup.notify_all();
                    return Err(WalCrashed);
                }
                if st.pending_frames >= self.cfg.max_batch_frames {
                    break;
                }
                let open_for = st.batch_open_at.map_or(Duration::ZERO, |t| t.elapsed());
                let Some(left) = self
                    .cfg
                    .max_delay
                    .checked_sub(open_for)
                    .filter(|d| !d.is_zero())
                else {
                    break;
                };
                st = self.wakeup.wait_timeout(st, left).unwrap().0;
            }
            let batch = std::mem::take(&mut st.pending);
            let batch_frames = std::mem::take(&mut st.pending_frames);
            let batch_id = st.next_batch;
            st.next_batch += 1;
            st.batch_open_at = None;
            drop(st);
            let res = self.write_batch(batch_id, &batch, batch_frames);
            st = self.state.lock().unwrap();
            st.leader = false;
            match res {
                Ok(a) => {
                    st.durable_batch = batch_id;
                    st.stats.batches += 1;
                    st.stats.frames += a.frames as u64;
                    st.stats.bytes += a.bytes as u64;
                    if batch_id == my_batch {
                        ack = Some(a);
                    }
                }
                Err(WalCrashed) => st.crashed = true,
            }
            self.wakeup.notify_all();
        }
        Ok(ack)
    }

    /// Write one batch through the emulated page cache, applying the
    /// fault hook. Returns the ack or the crash.
    fn write_batch(
        &self,
        batch_id: u64,
        batch: &[u8],
        frames: usize,
    ) -> Result<BatchAck, WalCrashed> {
        let mut disk = self.disk.lock().unwrap();
        let action = self
            .fault
            .as_ref()
            .map_or(FaultAction::Write, |f| f.on_batch(batch_id, batch.len()));
        let start = Instant::now();
        let synced = match action {
            FaultAction::Write => {
                disk.cache.extend_from_slice(batch);
                Self::flush(&mut disk).map_err(|_| WalCrashed)?
            }
            FaultAction::DropFsync => {
                // Acked-but-volatile: the batch stays in the page cache.
                disk.cache.extend_from_slice(batch);
                0
            }
            FaultAction::TornWrite(n) => {
                // The OS flushed a prefix of the in-flight write before
                // the crash: older cache bytes plus `n` bytes of this
                // batch land on disk, the rest vanishes.
                let n = n.min(batch.len());
                disk.cache.extend_from_slice(&batch[..n]);
                let _ = Self::flush(&mut disk);
                return Err(WalCrashed);
            }
            FaultAction::CrashBeforeWrite => return Err(WalCrashed),
            FaultAction::CrashAfterWrite => {
                disk.cache.extend_from_slice(batch);
                // Never flushed: the cache dies with the process.
                return Err(WalCrashed);
            }
        };
        let fsync_ns = start.elapsed().as_nanos() as u64;
        drop(disk);
        let mut st = self.state.lock().unwrap();
        st.stats.synced_bytes += synced as u64;
        drop(st);
        Ok(BatchAck {
            batch: batch_id,
            frames,
            bytes: batch.len(),
            fsync_ns,
        })
    }

    /// Move the emulated page cache into the real file and force it to
    /// stable storage. Returns the bytes synced.
    fn flush(disk: &mut Disk) -> std::io::Result<usize> {
        let n = disk.cache.len();
        disk.file.write_all(&disk.cache)?;
        disk.cache.clear();
        disk.file.sync_data()?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClassId, GranuleId, SegmentId, Timestamp, TxnId};
    use crate::value::Value;
    use crate::wal::decode_wal;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn temp_wal(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        // ordering: Relaxed — test-file name uniqueness only needs RMW
        // atomicity of the counter, no cross-thread publication.
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("hdd-gcwal-{}-{tag}-{n}.wal", std::process::id()))
    }

    fn txn_events(id: u64) -> Vec<ScheduleEvent> {
        vec![
            ScheduleEvent::Begin {
                txn: TxnId(id),
                start_ts: Timestamp(id),
                class: Some(ClassId(0)),
            },
            ScheduleEvent::Write {
                txn: TxnId(id),
                granule: GranuleId::new(SegmentId(0), 1),
                version: Timestamp(id),
                value: Arc::new(Value::Int(id as i64)),
            },
            ScheduleEvent::Commit {
                txn: TxnId(id),
                commit_ts: Timestamp(id + 1),
            },
        ]
    }

    #[test]
    fn single_submitter_is_durable_and_decodable() {
        let path = temp_wal("single");
        let wal = GroupCommitWal::create(
            &path,
            GroupCommitConfig {
                max_batch_frames: 1,
                ..GroupCommitConfig::default()
            },
        )
        .unwrap();
        let ack = wal
            .submit(&txn_events(1))
            .unwrap()
            .expect("sole submitter leads");
        assert_eq!(ack.batch, 1);
        assert_eq!(ack.frames, 3);
        let bytes = std::fs::read(&path).unwrap();
        let (events, report) = decode_wal(&bytes).unwrap();
        assert_eq!(events, txn_events(1));
        assert!(!report.torn());
        assert_eq!(wal.stats().batches, 1);
        assert_eq!(wal.stats().synced_bytes, wal.stats().bytes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_submitters_batch_and_all_frames_land() {
        let path = temp_wal("many");
        let wal = Arc::new(
            GroupCommitWal::create(
                &path,
                GroupCommitConfig {
                    max_batch_frames: 12,
                    max_delay: Duration::from_millis(1),
                },
            )
            .unwrap(),
        );
        let n_threads = 4u64;
        let per_thread = 25u64;
        std::thread::scope(|s| {
            for t in 0..n_threads {
                let wal = Arc::clone(&wal);
                s.spawn(move || {
                    for i in 0..per_thread {
                        wal.submit(&txn_events(1 + t * per_thread + i)).unwrap();
                    }
                });
            }
        });
        let stats = wal.stats();
        assert_eq!(stats.frames, n_threads * per_thread * 3);
        assert!(
            stats.batches < stats.frames,
            "batching must amortize: {} batches for {} frames",
            stats.batches,
            stats.frames
        );
        let (events, report) = decode_wal(&std::fs::read(&path).unwrap()).unwrap();
        assert!(!report.torn());
        assert_eq!(events.len() as u64, stats.frames);
        // Every transaction's Begin precedes its Commit (frames of one
        // submit stay contiguous and ordered).
        let mut begun = std::collections::HashSet::new();
        for ev in &events {
            match ev {
                ScheduleEvent::Begin { txn, .. } => assert!(begun.insert(*txn)),
                ScheduleEvent::Commit { txn, .. } => assert!(begun.contains(txn)),
                _ => {}
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Crash exactly at batch `k`, with the given action.
    #[derive(Debug)]
    struct CrashAt(u64, FaultAction);
    impl WalFault for CrashAt {
        fn on_batch(&self, batch: u64, _bytes: usize) -> FaultAction {
            if batch == self.0 {
                self.1
            } else {
                FaultAction::Write
            }
        }
    }

    #[test]
    fn crash_between_append_and_ack_loses_only_the_unacked_batch() {
        let path = temp_wal("crash");
        let wal = GroupCommitWal::with_fault(
            &path,
            GroupCommitConfig {
                max_batch_frames: 1,
                ..GroupCommitConfig::default()
            },
            Some(Box::new(CrashAt(2, FaultAction::CrashAfterWrite))),
        )
        .unwrap();
        assert!(wal.submit(&txn_events(1)).is_ok());
        assert_eq!(wal.submit(&txn_events(2)), Err(WalCrashed));
        assert!(wal.crashed());
        assert_eq!(
            wal.submit(&txn_events(3)),
            Err(WalCrashed),
            "crashed WAL refuses"
        );
        // On-disk: batch 1 only; batch 2 died in the page cache.
        let (events, report) = decode_wal(&std::fs::read(&path).unwrap()).unwrap();
        assert!(!report.torn());
        assert_eq!(events, txn_events(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_write_leaves_a_truncatable_tail() {
        let path = temp_wal("torn");
        let wal = GroupCommitWal::with_fault(
            &path,
            GroupCommitConfig {
                max_batch_frames: 1,
                ..GroupCommitConfig::default()
            },
            Some(Box::new(CrashAt(2, FaultAction::TornWrite(7)))),
        )
        .unwrap();
        assert!(wal.submit(&txn_events(1)).is_ok());
        assert_eq!(wal.submit(&txn_events(2)), Err(WalCrashed));
        let bytes = std::fs::read(&path).unwrap();
        let (events, report) = decode_wal(&bytes).unwrap();
        assert_eq!(events, txn_events(1), "torn frame must not replay");
        assert!(report.torn());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dropped_fsync_acks_but_a_later_crash_loses_the_batch() {
        let path = temp_wal("dropfsync");
        let wal = GroupCommitWal::with_fault(
            &path,
            GroupCommitConfig {
                max_batch_frames: 1,
                ..GroupCommitConfig::default()
            },
            Some(Box::new(CrashAt(2, FaultAction::DropFsync))),
        )
        .unwrap();
        assert!(wal.submit(&txn_events(1)).is_ok());
        // The lying disk acks batch 2 without syncing it...
        assert!(wal.submit(&txn_events(2)).is_ok());
        // ...batch 3 flushes the cache (2 rides along), so no loss yet;
        // but if the process dies *before* any later flush, 2 is gone.
        let (events, _) = decode_wal(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(events, txn_events(1), "acked batch 2 is not on disk");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crash_before_write_leaves_disk_at_previous_batch() {
        let path = temp_wal("beforewrite");
        let wal = GroupCommitWal::with_fault(
            &path,
            GroupCommitConfig {
                max_batch_frames: 1,
                ..GroupCommitConfig::default()
            },
            Some(Box::new(CrashAt(1, FaultAction::CrashBeforeWrite))),
        )
        .unwrap();
        assert_eq!(wal.submit(&txn_events(1)), Err(WalCrashed));
        let (events, report) = decode_wal(&std::fs::read(&path).unwrap()).unwrap();
        assert!(events.is_empty());
        assert!(!report.torn(), "header-only file is clean, not torn");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_submit_is_a_noop() {
        let path = temp_wal("empty");
        let wal = GroupCommitWal::create(&path, GroupCommitConfig::default()).unwrap();
        assert_eq!(wal.submit(&[]), Ok(None));
        assert_eq!(wal.stats(), GroupCommitStats::default());
        std::fs::remove_file(&path).ok();
    }
}
