//! Group commit: a WAL pipeline that batches commit frames from
//! concurrent workers and fsyncs once per batch.
//!
//! The fsync is the expensive step of a durable commit — paying it per
//! transaction serializes every committer behind the disk. Workers
//! *submit* their redo frames to a FIFO queue. The oldest submission
//! that is not yet durable **leads**: as soon as no write is in flight,
//! its submitter takes its own submission plus the whole submissions
//! queued behind it, up to [`GroupCommitConfig::max_batch_frames`],
//! writes them with one `write` + one `fsync`, and wakes everyone.
//! Nobody lingers for company: batching comes from the fsync itself,
//! since whoever arrives while a batch is being written queues up for
//! the next one (pipelined group commit, as PostgreSQL with
//! `commit_delay = 0`). A submit returns only once its submission is
//! durable — the **ack rule**: no commit is acknowledged (and no driver
//! counts it) before its batch reached stable storage.
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
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Batching policy for the commit pipeline.
#[derive(Debug, Clone)]
pub struct GroupCommitConfig {
    /// Most frames one batch carries; a batch always carries at least
    /// one whole submission, so a submission larger than the cap goes
    /// alone (1 = no batching: every submit pays its own fsync — the
    /// comparison point E19 measures).
    pub max_batch_frames: usize,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig {
            max_batch_frames: 16,
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
    /// Submissions no batch has taken yet, oldest first: encoded frames
    /// and frame count.
    queue: VecDeque<(Vec<u8>, usize)>,
    /// 1-based ordinal the next submission gets.
    next_seq: u64,
    /// Every submission with ordinal ≤ this is on disk.
    durable: u64,
    /// A leader is writing a batch.
    writing: bool,
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
                queue: VecDeque::new(),
                next_seq: 1,
                durable: 0,
                writing: false,
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

    /// Submit a transaction's redo frames and block until they are
    /// durable (the ack rule). Returns `Some(BatchAck)` when this call
    /// led the batch — its submission came first in it — so the caller
    /// can record fsync latency, `None` when it rode as a follower.
    /// `Err(WalCrashed)` means the frames did **not** become durable.
    pub fn submit(&self, events: &[ScheduleEvent]) -> Result<Option<BatchAck>, WalCrashed> {
        if events.is_empty() {
            return Ok(None);
        }
        let frames = encode_events(events);
        let mut st = self.state.lock().unwrap();
        if st.crashed {
            return Err(WalCrashed);
        }
        let me = st.next_seq;
        st.next_seq += 1;
        st.queue.push_back((frames, events.len()));
        loop {
            if st.durable >= me {
                return Ok(None);
            }
            if st.crashed {
                return Err(WalCrashed);
            }
            // Lead once this submission heads the queue and the disk is
            // free.
            if !st.writing && st.durable + 1 == me {
                break;
            }
            // The timeout only guards against missed wakeups.
            st = self
                .wakeup
                .wait_timeout(st, Duration::from_millis(5))
                .unwrap()
                .0;
        }
        // Take whole submissions, own first, while they fit the cap.
        let (mut batch, mut batch_frames) = st.queue.pop_front().expect("own submission");
        let mut taken = 1;
        let cap = self.cfg.max_batch_frames;
        while st
            .queue
            .front()
            .is_some_and(|(_, n)| batch_frames + n <= cap)
        {
            let (bytes, n) = st.queue.pop_front().expect("front exists");
            batch.extend_from_slice(&bytes);
            batch_frames += n;
            taken += 1;
        }
        st.writing = true;
        // One write at a time and none after a crash: ids run 1, 2, ...
        let batch_id = st.stats.batches + 1;
        drop(st);
        let res = self.write_batch(batch_id, &batch, batch_frames);
        st = self.state.lock().unwrap();
        st.writing = false;
        match res {
            Ok((ack, synced)) => {
                st.durable += taken;
                st.stats.batches += 1;
                st.stats.frames += ack.frames as u64;
                st.stats.bytes += ack.bytes as u64;
                st.stats.synced_bytes += synced as u64;
            }
            Err(WalCrashed) => st.crashed = true,
        }
        self.wakeup.notify_all();
        res.map(|(ack, _)| Some(ack))
    }

    /// Write one batch through the emulated page cache, applying the
    /// fault hook. Returns the ack and the bytes synced, or the crash.
    fn write_batch(
        &self,
        batch_id: u64,
        batch: &[u8],
        frames: usize,
    ) -> Result<(BatchAck, usize), WalCrashed> {
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
        let ack = BatchAck {
            batch: batch_id,
            frames,
            bytes: batch.len(),
            fsync_ns: start.elapsed().as_nanos() as u64,
        };
        Ok((ack, synced))
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
    use std::sync::{Arc, Barrier};

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

    /// Run `per_thread` submits on each of 4 threads against a WAL
    /// capped at `cap` frames. Checks that every frame landed and each
    /// submission stayed whole; returns the stats and every ack.
    fn hammer(tag: &str, cap: usize, per_thread: u64) -> (GroupCommitStats, Vec<BatchAck>) {
        let path = temp_wal(tag);
        let wal = GroupCommitWal::create(
            &path,
            GroupCommitConfig {
                max_batch_frames: cap,
            },
        )
        .unwrap();
        let acks: Vec<BatchAck> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let wal = &wal;
                    s.spawn(move || {
                        (0..per_thread)
                            .filter_map(|i| {
                                wal.submit(&txn_events(1 + t * per_thread + i)).unwrap()
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let stats = wal.stats();
        assert_eq!(stats.frames, 4 * per_thread * 3);
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
        (stats, acks)
    }

    #[test]
    fn concurrent_submitters_batch_and_each_batch_is_acked_once() {
        let (stats, acks) = hammer("many", 12, 50);
        assert_eq!(acks.len() as u64, stats.batches, "{stats:?}");
        let frames: usize = acks.iter().map(|a| a.frames).sum();
        assert_eq!(frames as u64, stats.frames);
        assert!(acks.iter().all(|a| a.frames <= 12), "{acks:?}");
    }

    #[test]
    fn cap_of_one_fsyncs_every_submit() {
        let (stats, acks) = hammer("cap1", 1, 25);
        assert_eq!(stats.batches, 100, "{stats:?}");
        assert_eq!(acks.len(), 100);
    }

    /// Meets the test at `gate` when batch `batch` starts writing, holds
    /// it for [`Hold::FOR`], then applies `then`.
    #[derive(Debug)]
    struct Hold {
        batch: u64,
        gate: Arc<Barrier>,
        then: FaultAction,
    }
    impl Hold {
        /// Far longer than three threads take to spawn and queue.
        const FOR: Duration = Duration::from_millis(150);
    }
    impl WalFault for Hold {
        fn on_batch(&self, batch: u64, _bytes: usize) -> FaultAction {
            if batch != self.batch {
                return FaultAction::Write;
            }
            self.gate.wait();
            std::thread::sleep(Hold::FOR);
            self.then
        }
    }

    /// What one `submit` returned.
    type Submitted = Result<Option<BatchAck>, WalCrashed>;

    /// Submit txns `1..held` one by one (one batch each), then txn
    /// `held` on its own thread; while its batch is held and ends in
    /// `then`, queue txns `held+1..=held+3` behind it. Returns the
    /// stats, the results of the last four submits in txn order and
    /// the events on disk.
    fn queue_behind_held_batch(
        tag: &str,
        cap: usize,
        held: u64,
        then: FaultAction,
    ) -> (GroupCommitStats, Vec<Submitted>, Vec<ScheduleEvent>) {
        let path = temp_wal(tag);
        let gate = Arc::new(Barrier::new(2));
        let hold = Hold {
            batch: held,
            gate: Arc::clone(&gate),
            then,
        };
        let cfg = GroupCommitConfig {
            max_batch_frames: cap,
        };
        let wal = GroupCommitWal::with_fault(&path, cfg, Some(Box::new(hold))).unwrap();
        for id in 1..held {
            wal.submit(&txn_events(id)).unwrap();
        }
        let results = std::thread::scope(|s| {
            let wal = &wal;
            let lead = s.spawn(move || wal.submit(&txn_events(held)));
            gate.wait();
            let queued: Vec<_> = (held + 1..=held + 3)
                .map(|id| s.spawn(move || wal.submit(&txn_events(id))))
                .collect();
            std::iter::once(lead)
                .chain(queued)
                .map(|h| h.join().unwrap())
                .collect()
        });
        let (events, report) = decode_wal(&std::fs::read(&path).unwrap()).unwrap();
        assert!(!report.torn());
        std::fs::remove_file(&path).ok();
        (wal.stats(), results, events)
    }

    #[test]
    fn queued_submits_share_the_next_batch_up_to_the_cap() {
        let (stats, results, _) = queue_behind_held_batch("share", 16, 1, FaultAction::Write);
        let acks: Vec<BatchAck> = results.iter().filter_map(|r| r.unwrap()).collect();
        assert_eq!(stats.batches, 2, "{stats:?}");
        assert_eq!(acks.len(), 2, "{acks:?}");
        let second = acks.iter().find(|a| a.batch == 2).expect("batch 2 acked");
        assert_eq!(
            second.frames, 9,
            "three queued 3-frame submits ride together"
        );

        let (stats, results, _) = queue_behind_held_batch("alone", 3, 1, FaultAction::Write);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(stats.batches, 4, "a 3-frame cap sends each submit alone");
        assert_eq!(stats.frames, 12);
    }

    #[test]
    fn crash_fails_every_queued_submitter() {
        let (stats, results, events) =
            queue_behind_held_batch("crashqueue", 16, 2, FaultAction::CrashAfterWrite);
        assert!(results.iter().all(|r| *r == Err(WalCrashed)), "{results:?}");
        assert_eq!(stats.batches, 1);
        assert_eq!(events, txn_events(1), "only batch 1 reached the disk");
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
