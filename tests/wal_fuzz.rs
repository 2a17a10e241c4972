//! Byte fuzz of the WAL decoder: a seeded mutation loop over a WAL that
//! `GroupCommitWal` wrote from an inventory run.
//!
//! - A bit flip or a truncation must decode to exactly the frames that
//!   lie wholly before the first damaged byte, reporting the tear at the
//!   damaged frame's start; damage inside the file header must be an
//!   `Err`, never a torn decode.
//! - A duplicated frame, a spliced cut-and-join or inserted garbage may
//!   decode further, but every frame it yields must be byte-identical to
//!   a frame the writer wrote.
//!
//! Nothing may panic. A failure names its mutation and the offsets it
//! hit, which the seeds reproduce.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim::concurrent::{run_concurrent, ConcurrentConfig};
use sim::factory::{build_scheduler, SchedulerKind};
use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;
use txn_model::wal::{raw_frame, WAL_HEADER_LEN};
use txn_model::{
    decode_wal, encode_events, GroupCommitConfig, GroupCommitWal, ScheduleEvent, WalReport,
};
use workloads::inventory::{Inventory, InventoryConfig};
use workloads::Workload;

/// The bytes of a WAL journaled through `GroupCommitWal` from an
/// inventory batch, and each frame's byte range in it. One worker keeps
/// the frame order, and so every offset, the same from run to run.
fn inventory_wal() -> (Vec<u8>, Vec<Range<usize>>) {
    let dir = std::env::temp_dir().join(format!("hdd-wal-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.wal");
    let wal = Arc::new(GroupCommitWal::create(&path, GroupCommitConfig::default()).unwrap());
    let mut w = Inventory::new(InventoryConfig {
        items: 8,
        ..InventoryConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(0x3C);
    let programs: Vec<_> = (0..80).map(|_| w.generate(&mut rng)).collect();
    let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &w);
    let cfg = ConcurrentConfig {
        workers: 1,
        wal: Some(Arc::clone(&wal)),
        ..ConcurrentConfig::default()
    };
    let out = run_concurrent(sched.as_ref(), programs, &cfg);
    assert_eq!(out.wal_lost, 0);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let mut frames = Vec::new();
    let mut pos = WAL_HEADER_LEN;
    while let Some((_, next)) = raw_frame(&bytes, pos) {
        frames.push(pos..next);
        pos = next;
    }
    assert_eq!(pos, bytes.len(), "the writer's own WAL decodes to its end");
    (bytes, frames)
}

/// Decode `buf`, failing the test (not panicking inside the decoder)
/// with `case` on a header error.
fn decode_ok(buf: &[u8], case: &str) -> (Vec<ScheduleEvent>, WalReport) {
    match decode_wal(buf) {
        Ok(decoded) => decoded,
        Err(e) => panic!("{case}: intact header rejected: {e}"),
    }
}

#[test]
fn decode_wal_survives_seeded_byte_mutations() {
    let (orig, frames) = inventory_wal();
    assert!(
        (150..=400).contains(&frames.len()),
        "about 200 frames, got {}",
        frames.len()
    );
    let (events, _) = decode_ok(&orig, "original");
    assert_eq!(events.len(), frames.len());
    let written: HashSet<&[u8]> = frames.iter().map(|r| &orig[r.clone()]).collect();
    let boundaries: Vec<usize> = frames.iter().map(|r| r.start).chain([orig.len()]).collect();
    let mut rng = StdRng::seed_from_u64(0x3C_F022);

    // Damage at byte `d`: exactly the frames ending at or before `d`
    // replay, and the tear (if any byte remains) is the next frame.
    let check_prefix = |buf: &[u8], d: usize, case: &str| {
        if d < WAL_HEADER_LEN {
            assert!(
                decode_wal(buf).is_err(),
                "{case}: header damage must be Err"
            );
            return;
        }
        let (decoded, report) = decode_ok(buf, case);
        let k = frames.iter().take_while(|r| r.end <= d).count();
        assert_eq!(decoded, events[..k], "{case}: replayed past the damage");
        let torn = (buf.len() > boundaries[k]).then_some(boundaries[k]);
        assert_eq!(report.truncated_at_byte, torn, "{case}");
    };
    for _ in 0..400 {
        let at = rng.gen_range(0..orig.len());
        let bit = rng.gen_range(0..8u32);
        let mut buf = orig.clone();
        buf[at] ^= 1 << bit;
        check_prefix(&buf, at, &format!("flip bit {bit} of byte {at}"));
    }
    for _ in 0..200 {
        let cut = rng.gen_range(0..orig.len());
        check_prefix(&orig[..cut], cut, &format!("truncate at {cut}"));
    }

    // Splices: only frames the writer wrote may ever replay.
    let check_written = |buf: &[u8], case: &str| {
        let (decoded, _) = decode_ok(buf, case);
        for ev in &decoded {
            let bytes = encode_events(std::slice::from_ref(ev));
            assert!(
                written.contains(bytes.as_slice()),
                "{case}: decoded a frame nobody wrote: {ev:?}"
            );
        }
    };
    let body = WAL_HEADER_LEN..orig.len();
    for round in 0..300 {
        let mut buf = orig.clone();
        let case = match round % 3 {
            0 => {
                let src = &frames[rng.gen_range(0..frames.len())];
                let at = boundaries[rng.gen_range(0..boundaries.len())];
                let copy = orig[src.clone()].to_vec();
                buf.splice(at..at, copy);
                format!("duplicate frame {src:?} at {at}")
            }
            1 => {
                let (a, b) = (rng.gen_range(body.clone()), rng.gen_range(body.clone()));
                let cut = a.min(b)..a.max(b);
                buf.drain(cut.clone());
                format!("splice out {cut:?}")
            }
            _ => {
                let at = rng.gen_range(body.start..=body.end);
                let garbage: Vec<u8> = (0..rng.gen_range(1..64))
                    .map(|_| rng.gen::<u32>() as u8)
                    .collect();
                let n = garbage.len();
                buf.splice(at..at, garbage);
                format!("insert {n} garbage bytes at {at}")
            }
        };
        check_written(&buf, &case);
    }
}
