//! Checksummed on-disk encoding of the schedule log (the WAL image).
//!
//! The in-memory [`ScheduleLog`](crate::schedule::ScheduleLog) doubles as
//! a redo log (`Write` events carry their values), so serializing it is
//! all a crash-recovery story needs. A crash, though, can tear the tail
//! of whatever was being persisted: a partially flushed record must be
//! *detected and truncated*, never replayed as data. This module frames
//! each event as
//!
//! ```text
//! [u32 payload length (LE)] [u64 FNV-1a checksum of payload (LE)] [payload]
//! ```
//!
//! and [`decode_events`] stops at the first frame whose length runs past
//! the buffer or whose checksum does not match, reporting the torn byte
//! offset instead of guessing. Everything before the tear decodes
//! exactly; everything after is discarded (write-ahead discipline makes
//! that safe: a record absent from the log never committed).
//!
//! The payload is a tagged little-endian flat encoding — hand-rolled, as
//! the offline build forbids serde.
//!
//! # File format
//!
//! A WAL *file* (as opposed to a bare frame buffer) starts with a magic
//! header — [`WAL_MAGIC`] followed by a format-version byte
//! ([`WAL_VERSION`]) — so recovery can tell a foreign or garbage file
//! from a torn one: [`decode_wal`] rejects a bad header with a
//! [`WalFileError`] instead of silently truncating everything, while a
//! torn *tail* after a valid header still truncates cleanly. [`raw_frame`]
//! is public so tests can walk a buffer frame by frame.

use crate::ids::{ClassId, GranuleId, SegmentId, Timestamp, TxnId};
use crate::schedule::ScheduleEvent;
use crate::value::{Bytes, Value};
use std::sync::Arc;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit checksum of `bytes`.
fn checksum(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Event tags (first payload byte).
const TAG_BEGIN: u8 = 0;
const TAG_READ: u8 = 1;
const TAG_WRITE: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_ABORT: u8 = 4;

/// Value tags within a `Write` payload.
const VTAG_INT: u8 = 0;
const VTAG_BYTES: u8 = 1;
const VTAG_ABSENT: u8 = 2;

/// Magic bytes opening every WAL file (followed by [`WAL_VERSION`]).
pub const WAL_MAGIC: [u8; 6] = *b"HDDWAL";

/// Current WAL file-format version, stored right after the magic.
pub const WAL_VERSION: u8 = 1;

/// Length of the WAL file header (magic + version byte). Frame offsets
/// reported by [`decode_wal`] are absolute file offsets, so the first
/// frame starts here.
pub const WAL_HEADER_LEN: usize = WAL_MAGIC.len() + 1;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append one checksummed frame (`[len][fnv][payload]`) to `out`.
fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    put_u32(out, payload.len() as u32);
    put_u64(out, checksum(payload));
    out.extend_from_slice(payload);
}

/// Read the raw payload of the frame at `pos`, verifying its checksum.
/// Returns the payload slice and the offset of the next frame, or `None`
/// when the frame is torn (short header, length past the buffer, or
/// checksum mismatch).
pub fn raw_frame(buf: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let len_bytes = buf.get(pos..pos + 4)?;
    let len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
    let sum_bytes = buf.get(pos + 4..pos + 12)?;
    let sum = u64::from_le_bytes(sum_bytes.try_into().unwrap());
    let payload = buf.get(pos + 12..pos + 12 + len)?;
    if checksum(payload) != sum {
        return None;
    }
    Some((payload, pos + 12 + len))
}

/// Append the tagged encoding of one [`Value`] to `out` (the encoding
/// `Write` frames embed).
fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            out.push(VTAG_INT);
            put_u64(out, *i as u64);
        }
        Value::Bytes(b) => {
            out.push(VTAG_BYTES);
            put_u32(out, b.len() as u32);
            out.extend_from_slice(b.as_ref());
        }
        Value::Absent => out.push(VTAG_ABSENT),
    }
}

/// Decode one tagged [`Value`] from the front of `buf`, returning it and
/// the number of bytes consumed; `None` on a malformed encoding.
fn decode_value(buf: &[u8]) -> Option<(Value, usize)> {
    let mut c = Cursor::new(buf);
    let v = match c.u8()? {
        VTAG_INT => Value::Int(c.u64()? as i64),
        VTAG_BYTES => {
            let len = c.u32()? as usize;
            Value::Bytes(Bytes::from(c.bytes(len)?))
        }
        VTAG_ABSENT => Value::Absent,
        _ => return None,
    };
    Some((v, c.pos))
}

fn encode_payload(ev: &ScheduleEvent, out: &mut Vec<u8>) {
    match ev {
        ScheduleEvent::Begin {
            txn,
            start_ts,
            class,
        } => {
            out.push(TAG_BEGIN);
            put_u64(out, txn.0);
            put_u64(out, start_ts.0);
            match class {
                Some(c) => {
                    out.push(1);
                    put_u32(out, c.0);
                }
                None => out.push(0),
            }
        }
        ScheduleEvent::Read {
            txn,
            granule,
            version,
            writer,
        } => {
            out.push(TAG_READ);
            put_u64(out, txn.0);
            put_u32(out, granule.segment.0);
            put_u64(out, granule.key);
            put_u64(out, version.0);
            put_u64(out, writer.0);
        }
        ScheduleEvent::Write {
            txn,
            granule,
            version,
            value,
        } => {
            out.push(TAG_WRITE);
            put_u64(out, txn.0);
            put_u32(out, granule.segment.0);
            put_u64(out, granule.key);
            put_u64(out, version.0);
            encode_value(out, value.as_ref());
        }
        ScheduleEvent::Commit { txn, commit_ts } => {
            out.push(TAG_COMMIT);
            put_u64(out, txn.0);
            put_u64(out, commit_ts.0);
        }
        ScheduleEvent::Abort { txn, abort_ts } => {
            out.push(TAG_ABORT);
            put_u64(out, txn.0);
            put_u64(out, abort_ts.0);
        }
    }
}

/// A little-endian cursor over a payload slice; `None` means the payload
/// is malformed (short), which decode treats the same as a bad checksum.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn u32(&mut self) -> Option<u32> {
        let end = self.pos.checked_add(4)?;
        let bytes = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(u32::from_le_bytes(bytes.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        let bytes = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let bytes = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(bytes)
    }

    fn exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn decode_payload(payload: &[u8]) -> Option<ScheduleEvent> {
    let mut c = Cursor::new(payload);
    let ev = match c.u8()? {
        TAG_BEGIN => {
            let txn = TxnId(c.u64()?);
            let start_ts = Timestamp(c.u64()?);
            let class = match c.u8()? {
                0 => None,
                1 => Some(ClassId(c.u32()?)),
                _ => return None,
            };
            ScheduleEvent::Begin {
                txn,
                start_ts,
                class,
            }
        }
        TAG_READ => ScheduleEvent::Read {
            txn: TxnId(c.u64()?),
            granule: GranuleId::new(SegmentId(c.u32()?), c.u64()?),
            version: Timestamp(c.u64()?),
            writer: TxnId(c.u64()?),
        },
        TAG_WRITE => {
            let txn = TxnId(c.u64()?);
            let granule = GranuleId::new(SegmentId(c.u32()?), c.u64()?);
            let version = Timestamp(c.u64()?);
            let (value, used) = decode_value(&c.buf[c.pos..])?;
            c.pos += used;
            ScheduleEvent::Write {
                txn,
                granule,
                version,
                value: Arc::new(value),
            }
        }
        TAG_COMMIT => ScheduleEvent::Commit {
            txn: TxnId(c.u64()?),
            commit_ts: Timestamp(c.u64()?),
        },
        TAG_ABORT => ScheduleEvent::Abort {
            txn: TxnId(c.u64()?),
            abort_ts: Timestamp(c.u64()?),
        },
        _ => return None,
    };
    // Trailing garbage inside a checksummed frame means the frame was
    // not produced by this encoder — reject it rather than decode a prefix.
    c.exhausted().then_some(ev)
}

/// Serialize events into the checksummed frame format (bare frames, no
/// file header — see [`encode_wal`] for the headed file image).
pub fn encode_events(events: &[ScheduleEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(events.len() * 48);
    let mut payload = Vec::with_capacity(64);
    for ev in events {
        payload.clear();
        encode_payload(ev, &mut payload);
        frame_into(&mut out, &payload);
    }
    out
}

/// What [`decode_events`] found.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalReport {
    /// Frames that decoded and checksummed clean.
    pub decoded: usize,
    /// Byte offset of the first torn frame, when the tail was torn.
    pub truncated_at_byte: Option<usize>,
}

impl WalReport {
    /// True when the buffer ended mid-frame or a checksum failed.
    pub fn torn(&self) -> bool {
        self.truncated_at_byte.is_some()
    }
}

/// Decode frames until the buffer ends or the first torn frame.
///
/// Returns every event that decoded clean plus a [`WalReport`] saying
/// whether (and where) the tail was truncated. A frame is torn when its
/// header is short, its declared length runs past the buffer, its
/// checksum mismatches, or its payload is malformed.
pub fn decode_events(buf: &[u8]) -> (Vec<ScheduleEvent>, WalReport) {
    let mut events = Vec::new();
    let mut report = WalReport::default();
    let mut pos = 0usize;
    while pos < buf.len() {
        match decode_frame(buf, pos) {
            Some((ev, next)) => {
                events.push(ev);
                report.decoded += 1;
                pos = next;
            }
            None => {
                report.truncated_at_byte = Some(pos);
                break;
            }
        }
    }
    (events, report)
}

/// Decode one frame at `pos`; `None` means the frame is torn (short
/// header, length past the buffer, checksum mismatch, or bad payload).
fn decode_frame(buf: &[u8], pos: usize) -> Option<(ScheduleEvent, usize)> {
    let (payload, next) = raw_frame(buf, pos)?;
    let ev = decode_payload(payload)?;
    Some((ev, next))
}

/// Why a buffer was rejected as *not a WAL file at all* (as opposed to a
/// WAL file with a torn tail, which decodes with truncation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalFileError {
    /// The buffer is shorter than the file header.
    TooShort,
    /// The magic bytes do not match [`WAL_MAGIC`] — a foreign or garbage
    /// file, not a torn one.
    BadMagic,
    /// The magic matched but the format-version byte is not one this
    /// build can read.
    UnsupportedVersion(u8),
}

impl std::fmt::Display for WalFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalFileError::TooShort => {
                write!(
                    f,
                    "not a WAL file: shorter than the {WAL_HEADER_LEN}-byte header"
                )
            }
            WalFileError::BadMagic => {
                write!(
                    f,
                    "not a WAL file: magic bytes mismatch (expected \"HDDWAL\")"
                )
            }
            WalFileError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "WAL format version {v} not supported (this build reads {WAL_VERSION})"
                )
            }
        }
    }
}

impl std::error::Error for WalFileError {}

/// Serialize events as a complete WAL *file* image: magic header,
/// format-version byte, then the checksummed frames.
pub fn encode_wal(events: &[ScheduleEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(WAL_HEADER_LEN + events.len() * 48);
    out.extend_from_slice(&WAL_MAGIC);
    out.push(WAL_VERSION);
    out.extend_from_slice(&encode_events(events));
    out
}

/// Decode a WAL *file* image: verify the magic header and version, then
/// decode frames with torn-tail truncation. A bad header is an error
/// (the file is foreign or garbage, and replaying none of it is the only
/// safe answer); a torn tail after a valid header truncates at the torn
/// frame, with `truncated_at_byte` reported as an absolute file offset.
pub fn decode_wal(buf: &[u8]) -> Result<(Vec<ScheduleEvent>, WalReport), WalFileError> {
    if buf.len() < WAL_HEADER_LEN {
        return Err(WalFileError::TooShort);
    }
    if buf[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(WalFileError::BadMagic);
    }
    let version = buf[WAL_MAGIC.len()];
    if version != WAL_VERSION {
        return Err(WalFileError::UnsupportedVersion(version));
    }
    let (events, mut report) = decode_events(&buf[WAL_HEADER_LEN..]);
    if let Some(off) = report.truncated_at_byte.as_mut() {
        *off += WAL_HEADER_LEN;
    }
    Ok((events, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<ScheduleEvent> {
        let g = GranuleId::new(SegmentId(2), 17);
        vec![
            ScheduleEvent::Begin {
                txn: TxnId(1),
                start_ts: Timestamp(1),
                class: Some(ClassId(0)),
            },
            ScheduleEvent::Begin {
                txn: TxnId(2),
                start_ts: Timestamp(2),
                class: None,
            },
            ScheduleEvent::Read {
                txn: TxnId(2),
                granule: g,
                version: Timestamp(0),
                writer: TxnId(0),
            },
            ScheduleEvent::Write {
                txn: TxnId(1),
                granule: g,
                version: Timestamp(1),
                value: Arc::new(Value::Int(-42)),
            },
            ScheduleEvent::Write {
                txn: TxnId(1),
                granule: GranuleId::new(SegmentId(0), 3),
                version: Timestamp(1),
                value: Arc::new(Value::Bytes(Bytes::from(vec![1, 2, 3, 4, 5]))),
            },
            ScheduleEvent::Write {
                txn: TxnId(1),
                granule: GranuleId::new(SegmentId(0), 4),
                version: Timestamp(1),
                value: Arc::new(Value::Absent),
            },
            ScheduleEvent::Commit {
                txn: TxnId(1),
                commit_ts: Timestamp(3),
            },
            ScheduleEvent::Abort {
                txn: TxnId(2),
                abort_ts: Timestamp(4),
            },
        ]
    }

    #[test]
    fn round_trips_every_event_shape() {
        let events = sample_events();
        let buf = encode_events(&events);
        let (decoded, report) = decode_events(&buf);
        assert_eq!(decoded, events);
        assert_eq!(report.decoded, events.len());
        assert!(!report.torn());
    }

    #[test]
    fn empty_buffer_decodes_clean() {
        let (decoded, report) = decode_events(&[]);
        assert!(decoded.is_empty());
        assert!(!report.torn());
    }

    #[test]
    fn short_tail_is_truncated_not_replayed() {
        let events = sample_events();
        let buf = encode_events(&events);
        // Chop mid-way through the final frame.
        let cut = buf.len() - 5;
        let (decoded, report) = decode_events(&buf[..cut]);
        assert_eq!(decoded, events[..events.len() - 1]);
        assert!(report.torn());
        assert!(report.truncated_at_byte.unwrap() < cut);
    }

    #[test]
    fn corrupted_payload_byte_fails_checksum() {
        let events = sample_events();
        let mut buf = encode_events(&events);
        // Flip one byte inside the last frame's payload.
        let last = buf.len() - 1;
        buf[last] ^= 0xff;
        let (decoded, report) = decode_events(&buf);
        assert_eq!(decoded, events[..events.len() - 1]);
        assert!(report.torn());
    }

    #[test]
    fn corrupted_length_header_is_detected() {
        let events = sample_events();
        let mut buf = encode_events(&events);
        // Inflate the very first frame's declared length far past the buffer.
        buf[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let (decoded, report) = decode_events(&buf);
        assert!(decoded.is_empty());
        assert_eq!(report.truncated_at_byte, Some(0));
    }

    #[test]
    fn checksum_is_fnv1a() {
        // Published FNV-1a 64 test vector.
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn value_codec_round_trips() {
        for v in [
            Value::Int(0),
            Value::Int(-1),
            Value::Int(i64::MAX),
            Value::Bytes(Bytes::from(vec![0u8, 255, 7])),
            Value::Absent,
        ] {
            let mut buf = Vec::new();
            encode_value(&mut buf, &v);
            let (back, used) = decode_value(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(used, buf.len());
        }
        assert!(decode_value(&[9u8]).is_none(), "unknown tag rejected");
        assert!(decode_value(&[]).is_none(), "empty rejected");
    }

    #[test]
    fn wal_file_round_trips_with_header() {
        let events = sample_events();
        let file = encode_wal(&events);
        assert_eq!(&file[..WAL_MAGIC.len()], &WAL_MAGIC);
        assert_eq!(file[WAL_MAGIC.len()], WAL_VERSION);
        let (decoded, report) = decode_wal(&file).unwrap();
        assert_eq!(decoded, events);
        assert!(!report.torn());
    }

    #[test]
    fn foreign_and_garbage_files_are_rejected_not_truncated() {
        // Garbage that happens to be long enough: rejected by magic.
        assert_eq!(
            decode_wal(b"GARBAGE FILE CONTENT"),
            Err(WalFileError::BadMagic)
        );
        // Too-short fragment.
        assert_eq!(decode_wal(b"HD"), Err(WalFileError::TooShort));
        // Right magic, future version byte.
        let mut file = encode_wal(&sample_events());
        file[WAL_MAGIC.len()] = 99;
        assert_eq!(decode_wal(&file), Err(WalFileError::UnsupportedVersion(99)));
        // An empty but well-formed file decodes clean.
        let (events, report) = decode_wal(&encode_wal(&[])).unwrap();
        assert!(events.is_empty());
        assert!(!report.torn());
    }

    #[test]
    fn torn_tail_at_every_byte_offset_of_the_final_frame() {
        // Property sweep (the offline build has no proptest): truncate a
        // valid WAL file at *every* byte offset inside the final frame.
        // Recovery must never replay the partial frame, never panic, and
        // must report the exact absolute offset where the tear begins.
        let events = sample_events();
        let file = encode_wal(&events);
        let frames = encode_events(&events);
        // Offset (absolute, in the file image) where the final frame starts.
        let mut pos = 0usize;
        let mut last_start = 0usize;
        while pos < frames.len() {
            last_start = pos;
            let (_, next) = raw_frame(&frames, pos).unwrap();
            pos = next;
        }
        let last_start_abs = WAL_HEADER_LEN + last_start;
        for cut in last_start_abs..file.len() {
            let (decoded, report) = decode_wal(&file[..cut]).unwrap();
            if cut == last_start_abs {
                // Clean cut exactly between frames: no tear to report.
                assert_eq!(decoded, events[..events.len() - 1]);
                assert!(!report.torn(), "cut at frame boundary is not a tear");
            } else {
                assert_eq!(
                    decoded,
                    events[..events.len() - 1],
                    "partial final frame must not replay (cut at {cut})"
                );
                assert!(report.torn(), "cut at {cut} must be reported");
                assert_eq!(
                    report.truncated_at_byte,
                    Some(last_start_abs),
                    "tear must be reported at the final frame's start (cut at {cut})"
                );
            }
        }
        // The full file, for contrast, decodes everything.
        let (decoded, report) = decode_wal(&file).unwrap();
        assert_eq!(decoded, events);
        assert!(!report.torn());
    }

    #[test]
    fn raw_frame_and_frame_into_agree() {
        let mut buf = Vec::new();
        frame_into(&mut buf, b"hello");
        frame_into(&mut buf, b"");
        let (p1, next) = raw_frame(&buf, 0).unwrap();
        assert_eq!(p1, b"hello");
        let (p2, end) = raw_frame(&buf, next).unwrap();
        assert_eq!(p2, b"");
        assert_eq!(end, buf.len());
        assert!(raw_frame(&buf, end).is_none(), "past the end is torn/end");
        // Corrupt the checksum of the first frame.
        buf[4] ^= 0x01;
        assert!(raw_frame(&buf, 0).is_none());
    }
}
