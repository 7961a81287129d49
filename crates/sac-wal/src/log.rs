//! Segmented write-ahead log: append-only segment files with monotone ids,
//! an explicit fsync policy, torn-tail-tolerant reading, and a
//! clean-shutdown marker that lets a boot skip tail scanning entirely.
//!
//! Segment files are named `wal-<id:020>.log`; ids only grow.  A checkpoint
//! rotates to a fresh segment and deletes every strictly older one, so the
//! live set is always a contiguous id range whose records postdate (or are
//! superseded by) the newest snapshot.

use crate::record::{DeltaRecord, FrameAnomaly};
use crate::WalError;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

const SEGMENT_PREFIX: &str = "wal-";
const SEGMENT_SUFFIX: &str = ".log";
const CLEAN_MARKER: &str = "CLEAN";
const TERM_MARKER: &str = "TERM";

/// Default segment size before the writer rotates (4 MiB).
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 << 20;

/// When the writer calls `fsync` after appending a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every commit: no committed record is ever lost, at the
    /// cost of one disk flush per commit.
    Always,
    /// fsync every `n` commits: bounds loss to the last `n-1` commits.
    EveryN(u64),
    /// Never fsync from the append path (the OS flushes eventually):
    /// fastest, loses an unbounded tail on power failure.  Clean shutdown
    /// still flushes.
    Never,
}

impl SyncPolicy {
    /// Parses a CLI spelling: `always`, `never`, or a positive integer `n`
    /// meaning every-`n`-commits.
    pub fn parse(s: &str) -> Option<SyncPolicy> {
        match s {
            "always" => Some(SyncPolicy::Always),
            "never" => Some(SyncPolicy::Never),
            _ => match s.parse::<u64>() {
                Ok(n) if n >= 1 => Some(SyncPolicy::EveryN(n)),
                _ => None,
            },
        }
    }
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncPolicy::Always => write!(f, "always"),
            SyncPolicy::EveryN(n) => write!(f, "{n}"),
            SyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// Path of segment `id` under `dir`.
pub fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{id:020}{SEGMENT_SUFFIX}"))
}

/// Sorted ids of the segment files present in `dir`.
pub fn list_segments(dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut ids = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(id) = name
            .strip_prefix(SEGMENT_PREFIX)
            .and_then(|s| s.strip_suffix(SEGMENT_SUFFIX))
            .and_then(|s| s.parse::<u64>().ok())
        {
            ids.push(id);
        }
    }
    ids.sort_unstable();
    Ok(ids)
}

/// Writes the clean-shutdown marker recording `epoch`, fsynced, so the next
/// boot knows the log tail is complete and skips torn-tail scanning.
pub fn write_clean_marker(dir: &Path, epoch: u64) -> std::io::Result<()> {
    let path = dir.join(CLEAN_MARKER);
    let mut f = File::create(&path)?;
    f.write_all(format!("epoch={epoch}\n").as_bytes())?;
    f.sync_all()
}

/// Epoch recorded by the clean-shutdown marker, if present and well-formed.
pub fn read_clean_marker(dir: &Path) -> Option<u64> {
    let text = fs::read_to_string(dir.join(CLEAN_MARKER)).ok()?;
    text.trim().strip_prefix("epoch=")?.parse().ok()
}

/// Removes the clean-shutdown marker (done whenever the log is reopened for
/// writing: the marker only vouches for a closed log).
pub fn clear_clean_marker(dir: &Path) -> std::io::Result<()> {
    match fs::remove_file(dir.join(CLEAN_MARKER)) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// Durably records the leadership `term` this log is written under, fsynced.
/// Written when a node becomes primary (boot or promotion) so a recovery can
/// fence stale-term records even when no record of the new term was ever
/// appended.
pub fn write_term_marker(dir: &Path, term: u64) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let path = dir.join(TERM_MARKER);
    let mut f = File::create(&path)?;
    f.write_all(format!("term={term}\n").as_bytes())?;
    f.sync_all()
}

/// Term recorded by the term marker, if present and well-formed (a log
/// predating failover support has none: term 0).
pub fn read_term_marker(dir: &Path) -> Option<u64> {
    let text = fs::read_to_string(dir.join(TERM_MARKER)).ok()?;
    text.trim().strip_prefix("term=")?.parse().ok()
}

/// Facts about one append, reported back so the caller (the live engine's
/// durability layer) can feed metrics without `sac-wal` depending on the
/// observability crate.
#[derive(Debug, Clone, Copy)]
pub struct AppendInfo {
    /// Frame bytes written (header + payload).
    pub bytes: u64,
    /// Whether this append ran `fsync`.
    pub synced: bool,
    /// Wall-clock microseconds the `fsync` took (0 when not synced).
    pub sync_micros: u64,
    /// Segment the record landed in.
    pub segment: u64,
}

/// Appending side of the log: owns the active segment file, rotates at a
/// size threshold, and applies the [`SyncPolicy`].
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    file: File,
    segment: u64,
    segment_bytes: u64,
    max_segment_bytes: u64,
    policy: SyncPolicy,
    appends_since_sync: u64,
}

impl WalWriter {
    /// Opens (or creates) the log under `dir` for appending: continues in
    /// the highest existing segment, or starts segment 1.  Clears any
    /// clean-shutdown marker — the log is live again.
    pub fn open(dir: &Path, policy: SyncPolicy) -> std::io::Result<WalWriter> {
        fs::create_dir_all(dir)?;
        clear_clean_marker(dir)?;
        let segment = list_segments(dir)?.last().copied().unwrap_or(0).max(1);
        let path = segment_path(dir, segment);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let segment_bytes = file.metadata()?.len();
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            file,
            segment,
            segment_bytes,
            max_segment_bytes: DEFAULT_SEGMENT_BYTES,
            policy,
            appends_since_sync: 0,
        })
    }

    /// Overrides the rotation threshold (useful for tests and benches).
    pub fn set_max_segment_bytes(&mut self, bytes: u64) {
        self.max_segment_bytes = bytes.max(1);
    }

    /// Id of the active segment.
    pub fn segment(&self) -> u64 {
        self.segment
    }

    /// Byte offset of the append position within the active segment (the
    /// WAL tail: where the next frame will land).
    pub fn segment_offset(&self) -> u64 {
        self.segment_bytes
    }

    /// The configured sync policy.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// Directory the log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one record, rotating first if the active segment would exceed
    /// the size threshold, then fsyncs according to the policy.
    pub fn append(&mut self, record: &DeltaRecord) -> std::io::Result<AppendInfo> {
        let frame = record.encode();
        if self.segment_bytes > 0
            && self.segment_bytes + frame.len() as u64 > self.max_segment_bytes
        {
            self.rotate()?;
        }
        self.file.write_all(&frame)?;
        self.segment_bytes += frame.len() as u64;
        self.appends_since_sync += 1;
        let due = match self.policy {
            SyncPolicy::Always => true,
            SyncPolicy::EveryN(n) => self.appends_since_sync >= n,
            SyncPolicy::Never => false,
        };
        let mut sync_micros = 0;
        if due {
            sync_micros = self.sync()?;
        }
        Ok(AppendInfo {
            bytes: frame.len() as u64,
            synced: due,
            sync_micros,
            segment: self.segment,
        })
    }

    /// Forces an fsync of the active segment; returns the microseconds it
    /// took.
    pub fn sync(&mut self) -> std::io::Result<u64> {
        let start = Instant::now();
        self.file.sync_data()?;
        self.appends_since_sync = 0;
        Ok(start.elapsed().as_micros() as u64)
    }

    /// Finishes the active segment (fsync) and starts the next one.
    pub fn rotate(&mut self) -> std::io::Result<u64> {
        self.file.sync_data()?;
        self.segment += 1;
        let path = segment_path(&self.dir, self.segment);
        self.file = OpenOptions::new().create(true).append(true).open(&path)?;
        self.segment_bytes = 0;
        self.appends_since_sync = 0;
        Ok(self.segment)
    }

    /// Deletes every segment with id strictly below `floor`; returns how
    /// many were removed.  Called after a checkpoint: all their records are
    /// covered by the snapshot.
    pub fn remove_segments_below(&mut self, floor: u64) -> std::io::Result<u64> {
        let mut removed = 0;
        for id in list_segments(&self.dir)? {
            if id < floor && id != self.segment {
                fs::remove_file(segment_path(&self.dir, id))?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

/// The decoded contents of a log directory, plus replay bookkeeping.
#[derive(Debug)]
pub struct ReplayLog {
    /// All records across all segments, in append order.
    pub records: Vec<DeltaRecord>,
    /// Segment ids that were read, ascending.
    pub segments: Vec<u64>,
    /// Total record bytes read (after any tail truncation).
    pub bytes: u64,
    /// Bytes of torn tail truncated from the last segment (0 on a clean
    /// log).
    pub truncated_bytes: u64,
    /// Per-record `(segment id, end offset within segment)` — the crash
    /// points the recovery property test cuts the log at.
    pub boundaries: Vec<(u64, u64)>,
}

/// Reads every record under `dir`.
///
/// With `tolerate_torn_tail`, an incomplete final record in the **last**
/// segment (a crash mid-append) is truncated away on open and reported in
/// [`ReplayLog::truncated_bytes`].  A checksum mismatch on a complete frame,
/// or any anomaly in a non-final segment, is a hard [`WalError::Corrupt`] —
/// silent data loss is never an option there.  Without tolerance (a
/// clean-shutdown marker vouched for the tail), any anomaly is corruption.
pub fn read_log(dir: &Path, tolerate_torn_tail: bool) -> Result<ReplayLog, WalError> {
    let segments = list_segments(dir)?;
    let mut out = ReplayLog {
        records: Vec::new(),
        segments: segments.clone(),
        bytes: 0,
        truncated_bytes: 0,
        boundaries: Vec::new(),
    };
    for (i, &seg) in segments.iter().enumerate() {
        let last = i + 1 == segments.len();
        let path = segment_path(dir, seg);
        let mut buf = Vec::new();
        File::open(&path)?.read_to_end(&mut buf)?;
        let mut pos = 0usize;
        while pos < buf.len() {
            let frame = match DeltaRecord::scan_frame(&buf[pos..]) {
                Ok(frame) => frame,
                // Too few bytes for the header or the payload it promises:
                // an append cut short.
                Err(FrameAnomaly::ShortHeader | FrameAnomaly::ShortPayload)
                    if last && tolerate_torn_tail =>
                {
                    truncate_segment(&path, pos as u64)?;
                    out.truncated_bytes += (buf.len() - pos) as u64;
                    break;
                }
                // Anything else is corruption: a torn frame before a
                // tolerated tail, an implausible length, or a complete frame
                // with a bad checksum (bit rot or an out-of-order write).
                Err(anomaly) => {
                    return Err(WalError::Corrupt {
                        segment: seg,
                        offset: pos as u64,
                        detail: anomaly.to_string(),
                    })
                }
            };
            let record = DeltaRecord::decode_payload(frame.payload, seg, pos as u64)?;
            pos += frame.bytes;
            out.bytes += frame.bytes as u64;
            out.boundaries.push((seg, pos as u64));
            out.records.push(record);
        }
    }
    Ok(out)
}

/// One complete frame read from the live log by a replication shipper: the
/// raw payload exactly as stored, plus its checksum and resume position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailFrame {
    /// Segment the frame lives in.
    pub segment: u64,
    /// Offset of the first byte *after* the frame within its segment — the
    /// position a reader resumes from once this frame is applied.
    pub end_offset: u64,
    /// CRC-32 of the payload, as stored on disk (already verified).
    pub crc: u32,
    /// The record payload (epoch, op count, ops), undecoded.
    pub payload: Vec<u8>,
}

/// A batch of frames read forward from a `(segment, offset)` position, plus
/// the position to resume from on the next poll.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailChunk {
    /// Complete, CRC-verified frames in append order (possibly empty when
    /// the reader is caught up).
    pub frames: Vec<TailFrame>,
    /// Segment of the resume position.
    pub segment: u64,
    /// Offset of the resume position within [`TailChunk::segment`].
    pub offset: u64,
}

/// Reads complete frames forward from `(segment, offset)`, following segment
/// rotations, without ever blocking on the live writer.
///
/// This is the streaming counterpart of [`read_log`], built for a shipper
/// polling a log that is still being appended to:
///
/// * an incomplete or checksum-failing frame at the tail of the **newest**
///   segment is an in-flight append, not corruption — the reader stops
///   before it and retries on the next poll;
/// * the same anomaly in an older segment (the writer provably rotated past
///   it) is a hard [`WalError::Corrupt`];
/// * a resume position below the oldest segment on disk — or beyond the end
///   of a non-newest segment — means a checkpoint truncated the records the
///   reader needs, and surfaces as the clean
///   [`WalError::SnapshotRequired`] signal;
/// * at most `max_frames` frames are returned per call, bounding memory.
pub fn read_tail(
    dir: &Path,
    segment: u64,
    offset: u64,
    max_frames: usize,
) -> Result<TailChunk, WalError> {
    let segments = list_segments(dir)?;
    let mut chunk = TailChunk {
        frames: Vec::new(),
        segment,
        offset,
    };
    let Some(&oldest) = segments.first() else {
        return Ok(chunk);
    };
    if segment < oldest {
        return Err(WalError::SnapshotRequired { segment, oldest });
    }
    let newest = *segments.last().expect("non-empty");
    let mut seg = segment;
    let mut pos = offset;
    loop {
        if segments.binary_search(&seg).is_err() {
            // The position names a segment that never existed (a reader from
            // a different log generation); only a fresh snapshot can help.
            if seg > newest {
                return Err(WalError::SnapshotRequired {
                    segment: seg,
                    oldest,
                });
            }
            // Ids in the live set are contiguous, but be defensive: skip to
            // the next segment that does exist.
            seg = segments
                .iter()
                .copied()
                .find(|&s| s > seg)
                .expect("seg < newest implies a higher segment exists");
            pos = 0;
            continue;
        }
        let path = segment_path(dir, seg);
        let buf = match fs::read(&path) {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // Deleted by a checkpoint between our directory listing and
                // the open: the records are gone.
                let oldest = list_segments(dir)?.first().copied().unwrap_or(seg + 1);
                return Err(WalError::SnapshotRequired {
                    segment: seg,
                    oldest,
                });
            }
            Err(e) => return Err(e.into()),
        };
        if pos as usize > buf.len() {
            // Resuming beyond the end of the file: the segment was truncated
            // (or swapped) underneath the reader's saved position.
            return Err(WalError::SnapshotRequired {
                segment: seg,
                oldest,
            });
        }
        let mut p = pos as usize;
        let mut in_flight_tail = false;
        while chunk.frames.len() < max_frames && p < buf.len() {
            match DeltaRecord::scan_frame(&buf[p..]) {
                Ok(frame) => {
                    p += frame.bytes;
                    chunk.frames.push(TailFrame {
                        segment: seg,
                        end_offset: p as u64,
                        crc: frame.crc,
                        payload: frame.payload.to_vec(),
                    });
                }
                // Any anomaly at the live tail is an append in flight (even
                // an implausible length can be a partially visible header);
                // anywhere else it is corruption.
                Err(_) if seg == newest => {
                    in_flight_tail = true;
                    break;
                }
                Err(anomaly) => {
                    return Err(WalError::Corrupt {
                        segment: seg,
                        offset: p as u64,
                        detail: anomaly.to_string(),
                    })
                }
            }
        }
        chunk.segment = seg;
        chunk.offset = p as u64;
        if in_flight_tail || seg == newest || chunk.frames.len() >= max_frames {
            return Ok(chunk);
        }
        // This segment is drained and the writer has rotated past it: move
        // to the next segment on disk.
        seg = segments
            .iter()
            .copied()
            .find(|&s| s > seg)
            .expect("seg < newest implies a higher segment exists");
        pos = 0;
    }
}

fn truncate_segment(path: &Path, len: u64) -> std::io::Result<()> {
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(len)?;
    f.sync_data()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{WalOp, FRAME_HEADER_BYTES};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("sac-wal-{tag}-{}-{n}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn rec(epoch: u64, ops: Vec<WalOp>) -> DeltaRecord {
        DeltaRecord {
            epoch,
            term: 0,
            ops,
        }
    }

    #[test]
    fn append_and_read_roundtrip() {
        let dir = temp_dir("roundtrip");
        let mut w = WalWriter::open(&dir, SyncPolicy::EveryN(2)).unwrap();
        let r1 = rec(2, vec![WalOp::InsertEdge(0, 1)]);
        let r2 = rec(3, vec![WalOp::AddVertex(1.5, 2.5), WalOp::InsertEdge(2, 3)]);
        let i1 = w.append(&r1).unwrap();
        assert!(!i1.synced);
        let i2 = w.append(&r2).unwrap();
        assert!(i2.synced);
        let log = read_log(&dir, true).unwrap();
        assert_eq!(log.records, vec![r1, r2]);
        assert_eq!(log.truncated_bytes, 0);
        assert_eq!(log.boundaries.len(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_then_reads_clean() {
        let dir = temp_dir("torn");
        let mut w = WalWriter::open(&dir, SyncPolicy::Never).unwrap();
        let r1 = rec(2, vec![WalOp::InsertEdge(0, 1)]);
        let r2 = rec(3, vec![WalOp::RemoveEdge(0, 1)]);
        w.append(&r1).unwrap();
        w.append(&r2).unwrap();
        w.sync().unwrap();
        let seg = segment_path(&dir, w.segment());
        let full = fs::metadata(&seg).unwrap().len();
        let torn = full - 3;
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(torn).unwrap();
        drop(f);
        let log = read_log(&dir, true).unwrap();
        assert_eq!(log.records, vec![r1.clone()]);
        assert!(log.truncated_bytes > 0);
        // The torn bytes are gone from disk: a strict re-read succeeds.
        let log2 = read_log(&dir, false).unwrap();
        assert_eq!(log2.records, vec![r1]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_without_tolerance_is_corruption() {
        let dir = temp_dir("strict");
        let mut w = WalWriter::open(&dir, SyncPolicy::Never).unwrap();
        w.append(&rec(2, vec![WalOp::InsertEdge(0, 1)])).unwrap();
        w.sync().unwrap();
        let seg = segment_path(&dir, w.segment());
        let full = fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(full - 1)
            .unwrap();
        assert!(matches!(
            read_log(&dir, false),
            Err(WalError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_byte_is_hard_corruption() {
        let dir = temp_dir("flip");
        let mut w = WalWriter::open(&dir, SyncPolicy::Always).unwrap();
        w.append(&rec(2, vec![WalOp::InsertEdge(0, 1)])).unwrap();
        w.append(&rec(3, vec![WalOp::InsertEdge(1, 2)])).unwrap();
        let seg = segment_path(&dir, w.segment());
        let mut bytes = fs::read(&seg).unwrap();
        // Flip a payload byte of the *first* record: a complete frame with a
        // bad checksum, which must be a hard error even with tail tolerance.
        // (A flip inside the final record's length prefix can be
        // indistinguishable from a torn tail; that ambiguity is inherent and
        // resolved in favour of truncation only at the very tail.)
        bytes[FRAME_HEADER_BYTES + 2] ^= 0x40;
        fs::write(&seg, &bytes).unwrap();
        assert!(matches!(
            read_log(&dir, true),
            Err(WalError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_and_truncation() {
        let dir = temp_dir("rotate");
        let mut w = WalWriter::open(&dir, SyncPolicy::Never).unwrap();
        w.set_max_segment_bytes(64);
        for e in 0..20u64 {
            w.append(&rec(e + 2, vec![WalOp::InsertEdge(e as u32, e as u32 + 1)]))
                .unwrap();
        }
        w.sync().unwrap();
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() > 1, "expected rotation, got {segs:?}");
        let log = read_log(&dir, true).unwrap();
        assert_eq!(log.records.len(), 20);
        // Checkpoint-style truncation: rotate, drop everything older.
        let active = w.rotate().unwrap();
        let removed = w.remove_segments_below(active).unwrap();
        assert_eq!(removed as usize, segs.len());
        assert_eq!(list_segments(&dir).unwrap(), vec![active]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_continues_highest_segment() {
        let dir = temp_dir("reopen");
        let mut w = WalWriter::open(&dir, SyncPolicy::Always).unwrap();
        w.append(&rec(2, vec![WalOp::InsertEdge(0, 1)])).unwrap();
        w.rotate().unwrap();
        let seg = w.segment();
        w.append(&rec(3, vec![WalOp::InsertEdge(1, 2)])).unwrap();
        drop(w);
        let w2 = WalWriter::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(w2.segment(), seg);
        let log = read_log(&dir, true).unwrap();
        assert_eq!(log.records.len(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_marker_lifecycle() {
        let dir = temp_dir("marker");
        fs::create_dir_all(&dir).unwrap();
        write_clean_marker(&dir, 17).unwrap();
        assert_eq!(read_clean_marker(&dir), Some(17));
        // Reopening for writing invalidates the marker.
        let _w = WalWriter::open(&dir, SyncPolicy::Never).unwrap();
        assert_eq!(read_clean_marker(&dir), None);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn term_marker_lifecycle() {
        let dir = temp_dir("term");
        assert_eq!(read_term_marker(&dir), None);
        write_term_marker(&dir, 3).unwrap();
        assert_eq!(read_term_marker(&dir), Some(3));
        // Unlike the clean marker, the term marker survives a writer reopen:
        // the term is a durable property of the log, not of one session.
        let _w = WalWriter::open(&dir, SyncPolicy::Never).unwrap();
        assert_eq!(read_term_marker(&dir), Some(3));
        write_term_marker(&dir, 9).unwrap();
        assert_eq!(read_term_marker(&dir), Some(9));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tail_reader_follows_rotation_and_stops_at_incomplete_tail() {
        let dir = temp_dir("tail");
        let mut w = WalWriter::open(&dir, SyncPolicy::Never).unwrap();
        w.set_max_segment_bytes(64);
        let mut written = Vec::new();
        for e in 0..12u64 {
            let r = rec(e + 2, vec![WalOp::InsertEdge(e as u32, e as u32 + 1)]);
            w.append(&r).unwrap();
            written.push(r);
        }
        w.sync().unwrap();
        assert!(list_segments(&dir).unwrap().len() > 1, "expected rotation");

        // Read everything from the origin, in two bounded chunks.
        let first = read_tail(&dir, 1, 0, 5).unwrap();
        assert_eq!(first.frames.len(), 5);
        let rest = read_tail(&dir, first.segment, first.offset, usize::MAX).unwrap();
        assert_eq!(first.frames.len() + rest.frames.len(), written.len());
        let decoded: Vec<DeltaRecord> = first
            .frames
            .iter()
            .chain(&rest.frames)
            .map(|f| DeltaRecord::decode_payload(&f.payload, f.segment, 0).unwrap())
            .collect();
        assert_eq!(decoded, written);
        // Caught up: the resume position matches the writer's tail.
        assert_eq!(
            (rest.segment, rest.offset),
            (w.segment(), w.segment_offset())
        );
        let idle = read_tail(&dir, rest.segment, rest.offset, usize::MAX).unwrap();
        assert!(idle.frames.is_empty());

        // An in-flight (torn) append at the live tail stops the reader
        // without error; completing the frame makes it visible.
        let r = rec(14, vec![WalOp::AddVertex(1.0, 2.0)]);
        let frame = r.encode();
        let seg = segment_path(&dir, w.segment());
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&frame[..frame.len() - 3]).unwrap();
        f.sync_data().unwrap();
        let stalled = read_tail(&dir, rest.segment, rest.offset, usize::MAX).unwrap();
        assert!(stalled.frames.is_empty());
        assert_eq!(
            (stalled.segment, stalled.offset),
            (rest.segment, rest.offset)
        );
        f.write_all(&frame[frame.len() - 3..]).unwrap();
        f.sync_data().unwrap();
        drop(f);
        let done = read_tail(&dir, stalled.segment, stalled.offset, usize::MAX).unwrap();
        assert_eq!(done.frames.len(), 1);
        assert_eq!(
            DeltaRecord::decode_payload(&done.frames[0].payload, 0, 0).unwrap(),
            r
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tail_reader_signals_snapshot_required_after_truncation() {
        // The checkpoint-truncation race: a reader holds a position in an
        // old segment while a checkpoint rotates and deletes it.  The reader
        // must get the clean SnapshotRequired signal, not a hard error.
        let dir = temp_dir("tail-truncated");
        let mut w = WalWriter::open(&dir, SyncPolicy::Never).unwrap();
        w.set_max_segment_bytes(64);
        for e in 0..12u64 {
            w.append(&rec(e + 2, vec![WalOp::InsertEdge(e as u32, e as u32 + 1)]))
                .unwrap();
        }
        w.sync().unwrap();
        let stale = read_tail(&dir, 1, 0, 3).unwrap();
        assert_eq!(stale.frames.len(), 3);
        // Checkpoint-style truncation: rotate and drop the old segments.
        let active = w.rotate().unwrap();
        w.remove_segments_below(active).unwrap();
        match read_tail(&dir, stale.segment, stale.offset, usize::MAX) {
            Err(WalError::SnapshotRequired { segment, oldest }) => {
                assert_eq!(segment, stale.segment);
                assert_eq!(oldest, active);
            }
            other => panic!("expected SnapshotRequired, got {other:?}"),
        }
        // A position *within* the live set but beyond a (hypothetically
        // truncated) older segment's end is the same signal.
        w.append(&rec(14, vec![WalOp::InsertEdge(0, 1)])).unwrap();
        w.rotate().unwrap();
        let huge = fs::metadata(segment_path(&dir, active)).unwrap().len() + 64;
        assert!(matches!(
            read_tail(&dir, active, huge, usize::MAX),
            Err(WalError::SnapshotRequired { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_policy_parsing() {
        assert_eq!(SyncPolicy::parse("always"), Some(SyncPolicy::Always));
        assert_eq!(SyncPolicy::parse("never"), Some(SyncPolicy::Never));
        assert_eq!(SyncPolicy::parse("8"), Some(SyncPolicy::EveryN(8)));
        assert_eq!(SyncPolicy::parse("0"), None);
        assert_eq!(SyncPolicy::parse("sometimes"), None);
    }
}
