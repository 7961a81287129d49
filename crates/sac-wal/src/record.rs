//! WAL record framing: one length-prefixed, CRC-checksummed, epoch-stamped
//! record per commit.
//!
//! On-disk frame layout (all integers little-endian):
//!
//! ```text
//! +-----------+-----------+----------------------------------------+
//! | len: u32  | crc: u32  | payload (len bytes)                    |
//! +-----------+-----------+----------------------------------------+
//! payload = epoch: u64 | term: u64 | op_count: u32 | op_count × op
//! op      = tag: u8 | operands (see WalOp)
//! ```
//!
//! The CRC covers the payload only; `len` is validated against the remaining
//! file bytes before the payload is read, so a torn header and a torn payload
//! are both detected as an incomplete tail.

use crate::crc::crc32;
use crate::WalError;

/// Maximum payload a single record may carry (sanity bound: a length prefix
/// beyond this is treated as corruption, not as a huge record).
pub const MAX_RECORD_PAYLOAD: u32 = 1 << 28;

/// Size of the frame header (`len` + `crc`).
pub const FRAME_HEADER_BYTES: usize = 8;

/// One logged graph mutation.  `sac-wal` keeps its own operation enum (plain
/// ids and coordinates) so the crate stays independent of `sac-live`'s
/// mutation types; the live engine converts at the commit boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalOp {
    /// Insert undirected edge `{u, v}`.
    InsertEdge(u32, u32),
    /// Remove undirected edge `{u, v}`.
    RemoveEdge(u32, u32),
    /// Append a new vertex at `(x, y)` (id assignment is implicit: vertices
    /// are numbered densely in insertion order).
    AddVertex(f64, f64),
    /// Move vertex `v` to `(x, y)`.
    MoveVertex(u32, f64, f64),
}

const TAG_INSERT_EDGE: u8 = 1;
const TAG_REMOVE_EDGE: u8 = 2;
const TAG_ADD_VERTEX: u8 = 3;
const TAG_MOVE_VERTEX: u8 = 4;

/// One commit's worth of operations, stamped with the epoch the commit
/// published (or was about to publish — records are appended *before* the
/// epoch swap, so replay skips records at or below a snapshot's epoch).
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRecord {
    /// Epoch number the commit carrying these ops published.
    pub epoch: u64,
    /// Leadership term the commit was written under (failover fencing: a
    /// log must never regress its term — see [`crate::WalError::TermRegression`]).
    pub term: u64,
    /// Operations in application order.
    pub ops: Vec<WalOp>,
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Cursor over a byte slice with bounds-checked little-endian reads.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }
}

impl DeltaRecord {
    /// Encodes the payload (epoch, term, op count, ops) without the frame
    /// header.
    pub(crate) fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20 + self.ops.len() * 21);
        put_u64(&mut out, self.epoch);
        put_u64(&mut out, self.term);
        put_u32(&mut out, self.ops.len() as u32);
        for op in &self.ops {
            match *op {
                WalOp::InsertEdge(u, v) => {
                    out.push(TAG_INSERT_EDGE);
                    put_u32(&mut out, u);
                    put_u32(&mut out, v);
                }
                WalOp::RemoveEdge(u, v) => {
                    out.push(TAG_REMOVE_EDGE);
                    put_u32(&mut out, u);
                    put_u32(&mut out, v);
                }
                WalOp::AddVertex(x, y) => {
                    out.push(TAG_ADD_VERTEX);
                    put_f64(&mut out, x);
                    put_f64(&mut out, y);
                }
                WalOp::MoveVertex(v, x, y) => {
                    out.push(TAG_MOVE_VERTEX);
                    put_u32(&mut out, v);
                    put_f64(&mut out, x);
                    put_f64(&mut out, y);
                }
            }
        }
        out
    }

    /// Encodes the full on-disk frame: `len | crc | payload`.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
        put_u32(&mut out, payload.len() as u32);
        put_u32(&mut out, crc32(&payload));
        out.extend_from_slice(&payload);
        out
    }

    /// Number of bytes [`DeltaRecord::encode`] produces.
    pub fn encoded_len(&self) -> usize {
        let ops: usize = self
            .ops
            .iter()
            .map(|op| match op {
                WalOp::InsertEdge(..) | WalOp::RemoveEdge(..) => 9,
                WalOp::AddVertex(..) => 17,
                WalOp::MoveVertex(..) => 21,
            })
            .sum();
        FRAME_HEADER_BYTES + 20 + ops
    }

    /// Decodes a CRC-verified payload.  `segment` and `offset` name the
    /// source location for error messages (pass 0 for frames that did not
    /// come from a local segment file, e.g. replication wire frames).
    pub fn decode_payload(
        payload: &[u8],
        segment: u64,
        offset: u64,
    ) -> Result<DeltaRecord, WalError> {
        let corrupt = |detail: &str| WalError::Corrupt {
            segment,
            offset,
            detail: detail.to_string(),
        };
        let mut c = Cursor::new(payload);
        let epoch = c
            .u64()
            .ok_or_else(|| corrupt("payload too short for epoch"))?;
        let term = c
            .u64()
            .ok_or_else(|| corrupt("payload too short for term"))?;
        let count = c
            .u32()
            .ok_or_else(|| corrupt("payload too short for op count"))? as usize;
        let mut ops = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            let tag = c
                .u8()
                .ok_or_else(|| corrupt("payload truncated inside op"))?;
            let op = match tag {
                TAG_INSERT_EDGE => {
                    let u = c.u32();
                    let v = c.u32();
                    match (u, v) {
                        (Some(u), Some(v)) => WalOp::InsertEdge(u, v),
                        _ => return Err(corrupt("payload truncated inside insert_edge")),
                    }
                }
                TAG_REMOVE_EDGE => {
                    let u = c.u32();
                    let v = c.u32();
                    match (u, v) {
                        (Some(u), Some(v)) => WalOp::RemoveEdge(u, v),
                        _ => return Err(corrupt("payload truncated inside remove_edge")),
                    }
                }
                TAG_ADD_VERTEX => {
                    let x = c.f64();
                    let y = c.f64();
                    match (x, y) {
                        (Some(x), Some(y)) => WalOp::AddVertex(x, y),
                        _ => return Err(corrupt("payload truncated inside add_vertex")),
                    }
                }
                TAG_MOVE_VERTEX => {
                    let v = c.u32();
                    let x = c.f64();
                    let y = c.f64();
                    match (v, x, y) {
                        (Some(v), Some(x), Some(y)) => WalOp::MoveVertex(v, x, y),
                        _ => return Err(corrupt("payload truncated inside move_vertex")),
                    }
                }
                _ => return Err(corrupt("unknown op tag")),
            };
            ops.push(op);
        }
        if c.remaining() != 0 {
            return Err(corrupt("trailing bytes after last op"));
        }
        Ok(DeltaRecord { epoch, term, ops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DeltaRecord {
        DeltaRecord {
            epoch: 42,
            term: 7,
            ops: vec![
                WalOp::InsertEdge(1, 2),
                WalOp::RemoveEdge(3, 4),
                WalOp::AddVertex(0.25, -7.5),
                WalOp::MoveVertex(9, f64::MIN_POSITIVE, -0.0),
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let rec = sample();
        let frame = rec.encode();
        assert_eq!(frame.len(), rec.encoded_len());
        let len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(frame[4..8].try_into().unwrap());
        let payload = &frame[8..];
        assert_eq!(payload.len(), len);
        assert_eq!(crc32(payload), crc);
        let back = DeltaRecord::decode_payload(payload, 0, 0).unwrap();
        assert_eq!(back.epoch, rec.epoch);
        assert_eq!(back.term, rec.term);
        assert_eq!(back.ops, rec.ops);
        // f64 bit patterns survive exactly (−0.0 included).
        match back.ops[3] {
            WalOp::MoveVertex(_, _, y) => assert_eq!(y.to_bits(), (-0.0f64).to_bits()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(DeltaRecord::decode_payload(&[1, 2, 3], 0, 0).is_err());
        let mut payload = sample().encode_payload();
        payload.push(0xFF);
        assert!(DeltaRecord::decode_payload(&payload, 0, 0).is_err());
    }
}
