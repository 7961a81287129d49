//! Replication wire protocol: the handshake and frame stream a replica uses
//! to tail a primary's write-ahead log.
//!
//! The link is one TCP connection per attempt.  The replica opens with a
//! single JSON line ([`ReplicateRequest`]) naming the log position it wants
//! to resume from (or asking for a snapshot bootstrap); the primary answers
//! with a single JSON line ([`ReplicateHello`]) and then switches to binary
//! frames.  A snapshot hello is followed by the raw snapshot file bytes
//! before the first frame.
//!
//! Binary frame layout (all integers little-endian):
//!
//! ```text
//! record:    kind=1: u8 | segment: u64 | end_offset: u64
//!                       | len: u32 | crc: u32 | payload (len bytes)
//! heartbeat: kind=2: u8 | epoch: u64 | segment: u64 | offset: u64
//!                       | term: u64 | lease_ms: u64
//!                       | count: u16 | count × (id: u64 | alen: u16 | addr)
//! snapshot_required: kind=3: u8
//! ```
//!
//! A record frame carries the on-disk WAL payload verbatim (the CRC is the
//! stored one, covering the payload only), so the replica re-verifies the
//! checksum end to end — a byte corrupted anywhere between the primary's
//! disk and the replica's decoder is caught.  `(segment, end_offset)` is the
//! resume position *after* the record, fed back on reconnect.  Heartbeats
//! report the primary's served epoch and WAL tail so the replica can detect
//! both staleness and silently lost frames — plus the failover lease: the
//! primary's leadership term, the lease duration it grants, and the roster
//! of connected promotion candidates (replica id → advertised address), so
//! every replica can run the same deterministic promotion rule when the
//! lease expires.  `snapshot_required` tells the replica its position was
//! truncated by a checkpoint: reconnect with `snapshot: true`.
//!
//! A second handshake command, `replicate_probe` ([`ProbeRequest`] /
//! [`ProbeReply`]), asks a shipping endpoint for its current term, role and
//! believed leader without opening a stream — a restarting primary probes
//! its peers with it to detect that it has been superseded (zombie
//! demotion) before accepting a single write.

use crate::json::{obj, Json};
use std::io::{Read, Write};

/// Frame kind: one WAL record.
pub const REPL_FRAME_RECORD: u8 = 1;
/// Frame kind: heartbeat (primary epoch + WAL tail position).
pub const REPL_FRAME_HEARTBEAT: u8 = 2;
/// Frame kind: the requested position was truncated; re-bootstrap.
pub const REPL_FRAME_SNAPSHOT_REQUIRED: u8 = 3;

/// Upper bound on a record frame payload accepted off the wire (matches the
/// WAL's own on-disk sanity bound).
pub const REPL_MAX_PAYLOAD: u32 = 1 << 28;

/// The replica's opening line: where to resume the stream from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicateRequest {
    /// Segment of the resume position (ignored under `snapshot`).
    pub segment: u64,
    /// Byte offset within `segment` (ignored under `snapshot`).
    pub offset: u64,
    /// Ask for a full snapshot bootstrap instead of a log position (first
    /// boot, or after `snapshot_required`).
    pub snapshot: bool,
    /// Highest leadership term the replica has observed (0 when it has seen
    /// none).  A shipper whose own term is *lower* must refuse the stream:
    /// it has been superseded and must not keep acting as a primary.
    pub term: u64,
    /// The replica's stable id, when it is a promotion candidate (`None`
    /// for anonymous tailers: they follow but never promote).
    pub replica_id: Option<u64>,
    /// The shipping address the replica would serve on if promoted
    /// (broadcast to its peers via the heartbeat roster).
    pub advertise: Option<String>,
}

impl ReplicateRequest {
    /// A plain tail/bootstrap request with no failover identity.
    pub fn new(segment: u64, offset: u64, snapshot: bool) -> ReplicateRequest {
        ReplicateRequest {
            segment,
            offset,
            snapshot,
            term: 0,
            replica_id: None,
            advertise: None,
        }
    }

    /// Encodes the request as one JSON line (no trailing newline).  The
    /// failover fields append after the historical ones (`replica_id` /
    /// `advertise` only when present) so pre-failover parsers keep working.
    pub fn encode_line(&self) -> String {
        let mut fields = vec![
            ("cmd", Json::Str("replicate".to_string())),
            ("segment", Json::Num(self.segment as f64)),
            ("offset", Json::Num(self.offset as f64)),
            ("snapshot", Json::Bool(self.snapshot)),
            ("term", Json::Num(self.term as f64)),
        ];
        if let Some(id) = self.replica_id {
            fields.push(("replica_id", Json::Num(id as f64)));
        }
        if let Some(addr) = &self.advertise {
            fields.push(("advertise", Json::Str(addr.clone())));
        }
        obj(fields).to_string()
    }

    /// Parses a request line; `None` when the line is not a well-formed
    /// replicate request.  The failover fields are tolerated missing (term
    /// 0, anonymous) for wire compatibility with pre-failover replicas.
    pub fn parse_line(line: &str) -> Option<ReplicateRequest> {
        let json = Json::parse(line).ok()?;
        if json.get("cmd")?.as_str()? != "replicate" {
            return None;
        }
        Some(ReplicateRequest {
            segment: json.get("segment")?.as_u64()?,
            offset: json.get("offset")?.as_u64()?,
            snapshot: json
                .get("snapshot")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            term: json.get("term").and_then(Json::as_u64).unwrap_or(0),
            replica_id: json.get("replica_id").and_then(Json::as_u64),
            advertise: json
                .get("advertise")
                .and_then(Json::as_str)
                .map(str::to_string),
        })
    }
}

/// A leadership probe: asks a shipping endpoint for its term/role/leader
/// without opening a stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProbeRequest;

impl ProbeRequest {
    /// Encodes the probe as one JSON line (no trailing newline).
    pub fn encode_line(&self) -> String {
        obj(vec![("cmd", Json::Str("replicate_probe".to_string()))]).to_string()
    }

    /// Parses a probe line; `None` when it is not a probe.
    pub fn parse_line(line: &str) -> Option<ProbeRequest> {
        let json = Json::parse(line).ok()?;
        if json.get("cmd")?.as_str()? != "replicate_probe" {
            return None;
        }
        Some(ProbeRequest)
    }
}

/// The answer to a [`ProbeRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeReply {
    /// The responder's current leadership term.
    pub term: u64,
    /// The responder's role: `"primary"`, `"replica"` or `"candidate"`.
    pub role: String,
    /// Address of the leader the responder believes in (its own shipping
    /// address when it is the primary), when known.
    pub leader: Option<String>,
}

impl ProbeReply {
    /// Encodes the reply as one JSON line (no trailing newline).
    pub fn encode_line(&self) -> String {
        let mut fields = vec![
            ("ok", Json::Bool(true)),
            ("term", Json::Num(self.term as f64)),
            ("role", Json::Str(self.role.clone())),
        ];
        if let Some(leader) = &self.leader {
            fields.push(("leader", Json::Str(leader.clone())));
        }
        obj(fields).to_string()
    }

    /// Parses a probe reply; `None` when malformed or not ok.
    pub fn parse_line(line: &str) -> Option<ProbeReply> {
        let json = Json::parse(line).ok()?;
        if !json.get("ok")?.as_bool()? {
            return None;
        }
        Some(ProbeReply {
            term: json.get("term")?.as_u64()?,
            role: json.get("role")?.as_str()?.to_string(),
            leader: json
                .get("leader")
                .and_then(Json::as_str)
                .map(str::to_string),
        })
    }
}

/// The primary's one-line answer to a [`ReplicateRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicateHello {
    /// A snapshot bootstrap: `len` raw snapshot-file bytes follow this line,
    /// then binary frames from `(segment, offset)`.  The replica skips
    /// records at or below `epoch`, exactly like local recovery.
    Snapshot {
        /// Epoch the snapshot captured.
        epoch: u64,
        /// Size of the snapshot file in bytes.
        len: u64,
        /// Segment the frame stream resumes from.
        segment: u64,
        /// Offset within `segment`.
        offset: u64,
        /// The primary's leadership term (0 on pre-failover primaries).
        term: u64,
    },
    /// Binary frames follow, from the requested position.
    Tail {
        /// Segment the frame stream resumes from.
        segment: u64,
        /// Offset within `segment`.
        offset: u64,
        /// The primary's leadership term (0 on pre-failover primaries).
        term: u64,
    },
    /// The requested position predates the oldest live segment; reconnect
    /// with `snapshot: true`.
    SnapshotRequired {
        /// Oldest segment still on disk.
        oldest: u64,
    },
    /// The primary cannot serve the stream (e.g. it runs without a WAL).
    Error {
        /// What went wrong.
        message: String,
    },
}

impl ReplicateHello {
    /// Encodes the hello as one JSON line (no trailing newline).
    pub fn encode_line(&self) -> String {
        match self {
            ReplicateHello::Snapshot {
                epoch,
                len,
                segment,
                offset,
                term,
            } => obj(vec![
                ("ok", Json::Bool(true)),
                ("mode", Json::Str("snapshot".to_string())),
                ("epoch", Json::Num(*epoch as f64)),
                ("len", Json::Num(*len as f64)),
                ("segment", Json::Num(*segment as f64)),
                ("offset", Json::Num(*offset as f64)),
                ("term", Json::Num(*term as f64)),
            ]),
            ReplicateHello::Tail {
                segment,
                offset,
                term,
            } => obj(vec![
                ("ok", Json::Bool(true)),
                ("mode", Json::Str("tail".to_string())),
                ("segment", Json::Num(*segment as f64)),
                ("offset", Json::Num(*offset as f64)),
                ("term", Json::Num(*term as f64)),
            ]),
            ReplicateHello::SnapshotRequired { oldest } => obj(vec![
                ("ok", Json::Bool(true)),
                ("mode", Json::Str("snapshot_required".to_string())),
                ("oldest", Json::Num(*oldest as f64)),
            ]),
            ReplicateHello::Error { message } => obj(vec![
                ("ok", Json::Bool(false)),
                ("error", Json::Str(message.clone())),
            ]),
        }
        .to_string()
    }

    /// Parses a hello line; `None` when malformed.
    pub fn parse_line(line: &str) -> Option<ReplicateHello> {
        let json = Json::parse(line).ok()?;
        if !json.get("ok")?.as_bool()? {
            return Some(ReplicateHello::Error {
                message: json
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error")
                    .to_string(),
            });
        }
        match json.get("mode")?.as_str()? {
            "snapshot" => Some(ReplicateHello::Snapshot {
                epoch: json.get("epoch")?.as_u64()?,
                len: json.get("len")?.as_u64()?,
                segment: json.get("segment")?.as_u64()?,
                offset: json.get("offset")?.as_u64()?,
                term: json.get("term").and_then(Json::as_u64).unwrap_or(0),
            }),
            "tail" => Some(ReplicateHello::Tail {
                segment: json.get("segment")?.as_u64()?,
                offset: json.get("offset")?.as_u64()?,
                term: json.get("term").and_then(Json::as_u64).unwrap_or(0),
            }),
            "snapshot_required" => Some(ReplicateHello::SnapshotRequired {
                oldest: json.get("oldest")?.as_u64()?,
            }),
            _ => None,
        }
    }
}

/// One decoded binary frame off the replication stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplFrame {
    /// A WAL record, payload undecoded (the receiver verifies `crc` and
    /// decodes through `sac-wal`).
    Record {
        /// Segment the record lives in on the primary.
        segment: u64,
        /// Resume position after the record.
        end_offset: u64,
        /// CRC-32 of the payload as stored on disk.
        crc: u32,
        /// The record payload (epoch, op count, ops).
        payload: Vec<u8>,
    },
    /// A liveness beacon carrying the primary's served epoch, WAL tail, and
    /// the failover lease (term, duration, promotion roster).
    Heartbeat {
        /// Primary's served epoch.
        epoch: u64,
        /// Segment of the primary's WAL tail.
        segment: u64,
        /// Offset of the primary's WAL tail.
        offset: u64,
        /// Primary's leadership term.
        term: u64,
        /// Lease duration granted by this beacon, in milliseconds.  A
        /// replica that sees no further heartbeat within this window may
        /// start an election.
        lease_ms: u64,
        /// Connected promotion candidates: `(replica id, advertised shipping
        /// address)`, as registered in their handshakes.  Every follower
        /// receives the same roster, so the promotion rule (lowest id wins)
        /// is deterministic across the fleet.
        roster: Vec<(u64, String)>,
    },
    /// The stream position was truncated by a checkpoint; re-bootstrap.
    SnapshotRequired,
}

impl ReplFrame {
    /// Encodes the frame for the wire.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            ReplFrame::Record {
                segment,
                end_offset,
                crc,
                payload,
            } => {
                let mut out = Vec::with_capacity(25 + payload.len());
                out.push(REPL_FRAME_RECORD);
                out.extend_from_slice(&segment.to_le_bytes());
                out.extend_from_slice(&end_offset.to_le_bytes());
                out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                out.extend_from_slice(&crc.to_le_bytes());
                out.extend_from_slice(payload);
                out
            }
            ReplFrame::Heartbeat {
                epoch,
                segment,
                offset,
                term,
                lease_ms,
                roster,
            } => {
                let mut out = Vec::with_capacity(43 + roster.len() * 32);
                out.push(REPL_FRAME_HEARTBEAT);
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&segment.to_le_bytes());
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&term.to_le_bytes());
                out.extend_from_slice(&lease_ms.to_le_bytes());
                out.extend_from_slice(&(roster.len() as u16).to_le_bytes());
                for (id, addr) in roster {
                    out.extend_from_slice(&id.to_le_bytes());
                    out.extend_from_slice(&(addr.len() as u16).to_le_bytes());
                    out.extend_from_slice(addr.as_bytes());
                }
                out
            }
            ReplFrame::SnapshotRequired => vec![REPL_FRAME_SNAPSHOT_REQUIRED],
        }
    }

    /// Writes the encoded frame to `w`.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        w.write_all(&self.encode())
    }

    /// Reads one frame from `r`, blocking until it is complete.  Errors with
    /// `InvalidData` on an unknown kind or an implausible payload length,
    /// and with whatever `r` reports on short reads (`UnexpectedEof` on a
    /// connection closed mid-frame).
    pub fn read_from(r: &mut impl Read) -> std::io::Result<ReplFrame> {
        let mut kind = [0u8; 1];
        r.read_exact(&mut kind)?;
        match kind[0] {
            REPL_FRAME_RECORD => {
                let segment = read_u64(r)?;
                let end_offset = read_u64(r)?;
                let len = read_u32(r)?;
                let crc = read_u32(r)?;
                if len > REPL_MAX_PAYLOAD {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("implausible replication payload length {len}"),
                    ));
                }
                // Grow the buffer with the bytes that actually arrive: a
                // header claiming a large `len` followed by EOF must not
                // cost `len` bytes of memory first.
                let mut payload = Vec::with_capacity((len as usize).min(1 << 16));
                r.take(u64::from(len)).read_to_end(&mut payload)?;
                if payload.len() != len as usize {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "replication record payload truncated",
                    ));
                }
                Ok(ReplFrame::Record {
                    segment,
                    end_offset,
                    crc,
                    payload,
                })
            }
            REPL_FRAME_HEARTBEAT => {
                let epoch = read_u64(r)?;
                let segment = read_u64(r)?;
                let offset = read_u64(r)?;
                let term = read_u64(r)?;
                let lease_ms = read_u64(r)?;
                let count = read_u16(r)?;
                // Entries are pushed as they arrive, so a claimed count
                // reserves nothing the stream does not deliver.
                let mut roster = Vec::new();
                for _ in 0..count {
                    let id = read_u64(r)?;
                    let alen = read_u16(r)?;
                    let mut addr = vec![0u8; alen as usize];
                    r.read_exact(&mut addr)?;
                    let addr = String::from_utf8(addr).map_err(|_| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            "non-UTF-8 address in heartbeat roster",
                        )
                    })?;
                    roster.push((id, addr));
                }
                Ok(ReplFrame::Heartbeat {
                    epoch,
                    segment,
                    offset,
                    term,
                    lease_ms,
                    roster,
                })
            }
            REPL_FRAME_SNAPSHOT_REQUIRED => Ok(ReplFrame::SnapshotRequired),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unknown replication frame kind {other}"),
            )),
        }
    }
}

fn read_u16(r: &mut impl Read) -> std::io::Result<u16> {
    let mut buf = [0u8; 2];
    r.read_exact(&mut buf)?;
    Ok(u16::from_le_bytes(buf))
}

fn read_u32(r: &mut impl Read) -> std::io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64(r: &mut impl Read) -> std::io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_lines_roundtrip() {
        let req = ReplicateRequest::new(4, 1024, false);
        assert_eq!(
            req.encode_line(),
            r#"{"cmd":"replicate","segment":4,"offset":1024,"snapshot":false,"term":0}"#
        );
        assert_eq!(ReplicateRequest::parse_line(&req.encode_line()), Some(req));

        let candidate = ReplicateRequest {
            term: 3,
            replica_id: Some(12),
            advertise: Some("127.0.0.1:9100".to_string()),
            ..ReplicateRequest::new(4, 1024, false)
        };
        assert_eq!(
            ReplicateRequest::parse_line(&candidate.encode_line()),
            Some(candidate)
        );
        // Pre-failover request lines (no term/replica_id/advertise) still
        // parse, defaulting to term 0 / anonymous.
        let legacy = ReplicateRequest::parse_line(
            r#"{"cmd":"replicate","segment":4,"offset":1024,"snapshot":false}"#,
        )
        .unwrap();
        assert_eq!(legacy, ReplicateRequest::new(4, 1024, false));

        for hello in [
            ReplicateHello::Snapshot {
                epoch: 9,
                len: 4096,
                segment: 3,
                offset: 0,
                term: 2,
            },
            ReplicateHello::Tail {
                segment: 4,
                offset: 1024,
                term: 0,
            },
            ReplicateHello::SnapshotRequired { oldest: 7 },
            ReplicateHello::Error {
                message: "no wal".to_string(),
            },
        ] {
            assert_eq!(
                ReplicateHello::parse_line(&hello.encode_line()),
                Some(hello)
            );
        }
        assert_eq!(ReplicateRequest::parse_line("{}"), None);
        assert_eq!(ReplicateHello::parse_line("nonsense"), None);
    }

    #[test]
    fn probe_lines_roundtrip() {
        let probe = ProbeRequest;
        assert_eq!(probe.encode_line(), r#"{"cmd":"replicate_probe"}"#);
        assert_eq!(ProbeRequest::parse_line(&probe.encode_line()), Some(probe));
        // A probe is not a replicate request and vice versa.
        assert_eq!(
            ReplicateRequest::parse_line(r#"{"cmd":"replicate_probe"}"#),
            None
        );
        assert_eq!(
            ProbeRequest::parse_line(&ReplicateRequest::new(0, 0, true).encode_line()),
            None
        );

        for reply in [
            ProbeReply {
                term: 5,
                role: "primary".to_string(),
                leader: Some("127.0.0.1:9100".to_string()),
            },
            ProbeReply {
                term: 0,
                role: "replica".to_string(),
                leader: None,
            },
        ] {
            assert_eq!(ProbeReply::parse_line(&reply.encode_line()), Some(reply));
        }
        assert_eq!(ProbeReply::parse_line(r#"{"ok":false}"#), None);
    }

    #[test]
    fn frames_roundtrip_over_a_byte_stream() {
        let frames = vec![
            ReplFrame::Record {
                segment: 2,
                end_offset: 77,
                crc: 0xDEAD_BEEF,
                // Longer than the reader's first 64 KiB reservation.
                payload: (0..=255).cycle().take(100_000).collect(),
            },
            ReplFrame::Heartbeat {
                epoch: 12,
                segment: 2,
                offset: 77,
                term: 4,
                lease_ms: 1000,
                roster: vec![
                    (1, "10.0.0.1:9100".to_string()),
                    (7, "10.0.0.2:9100".to_string()),
                ],
            },
            ReplFrame::Heartbeat {
                epoch: 13,
                segment: 2,
                offset: 99,
                term: 4,
                lease_ms: 1000,
                roster: Vec::new(),
            },
            ReplFrame::SnapshotRequired,
        ];
        let mut wire = Vec::new();
        for f in &frames {
            f.write_to(&mut wire).unwrap();
        }
        let mut r = wire.as_slice();
        for f in &frames {
            assert_eq!(&ReplFrame::read_from(&mut r).unwrap(), f);
        }
        // A stream truncated in a header or in a payload surfaces as
        // UnexpectedEof, not garbage.
        for cut in [10, frames[0].encode().len() - 1] {
            assert_eq!(
                ReplFrame::read_from(&mut &wire[..cut]).unwrap_err().kind(),
                std::io::ErrorKind::UnexpectedEof
            );
        }
        let mut bad = [9u8].as_slice();
        assert_eq!(
            ReplFrame::read_from(&mut bad).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }
}
