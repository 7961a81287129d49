//! Binary snapshot checkpoints: a compact, CRC-guarded serialization of one
//! epoch's graph state — positions, core numbers and the adjacency.
//!
//! File layout (`snap-<epoch:020>.snap`, integers little-endian, `f64` as
//! IEEE bit patterns so recovery is bit-identical):
//!
//! ```text
//! magic "SACSNAP1"
//! epoch: u64 | n: u32 | flags: u8          (flags must be 0)
//! n × position (2×f64)
//! n × core_number (u32)
//! frame_count: u32                         (must be 1)
//! header_crc: u32                          (CRC of everything above)
//! frame = id: u32 | len: u32 | crc: u32 | payload      (id must be 0)
//! payload = row_count: u32 | rows          (row = vertex | degree | neighbors)
//! ```
//!
//! The single adjacency frame holds one row per vertex, in vertex order.
//! The `flags` byte, the frame count and the frame id keep the layout of
//! files written by earlier versions; the reader rejects any value it does
//! not understand.  Snapshots are written to a temp file, fsynced, then
//! renamed — a crash mid-checkpoint leaves the previous snapshot intact.

use crate::crc::crc32;
use crate::record::{put_f64, put_u32, put_u64, Cursor};
use crate::WalError;
use sac_geom::Point;
use sac_graph::{Graph, VertexId};
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"SACSNAP1";
const SNAP_PREFIX: &str = "snap-";
const SNAP_SUFFIX: &str = ".snap";

/// A decoded snapshot: everything needed to reconstruct the pre-crash epoch.
#[derive(Debug)]
pub struct SnapshotImage {
    /// Epoch the snapshot captured.
    pub epoch: u64,
    /// Vertex positions (bit-exact).
    pub positions: Vec<Point>,
    /// Core numbers at the captured epoch.
    pub core_numbers: Vec<u32>,
    /// CSR adjacency.
    pub graph: Graph,
}

/// Encodes the adjacency frame payload: one row per vertex, in vertex order.
fn encode_adjacency(graph: &Graph) -> Vec<u8> {
    let vertices = 0..graph.num_vertices() as VertexId;
    // Size the payload exactly, so the rows are written once into their
    // final buffer with no regrowth.
    let size = 4 + vertices
        .clone()
        .map(|v| 8 + 4 * graph.degree(v))
        .sum::<usize>();
    let mut payload = Vec::with_capacity(size);
    put_u32(&mut payload, graph.num_vertices() as u32);
    for v in vertices {
        let neighbors = graph.neighbors(v);
        put_u32(&mut payload, v);
        put_u32(&mut payload, neighbors.len() as u32);
        for &w in neighbors {
            put_u32(&mut payload, w);
        }
    }
    debug_assert_eq!(payload.len(), size);
    payload
}

fn snapshot_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("{SNAP_PREFIX}{epoch:020}{SNAP_SUFFIX}"))
}

/// Sorted `(epoch, path)` of the snapshots present in `dir`.
pub fn list_snapshots(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(epoch) = name
            .strip_prefix(SNAP_PREFIX)
            .and_then(|s| s.strip_suffix(SNAP_SUFFIX))
            .and_then(|s| s.parse::<u64>().ok())
        {
            found.push((epoch, entry.path()));
        }
    }
    found.sort_unstable_by_key(|(e, _)| *e);
    Ok(found)
}

/// The newest snapshot in `dir`, if any.
pub fn latest_snapshot(dir: &Path) -> std::io::Result<Option<(u64, PathBuf)>> {
    Ok(list_snapshots(dir)?.pop())
}

/// Deletes snapshots with epoch strictly below `floor`; returns the count.
pub fn remove_snapshots_below(dir: &Path, floor: u64) -> std::io::Result<u64> {
    let mut removed = 0;
    for (epoch, path) in list_snapshots(dir)? {
        if epoch < floor {
            fs::remove_file(path)?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// Writes a snapshot of `graph` durably (temp file + fsync + rename) and
/// returns its size in bytes.
pub fn write_snapshot(
    dir: &Path,
    epoch: u64,
    graph: &Graph,
    positions: &[Point],
    core_numbers: &[u32],
) -> Result<u64, WalError> {
    assert_eq!(positions.len(), core_numbers.len());
    assert_eq!(positions.len(), graph.num_vertices());
    let n = positions.len() as u32;
    let mut header = Vec::with_capacity(32 + positions.len() * 20);
    header.extend_from_slice(MAGIC);
    put_u64(&mut header, epoch);
    put_u32(&mut header, n);
    header.push(0); // flags
    for p in positions {
        put_f64(&mut header, p.x);
        put_f64(&mut header, p.y);
    }
    for &c in core_numbers {
        put_u32(&mut header, c);
    }
    put_u32(&mut header, 1); // frame count
    let header_crc = crc32(&header);
    let payload = encode_adjacency(graph);
    let mut frame_header = Vec::with_capacity(12);
    put_u32(&mut frame_header, 0); // frame id
    put_u32(&mut frame_header, payload.len() as u32);
    put_u32(&mut frame_header, crc32(&payload));

    let tmp = dir.join(format!("{SNAP_PREFIX}{epoch:020}.tmp"));
    let mut f = File::create(&tmp)?;
    f.write_all(&header)?;
    f.write_all(&header_crc.to_le_bytes())?;
    f.write_all(&frame_header)?;
    f.write_all(&payload)?;
    let bytes = (header.len() + 4 + frame_header.len() + payload.len()) as u64;
    f.sync_all()?;
    drop(f);
    let path = snapshot_path(dir, epoch);
    fs::rename(&tmp, &path)?;
    // Make the rename itself durable where the platform allows it.
    #[cfg(unix)]
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(bytes)
}

/// Reads and fully validates a snapshot file.
pub fn read_snapshot(path: &Path) -> Result<SnapshotImage, WalError> {
    decode_snapshot(&fs::read(path)?).map_err(|e| match e {
        WalError::SnapshotCorrupt { detail, .. } => WalError::SnapshotCorrupt {
            path: path.to_path_buf(),
            detail,
        },
        e => e,
    })
}

/// Decodes and fully validates the bytes of a snapshot file.  Every count is
/// checked against the bytes actually present before anything is allocated
/// for it, so hostile input cannot trigger an oversized allocation.  Errors
/// are [`WalError::SnapshotCorrupt`] with an empty path.
pub fn decode_snapshot(buf: &[u8]) -> Result<SnapshotImage, WalError> {
    let corrupt = |detail: &str| WalError::SnapshotCorrupt {
        path: PathBuf::new(),
        detail: detail.to_string(),
    };
    let mut c = Cursor::new(buf);

    // Header — reparse below the CRC check, so first find its extent by
    // walking the fixed-shape fields.
    let mut h = Vec::new();
    macro_rules! take {
        ($expr:expr, $what:literal) => {
            $expr.ok_or_else(|| corrupt(concat!("truncated ", $what)))?
        };
    }
    for _ in 0..8 {
        h.push(take!(c.u8(), "magic"));
    }
    if h != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let epoch = take!(c.u64(), "epoch");
    let n = take!(c.u32(), "vertex count") as usize;
    if take!(c.u8(), "flags") != 0 {
        return Err(corrupt("unsupported snapshot flags"));
    }
    if n > 1 << 30 {
        return Err(corrupt("implausible vertex count"));
    }
    if n > c.remaining() / 20 {
        return Err(corrupt("vertex count exceeds snapshot size"));
    }
    let mut positions = Vec::with_capacity(n);
    for _ in 0..n {
        let x = take!(c.f64(), "position");
        let y = take!(c.f64(), "position");
        positions.push(Point::new(x, y));
    }
    let mut core_numbers = Vec::with_capacity(n);
    for _ in 0..n {
        core_numbers.push(take!(c.u32(), "core number"));
    }
    let frame_count = take!(c.u32(), "frame count") as usize;
    let header_len = buf.len() - c.remaining();
    let stored_crc = take!(c.u32(), "header checksum");
    if crc32(&buf[..header_len]) != stored_crc {
        return Err(corrupt("header checksum mismatch"));
    }

    if frame_count != 1 {
        return Err(corrupt("expected exactly one adjacency frame"));
    }

    // The adjacency frame → CSR rows, in vertex order.
    if take!(c.u32(), "frame id") != 0 {
        return Err(corrupt("unsupported frame id"));
    }
    let len = take!(c.u32(), "frame length") as usize;
    let frame_crc = take!(c.u32(), "frame checksum");
    if c.remaining() != len {
        return Err(corrupt(if c.remaining() < len {
            "truncated frame payload"
        } else {
            "trailing bytes after the frame"
        }));
    }
    let payload = &buf[buf.len() - len..];
    if crc32(payload) != frame_crc {
        return Err(corrupt("frame checksum mismatch"));
    }
    let mut fc = Cursor::new(payload);
    if take!(fc.u32(), "row count") as usize != n {
        return Err(corrupt("row count does not match vertex count"));
    }
    let mut offsets = Vec::with_capacity(n + 1);
    let mut neighbors = Vec::new();
    offsets.push(0u64);
    for v in 0..n {
        if take!(fc.u32(), "row vertex") as usize != v {
            return Err(corrupt("rows out of vertex order"));
        }
        let deg = take!(fc.u32(), "row degree") as usize;
        if deg > fc.remaining() / 4 {
            return Err(corrupt("row degree exceeds frame size"));
        }
        for _ in 0..deg {
            neighbors.push(take!(fc.u32(), "neighbor"));
        }
        offsets.push(neighbors.len() as u64);
    }
    if fc.remaining() != 0 {
        return Err(corrupt("trailing bytes in frame"));
    }
    let graph = Graph::try_from_csr(offsets, neighbors)
        .map_err(|e| corrupt(&format!("invalid adjacency: {e}")))?;
    Ok(SnapshotImage {
        epoch,
        positions,
        core_numbers,
        graph,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sac_graph::GraphBuilder;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("sac-snap-{tag}-{}-{n}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> (Graph, Vec<Point>, Vec<u32>) {
        let mut b = GraphBuilder::new();
        for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)] {
            b.add_edge(u, v);
        }
        let graph = b.build();
        let positions: Vec<Point> = (0..6)
            .map(|i| Point::new(i as f64 * 0.5, (i % 3) as f64))
            .collect();
        let cores = vec![2, 2, 2, 1, 1, 1];
        (graph, positions, cores)
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let dir = temp_dir("flat");
        let (graph, positions, cores) = sample();
        write_snapshot(&dir, 7, &graph, &positions, &cores).unwrap();
        let (epoch, path) = latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(epoch, 7);
        let image = read_snapshot(&path).unwrap();
        assert_eq!(image.epoch, 7);
        assert_eq!(image.core_numbers, cores);
        assert_eq!(image.graph.num_vertices(), graph.num_vertices());
        assert_eq!(image.graph.num_edges(), graph.num_edges());
        for v in 0..6 {
            assert_eq!(image.graph.neighbors(v), graph.neighbors(v));
            assert_eq!(
                image.positions[v as usize].x.to_bits(),
                positions[v as usize].x.to_bits()
            );
            assert_eq!(
                image.positions[v as usize].y.to_bits(),
                positions[v as usize].y.to_bits()
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// The frame payload and snapshot file of a fixed fixture, as
    /// `(len, crc32)` fingerprints, stay byte-identical: the on-disk format
    /// is pinned, not just round-trippable.
    #[test]
    fn encoding_is_pinned_byte_for_byte() {
        let (graph, positions, cores) = sample();
        // (frame (id, len, crc), whole-file (len, crc))
        let (frame_print, file_print) = ((0, 100, 1762280136), (261, 0xfccd8868));
        let payload = encode_adjacency(&graph);
        assert_eq!((0, payload.len(), crc32(&payload)), frame_print);
        let dir = temp_dir("pinned");
        write_snapshot(&dir, 11, &graph, &positions, &cores).unwrap();
        let file = fs::read(latest_snapshot(&dir).unwrap().unwrap().1).unwrap();
        assert_eq!((file.len(), crc32(&file)), file_print);
        fs::remove_dir_all(&dir).ok();
    }

    /// Nonzero `flags` (bit 0 once marked a serialized shard map) are
    /// rejected before anything else is read.
    #[test]
    fn nonzero_flags_are_rejected() {
        let dir = temp_dir("flags");
        let (graph, positions, cores) = sample();
        write_snapshot(&dir, 5, &graph, &positions, &cores).unwrap();
        let clean = fs::read(latest_snapshot(&dir).unwrap().unwrap().1).unwrap();
        fs::remove_dir_all(&dir).ok();
        decode_snapshot(&clean).unwrap();
        // magic (8) | epoch (8) | n (4) | flags (1) ... | frame count | crc
        let flags_at = 20;
        let header_len = flags_at + 1 + positions.len() * 20 + 4;
        for flags in [1u8, 2] {
            let mut bytes = clean.clone();
            bytes[flags_at] = flags;
            let crc = crc32(&bytes[..header_len]);
            bytes[header_len..header_len + 4].copy_from_slice(&crc.to_le_bytes());
            let detail = corrupt_detail(decode_snapshot(&bytes));
            assert_eq!(detail, "unsupported snapshot flags", "flags = {flags}");
        }
    }

    #[test]
    fn corruption_is_detected() {
        let dir = temp_dir("corrupt");
        let (graph, positions, cores) = sample();
        write_snapshot(&dir, 3, &graph, &positions, &cores).unwrap();
        let (_, path) = latest_snapshot(&dir).unwrap().unwrap();
        let clean = fs::read(&path).unwrap();
        for &at in &[10usize, clean.len() / 2, clean.len() - 2] {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x01;
            fs::write(&path, &bytes).unwrap();
            assert!(
                read_snapshot(&path).is_err(),
                "flip at {at} went undetected"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// The detail of a `SnapshotCorrupt` error; panics on anything else.
    fn corrupt_detail(result: Result<SnapshotImage, WalError>) -> String {
        match result {
            Err(WalError::SnapshotCorrupt { detail, .. }) => detail,
            other => panic!("expected SnapshotCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn vertex_count_beyond_the_bytes_present_is_rejected() {
        let mut bytes = MAGIC.to_vec();
        put_u64(&mut bytes, 1);
        put_u32(&mut bytes, 1 << 30);
        bytes.push(0);
        bytes.extend_from_slice(&[0u8; 24]);
        let detail = corrupt_detail(decode_snapshot(&bytes));
        assert_eq!(detail, "vertex count exceeds snapshot size");
    }

    #[test]
    fn row_degree_beyond_the_frame_is_rejected() {
        // A one-vertex snapshot whose single, CRC-valid frame holds one row
        // of degree `deg` followed by 4 bytes.
        let snapshot = |deg: u32| {
            let mut bytes = MAGIC.to_vec();
            put_u64(&mut bytes, 1);
            put_u32(&mut bytes, 1);
            bytes.push(0);
            put_f64(&mut bytes, 0.5);
            put_f64(&mut bytes, 0.5);
            put_u32(&mut bytes, 0); // core number
            put_u32(&mut bytes, 1); // frame count
            let header_crc = crc32(&bytes);
            put_u32(&mut bytes, header_crc);
            let mut payload = Vec::new();
            put_u32(&mut payload, 1); // row count
            put_u32(&mut payload, 0); // vertex
            put_u32(&mut payload, deg);
            put_u32(&mut payload, 7);
            put_u32(&mut bytes, 0); // frame id
            put_u32(&mut bytes, payload.len() as u32);
            put_u32(&mut bytes, crc32(&payload));
            bytes.extend_from_slice(&payload);
            bytes
        };
        // Control: the same bytes with a degree that fits get past the row
        // and fail only on the neighbor being out of range.
        let detail = corrupt_detail(decode_snapshot(&snapshot(1)));
        assert!(detail.starts_with("invalid adjacency"), "{detail}");
        let detail = corrupt_detail(decode_snapshot(&snapshot(u32::MAX)));
        assert_eq!(detail, "row degree exceeds frame size");
    }

    #[test]
    fn snapshot_retention() {
        let dir = temp_dir("retain");
        let (graph, positions, cores) = sample();
        for epoch in [2u64, 5, 9] {
            write_snapshot(&dir, epoch, &graph, &positions, &cores).unwrap();
        }
        assert_eq!(latest_snapshot(&dir).unwrap().unwrap().0, 9);
        assert_eq!(remove_snapshots_below(&dir, 9).unwrap(), 2);
        assert_eq!(list_snapshots(&dir).unwrap().len(), 1);
        fs::remove_dir_all(&dir).ok();
    }
}
