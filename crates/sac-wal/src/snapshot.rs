//! Binary snapshot checkpoints: a compact, CRC-guarded serialization of one
//! epoch's graph state — positions, core numbers, the (stable) shard
//! partition, and per-shard adjacency frames.
//!
//! File layout (`snap-<epoch:020>.snap`, integers little-endian, `f64` as
//! IEEE bit patterns so recovery is bit-identical):
//!
//! ```text
//! magic "SACSNAP1"
//! epoch: u64 | n: u32 | flags: u8          (flags bit0 = shard map present)
//! [shard_count: u32 | halo: f64 | guard: f64 | shard_count × region(4×f64)]
//! n × position (2×f64)
//! n × core_number (u32)
//! frame_count: u32
//! header_crc: u32                          (CRC of everything above)
//! frame_count × frame
//! frame = shard: u32 | len: u32 | crc: u32 | payload
//! payload = row_count: u32 | rows          (row = vertex | degree | neighbors)
//! ```
//!
//! Adjacency is framed **per owning shard** (`ShardMap::shard_of` of the
//! vertex's position) so a checkpoint can reuse the frames of shards that
//! saw no mutations since the previous checkpoint and re-encode only the
//! dirty ones.  An unsharded engine uses a single frame.  Snapshots are
//! written to a temp file, fsynced, then renamed — a crash mid-checkpoint
//! leaves the previous snapshot intact.

use crate::crc::crc32;
use crate::record::{put_f64, put_u32, put_u64, Cursor};
use crate::WalError;
use sac_geom::{Point, Rect};
use sac_graph::{Graph, ShardMap, VertexId};
use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"SACSNAP1";
const SNAP_PREFIX: &str = "snap-";
const SNAP_SUFFIX: &str = ".snap";

/// One shard's encoded adjacency rows.  Opaque payload so callers can cache
/// frames across checkpoints and hand clean ones back verbatim.
#[derive(Debug, Clone)]
pub struct SnapshotFrame {
    shard: u32,
    payload: Vec<u8>,
}

impl SnapshotFrame {
    /// The shard id this frame covers.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Encoded payload size in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the frame carries no rows (possible for an empty shard).
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

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
    /// The engine's stable spatial partition (`None` when unsharded).  This
    /// is serialized rather than rebuilt because the partition derives from
    /// *boot-time* positions; rebuilding from current positions would change
    /// the shard layout and break bit-identical recovery.
    pub map: Option<ShardMap>,
}

/// Encodes the adjacency frame of `shard`: rows for every vertex whose
/// position the map assigns to `shard` (all vertices when `map` is `None`,
/// in which case `shard` must be 0).
pub fn encode_frame(
    graph: &Graph,
    positions: &[Point],
    map: Option<&ShardMap>,
    shard: u32,
) -> SnapshotFrame {
    let owned = |v: VertexId| match map {
        Some(m) => m.shard_of(positions[v as usize]) == shard,
        None => true,
    };
    let vertices = 0..graph.num_vertices() as VertexId;
    // Size the payload exactly, so the rows are written once into their
    // final buffer with no regrowth.
    let size = 4 + vertices
        .clone()
        .filter(|&v| owned(v))
        .map(|v| 8 + 4 * graph.degree(v))
        .sum::<usize>();
    let mut payload = Vec::with_capacity(size);
    put_u32(&mut payload, 0); // row count, patched below
    let mut rows = 0u32;
    for v in vertices.filter(|&v| owned(v)) {
        rows += 1;
        let neighbors = graph.neighbors(v);
        put_u32(&mut payload, v);
        put_u32(&mut payload, neighbors.len() as u32);
        for &w in neighbors {
            put_u32(&mut payload, w);
        }
    }
    debug_assert_eq!(payload.len(), size);
    payload[..4].copy_from_slice(&rows.to_le_bytes());
    SnapshotFrame { shard, payload }
}

/// Encodes all frames of a snapshot (one per shard, or a single frame 0 when
/// unsharded).
pub fn encode_frames(
    graph: &Graph,
    positions: &[Point],
    map: Option<&ShardMap>,
) -> Vec<SnapshotFrame> {
    match map {
        Some(m) => (0..m.num_shards() as u32)
            .map(|s| encode_frame(graph, positions, Some(m), s))
            .collect(),
        None => vec![encode_frame(graph, positions, None, 0)],
    }
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

/// Writes a snapshot durably (temp file + fsync + rename) and returns its
/// size in bytes.  `frames` must jointly cover every vertex exactly once —
/// [`read_snapshot`] verifies this on the way back in.
pub fn write_snapshot(
    dir: &Path,
    epoch: u64,
    positions: &[Point],
    core_numbers: &[u32],
    map: Option<&ShardMap>,
    frames: &[SnapshotFrame],
) -> Result<u64, WalError> {
    assert_eq!(positions.len(), core_numbers.len());
    let n = positions.len() as u32;
    let mut header = Vec::with_capacity(32 + positions.len() * 20);
    header.extend_from_slice(MAGIC);
    put_u64(&mut header, epoch);
    put_u32(&mut header, n);
    header.push(u8::from(map.is_some()));
    if let Some(m) = map {
        put_u32(&mut header, m.num_shards() as u32);
        put_f64(&mut header, m.halo());
        put_f64(&mut header, m.guard());
        for s in 0..m.num_shards() as u32 {
            let r = m.region(s);
            put_f64(&mut header, r.min.x);
            put_f64(&mut header, r.min.y);
            put_f64(&mut header, r.max.x);
            put_f64(&mut header, r.max.y);
        }
    }
    for p in positions {
        put_f64(&mut header, p.x);
        put_f64(&mut header, p.y);
    }
    for &c in core_numbers {
        put_u32(&mut header, c);
    }
    put_u32(&mut header, frames.len() as u32);
    let header_crc = crc32(&header);

    let tmp = dir.join(format!("{SNAP_PREFIX}{epoch:020}.tmp"));
    let mut f = File::create(&tmp)?;
    f.write_all(&header)?;
    f.write_all(&header_crc.to_le_bytes())?;
    let mut bytes = header.len() as u64 + 4;
    for frame in frames {
        let mut fh = Vec::with_capacity(12);
        put_u32(&mut fh, frame.shard);
        put_u32(&mut fh, frame.payload.len() as u32);
        put_u32(&mut fh, crc32(&frame.payload));
        f.write_all(&fh)?;
        f.write_all(&frame.payload)?;
        bytes += 12 + frame.payload.len() as u64;
    }
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
    let corrupt = |detail: &str| WalError::SnapshotCorrupt {
        path: path.to_path_buf(),
        detail: detail.to_string(),
    };
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    let mut c = Cursor::new(&buf);

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
    let flags = take!(c.u8(), "flags");
    let map = if flags & 1 != 0 {
        let shards = take!(c.u32(), "shard count") as usize;
        if shards == 0 || shards > 1 << 16 {
            return Err(corrupt("implausible shard count"));
        }
        let halo = take!(c.f64(), "halo");
        let guard = take!(c.f64(), "guard");
        let mut regions = Vec::with_capacity(shards);
        for _ in 0..shards {
            let min_x = take!(c.f64(), "region");
            let min_y = take!(c.f64(), "region");
            let max_x = take!(c.f64(), "region");
            let max_y = take!(c.f64(), "region");
            regions.push(Rect {
                min: Point::new(min_x, min_y),
                max: Point::new(max_x, max_y),
            });
        }
        Some(
            ShardMap::from_parts(regions, halo, guard)
                .map_err(|e| corrupt(&format!("invalid shard map: {e}")))?,
        )
    } else {
        None
    };
    if n > 1 << 30 {
        return Err(corrupt("implausible vertex count"));
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

    // Frames → adjacency rows → CSR.
    let mut adjacency: Vec<Option<(u32, Vec<VertexId>)>> = vec![None; n];
    for _ in 0..frame_count {
        let shard = take!(c.u32(), "frame shard");
        let len = take!(c.u32(), "frame length") as usize;
        let frame_crc = take!(c.u32(), "frame checksum");
        if c.remaining() < len {
            return Err(corrupt("truncated frame payload"));
        }
        let start = buf.len() - c.remaining();
        let payload = &buf[start..start + len];
        if crc32(payload) != frame_crc {
            return Err(corrupt("frame checksum mismatch"));
        }
        let mut fc = Cursor::new(payload);
        let rows = take!(fc.u32(), "row count") as usize;
        for _ in 0..rows {
            let v = take!(fc.u32(), "row vertex") as usize;
            let deg = take!(fc.u32(), "row degree") as usize;
            if v >= n {
                return Err(corrupt("row vertex out of range"));
            }
            if adjacency[v].is_some() {
                return Err(corrupt("vertex appears in two frames"));
            }
            let mut neighbors = Vec::with_capacity(deg);
            for _ in 0..deg {
                neighbors.push(take!(fc.u32(), "neighbor"));
            }
            adjacency[v] = Some((shard, neighbors));
        }
        if fc.remaining() != 0 {
            return Err(corrupt("trailing bytes in frame"));
        }
        // Advance the outer cursor past the payload we just parsed.
        take!(c.skip(len), "frame payload");
    }
    if c.remaining() != 0 {
        return Err(corrupt("trailing bytes after last frame"));
    }

    let mut offsets = Vec::with_capacity(n + 1);
    let mut neighbors = Vec::new();
    offsets.push(0u64);
    for (v, slot) in adjacency.iter().enumerate() {
        let Some((_, adj)) = slot else {
            return Err(corrupt(&format!("vertex {v} missing from all frames")));
        };
        neighbors.extend_from_slice(adj);
        offsets.push(neighbors.len() as u64);
    }
    let graph = Graph::try_from_csr(offsets, neighbors)
        .map_err(|e| corrupt(&format!("invalid adjacency: {e}")))?;
    Ok(SnapshotImage {
        epoch,
        positions,
        core_numbers,
        graph,
        map,
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
    fn unsharded_roundtrip_is_bit_identical() {
        let dir = temp_dir("flat");
        let (graph, positions, cores) = sample();
        let frames = encode_frames(&graph, &positions, None);
        assert_eq!(frames.len(), 1);
        write_snapshot(&dir, 7, &positions, &cores, None, &frames).unwrap();
        let (epoch, path) = latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(epoch, 7);
        let image = read_snapshot(&path).unwrap();
        assert_eq!(image.epoch, 7);
        assert_eq!(image.core_numbers, cores);
        assert!(image.map.is_none());
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

    #[test]
    fn sharded_roundtrip_restores_partition() {
        let dir = temp_dir("sharded");
        let (graph, positions, cores) = sample();
        let map = ShardMap::build(&positions, 3, 0.1).unwrap();
        let frames = encode_frames(&graph, &positions, Some(&map));
        assert_eq!(frames.len(), map.num_shards());
        write_snapshot(&dir, 9, &positions, &cores, Some(&map), &frames).unwrap();
        let (_, path) = latest_snapshot(&dir).unwrap().unwrap();
        let image = read_snapshot(&path).unwrap();
        let back = image.map.expect("map restored");
        assert_eq!(back.num_shards(), map.num_shards());
        assert_eq!(back.halo().to_bits(), map.halo().to_bits());
        for p in &positions {
            assert_eq!(back.shard_of(*p), map.shard_of(*p));
        }
        for v in 0..6 {
            assert_eq!(image.graph.neighbors(v), graph.neighbors(v));
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// The frame payloads and snapshot files of a fixed fixture, as
    /// `(len, crc32)` fingerprints, stay byte-identical: the on-disk format
    /// is pinned, not just round-trippable.
    #[test]
    fn encoding_is_pinned_byte_for_byte() {
        let (graph, positions, cores) = sample();
        let map = ShardMap::build(&positions, 3, 0.1).unwrap();
        // (map, per-frame (shard, len, crc), whole-file (len, crc))
        type Case<'a> = (Option<&'a ShardMap>, &'a [(u32, usize, u32)], (usize, u32));
        let cases: [Case; 2] = [
            (None, &[(0, 100, 1762280136)], (261, 0xfccd8868)),
            (
                Some(&map),
                &[
                    (0, 56, 1750280868),
                    (1, 20, 1644567180),
                    (2, 32, 4038594758),
                ],
                (409, 0xa977c81e),
            ),
        ];
        for (map, frame_prints, file_print) in cases {
            let frames = encode_frames(&graph, &positions, map);
            let got: Vec<(u32, usize, u32)> = frames
                .iter()
                .map(|f| (f.shard, f.payload.len(), crc32(&f.payload)))
                .collect();
            assert_eq!(got, frame_prints);
            let dir = temp_dir("pinned");
            write_snapshot(&dir, 11, &positions, &cores, map, &frames).unwrap();
            let file = fs::read(latest_snapshot(&dir).unwrap().unwrap().1).unwrap();
            assert_eq!((file.len(), crc32(&file)), file_print);
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn corruption_is_detected() {
        let dir = temp_dir("corrupt");
        let (graph, positions, cores) = sample();
        let frames = encode_frames(&graph, &positions, None);
        write_snapshot(&dir, 3, &positions, &cores, None, &frames).unwrap();
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

    #[test]
    fn snapshot_retention() {
        let dir = temp_dir("retain");
        let (graph, positions, cores) = sample();
        let frames = encode_frames(&graph, &positions, None);
        for epoch in [2u64, 5, 9] {
            write_snapshot(&dir, epoch, &positions, &cores, None, &frames).unwrap();
        }
        assert_eq!(latest_snapshot(&dir).unwrap().unwrap().0, 9);
        assert_eq!(remove_snapshots_below(&dir, 9).unwrap(), 2);
        assert_eq!(list_snapshots(&dir).unwrap().len(), 1);
        fs::remove_dir_all(&dir).ok();
    }
}
