//! Crash-recovery property suite: for a WAL-backed live engine,
//! [`sac_live::LiveEngine::recover`] must rebuild a state **bit-identical**
//! to the pre-crash epoch — core numbers, positions and query answers — no
//! matter where the crash lands:
//!
//! * exactly on a record boundary (the durable prefix of commits),
//! * mid-record (a torn tail, truncated on open and resolved to the last
//!   complete record),
//! * after a clean shutdown (the marker vouches for the tail, so recovery
//!   replays everything and reports `clean_shutdown`).
//!
//! A flipped byte inside a *complete* record is never survivable: it must be
//! a hard error, not a silent rollback.

mod common;

use common::{apply_op, durability, fingerprint, spatial, N};
use proptest::collection::vec;
use proptest::prelude::*;
use sac_engine::{EngineConfig, SacEngine};
use sac_live::LiveEngine;
use sac_wal::WalError;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sac-wal-recovery-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Crash simulation at every record boundary plus torn mid-record
    /// offsets: recovery lands exactly on the durable prefix's state.
    #[test]
    fn crash_at_every_record_boundary_recovers_bit_identical(
        initial in vec((0u32..N, 0u32..N), 20usize..60),
        stream in vec((0u32..N, 0u32..N, 0u32..10), 12usize..30),
        commit_every in 2usize..5,
    ) {
        let dir = temp_dir("prop");
        let graph = spatial(&initial, N);
        let engine = Arc::new(SacEngine::new(graph));
        let live = LiveEngine::with_durability(Arc::clone(&engine), durability(&dir)).unwrap();

        // `states[j]` = the expected post-recovery state when the log holds
        // exactly `j` records (`states[0]` is the base checkpoint's state).
        let mut states = vec![fingerprint(&engine)];
        for (i, &(u, v, op)) in stream.iter().enumerate() {
            apply_op(&live, u, v, op);
            if (i + 1) % commit_every == 0 && live.pending() > 0 {
                live.commit().unwrap();
                states.push(fingerprint(&engine));
            }
        }
        if live.pending() > 0 {
            live.commit().unwrap();
            states.push(fingerprint(&engine));
        }

        // No clean marker was written: this is the crashed directory.
        let log = sac_wal::read_log(&dir, true).unwrap();
        prop_assert_eq!(log.truncated_bytes, 0);
        prop_assert_eq!(log.records.len() + 1, states.len(), "one record per publish");

        // Crash with an empty log (right after the base checkpoint)...
        let scratch = temp_dir("cut");
        for (j, expected) in states.iter().enumerate() {
            let _ = std::fs::remove_dir_all(&scratch);
            copy_dir(&dir, &scratch);
            // ...and after each record boundary: keep the first j records.
            let (seg, cut) = if j == 0 {
                (*log.segments.last().unwrap(), 0)
            } else {
                log.boundaries[j - 1]
            };
            let path = sac_wal::segment_path(&scratch, seg);
            let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            file.set_len(cut).unwrap();
            drop(file);

            let (recovered, report) =
                LiveEngine::recover(durability(&scratch), EngineConfig::default()).unwrap();
            prop_assert!(!report.clean_shutdown);
            prop_assert_eq!(report.records_replayed as usize, j);
            let got = fingerprint(recovered.engine());
            prop_assert_eq!(&got, expected, "crash after record {}", j);
        }

        // Torn tails: cut mid-record (1 and 5 bytes past the previous
        // boundary, and 1 byte short of the full record) — the partial
        // record is truncated and the state rolls back to the boundary.
        if let Some(&(seg, end)) = log.boundaries.last() {
            let prev = if log.boundaries.len() >= 2 {
                log.boundaries[log.boundaries.len() - 2].1
            } else {
                0
            };
            for cut in [prev + 1, prev + 5, end - 1] {
                if cut <= prev || cut >= end {
                    continue;
                }
                let _ = std::fs::remove_dir_all(&scratch);
                copy_dir(&dir, &scratch);
                let path = sac_wal::segment_path(&scratch, seg);
                let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
                file.set_len(cut).unwrap();
                drop(file);
                let (recovered, report) =
                    LiveEngine::recover(durability(&scratch), EngineConfig::default()).unwrap();
                prop_assert!(report.truncated_bytes > 0, "cut at {} is mid-record", cut);
                prop_assert_eq!(report.records_replayed as usize, states.len() - 2);
                let got = fingerprint(recovered.engine());
                prop_assert_eq!(&got, &states[states.len() - 2], "torn cut at {}", cut);
            }
        }

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&scratch);
    }
}

/// Mixed update/commit/move stream with a mid-stream checkpoint: a
/// recovered engine answers every query exactly like the still-running
/// original.
#[test]
fn recovery_matches_live_after_mixed_stream_and_checkpoint() {
    let dir = temp_dir("mixed");
    let initial: Vec<(u32, u32)> = (0..N).map(|v| (v, (v + 4) % N)).collect();
    let graph = spatial(&initial, N);
    let engine = Arc::new(SacEngine::new(graph));
    let live = LiveEngine::with_durability(Arc::clone(&engine), durability(&dir)).unwrap();

    let stream: [(u32, u32, u32); 12] = [
        (1, 2, 0),
        (2, 3, 0),
        (5, 9, 7),
        (3, 4, 0),
        (0, 0, 8),
        (1, 3, 0),
        (7, 8, 7),
        (2, 4, 0),
        (9, 14, 0),
        (0, 0, 8),
        (6, 11, 0),
        (12, 13, 7),
    ];
    for (i, &(u, v, op)) in stream.iter().enumerate() {
        apply_op(&live, u, v, op);
        if (i + 1) % 3 == 0 {
            live.commit().unwrap();
        }
        if i + 1 == 6 {
            // Mid-stream checkpoint: older segments are gone, later records
            // replay on top of the new snapshot.
            let report = live.checkpoint().unwrap();
            assert_eq!(report.epoch, engine.epoch());
        }
    }

    // Crash (no clean marker): recover and compare against the original.
    let (recovered, report) =
        LiveEngine::recover(durability(&dir), EngineConfig::default()).unwrap();
    assert!(!report.clean_shutdown);
    assert!(
        report.snapshot_epoch > 1,
        "recovery starts at the checkpoint"
    );
    assert_eq!(recovered.engine().epoch(), engine.epoch());
    assert_eq!(
        fingerprint(recovered.engine()),
        fingerprint(&engine),
        "recovered state must be bit-identical to the live engine"
    );
    // Both fronts keep working and agree on the next commit's epoch.
    recovered.add_edge(0, 16).unwrap();
    live.add_edge(0, 16).unwrap();
    assert_eq!(
        recovered.commit().unwrap().epoch,
        live.commit().unwrap().epoch
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flipped byte inside a complete record is detected as corruption — a
/// hard error, never a silent rollback.
#[test]
fn flipped_byte_is_a_hard_recovery_error() {
    let dir = temp_dir("flip");
    let graph = spatial(&[(0, 1), (1, 2), (2, 0)], N);
    let engine = Arc::new(SacEngine::new(graph));
    let live = LiveEngine::with_durability(Arc::clone(&engine), durability(&dir)).unwrap();
    for i in 0..4u32 {
        live.add_edge(i, i + 5).unwrap();
        live.commit().unwrap();
    }
    let log = sac_wal::read_log(&dir, true).unwrap();
    // Flip a payload byte of the FIRST record: a complete frame whose CRC
    // can no longer match (the last record's bytes are ambiguous with a torn
    // tail, the first record's never are).
    let (seg, _) = log.boundaries[0];
    let path = sac_wal::segment_path(&dir, seg);
    let mut bytes = std::fs::read(&path).unwrap();
    let at = sac_wal::FRAME_HEADER_BYTES + 2;
    bytes[at] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    let err = LiveEngine::recover(durability(&dir), EngineConfig::default());
    assert!(err.is_err(), "corruption must fail recovery");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A clean shutdown leaves the marker; boot reports it, replays the full
/// log in strict mode, and lands on the same state.
#[test]
fn clean_shutdown_marker_round_trips() {
    let dir = temp_dir("clean");
    let graph = spatial(&[(0, 1), (1, 2)], N);
    let engine = Arc::new(SacEngine::new(graph));
    let live = LiveEngine::with_durability(Arc::clone(&engine), durability(&dir)).unwrap();
    live.add_edge(3, 4).unwrap();
    live.commit().unwrap();
    assert!(live.shutdown_flush().unwrap());
    assert_eq!(sac_wal::read_clean_marker(&dir), Some(engine.epoch()));
    let expected = fingerprint(&engine);

    let (recovered, report) =
        LiveEngine::recover(durability(&dir), EngineConfig::default()).unwrap();
    assert!(report.clean_shutdown);
    assert_eq!(report.truncated_bytes, 0);
    assert_eq!(fingerprint(recovered.engine()), expected);
    // Reopening for appends consumed the marker: the next boot scans again.
    assert_eq!(sac_wal::read_clean_marker(&dir), None);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot that passes its CRC but stores core numbers its graph does
/// not have is refused: recovery peels the snapshot's graph once and every
/// later incremental repair would build on the stored numbers.
#[test]
fn recovery_refuses_a_snapshot_with_wrong_core_numbers() {
    let dir = temp_dir("cores");
    let graph = spatial(&[(0, 1), (1, 2), (2, 0)], N);
    let engine = Arc::new(SacEngine::new(graph));
    drop(LiveEngine::with_durability(Arc::clone(&engine), durability(&dir)).unwrap());
    let snapshot = engine.snapshot();
    let mut cores = engine.decomposition().core_numbers().to_vec();
    cores[0] += 1;
    sac_wal::write_snapshot(
        &dir,
        engine.epoch(),
        snapshot.graph(),
        snapshot.positions(),
        &cores,
    )
    .unwrap();
    let Err(err) = LiveEngine::recover(durability(&dir), EngineConfig::default()) else {
        panic!("recovery accepted core numbers its snapshot graph does not have");
    };
    assert!(
        matches!(err, WalError::SnapshotCorrupt { .. }),
        "expected a corrupt-snapshot error, got {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
