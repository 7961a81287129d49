//! Allocation bounds of the replication decoders: a replica runs
//! `ReplFrame::read_from` and `DeltaRecord::decode_payload` on every frame a
//! primary ships, so a hostile or corrupted length field must not make
//! either one reserve memory the bytes present cannot back.
//!
//! A counting global allocator records the largest single allocation the
//! current thread makes while one decoder runs on one input.

use sac_proto::replication::{ReplFrame, REPL_FRAME_HEARTBEAT, REPL_FRAME_RECORD};
use sac_wal::DeltaRecord;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::ErrorKind;

/// The largest single allocation any hostile input below may cause.
const MAX_ALLOCATION: usize = 64 << 10;

/// Records every allocation size; the trait's default `alloc_zeroed` and
/// `realloc` go through `alloc`, so they are recorded too.
struct PeakAllocator;

thread_local! {
    /// Largest allocation on this thread since the last
    /// [`largest_allocation`] reset.
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = PEAK.try_with(|peak| peak.set(peak.get().max(size)));
}

// SAFETY: both methods forward the caller's own arguments to `System`,
// which upholds the `GlobalAlloc` contract; `note` only updates a
// const-initialised thread-local and never allocates.
unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: PeakAllocator = PeakAllocator;

/// Runs `f` and returns its result with the largest single allocation it
/// made on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|peak| peak.set(0));
    let out = f();
    (out, PEAK.with(Cell::get))
}

#[test]
fn delta_payload_with_a_huge_op_count_reserves_only_what_fits() {
    // epoch, term, then an op count of u32::MAX and no ops: 20 bytes.
    let mut payload = Vec::new();
    payload.extend_from_slice(&7u64.to_le_bytes());
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    let (result, peak) = largest_allocation(|| DeltaRecord::decode_payload(&payload, 0, 0));
    assert!(result.is_err(), "a truncated op list must not decode");
    assert!(
        peak <= MAX_ALLOCATION,
        "decoding 20 bytes allocated {peak} B"
    );
}

#[test]
fn record_frame_claiming_a_large_payload_allocates_with_the_bytes_received() {
    // kind, segment, end offset, len = 2^28, crc, then EOF: 25 bytes.
    let mut frame = vec![REPL_FRAME_RECORD];
    frame.extend_from_slice(&3u64.to_le_bytes());
    frame.extend_from_slice(&4096u64.to_le_bytes());
    frame.extend_from_slice(&(1u32 << 28).to_le_bytes());
    frame.extend_from_slice(&0u32.to_le_bytes());
    assert_eq!(frame.len(), 25);
    let (result, peak) = largest_allocation(|| ReplFrame::read_from(&mut frame.as_slice()));
    let err = result.expect_err("a frame cut off after its header must not decode");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    assert!(
        peak <= MAX_ALLOCATION,
        "reading 25 bytes allocated {peak} B"
    );
}

#[test]
fn heartbeat_claiming_a_full_roster_allocates_with_the_bytes_received() {
    // kind, epoch, segment, offset, term, lease, roster count = u16::MAX,
    // then EOF: 43 bytes.
    let mut frame = vec![REPL_FRAME_HEARTBEAT];
    for field in [5u64, 1, 64, 2, 3000] {
        frame.extend_from_slice(&field.to_le_bytes());
    }
    frame.extend_from_slice(&u16::MAX.to_le_bytes());
    let (result, peak) = largest_allocation(|| ReplFrame::read_from(&mut frame.as_slice()));
    let err = result.expect_err("a roster cut off after its count must not decode");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    assert!(
        peak <= MAX_ALLOCATION,
        "reading 43 bytes allocated {peak} B"
    );
}
