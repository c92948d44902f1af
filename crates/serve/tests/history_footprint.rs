//! The heap a finished job keeps in the daemon's verdict history.
//!
//! Every verdict stays in the history until `history_limit` evicts it, so
//! the bytes one record keeps scale with a campaign's length. Repeated
//! submissions of one cell must share one stored request: a record keeps
//! its ids, outcome and counters, not another copy of the request.
//!
//! This binary counts live heap bytes with its own global allocator, so
//! it holds one test: a second one would allocate on another thread
//! while this one measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use muml_core::{IntegrationReport, IntegrationStats, IntegrationVerdict};
use muml_fleet::{JobContext, JobRegistry, JobRequest};
use muml_serve::{Daemon, Priority, ServeConfig};

/// Live heap bytes: requested sizes of every allocation not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counter only reads sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator, that is by
        // `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller upholds `realloc`'s contract for `new_size`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One RailCab-like cell, repeated: every job has this shape, and only the
/// request id differs.
fn cell(id: usize) -> JobRequest {
    JobRequest::new(id, "faulty/drop[x]")
        .with_scenario("footprint")
        .with_pattern("DistanceCoordination")
        .with_variant("faulty")
        .with_fault("drop[x]")
        .with_max_iterations(64)
        .with_deadline(Duration::from_secs(60))
}

fn registry() -> JobRegistry {
    let mut registry = JobRegistry::new();
    registry.register("footprint", |_| {
        Ok(Box::new(|_: &JobContext| {
            Ok(IntegrationReport {
                verdict: IntegrationVerdict::Proven,
                iterations: Vec::new(),
                learned: Vec::new(),
                stats: IntegrationStats::default(),
            })
        }))
    });
    registry
}

/// Heap bytes a daemon still holds after it finished `jobs` submissions of
/// one shape and its workers exited, so that no job's working memory is
/// left to count.
fn retained(jobs: usize) -> usize {
    let before = LIVE.load(Ordering::SeqCst);
    let config = ServeConfig::default()
        .with_workers(1)
        .with_history_limit(1 << 30);
    let daemon = Daemon::start(config, registry());
    for id in 0..jobs {
        let job = daemon.submit(1, &cell(id), Priority::Normal).unwrap();
        assert_eq!(daemon.wait(job).unwrap().outcome, "proven");
    }
    daemon.shutdown();
    daemon.join();
    let kept = LIVE.load(Ordering::SeqCst) - before;
    drop(daemon);
    kept
}

#[test]
fn a_repeated_cell_keeps_a_compact_verdict() {
    // Both counts lie where the job table holds 1,024 buckets and the
    // history deque 1,024 slots, so the difference is the records alone.
    const FEW: usize = 600;
    const MANY: usize = 880;
    // First-use allocations of the runtime land in this warm-up.
    retained(FEW);
    let few = retained(FEW);
    let many = retained(MANY);
    let per_verdict = (many - few) as f64 / (MANY - FEW) as f64;
    // A stored request is 184 bytes inline plus its strings; a record
    // that copies one needs over 300 bytes.
    assert!(
        per_verdict <= 192.0,
        "a finished job keeps {per_verdict:.1} heap bytes ({few} B after {FEW} jobs, {many} B after {MANY})"
    );
}
