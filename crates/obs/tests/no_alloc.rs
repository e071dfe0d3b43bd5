//! An emit allocates nothing: disabled, it also records nothing; enabled,
//! once the thread's first emit has taken its ring, it writes into that
//! ring and allocates nothing either.
//!
//! This is a separate integration-test binary so its counting global
//! allocator and its reliance on the tracer's global state can't race
//! with the unit tests that toggle tracing. Both checks run in one test
//! function, disabled first, because the tracer is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use smc_obs::trace::{self, Event, Label};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Thread whose allocations are counted; 0 = everyone. The libtest harness
/// keeps its own threads alive (stdout capture, timers) and they allocate
/// at unpredictable points — counting them made this test flaky.
static COUNTED_THREAD: AtomicU64 = AtomicU64::new(0);

fn thread_id() -> u64 {
    // Stable per-thread integer without allocating: the address of a
    // thread-local is unique per live thread.
    thread_local! { static MARKER: u8 = const { 0 }; }
    MARKER.with(|m| m as *const u8 as u64)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let counted = COUNTED_THREAD.load(Ordering::Relaxed);
        if counted == 0 || counted == thread_id() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations on the counted thread while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// 10 000 rounds of three events of different shapes.
fn emit_rounds() {
    for i in 0..10_000u64 {
        trace::emit(Event::MorselDispatch {
            worker: 1,
            morsel: i,
        });
        trace::emit(Event::FailpointTrip {
            site: Label::new("block-alloc"),
        });
        trace::emit(Event::GcPauseEnd {
            major: true,
            nanos: i,
            traced: i,
            swept: i,
        });
    }
}

#[test]
fn emit_allocates_nothing_disabled_or_enabled() {
    assert!(!trace::is_enabled(), "tracer must start disabled");

    // Warm anything lazily initialised outside the measured window, then
    // restrict counting to this thread (see `COUNTED_THREAD`).
    trace::emit(Event::EpochAdvance { epoch: 0 });
    COUNTED_THREAD.store(thread_id(), Ordering::Relaxed);

    let allocations = allocations_in(emit_rounds);
    assert_eq!(
        allocations, 0,
        "disabled emit must not allocate (saw {allocations} allocations)"
    );

    // And nothing was recorded: the snapshot contains no events at all,
    // because this process never enabled tracing.
    assert!(
        trace::snapshot().is_empty(),
        "disabled emit must not record events"
    );
    assert_eq!(trace::dropped(), 0);

    // Enabled: the first emit takes this thread's ring (and may allocate
    // it); every emit after it is a write into that ring.
    trace::enable();
    trace::emit(Event::EpochAdvance { epoch: 1 });
    let allocations = allocations_in(emit_rounds);
    trace::disable();
    assert_eq!(
        allocations, 0,
        "enabled emit must not allocate (saw {allocations} allocations)"
    );
    assert!(trace::dropped() > 0, "the rounds wrapped the ring");
}
