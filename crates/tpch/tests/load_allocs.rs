//! `SmcDb::load` makes no heap allocation per row: the generator writes
//! each row's strings into the row itself, and the loader copies fields
//! into off-heap slots. What a load still allocates — the runtime, the
//! key-to-`Ref` vectors, block bookkeeping — grows with the number of
//! blocks and vectors, not with the number of rows, so doubling the scale
//! factor adds a handful of allocations, not one per row.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tpch::smcdb::SmcDb;
use tpch::Generator;

/// The system allocator, counting the calling thread's allocations
/// (reallocations included).
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Heap allocations one `SmcDb::load(.., true)` makes at `sf`.
fn allocs_to_load(sf: f64) -> u64 {
    let gen = Generator::new(sf);
    let before = ALLOCS.with(Cell::get);
    let db = SmcDb::load(&gen, true);
    let allocs = ALLOCS.with(Cell::get) - before;
    drop(db);
    allocs
}

#[test]
fn doubling_the_scale_factor_adds_no_allocation_per_row() {
    let small = allocs_to_load(0.01);
    let large = allocs_to_load(0.02);
    println!("allocations to load: SF 0.01 {small}, SF 0.02 {large}");
    assert!(
        large.saturating_sub(small) < 100,
        "SF 0.01 took {small} allocations and SF 0.02 {large}: \
         {} more for ~{} more lineitems",
        large - small,
        Generator::new(0.01).cardinalities().orders * 4,
    );
}
