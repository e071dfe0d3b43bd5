//! The block source's footprint in the kernel's mapping table. One test, in
//! a binary of its own: `/proc/self/maps` is process-wide, and a sibling
//! test mapping blocks or spawning threads meanwhile would move the count.
#![cfg(target_os = "linux")]

use smc_memory::block::type_id_of;
use smc_memory::{BlockLayout, MemoryStats, Runtime};

fn mapped_regions() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("procfs")
        .lines()
        .count()
}

/// Every batch is its own `mmap`, yet 1 024 blocks (256 batches) must cost
/// only a handful of kernel regions: batches are 64 KiB multiples placed back
/// to back, so their VMAs merge. This is the `vm.max_map_count` guard — a
/// block source that cost a region per batch would run a large heap into
/// that ceiling (65 530 by default). Dropping the runtime must give every
/// region back.
#[test]
fn a_thousand_blocks_cost_a_handful_of_kernel_regions() {
    let layout = BlockLayout::rows_of::<u64>().unwrap();
    let mut blocks = Vec::with_capacity(1024);
    let before = mapped_regions();
    let rt = Runtime::new();
    for _ in 0..1024 {
        blocks.push(
            rt.allocate_block(&layout, type_id_of::<u64>(), 1)
                .expect("an unbudgeted runtime allocates"),
        );
    }
    assert_eq!(MemoryStats::get(&rt.stats.alloc_batch_refills), 256);
    let held = mapped_regions();
    assert!(
        held <= before + 8,
        "1 024 blocks took {} regions ({before} -> {held})",
        held - before
    );
    // Free a checkerboard first, so members of one batch really are
    // unmapped independently, then the rest.
    for half in 0..2 {
        for block in blocks.iter().skip(half).step_by(2) {
            rt.free_block(*block);
        }
    }
    rt.verify().unwrap();
    drop(rt);
    let after = mapped_regions();
    assert!(
        after.abs_diff(before) <= 2,
        "regions before {before}, after {after}"
    );
}
