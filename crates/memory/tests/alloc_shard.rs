//! Integration tests for what a thread slot owns — its allocation shard and
//! its cell of per-object counters: concurrent alloc/free churn where every
//! free crosses threads and stays with the freeing thread, exact
//! post-quiesce reconciliation of free-list accounting through
//! `Runtime::verify`, and per-thread counter cells that sum to exact totals.

use std::sync::{mpsc, Arc, Barrier};

use smc_memory::block::type_id_of;
use smc_memory::{BlockLayout, ContextConfig, MemoryContext, MemoryStats, Runtime};

const THREADS: usize = 4;

fn layout() -> BlockLayout {
    BlockLayout::rows_of::<u64>().unwrap()
}

/// Four threads in a ring: each allocates blocks and hands them to its
/// neighbour, which frees them. Every free is a cross-thread free (the
/// freeing thread never allocated the block), and each freed block stays in
/// the freeing thread's own cache or goes back to the OS. Afterwards the books
/// must balance: zero live handouts, every held block parked in a shard
/// cache, and `Runtime::verify` reconciling exactly.
#[test]
fn cross_thread_free_ring_reconciles_exactly() {
    let rt = Runtime::new();
    let iters = 200usize;
    let barrier = Arc::new(Barrier::new(THREADS));
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..THREADS).map(|_| mpsc::channel()).unzip();
    std::thread::scope(|s| {
        let mut rxs = rxs.into_iter();
        for i in 0..THREADS {
            let tx = txs[(i + 1) % THREADS].clone();
            let rx = rxs.next().unwrap();
            let rt = rt.clone();
            let barrier = barrier.clone();
            s.spawn(move || {
                barrier.wait();
                for _ in 0..iters {
                    let b = rt
                        .allocate_block(&layout(), type_id_of::<u64>(), i as u64 + 1)
                        .unwrap();
                    tx.send(b).unwrap();
                }
                drop(tx);
                // Block until the left neighbour's sender closes: frees every
                // block it ever produced.
                while let Ok(other) = rx.recv() {
                    rt.free_block(other);
                }
            });
        }
        drop(txs);
    });
    assert_eq!(MemoryStats::get(&rt.stats.blocks_live), 0);
    assert_eq!(
        MemoryStats::get(&rt.stats.blocks_allocated),
        (THREADS * iters) as u64
    );
    assert_eq!(
        MemoryStats::get(&rt.stats.blocks_freed),
        (THREADS * iters) as u64
    );
    rt.verify()
        .unwrap_or_else(|v| panic!("post-quiesce verify: {v:?}"));
    let snap = rt.alloc_snapshot();
    assert_eq!(snap.budgeted_blocks, snap.cached_blocks);
    assert!(
        snap.blocks_recycled > 0,
        "churn at this rate must hit the recycling fast path"
    );
    assert!(
        MemoryStats::get(&rt.stats.remote_frees) > 0,
        "ring frees must cross owners"
    );
}

/// Thread A allocates a block and thread B frees it while A still holds its
/// slot. The freed block stays with B: B's next allocation is served from
/// its own cache (counted in `blocks_recycled`) and maps no fresh batch
/// (`alloc_batch_refills` holds).
#[test]
fn a_block_freed_by_another_thread_serves_the_freers_next_allocation() {
    let rt = Runtime::new();
    let alloc = |rt: &Runtime| {
        rt.allocate_block(&layout(), type_id_of::<u64>(), 1)
            .unwrap()
    };
    let (tx, rx) = mpsc::channel();
    let b_done = Barrier::new(2);
    let (recycled, refills) = std::thread::scope(|s| {
        s.spawn(|| {
            tx.send(alloc(&rt)).unwrap();
            // Keep A's slot held until B is done, so B cannot inherit it.
            b_done.wait();
        });
        let (rt, b_done) = (&rt, &b_done);
        let b = s.spawn(move || {
            let counts = || {
                (
                    MemoryStats::get(&rt.stats.blocks_recycled),
                    MemoryStats::get(&rt.stats.alloc_batch_refills),
                )
            };
            rt.free_block(rx.recv().unwrap());
            let before = counts();
            let next = alloc(rt);
            let after = counts();
            rt.free_block(next);
            b_done.wait();
            (after.0 - before.0, after.1 - before.1)
        });
        b.join().unwrap()
    });
    assert_eq!(
        recycled, 1,
        "the freer's next allocation must come from its own cache"
    );
    assert_eq!(refills, 0, "the freer must not map a fresh batch");
    assert_eq!(MemoryStats::get(&rt.stats.remote_frees), 1);
    rt.verify()
        .unwrap_or_else(|v| panic!("post-quiesce verify: {v:?}"));
}

/// Four threads add, pin and remove against one context, each bumping only
/// its own slot's counter cell with plain loads and stores. Nothing may be
/// lost: the summed cells equal the exact operation counts, and the
/// validator's `indirection live entries == live objects` clause — which
/// reads the same sums — holds.
#[test]
fn per_thread_counter_cells_sum_to_exact_totals() {
    const OPS: u64 = 50_000;
    let rt = Runtime::new();
    let ctx = MemoryContext::new_rows(
        rt.clone(),
        8,
        8,
        type_id_of::<u64>(),
        ContextConfig::default(),
    )
    .unwrap();
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                barrier.wait();
                for i in 0..OPS {
                    let a = ctx
                        .alloc_with(|b, slot| unsafe { b.obj_ptr(slot).cast::<u64>().write(i) })
                        .unwrap();
                    drop(rt.pin());
                    // Every second object goes again; `free` pins once.
                    if i % 2 == 1 {
                        assert!(ctx.free(a.entry, a.entry_inc));
                    }
                }
            });
        }
    });
    let threads = THREADS as u64;
    let snap = rt.stats.snapshot();
    assert_eq!(snap.objects_allocated, threads * OPS);
    assert_eq!(snap.objects_freed, threads * OPS / 2);
    assert_eq!(snap.pins_taken, threads * (OPS + OPS / 2));
    assert!(snap.alloc_scan_steps >= snap.objects_allocated);
    assert_eq!(
        rt.stats.hot(|cell| &cell.pins_taken),
        snap.pins_taken,
        "one accessor, same sum"
    );
    assert_eq!(ctx.live_objects(), threads * OPS / 2);
    rt.verify()
        .unwrap_or_else(|v| panic!("post-quiesce verify: {v:?}"));
}

/// A thread that exits leaves its counts in its slot's cell; the next thread
/// to claim the slot continues from them (the registry's release/acquire on
/// the claim flag hands the cell over), so a sum never steps back.
#[test]
fn a_reused_thread_slot_keeps_the_sum_monotonic() {
    let rt = Runtime::new();
    let mut slots = Vec::new();
    for round in 1..=3u64 {
        let rt2 = rt.clone();
        let slot = std::thread::spawn(move || {
            for _ in 0..1_000 {
                drop(rt2.pin());
            }
            rt2.thread_slot().unwrap().index()
        })
        .join()
        .unwrap();
        slots.push(slot);
        assert_eq!(rt.stats.hot(|cell| &cell.pins_taken), round * 1_000);
    }
    assert_eq!(
        slots, [slots[0]; 3],
        "each thread reused the exited one's slot"
    );
}
