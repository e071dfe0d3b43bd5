//! Integration tests for the sharded block allocator: concurrent alloc/free
//! churn with remote frees crossing shard owners, budget breaches on the
//! batched slow path, and exact post-quiesce reconciliation of free-list
//! accounting through `Runtime::verify`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};

use smc_memory::block::type_id_of;
use smc_memory::{BlockLayout, MemError, MemoryStats, Runtime, BLOCK_SIZE};

const THREADS: usize = 4;

fn layout() -> BlockLayout {
    BlockLayout::rows_of::<u64>().unwrap()
}

/// Four threads in a ring: each allocates blocks and hands them to its
/// neighbour, which frees them. Every free is a *remote* free (the freeing
/// thread never owns the block), exercising the MPSC return queues from all
/// sides at once. Afterwards every block must come home: zero live handouts,
/// all budget either parked in shard caches or returned to the OS, and
/// `Runtime::verify` reconciling exactly.
#[test]
fn remote_free_ring_reconciles_exactly() {
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
    assert!(
        snap.remote_frees_drained > 0,
        "owners must have drained their MPSC return queues"
    );
}

/// A breached budget on the batched slow path must surface
/// `MemError::OutOfMemory` from every contender — never a panic — and must
/// not corrupt the books: after the survivors free their blocks, verify
/// reconciles and the budget is respected again.
#[test]
fn budget_breach_under_contention_is_an_error_never_a_panic() {
    let budget_blocks = 3u64;
    let rt = Runtime::with_budget(Some(budget_blocks * BLOCK_SIZE as u64));
    let barrier = Arc::new(Barrier::new(THREADS));
    let oom = AtomicU64::new(0);
    let won = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for i in 0..THREADS {
            let rt = rt.clone();
            let barrier = barrier.clone();
            let oom = &oom;
            let won = &won;
            s.spawn(move || {
                barrier.wait();
                for _ in 0..8 {
                    match rt.allocate_block(&layout(), type_id_of::<u64>(), i as u64 + 1) {
                        Ok(b) => won.lock().unwrap().push(b),
                        Err(MemError::OutOfMemory) => {
                            oom.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected error: {e:?}"),
                    }
                }
            });
        }
    });
    let winners = won.into_inner().unwrap();
    // No frees happen during the race, so the budget hard-caps the winners;
    // the first reserve always grants at least one.
    assert!(
        !winners.is_empty() && winners.len() as u64 <= budget_blocks,
        "won {} of a {budget_blocks}-block budget",
        winners.len()
    );
    assert_eq!(
        MemoryStats::get(&rt.stats.blocks_live),
        winners.len() as u64
    );
    assert!(oom.load(Ordering::Relaxed) > 0);
    assert!(
        rt.alloc_snapshot().budgeted_blocks * (BLOCK_SIZE as u64)
            <= budget_blocks * BLOCK_SIZE as u64,
        "contended slow path never over-reserves"
    );
    for b in winners {
        rt.free_block(b);
    }
    rt.verify()
        .unwrap_or_else(|v| panic!("post-quiesce verify: {v:?}"));
    // The freed budget is usable again (possibly via the trim rung when the
    // frees parked on other threads' shards).
    let again = rt
        .allocate_block(&layout(), type_id_of::<u64>(), 9)
        .expect("freed budget must be allocatable");
    rt.free_block(again);
    rt.verify().unwrap();
}
