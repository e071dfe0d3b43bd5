//! Parallel morsel-driven scans ([`ParScan`], [`ParColumnarScan`]) and the
//! generic chunked fold used by the slice-shaped baseline backends.
//!
//! A scan's morsels are the units of the collection's [`Membership`]
//! snapshot: one per regular block, one per in-flight compaction group.
//! Workers claim unit indices from a shared atomic cursor (work stealing
//! degenerates to a single fetch-add over a shared queue, as in morsel-driven
//! execution engines), fold matches into thread-local accumulators, and the
//! coordinator merges the per-worker partials at the end. All three entry
//! points run the one claim loop, the private `run_workers`.
//!
//! # Why a scan is safe while `compact()` runs
//!
//! The coordinating thread pins its own guard *before* taking the membership
//! snapshot and holds it until every worker has finished. While any reader
//! sits pinned in epoch `e`, the global epoch can advance at most to
//! `e + 1`; a compaction announced after the snapshot must wait for its
//! relocation epoch plus one (`≥ e + 2`) before moving objects, so plain
//! blocks in the snapshot cannot have objects relocated out mid-scan.
//! Groups already in flight at snapshot time are each claimed by exactly
//! one worker, which opens the §5.2 reader
//! ([`CompactionGroup::read`](smc_memory::context::CompactionGroup::read)):
//! read the whole group pre-relocation under its query counter, or help
//! finish the move and read the post-state — either way every live object
//! of the group is visited exactly once.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use smc::{ColumnArrays, Columnar, Columns, Smc, Tabular};
use smc_memory::block::BlockRef;
use smc_memory::context::Membership;
use smc_memory::stats::MemoryStats;
use smc_memory::{MemError, Runtime};

use crate::pool::WorkerPool;

/// One worker's handle on the shared morsel cursor: yields the indices this
/// worker claims, counting and tracing each dispatch.
struct Claims<'a> {
    cursor: &'a AtomicUsize,
    morsels: usize,
    worker: u64,
    /// Counts `morsels_dispatched` for scans bound to a runtime.
    stats: Option<&'a MemoryStats>,
    claimed: u64,
}

impl Iterator for Claims<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= self.morsels {
            return None;
        }
        self.claimed += 1;
        if let Some(stats) = self.stats {
            MemoryStats::inc(&stats.morsels_dispatched);
        }
        smc_obs::trace::emit(smc_obs::Event::MorselDispatch {
            worker: self.worker,
            morsel: i as u64,
        });
        Some(i)
    }
}

/// The morsel claim loop behind every parallel scan: broadcasts `worker` to
/// the pool, hands each invocation its [`Claims`] on the shared cursor over
/// `0..morsels`, and returns the accumulators of the workers that ran.
fn run_workers<A: Send>(
    pool: &WorkerPool,
    morsels: usize,
    stats: Option<&MemoryStats>,
    worker: impl Fn(&mut Claims<'_>) -> A + Sync,
) -> Vec<A> {
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<A>>> = (0..pool.threads()).map(|_| Mutex::new(None)).collect();
    // Capture the dispatching thread's span context so each worker can
    // re-enter it: the request id crosses the pool boundary with the scan,
    // and every worker's share shows up as a `req.exec` span.
    let req = smc_obs::trace::current_request();
    pool.broadcast(|widx| {
        let _scope = req.map(smc_obs::trace::RequestScope::enter);
        let worker_start = smc_obs::clock::now();
        let mut claims = Claims {
            cursor: &cursor,
            morsels,
            worker: widx as u64,
            stats,
            claimed: 0,
        };
        let acc = worker(&mut claims);
        if let Some(id) = req.filter(|_| claims.claimed > 0) {
            let nanos = smc_obs::clock::now().saturating_sub(worker_start);
            smc_obs::trace::emit_stage(id, "exec", nanos);
        }
        *slots[widx].lock().unwrap_or_else(|e| e.into_inner()) = Some(acc);
    });
    slots
        .into_iter()
        .filter_map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
        .collect()
}

/// Fans a membership snapshot's units out to the pool. Each worker pins its
/// own guard and runs `block_body` on every block of the units it claims
/// (a group's blocks as its §5.2 reader yields them).
fn scan_units<A: Send>(
    pool: &WorkerPool,
    runtime: &Runtime,
    membership: &Membership,
    make: &(impl Fn() -> A + Sync),
    block_body: impl Fn(&mut A, BlockRef) + Sync,
) -> Vec<A> {
    let stats = &*runtime.stats;
    run_workers(pool, membership.units(), Some(stats), |claims| {
        let guard = runtime
            .try_pin()
            .expect("pool workers pre-register with the runtime");
        let mut acc = make();
        for unit in claims {
            membership.visit_unit(unit, &guard, stats, |block| {
                MemoryStats::inc(&stats.blocks_scanned);
                block_body(&mut acc, block);
            });
        }
        acc
    })
}

/// A parallel scan over an [`Smc`]: the fused scan→filter→fold loop of
/// `Smc::for_each`, with per-worker accumulators and a final merge step.
pub struct ParScan<'a, T: Tabular> {
    collection: &'a Smc<T>,
    pool: &'a WorkerPool,
}

impl<'a, T: Tabular + Sync> ParScan<'a, T> {
    /// Creates a scan running on `pool`'s workers.
    ///
    /// # Panics
    ///
    /// The pool must have been built with [`WorkerPool::for_runtime`] against
    /// the collection's runtime: workers pin epoch guards, so they must be
    /// registered with the right epoch manager.
    pub fn new(collection: &'a Smc<T>, pool: &'a WorkerPool) -> Self {
        let rt = pool
            .runtime()
            .expect("ParScan needs a runtime-bound pool (WorkerPool::for_runtime)");
        assert!(
            Arc::ptr_eq(rt, collection.runtime()),
            "worker pool is registered with a different runtime than the collection"
        );
        ParScan { collection, pool }
    }

    /// Runs the morsel loop, returning each worker's accumulator;
    /// [`MemError::SpillFault`] when a spilled page cannot be read back.
    fn partials<A>(
        &self,
        make: &(impl Fn() -> A + Sync),
        body: impl Fn(&mut A, &T) + Sync,
    ) -> Result<Vec<A>, MemError>
    where
        A: Send,
    {
        let runtime = self.collection.runtime();
        // Coordinator guard: pinned before the snapshot, held until every
        // worker is done (the safety argument in the module docs).
        let _coord = runtime.pin();
        // Spilled pages first, on the coordinating thread: they are the cold
        // tail, read sequentially from the page store. The membership
        // snapshot is taken with the page list (a page faulted in mid-scan
        // can't be seen twice or missed), and `body` runs with no lock
        // held. Resident units then fan out to the workers as usual.
        let mut spilled_acc = make();
        let membership = self.collection.context().scan_spilled_then_snapshot(
            &mut |_entry_addr, _inc, obj| {
                // SAFETY: the callback's pointer addresses size_of::<T>()
                // initialized bytes of a record this collection spilled.
                body(&mut spilled_acc, unsafe { &*obj.cast::<T>() });
            },
        )?;
        let mut partials = scan_units(self.pool, runtime, &membership, make, |acc, block| {
            block.valid_slots().for_each(|slot| {
                // SAFETY: valid slot, read inside the worker's pinned
                // critical section; the coordinator guard prevents
                // relocation out of snapshot blocks for the duration of the
                // scan (module docs).
                body(acc, unsafe { &*block.obj_ptr(slot).cast::<T>() });
            });
        });
        partials.push(spilled_acc);
        Ok(partials)
    }

    /// Counts objects passing `pred` — parallel `filter_for_each` without a
    /// consumer. Panics if a spilled page cannot be read back; count with
    /// [`filter_fold`](Self::filter_fold) where that must be an error.
    pub fn filter_count(&self, pred: impl Fn(&T) -> bool + Sync) -> u64 {
        let count = |n: &mut u64, _: &T| *n += 1;
        let merge = |total: &mut u64, n| *total += n;
        (self.filter_fold(|| 0u64, pred, count, merge)).expect("spilled page unreadable")
    }

    /// Parallel fused scan→filter→fold: each worker folds into its own
    /// accumulator (from `init`); `merge` combines the per-worker partials.
    /// [`MemError::SpillFault`] when a spilled page cannot be read back (the
    /// scan stops — fail closed, no partial answer is surfaced).
    pub fn filter_fold<A: Send>(
        &self,
        init: impl Fn() -> A + Sync,
        pred: impl Fn(&T) -> bool + Sync,
        fold: impl Fn(&mut A, &T) + Sync,
        mut merge: impl FnMut(&mut A, A),
    ) -> Result<A, MemError> {
        let partials = self.partials(&init, |acc, obj| {
            if pred(obj) {
                fold(acc, obj);
            }
        })?;
        let mut out = init();
        for p in partials {
            merge(&mut out, p);
        }
        Ok(out)
    }
}

/// A parallel scan over a collection of the [`Columns`] layout: blocks (row
/// groups) are the morsels; the body sees each block's column arrays,
/// exactly like `Smc::for_each_block`.
pub struct ParColumnarScan<'a, T: Columnar> {
    collection: &'a Smc<T, Columns>,
    pool: &'a WorkerPool,
}

impl<'a, T: Columnar> ParColumnarScan<'a, T> {
    /// Creates a scan running on `pool`'s workers; same registration
    /// requirements as [`ParScan::new`].
    pub fn new(collection: &'a Smc<T, Columns>, pool: &'a WorkerPool) -> Self {
        let rt = pool
            .runtime()
            .expect("ParColumnarScan needs a runtime-bound pool (WorkerPool::for_runtime)");
        assert!(
            Arc::ptr_eq(rt, collection.runtime()),
            "worker pool is registered with a different runtime than the collection"
        );
        ParColumnarScan { collection, pool }
    }

    /// Folds every block's column arrays into per-worker accumulators; the
    /// body checks slot validity itself (as the sequential columnar queries
    /// do) so it can read only the columns it needs.
    pub fn fold_blocks<A: Send>(
        &self,
        make: impl Fn() -> A + Sync,
        body: impl Fn(&mut A, &ColumnArrays, &BlockRef) + Sync,
        mut merge: impl FnMut(&mut A, A),
    ) -> A {
        let runtime = self.collection.runtime();
        let _coord = runtime.pin();
        let membership = self.collection.context().membership_snapshot();
        let partials = scan_units(self.pool, runtime, &membership, &make, |acc, block| {
            body(acc, &self.collection.arrays(&block), &block);
        });
        let mut out = make();
        for p in partials {
            merge(&mut out, p);
        }
        out
    }
}

/// Parallel chunked fold over a plain slice — the morsel loop for backends
/// whose scan target is an array rather than SMC blocks (the managed
/// handle list, the columnstore's row ranges). Chunks of `chunk` items are
/// claimed from an atomic cursor; `merge` combines per-worker partials.
pub fn par_fold_chunks<T, A>(
    pool: &WorkerPool,
    items: &[T],
    chunk: usize,
    make: impl Fn() -> A + Sync,
    fold_chunk: impl Fn(&mut A, &[T]) + Sync,
    mut merge: impl FnMut(&mut A, A),
) -> A
where
    T: Sync,
    A: Send,
{
    let chunk = chunk.max(1);
    let partials = run_workers(pool, items.len().div_ceil(chunk), None, |claims| {
        let mut acc = make();
        for i in claims {
            let start = i * chunk;
            fold_chunk(&mut acc, &items[start..(start + chunk).min(items.len())]);
        }
        acc
    });
    let mut out = make();
    for p in partials {
        merge(&mut out, p);
    }
    out
}
