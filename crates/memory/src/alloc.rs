//! Sharded block allocation: the paper's off-heap design (§4) would
//! serialize on multi-core if every block came through one shared path, so
//! each thread takes blocks from its own *allocation shard*:
//!
//! * Each registered thread (epoch thread slot `i`) owns shard `i`: a
//!   **single-owner free list** of recycled 64 KiB blocks. Only the thread
//!   holding the slot pushes or pops it. A block freed by a registered
//!   thread goes onto that thread's own list, whichever thread allocated it,
//!   while the list holds fewer than [`MAX_SHARD_CACHE`] blocks; past the cap,
//!   or from a thread without a slot, it goes back to the OS.
//! * A shard-cache miss maps [`ALLOC_BATCH`] fresh blocks at once: one
//!   `fetch_add` on the `budgeted` gauge and one kernel-zeroed mapping
//!   serve several handouts, and the extras park in the allocating shard's
//!   cache. Each goes back to the OS on its own when freed past the cap.
//!
//! With one writer per list, pop is "load head, read its link, store head"
//! and push is "write link, store head": no read-modify-write on either
//! path. `smc-check` sees every access to the list (its words go through
//! `smc_util::sync`): the `foreign_free_vs_owner_pop` scenario races a free
//! of another thread's block against the owner's pops, and the seeded
//! `Mutation::FreeIntoForeignCache` bug, which pushes that free onto the
//! allocating thread's list, loses or doubly hands out a block.
//!
//! Accounting contract (checked by `Runtime::verify` at quiescence):
//! `budgeted == blocks_live + cached` — every block the allocator holds from
//! the OS is either handed out (`blocks_live`) or parked in a shard cache.
//! The gauge is accounting only: the memory system's one budget is a
//! context's (`ContextConfig::budget_bytes`).

use std::sync::atomic::Ordering;

use crate::block::{raw_dealloc_block, RawBlock};
use crate::epoch::{Slot, MAX_THREADS};
use smc_util::sync::AtomicU64;

/// Fresh blocks mapped per slow-path trip: one handout plus
/// `ALLOC_BATCH - 1` cache refills.
pub const ALLOC_BATCH: u64 = 4;

/// Per-shard cap on cached free blocks; frees beyond it go back to the OS.
/// Bounds idle memory at `MAX_SHARD_CACHE * 64 KiB` per thread slot.
pub const MAX_SHARD_CACHE: u64 = 8;

/// Empty free-list sentinel (no block lives at address 0).
const NO_BLOCK: u64 = 0;

/// The link word threaded through free blocks: the first 8 bytes of a
/// retired block hold the address of the next block in its list.
fn link(block: &RawBlock) -> &AtomicU64 {
    // SAFETY: the raw block is the caller's, aligned and mapped, and a
    // block's first word is a list's link for as long as it is listed.
    unsafe { &*(block.base() as *const AtomicU64) }
}

/// One thread slot's allocation shard, padded to a cache line so neighbours
/// never false-share. Only the slot's holder touches `head` and the links —
/// every access takes the holder's [`Slot`] — so `Relaxed` suffices: a slot
/// changes hands through the registry's `Release` store and `AcqRel` claim
/// of its flag, which order the accesses.
#[repr(align(64))]
#[derive(Debug)]
struct Shard {
    /// Top of the free list of recycled blocks.
    head: AtomicU64,
    /// Blocks on the list, also read by other threads for the snapshot.
    /// Uninstrumented: it changes only beside `head`'s switch points.
    cached: std::sync::atomic::AtomicU64,
}

/// The runtime's sharded block allocator (see module docs). One per
/// [`Runtime`](crate::runtime::Runtime); the runtime owns the allocation
/// *policy* (fault injection, accounting, which shard a free goes to) and
/// this struct owns the shard *mechanics*.
#[derive(Debug)]
pub(crate) struct BlockAllocator {
    shards: Box<[Shard]>,
    /// Blocks held from the OS: live handouts plus shard-cached spares.
    budgeted: AtomicU64,
}

impl BlockAllocator {
    pub(crate) fn new() -> BlockAllocator {
        let shard = |_| Shard {
            head: AtomicU64::new(NO_BLOCK),
            cached: std::sync::atomic::AtomicU64::new(0),
        };
        BlockAllocator {
            shards: (0..MAX_THREADS).map(shard).collect(),
            budgeted: AtomicU64::new(0),
        }
    }

    /// Blocks currently held from the OS (live + cached).
    pub(crate) fn budgeted_blocks(&self) -> u64 {
        self.budgeted.load(Ordering::Relaxed)
    }

    /// Total blocks parked across all shard caches.
    pub(crate) fn cached_blocks(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.cached.load(Ordering::Relaxed))
            .sum()
    }

    /// Blocks parked in the cache of `slot`'s shard.
    pub(crate) fn shard_cached(&self, slot: Slot<'_>) -> u64 {
        self.shards[slot.index()].cached.load(Ordering::Relaxed)
    }

    /// Counts `n` blocks about to be mapped onto the `budgeted` gauge.
    pub(crate) fn reserve(&self, n: u64) {
        self.budgeted.fetch_add(n, Ordering::Relaxed);
    }

    /// Takes `n` blocks off the `budgeted` gauge (memory already freed to
    /// the OS, or never mapped).
    pub(crate) fn unreserve(&self, n: u64) {
        self.budgeted.fetch_sub(n, Ordering::Relaxed);
    }

    /// Pops one recycled block off the free list of `slot`'s shard, which
    /// only the slot's holder touches.
    pub(crate) fn pop_cached(&self, slot: Slot<'_>) -> Option<RawBlock> {
        let idx = slot.index();
        let shard = &self.shards[idx];
        let top = shard.head.load(Ordering::Relaxed);
        let cached = shard.cached.load(Ordering::Relaxed);
        // The holder is the list's only writer, so head and count agree; a
        // disagreement is a push or pop by a thread without the slot.
        let agree = (top == NO_BLOCK) == (cached == 0);
        assert!(agree, "shard {idx}: free list and count {cached} disagree");
        if top == NO_BLOCK {
            return None;
        }
        // SAFETY: `top` heads the holder's own list, and a listed block is
        // owned by the list.
        let block = unsafe { RawBlock::from_base(top as usize) };
        shard
            .head
            .store(link(&block).load(Ordering::Relaxed), Ordering::Relaxed);
        shard.cached.store(cached - 1, Ordering::Relaxed);
        Some(block)
    }

    /// Parks a block on the free list of `slot`'s shard (a free or a batch
    /// refill).
    pub(crate) fn push_cached(&self, slot: Slot<'_>, block: RawBlock) {
        let shard = &self.shards[slot.index()];
        link(&block).store(shard.head.load(Ordering::Relaxed), Ordering::Relaxed);
        shard
            .head
            .store(block.into_base() as u64, Ordering::Relaxed);
        let cached = shard.cached.load(Ordering::Relaxed);
        shard.cached.store(cached + 1, Ordering::Relaxed);
    }
}

impl Drop for BlockAllocator {
    fn drop(&mut self) {
        for shard in self.shards.iter() {
            let mut chain = shard.head.load(Ordering::Relaxed);
            while chain != NO_BLOCK {
                // SAFETY: `&mut self`: no thread can still touch the shards,
                // so every listed block is the allocator's to read and unmap.
                let block = unsafe { RawBlock::from_base(chain as usize) };
                chain = link(&block).load(Ordering::Relaxed);
                raw_dealloc_block(block);
            }
        }
    }
}

/// Point-in-time view of the allocation layer, carried by
/// [`HeapSnapshot`](crate::inspect::HeapSnapshot) and rendered by `smc-top`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Blocks held from the OS (live handouts + shard caches).
    pub budgeted_blocks: u64,
    /// Blocks parked across all shard caches.
    pub cached_blocks: u64,
    /// Handouts served from a shard free list (monotonic).
    pub blocks_recycled: u64,
    /// Blocks freed by a thread other than the one that allocated them
    /// (monotonic).
    pub remote_frees: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::EpochManager;

    /// One batch of `N` raw blocks, as the slow path maps them, by address.
    fn raw_blocks<const N: usize>() -> [u64; N] {
        let mut batch = crate::block::raw_alloc_blocks(N).expect("the OS backs a small batch");
        std::array::from_fn(|_| batch.next().expect("N blocks").into_base() as u64)
    }

    fn owned(addr: u64) -> RawBlock {
        unsafe { RawBlock::from_base(addr as usize) }
    }

    #[test]
    fn the_free_list_is_lifo_and_counts_its_blocks() {
        let mgr = EpochManager::new();
        let me = mgr.slot().unwrap();
        let alloc = BlockAllocator::new();
        let [a, b, c] = raw_blocks();
        alloc.reserve(3);
        for addr in [a, b, c] {
            alloc.push_cached(me, owned(addr));
        }
        assert_eq!(alloc.shard_cached(me), 3);
        assert_eq!(alloc.cached_blocks(), 3);
        let mut popped = Vec::new();
        while let Some(block) = alloc.pop_cached(me) {
            popped.push(block.base() as u64);
            raw_dealloc_block(block);
        }
        assert_eq!(popped, [c, b, a]);
        assert_eq!(alloc.shard_cached(me), 0);
        alloc.unreserve(3);
        assert_eq!(alloc.budgeted_blocks(), 0);
    }

    #[test]
    fn allocator_drop_frees_cached_blocks() {
        let mgr = EpochManager::new();
        let alloc = BlockAllocator::new();
        alloc.reserve(2);
        let [a, b] = raw_blocks();
        alloc.push_cached(mgr.slot().unwrap(), owned(a));
        let m2 = mgr.clone();
        std::thread::scope(|s| {
            s.spawn(|| alloc.push_cached(m2.slot().unwrap(), owned(b)));
        });
        drop(alloc); // must not leak (asserted by miri / leak checkers)
    }
}
