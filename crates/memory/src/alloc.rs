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

use crate::block::raw_dealloc_block;
use crate::epoch::MAX_THREADS;
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
///
/// # Safety
/// `addr` must be the base of a raw block allocation in, or being pushed
/// onto, a list the caller owns.
unsafe fn link(addr: u64) -> &'static AtomicU64 {
    &*(addr as usize as *const AtomicU64)
}

/// One thread slot's allocation shard, padded to a cache line so neighbours
/// never false-share. Only the slot's holder touches `head` and the links,
/// so `Relaxed` suffices: a slot changes hands through the registry's
/// `Release` store and `AcqRel` claim of its flag, which order the accesses.
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

    /// Blocks parked in one shard's cache.
    pub(crate) fn shard_cached(&self, idx: usize) -> u64 {
        self.shards[idx].cached.load(Ordering::Relaxed)
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

    /// Pops one recycled block off shard `idx`'s free list.
    ///
    /// # Safety
    /// The calling thread must hold epoch slot `idx`, so the list's blocks
    /// are its own: no other thread pops, pushes or frees them.
    pub(crate) unsafe fn pop_cached(&self, idx: usize) -> Option<u64> {
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
        // SAFETY: `top` is on the caller's own list (see `# Safety`).
        let next = unsafe { link(top) }.load(Ordering::Relaxed);
        shard.head.store(next, Ordering::Relaxed);
        shard.cached.store(cached - 1, Ordering::Relaxed);
        Some(top)
    }

    /// Parks a block on shard `idx`'s free list (a free or a batch refill).
    ///
    /// # Safety
    /// The calling thread must hold epoch slot `idx`, and `addr` must be the
    /// base of a retired block no other thread can reach.
    pub(crate) unsafe fn push_cached(&self, idx: usize, addr: u64) {
        let shard = &self.shards[idx];
        // SAFETY: `addr` is the caller's retired block (see `# Safety`).
        unsafe { link(addr) }.store(shard.head.load(Ordering::Relaxed), Ordering::Relaxed);
        shard.head.store(addr, Ordering::Relaxed);
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
                let next = unsafe { link(chain) }.load(Ordering::Relaxed);
                unsafe { raw_dealloc_block(chain as usize) };
                chain = next;
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

    /// One batch of `N` raw blocks, as the slow path maps them.
    fn raw_blocks<const N: usize>() -> [u64; N] {
        let mut batch = crate::block::raw_alloc_blocks(N).expect("the OS backs a small batch");
        std::array::from_fn(|_| batch.next().expect("N blocks") as u64)
    }

    #[test]
    fn the_free_list_is_lifo_and_counts_its_blocks() {
        let alloc = BlockAllocator::new();
        let [a, b, c] = raw_blocks();
        alloc.reserve(3);
        for addr in [a, b, c] {
            unsafe { alloc.push_cached(0, addr) };
        }
        assert_eq!(alloc.shard_cached(0), 3);
        assert_eq!(alloc.cached_blocks(), 3);
        assert_eq!(unsafe { alloc.pop_cached(0) }, Some(c));
        assert_eq!(unsafe { alloc.pop_cached(0) }, Some(b));
        assert_eq!(unsafe { alloc.pop_cached(0) }, Some(a));
        assert_eq!(unsafe { alloc.pop_cached(0) }, None);
        assert_eq!(alloc.shard_cached(0), 0);
        for addr in [a, b, c] {
            unsafe { crate::block::raw_dealloc_block(addr as usize) };
        }
        alloc.unreserve(3);
        assert_eq!(alloc.budgeted_blocks(), 0);
    }

    #[test]
    fn allocator_drop_frees_cached_blocks() {
        let alloc = BlockAllocator::new();
        alloc.reserve(2);
        let [a, b] = raw_blocks();
        unsafe {
            alloc.push_cached(0, a);
            alloc.push_cached(3, b);
        }
        drop(alloc); // must not leak (asserted by miri / leak checkers)
    }
}
