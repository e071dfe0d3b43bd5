//! Sharded lock-free block allocation.
//!
//! Every `MemoryContext` used to funnel block acquisition through one shared
//! runtime path — a single budget CAS plus a trip to the OS per block —
//! which is exactly where the paper's off-heap design (§4) would serialize
//! on multi-core. This module splits the allocation layer into per-thread
//! *allocation shards*:
//!
//! * Each registered thread (epoch thread slot `i`) owns shard `i`: a
//!   **local free list** of recycled 64 KiB blocks with lock-free pop, plus
//!   an **MPSC remote return queue**. A thread allocating a block first pops
//!   its local list; a thread freeing a block it does not own pushes it onto
//!   the owner's remote queue, which the owner drains into its local list on
//!   its next allocation or `Runtime::alloc_maintenance` tick.
//! * A shard-cache miss takes the slow path, which maps fresh blocks in
//!   batches of [`ALLOC_BATCH`]: one `fetch_add` on the `budgeted` gauge
//!   (`BlockAllocator::reserve`) and one kernel-zeroed mapping
//!   (`block::raw_alloc_blocks`) amortize over several handouts, and the
//!   extras are parked in the allocating shard's cache. Members of a batch
//!   go back to the OS one by one, whenever each is freed past the cache cap.
//!
//! Both stacks use an ownership-transfer discipline that never dereferences
//! a block the thread does not exclusively own: **pop takes the whole chain
//! with one `swap`**, keeps the head, and pushes the remainder back with one
//! CAS. Pushes only write the pushed block's own link word. There is no ABA
//! window and no read of memory another thread could be re-initializing or
//! returning to the OS — which is what keeps the fast paths clean under
//! ThreadSanitizer and exhaustively checkable by `smc-check` (the
//! `remote_free_vs_owner_pop` scenario and the
//! [`Mutation::DropRemoteDrain`]
//! seeded bug).
//!
//! Accounting contract (checked by `Runtime::verify` at quiescence):
//! `budgeted == blocks_live + cached` — every block the allocator holds from
//! the OS is either handed out (`blocks_live`) or parked in a shard cache.
//! The gauge is accounting only: the memory system's one budget is a
//! context's (`ContextConfig::budget_bytes`).

use std::sync::atomic::Ordering;

use crate::block::raw_dealloc_block;
use crate::epoch::MAX_THREADS;
use crate::mutation::{self, Mutation};
use crate::stats::MemoryStats;
use crate::sync::AtomicU64;

/// Fresh blocks mapped per slow-path trip: one handout plus
/// `ALLOC_BATCH - 1` cache refills.
pub const ALLOC_BATCH: u64 = 4;

/// Per-shard cap on cached free blocks; frees beyond it go back to the OS.
/// Bounds idle memory at `MAX_SHARD_CACHE * 64 KiB` per allocating thread.
pub const MAX_SHARD_CACHE: u64 = 8;

/// Empty free-list sentinel (no block lives at address 0).
const NO_BLOCK: u64 = 0;

/// The link word threaded through free blocks: the first 8 bytes of a
/// retired block hold the address of the next block in its stack.
///
/// # Safety
/// `addr` must be the base of a raw block allocation exclusively owned by
/// the caller (popped chain) or being pushed by the caller.
unsafe fn link(addr: u64) -> &'static AtomicU64 {
    &*(addr as usize as *const AtomicU64)
}

/// Pushes an owned chain (`first` … `last`, already linked) onto `head`.
/// Lock-free: only the chain's own link word and the head CAS are touched.
fn push_chain(head: &AtomicU64, first: u64, last: u64) {
    loop {
        let cur = head.load(Ordering::Relaxed);
        unsafe { link(last) }.store(cur, Ordering::Relaxed);
        if head
            .compare_exchange_weak(cur, first, Ordering::Release, Ordering::Relaxed)
            .is_ok()
        {
            return;
        }
        crate::sync::cpu_relax();
    }
}

/// Takes the entire chain off `head`, transferring ownership to the caller.
fn take_all(head: &AtomicU64) -> u64 {
    head.swap(NO_BLOCK, Ordering::AcqRel)
}

/// Walks an **owned** chain, returning `(length, tail)`.
fn chain_ends(first: u64) -> (u64, u64) {
    let mut len = 1;
    let mut tail = first;
    loop {
        let next = unsafe { link(tail) }.load(Ordering::Relaxed);
        if next == NO_BLOCK {
            return (len, tail);
        }
        len += 1;
        tail = next;
    }
}

/// Returns every block of an **owned** chain to the OS; returns the count.
fn dealloc_chain(mut chain: u64) -> u64 {
    let mut n = 0;
    while chain != NO_BLOCK {
        let next = unsafe { link(chain) }.load(Ordering::Relaxed);
        unsafe { raw_dealloc_block(chain as usize) };
        chain = next;
        n += 1;
    }
    n
}

/// One thread's allocation shard. Padded to a cache line so neighbouring
/// shards never false-share.
#[repr(align(64))]
#[derive(Debug)]
struct Shard {
    /// Local free list of recycled blocks (lock-free swap-pop, CAS-push).
    local: AtomicU64,
    /// Remote return queue: blocks freed by non-owner threads (CAS-push),
    /// drained by the owner with one swap.
    remote: AtomicU64,
    /// Blocks parked in this shard (local + remote), advisory gauge for the
    /// cache cap. Uninstrumented: exact only at quiescence, which is when
    /// `Runtime::verify` reads it.
    cached: std::sync::atomic::AtomicU64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            local: AtomicU64::new(NO_BLOCK),
            remote: AtomicU64::new(NO_BLOCK),
            cached: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

/// The runtime's sharded block allocator (see module docs). One per
/// [`Runtime`](crate::runtime::Runtime); the runtime owns the allocation
/// *policy* (fault injection, accounting) and this struct owns the shard
/// *mechanics*.
#[derive(Debug)]
pub(crate) struct BlockAllocator {
    shards: Box<[Shard]>,
    /// Blocks currently held from the OS: live handouts plus shard-cached
    /// spares.
    budgeted: AtomicU64,
}

impl BlockAllocator {
    pub(crate) fn new() -> BlockAllocator {
        BlockAllocator {
            shards: (0..MAX_THREADS).map(|_| Shard::new()).collect(),
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

    /// Pops one recycled block off shard `idx`'s local free list.
    pub(crate) fn pop_cached(&self, idx: usize) -> Option<u64> {
        let shard = &self.shards[idx];
        let chain = take_all(&shard.local);
        if chain == NO_BLOCK {
            return None;
        }
        let rest = unsafe { link(chain) }.load(Ordering::Relaxed);
        if rest != NO_BLOCK {
            let (_, tail) = chain_ends(rest);
            push_chain(&shard.local, rest, tail);
        }
        shard.cached.fetch_sub(1, Ordering::Relaxed);
        Some(chain)
    }

    /// Parks an owned block on shard `idx`'s local free list (owner-thread
    /// free or batch refill).
    pub(crate) fn push_local(&self, idx: usize, addr: u64) {
        push_chain(&self.shards[idx].local, addr, addr);
        self.shards[idx].cached.fetch_add(1, Ordering::Relaxed);
    }

    /// Pushes a block freed by a non-owner thread onto shard `idx`'s remote
    /// return queue.
    pub(crate) fn push_remote(&self, idx: usize, addr: u64) {
        push_chain(&self.shards[idx].remote, addr, addr);
        self.shards[idx].cached.fetch_add(1, Ordering::Relaxed);
    }

    /// Drains shard `idx`'s remote return queue into its local free list
    /// (owner-only). Returns the number of blocks moved. This is the drain
    /// the seeded [`Mutation::DropRemoteDrain`] bug removes.
    pub(crate) fn drain_remote(&self, idx: usize, stats: &MemoryStats) -> u64 {
        if mutation::enabled(Mutation::DropRemoteDrain) {
            return 0;
        }
        let shard = &self.shards[idx];
        let chain = take_all(&shard.remote);
        if chain == NO_BLOCK {
            return 0;
        }
        let (n, tail) = chain_ends(chain);
        push_chain(&shard.local, chain, tail);
        MemoryStats::add(&stats.remote_frees_drained, n);
        n
    }
}

impl Drop for BlockAllocator {
    fn drop(&mut self) {
        // The runtime is being torn down: no thread can still touch the
        // shards, so every cached block is quiescent.
        for shard in self.shards.iter() {
            for head in [&shard.local, &shard.remote] {
                dealloc_chain(take_all(head));
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
    /// Cross-thread frees pushed to owner return queues (monotonic).
    pub remote_frees: u64,
    /// Remote frees drained by owners (monotonic).
    pub remote_frees_drained: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::MemoryStats;

    /// One batch of `N` raw blocks, as the slow path maps them.
    fn raw_blocks<const N: usize>() -> [u64; N] {
        let mut batch = crate::block::raw_alloc_blocks(N).expect("the OS backs a small batch");
        std::array::from_fn(|_| batch.next().expect("N blocks") as u64)
    }

    #[test]
    fn stacks_transfer_ownership_in_lifo_chains() {
        let alloc = BlockAllocator::new();
        let stats = MemoryStats::new();
        let [a, b, c] = raw_blocks();
        alloc.reserve(3);
        alloc.push_local(0, a);
        alloc.push_local(0, b);
        alloc.push_remote(0, c);
        assert_eq!(alloc.shard_cached(0), 3);
        assert_eq!(alloc.cached_blocks(), 3);
        // LIFO pop of the local stack.
        assert_eq!(alloc.pop_cached(0), Some(b));
        // Remote drain moves c in front of a.
        assert_eq!(alloc.drain_remote(0, &stats), 1);
        assert_eq!(MemoryStats::get(&stats.remote_frees_drained), 1);
        assert_eq!(alloc.pop_cached(0), Some(c));
        assert_eq!(alloc.pop_cached(0), Some(a));
        assert_eq!(alloc.pop_cached(0), None);
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
        alloc.push_local(0, a);
        alloc.push_remote(3, b);
        drop(alloc); // must not leak (asserted by miri / leak checkers)
    }
}
