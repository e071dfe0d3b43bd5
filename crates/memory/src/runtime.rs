//! The off-heap memory runtime shared by all contexts and collections.
//!
//! The paper extends the managed runtime with an off-heap memory system
//! whose `alloc`/`free` are "part of the runtime API and are called by the
//! collection implementation as needed" (§2). [`Runtime`] is that API
//! surface: it owns the global epoch state, the global indirection table,
//! the compaction coordination flags of §5.1, the *graveyard*, and the
//! sharded block allocator of [`crate::alloc`]. Block acquisition is
//! thread-local in the common case (pop from the calling thread's shard
//! cache); a miss maps a fresh batch of blocks. The runtime has no budget:
//! a context's [`ContextConfig::budget_bytes`](crate::context::ContextConfig)
//! is the memory system's only one.
//!
//! The graveyard is the §3.4–3.5 reclamation rule in one place: memory
//! unlinked at epoch `e` may be reused at `e + 2`. Blocks, spill stubs and
//! freed objects' indirection entries wait in it under one lock, each with
//! the epoch it ripens at, and one drain ([`Runtime::drain_graveyard`])
//! releases every ripe one.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::alloc::{AllocSnapshot, BlockAllocator, ALLOC_BATCH, MAX_SHARD_CACHE};
use crate::block::{raw_alloc_blocks, raw_dealloc_block, BlockLayout, BlockRef, RawBlock};
use crate::epoch::{EpochManager, Guard, Slot};
use crate::error::MemError;
use crate::fault::{FaultInjector, FaultSite};
use crate::indirection::{EntryRef, IndirectionTable};
use crate::spill::SpillStub;
use crate::stats::MemoryStats;
#[cfg(smc_check)]
use smc_util::mutation::{self, Mutation};
use smc_util::sync::{AtomicU64, Mutex};

/// Shared state of one off-heap memory system instance.
///
/// Collections hold an `Arc<Runtime>`; every dereference, allocation and
/// compaction goes through it. Multiple independent runtimes may coexist
/// (each test gets its own), mirroring how the paper's system is a runtime
/// service rather than global state.
#[derive(Debug)]
pub struct Runtime {
    /// Epoch-based reclamation state (§3.4).
    pub(crate) epochs: Arc<EpochManager>,
    /// The global indirection table (§3.2).
    pub(crate) indirection: IndirectionTable,
    /// Observability counters (shared with the fault registry).
    pub stats: Arc<MemoryStats>,
    /// Failpoint registry covering blocks, epochs, thread slots, relocation.
    faults: Arc<FaultInjector>,
    /// Sharded block allocation mechanics (shard caches, the `budgeted`
    /// gauge). Policy lives here in the runtime.
    pub(crate) alloc: BlockAllocator,
    /// Serializes compaction passes ("the compaction thread", §5.1 — one at
    /// a time per runtime).
    pub(crate) compaction_mutex: Mutex<()>,
    /// Unlinked memory, each with the global epoch at which no reader can
    /// still reach it.
    graveyard: Mutex<Vec<(Grave, u64)>>,
    /// The earliest epoch anything in the graveyard ripens at (`u64::MAX`
    /// when empty): stored under the lock, read without it by
    /// [`drain_graveyard`](Self::drain_graveyard). Advisory
    /// (uninstrumented): a stale value only delays reaping to the next call.
    next_ripe: std::sync::atomic::AtomicU64,
    next_context_id: AtomicU64,
}

impl Runtime {
    /// Creates a fresh runtime with epoch 0.
    pub fn new() -> Arc<Runtime> {
        let stats = Arc::new(MemoryStats::new());
        let faults = Arc::new(FaultInjector::new(stats.clone()));
        Arc::new(Runtime {
            epochs: EpochManager::with_faults(faults.clone()),
            indirection: IndirectionTable::new(),
            stats,
            faults,
            alloc: BlockAllocator::new(),
            compaction_mutex: Mutex::new(()),
            graveyard: Mutex::new(Vec::new()),
            next_ripe: std::sync::atomic::AtomicU64::new(u64::MAX),
            next_context_id: AtomicU64::new(1),
        })
    }

    /// The failpoint registry of this runtime (disarmed by default).
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.faults
    }

    /// Enters a critical section (§3.4). All object dereferences require the
    /// returned guard. Panics if the epoch thread registry is exhausted; use
    /// [`try_pin`](Self::try_pin) where that must be an error.
    pub fn pin(&self) -> Guard<'_> {
        self.try_pin().expect("epoch thread registry full")
    }

    /// Fallible [`pin`](Self::pin).
    pub fn try_pin(&self) -> Result<Guard<'_>, MemError> {
        let guard = self.epochs.try_pin()?;
        self.stats.bump(guard.slot(), |cell| &cell.pins_taken, 1);
        Ok(guard)
    }

    /// The calling thread's epoch thread slot, registering the thread on
    /// first use: `Err(MemError::TooManyThreads)` when the registry is full
    /// (or an injected [`FaultSite::ThreadClaim`] failure refuses the
    /// claim). A registered thread keeps its slot until it exits, so a
    /// worker that registers up front cannot be refused later.
    #[inline]
    pub fn thread_slot(&self) -> Result<Slot<'_>, MemError> {
        self.epochs.slot()
    }

    /// Tries to advance the global epoch by one (§3.4): `None` while some
    /// pinned thread lags behind it, or a compaction pass holds the advance.
    /// The memory system advances lazily on its own; this is for tests and
    /// tools that need the clock to move now.
    pub fn try_advance_epoch(&self) -> Option<u64> {
        self.epochs.try_advance()
    }

    /// Indirection entries the runtime has ever materialized: its entry
    /// table's capacity, which only grows.
    pub fn entry_capacity(&self) -> usize {
        self.indirection.capacity()
    }

    /// Allocates one block, behind the `BlockAlloc` failpoint. All block
    /// allocations of the memory system route through here (contexts' thread
    /// blocks and compaction destinations) or, for spill fault-in, through
    /// the same path without the failpoint (`hand_out`).
    ///
    /// Fast path: pop a recycled block from the calling thread's allocation
    /// shard (no lock, no read-modify-write). Slow path: map a fresh batch
    /// of [`ALLOC_BATCH`] blocks in one request, hand out one block and park
    /// the rest in the shard cache. When the OS refuses the mapping the
    /// reservation is handed back and the call returns
    /// [`MemError::OutOfMemory`] at once; a context's `acquire_block` has
    /// already drained the graveyard and tries its spill rung and reclaim
    /// queue after the failure. A thread that cannot have an epoch slot has
    /// no shard and gets [`MemError::TooManyThreads`].
    pub fn allocate_block(
        &self,
        layout: &BlockLayout,
        type_id: u64,
        context_id: u64,
    ) -> Result<BlockRef, MemError> {
        if self.faults.should_fail(FaultSite::BlockAlloc) {
            // Simulated hard OS failure, straight to the caller.
            return Err(MemError::OutOfMemory);
        }
        self.hand_out(layout, type_id, context_id)
    }

    /// Acquires raw memory and writes the block header over it. Spill
    /// fault-in calls this directly: it must not trip the `BlockAlloc`
    /// failpoint mid-read. `Err(MemError::TooManyThreads)` for a thread
    /// that cannot have an epoch slot: every block comes from, and is
    /// tagged with, the allocating thread's shard.
    pub(crate) fn hand_out(
        &self,
        layout: &BlockLayout,
        type_id: u64,
        context_id: u64,
    ) -> Result<BlockRef, MemError> {
        let me = self.thread_slot()?;
        let (raw, recycled) = self.acquire_raw(me)?;
        let (base, owner) = (raw.into_base(), me.index() as u32 + 1);
        // SAFETY: the raw block is ours alone: freshly mapped (zeroed), or
        // recycled from our own shard after its burial epoch passed.
        let block = unsafe {
            if recycled {
                BlockRef::reuse_at(base, layout, type_id, context_id, owner)
            } else {
                BlockRef::init_at(base, layout, type_id, context_id, owner)
            }
        };
        Ok(block)
    }

    /// Acquires one raw block for the holder of `me`: `(block, recycled)`.
    /// Owns all allocation accounting (`blocks_allocated`/`blocks_live`
    /// count *handouts*, fresh or recycled).
    fn acquire_raw(&self, me: Slot<'_>) -> Result<(RawBlock, bool), MemError> {
        if let Some(block) = self.alloc.pop_cached(me) {
            MemoryStats::inc(&self.stats.blocks_recycled);
            self.note_handout();
            return Ok((block, true));
        }
        let mut blocks = self.map_fresh(ALLOC_BATCH).ok_or(MemError::OutOfMemory)?;
        let block = blocks.next().expect("a mapping holds at least one block");
        self.note_handout();
        blocks.for_each(|spare| self.alloc.push_cached(me, spare));
        MemoryStats::inc(&self.stats.alloc_batch_refills);
        Ok((block, false))
    }

    /// Reserves `n` fresh blocks on the `budgeted` gauge and maps them in
    /// one request ([`raw_alloc_blocks`]). A mapping the OS refuses yields
    /// `None` with the reservation handed back.
    fn map_fresh(&self, n: u64) -> Option<impl Iterator<Item = RawBlock>> {
        if n == 0 {
            return None;
        }
        self.alloc.reserve(n);
        let blocks = raw_alloc_blocks(n as usize);
        if blocks.is_none() {
            self.alloc.unreserve(n);
        }
        blocks
    }

    fn note_handout(&self) {
        MemoryStats::inc(&self.stats.blocks_allocated);
        MemoryStats::inc(&self.stats.blocks_live);
    }

    /// Returns a block handed out by [`allocate_block`](Self::allocate_block)
    /// (or the graveyard's epoch-delayed equivalent). The memory is parked
    /// on the freeing thread's allocation shard for recycling when the cache
    /// has room; otherwise it goes back to the OS and leaves the `budgeted`
    /// gauge.
    ///
    /// Callers must guarantee no thread can still dereference into the
    /// block — either because it was never published or because its burial
    /// epoch passed (the graveyard handles the latter).
    pub fn free_block(&self, block: BlockRef) {
        MemoryStats::inc(&self.stats.blocks_freed);
        self.stats.blocks_live.fetch_sub(1, Ordering::Relaxed);
        self.release_block(block);
    }

    /// Routes a retired block's memory: the freeing thread's shard cache, or
    /// the OS. Does not touch the handout gauges — callers do.
    fn release_block(&self, block: BlockRef) {
        let owner = block.header().owner_shard.load(Ordering::Relaxed);
        // SAFETY: `free_block`'s caller guarantees no thread can still
        // dereference into the block.
        let raw = unsafe { block.retire() };
        if owner == 0 {
            // Hand-allocated outside the runtime (tests, fixtures): never
            // reserved, so nothing to unreserve or recycle.
            raw_dealloc_block(raw);
            return;
        }
        // A thread without a slot may free: a graveyard drain run by a
        // context's drop needs none, and may run where none can be had.
        if let Ok(me) = self.thread_slot() {
            if owner != me.index() as u32 + 1 {
                MemoryStats::inc(&self.stats.remote_frees);
            }
            // The re-introduced bug routes the free to the allocating
            // thread's list, which that thread pops without a lock.
            #[cfg(smc_check)]
            let me = if mutation::enabled(Mutation::FreeIntoForeignCache) {
                crate::epoch::forged_slot(owner as usize - 1)
            } else {
                me
            };
            if self.alloc.shard_cached(me) < MAX_SHARD_CACHE {
                self.alloc.push_cached(me, raw);
                return;
            }
        }
        // Cache cap, or a freeing thread without a slot: return the memory
        // and its reservation.
        raw_dealloc_block(raw);
        self.alloc.unreserve(1);
    }

    /// Pre-faults up to `n` fresh blocks into the calling thread's shard
    /// cache — one mapping, populated in one kernel pass — so a worker's
    /// first allocations skip the slow path. The cache never grows past
    /// [`MAX_SHARD_CACHE`], the cap frees enforce. Returns the number of
    /// blocks parked: 0 for a thread that cannot have a slot.
    pub fn prewarm_local_blocks(&self, n: u64) -> u64 {
        let Ok(me) = self.thread_slot() else {
            return 0;
        };
        let want = n.min(MAX_SHARD_CACHE.saturating_sub(self.alloc.shard_cached(me)));
        let Some(blocks) = self.map_fresh(want) else {
            return 0;
        };
        blocks.for_each(|spare| self.alloc.push_cached(me, spare));
        want
    }

    /// Point-in-time view of the allocation layer (shard caches, `budgeted`
    /// gauge) for `HeapSnapshot` and `smc-top`.
    pub fn alloc_snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            budgeted_blocks: self.alloc.budgeted_blocks(),
            cached_blocks: self.alloc.cached_blocks(),
            blocks_recycled: MemoryStats::get(&self.stats.blocks_recycled),
            remote_frees: MemoryStats::get(&self.stats.remote_frees),
        }
    }

    /// Current global epoch.
    pub fn global_epoch(&self) -> u64 {
        self.epochs.global_epoch()
    }

    /// Allocates a context identifier.
    pub(crate) fn next_context_id(&self) -> u64 {
        self.next_context_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The announced relocation epoch (0 if no compaction is pending).
    #[inline]
    pub fn next_relocation_epoch(&self) -> u64 {
        self.epochs.next_relocation_epoch()
    }

    /// True while the in-flight compaction is in its moving phase.
    #[inline]
    pub fn in_moving_phase(&self) -> bool {
        self.epochs.in_moving_phase()
    }

    pub(crate) fn set_relocation_epoch(&self, e: u64) {
        self.epochs.set_relocation_epoch(e);
    }

    pub(crate) fn set_moving_phase(&self, on: bool) {
        self.epochs.set_moving_phase(on);
    }

    /// Hands a block to the graveyard, to be returned to the allocator once
    /// the global epoch reaches `free_at` (ripe blocks recycle through the
    /// draining thread's shard cache, or the OS past the cache cap).
    pub fn bury_block(&self, block: BlockRef, free_at: u64) {
        self.bury(Grave::Block(block), free_at);
    }

    /// Hands unlinked memory to the graveyard, to be released once the
    /// global epoch reaches `free_at`.
    pub(crate) fn bury(&self, grave: Grave, free_at: u64) {
        let mut yard = self.graveyard.lock();
        yard.push((grave, free_at));
        self.next_ripe.fetch_min(free_at, Ordering::Relaxed);
    }

    /// The §3.5 lazy advance, in one place: unless a compaction holds the
    /// relocation reservation, tries to move the global epoch forward once
    /// (counted in `epoch_advances`), then drains the graveyard. Called
    /// where memory is known to wait on the clock — queued limbo blocks in
    /// `acquire_block` and its budget gate, and wherever the residency
    /// protocol buries a block or stub — because nothing else advances it
    /// (§3.4). Returns whether the epoch moved.
    pub(crate) fn advance_and_drain(&self) -> bool {
        let advanced = self.next_relocation_epoch() == 0 && self.epochs.try_advance().is_some();
        if advanced {
            MemoryStats::inc(&self.stats.epoch_advances);
        }
        self.drain_graveyard();
        advanced
    }

    /// Releases everything in the graveyard whose epoch has come — blocks
    /// through [`free_block`](Self::free_block), stubs to the heap, entries
    /// to the table's free lists as one batch — and returns how many blocks
    /// that freed. While nothing is ripe it takes no lock.
    pub fn drain_graveyard(&self) -> usize {
        let next_ripe = self.next_ripe.load(Ordering::Relaxed);
        if next_ripe == u64::MAX {
            return 0;
        }
        let now = self.global_epoch();
        if next_ripe > now {
            return 0;
        }
        let mut yard = self.graveyard.lock();
        let (mut blocks, mut entries, mut next_ripe) = (0, Vec::new(), u64::MAX);
        yard.retain(|&(grave, free_at)| {
            if free_at > now {
                next_ripe = next_ripe.min(free_at);
                return true;
            }
            match grave {
                Grave::Block(block) => {
                    self.free_block(block);
                    blocks += 1;
                }
                Grave::Stub(addr) => drop(unsafe { Box::from_raw(addr as *mut SpillStub) }),
                Grave::Entry(entry) => entries.push(entry),
            }
            false
        });
        self.indirection.recycle(entries);
        self.next_ripe.store(next_ripe, Ordering::Relaxed);
        blocks
    }

    /// What waits in the graveyard, by kind.
    pub fn buried(&self) -> Buried {
        let mut buried = Buried::default();
        for (grave, _) in self.graveyard.lock().iter() {
            match grave {
                Grave::Block(_) => buried.blocks += 1,
                Grave::Stub(_) => buried.stubs += 1,
                Grave::Entry(_) => buried.entries += 1,
            }
        }
        buried
    }

    /// Addresses of the entries in the graveyard, sorted: each belongs to an
    /// object freed less than two epochs ago.
    pub(crate) fn buried_entries(&self) -> Vec<usize> {
        let mut addrs: Vec<usize> = (self.graveyard.lock().iter())
            .filter_map(|(grave, _)| match grave {
                Grave::Entry(entry) => Some(entry.addr()),
                _ => None,
            })
            .collect();
        addrs.sort_unstable();
        addrs
    }

    /// Advances epochs until everything buried before the call is released.
    /// Used by tests and shutdown paths; must not be called while this
    /// thread holds a [`Guard`] (the epoch could then never advance far
    /// enough).
    pub fn drain_graveyard_blocking(&self) {
        let last = self.graveyard.lock().iter().map(|&(_, at)| at).max();
        while last.is_some_and(|last| self.global_epoch() < last) {
            let _ = self.epochs.try_advance();
            smc_util::sync::cpu_relax();
        }
        self.drain_graveyard();
    }
}

/// Unlinked memory waiting in the graveyard for its epoch.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Grave {
    /// A block its context released, or a spilled victim.
    Block(BlockRef),
    /// A spill stub: the raw `Box<SpillStub>` address, tag bit stripped.
    Stub(usize),
    /// A freed object's entry, already counted out of the live total.
    Entry(EntryRef),
}

/// Records waiting in the graveyard, by kind ([`Runtime::buried`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Buried {
    /// Blocks contexts released.
    pub blocks: usize,
    /// Spill stubs.
    pub stubs: usize,
    /// Freed objects' indirection entries.
    pub entries: usize,
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // No Arc<Runtime> clones remain, so no guard obtained from this
        // runtime can still be alive; everything buried is quiescent.
        for (grave, _) in self.graveyard.get_mut().drain(..) {
            match grave {
                Grave::Block(block) => unsafe { block.deallocate() },
                Grave::Stub(addr) => drop(unsafe { Box::from_raw(addr as *mut SpillStub) }),
                // The table goes with the runtime.
                Grave::Entry(_) => {}
            }
        }
        // `alloc` frees its shard caches when the field drops after this
        // body.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{type_id_of, BlockLayout};
    use crate::indirection::{CHUNK_ENTRIES, MAGAZINE};

    #[test]
    fn pin_and_epoch_pass_through() {
        let rt = Runtime::new();
        assert_eq!(rt.global_epoch(), 0);
        let g = rt.pin();
        assert_eq!(g.epoch(), 0);
        drop(g);
        assert!(rt.epochs.try_advance().is_some());
        assert_eq!(rt.global_epoch(), 1);
    }

    /// Blocks, stubs and entries wait in one queue; each is released at its
    /// epoch, in whatever order they were buried, and not before.
    #[test]
    fn graveyard_releases_every_kind_at_its_epoch_and_not_before() {
        let rt = Runtime::new();
        let me = rt.thread_slot().unwrap();
        let kinds = || {
            let b = rt.buried();
            (b.blocks, b.stubs, b.entries)
        };
        let bury_entry = |free_at| {
            let e = rt.indirection.allocate(me);
            e.get().store_payload(0xbeef0, Ordering::Release);
            e.get().inc().bump();
            rt.indirection.note_freed(me);
            rt.bury(Grave::Entry(e), free_at);
            e
        };
        // Buried first, ripens last: it must hold back nothing behind it.
        let late = bury_entry(5);
        let layout = BlockLayout::rows_of::<u64>().unwrap();
        let block = rt.allocate_block(&layout, type_id_of::<u64>(), 1).unwrap();
        rt.bury_block(block, 2);
        let ctx = Arc::new(crate::context::tests::ctx(&rt));
        let stub = Box::new(SpillStub {
            ctx: Arc::downgrade(&ctx),
            block_id: 0,
        });
        rt.bury(Grave::Stub(Box::into_raw(stub) as usize), 2);
        let early = [bury_entry(2), bury_entry(2)];
        rt.verify().unwrap();
        // Epoch 1 < 2: nothing is released, and a tombstone chaser may
        // still read every entry's payload.
        rt.epochs.try_advance();
        assert_eq!(rt.drain_graveyard(), 0);
        assert_eq!(kinds(), (1, 1, 3));
        assert_eq!(Arc::weak_count(&ctx), 1, "stub freed before its epoch");
        assert_eq!(early[0].get().load_payload(Ordering::Acquire), 0xbeef0);
        // Epoch 2: every kind that ripens there goes in the one drain.
        rt.epochs.try_advance();
        assert_eq!(rt.drain_graveyard(), 1);
        assert_eq!(kinds(), (0, 0, 1));
        assert_eq!(Arc::weak_count(&ctx), 0, "ripe stub is freed");
        for e in early {
            assert_eq!(e.get().load_payload(Ordering::Acquire), 0);
        }
        assert_eq!(late.get().load_payload(Ordering::Acquire), 0xbeef0);
        let recycled = rt.indirection.free_entries() - (CHUNK_ENTRIES - MAGAZINE) as u64;
        assert_eq!(recycled, 2);
        rt.verify().unwrap();
        // The blocking drain advances the epoch as far as the last burial.
        rt.drain_graveyard_blocking();
        assert!(rt.global_epoch() >= 5);
        assert_eq!(kinds(), (0, 0, 0));
    }

    #[test]
    fn runtime_drop_frees_graveyard() {
        let rt = Runtime::new();
        let layout = BlockLayout::rows_of::<u64>().unwrap();
        let b = BlockRef::allocate(&layout, type_id_of::<u64>(), 1).unwrap();
        rt.bury_block(b, u64::MAX); // would never free by epoch
        drop(rt); // must free anyway, without leaking
    }

    #[test]
    fn relocation_flags_default_off() {
        let rt = Runtime::new();
        assert_eq!(rt.next_relocation_epoch(), 0);
        assert!(!rt.in_moving_phase());
    }

    #[test]
    fn context_ids_are_unique() {
        let rt = Runtime::new();
        let a = rt.next_context_id();
        let b = rt.next_context_id();
        assert_ne!(a, b);
    }

    #[test]
    fn refused_mapping_is_out_of_memory_and_gives_the_reservation_back() {
        use crate::block::tests::MAPS_REFUSED;
        let rt = Runtime::new();
        let layout = BlockLayout::rows_of::<u64>().unwrap();
        MAPS_REFUSED.set(true);
        let refused = rt.allocate_block(&layout, 1, 1);
        let prewarmed = rt.prewarm_local_blocks(3);
        MAPS_REFUSED.set(false);
        assert!(matches!(refused, Err(MemError::OutOfMemory)));
        assert_eq!(prewarmed, 0);
        assert_eq!(
            rt.alloc.budgeted_blocks(),
            0,
            "every reservation handed back"
        );
        assert_eq!(MemoryStats::get(&rt.stats.blocks_allocated), 0);
        rt.verify().unwrap();
        // The OS relents: the same runtime allocates again.
        let b = rt.allocate_block(&layout, 1, 1).unwrap();
        rt.free_block(b);
        rt.verify().unwrap();
    }

    #[test]
    fn registry_exhausted_thread_gets_no_block() {
        let rt = Runtime::new();
        crate::epoch::with_registry_exhausted(&rt.epochs, || {
            // This thread is registrant MAX_THREADS + 1: it has no shard,
            // so it is refused before anything is mapped.
            assert!(rt.thread_slot().is_err());
            let layout = BlockLayout::rows_of::<u64>().unwrap();
            let refused = rt.allocate_block(&layout, 1, 1);
            assert!(matches!(refused, Err(MemError::TooManyThreads)));
            assert_eq!(rt.prewarm_local_blocks(2), 0);
            assert_eq!(rt.alloc.budgeted_blocks(), 0, "nothing mapped");
            assert_eq!(MemoryStats::get(&rt.stats.blocks_allocated), 0);
            rt.verify().unwrap();
        });
    }

    // Holds MAX_THREADS OS threads like the test above, which CI's Miri step
    // skips for that reason.
    #[cfg_attr(miri, ignore)]
    #[test]
    fn registry_exhausted_thread_counts_frees_in_the_shared_cell() {
        let rt = Runtime::new();
        // Three objects built by a thread that has exited by now (this one
        // must stay unregistered), for the slotless thread to free.
        let rt2 = rt.clone();
        let build = move || {
            let c = crate::context::tests::ctx(&rt2);
            for v in 0..3 {
                crate::context::tests::alloc_u64(&c, v);
            }
            c
        };
        let doomed = std::thread::spawn(build).join().unwrap();
        crate::epoch::with_registry_exhausted(&rt.epochs, || {
            assert!(rt.thread_slot().is_err());
            // No slot, so no counter cell: the drop's frees land in the
            // shared cell, its blocks go back to the OS, and the
            // validator's books still balance.
            drop(doomed);
            assert_eq!(rt.stats.hot(|cell| &cell.objects_freed), 3);
            rt.drain_graveyard_blocking();
            rt.verify().unwrap();
        });
    }

    #[test]
    fn prewarm_fills_the_local_cache() {
        let rt = Runtime::new();
        assert_eq!(rt.prewarm_local_blocks(3), 3);
        assert_eq!(rt.alloc.cached_blocks(), 3);
        let layout = BlockLayout::rows_of::<u64>().unwrap();
        let a = rt.allocate_block(&layout, 1, 1).unwrap();
        assert_eq!(
            MemoryStats::get(&rt.stats.blocks_recycled),
            1,
            "prewarmed blocks serve the fast path"
        );
        rt.free_block(a);
        rt.verify().unwrap();
    }

    #[test]
    fn repeated_prewarm_stops_at_the_shard_cache_cap() {
        let rt = Runtime::new();
        let cap = MAX_SHARD_CACHE;
        assert_eq!(rt.prewarm_local_blocks(cap - 3), cap - 3);
        assert_eq!(rt.prewarm_local_blocks(cap), 3, "only the room left");
        assert_eq!(rt.prewarm_local_blocks(cap), 0, "cache is full");
        assert_eq!(rt.alloc.cached_blocks(), MAX_SHARD_CACHE);
        rt.verify().unwrap();
    }

    #[test]
    fn injected_block_alloc_fault_is_immediate_oom() {
        let rt = Runtime::new();
        rt.faults().enable(21);
        rt.faults().set_rate(
            crate::fault::FaultSite::BlockAlloc,
            crate::fault::RATE_DENOMINATOR,
        );
        let layout = BlockLayout::rows_of::<u64>().unwrap();
        assert!(matches!(
            rt.allocate_block(&layout, 1, 1),
            Err(MemError::OutOfMemory)
        ));
        assert_eq!(MemoryStats::get(&rt.stats.faults_injected), 1);
        rt.faults().disable();
        let b = rt.allocate_block(&layout, 1, 1).unwrap();
        rt.bury_block(b, 0);
        rt.drain_graveyard();
    }
}
