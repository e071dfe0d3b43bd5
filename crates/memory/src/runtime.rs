//! The off-heap memory runtime shared by all contexts and collections.
//!
//! The paper extends the managed runtime with an off-heap memory system
//! whose `alloc`/`free` are "part of the runtime API and are called by the
//! collection implementation as needed" (§2). [`Runtime`] is that API
//! surface: it owns the global epoch state, the global indirection table,
//! the compaction coordination flags of §5.1, a *graveyard* of blocks
//! awaiting epoch-safe return to the OS, and the sharded block allocator of
//! [`crate::alloc`]. Block acquisition is thread-local in the common case
//! (pop from the calling thread's shard cache); the budget gate only runs
//! on the batched slow path that hands out fresh block ranges.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::alloc::{AllocSnapshot, BlockAllocator, ALLOC_BATCH, MAX_SHARD_CACHE};
use crate::block::{raw_alloc_blocks, raw_dealloc_block, BlockLayout, BlockRef, BLOCK_SIZE};
use crate::epoch::{EpochManager, Guard};
use crate::error::MemError;
use crate::fault::{FaultInjector, FaultSite};
use crate::indirection::IndirectionTable;
use crate::stats::MemoryStats;
use crate::sync::{AtomicU64, Mutex};

/// Attempts the allocation recovery ladder makes before conceding
/// [`MemError::OutOfMemory`].
pub const MAX_ALLOC_ATTEMPTS: u32 = 4;

/// Shared state of one off-heap memory system instance.
///
/// Collections hold an `Arc<Runtime>`; every dereference, allocation and
/// compaction goes through it. Multiple independent runtimes may coexist
/// (each test gets its own), mirroring how the paper's system is a runtime
/// service rather than global state.
#[derive(Debug)]
pub struct Runtime {
    /// Epoch-based reclamation state (§3.4).
    pub epochs: Arc<EpochManager>,
    /// The global indirection table (§3.2).
    pub indirection: IndirectionTable,
    /// Observability counters (shared with the fault registry).
    pub stats: Arc<MemoryStats>,
    /// Failpoint registry covering blocks, epochs, thread slots, relocation.
    faults: Arc<FaultInjector>,
    /// Cap on budgeted block bytes (live handouts + shard-cached spares);
    /// `u64::MAX` means unlimited.
    budget_bytes: AtomicU64,
    /// Sharded block allocation mechanics (shard caches, remote return
    /// queues, the budget gauge). Policy lives here in the runtime.
    pub(crate) alloc: BlockAllocator,
    /// Serializes compaction passes ("the compaction thread", §5.1 — one at
    /// a time per runtime).
    pub(crate) compaction_mutex: Mutex<()>,
    /// Blocks whose contexts released them, awaiting the epoch at which no
    /// reader can still hold pointers into them.
    graveyard: Mutex<Vec<(BlockRef, u64)>>,
    /// Spill stubs ([`crate::spill::SpillStub`]) whose pages faulted back in,
    /// awaiting the epoch at which no pinned reader can still dereference
    /// the tagged payload it loaded before the fault-in. Stored as raw
    /// `Box::into_raw` addresses.
    stub_graveyard: Mutex<Vec<(usize, u64)>>,
    /// Entries across both graveyards, maintained outside the locks so the
    /// per-allocation [`drain_graveyard`](Self::drain_graveyard) call can
    /// skip the mutexes entirely when there is nothing to reap. Advisory
    /// (uninstrumented): a stale zero only delays reaping to the next call.
    reclaim_pending: std::sync::atomic::AtomicU64,
    next_context_id: AtomicU64,
}

impl Runtime {
    /// Creates a fresh runtime with epoch 0 and no memory budget.
    pub fn new() -> Arc<Runtime> {
        Self::with_budget(None)
    }

    /// Creates a fresh runtime whose budgeted block bytes are capped at
    /// `budget_bytes` (`None` = unlimited). When an allocation would exceed
    /// the budget, [`allocate_block`](Self::allocate_block) runs a bounded
    /// recovery ladder before surfacing [`MemError::OutOfMemory`].
    pub fn with_budget(budget_bytes: Option<u64>) -> Arc<Runtime> {
        let stats = Arc::new(MemoryStats::new());
        let faults = Arc::new(FaultInjector::new(stats.clone()));
        Arc::new(Runtime {
            epochs: EpochManager::with_faults(faults.clone()),
            indirection: IndirectionTable::new(),
            stats,
            faults,
            budget_bytes: AtomicU64::new(budget_bytes.unwrap_or(u64::MAX)),
            alloc: BlockAllocator::new(),
            compaction_mutex: Mutex::new(()),
            graveyard: Mutex::new(Vec::new()),
            stub_graveyard: Mutex::new(Vec::new()),
            reclaim_pending: std::sync::atomic::AtomicU64::new(0),
            next_context_id: AtomicU64::new(1),
        })
    }

    /// The failpoint registry of this runtime (disarmed by default).
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.faults
    }

    /// Sets or clears the budgeted-block byte budget at runtime.
    pub fn set_memory_budget(&self, budget_bytes: Option<u64>) {
        self.budget_bytes
            .store(budget_bytes.unwrap_or(u64::MAX), Ordering::Relaxed);
    }

    /// The current byte budget, if one is set.
    pub fn memory_budget(&self) -> Option<u64> {
        match self.budget_bytes.load(Ordering::Relaxed) {
            u64::MAX => None,
            b => Some(b),
        }
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
        let tid = Some(guard.thread_index());
        self.stats.bump(tid, |cell| &cell.pins_taken, 1);
        Ok(guard)
    }

    /// Counts `n` objects freed wholesale (a context dropped) by a thread
    /// that may hold no epoch slot.
    pub(crate) fn note_objects_freed(&self, n: u64) {
        let tid = self.epochs.thread_index().ok();
        self.stats.bump(tid, |cell| &cell.objects_freed, n);
    }

    /// Allocates one block against the budget, with fault injection and the
    /// recovery ladder. All block allocations of the memory system route
    /// through here (contexts' thread blocks and compaction destinations).
    ///
    /// Fast path: pop a recycled block from the calling thread's allocation
    /// shard (no budget CAS, no lock), draining the shard's remote return
    /// queue when the local list runs dry. Slow path: reserve a fresh batch
    /// of up to [`ALLOC_BATCH`] blocks against the budget, map it in one
    /// request, hand out one block and park the rest in the shard cache.
    ///
    /// On budget exhaustion — or when the OS refuses the mapping, which
    /// gives the reservation back first — the ladder, per attempt: (1) frees
    /// every epoch-ready graveyard block and deferred indirection entry;
    /// (2) forces an emergency epoch advance so limbo memory ripens (unless a
    /// compaction holds the advance reservation); (3) backs off briefly to
    /// let concurrent frees land; and on the final attempt (4) trims idle
    /// shard caches back to the OS. After [`MAX_ALLOC_ATTEMPTS`] failed
    /// attempts it returns [`MemError::OutOfMemory`].
    pub fn allocate_block(
        &self,
        layout: &BlockLayout,
        type_id: u64,
        context_id: u64,
    ) -> Result<BlockRef, MemError> {
        if self.faults.should_fail(FaultSite::BlockAlloc) {
            // Simulated hard OS failure: no recovery, straight to the caller.
            return Err(MemError::OutOfMemory);
        }
        self.hand_out(true, layout, type_id, context_id)
    }

    /// Allocates one block outside the budget gate and recovery ladder.
    ///
    /// Spill fault-in must allocate a destination block while the faulting
    /// thread may itself be pinned (a dereference faults in mid-read); a
    /// pinned thread can never ripen its own victim's burial epoch, so
    /// routing through the ladder could deadlock against the budget. A
    /// ripened victim parked in the calling thread's shard is taken first,
    /// as on the gated path; failing that the reservation is forced
    /// (transient overshoot, at most one block per concurrent faulter) and
    /// settles as buried spill victims drain: frees observed while over
    /// budget return to the OS instead of the cache.
    pub(crate) fn allocate_block_unbudgeted(
        &self,
        layout: &BlockLayout,
        type_id: u64,
        context_id: u64,
    ) -> Result<BlockRef, MemError> {
        self.hand_out(false, layout, type_id, context_id)
    }

    /// Acquires raw memory and writes the block header over it.
    fn hand_out(
        &self,
        gated: bool,
        layout: &BlockLayout,
        type_id: u64,
        context_id: u64,
    ) -> Result<BlockRef, MemError> {
        let (base, owner, recycled) = self.acquire_raw(gated)?;
        let block = unsafe {
            if recycled {
                BlockRef::reuse_at(base, layout, type_id, context_id, owner)
            } else {
                BlockRef::init_at(base, layout, type_id, context_id, owner)
            }
        };
        Ok(block)
    }

    /// Acquires one raw block's memory: `(base, owner_shard_tag, recycled)`.
    /// Owns all allocation accounting (`blocks_allocated`/`blocks_live`
    /// count *handouts*, fresh or recycled) and the recovery ladder.
    /// Ungated, a shard-cache miss forces the reservation of one fresh
    /// block instead of asking the budget.
    ///
    /// A thread the epoch registry could not index has no shard: it reserves
    /// one block at a time and tags it `u32::MAX`, so its free goes straight
    /// back to the OS.
    fn acquire_raw(&self, gated: bool) -> Result<(usize, u32, bool), MemError> {
        let shard = self.epochs.thread_index().ok();
        let mut attempt = 0u32;
        loop {
            if let Some(idx) = shard {
                if let Some(addr) = self.alloc.pop_cached(idx) {
                    MemoryStats::inc(&self.stats.blocks_recycled);
                    self.note_handout(attempt);
                    return Ok((addr as usize, idx as u32 + 1, true));
                }
                if self.alloc.drain_remote(idx, &self.stats) > 0 {
                    // Remote frees landed: retry the local pop before
                    // touching the budget.
                    continue;
                }
            }
            let granted = if gated {
                let budget = self.budget_bytes.load(Ordering::Relaxed);
                let want = if shard.is_some() { ALLOC_BATCH } else { 1 };
                self.alloc.reserve(budget, want)
            } else {
                self.alloc.force_reserve(1);
                1
            };
            if let Some(mut blocks) = self.map_grant(granted) {
                let base = blocks.next().expect("a grant holds at least one block");
                self.note_handout(attempt);
                if granted > 1 {
                    let idx = shard.expect("batched grants only with a shard");
                    blocks.for_each(|spare| self.alloc.push_local(idx, spare as u64));
                    MemoryStats::inc(&self.stats.alloc_batch_refills);
                }
                let owner = match shard {
                    Some(idx) => idx as u32 + 1,
                    None => u32::MAX,
                };
                return Ok((base, owner, false));
            }
            if attempt >= MAX_ALLOC_ATTEMPTS {
                return Err(MemError::OutOfMemory);
            }
            attempt += 1;
            MemoryStats::inc(&self.stats.alloc_retries);
            self.recover_memory(attempt);
        }
    }

    /// Turns a budget grant of `granted` fresh blocks into memory: one
    /// mapping for the whole grant ([`raw_alloc_blocks`]). A zero grant, or
    /// one the OS refuses to back, yields `None` with the reservation handed
    /// back — the caller is where it would be had the budget said no.
    fn map_grant(&self, granted: u64) -> Option<impl Iterator<Item = usize>> {
        if granted == 0 {
            return None;
        }
        let blocks = raw_alloc_blocks(granted as usize);
        if blocks.is_none() {
            self.alloc.unreserve(granted);
        }
        blocks
    }

    fn note_handout(&self, attempt: u32) {
        MemoryStats::inc(&self.stats.blocks_allocated);
        MemoryStats::inc(&self.stats.blocks_live);
        if attempt > 0 {
            MemoryStats::inc(&self.stats.oom_recoveries);
        }
    }

    /// One rung of the budget-exhaustion recovery ladder.
    fn recover_memory(&self, attempt: u32) {
        // (1) Free whatever is already epoch-ready.
        let mut freed = self.drain_graveyard();
        self.indirection.drain_deferred(self.global_epoch());
        // (2) Ripen limbo memory: graveyard blocks and deferred entries wait
        // for epochs, so force one advance unless a compaction reserved it.
        let (advanced, ripened) = self.advance_and_drain();
        if advanced {
            MemoryStats::inc(&self.stats.emergency_epoch_advances);
        }
        freed += ripened;
        smc_obs::trace::emit(smc_obs::Event::RecoveryStep {
            attempt: attempt as u64,
            freed_blocks: freed as u64,
            advanced,
        });
        if ripened > 0 {
            return;
        }
        // (3) Last rung: claw shard-cached spares back from every thread.
        // Only at the final attempt — recycled spares are the fast path's
        // whole point, so they are sacrificed only when the alternative is
        // conceding OutOfMemory.
        if attempt >= MAX_ALLOC_ATTEMPTS && self.alloc.trim(&self.stats) > 0 {
            return;
        }
        // (4) Capped backoff: concurrent removals/compactions may free blocks.
        crate::sync::backoff(attempt);
    }

    /// Returns a block handed out by [`allocate_block`](Self::allocate_block)
    /// (or the graveyard's epoch-delayed equivalent). The memory is parked
    /// on its owner's allocation shard for recycling when the cache has
    /// room; otherwise it goes back to the OS and frees its budget
    /// reservation.
    ///
    /// Callers must guarantee no thread can still dereference into the
    /// block — either because it was never published or because its burial
    /// epoch passed (the graveyard handles the latter).
    pub fn free_block(&self, block: BlockRef) {
        MemoryStats::inc(&self.stats.blocks_freed);
        self.stats.blocks_live.fetch_sub(1, Ordering::Relaxed);
        self.release_block(block);
    }

    /// Routes a retired block's memory: shard cache, owner's remote return
    /// queue, or OS. Does not touch the handout gauges — callers do.
    fn release_block(&self, block: BlockRef) {
        let owner = block.header().owner_shard.load(Ordering::Relaxed);
        let base = unsafe { block.retire() };
        if owner == 0 {
            // Hand-allocated outside the runtime's budget (tests, fixtures):
            // never reserved, so nothing to unreserve or recycle.
            unsafe { raw_dealloc_block(base) };
            return;
        }
        let budget = self.budget_bytes.load(Ordering::Relaxed);
        let over_budget = budget != u64::MAX
            && self
                .alloc
                .budgeted_blocks()
                .saturating_mul(BLOCK_SIZE as u64)
                > budget;
        if owner != u32::MAX && !over_budget {
            // Recycle. The freeing thread keeps blocks it owns; foreign
            // blocks go home via the owner's MPSC return queue.
            let target = (owner - 1) as usize;
            if self.alloc.shard_cached(target) < MAX_SHARD_CACHE {
                match self.epochs.thread_index() {
                    Ok(me) if me == target => {
                        self.alloc.push_local(target, base as u64);
                        return;
                    }
                    Ok(_) => {
                        MemoryStats::inc(&self.stats.remote_frees);
                        self.alloc.push_remote(target, base as u64);
                        return;
                    }
                    Err(_) => {} // registry exhausted: fall through to OS
                }
            }
        }
        // Shardless owner, overshoot settlement, cache cap, or unregistered
        // freeing thread: return the memory and its reservation.
        unsafe { raw_dealloc_block(base) };
        self.alloc.unreserve(1);
    }

    /// Drains the calling thread's remote return queue into its local free
    /// list, returning the number of blocks reclaimed. Worker pools and
    /// server shards call this on their idle/maintenance ticks so remote
    /// frees do not sit in limbo until the owner's next allocation.
    pub fn alloc_maintenance(&self) -> u64 {
        match self.epochs.thread_index() {
            Ok(idx) => self.alloc.drain_remote(idx, &self.stats),
            Err(_) => 0,
        }
    }

    /// Pre-faults up to `n` fresh blocks into the calling thread's shard
    /// cache (subject to budget) — one mapping, populated in one kernel
    /// pass — so a worker's first allocations skip the slow path. The cache
    /// never grows past [`MAX_SHARD_CACHE`], the cap frees enforce. Returns
    /// the number of blocks parked.
    pub fn prewarm_local_blocks(&self, n: u64) -> u64 {
        let Ok(idx) = self.epochs.thread_index() else {
            return 0;
        };
        let room = MAX_SHARD_CACHE.saturating_sub(self.alloc.shard_cached(idx));
        let budget = self.budget_bytes.load(Ordering::Relaxed);
        let granted = self.alloc.reserve(budget, n.min(room));
        let Some(blocks) = self.map_grant(granted) else {
            return 0;
        };
        blocks.for_each(|spare| self.alloc.push_local(idx, spare as u64));
        granted
    }

    /// Point-in-time view of the allocation layer (shard caches, budget
    /// gauge) for `HeapSnapshot` and `smc-top`.
    pub fn alloc_snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            budgeted_blocks: self.alloc.budgeted_blocks(),
            cached_blocks: self.alloc.cached_blocks(),
            blocks_recycled: MemoryStats::get(&self.stats.blocks_recycled),
            remote_frees: MemoryStats::get(&self.stats.remote_frees),
            remote_frees_drained: MemoryStats::get(&self.stats.remote_frees_drained),
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
    /// owner's shard cache, or the OS past the cache cap).
    pub fn bury_block(&self, block: BlockRef, free_at: u64) {
        self.graveyard.lock().push((block, free_at));
        self.reclaim_pending
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Hands a spill stub (raw `Box<SpillStub>` address, tag bit stripped)
    /// to the stub graveyard, to be freed once the global epoch reaches
    /// `free_at` — after which no pinned reader can still hold the tagged
    /// payload it came from.
    pub(crate) fn bury_stub(&self, stub_addr: usize, free_at: u64) {
        self.stub_graveyard.lock().push((stub_addr, free_at));
        self.reclaim_pending
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// The §3.5 lazy advance, in one place: unless a compaction holds the
    /// relocation reservation, tries to move the global epoch forward once
    /// (counted in `epoch_advances`), then frees whatever the graveyards hold
    /// that is ripe. Called where memory is known to wait on the clock —
    /// queued limbo blocks in `acquire_block`, the recovery ladder, and
    /// wherever the residency protocol buries a block or stub — because
    /// nothing else advances it (§3.4). Returns whether the epoch moved and
    /// how many blocks were freed.
    pub(crate) fn advance_and_drain(&self) -> (bool, usize) {
        let advanced = self.next_relocation_epoch() == 0 && self.epochs.try_advance().is_some();
        if advanced {
            MemoryStats::inc(&self.stats.epoch_advances);
        }
        (advanced, self.drain_graveyard())
    }

    /// Opportunistically frees graveyard blocks whose epoch has passed.
    /// Called from allocation slow paths; also usable directly. The common
    /// nothing-pending case is one uninstrumented atomic load — no locks.
    pub fn drain_graveyard(&self) -> usize {
        if self
            .reclaim_pending
            .load(std::sync::atomic::Ordering::Relaxed)
            == 0
        {
            return 0;
        }
        let now = self.global_epoch();
        let mut yard = self.graveyard.lock();
        let before = yard.len();
        yard.retain(|(block, free_at)| {
            if *free_at <= now {
                self.free_block(*block);
                false
            } else {
                true
            }
        });
        let freed = before - yard.len();
        drop(yard);
        // Ripe spill stubs ride the same epoch discipline but are not blocks:
        // they do not count toward the returned total or the block gauges.
        let mut stubs = self.stub_graveyard.lock();
        let sbefore = stubs.len();
        stubs.retain(|(addr, free_at)| {
            if *free_at <= now {
                drop(unsafe { Box::from_raw(*addr as *mut crate::spill::SpillStub) });
                false
            } else {
                true
            }
        });
        let sfreed = sbefore - stubs.len();
        drop(stubs);
        if freed + sfreed > 0 {
            self.reclaim_pending.fetch_sub(
                (freed + sfreed) as u64,
                std::sync::atomic::Ordering::Relaxed,
            );
        }
        freed
    }

    /// Number of blocks awaiting burial.
    pub fn graveyard_len(&self) -> usize {
        self.graveyard.lock().len()
    }

    /// Number of spill stubs awaiting burial.
    pub fn stub_graveyard_len(&self) -> usize {
        self.stub_graveyard.lock().len()
    }

    /// Advances epochs until every graveyard block is freed. Used by tests
    /// and shutdown paths; must not be called while this thread holds a
    /// [`Guard`] (the epoch could then never advance far enough).
    pub fn drain_graveyard_blocking(&self) {
        while self.graveyard_len() > 0 {
            if self.drain_graveyard() == 0 {
                let _ = self.epochs.try_advance();
                crate::sync::cpu_relax();
            }
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // No Arc<Runtime> clones remain, so no guard obtained from this
        // runtime can still be alive; every graveyard block is quiescent.
        let mut yard = self.graveyard.lock();
        for (block, _) in yard.drain(..) {
            unsafe { block.deallocate() };
        }
        drop(yard);
        let mut stubs = self.stub_graveyard.lock();
        for (addr, _) in stubs.drain(..) {
            drop(unsafe { Box::from_raw(addr as *mut crate::spill::SpillStub) });
        }
        drop(stubs);
        // `alloc` frees its shard caches when the field drops after this
        // body.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{type_id_of, BlockLayout};

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

    #[test]
    fn graveyard_respects_epochs() {
        let rt = Runtime::new();
        let layout = BlockLayout::rows_of::<u64>().unwrap();
        let b = BlockRef::allocate(&layout, type_id_of::<u64>(), 1).unwrap();
        MemoryStats::inc(&rt.stats.blocks_live);
        rt.bury_block(b, 2);
        assert_eq!(rt.drain_graveyard(), 0, "epoch 0 < 2: must not free");
        rt.epochs.try_advance();
        rt.epochs.try_advance();
        assert_eq!(rt.drain_graveyard(), 1);
        assert_eq!(rt.graveyard_len(), 0);
        assert_eq!(MemoryStats::get(&rt.stats.blocks_freed), 1);
    }

    #[test]
    fn drain_blocking_advances_epochs() {
        let rt = Runtime::new();
        let layout = BlockLayout::rows_of::<u64>().unwrap();
        let b = BlockRef::allocate(&layout, type_id_of::<u64>(), 1).unwrap();
        MemoryStats::inc(&rt.stats.blocks_live);
        rt.bury_block(b, 5);
        rt.drain_graveyard_blocking();
        assert!(rt.global_epoch() >= 5);
        assert_eq!(rt.graveyard_len(), 0);
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
    fn budget_exhaustion_surfaces_out_of_memory() {
        // A two-block budget: the third allocation must fail with an error,
        // not a panic, after exhausting the recovery ladder. The batched
        // grant parks the budget's second block in this thread's shard
        // cache, so the second allocation is a recycling fast-path hit.
        let rt = Runtime::with_budget(Some(2 * BLOCK_SIZE as u64));
        assert_eq!(rt.memory_budget(), Some(2 * BLOCK_SIZE as u64));
        let layout = BlockLayout::rows_of::<u64>().unwrap();
        let a = rt.allocate_block(&layout, 1, 1).unwrap();
        assert_eq!(MemoryStats::get(&rt.stats.alloc_batch_refills), 1);
        let b = rt.allocate_block(&layout, 1, 1).unwrap();
        assert_eq!(MemoryStats::get(&rt.stats.blocks_recycled), 1);
        let third = rt.allocate_block(&layout, 1, 1);
        assert!(matches!(third, Err(MemError::OutOfMemory)));
        assert_eq!(
            MemoryStats::get(&rt.stats.alloc_retries),
            u64::from(MAX_ALLOC_ATTEMPTS)
        );
        assert_eq!(
            MemoryStats::get(&rt.stats.blocks_live),
            2,
            "failed attempt must not leak budget"
        );
        assert_eq!(rt.alloc.budgeted_blocks(), 2);
        // Raising the budget unblocks allocation.
        rt.set_memory_budget(Some(3 * BLOCK_SIZE as u64));
        let c = rt.allocate_block(&layout, 1, 1).unwrap();
        for blk in [a, b, c] {
            rt.bury_block(blk, 0);
        }
        rt.drain_graveyard();
        rt.verify().unwrap();
    }

    #[test]
    fn refused_mapping_is_out_of_memory_and_gives_the_reservation_back() {
        use crate::block::tests::MAPS_REFUSED;
        let rt = Runtime::new();
        let layout = BlockLayout::rows_of::<u64>().unwrap();
        MAPS_REFUSED.set(true);
        let gated = rt.allocate_block(&layout, 1, 1);
        let forced = rt.allocate_block_unbudgeted(&layout, 1, 1);
        let prewarmed = rt.prewarm_local_blocks(3);
        MAPS_REFUSED.set(false);
        assert!(matches!(gated, Err(MemError::OutOfMemory)));
        assert!(matches!(forced, Err(MemError::OutOfMemory)));
        assert_eq!(prewarmed, 0);
        assert_eq!(
            MemoryStats::get(&rt.stats.alloc_retries),
            2 * u64::from(MAX_ALLOC_ATTEMPTS),
            "a refused mapping climbs the ladder like a zero grant"
        );
        assert_eq!(rt.alloc.budgeted_blocks(), 0, "every grant handed back");
        assert_eq!(MemoryStats::get(&rt.stats.blocks_allocated), 0);
        rt.verify().unwrap();
        // The OS relents: the same runtime allocates again.
        let b = rt.allocate_block(&layout, 1, 1).unwrap();
        rt.free_block(b);
        rt.verify().unwrap();
    }

    #[test]
    fn recovery_ladder_frees_graveyard_and_succeeds() {
        let rt = Runtime::with_budget(Some(BLOCK_SIZE as u64));
        let layout = BlockLayout::rows_of::<u64>().unwrap();
        let a = rt.allocate_block(&layout, 1, 1).unwrap();
        // The only budgeted block sits in the graveyard two epochs out; the
        // ladder must advance epochs, drain it into the shard cache, and
        // then recycle it.
        rt.bury_block(a, rt.global_epoch() + 2);
        let b = rt
            .allocate_block(&layout, 1, 1)
            .expect("recovery ladder should free the graveyard");
        assert_eq!(MemoryStats::get(&rt.stats.oom_recoveries), 1);
        assert_eq!(MemoryStats::get(&rt.stats.blocks_recycled), 1);
        assert!(MemoryStats::get(&rt.stats.emergency_epoch_advances) >= 1);
        assert!(MemoryStats::get(&rt.stats.alloc_retries) >= 1);
        rt.bury_block(b, 0);
        rt.drain_graveyard();
    }

    #[test]
    fn final_ladder_rung_trims_foreign_shard_caches() {
        // Budget of one block, parked in another shard's cache: only the
        // trim rung can claw it back for this thread.
        let rt = Runtime::with_budget(Some(BLOCK_SIZE as u64));
        let me = rt.epochs.thread_index().unwrap();
        let foreign = (me + 1) % crate::epoch::MAX_THREADS;
        assert_eq!(rt.alloc.reserve(BLOCK_SIZE as u64, 1), 1);
        let spare = raw_alloc_blocks(1).unwrap().next().unwrap();
        rt.alloc.push_local(foreign, spare as u64);
        let layout = BlockLayout::rows_of::<u64>().unwrap();
        let b = rt
            .allocate_block(&layout, 1, 1)
            .expect("trim rung must reclaim the foreign cache");
        assert_eq!(MemoryStats::get(&rt.stats.blocks_trimmed), 1);
        rt.free_block(b);
        rt.verify().unwrap();
    }

    #[test]
    fn registry_exhausted_thread_allocates_without_a_shard() {
        let rt = Runtime::new();
        crate::epoch::with_registry_exhausted(&rt.epochs, || {
            // This thread is registrant MAX_THREADS + 1: it has no shard.
            assert!(rt.epochs.thread_index().is_err());
            let layout = BlockLayout::rows_of::<u64>().unwrap();
            let a = rt.allocate_block(&layout, 1, 1).unwrap();
            assert_eq!(a.header().owner_shard.load(Ordering::Relaxed), u32::MAX);
            assert_eq!(rt.alloc.budgeted_blocks(), 1, "one block, no batch");
            assert_eq!(rt.alloc.cached_blocks(), 0);
            rt.free_block(a);
            assert_eq!(rt.alloc.cached_blocks(), 0, "shardless frees go to the OS");
            assert_eq!(rt.alloc.budgeted_blocks(), 0, "reservation released");
            assert_eq!(MemoryStats::get(&rt.stats.blocks_recycled), 0);
            assert_eq!(MemoryStats::get(&rt.stats.alloc_batch_refills), 0);
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
            assert!(rt.epochs.thread_index().is_err());
            // No slot, so no counter cell: the drop's frees land in the
            // shared cell, and the validator's object count still balances.
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
        assert_eq!(
            MemoryStats::get(&rt.stats.alloc_retries),
            0,
            "injected hard failures bypass the recovery ladder"
        );
        assert_eq!(MemoryStats::get(&rt.stats.faults_injected), 1);
        rt.faults().disable();
        let b = rt.allocate_block(&layout, 1, 1).unwrap();
        rt.bury_block(b, 0);
        rt.drain_graveyard();
    }

    #[test]
    fn unbudgeted_runtime_never_reports_budget() {
        let rt = Runtime::new();
        assert_eq!(rt.memory_budget(), None);
        rt.set_memory_budget(Some(1));
        assert_eq!(rt.memory_budget(), Some(1));
        rt.set_memory_budget(None);
        assert_eq!(rt.memory_budget(), None);
    }
}
