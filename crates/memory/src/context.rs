//! Memory contexts (§3.3) — per-collection block groups with slot
//! allocation, epoch-safe reclamation (§3.5) and the membership walk.
//!
//! A [`MemoryContext`] owns the memory blocks of one collection. All objects
//! allocated through a context land in blocks private to it, which gives the
//! collection control over object placement: enumeration order equals block
//! order equals (roughly) insertion order, the spatial-locality property the
//! paper's query performance rests on (§3.3, §4).
//!
//! ## Allocation (§3.5)
//!
//! Allocations are performed from *thread-local blocks*: each thread owns at
//! most one block per context and is the only thread claiming slots in it
//! (removals from the same block may still happen concurrently). The
//! allocator scans the slot directory from the previous allocation's cursor
//! until it finds a `Free` slot or a `Limbo` slot whose removal epoch lies
//! at least two epochs in the past. Exhausted blocks are abandoned; new
//! thread blocks come from the *reclamation queue* — blocks whose limbo
//! fraction crossed the configured threshold — or, if the queue has nothing
//! ready, from the OS. When queued blocks are not yet reclaimable the
//! allocator lazily attempts to advance the global epoch, which is where
//! epoch progress happens in this system (§3.4: "we do not increment the
//! global epoch ... when exiting critical sections, but in the memory
//! manager's allocation function").
//!
//! ## Emptying whole blocks
//!
//! The §5 compaction pass (`compact.rs`, beside `reloc.rs`) and the
//! residency protocol ([`crate::spill`]) are further `impl MemoryContext`
//! blocks in their own files. What they share is here: `claim` / `unclaim`,
//! the one way a block leaves and re-enters slot-level allocation, and
//! `retire`, the one way a block leaves the context. A pass ends in
//! `retire` too: a block it keeps — a destination, or a source it only
//! partly emptied, whose moved-out slots are limbo counted as freed ones
//! are — comes back through `unclaim` there, after the fix-up.
//!
//! ## Retirement and direct pointers (§6)
//!
//! A block leaves a context four ways: a pass emptied it, a pass discarded
//! its unused destination, a spill evicted it, or the context was dropped.
//! Each ends in `retire`, which first runs the §6 fix-up — "for each
//! collection which has direct pointers to the compacted collection, we
//! scan it and fix up direct pointers" — and then buries the blocks, two
//! epochs out. Which collections hold direct pointers into this one, and
//! where, is declared once per field with
//! [`link_direct`](MemoryContext::link_direct): the target keeps each link
//! with its holder held weakly. The fix-up walks every linked holder's
//! resident objects and probes each linked pointer's block base in a hash
//! table of the retired blocks and the blocks a pass keeps; a hit is set to
//! where the object lives now (the tombstone chase of [`DirectPtr`]) or,
//! when no resident address is left (the object was freed or spilled), cleared to
//! `None`. The fix-up holds the runtime's compaction mutex, so no pass of a
//! holder copies an object while its pointers are rewritten. A holder's own
//! spill clears its linked fields in every object it copies into a page, so
//! no page carries a direct pointer. No linked pointer therefore outlives
//! its block's residency, with one exception: a pointer that an add or an
//! update of the holder stores into a linked field while its target retires
//! the block. The fix-up may have passed that slot before the store lands.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::time::Duration;

use smc_util::sync::{fence, AtomicU64, AtomicUsize, Mutex, RwLock};

use crate::block::{BlockLayout, BlockRef, BLOCK_SIZE};
pub use crate::compact::{CompactionGroup, CompactionReport};
use crate::epoch::{Guard, Slot};
use crate::error::MemError;
use crate::indirection::EntryRef;
use crate::reloc::{DirectField, DirectPtr};
use crate::runtime::{Grave, Runtime};
use crate::slot::{self, SlotId, SlotState};
use crate::spill::{self, SpillState};
use crate::stats::MemoryStats;
use smc_util::mutation::{self, Mutation};

/// Tunables of a context.
#[derive(Debug, Clone, Copy)]
pub struct ContextConfig {
    /// Fraction of limbo slots above which a block joins the reclamation
    /// queue. The paper sweeps this in Fig 6 and settles on 5 %.
    pub reclamation_threshold: f64,
    /// Occupancy below which a block participates in compaction (§5.2's
    /// example uses 30 %).
    pub compaction_occupancy: f64,
    /// How long the compaction thread waits for epoch transitions or query
    /// counters before bailing out (§5.2: "bails out of compacting a certain
    /// group after waiting for a predefined amount of time").
    pub compaction_patience: Duration,
    /// Per-context footprint budget in bytes, `None` for unlimited. When the
    /// next fresh block would push [`MemoryContext::bytes`] past this cap,
    /// allocation falls back to reclaimable blocks only and surfaces
    /// [`MemError::OutOfMemory`] once those run dry. It is the memory
    /// system's only budget: the serve layer bounds each tenant with one,
    /// without starving its neighbours. Compaction destination blocks are
    /// exempt — compaction is the mechanism that gets an over-budget
    /// context *back under* its cap — but they count: while a pass is in
    /// flight, `bytes` holds its sources and its destinations, so the gate
    /// refuses adds that fit once the pass publishes. At publish the
    /// emptied sources stop counting, before they are buried.
    pub budget_bytes: Option<u64>,
}

impl Default for ContextConfig {
    fn default() -> Self {
        ContextConfig {
            reclamation_threshold: 0.05,
            compaction_occupancy: 0.30,
            compaction_patience: Duration::from_millis(100),
            budget_bytes: None,
        }
    }
}

/// A claimed slot, ready to carry a new object.
#[derive(Debug, Clone, Copy)]
pub struct Allocation {
    /// The object's indirection entry (already pointing at the slot).
    pub entry: EntryRef,
    /// Incarnation counter of the entry, to embed in references.
    pub entry_inc: u32,
    /// Incarnation counter of the slot, to embed in direct pointers.
    pub slot_inc: u32,
    /// Host block.
    pub block: BlockRef,
    /// Slot within the block.
    pub slot: SlotId,
}

/// Atomic view of which blocks and groups an enumeration must visit — the
/// one snapshot shape behind every scan.
///
/// The snapshot divides into *units*, indexed `0..units()`: one per regular
/// block (in collection order), then one per in-flight compaction group. A
/// group is deliberately one unit, not one per member block: the §5.2
/// protocol reads a group either entirely pre-relocation or entirely
/// post-relocation, so exactly one reader must make that choice for the
/// whole group ([`CompactionGroup::read`]). A sequential scan visits units
/// in order; a parallel scan hands out unit indices from a cursor; the pull
/// iterator keeps one [`UnitRead`] open at a time.
///
/// The caller must pin an epoch guard *before* taking the snapshot and hold
/// it until the scan completes: while any reader sits in epoch `e` the
/// global epoch can reach at most `e + 1`, and a compaction announced after
/// the snapshot needs the global epoch to reach its relocation epoch plus
/// one (`≥ e + 2`) before it may move objects — so no block in the snapshot
/// can have objects relocated out from under the scan.
#[derive(Debug, Default, Clone)]
pub struct Membership {
    /// Regular blocks, in collection order.
    pub blocks: Vec<BlockRef>,
    /// In-flight compaction groups.
    pub groups: Vec<Arc<CompactionGroup>>,
}

impl Membership {
    /// Number of scan units.
    #[inline]
    pub fn units(&self) -> usize {
        self.blocks.len() + self.groups.len()
    }

    /// Every block the snapshot covers: the regular blocks, then each
    /// group's sources and dest.
    pub(crate) fn owned_blocks(&self) -> impl Iterator<Item = BlockRef> + '_ {
        let regular = self.blocks.iter().copied();
        let grouped = self.groups.iter();
        regular.chain(grouped.flat_map(|g| g.sources.iter().copied().chain([g.dest])))
    }

    /// Opens unit `i` for reading.
    ///
    /// # Panics
    /// If `i >= units()`.
    #[inline]
    pub fn read_unit(&self, i: usize, guard: &Guard<'_>, stats: &MemoryStats) -> UnitRead {
        match self.blocks.get(i) {
            Some(&block) => UnitRead {
                first: Some(block),
                group: None,
            },
            None => self.groups[i - self.blocks.len()].read(guard, stats),
        }
    }

    /// Calls `f` once per block that a scan of unit `i` must visit.
    #[inline]
    pub fn visit_unit(
        &self,
        i: usize,
        guard: &Guard<'_>,
        stats: &MemoryStats,
        mut f: impl FnMut(BlockRef),
    ) {
        match self.blocks.get(i) {
            // The common case needs no reader: a plain block is its own unit.
            Some(&block) => f(block),
            // A plain loop, not `blocks().for_each(f)`: `f` carries the
            // caller's slot loop, which must inline here rather than into
            // `Chain::fold`.
            None => {
                for block in self.read_unit(i, guard, stats).blocks() {
                    f(block);
                }
            }
        }
    }

    /// The sequential scan: every unit in order.
    #[inline]
    pub fn for_each_block(
        &self,
        guard: &Guard<'_>,
        stats: &MemoryStats,
        mut f: impl FnMut(BlockRef),
    ) {
        for i in 0..self.units() {
            self.visit_unit(i, guard, stats, &mut f);
        }
    }
}

/// One open scan unit of a [`Membership`]: the blocks to visit and, for a
/// compaction group whose pre-relocation state is pinned
/// ([`CompactionGroup::read`]), the query-counter pin — released on drop.
#[derive(Debug)]
pub struct UnitRead {
    /// Visited first: the plain block, or a group's dest when the group is
    /// read post-relocation.
    pub(crate) first: Option<BlockRef>,
    /// The group whose sources follow, and whether its pre-state is pinned.
    pub(crate) group: Option<(Arc<CompactionGroup>, bool)>,
}

impl UnitRead {
    /// The blocks of the unit, in visiting order.
    #[inline]
    pub fn blocks(&self) -> impl Iterator<Item = BlockRef> + '_ {
        let sources = self.group.as_ref().map_or(&[][..], |(g, _)| &g.sources);
        self.first.into_iter().chain(sources.iter().copied())
    }
}

impl Drop for UnitRead {
    fn drop(&mut self) {
        if let Some((group, true)) = &self.group {
            group.query_counter.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// A holder's direct-pointer field into a context ([`MemoryContext::link_direct`]).
#[derive(Debug)]
struct Link {
    /// Weak: a link must not keep a dropped holder alive.
    holder: Weak<MemoryContext>,
    field: Arc<dyn DirectField>,
}

/// A per-collection group of typed memory blocks.
#[derive(Debug)]
pub struct MemoryContext {
    pub(crate) runtime: Arc<Runtime>,
    pub(crate) id: u64,
    pub(crate) type_id: u64,
    pub(crate) layout: BlockLayout,
    /// Alignment of one object (row layouts; 1 for columnar stores).
    pub(crate) obj_align: usize,
    pub(crate) config: ContextConfig,
    pub(crate) membership: RwLock<Membership>,
    /// Current allocation block per thread slot (block header address),
    /// indexed by the holder's [`Slot`].
    thread_blocks: Box<[AtomicUsize]>,
    /// Blocks with enough limbo slots to be worth reusing, with the epoch at
    /// which they become reclaimable.
    reclaim_queue: Mutex<VecDeque<(BlockRef, u64)>>,
    /// The holders' fields that point into this context: what
    /// [`retire`](Self::retire) fixes up before it buries a block.
    links: Mutex<Vec<Link>>,
    /// Spill state ([`crate::spill`]): the page store, the spilled-page
    /// list, and a weak self-handle for stubs. One mutex covers spill,
    /// fault-in and a scan's listing of the pages — the holder is the only
    /// possible writer of a tagged entry payload.
    pub(crate) spill: Mutex<SpillState>,
    /// Blocks currently spilled to the page store (gauge).
    pub(crate) spilled_blocks_gauge: AtomicU64,
    /// Objects living in spilled pages (gauge); lets
    /// [`live_objects`](Self::live_objects) answer without the spill mutex.
    pub(crate) spilled_objects_gauge: AtomicU64,
}

impl MemoryContext {
    /// Creates a row-layout context for objects of the given size/alignment.
    pub fn new_rows(
        runtime: Arc<Runtime>,
        obj_size: usize,
        obj_align: usize,
        type_id: u64,
        config: ContextConfig,
    ) -> Result<MemoryContext, MemError> {
        let layout = BlockLayout::rows(obj_size, obj_align)?;
        Ok(Self::with_layout(
            runtime, layout, obj_align, type_id, config,
        ))
    }

    /// Creates a columnar context whose objects are cells of the given
    /// widths ([`BlockLayout::columnar`]).
    pub fn new_columnar(
        runtime: Arc<Runtime>,
        column_widths: &[usize],
        type_id: u64,
        config: ContextConfig,
    ) -> Result<MemoryContext, MemError> {
        let layout = BlockLayout::columnar(column_widths)?;
        Ok(Self::with_layout(runtime, layout, 1, type_id, config))
    }

    fn with_layout(
        runtime: Arc<Runtime>,
        layout: BlockLayout,
        obj_align: usize,
        type_id: u64,
        config: ContextConfig,
    ) -> MemoryContext {
        let id = runtime.next_context_id();
        let thread_blocks = (0..crate::epoch::MAX_THREADS)
            .map(|_| AtomicUsize::new(0))
            .collect::<Vec<_>>();
        MemoryContext {
            runtime,
            id,
            type_id,
            layout,
            obj_align,
            config,
            membership: RwLock::new(Membership::default()),
            thread_blocks: thread_blocks.into_boxed_slice(),
            reclaim_queue: Mutex::new(VecDeque::new()),
            links: Mutex::new(Vec::new()),
            spill: Mutex::new(SpillState::default()),
            spilled_blocks_gauge: AtomicU64::new(0),
            spilled_objects_gauge: AtomicU64::new(0),
        }
    }

    /// The owning runtime.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.runtime
    }

    /// This context's identifier.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Identity of the object type hosted by this context's blocks.
    pub fn type_id(&self) -> u64 {
        self.type_id
    }

    /// Block geometry used by this context.
    pub fn layout(&self) -> &BlockLayout {
        &self.layout
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ContextConfig {
        &self.config
    }

    /// Atomic snapshot of the blocks and groups an enumeration must visit.
    pub fn membership_snapshot(&self) -> Membership {
        self.membership.read().clone()
    }

    /// Number of blocks currently owned (regular + group sources + dests).
    pub fn block_count(&self) -> usize {
        let m = self.membership.read();
        m.blocks.len() + m.groups.iter().map(|g| g.sources.len() + 1).sum::<usize>()
    }

    /// Total off-heap bytes owned by this context: its regular blocks, plus
    /// the sources and destinations of an in-flight pass. The sources a pass
    /// emptied stop counting when it publishes, and are retired right after.
    pub fn bytes(&self) -> usize {
        self.block_count() * BLOCK_SIZE
    }

    // ------------------------------------------------------------------
    // Allocation and free (§3.5)
    // ------------------------------------------------------------------

    /// Allocates a slot and wires its indirection entry. `init` runs after
    /// the slot is claimed but *before* it becomes visible to enumerations,
    /// so it must fully initialize the object's bytes.
    pub fn alloc_with(&self, init: impl FnOnce(&BlockRef, SlotId)) -> Result<Allocation, MemError> {
        let me = self.runtime.thread_slot()?;
        let stats = &self.runtime.stats;
        loop {
            let block = match self.current_thread_block(me) {
                Some(b) => b,
                None => self.acquire_block(me)?,
            };
            let header = block.header();
            let now = self.runtime.global_epoch();
            let mut cursor = header.alloc_cursor.load(Ordering::Relaxed);
            let mut scanned = 0u64;
            let claimed = loop {
                if cursor >= header.capacity {
                    break None;
                }
                scanned += 1;
                let word = block.slot_word(cursor).load(Ordering::Acquire);
                match slot::state_of(word) {
                    SlotState::Free => break Some(cursor),
                    SlotState::Limbo if slot::reclaimable(slot::epoch_of(word), now) => {
                        header.limbo_count.fetch_sub(1, Ordering::Relaxed);
                        MemoryStats::inc(&stats.slots_reclaimed);
                        break Some(cursor);
                    }
                    _ => cursor += 1,
                }
            };
            stats.bump(me, |cell| &cell.alloc_scan_steps, scanned);
            match claimed {
                Some(slot_id) => {
                    header.alloc_cursor.store(slot_id + 1, Ordering::Relaxed);
                    return Ok(self.wire_slot(me, block, slot_id, init));
                }
                None => {
                    // Block exhausted: abandon it and fetch another.
                    header
                        .alloc_cursor
                        .store(header.capacity, Ordering::Relaxed);
                    self.abandon_thread_block(me, block);
                }
            }
        }
    }

    fn wire_slot(
        &self,
        me: Slot<'_>,
        block: BlockRef,
        slot_id: SlotId,
        init: impl FnOnce(&BlockRef, SlotId),
    ) -> Allocation {
        let stats = &self.runtime.stats;
        let entry = self.runtime.indirection.allocate(me);
        // The fill resets the slot: no flag a former tenant left (a
        // tombstone's FORWARD), and a counter past any pointer taken before.
        let slot_inc = block.payload_inc(slot_id).bump_exclusive();
        let entry_inc = entry.get().inc().incarnation();
        // Initialize object bytes before publishing the slot as Valid.
        init(&block, slot_id);
        block
            .back_ptr(slot_id)
            .store(entry.addr(), Ordering::Release);
        entry
            .get()
            .store_payload(block.payload(slot_id), Ordering::Release);
        block.slot_word(slot_id).set_valid();
        block.header().valid_count.fetch_add(1, Ordering::Relaxed);
        stats.bump(me, |cell| &cell.objects_allocated, 1);
        Allocation {
            entry,
            entry_inc,
            slot_inc,
            block,
            slot: slot_id,
        }
    }

    fn current_thread_block(&self, me: Slot<'_>) -> Option<BlockRef> {
        let addr = self.thread_blocks[me.index()].load(Ordering::Acquire);
        if addr == 0 {
            None
        } else {
            Some(unsafe { BlockRef::from_interior_ptr(addr as *const u8) })
        }
    }

    fn abandon_thread_block(&self, me: Slot<'_>, block: BlockRef) {
        self.thread_blocks[me.index()].store(0, Ordering::Release);
        block.header().active_owner.store(0, Ordering::Release);
        // A full block may already deserve a spot in the reclamation queue
        // (its removals were deferred while we owned it).
        self.maybe_enqueue_for_reclamation(block);
    }

    fn adopt_thread_block(&self, me: Slot<'_>, block: BlockRef) {
        block
            .header()
            .active_owner
            .store(me.index() as u32 + 1, Ordering::Release);
        self.thread_blocks[me.index()].store(block.base() as usize, Ordering::Release);
    }

    fn acquire_block(&self, me: Slot<'_>) -> Result<BlockRef, MemError> {
        self.runtime.drain_graveyard();
        // Prefer a reclaimable block from the queue (§3.5).
        if let Some(block) = self.pop_reclaimable(me) {
            return Ok(block);
        }
        // Blocks may be waiting on epochs: lazily advance (§3.5) and look
        // again.
        if !self.reclaim_queue.lock().is_empty() {
            self.runtime.advance_and_drain();
            if let Some(block) = self.pop_reclaimable(me) {
                return Ok(block);
            }
        }
        // The budget gate: reclaimable blocks recycled above do not grow
        // the footprint, but a fresh block would. A queued block ripens two
        // epochs after it was queued and the advance above moved the clock
        // once, so one more advance may ripen it. The spill rung runs next
        // — evicting one cold block to the page store frees exactly the
        // footprint the fresh block needs, turning budget pressure into a
        // larger-than-memory context instead of an error. Contexts without
        // a page store get a clean error here — never a crash, and never a
        // runtime-wide stall. The gate is check-then-act: racing allocators
        // may each pass it, overshooting by one block per racer.
        if let Some(budget) = self.config.budget_bytes {
            if (self.bytes() + BLOCK_SIZE) as u64 > budget {
                let queued = !self.reclaim_queue.lock().is_empty();
                if queued && self.runtime.advance_and_drain() {
                    if let Some(block) = self.pop_reclaimable(me) {
                        return Ok(block);
                    }
                }
                if !self.try_spill_one() {
                    MemoryStats::inc(&self.runtime.stats.context_budget_rejections);
                    return self.pop_reclaimable(me).ok_or(MemError::OutOfMemory);
                }
                // The victim waits two epochs in the graveyard, and a load
                // is the only thing running: move the clock here, so the
                // victim of two spills ago is the block handed out below.
                self.runtime.advance_and_drain();
            }
        }
        // Nothing reclaimable: a fresh block, subject to the `BlockAlloc`
        // failpoint and to the OS.
        let fresh = || {
            let block = self
                .runtime
                .allocate_block(&self.layout, self.type_id, self.id)?;
            self.adopt_thread_block(me, block);
            self.membership.write().blocks.push(block);
            Ok(block)
        };
        fresh().or_else(|e| {
            // The allocation failed (an injected fault or the OS refusing):
            // retry once after the spill rung has shrunk this context, and
            // fall back on a queued block that matured meanwhile, before
            // surfacing the error.
            if self.try_spill_one() {
                if let Ok(block) = fresh() {
                    return Ok(block);
                }
            }
            self.pop_reclaimable(me).ok_or(e)
        })
    }

    /// Pops the reclaim queue's front block if its epoch has matured, resets
    /// its allocation cursor, and adopts it for the holder of `me`.
    ///
    /// Adoption happens *while holding the queue lock*: compaction's
    /// candidate selection takes the same lock and requires
    /// `active_owner == 0`, so releasing the lock before claiming ownership
    /// would let a concurrent pass freeze — and later retire and free — the
    /// block this thread is about to allocate from.
    fn pop_reclaimable(&self, me: Slot<'_>) -> Option<BlockRef> {
        let mut q = self.reclaim_queue.lock();
        let &(block, ready_at) = q.front()?;
        if ready_at > self.runtime.global_epoch() {
            return None;
        }
        q.pop_front();
        debug_assert_eq!(
            block.header().compacting.load(Ordering::Acquire),
            0,
            "a queued block cannot be mid-compaction"
        );
        block.header().in_reclaim_queue.store(0, Ordering::Release);
        block.header().alloc_cursor.store(0, Ordering::Relaxed);
        self.adopt_thread_block(me, block);
        drop(q);
        Some(block)
    }

    fn maybe_enqueue_for_reclamation(&self, block: BlockRef) {
        let header = block.header();
        if header.active_owner.load(Ordering::Acquire) != 0 {
            return; // the owning thread will enqueue on abandon
        }
        if header.compacting.load(Ordering::Acquire) != 0 {
            return; // compaction will empty it anyway
        }
        if block.limbo_fraction() <= self.config.reclamation_threshold {
            return;
        }
        let mut q = self.reclaim_queue.lock();
        // Re-check under the lock candidate selection also holds: a pass
        // that claimed this block between the screen above and the lock
        // acquisition must not find it (re)enqueued behind its back — it
        // may be about to retire, bury and free it.
        if header.compacting.load(Ordering::Acquire) != 0 {
            return;
        }
        if header
            .in_reclaim_queue
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            let ready_at = self.runtime.global_epoch() + 2;
            q.push_back((block, ready_at));
        }
    }

    /// Claims up to `limit` blocks of regular membership that satisfy
    /// `wanted`, for a compaction pass or a spill to empty wholesale: a
    /// claimed block has no owning thread, carries `compacting = 1` (which
    /// turns away frees that would enqueue it, and every other claimer) and
    /// sits in no reclamation queue — wholesale emptying supersedes
    /// slot-level reuse. The queue lock is held across the selection so no
    /// allocator can adopt a block while it is being pulled out.
    pub(crate) fn claim(&self, limit: usize, wanted: impl Fn(&BlockRef) -> bool) -> Vec<BlockRef> {
        let m = self.membership.read();
        let mut q = self.reclaim_queue.lock();
        let claimable = |b: &&BlockRef| {
            let h = b.header();
            wanted(b)
                && h.active_owner.load(Ordering::Acquire) == 0
                && h.compacting
                    .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
        };
        let claimed: Vec<BlockRef> = m
            .blocks
            .iter()
            .filter(claimable)
            .take(limit)
            .copied()
            .collect();
        for b in &claimed {
            if b.header().in_reclaim_queue.swap(0, Ordering::AcqRel) == 1 {
                q.retain(|(qb, _)| qb != b);
            }
        }
        claimed
    }

    /// Returns claimed blocks that were not emptied to slot-level
    /// allocation. The claim dequeued them and turned frees away meanwhile,
    /// so each is re-screened for the reclamation queue here — else its limbo
    /// slots stay unreachable until some later free happens to land on it.
    pub(crate) fn unclaim(&self, blocks: impl IntoIterator<Item = BlockRef>) {
        for block in blocks {
            block.header().compacting.store(0, Ordering::Release);
            self.maybe_enqueue_for_reclamation(block);
        }
    }

    /// Frees the object behind `entry` if its entry incarnation still equals
    /// `expected_entry_inc`. Returns false when the object was already
    /// removed (remove is idempotent per reference, §2). Panics if the
    /// calling thread cannot register with the epoch system or the object
    /// sits in a spilled page that cannot be faulted back in; use
    /// [`try_free`](Self::try_free) where those must be errors.
    pub fn free(&self, entry: EntryRef, expected_entry_inc: u32) -> bool {
        self.try_free(entry, expected_entry_inc)
            .expect("thread registry full or spill fault failed")
    }

    /// Fallible [`free`](Self::free): `Err(MemError::TooManyThreads)` when
    /// the calling thread cannot claim an epoch slot,
    /// `Err(MemError::SpillFault)` when the object lives in a spilled page
    /// that cannot be read back (the free does not happen — fail closed).
    pub fn try_free(&self, entry: EntryRef, expected_entry_inc: u32) -> Result<bool, MemError> {
        // Pin for the whole slot surgery: the moment our decrement below
        // empties the block, a concurrent pass may retire and bury it, and a
        // buried block is freed once the global epoch advances past its
        // grace period — the pin keeps the epoch from getting there while we
        // still write into the block.
        let guard = self.runtime.try_pin()?;
        // Winning the entry lock is what makes us *the* remover (§5.1
        // footnote: free serializes with freeze/lock through the incarnation
        // word). Holding the lock bit — rather than bumping up front — keeps
        // movers out for the whole surgery: a relocation frozen at this
        // incarnation spins at its entry lock until the bump below retires
        // the counter, then dies with `MoveOutcome::Freed`. If a mover got
        // the lock first we spin here instead, and afterwards the payload
        // points at the object's *new* home, which is the one we free.
        let (block, slot_id) = loop {
            let Some(observed) = entry.get().inc().lock(expected_entry_inc) else {
                return Ok(false);
            };
            let payload = entry.get().load_payload(Ordering::Acquire);
            if spill::is_spill_tagged(payload) {
                // The object lives in a spilled page. Bring the page home
                // first — every record in a page is live, so this keeps the
                // invariant that spilled pages never carry dead objects —
                // then retry the lock: the fault-in repointed the entry at a
                // resident slot.
                entry.get().inc().unlock_keep_flags(observed);
                if !spill::fault_in_tagged(payload)? {
                    return Err(MemError::SpillFault);
                }
                continue;
            }
            debug_assert_ne!(payload, 0, "live entry without payload");
            let (block, slot_id) = unsafe { BlockRef::locate(payload) };
            // The other half of the spill's mark-then-fence: with our lock
            // ordered before this load, either the spill waits for our lock
            // or we see its mark.
            fence(Ordering::SeqCst);
            if block.header().compacting.load(Ordering::Relaxed) != spill::SPILLING
                || mutation::enabled(Mutation::FreeIgnoresSpillClaim)
            {
                break (block, slot_id);
            }
            // A spill holds the home block and tags its entries without
            // their locks: step aside until it has tagged this one (retry
            // finds the tag) or given the block back.
            entry.get().inc().unlock_keep_flags(observed);
            drop(self.spill.lock());
        };
        // Invalidate direct pointers.
        block.payload_inc(slot_id).bump_unlocked();
        let epoch = self.runtime.global_epoch();
        block.slot_word(slot_id).set_limbo(epoch);
        block.header().valid_count.fetch_sub(1, Ordering::Relaxed);
        block.header().limbo_count.fetch_add(1, Ordering::Relaxed);
        let me = guard.slot();
        self.runtime.stats.bump(me, |cell| &cell.objects_freed, 1);
        // The bump both retires the incarnation — failing every outstanding
        // reference — and releases the lock bit (a bump clears all flags).
        // Its release ordering publishes the slot surgery above, which is
        // what `freeze_group`'s post-freeze slot re-check relies on.
        entry.get().inc().bump();
        self.maybe_enqueue_for_reclamation(block);
        // Entry reuse waits two epochs: a direct pointer chasing a
        // forwarding tombstone (§6) may still read this entry until every
        // critical section that could hold such a pointer has ended.
        self.runtime.indirection.note_freed(me);
        self.runtime.bury(Grave::Entry(entry), epoch + 2);
        Ok(true)
    }

    /// Live objects across all blocks, resident and spilled.
    pub fn live_objects(&self) -> u64 {
        let count = |b: BlockRef| b.header().valid_count.load(Ordering::Relaxed) as u64;
        self.membership.read().owned_blocks().map(count).sum::<u64>()
            // The gauge, not the page list: counting takes no spill mutex.
            + self.spilled_objects_gauge.load(Ordering::Relaxed)
    }

    // ------------------------------------------------------------------
    // Retirement and the §6 fix-up
    // ------------------------------------------------------------------

    /// Declares that objects of this (row) context keep a direct pointer
    /// into `target` in `field`, so that every block `target` retires has
    /// its pointers healed or cleared first, and a spill of this context
    /// clears `field` in every object it copies into a page. Declare it
    /// before the first object holds such a pointer: a page spilled earlier
    /// keeps what it holds. Panics if this context is columnar: its slots
    /// hold cells, not objects `field` could be read from; or if `target`
    /// belongs to another runtime: the fix-up is ordered against this
    /// context's compaction passes by the runtime's compaction mutex.
    pub fn link_direct(self: &Arc<Self>, target: &MemoryContext, field: Arc<dyn DirectField>) {
        assert!(
            !self.layout.is_columnar(),
            "a columnar holder links nothing"
        );
        assert!(
            Arc::ptr_eq(&self.runtime, &target.runtime),
            "a holder links only into its own runtime"
        );
        self.spill.lock().direct_fields.push(field.clone());
        let holder = Arc::downgrade(self);
        target.links.lock().push(Link { holder, field });
    }

    /// The one way blocks leave this context, and the close of every
    /// compaction pass: runs the §6 fix-up of every linked holder over
    /// `leaving` and `kept`, buries `leaving` two epochs out, and hands
    /// `kept` — claimed blocks a pass keeps — back through
    /// [`unclaim`](Self::unclaim). The caller holds no lock of this context
    /// and not the runtime's compaction mutex, which the fix-up takes when a
    /// holder is linked. A caller pinned in a critical section may then wait
    /// for a pass in flight, and that pass waits out its patience for the
    /// pin.
    pub(crate) fn retire(&self, leaving: impl IntoIterator<Item = BlockRef>, kept: Vec<BlockRef>) {
        let leaving: Vec<BlockRef> = leaving.into_iter().collect();
        if leaving.is_empty() && kept.is_empty() {
            return;
        }
        let fixed = self.fix_links(&leaving, &kept);
        self.unclaim(kept);
        if !fixed {
            // The fix-up was due and this thread could not claim an epoch
            // slot to run it: the blocks leak, still mapped, rather than let
            // a linked pointer into them dangle. (`Drop` must not panic.)
            return;
        }
        // After the fix-up: a reader pinned while it ran may still follow
        // a pointer it loaded before the heal.
        let free_at = self.runtime.global_epoch() + 2;
        for block in leaving {
            self.runtime.bury(Grave::Block(block), free_at);
        }
    }

    /// The §6 fix-up scan over every live holder linked to this context:
    /// each linked pointer whose block base is one of `leaving` or `kept`
    /// ("instead of following a direct pointer to see if the forwarding flag
    /// is set, we first compute the address of the corresponding block
    /// \[and\] probe it in the hash table") is set to where the tombstone
    /// chase of [`DirectPtr`] finds its object now, or cleared to `None`
    /// when no resident address is left (the object was freed, spilled, or
    /// still sits in a leaving block). Each pointer it rewrites counts in
    /// `direct_pointers_fixed`. It runs under the runtime's compaction
    /// mutex, so no pass of a holder copies an object while its pointers
    /// are rewritten: a pointer healed in a slot the mover had already
    /// copied would be lost. False when a holder is linked and the calling
    /// thread cannot claim an epoch slot, so nothing was fixed.
    fn fix_links(&self, leaving: &[BlockRef], kept: &[BlockRef]) -> bool {
        let holders: Vec<(Arc<MemoryContext>, Arc<dyn DirectField>)> = {
            let mut links = self.links.lock();
            links.retain(|link| link.holder.strong_count() > 0);
            let live = links
                .iter()
                .filter_map(|link| Some((link.holder.upgrade()?, link.field.clone())));
            live.collect()
        };
        if holders.is_empty() {
            return true;
        }
        // Taken before the pin (a pass in flight waits for pinned threads)
        // and let go before `holders`, whose drop may be a holder's last,
        // which retires its own blocks.
        let _passes = self.runtime.compaction_mutex.lock();
        let Ok(guard) = self.runtime.try_pin() else {
            return false;
        };
        // Block base → whether the block leaves.
        let probed: HashMap<usize, bool> = (leaving.iter().map(|b| (b.base() as usize, true)))
            .chain(kept.iter().map(|b| (b.base() as usize, false)))
            .collect();
        let probe = |ptr: &DirectPtr| probed.get(&(ptr.addr() & !(BLOCK_SIZE - 1))).copied();
        let stats = &self.runtime.stats;
        let mut fixed = 0;
        for (holder, field) in &holders {
            let m = holder.membership_snapshot();
            m.for_each_block(&guard, stats, |block| {
                for slot in block.valid_slots() {
                    let obj = block.obj_ptr(slot);
                    // SAFETY: a valid slot of a row holder, in the pinned
                    // critical section; the field is the holder's own.
                    let ptr = unsafe { field.get(obj) };
                    let Some(ptr) = ptr.filter(|p| probe(p).is_some()) else {
                        continue;
                    };
                    // SAFETY: the pointer's block is not yet buried, and a
                    // forwarding hop leads to where its entry points now: a
                    // resident block, under the guard.
                    let resolved = unsafe { ptr.resolve(&guard) };
                    let now = resolved.map(|(_, healed)| healed.unwrap_or(ptr));
                    let now = now.filter(|p| probe(p) != Some(true));
                    if now != Some(ptr) {
                        unsafe { field.set(obj, now) };
                        fixed += 1;
                    }
                }
            });
        }
        MemoryStats::add(&stats.direct_pointers_fixed, fixed);
        true
    }
}

impl Drop for MemoryContext {
    fn drop(&mut self) {
        // Invalidate every live object — spilled, then resident — so stale
        // references dereference to null rather than into recycled blocks,
        // and retire all blocks, which clears the holders' direct pointers
        // into them and buries them epoch-safely.
        self.release_spilled(self.runtime.global_epoch() + 2);
        let m = std::mem::take(self.membership.get_mut());
        let blocks: Vec<BlockRef> = m.owned_blocks().collect();
        let mut freed = 0;
        for &block in &blocks {
            let entries = block.valid_slots().filter_map(|slot_id| {
                block.payload_inc(slot_id).bump_unlocked();
                freed += 1;
                let back = block.back_ptr(slot_id).load(Ordering::Acquire);
                (back != 0).then(|| {
                    let entry = unsafe { EntryRef::from_addr(back) };
                    entry.get().inc().bump_unlocked();
                    entry
                })
            });
            // One lock and one count for the block's entries.
            self.runtime.indirection.release_many(entries);
        }
        self.runtime.stats.note_dropped_objects(freed);
        self.retire(blocks, Vec::new());
        self.runtime.drain_graveyard();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::block::type_id_of;

    pub(crate) fn ctx(rt: &Arc<Runtime>) -> MemoryContext {
        ctx_with(rt, ContextConfig::default())
    }

    pub(crate) fn ctx_with(rt: &Arc<Runtime>, config: ContextConfig) -> MemoryContext {
        MemoryContext::new_rows(rt.clone(), 8, 8, type_id_of::<u64>(), config).unwrap()
    }

    pub(crate) fn alloc_u64(c: &MemoryContext, v: u64) -> Allocation {
        c.alloc_with(|block, slot| unsafe { block.obj_ptr(slot).cast::<u64>().write(v) })
            .unwrap()
    }

    /// The `u64` row whose payload is `payload`.
    pub(crate) unsafe fn u64_at(payload: usize) -> u64 {
        let (block, slot) = BlockRef::locate(payload);
        block.obj_ptr(slot).cast::<u64>().read()
    }

    pub(crate) fn read_u64(entry: EntryRef) -> u64 {
        unsafe { u64_at(entry.get().load_payload(Ordering::Acquire)) }
    }

    /// A holder row that is one direct pointer.
    #[derive(Debug)]
    struct WholeRow;

    impl DirectField for WholeRow {
        unsafe fn get(&self, obj: *mut u8) -> Option<DirectPtr> {
            obj.cast::<Option<DirectPtr>>().read()
        }

        unsafe fn set(&self, obj: *mut u8, ptr: Option<DirectPtr>) {
            obj.cast::<Option<DirectPtr>>().write(ptr)
        }
    }

    /// A retirement's fix-up waits for a pass in flight (here: the held
    /// compaction mutex), so no holder's mover copies an object while the
    /// fix-up rewrites its pointers.
    #[test]
    fn the_fix_up_waits_for_a_pass_in_flight() {
        let rt = Runtime::new();
        let target = ctx(&rt);
        let size = std::mem::size_of::<Option<DirectPtr>>();
        let row = type_id_of::<Option<DirectPtr>>();
        let holder = MemoryContext::new_rows(rt.clone(), size, 8, row, ContextConfig::default());
        let holder = Arc::new(holder.unwrap());
        holder.link_direct(&target, Arc::new(WholeRow));
        alloc_u64(&target, 7);
        let pass = rt.compaction_mutex.lock();
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let dropper = {
            let done = done.clone();
            std::thread::spawn(move || {
                drop(target);
                done.store(true, Ordering::SeqCst);
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(!done.load(Ordering::SeqCst), "the fix-up ran beside a pass");
        drop(pass);
        dropper.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
    }

    /// Tombstones a pass left in the blocks it emptied, recycled through
    /// this thread's block cache.
    pub(crate) struct Recycled {
        /// The pass's context, kept alive so its own blocks stay its own.
        _ctx: MemoryContext,
        /// Each recycled block's base, with its slots' incarnation words as
        /// the pass left them.
        pub(crate) words: HashMap<usize, Vec<u32>>,
        /// A direct pointer taken before the pass into a slot it moved out.
        pub(crate) stale: DirectPtr,
    }

    /// Empties three sparse blocks with one pass and drains the graveyard,
    /// so the next blocks this thread takes are those three, dirty.
    pub(crate) fn recycled_tombstones(rt: &Arc<Runtime>) -> Recycled {
        let config = ContextConfig {
            reclamation_threshold: 1.1,
            ..ContextConfig::default()
        };
        let c = ctx_with(rt, config);
        let cap = c.layout().capacity as usize;
        let allocs: Vec<_> = (0..cap * 4).map(|i| alloc_u64(&c, i as u64)).collect();
        for a in allocs.iter().filter(|a| a.slot % 10 != 0) {
            assert!(c.free(a.entry, a.entry_inc));
        }
        let g = rt.pin();
        let stale = allocs[0].entry.to_direct(allocs[0].entry_inc, &g);
        drop(g);
        let sources = c.membership_snapshot().blocks;
        let report = c.compact();
        assert!(report.retired >= 2, "{report:?}");
        let words = (sources.iter())
            .filter(|b| !c.membership_snapshot().blocks.contains(b))
            .map(|b| {
                let word = |slot| b.payload_inc(slot).load(Ordering::Acquire);
                (
                    b.base() as usize,
                    (0..b.header().capacity).map(word).collect(),
                )
            })
            .collect();
        rt.drain_graveyard_blocking();
        Recycled {
            _ctx: c,
            words,
            stale: stale.unwrap().unwrap(),
        }
    }

    impl Recycled {
        /// Checks every slot of `c` that a fill wrote into a recycled block:
        /// no flag, and the counter one past the word the pass left there.
        /// Returns how many there were.
        pub(crate) fn check_refills(&self, c: &MemoryContext) -> usize {
            let mut refilled = 0;
            for block in c.membership_snapshot().blocks {
                let Some(old) = self.words.get(&(block.base() as usize)) else {
                    continue;
                };
                for slot in block.valid_slots() {
                    let word = block.payload_inc(slot).load(Ordering::Acquire);
                    let past = (old[slot as usize] & crate::INC_MASK) + 1;
                    assert_eq!(word, past, "slot {slot} was {:#x}", old[slot as usize]);
                    refilled += 1;
                }
            }
            refilled
        }
    }

    /// An add that refills a slot of a recycled block resets its
    /// incarnation word, so a direct pointer into the slot's former tenant
    /// reads `None`, not the new object.
    #[test]
    fn a_refill_of_a_recycled_block_fails_a_stale_direct_pointer() {
        let rt = Runtime::new();
        let recycled = recycled_tombstones(&rt);
        let c = ctx(&rt);
        let cap = c.layout().capacity as usize;
        for i in 0..cap * 3 {
            alloc_u64(&c, 1_000 + i as u64);
        }
        let (block, slot) = unsafe { BlockRef::locate(recycled.stale.addr()) };
        assert_eq!(block.header().context_id, c.id(), "the slot was recycled");
        assert_eq!(block.slot_word(slot).state(), SlotState::Valid);
        let g = rt.pin();
        // SAFETY: the block is mapped: it is one of `c`'s.
        assert_eq!(unsafe { recycled.stale.resolve(&g) }, None);
        assert!(
            recycled.check_refills(&c) >= cap,
            "no recycled block refilled"
        );
    }

    #[test]
    fn alloc_writes_before_publishing() {
        let rt = Runtime::new();
        let c = ctx(&rt);
        let a = alloc_u64(&c, 42);
        assert_eq!(read_u64(a.entry), 42);
        assert_eq!(a.block.slot_word(a.slot).state(), SlotState::Valid);
        assert_eq!(
            a.block.back_ptr(a.slot).load(Ordering::Acquire),
            a.entry.addr()
        );
        assert_eq!(c.live_objects(), 1);
    }

    #[test]
    fn free_bumps_both_incarnations() {
        let rt = Runtime::new();
        let c = ctx(&rt);
        let a = alloc_u64(&c, 7);
        assert!(c.free(a.entry, a.entry_inc));
        assert_ne!(a.entry.get().inc().incarnation(), a.entry_inc);
        assert_ne!(a.block.payload_inc(a.slot).incarnation(), a.slot_inc);
        assert_eq!(a.block.slot_word(a.slot).state(), SlotState::Limbo);
        assert_eq!(c.live_objects(), 0);
    }

    #[test]
    fn double_free_is_rejected() {
        let rt = Runtime::new();
        let c = ctx(&rt);
        let a = alloc_u64(&c, 1);
        assert!(c.free(a.entry, a.entry_inc));
        assert!(!c.free(a.entry, a.entry_inc), "second remove must fail");
        assert_eq!(rt.stats.hot(|cell| &cell.objects_freed), 1);
    }

    #[test]
    fn slots_fill_one_block_before_growing() {
        let rt = Runtime::new();
        let c = ctx(&rt);
        let cap = c.layout().capacity as usize;
        for i in 0..cap {
            alloc_u64(&c, i as u64);
        }
        assert_eq!(c.block_count(), 1);
        alloc_u64(&c, 999);
        assert_eq!(c.block_count(), 2);
    }

    #[test]
    fn limbo_slot_reused_only_after_two_epochs() {
        let rt = Runtime::new();
        // Aggressive threshold so a single removal queues the block.
        let config = ContextConfig {
            reclamation_threshold: 0.0,
            ..ContextConfig::default()
        };
        let c = ctx_with(&rt, config);
        let cap = c.layout().capacity as usize;
        let mut allocs = Vec::new();
        for i in 0..cap {
            allocs.push(alloc_u64(&c, i as u64));
        }
        // Remove one object: slot enters limbo at epoch 0. Note: the block
        // is still the thread's active block, so it is not queued yet.
        let victim = allocs[3];
        assert!(c.free(victim.entry, victim.entry_inc));
        // The next allocation abandons the (full) block and acquires a new
        // one: the limbo slot is not reclaimable yet at epoch 0.
        let a = alloc_u64(&c, 1000);
        assert_ne!((a.block, a.slot), (victim.block, victim.slot));
        assert_eq!(c.block_count(), 2);
        // After two epoch advances the queued block becomes reclaimable; the
        // allocator's lazy advance plus queue pop should eventually reuse
        // the limbo slot rather than growing again.
        rt.epochs.try_advance().unwrap();
        rt.epochs.try_advance().unwrap();
        // Fill the second block to force a block acquisition.
        for i in 0..cap {
            alloc_u64(&c, 2000 + i as u64);
        }
        assert!(
            MemoryStats::get(&rt.stats.slots_reclaimed) >= 1,
            "limbo slot should be reclaimed once epochs passed"
        );
    }

    #[test]
    fn reclamation_respects_threshold() {
        let rt = Runtime::new();
        // Half the block must be limbo before it queues.
        let config = ContextConfig {
            reclamation_threshold: 0.5,
            ..ContextConfig::default()
        };
        let c = ctx_with(&rt, config);
        let cap = c.layout().capacity as usize;
        let mut allocs = Vec::new();
        for i in 0..cap * 2 {
            allocs.push(alloc_u64(&c, i as u64));
        }
        // Remove 25% of the first block: below threshold, no queueing.
        for a in allocs.iter().take(cap / 4) {
            assert!(c.free(a.entry, a.entry_inc));
        }
        assert_eq!(c.reclaim_queue.lock().len(), 0);
        // Remove up to 60% of the first block: crosses threshold.
        for a in allocs.iter().take(cap * 6 / 10).skip(cap / 4) {
            assert!(c.free(a.entry, a.entry_inc));
        }
        assert_eq!(c.reclaim_queue.lock().len(), 1);
    }

    #[test]
    fn context_budget_rejects_growth_then_recovers_via_reclaim() {
        let rt = Runtime::new();
        let config = ContextConfig {
            // One block exactly: the second fresh block breaches the budget.
            budget_bytes: Some(BLOCK_SIZE as u64),
            reclamation_threshold: 0.0,
            ..ContextConfig::default()
        };
        let c = ctx_with(&rt, config);
        let cap = c.layout().capacity as usize;
        let mut allocs = Vec::new();
        for i in 0..cap {
            allocs.push(alloc_u64(&c, i as u64));
        }
        assert_eq!(
            c.alloc_with(|_, _| {}).unwrap_err(),
            MemError::OutOfMemory,
            "growth past the context budget must fail cleanly"
        );
        assert_eq!(c.block_count(), 1, "no block may leak past the budget");
        assert!(MemoryStats::get(&rt.stats.context_budget_rejections) >= 1);
        // Free half the block: it joins the reclamation queue, and once its
        // limbo epochs mature the same context allocates again — budget
        // pressure degrades to reuse, not to a stuck tenant.
        for a in allocs.drain(..cap / 2) {
            assert!(c.free(a.entry, a.entry_inc));
        }
        rt.epochs.try_advance().unwrap();
        rt.epochs.try_advance().unwrap();
        let a = alloc_u64(&c, 9999);
        assert_eq!(read_u64(a.entry), 9999);
        assert_eq!(c.block_count(), 1, "recovery must reuse, not grow");
    }

    #[test]
    fn stale_entry_payload_not_followed_after_free() {
        let rt = Runtime::new();
        let c = ctx(&rt);
        let a = alloc_u64(&c, 5);
        let old_inc = a.entry_inc;
        c.free(a.entry, old_inc);
        // Any dereference must observe the incarnation mismatch.
        assert_ne!(a.entry.get().inc().incarnation(), old_inc);
    }

    #[test]
    fn columnar_context_allocates_and_locates() {
        let rt = Runtime::new();
        // One 8-byte value column behind the incarnation column.
        let c = MemoryContext::new_columnar(
            rt.clone(),
            &[8],
            type_id_of::<u64>(),
            ContextConfig::default(),
        )
        .unwrap();
        let column = c.layout().columns.offset(0);
        let a = c
            .alloc_with(|block, slot| unsafe {
                let col_base = block.store_base().add(column).cast::<u64>();
                col_base.add(slot as usize).write(777);
            })
            .unwrap();
        let payload = a.entry.get().load_payload(Ordering::Acquire);
        let (block, slot) = unsafe { BlockRef::locate(payload) };
        assert_eq!((block, slot), (a.block, a.slot));
        let v = unsafe {
            block
                .store_base()
                .add(column)
                .cast::<u64>()
                .add(slot as usize)
                .read()
        };
        assert_eq!(v, 777);
        assert!(c.free(a.entry, a.entry_inc));
    }

    #[test]
    fn concurrent_alloc_free_stress() {
        let rt = Runtime::new();
        let c = Arc::new(ctx(&rt));
        let mut handles = Vec::new();
        for t in 0..4 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                let mut live = Vec::new();
                for i in 0..3000u64 {
                    live.push(alloc_u64(&c, t * 1_000_000 + i));
                    if live.len() > 64 {
                        let a: Allocation = live.swap_remove((i as usize * 7) % live.len());
                        assert!(c.free(a.entry, a.entry_inc));
                    }
                }
                // Everything left must still read back correctly.
                for a in &live {
                    let v = read_u64(a.entry);
                    assert_eq!(v / 1_000_000, t);
                }
                live.len() as u64
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(c.live_objects(), total);
        let snap = rt.stats.snapshot();
        assert_eq!(snap.objects_allocated - snap.objects_freed, total);
    }

    /// Pins the design of the allocation path: the entry half of an `add`
    /// takes a lock per magazine refill, never per entry.
    #[test]
    fn adds_take_one_entry_lock_per_magazine_refill() {
        use crate::indirection::{CHUNK_ENTRIES, MAGAZINE};
        let rt = Runtime::new();
        let c = ctx(&rt);
        let adds: u64 = if cfg!(miri) { 5_000 } else { 100_000 };
        for v in 0..adds {
            alloc_u64(&c, v);
        }
        let refills = adds / MAGAZINE as u64;
        let chunks_grown = (rt.indirection.capacity() / CHUNK_ENTRIES) as u64;
        let locks = rt.indirection.entry_refills();
        assert!(
            (refills..=refills + chunks_grown).contains(&locks),
            "{adds} adds took {locks} entry locks ({chunks_grown} chunks grown)"
        );
        rt.verify().unwrap();
    }

    #[test]
    fn drop_invalidates_survivors_and_buries_blocks() {
        let rt = Runtime::new();
        let entry;
        let inc;
        {
            let c = ctx(&rt);
            let a = alloc_u64(&c, 11);
            entry = a.entry;
            inc = a.entry_inc;
            assert_eq!(MemoryStats::get(&rt.stats.blocks_live), 1);
        }
        // Entry incarnation bumped by drop: stale refs are null.
        assert_ne!(entry.get().inc().incarnation(), inc);
        rt.drain_graveyard_blocking();
        assert_eq!(MemoryStats::get(&rt.stats.blocks_freed), 1);
    }
}
