//! Memory contexts (§3.3) — per-collection block groups with allocation,
//! epoch-safe reclamation (§3.5), and the concurrent compaction driver (§5).
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
//! ## Compaction (§5)
//!
//! [`MemoryContext::compact`] implements the epoch-extended compaction
//! protocol: a freezing epoch that schedules relocations, a relocation epoch
//! with waiting and moving phases, reader cooperation via bail-out/help (in
//! [`crate::reloc`]), compaction groups whose sources are always emptied
//! into fresh blocks (§5.2), and query counters that let in-flight
//! enumerations pin a group's pre-relocation state.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::sync::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Mutex, RwLock};

use crate::block::{BlockLayout, BlockRef};
use crate::epoch::Guard;
use crate::error::MemError;
use crate::fault::FaultSite;
use crate::incarnation::{IncWord, FLAG_FROZEN, FLAG_LOCK, FLAG_MASK};
use crate::indirection::EntryRef;
use crate::mutation::{self, Mutation};
use crate::reloc::{
    cancel_relocation, try_move_object, MoveOutcome, RelocEntry, RelocStatus, RelocationList,
};
use crate::runtime::Runtime;
use crate::slot::{self, SlotId, SlotState};
use crate::spill::{
    self, PageStore, SpillScanGuard, SpillState, SpillStub, SpilledPage, SPILL_TAG,
};
use crate::stats::MemoryStats;

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
    /// [`MemError::OutOfMemory`] once those run dry. This is how the serve
    /// layer bounds one tenant without starving its neighbours: the
    /// runtime-wide budget stays shared, the context budget is the tenant's
    /// slice. Compaction destination blocks are exempt — compaction is the
    /// mechanism that gets an over-budget context *back under* its cap.
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

/// Row-wise or columnar object store (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutMode {
    /// Objects stored contiguously per slot.
    Rows,
    /// The object store is a bundle of parallel column arrays; the first
    /// `4 * capacity` bytes hold the per-slot incarnation words and the
    /// collection owns the remaining column geometry.
    Columnar,
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

/// One §5.2 compaction group: sources being emptied into a fresh block.
#[derive(Debug)]
pub struct CompactionGroup {
    /// Blocks whose live objects are being moved out.
    pub sources: Vec<BlockRef>,
    /// The block receiving them.
    pub dest: BlockRef,
    /// Pre-relocation read pins held by queries (§5.2's query counter).
    pub query_counter: AtomicU32,
    /// Set (before the final query-counter check) when relocation of this
    /// group begins; queries that observe it must read the post-state.
    pub started: AtomicBool,
    /// Set once the compaction pass that created this group has finished
    /// (successfully or not) and the group has been disbanded.
    pub settled: AtomicBool,
}

impl CompactionGroup {
    /// Opens the group for one enumeration — the single place the §5.2
    /// decision is made. Either the whole group is read in its
    /// pre-relocation state (sources only, with the query counter held until
    /// the returned reader drops, so the mover cannot start under it), or
    /// relocation already started and the group is read post-relocation:
    /// the caller first helps finish the move if moves are currently
    /// permitted, then reads dest plus sources — moved objects are valid
    /// only in the dest, bailed-out objects only in their source, so the
    /// union is exact. A settled group, or one met outside the relocation
    /// epoch, is read as dest plus sources without a pin.
    pub fn read(self: &Arc<Self>, guard: &Guard<'_>, stats: &MemoryStats) -> UnitRead {
        let mut pinned = false;
        if !self.settled.load(Ordering::Acquire) && guard.in_relocation_epoch() {
            pinned = self.try_pin_pre_state();
            if !pinned && guard.manager().in_moving_phase() {
                self.help_relocate(stats);
            }
        }
        UnitRead {
            // Pre-state: the dest is still empty and must not be read.
            first: (!pinned).then_some(self.dest),
            group: Some((self.clone(), pinned)),
        }
    }

    /// Attempts to pin the group's pre-relocation state for reading.
    /// Returns false if relocation of this group already started. The
    /// counter-increment-then-flag-check here pairs with the
    /// flag-set-then-counter-wait in [`MemoryContext::compact`]'s mover:
    /// either the mover sees our pin and waits, or we see its start flag.
    fn try_pin_pre_state(&self) -> bool {
        self.query_counter.fetch_add(1, Ordering::SeqCst);
        if !mutation::enabled(Mutation::PinSkipsStartedRecheck)
            && self.started.load(Ordering::SeqCst)
        {
            self.query_counter.fetch_sub(1, Ordering::SeqCst);
            false
        } else {
            true
        }
    }

    /// Waits until no query holds the group's pre-relocation state pinned,
    /// or until `deadline` passes (false). Required before *any* thread —
    /// the compaction thread or a helping query — relocates objects of this
    /// group: the §5.2 counter "prevents other threads from compacting the
    /// group until the query decremented the counter again", and helping is
    /// compacting.
    pub fn wait_pre_readers(&self, deadline: Option<Instant>) -> bool {
        while self.query_counter.load(Ordering::SeqCst) != 0 {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return false;
            }
            crate::sync::thread_yield();
        }
        true
    }

    /// Helps relocate every pending object of the group (§5.1 case c /
    /// §5.2: "the query first helps performing the relocation of the
    /// compaction group and then uses the compacted memory block").
    ///
    /// Blocks until pre-state readers have drained: moving objects while a
    /// query reads the group's pre-relocation state would make that query
    /// miss them.
    pub fn help_relocate(&self, stats: &MemoryStats) {
        self.wait_pre_readers(None);
        for &src in &self.sources {
            let list = src.header().reloc_list.load(Ordering::Acquire);
            if list.is_null() {
                continue;
            }
            let list = unsafe { &*list };
            for entry in &list.entries {
                if entry.status() == RelocStatus::Pending {
                    let outcome = unsafe { try_move_object(src, entry) };
                    if outcome == MoveOutcome::MovedByUs {
                        MemoryStats::inc(&stats.objects_relocated);
                        MemoryStats::inc(&stats.relocations_helped);
                    }
                }
            }
        }
    }
}

/// Result summary of one compaction pass.
#[derive(Debug, Default)]
pub struct CompactionReport {
    /// Groups formed.
    pub groups: usize,
    /// Objects moved to new blocks.
    pub moved: usize,
    /// Relocations bailed out by readers (will be retried by a later pass).
    pub bailed: usize,
    /// Source blocks fully emptied and retired, by base address. Used by the
    /// direct-pointer fix-up scan (§6) to identify stale pointers cheaply.
    pub retired_bases: Vec<usize>,
    /// The pass was aborted (e.g. a reader held a critical section longer
    /// than the configured patience); the context is unchanged.
    pub aborted: bool,
    /// The moving phase died mid-relocation (injected
    /// [`FaultSite::Relocation`] crash). Unmoved objects were bailed out;
    /// the context is valid and a later pass will retry them.
    pub interrupted: bool,
    /// The pass was cancelled mid-flight via
    /// [`request_compaction_cancel`](MemoryContext::request_compaction_cancel):
    /// every still-pending relocation was rolled back through the §5.1 bail
    /// path, so the context is valid and a later pass can retry.
    pub cancelled: bool,
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
    first: Option<BlockRef>,
    /// The group whose sources follow, and whether its pre-state is pinned.
    group: Option<(Arc<CompactionGroup>, bool)>,
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

/// A per-collection group of typed memory blocks.
#[derive(Debug)]
pub struct MemoryContext {
    runtime: Arc<Runtime>,
    id: u64,
    type_id: u64,
    layout: BlockLayout,
    mode: LayoutMode,
    /// Bytes copied when relocating one object (row layouts).
    obj_size: u32,
    /// Alignment of one object (row layouts; 1 for columnar stores).
    obj_align: usize,
    config: ContextConfig,
    membership: RwLock<Membership>,
    /// Current allocation block per thread slot (block header address).
    thread_blocks: Box<[AtomicUsize]>,
    /// Blocks with enough limbo slots to be worth reusing, with the epoch at
    /// which they become reclaimable.
    reclaim_queue: Mutex<VecDeque<(BlockRef, u64)>>,
    /// Fully-emptied compaction sources awaiting direct-pointer fix-up and
    /// burial (released by [`release_retired`](Self::release_retired)).
    pending_retired: Mutex<Vec<BlockRef>>,
    /// Set by [`request_compaction_cancel`](Self::request_compaction_cancel);
    /// the in-flight pass checks it between relocations and winds down via
    /// the bail path. Cleared when the pass finishes.
    cancel_requested: AtomicBool,
    /// Spill state ([`crate::spill`]): the page store, the spilled-page
    /// list, and a weak self-handle for stubs. One mutex covers spill,
    /// fault-in and spilled-page scans — the holder is the only possible
    /// writer of a tagged entry payload.
    spill: Mutex<SpillState>,
    /// Blocks currently spilled to the page store (gauge).
    spilled_blocks_gauge: AtomicU64,
    /// Objects living in spilled pages (gauge); lets
    /// [`live_objects`](Self::live_objects) answer without the spill mutex.
    spilled_objects_gauge: AtomicU64,
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
            runtime,
            layout,
            LayoutMode::Rows,
            obj_size as u32,
            obj_align,
            type_id,
            config,
        ))
    }

    /// Creates a columnar context; `store_bytes_per_slot` must include the
    /// 4-byte incarnation column.
    pub fn new_columnar(
        runtime: Arc<Runtime>,
        store_bytes_per_slot: usize,
        type_id: u64,
        config: ContextConfig,
    ) -> Result<MemoryContext, MemError> {
        let layout = BlockLayout::columnar(store_bytes_per_slot, 16)?;
        Ok(Self::with_layout(
            runtime,
            layout,
            LayoutMode::Columnar,
            0,
            1,
            type_id,
            config,
        ))
    }

    fn with_layout(
        runtime: Arc<Runtime>,
        layout: BlockLayout,
        mode: LayoutMode,
        obj_size: u32,
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
            mode,
            obj_size,
            obj_align,
            config,
            membership: RwLock::new(Membership::default()),
            thread_blocks: thread_blocks.into_boxed_slice(),
            reclaim_queue: Mutex::new(VecDeque::new()),
            pending_retired: Mutex::new(Vec::new()),
            cancel_requested: AtomicBool::new(false),
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

    /// Row or columnar store.
    pub fn mode(&self) -> LayoutMode {
        self.mode
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ContextConfig {
        &self.config
    }

    /// Asks an in-flight compaction pass to stop as soon as possible.
    ///
    /// The moving phase checks the flag between relocations; on observing it
    /// the pass abandons further moves and its epilogue rolls every
    /// still-pending relocation back through the §5.1 bail path, leaving the
    /// context bit-exact valid (the pass reports `cancelled`). Safe to call
    /// from any thread, including when no pass is running — the flag is
    /// consumed and cleared by the next pass to finish.
    pub fn request_compaction_cancel(&self) {
        self.cancel_requested.store(true, Ordering::Release);
    }

    /// Whether a cancel has been requested and not yet consumed by a pass.
    pub fn compaction_cancel_requested(&self) -> bool {
        self.cancel_requested.load(Ordering::Acquire)
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

    /// Total off-heap bytes owned by this context (excludes retired blocks
    /// already handed to the graveyard).
    pub fn bytes(&self) -> usize {
        self.block_count() * crate::block::BLOCK_SIZE
    }

    /// The slot-header incarnation word of `slot` in `block`, respecting the
    /// layout mode (§4.1: columnar stores keep the incarnation column at the
    /// start of the object store).
    #[inline]
    pub fn slot_inc<'b>(&self, block: &'b BlockRef, slot: SlotId) -> &'b IncWord {
        match self.mode {
            LayoutMode::Rows => block.slot_inc(slot),
            LayoutMode::Columnar => unsafe {
                &*block.store_base().add(slot as usize * 4).cast::<IncWord>()
            },
        }
    }

    /// The payload stored in indirection entries for `slot` of `block`: the
    /// object data address for rows, the incarnation-cell address for
    /// columnar stores (equivalent to the paper's packed block/slot locator,
    /// recoverable by the same block-mask arithmetic).
    #[inline]
    pub fn payload_of(&self, block: &BlockRef, slot: SlotId) -> usize {
        match self.mode {
            LayoutMode::Rows => block.obj_ptr(slot) as usize,
            LayoutMode::Columnar => unsafe { block.store_base().add(slot as usize * 4) as usize },
        }
    }

    /// Maps an entry payload back to `(block, slot)`.
    ///
    /// # Safety
    /// `payload` must have been produced by `payload_of` on a block that is
    /// still allocated (epoch protection guarantees this for checked refs).
    #[inline]
    pub unsafe fn locate(&self, payload: usize) -> (BlockRef, SlotId) {
        let block = BlockRef::from_interior_ptr(payload as *const u8);
        let slot = match self.mode {
            LayoutMode::Rows => block.slot_of_obj_ptr(payload as *const u8),
            LayoutMode::Columnar => ((payload - block.store_base() as usize) / 4) as SlotId,
        };
        (block, slot)
    }

    // ------------------------------------------------------------------
    // Allocation and free (§3.5)
    // ------------------------------------------------------------------

    /// Allocates a slot and wires its indirection entry. `init` runs after
    /// the slot is claimed but *before* it becomes visible to enumerations,
    /// so it must fully initialize the object's bytes.
    pub fn alloc_with(&self, init: impl FnOnce(&BlockRef, SlotId)) -> Result<Allocation, MemError> {
        let tid = self.runtime.epochs.thread_index()?;
        let stats = &self.runtime.stats;
        loop {
            let block = match self.current_thread_block(tid) {
                Some(b) => b,
                None => self.acquire_block(tid)?,
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
            MemoryStats::add(&stats.alloc_scan_steps, scanned);
            match claimed {
                Some(slot_id) => {
                    header.alloc_cursor.store(slot_id + 1, Ordering::Relaxed);
                    return Ok(self.wire_slot(tid, block, slot_id, init));
                }
                None => {
                    // Block exhausted: abandon it and fetch another.
                    header
                        .alloc_cursor
                        .store(header.capacity, Ordering::Relaxed);
                    self.abandon_thread_block(tid, block);
                }
            }
        }
    }

    fn wire_slot(
        &self,
        tid: usize,
        block: BlockRef,
        slot_id: SlotId,
        init: impl FnOnce(&BlockRef, SlotId),
    ) -> Allocation {
        let stats = &self.runtime.stats;
        let entry = self.runtime.indirection.allocate(tid);
        let slot_inc = self.slot_inc(&block, slot_id).incarnation();
        let entry_inc = entry.get().inc().incarnation();
        // Initialize object bytes before publishing the slot as Valid.
        init(&block, slot_id);
        block
            .back_ptr(slot_id)
            .store(entry.addr(), Ordering::Release);
        entry
            .get()
            .store_payload(self.payload_of(&block, slot_id), Ordering::Release);
        block.slot_word(slot_id).set_valid();
        block.header().valid_count.fetch_add(1, Ordering::Relaxed);
        MemoryStats::inc(&stats.objects_allocated);
        Allocation {
            entry,
            entry_inc,
            slot_inc,
            block,
            slot: slot_id,
        }
    }

    fn current_thread_block(&self, tid: usize) -> Option<BlockRef> {
        let addr = self.thread_blocks[tid].load(Ordering::Acquire);
        if addr == 0 {
            None
        } else {
            Some(unsafe { BlockRef::from_interior_ptr(addr as *const u8) })
        }
    }

    fn abandon_thread_block(&self, tid: usize, block: BlockRef) {
        self.thread_blocks[tid].store(0, Ordering::Release);
        block.header().active_owner.store(0, Ordering::Release);
        // A full block may already deserve a spot in the reclamation queue
        // (its removals were deferred while we owned it).
        self.maybe_enqueue_for_reclamation(block);
    }

    fn adopt_thread_block(&self, tid: usize, block: BlockRef) {
        block
            .header()
            .active_owner
            .store(tid as u32 + 1, Ordering::Release);
        self.thread_blocks[tid].store(block.base() as usize, Ordering::Release);
    }

    fn acquire_block(&self, tid: usize) -> Result<BlockRef, MemError> {
        self.runtime.drain_graveyard();
        self.runtime
            .indirection
            .drain_deferred(self.runtime.global_epoch());
        // Prefer a reclaimable block from the queue (§3.5).
        if let Some(block) = self.pop_reclaimable(tid) {
            return Ok(block);
        }
        // Blocks may be waiting on epochs: lazily advance (§3.5), unless a
        // compaction holds the advance reservation, and look again.
        if !self.reclaim_queue.lock().is_empty() && self.runtime.next_relocation_epoch() == 0 {
            if self.runtime.epochs.try_advance().is_some() {
                MemoryStats::inc(&self.runtime.stats.epoch_advances);
            }
            if let Some(block) = self.pop_reclaimable(tid) {
                return Ok(block);
            }
        }
        // Per-context budget gate: reclaimable blocks recycled above do not
        // grow the footprint, but a fresh block would. The spill rung runs
        // first — evicting one cold block to the page store frees exactly
        // the footprint the fresh block needs, turning budget pressure into
        // a larger-than-memory context instead of an error. Contexts without
        // a page store keep the PR 1 behavior: a clean error here — never a
        // crash, and never a runtime-wide stall.
        if let Some(budget) = self.config.budget_bytes {
            if (self.bytes() + crate::block::BLOCK_SIZE) as u64 > budget && !self.try_spill_one() {
                MemoryStats::inc(&self.runtime.stats.context_budget_rejections);
                return self.pop_reclaimable(tid).ok_or(MemError::OutOfMemory);
            }
        }
        // Nothing reclaimable: a fresh block from the OS, subject to the
        // runtime's budget, failpoints and recovery ladder.
        match self
            .runtime
            .allocate_block(&self.layout, self.type_id, self.id)
        {
            Ok(block) => {
                self.adopt_thread_block(tid, block);
                self.membership.write().blocks.push(block);
                Ok(block)
            }
            Err(e) => {
                // The recovery ladder advanced epochs while the budget stayed
                // exhausted — queued limbo blocks may have matured during the
                // retries, and spilling a resident block may free runtime
                // budget once its burial ripens. One last sweep before
                // surfacing the error.
                if self.try_spill_one() {
                    if let Ok(block) =
                        self.runtime
                            .allocate_block(&self.layout, self.type_id, self.id)
                    {
                        self.adopt_thread_block(tid, block);
                        self.membership.write().blocks.push(block);
                        return Ok(block);
                    }
                }
                self.pop_reclaimable(tid).ok_or(e)
            }
        }
    }

    /// Pops the reclaim queue's front block if its epoch has matured, resets
    /// its allocation cursor, and adopts it for `tid`.
    ///
    /// Adoption happens *while holding the queue lock*: compaction's
    /// candidate selection takes the same lock and requires
    /// `active_owner == 0`, so releasing the lock before claiming ownership
    /// would let a concurrent pass freeze — and later retire and free — the
    /// block this thread is about to allocate from.
    fn pop_reclaimable(&self, tid: usize) -> Option<BlockRef> {
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
        self.adopt_thread_block(tid, block);
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
        let limbo = header.limbo_count.load(Ordering::Relaxed) as f64;
        if limbo / header.capacity as f64 <= self.config.reclamation_threshold {
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
        let _guard = self.runtime.try_pin()?;
        // Winning the entry lock is what makes us *the* remover (§5.1
        // footnote: free serializes with freeze/lock through the incarnation
        // word). Holding the lock bit — rather than bumping up front — keeps
        // movers out for the whole surgery: a relocation frozen at this
        // incarnation spins at its entry lock until the bump below retires
        // the counter, then dies with `MoveOutcome::Freed`. If a mover got
        // the lock first we spin here instead, and afterwards the payload
        // points at the object's *new* home, which is the one we free.
        let payload = loop {
            let Some(observed) = entry.get().inc().lock(expected_entry_inc) else {
                return Ok(false);
            };
            let payload = entry.get().load_payload(Ordering::Acquire);
            if !spill::is_spill_tagged(payload) {
                break payload;
            }
            // The object lives in a spilled page. Bring the page home first
            // — every record in a page is live, so this keeps the invariant
            // that spilled pages never carry dead objects — then retry the
            // lock: the fault-in repointed the entry at a resident slot.
            entry
                .get()
                .inc()
                .unlock_with_flags(observed & FLAG_MASK & !FLAG_LOCK);
            let block_id = unsafe { (*((payload & !SPILL_TAG) as *const SpillStub)).block_id };
            self.fault_in_block(block_id)?;
        };
        debug_assert_ne!(payload, 0, "live entry without payload");
        let (block, slot_id) = unsafe { self.locate(payload) };
        // Invalidate direct pointers.
        self.slot_inc(&block, slot_id).bump_unlocked();
        let epoch = self.runtime.global_epoch();
        block.slot_word(slot_id).set_limbo(epoch);
        block.header().valid_count.fetch_sub(1, Ordering::Relaxed);
        block.header().limbo_count.fetch_add(1, Ordering::Relaxed);
        MemoryStats::inc(&self.runtime.stats.objects_freed);
        // The bump both retires the incarnation — failing every outstanding
        // reference — and releases the lock bit (a bump clears all flags).
        // Its release ordering publishes the slot surgery above, which is
        // what `freeze_group`'s post-freeze slot re-check relies on.
        entry.get().inc().bump();
        self.maybe_enqueue_for_reclamation(block);
        // Entry reuse is deferred two epochs: a direct pointer chasing a
        // forwarding tombstone (§6) may still read this entry until every
        // critical section that could hold such a pointer has ended.
        self.runtime.indirection.release_at(entry, epoch + 2);
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Compaction (§5)
    // ------------------------------------------------------------------

    /// Runs one compaction pass over this context, emptying every block with
    /// occupancy below `config.compaction_occupancy` into fresh blocks.
    ///
    /// Must not be called while the calling thread holds a [`Guard`]; the
    /// pass pins its own critical section and drives the global epoch.
    pub fn compact(&self) -> CompactionReport {
        let _exclusive = self.runtime.compaction_mutex.lock();
        let mut report = CompactionReport::default();

        // Select candidate source blocks. They stay in the regular
        // membership until their groups are registered — the swap below is
        // atomic under one write lock, so no enumeration snapshot can catch
        // a block in neither list.
        let candidates: Vec<BlockRef> = {
            let m = self.membership.read();
            // Hold the reclamation queue lock across selection so a block
            // cannot be handed to an allocator while we pull it out.
            let mut q = self.reclaim_queue.lock();
            m.blocks
                .iter()
                .filter(|b| {
                    let h = b.header();
                    let eligible = b.occupancy() < self.config.compaction_occupancy
                        && h.active_owner.load(Ordering::Acquire) == 0
                        && h.compacting
                            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok();
                    if eligible && h.in_reclaim_queue.load(Ordering::Acquire) == 1 {
                        // Compaction supersedes slot-level reclamation: the
                        // block is about to be emptied wholesale.
                        q.retain(|(qb, _)| qb != *b);
                        h.in_reclaim_queue.store(0, Ordering::Release);
                    }
                    eligible
                })
                .copied()
                .collect()
        };
        if candidates.is_empty() {
            return report;
        }
        let pass_start = std::time::Instant::now();
        smc_obs::trace::emit(smc_obs::Event::CompactionSelect {
            context: self.id,
            candidates: candidates.len() as u64,
        });

        let tid = match self.runtime.epochs.thread_index() {
            Ok(t) => t,
            Err(_) => return report,
        };
        let guard = self.runtime.pin();
        if !self.runtime.epochs.reserve_advance(tid) {
            drop(guard);
            self.requeue_candidates(candidates);
            return report;
        }
        let e = guard.epoch();

        // --- Freezing epoch: advance to e + 1, announce relocation at e + 2.
        if !self.advance_to(e + 1, tid) {
            self.runtime.epochs.release_advance(tid);
            drop(guard);
            self.requeue_candidates(candidates);
            report.aborted = true;
            return report;
        }
        self.runtime.set_relocation_epoch(e + 2);

        // Build compaction groups and relocation lists (freeze objects).
        let groups = self.build_groups(candidates);
        if groups.is_empty() {
            self.runtime.set_relocation_epoch(0);
            self.runtime.epochs.release_advance(tid);
            drop(guard);
            return report;
        }
        // Atomic membership swap: grouped sources leave the block list and
        // appear in the group list in one step.
        {
            let grouped: std::collections::HashSet<BlockRef> = groups
                .iter()
                .flat_map(|g| g.sources.iter().copied())
                .collect();
            let mut m = self.membership.write();
            m.blocks.retain(|b| !grouped.contains(b));
            m.groups.extend(groups.iter().cloned());
        }

        // --- Relocation epoch: advance to e + 2.
        let entered_relocation = self.advance_to(e + 2, tid);
        if entered_relocation {
            // Waiting phase: wait for every other in-critical thread to reach
            // the relocation epoch, then open the moving phase.
            let ready = self.wait_all_at(e + 2, tid);
            if ready {
                let pause_start = std::time::Instant::now();
                self.runtime.set_moving_phase(true);
                for group in &groups {
                    if !self.move_group(group, &mut report) {
                        // The mover "crashed" (injected fault): the rest of
                        // the phase dies with it; the epilogue below bails
                        // every still-pending relocation.
                        break;
                    }
                }
                self.runtime.set_moving_phase(false);
                let pause_ns = pause_start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                self.runtime.stats.compaction_pause_ns.record(pause_ns);
                smc_obs::trace::emit(smc_obs::Event::CompactionRelocate {
                    context: self.id,
                    moved: report.moved as u64,
                    bailed: report.bailed as u64,
                    nanos: pause_ns,
                });
            }
        }

        // --- Close: advance to e + 3 and clear relocation state.
        let _ = self.advance_to(e + 3, tid);
        self.runtime.set_relocation_epoch(0);
        self.runtime.epochs.release_advance(tid);
        drop(guard);

        // Roll back anything still pending (aborted, cancelled, or timed-out
        // groups) through the cancel/bail path.
        for group in &groups {
            for &src in &group.sources {
                let list = src.header().reloc_list.load(Ordering::Acquire);
                if list.is_null() {
                    continue;
                }
                let list = unsafe { &*list };
                for entry in &list.entries {
                    if entry.status() == RelocStatus::Pending {
                        unsafe { cancel_relocation(src, entry) };
                        report.bailed += 1;
                        MemoryStats::inc(&self.runtime.stats.relocations_bailed);
                    }
                }
            }
        }

        // A cancel request is consumed by the pass that observed it (or, if
        // it arrived too late to stop anything, by this pass completing).
        self.cancel_requested.store(false, Ordering::Release);

        self.publish_groups(&groups, &mut report);
        MemoryStats::inc(&self.runtime.stats.compactions);
        report.groups = groups.len();
        smc_obs::trace::emit(smc_obs::Event::CompactionRetire {
            context: self.id,
            retired: report.retired_bases.len() as u64,
        });
        self.runtime
            .stats
            .compaction_pass_ns
            .record(pass_start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        report
    }

    /// Releases candidate blocks that will not be compacted this pass.
    /// They never left the membership, so only the flag is cleared.
    fn requeue_candidates(&self, candidates: Vec<BlockRef>) {
        for b in candidates {
            b.header().compacting.store(0, Ordering::Release);
        }
    }

    /// Greedily packs candidate blocks into groups whose live objects fit a
    /// single fresh destination block, freezing every scheduled object.
    fn build_groups(&self, candidates: Vec<BlockRef>) -> Vec<Arc<CompactionGroup>> {
        let capacity = self.layout.capacity;
        let mut groups = Vec::new();
        let mut current: Vec<BlockRef> = Vec::new();
        let mut current_live = 0u32;
        let mut leftovers: Vec<BlockRef> = Vec::new();

        let flush = |sources: &mut Vec<BlockRef>,
                     groups: &mut Vec<Arc<CompactionGroup>>,
                     leftovers: &mut Vec<BlockRef>| {
            if sources.len() < 2 {
                // Compacting a single block would only shuffle it; skip.
                leftovers.append(sources);
                return;
            }
            if let Some(group) = self.freeze_group(std::mem::take(sources)) {
                groups.push(group);
            }
        };

        for block in candidates {
            let live = block.header().valid_count.load(Ordering::Relaxed);
            if current_live + live > capacity && !current.is_empty() {
                flush(&mut current, &mut groups, &mut leftovers);
                current_live = 0;
            }
            current.push(block);
            current_live += live;
        }
        flush(&mut current, &mut groups, &mut leftovers);

        // Blocks that did not fit a group go back to regular membership.
        if !leftovers.is_empty() {
            self.requeue_candidates(leftovers);
        }
        groups
    }

    /// Allocates the destination block and freezes every live object of the
    /// group's sources, building their relocation lists.
    fn freeze_group(&self, sources: Vec<BlockRef>) -> Option<Arc<CompactionGroup>> {
        // Destination blocks also count against the budget: a compaction
        // under memory pressure degrades gracefully to "no groups formed"
        // rather than pushing the runtime over its cap.
        let dest = match self
            .runtime
            .allocate_block(&self.layout, self.type_id, self.id)
        {
            Ok(d) => d,
            Err(_) => {
                self.requeue_candidates(sources);
                return None;
            }
        };
        // Destinations are born mid-pass: a free of a just-moved object must
        // not hand the block to the reclamation queue while the pass still
        // writes into it — `publish_groups` may even bury it (fully-freed
        // dest) and a queued-but-buried block is a use-after-free waiting in
        // `pop_reclaimable`. The flag comes off when the block enters
        // regular membership.
        dest.header().compacting.store(1, Ordering::Release);
        let mut next_dest_slot: SlotId = 0;
        for &src in &sources {
            let mut entries = Vec::new();
            for slot_id in src.valid_slots() {
                let back = src.back_ptr(slot_id).load(Ordering::Acquire);
                if back == 0 {
                    continue;
                }
                let entry = unsafe { EntryRef::from_addr(back) };
                // Sample the slot incarnation *before* freezing the entry: if
                // the object is freed (and the slot possibly reused) between
                // the two freezes, the slot counter has moved on and the
                // flag-set below fails instead of freezing an unrelated
                // object. The stale reloc entry then dies at the mover's
                // entry lock.
                let slot_inc = self.slot_inc(&src, slot_id).incarnation();
                let inc = entry.get().inc().incarnation();
                // Freeze the indirection entry first (authoritative), then
                // the slot word for direct-pointer readers. A failure means
                // the object was freed concurrently — skip it.
                if !entry.get().inc().try_set_flag(inc, FLAG_FROZEN) {
                    continue;
                }
                // Re-check the slot now that the entry is frozen: a racing
                // free bumps the entry only *after* its slot surgery, so if
                // the `inc` we froze was the post-free counter, the slot is
                // observably limbo by now (the bump's release ordering
                // publishes the surgery, and source slots cannot be reused
                // mid-pass — the block is marked compacting and the epoch is
                // held). Retract the freeze and skip; without this the pass
                // would relocate a mid-free object and the freer would write
                // into a block the pass then retires and frees.
                if src.slot_word(slot_id).state() != SlotState::Valid {
                    entry.get().inc().clear_flag(inc, FLAG_FROZEN);
                    continue;
                }
                let _ = self
                    .slot_inc(&src, slot_id)
                    .try_set_flag(slot_inc, FLAG_FROZEN);
                let dest_slot = next_dest_slot;
                next_dest_slot += 1;
                let dest_addr = self.payload_of(&dest, dest_slot);
                entries.push(RelocEntry::new(slot_id, back, inc, dest_addr, dest_slot));
            }
            let list = Box::new(RelocationList::new(self.obj_size, entries));
            let old = src
                .header()
                .reloc_list
                .swap(Box::into_raw(list), Ordering::AcqRel);
            if !old.is_null() {
                drop(unsafe { Box::from_raw(old) });
            }
        }
        Some(Arc::new(CompactionGroup {
            sources,
            dest,
            query_counter: AtomicU32::new(0),
            started: AtomicBool::new(false),
            settled: AtomicBool::new(false),
        }))
    }

    /// Executes the moving phase for one group, honoring pre-state query
    /// pins (§5.2).
    /// Returns false if an injected fault killed the mover — the caller must
    /// abandon the rest of the moving phase, as a crashed thread would.
    fn move_group(&self, group: &CompactionGroup, report: &mut CompactionReport) -> bool {
        // Announce the relocation *before* the final counter check, then
        // wait for pre-state readers to drain; a reader either pins before
        // our announcement (we wait for it) or observes the announcement
        // and takes the post-state path.
        group.started.store(true, Ordering::SeqCst);
        if !group.wait_pre_readers(Some(Instant::now() + self.config.compaction_patience)) {
            // §5.2: bail out of compacting this group — a query returned
            // control to the application while holding the read pin.
            // `started` stays set: late readers take the post-state
            // union, which still covers unmoved objects in the sources.
            return true;
        }
        for &src in &group.sources {
            let list = src.header().reloc_list.load(Ordering::Acquire);
            if list.is_null() {
                continue;
            }
            let list = unsafe { &*list };
            for entry in &list.entries {
                // Crash-only compaction failpoint: an injected fault kills
                // the mover mid-group, as an OS failure would. Entries still
                // `Pending` are bailed out by the pass epilogue, so the
                // context stays valid and a later pass retries them.
                if self.runtime.faults().should_fail(FaultSite::Relocation) {
                    report.interrupted = true;
                    MemoryStats::inc(&self.runtime.stats.compactions_interrupted);
                    return false;
                }
                // Cooperative cancel (watchdog / quiesce): stop moving and
                // let the epilogue roll the remaining entries back through
                // the bail path.
                if self.cancel_requested.load(Ordering::Acquire) {
                    report.cancelled = true;
                    return false;
                }
                match unsafe { try_move_object(src, entry) } {
                    MoveOutcome::MovedByUs => {
                        report.moved += 1;
                        MemoryStats::inc(&self.runtime.stats.objects_relocated);
                    }
                    MoveOutcome::AlreadyMoved => report.moved += 1,
                    MoveOutcome::BailedOut => {}
                    MoveOutcome::Freed => {}
                }
            }
        }
        true
    }

    /// Disbands groups after a pass: publishes destinations, retires emptied
    /// sources, and returns partially-moved sources to regular membership.
    fn publish_groups(&self, groups: &[Arc<CompactionGroup>], report: &mut CompactionReport) {
        let mut m = self.membership.write();
        for group in groups {
            m.groups.retain(|g| !Arc::ptr_eq(g, group));
            if group.dest.header().valid_count.load(Ordering::Relaxed) > 0 {
                // Joining regular membership lifts the mid-pass reclamation
                // embargo set at allocation (see `freeze_group`).
                group.dest.header().compacting.store(0, Ordering::Release);
                m.blocks.push(group.dest);
            } else {
                // `compacting` stays set on the discarded dest, same as on
                // retired sources below: the block is headed for the
                // graveyard and must stay un-enqueueable.
                // Nothing moved (fully bailed/aborted): discard the dest.
                self.runtime
                    .bury_block(group.dest, self.runtime.global_epoch() + 2);
            }
            for &src in &group.sources {
                if src.header().valid_count.load(Ordering::Relaxed) == 0 {
                    // `compacting` stays set on retired sources: it is what
                    // keeps a straggling `free` (which sampled the block
                    // before the move) from re-enqueueing a block that is
                    // headed for the graveyard. The flag is reinitialized
                    // with the rest of the header if the memory is reused.
                    report.retired_bases.push(src.base() as usize);
                    self.pending_retired.lock().push(src);
                } else {
                    src.header().compacting.store(0, Ordering::Release);
                    m.blocks.push(src);
                }
            }
            group.settled.store(true, Ordering::Release);
        }
    }

    /// Buries retired source blocks once the caller has finished fixing up
    /// direct pointers into them (§6). Tombstones stay readable until every
    /// epoch that could observe them has passed.
    pub fn release_retired(&self) {
        let retired: Vec<BlockRef> = self.pending_retired.lock().drain(..).collect();
        let free_at = self.runtime.global_epoch() + 2;
        for block in retired {
            self.runtime.bury_block(block, free_at);
        }
    }

    /// Number of retired blocks awaiting [`release_retired`](Self::release_retired).
    pub fn pending_retired_len(&self) -> usize {
        self.pending_retired.lock().len()
    }

    fn advance_to(&self, target: u64, tid: usize) -> bool {
        let deadline = Instant::now() + self.config.compaction_patience;
        while self.runtime.global_epoch() < target {
            if self.runtime.epochs.try_advance_excluding(tid).is_none() {
                if Instant::now() >= deadline {
                    return false;
                }
                crate::sync::thread_yield();
            }
        }
        true
    }

    fn wait_all_at(&self, epoch: u64, tid: usize) -> bool {
        let deadline = Instant::now() + self.config.compaction_patience;
        loop {
            // "All other threads in the relocation epoch" is exactly the
            // condition under which the epoch could advance past it.
            if self.runtime.epochs.can_advance_excluding(tid, epoch) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            crate::sync::thread_yield();
        }
    }

    /// Live objects across all blocks, resident and spilled.
    pub fn live_objects(&self) -> u64 {
        let m = self.membership_snapshot();
        let count = |b: &BlockRef| b.header().valid_count.load(Ordering::Relaxed) as u64;
        m.blocks.iter().map(count).sum::<u64>()
            + m.groups
                .iter()
                .map(|g| g.sources.iter().map(count).sum::<u64>() + count(&g.dest))
                .sum::<u64>()
            // The gauge, not the page list: `len()` must stay callable from
            // inside a spilled-page scan callback, which holds the spill
            // mutex.
            + self.spilled_objects_gauge.load(Ordering::Relaxed)
    }

    // ------------------------------------------------------------------
    // Spill and fault-in (persistence tier)
    // ------------------------------------------------------------------

    /// Attaches a page store, enabling the spill rung of the OOM ladder and
    /// fault-in on dereference. Returns false for columnar contexts (their
    /// entry payloads point into the incarnation column, whose cells the
    /// relocation protocol reads unconditionally — spill tagging is a
    /// row-store feature).
    pub fn enable_spill(self: &Arc<Self>, store: Arc<dyn PageStore>) -> bool {
        if self.mode != LayoutMode::Rows {
            return false;
        }
        let mut s = self.spill.lock();
        s.store = Some(store);
        s.this = Arc::downgrade(self);
        true
    }

    /// True once [`enable_spill`](Self::enable_spill) has attached a store.
    pub fn spill_enabled(&self) -> bool {
        self.spill.lock().store.is_some()
    }

    /// Blocks currently spilled to the page store.
    pub fn spilled_blocks(&self) -> u64 {
        self.spilled_blocks_gauge.load(Ordering::Relaxed)
    }

    /// Objects currently living in spilled pages.
    pub fn spilled_objects(&self) -> u64 {
        self.spilled_objects_gauge.load(Ordering::Relaxed)
    }

    /// Runs `f` over the spilled-page directory under the spill mutex.
    /// Used by the validator and the persistence tier, which must observe
    /// a page list that cannot race fault-in.
    pub(crate) fn with_spill_pages<R>(&self, f: impl FnOnce(&[SpilledPage]) -> R) -> R {
        let s = self.spill.lock();
        f(&s.pages)
    }

    /// Evicts one cold resident block to the page store. Returns true when a
    /// block was spilled; false when spill is disabled, no block qualifies,
    /// the store failed (rolled back), or the caller is inside a
    /// spilled-page scan (the mutex is already held above us).
    pub fn try_spill_one(&self) -> bool {
        if spill::in_spill_scan() {
            return false;
        }
        let mut s = self.spill.lock();
        if s.store.is_none() {
            return false;
        }
        self.try_spill_one_locked(&mut s)
    }

    /// Spill body; requires the spill mutex. Victim selection mirrors
    /// compaction's candidate selection (owner-free, not compacting, pulled
    /// out of the reclamation queue), minus the occupancy ceiling — any
    /// resident block with live objects is a candidate, coldest-first being
    /// approximated by collection order.
    fn try_spill_one_locked(&self, s: &mut SpillState) -> bool {
        let store = s.store.as_ref().expect("spill store attached").clone();
        let victim = {
            let m = self.membership.read();
            let mut q = self.reclaim_queue.lock();
            let found = m.blocks.iter().find(|b| {
                let h = b.header();
                h.valid_count.load(Ordering::Relaxed) > 0
                    && h.active_owner.load(Ordering::Acquire) == 0
                    && h.compacting
                        .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
            });
            match found {
                Some(b) => {
                    let h = b.header();
                    if h.in_reclaim_queue.load(Ordering::Acquire) == 1 {
                        q.retain(|(qb, _)| qb != b);
                        h.in_reclaim_queue.store(0, Ordering::Release);
                    }
                    *b
                }
                None => return false,
            }
        };
        // Remove the victim from membership before touching entries: scans
        // snapshot membership under this same spill mutex, so no enumeration
        // can miss the block (it is either in their snapshot or in the page
        // list, never neither, never both).
        self.membership.write().blocks.retain(|b| *b != victim);
        let header = victim.header();
        let block_id = header.block_id;
        let stub = Box::new(SpillStub {
            ctx: s.this.clone(),
            block_id,
        });
        let tag = Box::into_raw(stub) as usize | SPILL_TAG;
        let obj_size = self.obj_size as usize;
        let mut entries: Vec<(usize, SlotId)> = Vec::new();
        let mut objs: Vec<u8> = Vec::new();
        for slot_id in victim.valid_slots() {
            let back = victim.back_ptr(slot_id).load(Ordering::Acquire);
            if back == 0 {
                continue;
            }
            let entry = unsafe { EntryRef::from_addr(back) };
            let inc = entry.get().inc().incarnation();
            let Some(observed) = entry.get().inc().lock(inc) else {
                continue; // freed concurrently between state check and lock
            };
            if entry.get().load_payload(Ordering::Acquire) != self.payload_of(&victim, slot_id) {
                // The entry moved on (freed and reused); not ours to spill.
                entry
                    .get()
                    .inc()
                    .unlock_with_flags(observed & FLAG_MASK & !FLAG_LOCK);
                continue;
            }
            let src = self.payload_of(&victim, slot_id) as *const u8;
            let at = objs.len();
            objs.resize(at + obj_size, 0);
            unsafe { std::ptr::copy_nonoverlapping(src, objs[at..].as_mut_ptr(), obj_size) };
            // Retire direct pointers into the page — a spilled slot must not
            // satisfy a §6 direct dereference against stale memory.
            self.slot_inc(&victim, slot_id).bump_unlocked();
            entry.get().store_payload(tag, Ordering::Release);
            entry
                .get()
                .inc()
                .unlock_with_flags(observed & FLAG_MASK & !FLAG_LOCK);
            entries.push((back, slot_id));
        }
        if entries.is_empty() {
            // Raced empty: undo and report no progress.
            drop(unsafe { Box::from_raw((tag & !SPILL_TAG) as *mut SpillStub) });
            self.membership.write().blocks.push(victim);
            header.compacting.store(0, Ordering::Release);
            self.maybe_enqueue_for_reclamation(victim);
            return false;
        }
        let page = spill::encode_page(block_id, obj_size, &entries, &objs);
        let ticket = match store.store_page(block_id, &page) {
            Ok(t) => t,
            Err(_) => {
                // Store failed: restore every tagged entry. We still hold
                // the spill mutex, so nothing else can have repointed them.
                for &(back, slot_id) in &entries {
                    let entry = unsafe { EntryRef::from_addr(back) };
                    let inc = entry.get().inc().incarnation();
                    if let Some(observed) = entry.get().inc().lock(inc) {
                        if entry.get().load_payload(Ordering::Acquire) == tag {
                            entry.get().store_payload(
                                self.payload_of(&victim, slot_id),
                                Ordering::Release,
                            );
                        }
                        entry
                            .get()
                            .inc()
                            .unlock_with_flags(observed & FLAG_MASK & !FLAG_LOCK);
                    }
                }
                drop(unsafe { Box::from_raw((tag & !SPILL_TAG) as *mut SpillStub) });
                self.membership.write().blocks.push(victim);
                header.compacting.store(0, Ordering::Release);
                self.maybe_enqueue_for_reclamation(victim);
                MemoryStats::inc(&self.runtime.stats.spill_fault_failures);
                return false;
            }
        };
        self.spilled_blocks_gauge.fetch_add(1, Ordering::Relaxed);
        self.spilled_objects_gauge
            .fetch_add(entries.len() as u64, Ordering::Relaxed);
        MemoryStats::inc(&self.runtime.stats.blocks_spilled);
        s.pages.push(SpilledPage {
            block_id,
            ticket,
            tag,
            entries,
        });
        // The victim's slots stay Valid with intact data until burial ripens:
        // a reader that loaded the resident payload just before our tag store
        // reads the old copy safely for two more epochs. (In-place writes in
        // that window are lost on fault-in — the same isolation caveat as a
        // §5 relocation mid-copy; mutate through `try_update`-style replace,
        // not in place, when spill is enabled.)
        self.runtime
            .bury_block(victim, self.runtime.global_epoch() + 2);
        smc_obs::trace::emit(smc_obs::Event::BlockSpilled {
            context: self.id,
            block_id,
        });
        true
    }

    /// Brings the spilled page `block_id` back to residency. `Ok(true)` when
    /// this call faulted the page in, `Ok(false)` when the page was not
    /// spilled (typically: another thread won the race). Fails closed with
    /// [`MemError::SpillFault`] on any store or integrity failure — the page
    /// stays spilled and the heap intact — and when called from inside a
    /// spilled-page scan callback (the scan already streams the data).
    pub fn fault_in_block(&self, block_id: u64) -> Result<bool, MemError> {
        if spill::in_spill_scan() {
            return Err(MemError::SpillFault);
        }
        let start = Instant::now();
        let mut s = self.spill.lock();
        // Make room first if the budget is hot: faulting one page in while
        // over budget should displace another page, not grow the footprint.
        if let Some(budget) = self.config.budget_bytes {
            if s.store.is_some() && (self.bytes() + crate::block::BLOCK_SIZE) as u64 > budget {
                let _ = self.try_spill_one_locked(&mut s);
            }
        }
        let Some(idx) = s.pages.iter().position(|p| p.block_id == block_id) else {
            return Ok(false);
        };
        let store = s.store.as_ref().expect("page without store").clone();
        let ticket = s.pages[idx].ticket;
        let mut bytes = Vec::new();
        if store.load_page(ticket, block_id, &mut bytes).is_err() {
            MemoryStats::inc(&self.runtime.stats.spill_fault_failures);
            return Err(MemError::SpillFault);
        }
        let records = match spill::decode_page(&bytes, block_id, self.obj_size as u64) {
            Ok(r) => r,
            Err(_) => {
                MemoryStats::inc(&self.runtime.stats.spill_fault_failures);
                return Err(MemError::SpillFault);
            }
        };
        if records.len() != s.pages[idx].entries.len() {
            MemoryStats::inc(&self.runtime.stats.spill_fault_failures);
            return Err(MemError::SpillFault);
        }
        // Fresh block, new block id: fault-in is a relocation, not a revival.
        // Allocation bypasses the runtime budget gate — the faulting thread
        // may be pinned (dereference path) and so can never ripen its own
        // victim's burial; see `Runtime::allocate_block_unbudgeted`.
        let fresh = self
            .runtime
            .allocate_block_unbudgeted(&self.layout, self.type_id, self.id)?;
        let page = s.pages.swap_remove(idx);
        let obj_size = self.obj_size as usize;
        let mut live: u32 = 0;
        for (i, (entry_addr, obj)) in records.iter().enumerate() {
            let slot_id = i as SlotId;
            debug_assert_eq!(*entry_addr as usize, page.entries[i].0);
            let entry = unsafe { EntryRef::from_addr(*entry_addr as usize) };
            // Object bytes, back pointer and slot state land before the
            // payload repoint publishes the slot to retrying readers.
            unsafe {
                std::ptr::copy_nonoverlapping(obj.as_ptr(), fresh.obj_ptr(slot_id), obj_size)
            };
            fresh
                .back_ptr(slot_id)
                .store(*entry_addr as usize, Ordering::Release);
            fresh.slot_word(slot_id).set_valid();
            if entry.get().load_payload(Ordering::Acquire) == page.tag {
                entry
                    .get()
                    .store_payload(self.payload_of(&fresh, slot_id), Ordering::Release);
                live += 1;
            } else {
                // Defensive: the entry no longer references this page (it
                // should be impossible — frees fault in first). Unpublish.
                fresh.slot_word(slot_id).reset();
                fresh.back_ptr(slot_id).store(0, Ordering::Release);
            }
        }
        fresh.header().valid_count.store(live, Ordering::Relaxed);
        fresh
            .header()
            .alloc_cursor
            .store(records.len() as SlotId, Ordering::Relaxed);
        self.membership.write().blocks.push(fresh);
        store.discard_page(page.ticket);
        // The stub outlives the repoint by two epochs: a reader pinned now
        // may still hold the tagged payload it loaded before us.
        self.runtime
            .bury_stub(page.tag & !SPILL_TAG, self.runtime.global_epoch() + 2);
        self.spilled_blocks_gauge.fetch_sub(1, Ordering::Relaxed);
        self.spilled_objects_gauge
            .fetch_sub(page.entries.len() as u64, Ordering::Relaxed);
        MemoryStats::inc(&self.runtime.stats.blocks_faulted_in);
        let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.runtime.stats.spill_fault_ns.record(nanos);
        smc_obs::trace::emit(smc_obs::Event::BlockFaulted {
            context: self.id,
            block_id,
            nanos,
        });
        Ok(true)
    }

    /// Streams every spilled record through `visit` *without* promoting
    /// pages to residency, then returns a membership snapshot taken under
    /// the same spill mutex — the scan-without-thrashing primitive behind
    /// `Smc::for_each`. A page and its resident reincarnation can never both
    /// be visited: pages faulted in after this walk hold blocks that are not
    /// in the returned snapshot, and blocks spilled after the snapshot keep
    /// their (still live, epoch-protected) resident copies.
    ///
    /// `visit` receives `(entry_addr, object_ptr)` per record — the pointer
    /// is aligned for the object type and valid for the duration of the
    /// call — and runs with the spill mutex held: it may free resident
    /// objects, allocate, and call [`live_objects`](Self::live_objects), but
    /// freeing a *spilled* object or nesting another spilled scan fails with
    /// [`MemError::SpillFault`].
    pub fn scan_spilled_then_snapshot(
        &self,
        visit: &mut dyn FnMut(usize, *const u8),
    ) -> Result<Membership, MemError> {
        if self.mode != LayoutMode::Rows || spill::in_spill_scan() {
            return Ok(self.membership_snapshot());
        }
        let s = self.spill.lock();
        if s.pages.is_empty() {
            return Ok(self.membership_snapshot());
        }
        let store = s.store.as_ref().expect("pages without store").clone();
        let _scan = SpillScanGuard::enter();
        let mut bytes = Vec::new();
        // Page records are packed back to back, so a record may sit at an
        // address the object type cannot be read from; such a record is
        // handed to `visit` as an aligned scratch copy.
        let obj_size = self.obj_size as usize;
        let mut scratch = vec![0u8; obj_size + self.obj_align];
        let aligned = scratch.as_ptr().align_offset(self.obj_align);
        let scratch = &mut scratch[aligned..aligned + obj_size];
        for page in &s.pages {
            if store
                .load_page(page.ticket, page.block_id, &mut bytes)
                .is_err()
            {
                MemoryStats::inc(&self.runtime.stats.spill_fault_failures);
                return Err(MemError::SpillFault);
            }
            let records = match spill::decode_page(&bytes, page.block_id, self.obj_size as u64) {
                Ok(r) => r,
                Err(_) => {
                    MemoryStats::inc(&self.runtime.stats.spill_fault_failures);
                    return Err(MemError::SpillFault);
                }
            };
            for (entry_addr, obj) in records {
                let obj = if obj.as_ptr().align_offset(self.obj_align) == 0 {
                    obj.as_ptr()
                } else {
                    scratch.copy_from_slice(obj);
                    scratch.as_ptr()
                };
                visit(entry_addr as usize, obj);
            }
        }
        Ok(self.membership_snapshot())
    }
}

impl Drop for MemoryContext {
    fn drop(&mut self) {
        // Invalidate every live object so stale references dereference to
        // null rather than into recycled blocks, then hand all blocks to the
        // runtime graveyard for epoch-safe burial.
        let free_at = self.runtime.global_epoch() + 2;
        // Spilled pages first: retire their entries (stale refs upgrade the
        // stub's weak context handle and get null), release the store pages,
        // and bury the stubs like any other epoch-protected object.
        let s = self.spill.get_mut();
        let store = s.store.clone();
        for page in s.pages.drain(..) {
            for &(entry_addr, _) in &page.entries {
                let entry = unsafe { EntryRef::from_addr(entry_addr) };
                if entry.get().load_payload(Ordering::Acquire) == page.tag {
                    entry.get().inc().bump_unlocked();
                    self.runtime.indirection.release(entry, 0);
                    MemoryStats::inc(&self.runtime.stats.objects_freed);
                }
            }
            if let Some(store) = &store {
                store.discard_page(page.ticket);
            }
            self.runtime.bury_stub(page.tag & !SPILL_TAG, free_at);
        }
        self.spilled_blocks_gauge.store(0, Ordering::Relaxed);
        self.spilled_objects_gauge.store(0, Ordering::Relaxed);
        let m = self.membership.get_mut();
        let all_blocks = m
            .blocks
            .drain(..)
            .chain(m.groups.drain(..).flat_map(|g| {
                let mut v = g.sources.clone();
                v.push(g.dest);
                v
            }))
            .chain(self.pending_retired.get_mut().drain(..))
            .collect::<Vec<_>>();
        for block in all_blocks {
            for slot_id in block.valid_slots() {
                let back = block.back_ptr(slot_id).load(Ordering::Acquire);
                if back != 0 {
                    let entry = unsafe { EntryRef::from_addr(back) };
                    entry.get().inc().bump_unlocked();
                    self.runtime.indirection.release(entry, 0);
                }
                self.slot_inc(&block, slot_id).bump_unlocked();
                MemoryStats::inc(&self.runtime.stats.objects_freed);
            }
            self.runtime.bury_block(block, free_at);
        }
        self.runtime.drain_graveyard();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::type_id_of;

    fn ctx(rt: &Arc<Runtime>) -> MemoryContext {
        MemoryContext::new_rows(
            rt.clone(),
            8,
            8,
            type_id_of::<u64>(),
            ContextConfig::default(),
        )
        .unwrap()
    }

    fn ctx_with(rt: &Arc<Runtime>, config: ContextConfig) -> MemoryContext {
        MemoryContext::new_rows(rt.clone(), 8, 8, type_id_of::<u64>(), config).unwrap()
    }

    fn alloc_u64(c: &MemoryContext, v: u64) -> Allocation {
        c.alloc_with(|block, slot| unsafe { block.obj_ptr(slot).cast::<u64>().write(v) })
            .unwrap()
    }

    fn read_u64(entry: EntryRef) -> u64 {
        let payload = entry.get().load_payload(Ordering::Acquire);
        unsafe { (payload as *const u64).read() }
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
        assert_ne!(c.slot_inc(&a.block, a.slot).incarnation(), a.slot_inc);
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
        assert_eq!(MemoryStats::get(&rt.stats.objects_freed), 1);
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
            budget_bytes: Some(crate::block::BLOCK_SIZE as u64),
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
        // 4 bytes inc column + 8 bytes value column per slot.
        let c = MemoryContext::new_columnar(
            rt.clone(),
            12,
            type_id_of::<u64>(),
            ContextConfig::default(),
        )
        .unwrap();
        let cap = c.layout().capacity as usize;
        let a = c
            .alloc_with(|block, slot| unsafe {
                // Value column starts after the inc column.
                let col_base = block.store_base().add(cap * 4).cast::<u64>();
                col_base.add(slot as usize).write(777);
            })
            .unwrap();
        let payload = a.entry.get().load_payload(Ordering::Acquire);
        let (block, slot) = unsafe { c.locate(payload) };
        assert_eq!((block, slot), (a.block, a.slot));
        let v = unsafe {
            block
                .store_base()
                .add(cap * 4)
                .cast::<u64>()
                .add(slot as usize)
                .read()
        };
        assert_eq!(v, 777);
        assert!(c.free(a.entry, a.entry_inc));
    }

    #[test]
    fn compaction_empties_sparse_blocks() {
        let rt = Runtime::new();
        // Never queue: isolate compaction.
        let config = ContextConfig {
            reclamation_threshold: 1.1,
            ..ContextConfig::default()
        };
        let c = ctx_with(&rt, config);
        let cap = c.layout().capacity as usize;
        // Fill four blocks, then delete 90% of each.
        let mut allocs = Vec::new();
        for i in 0..cap * 4 {
            allocs.push(alloc_u64(&c, i as u64));
        }
        let mut kept = Vec::new();
        for (i, a) in allocs.iter().enumerate() {
            if i % 10 == 0 {
                kept.push((*a, i as u64));
            } else {
                assert!(c.free(a.entry, a.entry_inc));
            }
        }
        let blocks_before = c.block_count();
        let report = c.compact();
        assert!(!report.aborted);
        assert!(report.groups >= 1, "sparse blocks should form groups");
        assert!(report.moved > 0);
        assert!(!report.retired_bases.is_empty());
        assert!(c.pending_retired_len() > 0);
        // Every kept object survives, reachable through its entry, with the
        // same entry incarnation (references stay valid across compaction).
        for (a, v) in &kept {
            assert_eq!(a.entry.get().inc().incarnation(), a.entry_inc);
            assert_eq!(read_u64(a.entry), *v);
        }
        c.release_retired();
        rt.drain_graveyard_blocking();
        assert!(
            c.block_count() < blocks_before,
            "compaction should shrink the context"
        );
        // Relocation state fully cleared.
        assert_eq!(rt.next_relocation_epoch(), 0);
        assert!(!rt.in_moving_phase());
        assert!(c.membership_snapshot().groups.is_empty());
    }

    #[test]
    fn compaction_leaves_dense_blocks_alone() {
        let rt = Runtime::new();
        let c = ctx(&rt);
        let cap = c.layout().capacity as usize;
        for i in 0..cap * 2 {
            alloc_u64(&c, i as u64);
        }
        let report = c.compact();
        assert_eq!(report.groups, 0);
        assert_eq!(report.moved, 0);
    }

    #[test]
    fn compaction_tombstones_carry_forward_flag() {
        let rt = Runtime::new();
        let config = ContextConfig {
            reclamation_threshold: 1.1,
            ..ContextConfig::default()
        };
        let c = ctx_with(&rt, config);
        let cap = c.layout().capacity as usize;
        let mut allocs = Vec::new();
        for i in 0..cap * 3 {
            allocs.push(alloc_u64(&c, i as u64));
        }
        let survivor = allocs[0];
        for a in allocs.iter().skip(1) {
            c.free(a.entry, a.entry_inc);
        }
        let report = c.compact();
        assert!(report.moved >= 1);
        // The survivor's old slot is now a forwarding tombstone.
        let word = c
            .slot_inc(&survivor.block, survivor.slot)
            .load(Ordering::Acquire);
        assert_ne!(word & crate::incarnation::FLAG_FORWARD, 0);
        // Its entry points at the new location, which holds the value.
        assert_eq!(read_u64(survivor.entry), 0);
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

    #[test]
    fn group_read_pins_pre_state_until_relocation_starts() {
        let rt = Runtime::new();
        let layout = BlockLayout::rows_of::<u64>().unwrap();
        let src = BlockRef::allocate(&layout, 1, 1).unwrap();
        let dest = BlockRef::allocate(&layout, 1, 1).unwrap();
        let group = Arc::new(CompactionGroup {
            sources: vec![src],
            dest,
            query_counter: AtomicU32::new(0),
            started: AtomicBool::new(false),
            settled: AtomicBool::new(false),
        });
        rt.epochs.try_advance().expect("nothing is pinned");
        let guard = rt.pin();
        rt.set_relocation_epoch(guard.epoch());
        {
            // Pre-state: sources only, counter held for the reader's life.
            let read = group.read(&guard, &rt.stats);
            assert_eq!(group.query_counter.load(Ordering::SeqCst), 1);
            assert_eq!(read.blocks().collect::<Vec<_>>(), [src]);
        }
        assert_eq!(group.query_counter.load(Ordering::SeqCst), 0);
        // Once this group's relocation has started, pinning must fail and
        // the read covers dest plus sources.
        group.started.store(true, Ordering::SeqCst);
        let read = group.read(&guard, &rt.stats);
        assert_eq!(group.query_counter.load(Ordering::SeqCst), 0);
        assert_eq!(read.blocks().collect::<Vec<_>>(), [dest, src]);
        drop(read);
        rt.set_relocation_epoch(0);
        unsafe {
            src.deallocate();
            dest.deallocate();
        }
    }

    // ---- spill tier -----------------------------------------------------

    fn spill_ctx(rt: &Arc<Runtime>) -> (Arc<MemoryContext>, Arc<crate::spill::MemoryPageStore>) {
        let c = Arc::new(ctx(rt));
        let store = Arc::new(crate::spill::MemoryPageStore::new());
        assert!(c.enable_spill(store.clone()));
        (c, store)
    }

    /// Fills exactly two blocks and spills the first (cold) one.
    fn fill_two_blocks_and_spill(
        rt: &Arc<Runtime>,
        c: &Arc<MemoryContext>,
    ) -> (Vec<Allocation>, Vec<Allocation>) {
        let cap = c.layout().capacity as usize;
        let first: Vec<_> = (0..cap).map(|i| alloc_u64(c, i as u64)).collect();
        let second: Vec<_> = (cap..cap + 4).map(|i| alloc_u64(c, i as u64)).collect();
        assert_eq!(c.block_count(), 2);
        assert!(c.try_spill_one(), "a full cold block must be spillable");
        assert_eq!(c.spilled_blocks(), 1);
        assert_eq!(c.spilled_objects(), cap as u64);
        assert_eq!(c.block_count(), 1, "the victim leaves membership");
        let _ = rt;
        (first, second)
    }

    #[test]
    fn spill_then_free_faults_the_page_back_in() {
        let rt = Runtime::new();
        let (c, store) = spill_ctx(&rt);
        let (first, _second) = fill_two_blocks_and_spill(&rt, &c);
        assert_eq!(store.len(), 1);
        // live_objects counts spilled objects; verify balances.
        let cap = c.layout().capacity as u64;
        assert_eq!(c.live_objects(), cap + 4);
        let report = c.verify().unwrap();
        assert_eq!(report.spilled_slots, cap);
        assert_eq!(report.valid_slots + report.spilled_slots, cap + 4);
        // Freeing a spilled object transparently faults its page in.
        let victim = &first[3];
        assert!(c.try_free(victim.entry, victim.entry_inc).unwrap());
        assert_eq!(c.spilled_blocks(), 0);
        assert_eq!(c.spilled_objects(), 0);
        assert_eq!(store.len(), 0, "the page ticket is discarded");
        assert_eq!(c.live_objects(), cap + 3);
        assert_eq!(MemoryStats::get(&rt.stats.blocks_spilled), 1);
        assert_eq!(MemoryStats::get(&rt.stats.blocks_faulted_in), 1);
        // The faulted-in copies carry the original values.
        for (i, a) in first.iter().enumerate() {
            if i == 3 {
                continue;
            }
            assert_eq!(
                read_u64(a.entry),
                i as u64,
                "object {i} survives the round trip"
            );
        }
        c.verify().unwrap();
    }

    #[test]
    fn budget_pressure_spills_instead_of_rejecting() {
        let rt = Runtime::new();
        let config = ContextConfig {
            // One resident block: growth must spill, not reject.
            budget_bytes: Some(crate::block::BLOCK_SIZE as u64),
            ..ContextConfig::default()
        };
        let c = Arc::new(ctx_with(&rt, config));
        let store = Arc::new(crate::spill::MemoryPageStore::new());
        assert!(c.enable_spill(store.clone()));
        let cap = c.layout().capacity as usize;
        // Allocate three blocks' worth under a one-block budget.
        let allocs: Vec<_> = (0..cap * 3).map(|i| alloc_u64(&c, i as u64)).collect();
        assert!(c.spilled_blocks() >= 2, "growth rode the spill rung");
        assert_eq!(c.block_count(), 1, "resident footprint stays at budget");
        assert_eq!(c.live_objects(), (cap * 3) as u64);
        assert_eq!(MemoryStats::get(&rt.stats.context_budget_rejections), 0);
        // Every object — resident or spilled — still reads back (reading a
        // spilled one faults it in, which may spill another block in turn).
        for (i, a) in allocs.iter().enumerate() {
            let payload = loop {
                let p = a.entry.get().load_payload(Ordering::Acquire);
                if !spill::is_spill_tagged(p) {
                    break p;
                }
                let block_id = unsafe { (*((p & !SPILL_TAG) as *const SpillStub)).block_id };
                c.fault_in_block(block_id).unwrap();
            };
            assert_eq!(unsafe { (payload as *const u64).read() }, i as u64);
        }
        c.verify().unwrap();
    }

    #[test]
    fn spill_store_failure_rolls_back_cleanly() {
        let rt = Runtime::new();
        let (c, store) = spill_ctx(&rt);
        let cap = c.layout().capacity as usize;
        let _allocs: Vec<_> = (0..cap + 4).map(|i| alloc_u64(&c, i as u64)).collect();
        store.fail_next_store();
        assert!(!c.try_spill_one(), "a failed store must report no spill");
        assert_eq!(c.spilled_blocks(), 0);
        assert_eq!(c.block_count(), 2, "the victim rejoins membership");
        assert_eq!(MemoryStats::get(&rt.stats.spill_fault_failures), 1);
        c.verify().unwrap();
        // The store works again: the next attempt succeeds.
        assert!(c.try_spill_one());
        c.verify().unwrap();
    }

    #[test]
    fn fault_in_load_failure_fails_closed() {
        let rt = Runtime::new();
        let (c, store) = spill_ctx(&rt);
        let (first, _second) = fill_two_blocks_and_spill(&rt, &c);
        store.set_fail_loads(true);
        let victim = &first[0];
        assert_eq!(
            c.try_free(victim.entry, victim.entry_inc).unwrap_err(),
            MemError::SpillFault,
            "an unreadable page must fail closed, never panic"
        );
        // The page stays spilled; nothing was partially materialized.
        assert_eq!(c.spilled_blocks(), 1);
        c.verify().unwrap();
        store.set_fail_loads(false);
        assert!(c.try_free(victim.entry, victim.entry_inc).unwrap());
        c.verify().unwrap();
    }

    #[test]
    fn fault_in_corrupted_page_fails_closed() {
        let rt = Runtime::new();
        let (c, store) = spill_ctx(&rt);
        let (first, _second) = fill_two_blocks_and_spill(&rt, &c);
        store.corrupt_page(0);
        let victim = &first[0];
        assert_eq!(
            c.try_free(victim.entry, victim.entry_inc).unwrap_err(),
            MemError::SpillFault
        );
        assert!(MemoryStats::get(&rt.stats.spill_fault_failures) >= 1);
        assert_eq!(c.spilled_blocks(), 1, "the corrupt page is not dropped");
    }

    #[test]
    fn spilled_scan_visits_every_object_exactly_once() {
        let rt = Runtime::new();
        let (c, _store) = spill_ctx(&rt);
        let (_first, _second) = fill_two_blocks_and_spill(&rt, &c);
        let cap = c.layout().capacity as usize;
        let mut seen = Vec::new();
        let snapshot = c
            .scan_spilled_then_snapshot(&mut |_entry_addr, obj| {
                seen.push(unsafe { obj.cast::<u64>().read() });
            })
            .unwrap();
        // The page walk yielded the spilled objects; the membership
        // snapshot holds the resident remainder — no overlap.
        assert_eq!(seen.len(), cap);
        seen.sort_unstable();
        let expect: Vec<u64> = (0..cap as u64).collect();
        assert_eq!(seen, expect);
        let resident: usize = snapshot
            .blocks
            .iter()
            .map(|b| b.header().valid_count.load(Ordering::Relaxed) as usize)
            .sum();
        assert_eq!(resident, 4);
    }

    #[test]
    fn context_drop_releases_spilled_entries() {
        let rt = Runtime::new();
        let store = Arc::new(crate::spill::MemoryPageStore::new());
        {
            let (c, _) = {
                let c = Arc::new(ctx(&rt));
                assert!(c.enable_spill(store.clone()));
                (c, ())
            };
            let _kept = fill_two_blocks_and_spill(&rt, &c);
        }
        rt.drain_graveyard_blocking();
        assert_eq!(store.len(), 0, "dropping the context discards its pages");
        assert_eq!(rt.indirection.live_entries(), 0);
        rt.verify().unwrap();
    }

    #[test]
    fn spill_disabled_for_columnar_contexts() {
        let rt = Runtime::new();
        let c = Arc::new(
            MemoryContext::new_columnar(
                rt.clone(),
                12,
                type_id_of::<u64>(),
                ContextConfig::default(),
            )
            .unwrap(),
        );
        let store = Arc::new(crate::spill::MemoryPageStore::new());
        assert!(!c.enable_spill(store), "columnar layouts cannot spill");
        assert!(!c.spill_enabled());
    }
}
