//! The compaction pass (§5) — group formation, freezing, and the epoch-driven
//! pass around the per-object hand-off of [`crate::reloc`].
//!
//! [`MemoryContext::compact`] implements the epoch-extended compaction
//! protocol: a freezing epoch that schedules relocations, a relocation epoch
//! with waiting and moving phases, reader cooperation via bail-out/help (in
//! [`crate::reloc`]), compaction groups whose sources are always emptied
//! into fresh blocks (§5.2), and query counters that let in-flight
//! enumerations pin a group's pre-relocation state. Candidate blocks are
//! taken with [`MemoryContext::claim`], the same claim a spill takes its
//! victim with, so one block is never emptied by both.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use smc_obs::clock;

use crate::block::BlockRef;
use crate::context::{MemoryContext, UnitRead};
use crate::epoch::{Guard, Slot};
use crate::error::MemError;
use crate::fault::FaultSite;
use crate::incarnation::FLAG_FROZEN;
use crate::indirection::EntryRef;
use crate::reloc::{
    cancel_relocation, try_move_object, MoveOutcome, RelocEntry, RelocStatus, RelocationList,
};
use crate::slot::{SlotId, SlotState};
use crate::stats::MemoryStats;
use smc_util::mutation::{self, Mutation};
use smc_util::sync::{AtomicBool, AtomicU32};

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
            if !pinned && guard.in_moving_phase() {
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
    /// or until [`clock::now`] passes `deadline` (false). Required before
    /// *any* thread — the compaction thread or a helping query — relocates
    /// objects of this group: the §5.2 counter "prevents other threads from
    /// compacting the group until the query decremented the counter again",
    /// and helping is compacting.
    pub fn wait_pre_readers(&self, deadline: Option<u64>) -> bool {
        poll_until(deadline, || self.query_counter.load(Ordering::SeqCst) == 0)
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
        for src in &self.sources {
            for entry in reloc_entries(src) {
                if entry.status() == RelocStatus::Pending {
                    let outcome = unsafe { try_move_object(*src, entry) };
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
    /// Source blocks fully emptied and retired: the linked direct pointers
    /// into them were healed or cleared (§6) before they were buried.
    pub retired: usize,
    /// The pass was aborted (e.g. a reader held a critical section longer
    /// than the configured patience); the context is unchanged.
    pub aborted: bool,
    /// The moving phase died mid-relocation (injected
    /// [`FaultSite::Relocation`] crash). Unmoved objects were bailed out;
    /// the context is valid and a later pass will retry them.
    pub interrupted: bool,
}

/// Polls `done`, yielding in between, until it holds (true) or
/// [`clock::now`] passes `deadline` (false) — the one wait loop of the pass
/// and its helpers.
fn poll_until(deadline: Option<u64>, mut done: impl FnMut() -> bool) -> bool {
    while !done() {
        if deadline.is_some_and(|d| clock::now() >= d) {
            return false;
        }
        smc_util::sync::thread_yield();
    }
    true
}

/// The relocations `freeze_group` scheduled for source block `src` (none
/// before that). The list lives as long as the block, which the caller's
/// hold on `src` (group membership, epoch) keeps alive.
fn reloc_entries(src: &BlockRef) -> &[RelocEntry] {
    RelocationList::of(src).map_or(&[], |list| &list.entries)
}

/// What one pass holds for its duration; dropping it is the single unwind
/// of every exit from [`MemoryContext::compact`], early or at the close.
struct Pass<'a> {
    ctx: &'a MemoryContext,
    /// Claimed candidates that no group took.
    unplaced: Vec<BlockRef>,
    /// The pass's own critical section, at the epoch `e` the pass started
    /// in: while it is held no other thread can advance the global epoch
    /// past `e + 1` (§3.4), which is §5.1's "no other but the compaction
    /// thread can increment the global epoch until the compaction is
    /// finished". Unpinned after `drop` below ran.
    pin: Guard<'a>,
}

impl Drop for Pass<'_> {
    fn drop(&mut self) {
        self.ctx.runtime.epochs.set_relocation_epoch(0);
        self.ctx.unclaim(self.unplaced.drain(..));
    }
}

/// The §5.2 packing rule, read from block headers only: walks `candidates`
/// in order, adding each block to the open group while the group's live
/// objects still fit one fresh block of `capacity` slots, and closes the
/// group at the first block that would overflow it. A closed group of two
/// or more sources is returned; a lone block would only be shuffled, so it
/// joins the leftovers. Returns `(groups, leftovers)`.
fn pack_groups(candidates: Vec<BlockRef>, capacity: u32) -> (Vec<Vec<BlockRef>>, Vec<BlockRef>) {
    let (mut groups, mut leftovers) = (Vec::new(), Vec::new());
    let mut close = |sources: Vec<BlockRef>| {
        if sources.len() < 2 {
            leftovers.extend(sources);
        } else {
            groups.push(sources);
        }
    };
    let mut current: Vec<BlockRef> = Vec::new();
    let mut current_live = 0u32;
    for block in candidates {
        let live = block.header().valid_count.load(Ordering::Relaxed);
        if current_live + live > capacity && !current.is_empty() {
            close(std::mem::take(&mut current));
            current_live = 0;
        }
        current.push(block);
        current_live += live;
    }
    close(current);
    (groups, leftovers)
}

impl MemoryContext {
    /// Whether a pass would claim `block` now (§5.2): occupancy under
    /// `config.compaction_occupancy`, no owning thread, and not already
    /// claimed by another pass or a spill. [`compact`](Self::compact) claims
    /// with this test and [`compaction_due`](Self::compaction_due) reads
    /// with it.
    fn is_compaction_candidate(&self, block: &BlockRef) -> bool {
        let h = block.header();
        block.occupancy() < self.config.compaction_occupancy
            && h.active_owner.load(Ordering::Acquire) == 0
            && h.compacting.load(Ordering::Acquire) == 0
    }

    /// Whether a pass started now would form a group: the blocks it would
    /// claim, packed by the rule the pass packs them with. A context whose
    /// candidates are too full for any two to share one fresh block is not
    /// due, however many it has. Reads block headers only: no slot is
    /// walked and no epoch pinned.
    pub fn compaction_due(&self) -> bool {
        let candidates: Vec<BlockRef> = {
            let m = self.membership.read();
            let wanted = m.blocks.iter().filter(|b| self.is_compaction_candidate(b));
            wanted.copied().collect()
        };
        !pack_groups(candidates, self.layout.capacity).0.is_empty()
    }

    /// Runs one compaction pass over this context, emptying every block with
    /// occupancy below `config.compaction_occupancy` into fresh blocks.
    /// Panics if the calling thread cannot claim an epoch slot; use
    /// [`try_compact`](Self::try_compact) where that must be an error.
    ///
    /// Must not be called while the calling thread holds a [`Guard`]; the
    /// pass pins its own critical section and drives the global epoch.
    pub fn compact(&self) -> CompactionReport {
        self.try_compact().expect("epoch thread registry full")
    }

    /// Fallible [`compact`](Self::compact): `Err(MemError::TooManyThreads)`
    /// when the calling thread cannot claim an epoch slot, so no pass ran
    /// (a pass that found nothing to do answers `Ok` with an empty report).
    pub fn try_compact(&self) -> Result<CompactionReport, MemError> {
        self.runtime.thread_slot()?;
        let exclusive = self.runtime.compaction_mutex.lock();
        let mut report = CompactionReport::default();

        // Claim candidate source blocks. They stay in the regular
        // membership until their groups are registered — the swap below is
        // atomic under one write lock, so no enumeration snapshot can catch
        // a block in neither list.
        let candidates = self.claim(usize::MAX, |b| self.is_compaction_candidate(b));
        if candidates.is_empty() {
            return Ok(report);
        }
        let pass_start = clock::now();
        smc_obs::trace::emit(smc_obs::Event::CompactionSelect {
            context: self.id,
            candidates: candidates.len() as u64,
        });

        // From here on every exit unwinds through `Pass::drop`.
        let mut pass = Pass {
            ctx: self,
            unplaced: candidates,
            // Registered above, so the pin cannot be refused.
            pin: self.runtime.pin(),
        };
        let (me, e) = (pass.pin.slot(), pass.pin.epoch());

        // --- Freezing epoch: advance to e + 1, announce relocation at e + 2.
        if !self.advance_to(e + 1, me) {
            report.aborted = true;
            return Ok(report);
        }
        self.runtime.epochs.set_relocation_epoch(e + 2);

        // Pack the claimed candidates into groups and freeze their objects,
        // building the relocation lists.
        let (packed, leftovers) =
            pack_groups(std::mem::take(&mut pass.unplaced), self.layout.capacity);
        pass.unplaced = leftovers;
        let mut groups = Vec::new();
        for sources in packed {
            match self.freeze_group(sources, e + 2) {
                Ok(group) => groups.push(group),
                Err(sources) => pass.unplaced.extend(sources),
            }
        }
        if groups.is_empty() {
            return Ok(report);
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

        // --- Relocation epoch: advance to e + 2, then the waiting phase:
        // wait for every other in-critical thread to reach the relocation
        // epoch, then open the moving phase.
        if self.advance_to(e + 2, me) && self.wait_all_at(e + 2, me) {
            let pause_start = clock::now();
            self.runtime.epochs.set_moving_phase(true);
            for group in &groups {
                if !self.move_group(group, &mut report) {
                    // The mover "crashed" (injected fault): the rest of
                    // the phase dies with it; the epilogue below bails
                    // every still-pending relocation.
                    break;
                }
            }
            self.runtime.epochs.set_moving_phase(false);
            let pause_ns = clock::now().saturating_sub(pause_start);
            self.runtime.stats.compaction_pause_ns.record(pause_ns);
            smc_obs::trace::emit(smc_obs::Event::CompactionRelocate {
                context: self.id,
                moved: report.moved as u64,
                bailed: report.bailed as u64,
                nanos: pause_ns,
            });
        }

        // --- Close: advance to e + 3 and clear relocation state.
        let _ = self.advance_to(e + 3, me);
        drop(pass);

        // Roll back anything still pending (an interrupted mover, or groups
        // whose readers outlasted the patience) through the bail path.
        for group in &groups {
            for src in &group.sources {
                for entry in reloc_entries(src) {
                    if entry.status() == RelocStatus::Pending {
                        unsafe { cancel_relocation(*src, entry) };
                        report.bailed += 1;
                        MemoryStats::inc(&self.runtime.stats.relocations_bailed);
                    }
                }
            }
        }

        let (leaving, kept) = self.publish_groups(&groups, &mut report);
        // The fix-up `retire` runs takes the compaction mutex itself.
        drop(exclusive);
        self.retire(leaving, kept);
        MemoryStats::inc(&self.runtime.stats.compactions);
        report.groups = groups.len();
        smc_obs::trace::emit(smc_obs::Event::CompactionRetire {
            context: self.id,
            retired: report.retired as u64,
        });
        let pass_ns = &self.runtime.stats.compaction_pass_ns;
        pass_ns.record(clock::now().saturating_sub(pass_start));
        Ok(report)
    }

    /// Allocates the destination block and freezes every live object of the
    /// group's sources, building their relocation lists for the pass's
    /// `relocation_epoch`.
    /// Hands the sources back when no destination can be allocated.
    fn freeze_group(
        &self,
        sources: Vec<BlockRef>,
        relocation_epoch: u64,
    ) -> Result<Arc<CompactionGroup>, Vec<BlockRef>> {
        // Destinations are exempt from the context budget (see
        // `ContextConfig::budget_bytes`), so the only ways to get "no groups
        // formed" here are an injected `BlockAlloc` failure or the OS
        // refusing the block.
        let Ok(dest) = self
            .runtime
            .allocate_block(&self.layout, self.type_id, self.id)
        else {
            return Err(sources);
        };
        // Destinations are born mid-pass, claimed: a free of a just-moved
        // object must not hand the block to the reclamation queue while the
        // pass still writes into it — the pass may even retire it
        // (fully-freed dest) and a queued-but-buried block is a
        // use-after-free waiting in `pop_reclaimable`. A kept destination is
        // unclaimed as a kept source is, after the pass's fix-up.
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
                let slot_inc = src.payload_inc(slot_id).incarnation();
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
                let _ = src.payload_inc(slot_id).try_set_flag(slot_inc, FLAG_FROZEN);
                let dest_slot = next_dest_slot;
                next_dest_slot += 1;
                let dest_addr = dest.payload(dest_slot);
                entries.push(RelocEntry::new(slot_id, back, inc, dest_addr, dest_slot));
            }
            RelocationList::new(self.layout, relocation_epoch, entries).install(&src);
        }
        Ok(Arc::new(CompactionGroup {
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
        if !group.wait_pre_readers(self.patience()) {
            // §5.2: bail out of compacting this group — a query returned
            // control to the application while holding the read pin.
            // `started` stays set: late readers take the post-state
            // union, which still covers unmoved objects in the sources.
            return true;
        }
        for src in &group.sources {
            for entry in reloc_entries(src) {
                // Crash-only compaction failpoint: an injected fault kills
                // the mover mid-group, as an OS failure would. Entries still
                // `Pending` are bailed out by the pass epilogue, so the
                // context stays valid and a later pass retries them.
                if self.runtime.faults().should_fail(FaultSite::Relocation) {
                    report.interrupted = true;
                    MemoryStats::inc(&self.runtime.stats.compactions_interrupted);
                    return false;
                }
                match unsafe { try_move_object(*src, entry) } {
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

    /// Disbands groups after a pass. Every block of a group that still holds
    /// an object — a destination, a source the pass only partly emptied —
    /// rejoins regular membership, still claimed; the rest — emptied
    /// sources, unused destinations — leave. Returns `(leaving, kept)` for
    /// [`retire`](Self::retire), which runs the pass's one fix-up over both
    /// once the membership lock is released, buries the leaving blocks and
    /// hands the kept ones back through `unclaim`. Until then the claim
    /// keeps a free from enqueueing any of them, so no moved-out slot is
    /// refilled before the fix-up has healed the pointers into it; a leaving
    /// block keeps it for good, so a straggling free (which sampled the
    /// block before the move) cannot enqueue a block headed for the
    /// graveyard.
    fn publish_groups(
        &self,
        groups: &[Arc<CompactionGroup>],
        report: &mut CompactionReport,
    ) -> (Vec<BlockRef>, Vec<BlockRef>) {
        let (mut leaving, mut kept) = (Vec::new(), Vec::new());
        let mut m = self.membership.write();
        for group in groups {
            m.groups.retain(|g| !Arc::ptr_eq(g, group));
            let blocks = std::iter::once(group.dest).chain(group.sources.iter().copied());
            for (i, block) in blocks.enumerate() {
                if block.header().valid_count.load(Ordering::Relaxed) > 0 {
                    kept.push(block);
                } else {
                    // Block 0 is the destination; the rest are sources.
                    report.retired += usize::from(i > 0);
                    leaving.push(block);
                }
            }
            group.settled.store(true, Ordering::Release);
        }
        m.blocks.extend(&kept);
        (leaving, kept)
    }

    /// The patience deadline for one wait of the pass, from now.
    fn patience(&self) -> Option<u64> {
        Some(clock::now() + self.config.compaction_patience.as_nanos() as u64)
    }

    fn advance_to(&self, target: u64, me: Slot<'_>) -> bool {
        let epochs = &self.runtime.epochs;
        poll_until(self.patience(), || {
            // Advance as far as it goes; a refused advance is waited out.
            while epochs.global_epoch() < target && epochs.try_advance_excluding(me).is_some() {}
            epochs.global_epoch() >= target
        })
    }

    fn wait_all_at(&self, epoch: u64, me: Slot<'_>) -> bool {
        // "All other threads in the relocation epoch" is exactly the
        // condition under which the epoch could advance past it.
        let epochs = &self.runtime.epochs;
        poll_until(self.patience(), || epochs.can_advance_excluding(me, epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockLayout, BLOCK_SIZE};
    use crate::context::tests::{alloc_u64, ctx, ctx_with, read_u64};
    use crate::context::ContextConfig;
    use crate::runtime::Runtime;
    use std::sync::mpsc;
    use std::time::Duration;

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
        assert!(c.compaction_due(), "a group's worth of sparse blocks");
        let report = c.compact();
        assert!(!report.aborted);
        assert!(report.groups >= 1, "sparse blocks should form groups");
        assert!(report.moved > 0);
        assert!(report.retired > 0);
        assert!(rt.buried().blocks >= report.retired, "retired, not kept");
        // Every kept object survives, reachable through its entry, with the
        // same entry incarnation (references stay valid across compaction).
        for (a, v) in &kept {
            assert_eq!(a.entry.get().inc().incarnation(), a.entry_inc);
            assert_eq!(read_u64(a.entry), *v);
        }
        rt.drain_graveyard_blocking();
        assert!(
            c.block_count() < blocks_before,
            "compaction should shrink the context"
        );
        // Relocation state fully cleared.
        assert_eq!(rt.epochs.next_relocation_epoch(), 0);
        assert!(!rt.epochs.in_moving_phase());
        assert!(c.membership_snapshot().groups.is_empty());
    }

    /// A pass whose thread cannot claim an epoch slot did not run, and says
    /// so: `try_compact` answers the refused claim with an error where an
    /// idle pass answers an empty report, and `compact` panics on it.
    #[test]
    fn a_refused_slot_claim_is_an_error_not_an_idle_pass() {
        let rt = Runtime::new();
        let config = ContextConfig {
            reclamation_threshold: 1.1,
            ..ContextConfig::default()
        };
        let c = Arc::new(ctx_with(&rt, config));
        let cap = c.layout().capacity as u64;
        for i in 0..cap * 4 {
            let a = alloc_u64(&c, i);
            if i % 10 != 0 {
                assert!(c.free(a.entry, a.entry_inc));
            }
        }
        assert!(c.compaction_due(), "a pass would have work");
        rt.faults()
            .set_rate(FaultSite::ThreadClaim, crate::fault::RATE_DENOMINATOR);
        rt.faults().enable(0x5107);
        let c2 = c.clone();
        let fresh = std::thread::spawn(move || {
            let tried = c2.try_compact().map(|r| r.groups);
            let compact = std::panic::AssertUnwindSafe(|| c2.compact().groups);
            (tried, std::panic::catch_unwind(compact).ok())
        });
        let (tried, compacted) = fresh.join().unwrap();
        rt.faults().disable();
        assert_eq!(tried, Err(MemError::TooManyThreads));
        assert_eq!(compacted, None, "compact() answered a refused claim");
        assert!(c.compaction_due(), "no pass ran");
        assert!(c.try_compact().unwrap().groups >= 1);
    }

    #[test]
    fn compaction_leaves_dense_blocks_alone() {
        let rt = Runtime::new();
        let c = ctx(&rt);
        let cap = c.layout().capacity as usize;
        for i in 0..cap * 2 {
            alloc_u64(&c, i as u64);
        }
        assert!(!c.compaction_due());
        let report = c.compact();
        assert_eq!(report.groups, 0);
        assert_eq!(report.moved, 0);
    }

    #[test]
    fn pass_without_a_group_returns_its_candidate_to_the_reclaim_queue() {
        let rt = Runtime::new();
        let c = ctx(&rt);
        let cap = c.layout().capacity as usize;
        // One full, abandoned block, then 90 % of it freed: sparse enough to
        // be a compaction candidate and limbo enough to be queued for reuse.
        let allocs: Vec<_> = (0..cap + 1).map(|i| alloc_u64(&c, i as u64)).collect();
        for a in allocs.iter().take(cap).filter(|a| a.slot % 10 != 0) {
            assert!(c.free(a.entry, a.entry_inc));
        }
        let sparse = allocs[0].block.header();
        assert_eq!(sparse.in_reclaim_queue.load(Ordering::Acquire), 1);
        // The thread still owns the other block, however empty, so the
        // sparse block is the only candidate and no pass is due.
        assert!(!c.compaction_due());
        // A lone candidate forms no group; the pass must hand it back to the
        // queue it pulled it from, not merely clear its flag.
        let report = c.compact();
        assert_eq!((report.groups, report.aborted), (0, false));
        assert_eq!(sparse.compacting.load(Ordering::Acquire), 0);
        rt.epochs.try_advance().unwrap();
        rt.epochs.try_advance().unwrap();
        // Exhaust the thread's current block: the next block must be the
        // queued one, reusing its limbo slots, not a fresh one.
        let refill: Vec<_> = (0..cap).map(|i| alloc_u64(&c, i as u64)).collect();
        assert!(refill.iter().any(|a| a.block == allocs[0].block));
        assert_eq!(c.block_count(), 2, "limbo slots reused, no growth");
    }

    /// Pins a reader thread at the current epoch; the returned closure
    /// unpins it and joins the thread.
    fn pinned_reader(rt: &Arc<Runtime>) -> impl FnOnce() {
        let (pinned_tx, pinned_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let rt = rt.clone();
        let reader = std::thread::spawn(move || {
            let _guard = rt.pin();
            pinned_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        pinned_rx.recv().unwrap();
        move || {
            release_tx.send(()).unwrap();
            reader.join().unwrap();
        }
    }

    #[test]
    fn due_is_whether_the_candidates_pack() {
        let rt = Runtime::new();
        let config = ContextConfig {
            reclamation_threshold: 1.1,
            compaction_occupancy: 0.85,
            ..ContextConfig::default()
        };
        let c = ctx_with(&rt, config);
        let cap = c.layout().capacity as usize;
        // Three full blocks, then a fourth the thread owns.
        let allocs: Vec<_> = (0..cap * 3 + 1).map(|i| alloc_u64(&c, i as u64)).collect();
        // Frees, in each of the first `blocks` blocks, the rows whose slot
        // is one of `fifths` modulo five.
        let free = |blocks: usize, fifths: [SlotId; 2]| {
            for a in allocs[..cap * blocks].iter() {
                if fifths.contains(&(a.slot % 5)) {
                    assert!(c.free(a.entry, a.entry_inc));
                }
            }
        };
        // Three candidates at 60 %, no two of which fit one fresh block.
        free(3, [1, 3]);
        assert!(!c.compaction_due());
        assert_eq!(c.compact().groups, 0, "the pass agrees");
        // The first two at 20 % pair up.
        free(2, [2, 4]);
        assert!(c.compaction_due());
        assert!(c.compact().groups >= 1, "the pass agrees");
    }

    #[test]
    fn bytes_counts_a_pass_in_flight_and_not_its_retired_sources() {
        let rt = Runtime::new();
        let config = ContextConfig {
            reclamation_threshold: 1.1,
            compaction_patience: Duration::from_secs(60),
            ..ContextConfig::default()
        };
        let c = Arc::new(ctx_with(&rt, config));
        let cap = c.layout().capacity as usize;
        let allocs: Vec<_> = (0..cap * 4 + 1).map(|i| alloc_u64(&c, i as u64)).collect();
        for a in allocs[..cap * 4].iter().filter(|a| a.slot % 10 != 0) {
            assert!(c.free(a.entry, a.entry_inc));
        }
        let before = c.bytes();
        // A reader pinned at e lets the pass freeze its groups at e + 1 but
        // not advance to e + 2; a second one pinned at e + 1 then holds it
        // in the waiting phase once the first goes.
        let e = rt.global_epoch();
        let unpin_first = pinned_reader(&rt);
        let pass = {
            let c = c.clone();
            std::thread::spawn(move || c.compact())
        };
        // Polls `done` for up to ten seconds.
        let eventually = |done: &dyn Fn() -> bool| {
            for _ in 0..10_000 {
                if done() {
                    return true;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            done()
        };
        let grouped = || !c.membership_snapshot().groups.is_empty();
        assert!(eventually(&grouped), "the pass formed no group");
        let unpin_second = pinned_reader(&rt);
        unpin_first();
        let relocating = || rt.global_epoch() >= e + 2;
        assert!(eventually(&relocating), "the pass never reached e + 2");
        // Each source moved from the block list into its group, and each
        // group added a destination: both count until the pass publishes.
        let groups = c.membership_snapshot().groups.len();
        assert_eq!(c.bytes(), before + groups * BLOCK_SIZE);
        unpin_second();
        let report = pass.join().unwrap();
        assert!(!report.aborted && report.moved > 0, "{report:?}");
        // Published: the retired sources are buried and no longer count.
        let retired = report.retired;
        assert!(retired > 0, "{report:?}");
        assert!(rt.buried().blocks >= retired, "{report:?}");
        let published = before + groups * BLOCK_SIZE - retired * BLOCK_SIZE;
        assert_eq!(c.bytes(), published);
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
        let word = survivor
            .block
            .payload_inc(survivor.slot)
            .load(Ordering::Acquire);
        assert_ne!(word & crate::incarnation::FLAG_FORWARD, 0);
        // Its entry points at the new location, which holds the value.
        assert_eq!(read_u64(survivor.entry), 0);
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
        rt.epochs.set_relocation_epoch(guard.epoch());
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
        rt.epochs.set_relocation_epoch(0);
        unsafe {
            src.deallocate();
            dest.deallocate();
        }
    }
}
