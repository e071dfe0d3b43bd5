//! Relocation lists and the cooperative object-move protocol (§5.1).
//!
//! During the *freezing epoch* the compaction thread builds, for every block
//! scheduled for compaction, "a list of all slots that have to be moved and
//! the memory address the slots have to be moved to. This list is accessible
//! through the block's header" (§5.1). During the *moving phase* of the
//! relocation epoch the compaction thread — or any reader that trips over a
//! frozen object and helps (§5.1 case c) — executes the move:
//!
//! 1. atomically acquire the lock bit on the object's indirection-entry
//!    incarnation word;
//! 2. copy the object to its destination slot;
//! 3. install the object's incarnation at the destination, flip the
//!    destination slot to `Valid`, point the destination back-pointer at the
//!    indirection entry and the indirection entry at the destination;
//! 4. turn the source slot into a forwarding tombstone (§6) and mark the
//!    relocation `Succeeded`;
//! 5. release the freeze and lock bits.
//!
//! A reader that cannot yet tolerate relocations (waiting phase, §5.1 case b)
//! instead *bails the relocation out*: it marks the list entry `Failed` and
//! strips the freeze bit, excluding the object from this compaction pass.

use std::sync::atomic::Ordering;

use crate::block::{BlockLayout, BlockRef};
use crate::incarnation::{FLAG_FORWARD, FLAG_FROZEN, INC_MASK};
use crate::indirection::EntryRef;
use crate::slot::SlotId;
use smc_util::mutation::{self, Mutation};
use smc_util::sync::AtomicU32;

/// Outcome state of one scheduled relocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum RelocStatus {
    /// Not yet moved.
    Pending = 0,
    /// Object now lives at its destination.
    Succeeded = 1,
    /// A reader bailed the move out (§5.1 case b); the object stays put for
    /// this pass and will be retried by a later compaction.
    Failed = 2,
}

/// One scheduled object move.
#[derive(Debug)]
pub struct RelocEntry {
    /// Source slot within the block owning this list.
    pub src_slot: SlotId,
    /// Address of the object's indirection entry.
    pub entry_addr: usize,
    /// Incarnation counter of the object at freeze time.
    pub inc: u32,
    /// Address of the destination object data.
    pub dest_obj_addr: usize,
    /// Destination slot id (within the destination block).
    pub dest_slot: SlotId,
    status: AtomicU32,
}

impl RelocEntry {
    /// Creates a pending entry.
    pub fn new(
        src_slot: SlotId,
        entry_addr: usize,
        inc: u32,
        dest_obj_addr: usize,
        dest_slot: SlotId,
    ) -> Self {
        RelocEntry {
            src_slot,
            entry_addr,
            inc,
            dest_obj_addr,
            dest_slot,
            status: AtomicU32::new(RelocStatus::Pending as u32),
        }
    }

    /// Current status.
    pub fn status(&self) -> RelocStatus {
        match self.status.load(Ordering::Acquire) {
            0 => RelocStatus::Pending,
            1 => RelocStatus::Succeeded,
            _ => RelocStatus::Failed,
        }
    }

    fn set_status(&self, s: RelocStatus) {
        self.status.store(s as u32, Ordering::Release);
    }
}

/// The per-block list of scheduled relocations, hung off the block header.
#[derive(Debug)]
pub struct RelocationList {
    /// Layout of the source and destination blocks: which bytes, or which
    /// column cells, make up one object.
    pub layout: BlockLayout,
    /// Entries sorted by `src_slot` for binary-search lookup from readers.
    pub entries: Vec<RelocEntry>,
}

impl RelocationList {
    /// Builds a list from entries (sorts them by source slot).
    pub fn new(layout: BlockLayout, mut entries: Vec<RelocEntry>) -> Self {
        entries.sort_by_key(|e| e.src_slot);
        RelocationList { layout, entries }
    }

    /// Finds the relocation entry for `slot`, if that slot is scheduled.
    pub fn find(&self, slot: SlotId) -> Option<&RelocEntry> {
        self.entries
            .binary_search_by_key(&slot, |e| e.src_slot)
            .ok()
            .map(|i| &self.entries[i])
    }

    /// Count of entries with the given status.
    pub fn count(&self, s: RelocStatus) -> usize {
        self.entries.iter().filter(|e| e.status() == s).count()
    }
}

/// Result of [`try_move_object`] / [`bail_out_relocation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveOutcome {
    /// This call performed the move.
    MovedByUs,
    /// Another thread had already moved the object.
    AlreadyMoved,
    /// The relocation was bailed out; the object remains at the source.
    BailedOut,
    /// The object was freed concurrently; nothing to move.
    Freed,
}

/// Executes (or completes) the relocation described by `reloc` for an object
/// in `src_block`. Called by the compaction thread in the moving phase and
/// by readers that help (§5.1 case c). Idempotent across racing callers: the
/// entry's lock bit serializes them and the status records who won.
///
/// # Safety
/// `src_block` must be the block owning `reloc`; the destination addresses in
/// `reloc` must point into a live destination block of identical object
/// layout; the indirection table must be alive.
pub unsafe fn try_move_object(src_block: BlockRef, reloc: &RelocEntry) -> MoveOutcome {
    let entry = EntryRef::from_addr(reloc.entry_addr);
    let entry_inc = entry.get().inc();
    // Serialize against other movers / bailers / free.
    let locked = if mutation::enabled(Mutation::MoveSkipsLock) {
        // Re-introduced bug: skip the entry lock bit, only checking liveness,
        // so two movers can both believe they won the race.
        if entry_inc.incarnation() != reloc.inc & INC_MASK {
            return MoveOutcome::Freed;
        }
        false
    } else {
        if entry_inc.lock(reloc.inc).is_none() {
            return MoveOutcome::Freed;
        }
        true
    };
    match reloc.status() {
        RelocStatus::Succeeded => {
            // Winner already cleared FROZEN; just drop our lock.
            if locked {
                entry_inc.unlock_with_flags(0);
            }
            MoveOutcome::AlreadyMoved
        }
        RelocStatus::Failed => {
            if locked {
                entry_inc.unlock_with_flags(0);
            }
            MoveOutcome::BailedOut
        }
        RelocStatus::Pending => {
            let dest = reloc.dest_obj_addr as *mut u8;
            let dest_block = BlockRef::from_interior_ptr(dest);
            // The layout travels with the list; reach it through the header.
            let list = src_block.header().reloc_list.load(Ordering::Acquire);
            debug_assert!(!list.is_null());
            // A panic while copying (a slot accessor's assertion) must not
            // leave the entry locked, or every later locker spins on it for
            // good: the unwind takes the bail path, and the object stays put.
            let bail = locked.then_some(BailOnUnwind { src_block, reloc });
            (*list)
                .layout
                .copy_object(src_block, reloc.src_slot, dest_block, reloc.dest_slot);
            std::mem::forget(bail);
            // The slot-side incarnation is an independent counter from the
            // entry's (`reloc.inc`); direct pointers (§6) validate against
            // the slot side, so the *slot* counter is what must survive the
            // move. Holding the entry lock with status Pending pins the
            // source slot (no free, no other mover), so this read is stable.
            let slot_inc = if mutation::enabled(Mutation::SlotVsEntryInc) {
                // Re-introduced PR 1 bug: install the *entry-side* counter at
                // the destination slot; direct pointers then mis-validate.
                reloc.inc & INC_MASK
            } else {
                src_block
                    .payload_inc(reloc.src_slot)
                    .load(Ordering::Acquire)
                    & INC_MASK
            };
            // Install identity at the destination: incarnation, back-pointer,
            // slot-directory Valid.
            dest_block
                .payload_inc(reloc.dest_slot)
                .store(slot_inc, Ordering::Release);
            dest_block
                .back_ptr(reloc.dest_slot)
                .store(reloc.entry_addr, Ordering::Release);
            dest_block.slot_word(reloc.dest_slot).set_valid();
            dest_block
                .header()
                .valid_count
                .fetch_add(1, Ordering::Relaxed);
            // Repoint the indirection entry — the single atomic step that
            // redirects every (indirect) reference (§5.1).
            entry.get().store_payload(dest as usize, Ordering::Release);
            // Tombstone the source slot for direct pointers (§6): keep the
            // incarnation, set FORWARD, clear FROZEN.
            src_block
                .payload_inc(reloc.src_slot)
                .store(slot_inc | FLAG_FORWARD, Ordering::Release);
            // The source slot no longer holds the object.
            let epoch_hint = 0; // retired blocks are reclaimed wholesale
            src_block.slot_word(reloc.src_slot).set_limbo(epoch_hint);
            src_block
                .header()
                .valid_count
                .fetch_sub(1, Ordering::Relaxed);
            reloc.set_status(RelocStatus::Succeeded);
            if locked {
                entry_inc.unlock_with_flags(0);
            }
            smc_obs::trace::emit(smc_obs::Event::ObjectRelocated {
                src_slot: reloc.src_slot as u64,
                dest_slot: reloc.dest_slot as u64,
            });
            MoveOutcome::MovedByUs
        }
    }
}

/// Bails out the relocation of one object (§5.1 case b): the reader cannot
/// tolerate a move yet, and the mover is not allowed to proceed either, so
/// the relocation is cancelled for this pass.
///
/// # Safety
/// Same contract as [`try_move_object`].
pub unsafe fn bail_out_relocation(src_block: BlockRef, reloc: &RelocEntry) -> MoveOutcome {
    let entry = EntryRef::from_addr(reloc.entry_addr);
    let entry_inc = entry.get().inc();
    let Some(_locked) = entry_inc.lock(reloc.inc) else {
        return MoveOutcome::Freed;
    };
    match reloc.status() {
        RelocStatus::Succeeded => {
            entry_inc.unlock_with_flags(0);
            MoveOutcome::AlreadyMoved
        }
        RelocStatus::Failed => {
            entry_inc.unlock_with_flags(0);
            MoveOutcome::BailedOut
        }
        RelocStatus::Pending => {
            fail_pending(src_block, reloc);
            MoveOutcome::BailedOut
        }
    }
}

/// Settles a `Pending` relocation as `Failed` and releases the entry lock
/// its caller holds: the object stays at its source, unfrozen.
fn fail_pending(src_block: BlockRef, reloc: &RelocEntry) {
    reloc.set_status(RelocStatus::Failed);
    // Clear freeze on the source slot word too, so direct readers stop
    // taking the slow path. Holding the entry lock with status Pending
    // proves the object still sits in the source slot (a free would have
    // bumped the entry counter and failed our lock; a mover needs the lock
    // we hold), so the slot word is ours to unfreeze regardless of how its
    // counter relates to the entry's — the two incarnations are independent
    // counters.
    if !mutation::enabled(Mutation::BailKeepsFrozen) {
        // Re-introduced bug (`BailKeepsFrozen`) skips this unfreeze,
        // wedging readers that wait for the freeze to resolve.
        let slot_inc = src_block.payload_inc(reloc.src_slot);
        let cur = slot_inc.load(Ordering::Acquire);
        if cur & FLAG_FROZEN != 0 {
            slot_inc.store(cur & !FLAG_FROZEN, Ordering::Release);
        }
    }
    // SAFETY: `reloc` names a live entry of a live table (the callers'
    // contract).
    let entry = unsafe { EntryRef::from_addr(reloc.entry_addr) };
    entry.get().inc().unlock_with_flags(0);
    smc_obs::trace::emit(smc_obs::Event::RelocationBailed {
        src_slot: reloc.src_slot as u64,
    });
}

/// Armed across a mover's copy while it holds the entry lock; dropped only
/// by an unwind, which it turns into the bail outcome.
struct BailOnUnwind<'r> {
    src_block: BlockRef,
    reloc: &'r RelocEntry,
}

impl Drop for BailOnUnwind<'_> {
    fn drop(&mut self) {
        fail_pending(self.src_block, self.reloc);
    }
}

/// Cancels one scheduled relocation on behalf of a compaction pass that is
/// being torn down: the pass epilogue rolling back the entries an
/// interrupted mover, or a group whose readers outlasted the patience, left
/// `Pending`. The rollback *is* the §5.1 bail path: the entry lock
/// serializes the cancel against in-flight movers, the entry settles
/// `Failed`, and the freeze is stripped from both incarnation words so the
/// object stays put, fully thawed, and retriable by a later pass.
///
/// # Safety
/// Same contract as [`try_move_object`].
pub unsafe fn cancel_relocation(src_block: BlockRef, reloc: &RelocEntry) -> MoveOutcome {
    if mutation::enabled(Mutation::CancelSkipsBailRollback) {
        // Re-introduced bug (`CancelSkipsBailRollback`): settle the entry
        // without the locked bail rollback. The slot and entry stay frozen
        // (readers wedge on the §5.1 slow path), and a mover holding the
        // entry lock can still complete the move the cancel claims it
        // prevented.
        if reloc.status() == RelocStatus::Pending {
            reloc.set_status(RelocStatus::Failed);
        }
        return MoveOutcome::BailedOut;
    }
    bail_out_relocation(src_block, reloc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{type_id_of, BlockLayout};
    use crate::incarnation::FLAG_LOCK;
    use crate::indirection::IndirectionTable;
    use crate::slot::SlotState;

    fn layout() -> BlockLayout {
        BlockLayout::rows_of::<u64>().unwrap()
    }

    fn setup_pair() -> (BlockRef, BlockRef, IndirectionTable) {
        let src = BlockRef::allocate(&layout(), type_id_of::<u64>(), 1).unwrap();
        let dst = BlockRef::allocate(&layout(), type_id_of::<u64>(), 1).unwrap();
        (src, dst, IndirectionTable::new())
    }

    /// Puts a value object at src slot `s` and wires up an indirection entry.
    unsafe fn install(src: BlockRef, table: &IndirectionTable, s: SlotId, v: u64) -> EntryRef {
        let registry = crate::epoch::EpochManager::new();
        let e = table.allocate(registry.slot().unwrap());
        src.obj_ptr(s).cast::<u64>().write(v);
        src.slot_word(s).set_valid();
        src.back_ptr(s).store(e.addr(), Ordering::Release);
        src.header().valid_count.fetch_add(1, Ordering::Relaxed);
        e.get()
            .store_payload(src.obj_ptr(s) as usize, Ordering::Release);
        e
    }

    fn freeze(e: EntryRef, src: BlockRef, s: SlotId, inc: u32) {
        assert!(e.get().inc().try_set_flag(inc, FLAG_FROZEN));
        assert!(src.slot_inc(s).try_set_flag(inc, FLAG_FROZEN));
    }

    #[test]
    fn move_relocates_object_and_tombstones_source() {
        let (src, dst, table) = setup_pair();
        unsafe {
            let e = install(src, &table, 5, 12345);
            freeze(e, src, 5, 0);
            let reloc = RelocEntry::new(5, e.addr(), 0, dst.obj_ptr(9) as usize, 9);
            let list = Box::new(RelocationList::new(layout(), vec![]));
            src.header()
                .reloc_list
                .store(Box::into_raw(list), Ordering::Release);

            assert_eq!(try_move_object(src, &reloc), MoveOutcome::MovedByUs);
            // Destination holds the object, valid, right incarnation/backptr.
            assert_eq!(dst.obj_ptr(9).cast::<u64>().read(), 12345);
            assert_eq!(dst.slot_word(9).state(), SlotState::Valid);
            assert_eq!(dst.back_ptr(9).load(Ordering::Acquire), e.addr());
            // Entry repointed.
            assert_eq!(
                e.get().load_payload(Ordering::Acquire),
                dst.obj_ptr(9) as usize
            );
            // Entry flags cleared; source slot is a forwarding tombstone.
            assert_eq!(e.get().inc().load(Ordering::Acquire), 0);
            let src_word = src.slot_inc(5).load(Ordering::Acquire);
            assert_ne!(src_word & FLAG_FORWARD, 0);
            assert_eq!(src_word & (FLAG_FROZEN | FLAG_LOCK), 0);
            assert_eq!(src.slot_word(5).state(), SlotState::Limbo);
            assert_eq!(reloc.status(), RelocStatus::Succeeded);

            src.deallocate();
            dst.deallocate();
        }
    }

    #[test]
    fn second_mover_sees_already_moved() {
        let (src, dst, table) = setup_pair();
        unsafe {
            let e = install(src, &table, 0, 7);
            freeze(e, src, 0, 0);
            let reloc = RelocEntry::new(0, e.addr(), 0, dst.obj_ptr(0) as usize, 0);
            let list = Box::new(RelocationList::new(layout(), vec![]));
            src.header()
                .reloc_list
                .store(Box::into_raw(list), Ordering::Release);
            assert_eq!(try_move_object(src, &reloc), MoveOutcome::MovedByUs);
            assert_eq!(try_move_object(src, &reloc), MoveOutcome::AlreadyMoved);
            src.deallocate();
            dst.deallocate();
        }
    }

    #[test]
    fn bail_out_cancels_pending_move() {
        let (src, dst, table) = setup_pair();
        unsafe {
            let e = install(src, &table, 3, 99);
            freeze(e, src, 3, 0);
            let reloc = RelocEntry::new(3, e.addr(), 0, dst.obj_ptr(0) as usize, 0);
            assert_eq!(bail_out_relocation(src, &reloc), MoveOutcome::BailedOut);
            assert_eq!(reloc.status(), RelocStatus::Failed);
            // Freeze bits stripped; object untouched at the source.
            assert_eq!(e.get().inc().load(Ordering::Acquire), 0);
            assert_eq!(src.slot_inc(3).load(Ordering::Acquire), 0);
            assert_eq!(src.obj_ptr(3).cast::<u64>().read(), 99);
            // A later mover must respect the bail-out.
            assert_eq!(try_move_object(src, &reloc), MoveOutcome::BailedOut);
            src.deallocate();
            dst.deallocate();
        }
    }

    #[test]
    fn move_after_concurrent_free_is_refused() {
        let (src, dst, table) = setup_pair();
        unsafe {
            let e = install(src, &table, 1, 1);
            freeze(e, src, 1, 0);
            // Concurrent free: bump the entry incarnation.
            e.get().inc().bump();
            let reloc = RelocEntry::new(1, e.addr(), 0, dst.obj_ptr(0) as usize, 0);
            assert_eq!(try_move_object(src, &reloc), MoveOutcome::Freed);
            src.deallocate();
            dst.deallocate();
        }
    }

    /// A mover that panics mid-copy — here `slot_base`'s bounds assertion,
    /// tripped by a destination slot one past the block — takes the bail
    /// outcome on the way out: the object stays at its source, unfrozen,
    /// and its entry locks again at once.
    #[cfg(debug_assertions)]
    #[test]
    fn a_mover_that_panics_leaves_its_entry_unlocked() {
        let (src, dst, table) = setup_pair();
        unsafe {
            let e = install(src, &table, 2, 77);
            freeze(e, src, 2, 0);
            let past_the_end = layout().capacity;
            let reloc = RelocEntry::new(2, e.addr(), 0, dst.obj_ptr(0) as usize, past_the_end);
            let list = Box::new(RelocationList::new(layout(), vec![]));
            src.header()
                .reloc_list
                .store(Box::into_raw(list), Ordering::Release);
            let mover = std::panic::AssertUnwindSafe(|| try_move_object(src, &reloc));
            assert!(
                std::panic::catch_unwind(mover).is_err(),
                "the copy panicked"
            );
            let word = e.get().inc().load(Ordering::Acquire);
            assert_eq!(word & (FLAG_LOCK | FLAG_FROZEN), 0, "entry word {word:#x}");
            assert_eq!(reloc.status(), RelocStatus::Failed);
            assert_eq!(src.slot_inc(2).load(Ordering::Acquire) & FLAG_FROZEN, 0);
            assert_eq!(src.obj_ptr(2).cast::<u64>().read(), 77);
            assert!(e.get().inc().lock(0).is_some(), "the entry locks again");
            e.get().inc().unlock_with_flags(0);
            src.deallocate();
            dst.deallocate();
        }
    }

    #[test]
    fn list_lookup_by_slot() {
        let entries = vec![
            RelocEntry::new(9, 0x10, 0, 0x100, 0),
            RelocEntry::new(2, 0x20, 0, 0x200, 1),
            RelocEntry::new(5, 0x30, 0, 0x300, 2),
        ];
        let list = RelocationList::new(layout(), entries);
        assert_eq!(list.find(2).unwrap().entry_addr, 0x20);
        assert_eq!(list.find(5).unwrap().entry_addr, 0x30);
        assert_eq!(list.find(9).unwrap().entry_addr, 0x10);
        assert!(list.find(7).is_none());
        assert_eq!(list.count(RelocStatus::Pending), 3);
    }

    #[test]
    fn concurrent_helpers_race_one_winner() {
        for _ in 0..50 {
            let (src, dst, table) = setup_pair();
            unsafe {
                let e = install(src, &table, 4, 4242);
                freeze(e, src, 4, 0);
                let reloc = std::sync::Arc::new(RelocEntry::new(
                    4,
                    e.addr(),
                    0,
                    dst.obj_ptr(7) as usize,
                    7,
                ));
                let list = Box::new(RelocationList::new(layout(), vec![]));
                src.header()
                    .reloc_list
                    .store(Box::into_raw(list), Ordering::Release);

                let r2 = reloc.clone();
                let src2 = src;
                let t = std::thread::spawn(move || try_move_object(src2, &r2));
                let a = try_move_object(src, &reloc);
                let b = t.join().unwrap();
                let moved = [a, b]
                    .iter()
                    .filter(|o| **o == MoveOutcome::MovedByUs)
                    .count();
                assert_eq!(moved, 1, "exactly one mover wins: {a:?} {b:?}");
                assert_eq!(dst.obj_ptr(7).cast::<u64>().read(), 4242);
                src.deallocate();
                dst.deallocate();
            }
        }
    }
}
