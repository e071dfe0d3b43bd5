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
//!
//! The reader's side lives here too, as the one dereference every handle
//! goes through: [`EntryRef::resolve`] is the paper's `dereference_object`
//! (the fast path, the spill fault-in retry and cases a–c), and
//! [`DirectPtr`] is the §6 direct pointer with its tombstone chase. Both
//! settle a frozen object through one per-slot negotiation, which finds the
//! slot's relocation entry and bails it out or helps it move. `smc`'s
//! `Ref` and `DirectRef` are typed wrappers that turn the payload they get
//! (an incarnation cell) into the row behind it.

use std::ptr::NonNull;
use std::sync::atomic::Ordering;

use crate::block::{BlockLayout, BlockRef};
use crate::epoch::Guard;
use crate::error::MemError;
use crate::incarnation::{FLAG_FORWARD, FLAG_FROZEN, INC_MASK};
use crate::indirection::EntryRef;
use crate::slot::SlotId;
use crate::spill;
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
    /// The destination slot's payload, its incarnation cell.
    pub dest_payload: usize,
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
        dest_payload: usize,
        dest_slot: SlotId,
    ) -> Self {
        RelocEntry {
            src_slot,
            entry_addr,
            inc,
            dest_payload,
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
    /// The pass's relocation epoch: a slot moved out enters limbo at it.
    pub epoch: u64,
    /// Entries sorted by `src_slot` for binary-search lookup from readers.
    pub entries: Vec<RelocEntry>,
}

impl RelocationList {
    /// Builds a list from entries (sorts them by source slot).
    pub fn new(layout: BlockLayout, epoch: u64, mut entries: Vec<RelocEntry>) -> Self {
        entries.sort_by_key(|e| e.src_slot);
        RelocationList {
            layout,
            epoch,
            entries,
        }
    }

    /// Finds the relocation entry for `slot`, if that slot is scheduled.
    pub fn find(&self, slot: SlotId) -> Option<&RelocEntry> {
        self.entries
            .binary_search_by_key(&slot, |e| e.src_slot)
            .ok()
            .map(|i| &self.entries[i])
    }

    /// Hangs the list off `block`'s header, where readers find it (§5.1),
    /// and drops the list a previous pass left there, if any.
    pub fn install(self, block: &BlockRef) {
        let list = Box::into_raw(Box::new(self));
        let old = block.header().reloc_list.swap(list, Ordering::AcqRel);
        if !old.is_null() {
            // SAFETY: a list is only ever installed from a `Box`, and the
            // swap took the old one out of the header.
            drop(unsafe { Box::from_raw(old) });
        }
    }

    /// The list hung off `block`'s header, if any. It lives as long as the
    /// block, which the caller's hold on `block` (group membership, epoch)
    /// keeps alive.
    pub fn of(block: &BlockRef) -> Option<&RelocationList> {
        let list = block.header().reloc_list.load(Ordering::Acquire);
        // SAFETY: installed from a `Box` and dropped only when the block is
        // retired or a later list replaces it.
        unsafe { list.as_ref() }
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
            let dest = reloc.dest_payload as *mut u8;
            let dest_block = BlockRef::from_interior_ptr(dest);
            // The layout travels with the list; reach it through the header.
            let list = RelocationList::of(&src_block).expect("a scheduled block has a list");
            // A panic while copying (a slot accessor's assertion) must not
            // leave the entry locked, or every later locker spins on it for
            // good: the unwind takes the bail path, and the object stays put.
            let bail = locked.then_some(BailOnUnwind { src_block, reloc });
            list.layout
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
            // The source slot no longer holds the object: it enters limbo at
            // the pass's relocation epoch, counted as a freed slot is, so a
            // source the pass only partly empties goes back to allocation
            // with ordinary limbo.
            src_block.slot_word(reloc.src_slot).set_limbo(list.epoch);
            let header = src_block.header();
            header.valid_count.fetch_sub(1, Ordering::Relaxed);
            header.limbo_count.fetch_add(1, Ordering::Relaxed);
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

// ---------------------------------------------------------------------
// The reader's side: §5.1 `dereference_object` and the §6 direct walk
// ---------------------------------------------------------------------

/// Rounds of spill fault-in one dereference takes before it fails closed.
/// Each round either returns or faults one spilled page back in; a page is
/// re-spilled between a fault-in and the re-read only by an evictor racing
/// this very object, and eight rounds outlast any such storm.
const FAULT_IN_ROUNDS: usize = 8;

/// Forwarding tombstones one direct dereference follows: they chain across
/// successive compactions, one per pass since the pointer was written.
const FORWARD_HOPS: usize = 64;

impl EntryRef {
    /// Resolves a checked reference — this entry, as assigned at
    /// incarnation `inc` — to the object's current payload, the address of
    /// its slot-header incarnation cell in both layouts. This is the paper's
    /// `dereference_object` (§5.1). `Ok(None)` if the object was removed;
    /// `Err(MemError::SpillFault)` if it sits in a spilled page that cannot
    /// be read back, or was spilled again under this reader eight times.
    /// The payload stays valid for the guard's critical section (§3.4).
    ///
    /// The fast path — an exact incarnation match and a resident payload —
    /// is two loads and inlines into the caller; everything else takes an
    /// out-of-line call.
    #[inline]
    pub fn resolve(self, inc: u32, guard: &Guard<'_>) -> Result<Option<usize>, MemError> {
        if self.get().inc().load(Ordering::Acquire) == inc {
            let payload = self.get().load_payload(Ordering::Acquire);
            if payload != 0 && !spill::is_spill_tagged(payload) {
                return Ok(Some(payload));
            }
        }
        self.resolve_slow(inc, guard)
    }

    /// [`resolve`](Self::resolve) past its fast path: a removed object, the
    /// spill fault-in retry, and a frozen object.
    #[inline(never)]
    fn resolve_slow(self, inc: u32, guard: &Guard<'_>) -> Result<Option<usize>, MemError> {
        for _ in 0..FAULT_IN_ROUNDS {
            let word = self.get().inc().load(Ordering::Acquire);
            // Fast path: exact match, no flags set.
            if word == inc {
                let payload = self.get().load_payload(Ordering::Acquire);
                if payload == 0 {
                    return Ok(None);
                }
                if spill::is_spill_tagged(payload) {
                    if !spill::fault_in_tagged(payload)? {
                        return Ok(None); // the collection is gone
                    }
                    continue;
                }
                return Ok(Some(payload));
            }
            // Masked match: alive but frozen or locked by compaction.
            if word & INC_MASK == inc & INC_MASK {
                return Ok(self.resolve_frozen(inc, guard));
            }
            return Ok(None);
        }
        Err(MemError::SpillFault)
    }

    /// §5.1 cases a–c for a frozen object. Cold: only reachable while a
    /// compaction is in flight.
    #[cold]
    fn resolve_frozen(self, inc: u32, guard: &Guard<'_>) -> Option<usize> {
        // A spill tag cannot coexist with compaction flags (eviction skips
        // compacting blocks), so seeing one here means the world changed
        // under us: fail closed rather than follow a stub.
        let resident = || {
            let payload = self.get().load_payload(Ordering::Acquire);
            (payload != 0 && !spill::is_spill_tagged(payload)).then_some(payload)
        };
        let payload = resident()?;
        // SAFETY: a resident payload read under the guard addresses a live
        // block (epoch protection).
        let (block, slot) = unsafe { BlockRef::locate(payload) };
        if !negotiate(block, slot, guard) || mutation::enabled(Mutation::DerefSkipsReread) {
            // Re-introduced bug (`DerefSkipsReread`): after settling the
            // relocation, keep the address read before it.
            return Some(payload);
        }
        // Re-validate: the object may have been freed while we negotiated,
        // and it may live somewhere else now.
        if self.get().inc().incarnation() != inc & INC_MASK {
            return None;
        }
        resident()
    }

    /// Resolves like [`resolve`](Self::resolve) and captures a direct
    /// pointer to where the object lives now, with the slot-header
    /// incarnation it is validated against (§6).
    #[inline]
    pub fn to_direct(self, inc: u32, guard: &Guard<'_>) -> Result<Option<DirectPtr>, MemError> {
        let Some(payload) = self.resolve(inc, guard)? else {
            return Ok(None);
        };
        // SAFETY: `resolve` returned a resident payload inside the guard's
        // critical section: the word at it is the slot's incarnation.
        let inc = unsafe { BlockRef::inc_at(payload) }.incarnation();
        Ok(NonNull::new(payload as *mut u8).map(|addr| DirectPtr { addr, inc }))
    }
}

/// The one §5.1 negotiation of a reader that found the object in `slot` of
/// `block` frozen. In the freezing epoch (case a) there is nothing to do:
/// no relocation happens this epoch, so the current location stays valid
/// for the reader's critical section. In the relocation epoch, find the
/// slot's relocation entry and bail it out in the waiting phase (case b) or
/// help move the object in the moving phase (case c). Returns true when it
/// settled a relocation, after which the caller re-reads where the object
/// lives; false when it found none to settle (case a, or freeze flags of an
/// aborted pass).
fn negotiate(block: BlockRef, slot: SlotId, guard: &Guard<'_>) -> bool {
    if !guard.in_relocation_epoch() {
        return false;
    }
    let Some(reloc) = RelocationList::of(&block).and_then(|list| list.find(slot)) else {
        return false;
    };
    // SAFETY: `block` owns the list `reloc` came from, and the caller's
    // guard keeps the block, its destination and the entry table alive.
    unsafe {
        if guard.in_moving_phase() {
            try_move_object(block, reloc);
        } else {
            bail_out_relocation(block, reloc);
        }
    }
    true
}

/// An untyped direct pointer (§6): the address of an object's slot-header
/// incarnation cell (its payload) plus the incarnation it was taken at, so
/// the check reads the word the pointer points at. It skips the indirection
/// hop at the price of chasing forwarding tombstones after compaction.
/// `smc::DirectRef` is its typed wrapper; [`EntryRef::to_direct`] makes one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectPtr {
    addr: NonNull<u8>,
    inc: u32,
}

// SAFETY: plain data, validated at every dereference.
unsafe impl Send for DirectPtr {}
unsafe impl Sync for DirectPtr {}

impl DirectPtr {
    /// The incarnation cell's address, the object's payload (for the fix-up
    /// scan's block-address probe, §6).
    #[inline]
    pub fn addr(&self) -> usize {
        self.addr.as_ptr() as usize
    }

    /// Dereferences through the slot-header incarnation: the object's
    /// payload, and the pointer to heal `self` to when the walk crossed a
    /// forwarding tombstone. A frozen slot is settled by the §5.1
    /// negotiation and retried. `None` once the object was freed, or when
    /// it was forwarded and then spilled, so that no resident address is
    /// left to heal to (re-resolve through the entry).
    ///
    /// # Safety
    /// The blocks the walk reads must still be mapped: the pointer's block
    /// and every forwarding source since were not released. A pointer kept
    /// in a linked field ([`MemoryContext::link_direct`]) meets this by
    /// construction, but for one case: a block leaves its context only
    /// through the context's retirement, which heals or clears every linked
    /// pointer into it before burying it (§6), ordered against the holder's
    /// compaction passes. The case it misses is a pointer that an add or an
    /// update of the holder stores into a linked field while the target
    /// retires the pointer's block: the fix-up may have passed that slot
    /// already, and the pointer outlives the block. A pointer kept anywhere
    /// else meets it only while it was taken inside the caller's critical
    /// section. The caller holds `guard`, so nothing
    /// the walk reads is reused before the critical section ends.
    ///
    /// [`MemoryContext::link_direct`]: crate::context::MemoryContext::link_direct
    #[inline]
    pub unsafe fn resolve(&self, guard: &Guard<'_>) -> Option<(usize, Option<DirectPtr>)> {
        // Fast path: the word it points at matches, no flags set.
        let addr = self.addr();
        if BlockRef::inc_at(addr).load(Ordering::Acquire) == self.inc {
            return Some((addr, None));
        }
        self.walk(guard)
    }

    /// [`resolve`](Self::resolve) past its fast path: the tombstone chase
    /// and the §5.1 negotiation over a frozen slot.
    ///
    /// # Safety
    /// As for [`resolve`](Self::resolve).
    #[inline(never)]
    unsafe fn walk(&self, guard: &Guard<'_>) -> Option<(usize, Option<DirectPtr>)> {
        let mut addr = self.addr();
        let mut healed = None;
        for _ in 0..FORWARD_HOPS {
            let word = BlockRef::inc_at(addr).load(Ordering::Acquire);
            if word == self.inc {
                return Some((addr, healed));
            }
            if word & INC_MASK != self.inc & INC_MASK {
                return None; // freed
            }
            let (block, slot) = BlockRef::locate(addr);
            if word & FLAG_FORWARD != 0 {
                // Tombstone: the back-pointer leads to the indirection
                // entry, which holds the new location (§6).
                let back = block.back_ptr(slot).load(Ordering::Acquire);
                if back == 0 {
                    return None;
                }
                // A tombstone's back-pointer is its object's live entry, in
                // the runtime's address-stable table.
                let payload = EntryRef::from_addr(back)
                    .get()
                    .load_payload(Ordering::Acquire);
                if payload == 0 || spill::is_spill_tagged(payload) {
                    return None;
                }
                addr = payload;
                let inc = self.inc & INC_MASK;
                healed = Some(DirectPtr {
                    addr: NonNull::new(addr as *mut u8)?,
                    inc,
                });
                continue;
            }
            if !negotiate(block, slot, guard) {
                return Some((addr, healed));
            }
        }
        None
    }
}

/// One direct-pointer field of a holder's objects (§6), as the typed layer
/// declares it with [`MemoryContext::link_direct`]: how to read and
/// overwrite the pointer an object holds there. The fix-up that retirement
/// runs heals each pointer through it, and a spill of the holder clears it
/// in every object it copies into a page.
///
/// [`MemoryContext::link_direct`]: crate::context::MemoryContext::link_direct
pub trait DirectField: Send + Sync + std::fmt::Debug {
    /// The pointer the object at `obj` holds in this field.
    ///
    /// # Safety
    /// `obj` addresses an initialized, aligned object of the holder's type.
    unsafe fn get(&self, obj: *mut u8) -> Option<DirectPtr>;

    /// Overwrites the pointer the object at `obj` holds in this field.
    ///
    /// # Safety
    /// As for [`get`](Self::get); the write races benignly with readers of
    /// the object, under the collection's isolation level (§4).
    unsafe fn set(&self, obj: *mut u8, ptr: Option<DirectPtr>);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{type_id_of, BlockLayout};
    use crate::context::tests::u64_at;
    use crate::epoch::EpochManager;
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
        e.get().store_payload(src.payload(s), Ordering::Release);
        e
    }

    fn freeze(e: EntryRef, src: BlockRef, s: SlotId, inc: u32) {
        assert!(e.get().inc().try_set_flag(inc, FLAG_FROZEN));
        assert!(src.payload_inc(s).try_set_flag(inc, FLAG_FROZEN));
    }

    #[test]
    fn move_relocates_object_and_tombstones_source() {
        let (src, dst, table) = setup_pair();
        unsafe {
            let e = install(src, &table, 5, 12345);
            freeze(e, src, 5, 0);
            let reloc = RelocEntry::new(5, e.addr(), 0, dst.payload(9), 9);
            RelocationList::new(layout(), 0, vec![]).install(&src);

            assert_eq!(try_move_object(src, &reloc), MoveOutcome::MovedByUs);
            // Destination holds the object, valid, right incarnation/backptr.
            assert_eq!(dst.obj_ptr(9).cast::<u64>().read(), 12345);
            assert_eq!(dst.slot_word(9).state(), SlotState::Valid);
            assert_eq!(dst.back_ptr(9).load(Ordering::Acquire), e.addr());
            // Entry repointed.
            assert_eq!(e.get().load_payload(Ordering::Acquire), dst.payload(9));
            // Entry flags cleared; source slot is a forwarding tombstone.
            assert_eq!(e.get().inc().load(Ordering::Acquire), 0);
            let src_word = src.payload_inc(5).load(Ordering::Acquire);
            assert_ne!(src_word & FLAG_FORWARD, 0);
            assert_eq!(src_word & (FLAG_FROZEN | FLAG_LOCK), 0);
            assert_eq!(src.slot_word(5).state(), SlotState::Limbo);
            assert_eq!(src.header().limbo_count.load(Ordering::Relaxed), 1);
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
            let reloc = RelocEntry::new(0, e.addr(), 0, dst.payload(0), 0);
            RelocationList::new(layout(), 0, vec![]).install(&src);
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
            let reloc = RelocEntry::new(3, e.addr(), 0, dst.payload(0), 0);
            assert_eq!(bail_out_relocation(src, &reloc), MoveOutcome::BailedOut);
            assert_eq!(reloc.status(), RelocStatus::Failed);
            // Freeze bits stripped; object untouched at the source.
            assert_eq!(e.get().inc().load(Ordering::Acquire), 0);
            assert_eq!(src.payload_inc(3).load(Ordering::Acquire), 0);
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
            let reloc = RelocEntry::new(1, e.addr(), 0, dst.payload(0), 0);
            assert_eq!(try_move_object(src, &reloc), MoveOutcome::Freed);
            src.deallocate();
            dst.deallocate();
        }
    }

    /// A mover that panics mid-copy — here the slot accessors' bounds assertion,
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
            let reloc = RelocEntry::new(2, e.addr(), 0, dst.payload(0), past_the_end);
            RelocationList::new(layout(), 0, vec![]).install(&src);
            let mover = std::panic::AssertUnwindSafe(|| try_move_object(src, &reloc));
            assert!(
                std::panic::catch_unwind(mover).is_err(),
                "the copy panicked"
            );
            let word = e.get().inc().load(Ordering::Acquire);
            assert_eq!(word & (FLAG_LOCK | FLAG_FROZEN), 0, "entry word {word:#x}");
            assert_eq!(reloc.status(), RelocStatus::Failed);
            assert_eq!(src.payload_inc(2).load(Ordering::Acquire) & FLAG_FROZEN, 0);
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
        let list = RelocationList::new(layout(), 0, entries);
        assert_eq!(list.find(2).unwrap().entry_addr, 0x20);
        assert_eq!(list.find(5).unwrap().entry_addr, 0x30);
        assert_eq!(list.find(9).unwrap().entry_addr, 0x10);
        assert!(list.find(7).is_none());
    }

    // ---- the reader's side -------------------------------------------------

    /// A frozen object holding `v` in src slot 5, scheduled to move to dst
    /// slot 9 through a list in the source header, as a pass's freezing
    /// epoch leaves it.
    unsafe fn scheduled(
        src: BlockRef,
        dst: BlockRef,
        table: &IndirectionTable,
        v: u64,
    ) -> EntryRef {
        let e = install(src, table, 5, v);
        freeze(e, src, 5, 0);
        let reloc = RelocEntry::new(5, e.addr(), 0, dst.payload(9), 9);
        RelocationList::new(layout(), 0, vec![reloc]).install(&src);
        e
    }

    /// An epoch manager pinned in relocation epoch 1, in the waiting phase
    /// or the moving one.
    fn relocation_epoch(moving: bool) -> std::sync::Arc<EpochManager> {
        let mgr = EpochManager::new();
        mgr.try_advance().unwrap();
        mgr.set_relocation_epoch(1);
        mgr.set_moving_phase(moving);
        mgr
    }

    fn status(src: &BlockRef) -> RelocStatus {
        RelocationList::of(src).unwrap().entries[0].status()
    }

    #[test]
    fn case_a_a_frozen_object_resolves_in_place_outside_the_relocation_epoch() {
        let (src, dst, table) = setup_pair();
        unsafe {
            let e = scheduled(src, dst, &table, 11);
            let mgr = EpochManager::new();
            let g = mgr.pin();
            assert_eq!(e.resolve(0, &g), Ok(Some(src.payload(5))));
            assert_eq!(status(&src), RelocStatus::Pending, "no negotiation");
            assert_ne!(e.get().inc().load(Ordering::Acquire) & FLAG_FROZEN, 0);
            assert_eq!(e.resolve(1, &g), Ok(None), "another incarnation");
            drop(g);
            src.deallocate();
            dst.deallocate();
        }
    }

    #[test]
    fn case_b_the_waiting_phase_bails_the_relocation_out() {
        let (src, dst, table) = setup_pair();
        unsafe {
            let e = scheduled(src, dst, &table, 22);
            let mgr = relocation_epoch(false);
            let g = mgr.pin();
            assert!(g.in_relocation_epoch());
            assert_eq!(e.resolve(0, &g), Ok(Some(src.payload(5))));
            assert_eq!(status(&src), RelocStatus::Failed);
            assert_eq!(e.get().inc().load(Ordering::Acquire), 0, "thawed");
            assert_eq!(src.payload_inc(5).load(Ordering::Acquire), 0);
            drop(g);
            src.deallocate();
            dst.deallocate();
        }
    }

    #[test]
    fn case_c_the_moving_phase_helps_move_and_resolves_at_the_destination() {
        let (src, dst, table) = setup_pair();
        unsafe {
            let e = scheduled(src, dst, &table, 33);
            let mgr = relocation_epoch(true);
            let g = mgr.pin();
            let home = e.resolve(0, &g).unwrap().unwrap();
            assert_eq!(home, dst.payload(9));
            assert_eq!(u64_at(home), 33);
            assert_eq!(status(&src), RelocStatus::Succeeded);
            drop(g);
            src.deallocate();
            dst.deallocate();
        }
    }

    #[test]
    fn flags_of_an_aborted_pass_resolve_in_place() {
        let (src, dst, table) = setup_pair();
        unsafe {
            let e = install(src, &table, 5, 44);
            freeze(e, src, 5, 0);
            let mgr = relocation_epoch(true);
            let g = mgr.pin();
            assert_eq!(e.resolve(0, &g), Ok(Some(src.payload(5))));
            drop(g);
            src.deallocate();
            dst.deallocate();
        }
    }

    #[test]
    fn a_spilled_object_faults_in_and_an_unreadable_page_fails_closed() {
        use crate::fault::FaultSite;
        use crate::spill::tests::{fail_next, fill_two_blocks_and_spill, spill_ctx};
        let rt = crate::runtime::Runtime::new();
        let (c, _store) = spill_ctx(&rt);
        let first = fill_two_blocks_and_spill(&c);
        fail_next(&rt, FaultSite::SpillLoad);
        let g = rt.pin();
        let (a, b) = (&first[0], &first[1]);
        assert_eq!(a.entry.resolve(a.entry_inc, &g), Err(MemError::SpillFault));
        assert_eq!(c.spilled_blocks(), 1, "the page stays spilled");
        let home = b.entry.resolve(b.entry_inc, &g).unwrap().unwrap();
        assert_eq!(unsafe { u64_at(home) }, 1);
        assert_eq!(c.spilled_blocks(), 0, "the retry faulted the page in");
        assert_eq!(a.entry.resolve(a.entry_inc + 1, &g), Ok(None));
    }

    /// An entry that faulting in never makes resident — a stub whose page
    /// is not in the directory — fails closed after the bounded rounds, and
    /// one whose collection is gone resolves to nothing.
    #[test]
    fn a_payload_that_stays_spilled_fails_closed_after_the_bound() {
        use crate::spill::{SpillStub, SPILL_TAG};
        let rt = crate::runtime::Runtime::new();
        let c = std::sync::Arc::new(crate::context::tests::ctx(&rt));
        let table = IndirectionTable::new();
        let registry = EpochManager::new();
        let e = table.allocate(registry.slot().unwrap());
        let stub = |ctx| {
            Box::into_raw(Box::new(SpillStub {
                ctx,
                block_id: u64::MAX,
            }))
        };
        let stuck = stub(std::sync::Arc::downgrade(&c));
        e.get()
            .store_payload(stuck as usize | SPILL_TAG, Ordering::Release);
        let g = rt.pin();
        assert_eq!(e.resolve(0, &g), Err(MemError::SpillFault));
        let orphan = stub(std::sync::Weak::new());
        e.get()
            .store_payload(orphan as usize | SPILL_TAG, Ordering::Release);
        assert_eq!(e.resolve(0, &g), Ok(None), "the collection is gone");
        drop(g);
        unsafe {
            drop(Box::from_raw(stuck));
            drop(Box::from_raw(orphan));
        }
    }

    #[test]
    fn a_direct_pointer_chases_the_tombstone_and_heals() {
        let (src, dst, table) = setup_pair();
        unsafe {
            let e = install(src, &table, 5, 55);
            src.payload_inc(5).store(3, Ordering::Release);
            let plain = EpochManager::new();
            let g = plain.pin();
            let direct = e.to_direct(0, &g).unwrap().unwrap();
            assert_eq!(direct.addr(), src.payload(5));
            assert_eq!(direct.resolve(&g), Some((direct.addr(), None)));
            drop(g);
            // The pass's freeze: the slot counter (3) is not the entry's (0).
            let schedule = || {
                assert!(e.get().inc().try_set_flag(0, FLAG_FROZEN));
                assert!(src.payload_inc(5).try_set_flag(3, FLAG_FROZEN));
                let reloc = RelocEntry::new(5, e.addr(), 0, dst.payload(9), 9);
                RelocationList::new(layout(), 0, vec![reloc]).install(&src);
            };
            schedule();
            // Frozen in the waiting phase: the walk bails the move out and
            // stays where it is.
            let waiting = relocation_epoch(false);
            let g = waiting.pin();
            assert_eq!(direct.resolve(&g), Some((direct.addr(), None)));
            assert_eq!(status(&src), RelocStatus::Failed);
            drop(g);
            // Moved by a later pass: the walk crosses the tombstone.
            schedule();
            let moving = relocation_epoch(true);
            let g = moving.pin();
            let (home, healed) = direct.resolve(&g).unwrap();
            assert_eq!(home, dst.payload(9));
            assert_eq!(u64_at(home), 55);
            let healed = healed.expect("a tombstone was crossed");
            assert_eq!(healed.addr(), home);
            assert_eq!(healed.resolve(&g), Some((home, None)));
            // A free bumps the slot counter: both go null.
            dst.payload_inc(9).bump();
            assert_eq!(healed.resolve(&g), None);
            assert_eq!(direct.resolve(&g), None);
            drop(g);
            src.deallocate();
            dst.deallocate();
        }
    }

    #[test]
    fn concurrent_helpers_race_one_winner() {
        for _ in 0..50 {
            let (src, dst, table) = setup_pair();
            unsafe {
                let e = install(src, &table, 4, 4242);
                freeze(e, src, 4, 0);
                let reloc = std::sync::Arc::new(RelocEntry::new(4, e.addr(), 0, dst.payload(7), 7));
                RelocationList::new(layout(), 0, vec![]).install(&src);

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
