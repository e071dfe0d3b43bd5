//! Mutation-testing switchboard: re-introduces known (fixed) protocol bugs at
//! runtime so the `smc-check` model checker can prove it would have caught
//! each of them. It sits beside [`sync`](crate::sync), the layer the
//! checker sees through, so every crate whose protocols go through that
//! layer (`smc-memory`, this crate's rings and waiter, `smc-obs`'s trace
//! ring) can consult it.
//!
//! The mutations only exist under `cfg(smc_check)`; in a normal build
//! [`enabled`] is a `const false`, so every call site folds away and the
//! shipped protocol is untouched. Under the checker, `smc-check`'s mutation
//! tests flip one mutation on, run the relevant scenario through the bounded
//! explorer, and assert a violation is found within the interleaving budget —
//! printing the failing schedule as a replayable seed.

/// A known protocol bug that can be re-introduced under `cfg(smc_check)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum Mutation {
    /// The first relocation bug fixed: relocation installs the
    /// *indirection-entry* incarnation at the destination slot instead of
    /// the *source slot* incarnation (slot-side and entry-side counters are
    /// independent).
    SlotVsEntryInc = 1 << 0,
    /// Epoch advance skips the "all pinned threads reached the current
    /// epoch" check, so memory can be reclaimed under a live reader.
    AdvanceIgnoresPinned = 1 << 1,
    /// `EpochManager::enter` publishes its epoch once without the
    /// publish-recheck loop, racing with a concurrent advance.
    NoPublishRecheck = 1 << 2,
    /// A reader's bail-out (§5.1 case b) forgets to clear the freeze flag on
    /// the source slot, wedging readers that wait for the freeze to resolve.
    BailKeepsFrozen = 1 << 3,
    /// Moving an object skips taking the entry lock bit before copying, so
    /// two movers can both believe they won the race.
    MoveSkipsLock = 1 << 4,
    /// `cancel_relocation` (the pass epilogue's rollback) marks
    /// the entry settled without running the locked bail path, so the freeze
    /// never rolls back — and a racing mover can finish the move *after* the
    /// cancel claimed the object stayed put.
    CancelSkipsBailRollback = 1 << 5,
    /// A block freed by a thread other than the one that allocated it goes
    /// onto the *allocating* thread's shard free list instead of the
    /// freeing thread's own, so a push by a thread that does not hold the
    /// slot races the holder's lock-free pop and a block is lost or handed
    /// out twice.
    FreeIntoForeignCache = 1 << 6,
    /// The §5.2 group reader increments the query counter but skips the
    /// re-check of the group's `started` flag, so it can pin a
    /// "pre-relocation" state the mover is already relocating out of — and
    /// the scan misses every object moved under it.
    PinSkipsStartedRecheck = 1 << 7,
    /// Releasing an indirection entry skips the free-list lock and stocks a
    /// thread slot's magazine directly — a slot the releasing thread does
    /// not hold, so its unsynchronized update of the magazine races the
    /// holder's pop and an entry is handed out twice or lost.
    ReleaseIntoForeignMagazine = 1 << 8,
    /// `try_free` skips its look at the home block's `SPILLING` mark, so a
    /// free can finish between a spill's wait on the entry and its tag
    /// store, and the freed object is spilled as if it were live.
    FreeIgnoresSpillClaim = 1 << 9,
    /// `spsc::Consumer::pop` releases its slot (stores `head + 1`) before it
    /// reads the slot, so a producer waiting on a full ring can overwrite
    /// the value before the consumer has taken it.
    PopReleasesSlotBeforeRead = 1 << 10,
    /// `Waiter::wait` re-polls before it raises `sleeping`, so a waker that
    /// publishes between the poll and the store sees no sleeper, skips the
    /// `unpark`, and the waiter parks through its wake-up.
    SleepAfterRecheck = 1 << 11,
    /// The trace ring's `SeqSlot::publish` stores the `BUSY` tag after the
    /// record's words instead of before them, so a reader can validate a
    /// slot whose words are half the old record and half the new.
    BusyAfterWords = 1 << 12,
    /// `scan_spilled_then_snapshot` lets the spill mutex go after it lists
    /// the page directory and before it snapshots membership, so a page
    /// that faults in between is visited twice: as a page and as the
    /// resident block it became.
    ScanSnapshotsApart = 1 << 13,
    /// A reader that settled a frozen object's relocation (§5.1 cases b and
    /// c) returns the address it read before settling instead of re-reading
    /// the entry, so a reader that helped move the object goes on reading
    /// the source slot it left behind.
    DerefSkipsReread = 1 << 14,
}

#[cfg(smc_check)]
static ACTIVE: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

/// Returns true when `m` is currently switched on. Always false (and
/// const-foldable) outside `cfg(smc_check)` builds.
#[inline(always)]
pub fn enabled(m: Mutation) -> bool {
    #[cfg(smc_check)]
    {
        ACTIVE.load(std::sync::atomic::Ordering::Relaxed) & m as u32 != 0
    }
    #[cfg(not(smc_check))]
    {
        let _ = m;
        false
    }
}

/// Switches a mutation on. No-op outside `cfg(smc_check)` builds.
pub fn set(m: Mutation) {
    #[cfg(smc_check)]
    ACTIVE.fetch_or(m as u32, std::sync::atomic::Ordering::Relaxed);
    #[cfg(not(smc_check))]
    let _ = m;
}

/// Switches all mutations off. No-op outside `cfg(smc_check)` builds.
pub fn clear_all() {
    #[cfg(smc_check)]
    ACTIVE.store(0, std::sync::atomic::Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_outside_checker_builds() {
        set(Mutation::SlotVsEntryInc);
        #[cfg(not(smc_check))]
        assert!(!enabled(Mutation::SlotVsEntryInc));
        #[cfg(smc_check)]
        assert!(enabled(Mutation::SlotVsEntryInc));
        clear_all();
        assert!(!enabled(Mutation::SlotVsEntryInc));
    }
}
