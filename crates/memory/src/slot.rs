//! The slot directory: per-slot lifecycle state, packed into 32 bits (§3.2).
//!
//! Each data block carries a dense array with one [`SlotWord`] per object
//! slot. Queries iterate this array to find valid slots without touching
//! object data ("As each entry in the slot directory is only four bytes wide
//! and stored in a consecutive memory area, it is fairly cheap to iterate
//! over the slot directory to check for valid slots", §4).
//!
//! Following the paper, a slot is in one of three states:
//!
//! * [`SlotState::Free`] — never used since the block was (re)initialized;
//! * [`SlotState::Valid`] — holds live object data;
//! * [`SlotState::Limbo`] — the object was removed, but the slot cannot be
//!   reused until two global epochs have passed (§3.5).
//!
//! The remaining 30 bits of the word store the removal epoch, truncated. The
//! reclamation check only ever asks "have at least two epochs passed since
//! removal", and epochs advance by single increments, so comparing truncated
//! values with wrapping arithmetic is exact as long as fewer than 2^29 epochs
//! elapse between a removal and its reclamation attempt — the block-level
//! reclamation queue retries long before that.

use std::sync::atomic::Ordering;

use smc_util::sync::AtomicU32;

/// Identifier of a slot within one block (dense, starting at zero).
pub type SlotId = u32;

/// Lifecycle state of an object slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum SlotState {
    /// Never used since block initialization.
    Free = 0,
    /// Contains live object data.
    Valid = 1,
    /// Object removed; awaiting epoch-safe reclamation.
    Limbo = 2,
}

const STATE_SHIFT: u32 = 30;
const STATE_MASK: u32 = 0b11 << STATE_SHIFT;
const EPOCH_MASK: u32 = !STATE_MASK;

/// Packs a state and a (truncated) removal epoch into one word.
#[inline]
pub fn pack(state: SlotState, epoch: u64) -> u32 {
    ((state as u32) << STATE_SHIFT) | (epoch as u32 & EPOCH_MASK)
}

/// Extracts the state from a packed word.
#[inline]
pub fn state_of(word: u32) -> SlotState {
    match (word & STATE_MASK) >> STATE_SHIFT {
        0 => SlotState::Free,
        1 => SlotState::Valid,
        _ => SlotState::Limbo,
    }
}

/// Extracts the truncated removal epoch from a packed word.
#[inline]
pub fn epoch_of(word: u32) -> u32 {
    word & EPOCH_MASK
}

/// True if a `Limbo` slot removed at `removal` (truncated) may be reused at
/// global epoch `now`: at least two epochs have passed (§3.4: "Memory freed
/// in some global epoch e can safely be reclaimed in epoch e + 2").
#[inline]
pub fn reclaimable(removal_truncated: u32, now: u64) -> bool {
    let now_t = now as u32 & EPOCH_MASK;
    now_t.wrapping_sub(removal_truncated) & EPOCH_MASK >= 2
}

/// One atomic slot-directory word.
#[derive(Debug)]
#[repr(transparent)]
pub struct SlotWord(AtomicU32);

impl SlotWord {
    /// A fresh `Free` slot.
    pub const fn free() -> Self {
        SlotWord(AtomicU32::new(0))
    }

    /// Loads the packed word.
    #[inline]
    pub fn load(&self, order: Ordering) -> u32 {
        self.0.load(order)
    }

    /// Current state.
    #[inline]
    pub fn state(&self) -> SlotState {
        state_of(self.load(Ordering::Acquire))
    }

    /// Marks the slot `Valid`. Called by the (single) allocating thread.
    #[inline]
    pub fn set_valid(&self) {
        self.0.store(pack(SlotState::Valid, 0), Ordering::Release);
    }

    /// Marks the slot `Limbo`, recording the removal epoch. Removals can race
    /// with the allocator scanning the directory; a plain store is fine
    /// because only the owner of a live object may remove it, and the
    /// allocator never reuses a `Valid` slot.
    #[inline]
    pub fn set_limbo(&self, removal_epoch: u64) {
        self.0
            .store(pack(SlotState::Limbo, removal_epoch), Ordering::Release);
    }

    /// Resets the slot to `Free` (fault-in unpublishing a slot it filled).
    #[inline]
    pub fn reset(&self) {
        self.0.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trips() {
        for state in [SlotState::Free, SlotState::Valid, SlotState::Limbo] {
            for epoch in [0u64, 1, 2, 1 << 20, (1 << 30) - 1, u64::MAX] {
                let w = pack(state, epoch);
                assert_eq!(state_of(w), state);
                assert_eq!(epoch_of(w), epoch as u32 & EPOCH_MASK);
            }
        }
    }

    #[test]
    fn reclaimable_requires_two_epochs() {
        assert!(!reclaimable(10, 10));
        assert!(!reclaimable(10, 11));
        assert!(reclaimable(10, 12));
        assert!(reclaimable(10, 500));
    }

    #[test]
    fn reclaimable_handles_truncation_wrap() {
        // Removal just below the 30-bit boundary, now just above it.
        let removal = (1u64 << 30) - 1;
        let w = pack(SlotState::Limbo, removal);
        assert!(!reclaimable(epoch_of(w), removal));
        assert!(!reclaimable(epoch_of(w), removal + 1));
        assert!(reclaimable(epoch_of(w), removal + 2));
        assert!(reclaimable(epoch_of(w), removal + 3));
    }

    #[test]
    fn slot_word_lifecycle() {
        let s = SlotWord::free();
        assert_eq!(s.state(), SlotState::Free);
        s.set_valid();
        assert_eq!(s.state(), SlotState::Valid);
        s.set_limbo(5);
        assert_eq!(s.state(), SlotState::Limbo);
    }

    #[test]
    fn reset_returns_to_free() {
        let s = SlotWord::free();
        s.set_valid();
        s.reset();
        assert_eq!(s.state(), SlotState::Free);
    }
}
