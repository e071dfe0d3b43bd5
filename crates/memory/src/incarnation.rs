//! Incarnation numbers — the use-after-free detector of §3.1, extended with
//! the compaction flag bits of §5.1 and the forwarding flag of §6.
//!
//! Every object slot header and every indirection-table entry carries one
//! 32-bit *incarnation word*. The low 29 bits are a counter that is
//! incremented each time the slot (or entry) is freed; references embed the
//! counter value observed at assignment time, and every dereference verifies
//! that the stored counter still matches (§3.1). The top three bits are flags
//! used by the concurrent compaction protocol:
//!
//! * [`FLAG_FROZEN`] — the object is scheduled for relocation in the next
//!   relocation epoch (§5.1);
//! * [`FLAG_LOCK`] — a thread is currently moving the object or recording a
//!   bailed-out relocation (§5.1);
//! * [`FLAG_FORWARD`] — the slot is a tombstone: the object has moved and the
//!   slot's back-pointer leads to the indirection entry holding the new
//!   location (§6).
//!
//! The fast path of a dereference is a single equality comparison between the
//! reference's incarnation and the whole word — when no flags are set (the
//! common case outside compaction), a match proves liveness and the flags are
//! never inspected (§6: "checking the forwarding flag is performed during
//! incarnation number checking and, hence, does not penalize the common
//! case").

use std::sync::atomic::Ordering;

use crate::sync::AtomicU32;

/// Frozen flag: object scheduled for relocation (§5.1).
pub const FLAG_FROZEN: u32 = 1 << 31;
/// Lock flag: relocation (or bail-out) of this object is in progress (§5.1).
pub const FLAG_LOCK: u32 = 1 << 30;
/// Forwarding flag: the slot is a tombstone left behind by relocation (§6).
pub const FLAG_FORWARD: u32 = 1 << 29;
/// Mask selecting all three flag bits.
pub const FLAG_MASK: u32 = FLAG_FROZEN | FLAG_LOCK | FLAG_FORWARD;
/// Mask selecting the incarnation counter (the paper's `FL_MASK` complement).
pub const INC_MASK: u32 = !FLAG_MASK;

/// Largest representable incarnation counter value. Slots whose counter
/// reaches this value are quarantined rather than reused (§3.1: "we stop
/// reusing these memory slots" on overflow).
pub const INC_LIMIT: u32 = INC_MASK;

/// An atomic incarnation word: 29-bit counter plus three flag bits.
///
/// Every mutating operation that can race uses compare-and-swap, because
/// the compaction protocol requires `free` to race safely against
/// freeze/lock transitions (§5.1 footnote: "this requires free to also use
/// CAS to increment incarnation numbers"); only [`store`](Self::store) and
/// the spill's `bump_exclusive`, for words no one else writes, do not.
#[derive(Debug)]
#[repr(transparent)]
pub struct IncWord(AtomicU32);

impl IncWord {
    /// A fresh word: incarnation zero, no flags.
    #[inline]
    pub const fn new(value: u32) -> Self {
        IncWord(AtomicU32::new(value))
    }

    /// Loads the raw word (counter plus flags).
    #[inline]
    pub fn load(&self, order: Ordering) -> u32 {
        self.0.load(order)
    }

    /// Stores a raw word. Only used during slot initialization and when a
    /// relocated object's incarnation is installed at its destination slot,
    /// both of which are single-writer situations.
    #[inline]
    pub fn store(&self, value: u32, order: Ordering) {
        self.0.store(value, order)
    }

    /// Returns just the counter of the current word.
    #[inline]
    pub fn incarnation(&self) -> u32 {
        self.load(Ordering::Acquire) & INC_MASK
    }

    /// Increments the counter, clearing all flags. Used by `free`: after this,
    /// every outstanding reference fails its incarnation check. Runs as a CAS
    /// loop so it serializes correctly with concurrent freeze/lock attempts.
    ///
    /// Returns the *new* counter value.
    pub fn bump(&self) -> u32 {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let next = (cur & INC_MASK).wrapping_add(1) & INC_MASK;
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return next,
                Err(actual) => cur = actual,
            }
        }
    }

    /// [`bump`](Self::bump) for a word no other thread writes meanwhile: a
    /// load and a plain store, no read-modify-write. A spill retires the
    /// slot counters of the block it holds under its claim this way.
    #[inline]
    pub(crate) fn bump_exclusive(&self) -> u32 {
        let next = (self.0.load(Ordering::Relaxed) & INC_MASK).wrapping_add(1) & INC_MASK;
        self.0.store(next, Ordering::Release);
        next
    }

    /// Like [`bump`](Self::bump) but refuses to race a held lock bit.
    pub fn bump_unlocked(&self) -> u32 {
        loop {
            let cur = self.0.load(Ordering::Acquire);
            if cur & FLAG_LOCK != 0 {
                crate::sync::cpu_relax();
                continue;
            }
            let next = (cur & INC_MASK).wrapping_add(1) & INC_MASK;
            if self
                .0
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return next;
            }
        }
    }

    /// Attempts to set a flag, failing if the counter part of the word is no
    /// longer `expected_inc` (e.g. the object was freed concurrently).
    pub fn try_set_flag(&self, expected_inc: u32, flag: u32) -> bool {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            if cur & INC_MASK != expected_inc & INC_MASK {
                return false;
            }
            let next = cur | flag;
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Clears a flag if the counter still equals `expected_inc`. A counter
    /// change means a concurrent free already bumped the word — and a bump
    /// clears every flag — so there is nothing left to undo either way.
    /// Used by `freeze_group` to retract a freeze whose slot re-check failed.
    pub fn clear_flag(&self, expected_inc: u32, flag: u32) {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            if cur & INC_MASK != expected_inc & INC_MASK {
                return;
            }
            let next = cur & !flag;
            if next == cur {
                return;
            }
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Atomically acquires the [`FLAG_LOCK`] bit, spinning while another
    /// thread holds it. Returns the word observed at acquisition (with the
    /// lock bit set), or `None` if the counter changed from `expected_inc`
    /// (object freed under us).
    pub fn lock(&self, expected_inc: u32) -> Option<u32> {
        loop {
            let cur = self.0.load(Ordering::Acquire);
            if cur & INC_MASK != expected_inc & INC_MASK {
                return None;
            }
            if cur & FLAG_LOCK != 0 {
                crate::sync::cpu_relax();
                continue;
            }
            let next = cur | FLAG_LOCK;
            if self
                .0
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(next);
            }
        }
    }

    /// Releases flags: stores `new_flags` as the entire flag set while leaving
    /// the counter untouched. The caller must hold [`FLAG_LOCK`].
    pub fn unlock_with_flags(&self, new_flags: u32) {
        debug_assert_eq!(new_flags & INC_MASK, 0, "flags only");
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            debug_assert_ne!(cur & FLAG_LOCK, 0, "unlock without lock");
            let next = (cur & INC_MASK) | new_flags;
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Releases only the lock bit: `observed` is the word [`lock`](Self::lock)
    /// returned, and every other flag it carried (a freeze set by an
    /// in-flight compaction, say) stays as it was.
    pub(crate) fn unlock_keep_flags(&self, observed: u32) {
        self.unlock_with_flags(observed & FLAG_MASK & !FLAG_LOCK);
    }

    /// Spin-waits until the lock bit is clear and returns the settled word.
    /// Used by readers that encounter a locked relocation entry (§5.1: "we
    /// spin until it is unset and then recheck the object's status").
    pub fn wait_unlocked(&self) -> u32 {
        loop {
            let cur = self.0.load(Ordering::Acquire);
            if cur & FLAG_LOCK == 0 {
                return cur;
            }
            crate::sync::cpu_relax();
        }
    }
}

/// True if `reference_inc` matches `word` exactly — the common fast path.
#[inline(always)]
pub fn matches_exact(reference_inc: u32, word: u32) -> bool {
    reference_inc == word
}

/// True if `reference_inc` matches `word` once flags are masked out — the
/// §5.1 second test that distinguishes "frozen/forwarded but alive" from
/// "freed".
#[inline(always)]
pub fn matches_masked(reference_inc: u32, word: u32) -> bool {
    reference_inc & INC_MASK == word & INC_MASK
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::*;

    #[test]
    fn flags_do_not_overlap_counter() {
        assert_eq!(FLAG_MASK & INC_MASK, 0);
        assert_eq!(FLAG_MASK | INC_MASK, u32::MAX);
        assert_eq!(FLAG_FROZEN & FLAG_LOCK, 0);
        assert_eq!(FLAG_FROZEN & FLAG_FORWARD, 0);
        assert_eq!(FLAG_LOCK & FLAG_FORWARD, 0);
    }

    #[test]
    fn bump_increments_and_clears_flags() {
        let w = IncWord::new(0);
        assert!(w.try_set_flag(0, FLAG_FROZEN));
        assert_eq!(w.load(Acquire), FLAG_FROZEN);
        assert_eq!(w.bump(), 1);
        assert_eq!(w.load(Acquire), 1);
    }

    #[test]
    fn bump_wraps_within_counter_bits() {
        let w = IncWord::new(INC_MASK); // counter at max
        assert_eq!(w.bump(), 0);
    }

    #[test]
    fn try_set_flag_fails_on_stale_incarnation() {
        let w = IncWord::new(5);
        assert!(!w.try_set_flag(4, FLAG_FROZEN));
        assert_eq!(w.load(Acquire), 5);
        assert!(w.try_set_flag(5, FLAG_FROZEN));
        assert_eq!(w.load(Acquire), 5 | FLAG_FROZEN);
    }

    #[test]
    fn lock_then_unlock_preserves_counter() {
        let w = IncWord::new(7);
        assert!(w.try_set_flag(7, FLAG_FROZEN));
        let observed = w.lock(7).expect("live");
        assert_eq!(observed & INC_MASK, 7);
        assert_ne!(observed & FLAG_LOCK, 0);
        // Relocation completed: leave a forwarding tombstone.
        w.unlock_with_flags(FLAG_FORWARD);
        let settled = w.wait_unlocked();
        assert_eq!(settled, 7 | FLAG_FORWARD);
    }

    #[test]
    fn lock_fails_after_free() {
        let w = IncWord::new(3);
        w.bump();
        assert!(w.lock(3).is_none());
    }

    #[test]
    fn clear_flag_respects_counter() {
        let w = IncWord::new(4);
        assert!(w.try_set_flag(4, FLAG_FROZEN));
        w.clear_flag(4, FLAG_FROZEN);
        assert_eq!(w.load(Acquire), 4);
        // Stale counter: the bump already cleared every flag; nothing to undo.
        assert!(w.try_set_flag(4, FLAG_FROZEN));
        w.bump();
        w.clear_flag(4, FLAG_FROZEN);
        assert_eq!(w.load(Acquire), 5);
    }

    #[test]
    fn matchers() {
        assert!(matches_exact(9, 9));
        assert!(!matches_exact(9, 9 | FLAG_FROZEN));
        assert!(matches_masked(9, 9 | FLAG_FROZEN));
        assert!(!matches_masked(9, 10));
    }

    #[test]
    fn concurrent_bump_and_flag_race_is_coherent() {
        // free() racing with freeze: either the freeze lands before the bump
        // (and the bump clears it) or the freeze observes the new counter and
        // fails. In both outcomes the final counter is 1 and no flags leak.
        for _ in 0..200 {
            let w = std::sync::Arc::new(IncWord::new(0));
            let w2 = w.clone();
            let t = std::thread::spawn(move || {
                let _ = w2.try_set_flag(0, FLAG_FROZEN);
            });
            w.bump();
            t.join().unwrap();
            let end = w.load(Acquire);
            assert_eq!(end & INC_MASK, 1);
            // A frozen flag set before the bump has been cleared by it; one
            // set after the bump is impossible (stale expected counter).
            assert_eq!(end & FLAG_LOCK, 0);
            assert_eq!(end & FLAG_FORWARD, 0);
        }
    }
}
