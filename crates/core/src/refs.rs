//! Reference types for self-managed objects.
//!
//! [`Ref`] is the paper's `ObjRef` (Figure 1): a fat pointer holding the
//! address of the object's indirection-table entry plus the incarnation
//! number observed when the reference was created. Dereferencing validates
//! the incarnation and, when compaction flags are set, runs the three-case
//! slow path of §5.1 (`dereference_object` in the paper) — returning the
//! pointer during the freezing epoch, bailing the relocation out during the
//! waiting phase, or helping move the object during the moving phase.
//!
//! [`DirectRef`] is the §6 alternative: a raw pointer to the object's memory
//! slot, validated against the *slot-header* incarnation word. It skips the
//! indirection hop — the optimization Figure 12 measures — at the price of
//! chasing forwarding tombstones after compaction and needing the fix-up
//! scan (`Smc::fix_direct_refs`).
//!
//! Both types are `Copy` plain data: they can be stored inside other tabular
//! objects (that is how reference-based joins work in the TPC-H adaptation)
//! and survive their target's removal — they simply dereference to `None`
//! afterwards, the paper's "implicitly become null" semantics (§2).
//!
//! A reference carries its collection's [`Layout`](crate::Layout). Only a
//! row reference hands out `&T`: a columnar object (§4.1) is a set of cells
//! in parallel column arrays, not a `T` in memory, so it is read through
//! its collection ([`Smc::read`](crate::Smc::read)), which gathers a copy.

use std::marker::PhantomData;
use std::ptr::NonNull;
use std::sync::atomic::Ordering;

use smc_memory::block::BlockRef;
use smc_memory::epoch::Guard;
use smc_memory::incarnation::{FLAG_FORWARD, INC_MASK};
use smc_memory::indirection::EntryRef;
use smc_memory::reloc::{bail_out_relocation, try_move_object};
use smc_memory::spill;
use smc_memory::tabular::Tabular;

use crate::collection::Rows;

/// A checked reference to an object in a self-managed collection of layout
/// `L`.
///
/// 12–16 bytes of plain data; copying it never touches the object.
pub struct Ref<T: Tabular, L = Rows> {
    /// Address of the indirection entry; 0 encodes the null reference.
    entry_addr: usize,
    /// Incarnation of the entry at assignment time.
    inc: u32,
    _marker: PhantomData<fn() -> (T, L)>,
}

impl<T: Tabular, L> Clone for Ref<T, L> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Tabular, L> Copy for Ref<T, L> {}

impl<T: Tabular, L> PartialEq for Ref<T, L> {
    fn eq(&self, other: &Self) -> bool {
        self.entry_addr == other.entry_addr && self.inc == other.inc
    }
}
impl<T: Tabular, L> Eq for Ref<T, L> {}

impl<T: Tabular, L> std::hash::Hash for Ref<T, L> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.entry_addr.hash(state);
        self.inc.hash(state);
    }
}

impl<T: Tabular, L> std::fmt::Debug for Ref<T, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ref")
            .field("entry", &(self.entry_addr as *const ()))
            .field("inc", &self.inc)
            .finish()
    }
}

// SAFETY: plain data validated at every dereference.
unsafe impl<T: Tabular, L: 'static> Tabular for Ref<T, L> {}

impl<T: Tabular, L> Default for Ref<T, L> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T: Tabular, L> Ref<T, L> {
    /// The null reference: dereferences to `None`.
    pub const fn null() -> Ref<T, L> {
        Ref {
            entry_addr: 0,
            inc: 0,
            _marker: PhantomData,
        }
    }

    /// True for [`null`](Self::null) references.
    pub fn is_null(&self) -> bool {
        self.entry_addr == 0
    }

    /// Builds a reference from an entry and its incarnation. Crate-internal:
    /// collections construct references on `add` and during enumeration.
    pub(crate) fn from_parts(entry: EntryRef, inc: u32) -> Ref<T, L> {
        Ref {
            entry_addr: entry.addr(),
            inc,
            _marker: PhantomData,
        }
    }

    /// The entry handle, if non-null.
    pub(crate) fn entry(&self) -> Option<EntryRef> {
        if self.entry_addr == 0 {
            None
        } else {
            Some(unsafe { EntryRef::from_addr(self.entry_addr) })
        }
    }

    /// The incarnation this reference was created with.
    pub(crate) fn incarnation(&self) -> u32 {
        self.inc
    }

    /// Resolves the object's current indirection payload — the paper's
    /// `dereference_object` (§5.1): the object's address for rows, its
    /// incarnation cell for columns. `None` if the object was removed.
    #[inline]
    pub(crate) fn resolve(&self, guard: &Guard<'_>) -> Option<usize> {
        let entry = self.entry()?;
        // Bounded retry: each iteration either returns or faults one spilled
        // page back in (repointing the entry at a resident slot). A page can
        // be re-spilled between our fault-in and the re-read only by a
        // concurrent evictor racing this hot object; 8 rounds outlasts any
        // realistic eviction storm, and bailing to `None` afterwards is the
        // same fail-closed answer an unreadable page gets.
        for _ in 0..8 {
            let word = entry.get().inc().load(Ordering::Acquire);
            // Fast path: exact match, no flags set.
            if word == self.inc {
                let payload = entry.get().load_payload(Ordering::Acquire);
                if payload == 0 {
                    return None;
                }
                if spill::is_spill_tagged(payload) {
                    if !spill::fault_in_tagged(payload) {
                        return None; // page unreadable: fail closed
                    }
                    continue;
                }
                return Some(payload);
            }
            // Masked match: alive but frozen/locked by compaction.
            if word & INC_MASK == self.inc & INC_MASK {
                return self.slow_path(entry, guard);
            }
            return None;
        }
        None
    }

    /// §5.1 cases a–c. Cold: only reachable while a compaction is in flight.
    #[cold]
    fn slow_path(&self, entry: EntryRef, guard: &Guard<'_>) -> Option<usize> {
        let deref = |e: EntryRef| -> Option<usize> {
            let payload = e.get().load_payload(Ordering::Acquire);
            // A spill tag cannot coexist with compaction flags (eviction
            // skips compacting blocks), so seeing one here means the world
            // changed under us — fail closed rather than deref a stub.
            if payload == 0 || spill::is_spill_tagged(payload) {
                None
            } else {
                Some(payload)
            }
        };
        // Case a: we are not in the relocation epoch (e.g. the freezing
        // epoch). No relocation can happen this epoch; the current pointer
        // is safe for the rest of our critical section.
        if !guard.in_relocation_epoch() {
            return deref(entry);
        }
        // Locate the relocation-list entry for this object.
        let payload = entry.get().load_payload(Ordering::Acquire);
        if payload == 0 {
            return None;
        }
        let block = unsafe { BlockRef::from_interior_ptr(payload as *const u8) };
        let slot = unsafe { block.slot_of_payload(payload) };
        let list = block.header().reloc_list.load(Ordering::Acquire);
        let reloc = if list.is_null() {
            None
        } else {
            unsafe { (*list).find(slot) }
        };
        let Some(reloc) = reloc else {
            // Not actually scheduled (e.g. flags from an aborted pass).
            return deref(entry);
        };
        if !guard.manager().in_moving_phase() {
            // Case b: waiting phase — relocations must not start while we
            // hold this pointer, and we may not perform them either. Bail
            // the relocation out.
            unsafe { bail_out_relocation(block, reloc) };
        } else {
            // Case c: moving phase — help move the object, then proceed at
            // its new location.
            unsafe { try_move_object(block, reloc) };
        }
        // Re-validate: the object may have been freed while we negotiated.
        let word = entry.get().inc().load(Ordering::Acquire);
        if word & INC_MASK != self.inc & INC_MASK {
            return None;
        }
        deref(entry)
    }
}

impl<T: Tabular> Ref<T> {
    /// Dereferences the object — the paper's `dereference_object` (§5.1).
    ///
    /// Returns `None` if the object was removed from its collection (the
    /// `NullReferenceException` rendering of §2). The returned borrow lives
    /// as long as the guard: within a critical section, a checked reference
    /// stays valid without rechecking (§3.4).
    #[inline]
    pub fn get<'g>(&self, guard: &'g Guard<'_>) -> Option<&'g T> {
        // SAFETY: `resolve` validated the incarnation inside the pinned
        // critical section; the slot cannot be reclaimed or relocated while
        // we are pinned (epoch protocol, §3.4/§5.1).
        self.resolve(guard).map(|p| unsafe { &*(p as *const T) })
    }

    /// Resolves the object's current raw pointer — used by compiled queries
    /// that update fields in place (§7's "compiled unsafe C#"). Validation
    /// is identical to [`get`](Self::get); concurrent readers observe such
    /// updates under the collection's read-uncommitted isolation level (§4).
    #[inline]
    pub fn get_ptr(&self, guard: &Guard<'_>) -> Option<*mut T> {
        self.resolve(guard).map(|p| p as *mut T)
    }

    /// Copies the object out (`None` if removed).
    #[inline]
    pub fn read(&self, guard: &Guard<'_>) -> Option<T> {
        self.get(guard).copied()
    }

    /// Converts to a direct pointer (§6), resolving the current memory
    /// location and capturing the slot-header incarnation.
    pub fn to_direct(&self, guard: &Guard<'_>) -> Option<DirectRef<T>> {
        let obj = self.get(guard)?;
        let addr = obj as *const T as usize;
        let block = unsafe { BlockRef::from_interior_ptr(addr as *const u8) };
        let slot = unsafe { block.slot_of_payload(addr) };
        let inc = block.payload_inc(slot).incarnation();
        Some(DirectRef {
            ptr: NonNull::new(addr as *mut u8)?,
            inc,
            _marker: PhantomData,
        })
    }
}

/// A direct pointer between self-managed objects (§6): the object's slot
/// address plus the slot-header incarnation.
pub struct DirectRef<T: Tabular> {
    ptr: NonNull<u8>,
    inc: u32,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Tabular> Clone for DirectRef<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Tabular> Copy for DirectRef<T> {}

impl<T: Tabular> std::fmt::Debug for DirectRef<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirectRef")
            .field("ptr", &self.ptr)
            .field("inc", &self.inc)
            .finish()
    }
}

unsafe impl<T: Tabular> Send for DirectRef<T> {}
unsafe impl<T: Tabular> Sync for DirectRef<T> {}

/// An optional direct pointer, suitable as a field type inside tabular
/// objects (`DirectRef` itself has no null state).
pub type OptDirectRef<T> = Option<DirectRef<T>>;

unsafe impl<T: Tabular> Tabular for DirectRef<T> {}

impl<T: Tabular> DirectRef<T> {
    /// Raw slot address (for the fix-up scan's block-address probe, §6).
    #[inline]
    pub fn addr(&self) -> usize {
        self.ptr.as_ptr() as usize
    }

    /// Dereferences through the slot-header incarnation; follows forwarding
    /// tombstones left by compaction (§6).
    #[inline]
    pub fn get<'g>(&self, guard: &'g Guard<'_>) -> Option<&'g T> {
        self.resolve(guard).map(|(r, _)| r)
    }

    /// Dereferences and rewrites `self` to the object's new location if a
    /// tombstone was crossed — the paper's "the query also updates the
    /// direct pointer to the object's new memory location" (§6).
    #[inline]
    pub fn get_healing<'g>(&mut self, guard: &'g Guard<'_>) -> Option<&'g T> {
        let (obj, healed) = self.resolve(guard)?;
        if let Some(new) = healed {
            *self = new;
        }
        Some(obj)
    }

    fn resolve<'g>(&self, guard: &'g Guard<'_>) -> Option<(&'g T, Option<DirectRef<T>>)> {
        let mut addr = self.ptr.as_ptr() as usize;
        let mut healed = None;
        // Tombstones can chain across successive compactions; bounded by
        // the number of passes since the pointer was written.
        for _ in 0..64 {
            let block = unsafe { BlockRef::from_interior_ptr(addr as *const u8) };
            let slot = unsafe { block.slot_of_payload(addr) };
            let word = block.payload_inc(slot).load(Ordering::Acquire);
            if word == self.inc {
                // SAFETY: slot-header incarnation matched inside a critical
                // section; same argument as `Ref::get`.
                return Some((unsafe { &*(addr as *const T) }, healed));
            }
            if word & INC_MASK != self.inc & INC_MASK {
                return None; // freed
            }
            if word & FLAG_FORWARD != 0 {
                // Tombstone: the back-pointer leads to the indirection entry,
                // which holds the new location (§6).
                let back = block.back_ptr(slot).load(Ordering::Acquire);
                if back == 0 {
                    return None;
                }
                let entry = unsafe { EntryRef::from_addr(back) };
                let payload = entry.get().load_payload(Ordering::Acquire);
                // A forwarded object that was then spilled has no resident
                // address to heal to — fail closed (re-resolve via `Ref`).
                if payload == 0 || spill::is_spill_tagged(payload) {
                    return None;
                }
                addr = payload;
                healed = Some(DirectRef {
                    ptr: NonNull::new(addr as *mut u8)?,
                    inc: self.inc & INC_MASK,
                    _marker: PhantomData,
                });
                continue;
            }
            // Frozen (compaction in flight): mirror the §5.1 cases through
            // the relocation list, then retry.
            if guard.in_relocation_epoch() {
                let list = block.header().reloc_list.load(Ordering::Acquire);
                if !list.is_null() {
                    if let Some(reloc) = unsafe { (*list).find(slot) } {
                        if guard.manager().in_moving_phase() {
                            unsafe { try_move_object(block, reloc) };
                        } else {
                            unsafe { bail_out_relocation(block, reloc) };
                        }
                        continue;
                    }
                }
            }
            // Freezing epoch (case a): the current location stays valid.
            return Some((unsafe { &*(addr as *const T) }, healed));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_ref_behaves() {
        let r: Ref<u64> = Ref::null();
        assert!(r.is_null());
        assert_eq!(r, Ref::default());
        let rt = smc_memory::Runtime::new();
        let g = rt.pin();
        assert!(r.get(&g).is_none());
        assert!(r.read(&g).is_none());
        assert!(r.to_direct(&g).is_none());
    }

    #[test]
    fn refs_are_small_plain_data() {
        assert!(std::mem::size_of::<Ref<u64>>() <= 16);
        assert!(std::mem::size_of::<DirectRef<u64>>() <= 16);
        // DirectRef has a NonNull niche: Option<DirectRef> costs nothing.
        assert_eq!(
            std::mem::size_of::<DirectRef<u64>>(),
            std::mem::size_of::<Option<DirectRef<u64>>>()
        );
    }

    #[test]
    fn ref_equality_and_hash() {
        use std::collections::HashSet;
        let a: Ref<u64> = Ref::null();
        let b: Ref<u64> = Ref::null();
        assert_eq!(a, b);
        let mut s = HashSet::new();
        s.insert(a);
        assert!(s.contains(&b));
    }
}
