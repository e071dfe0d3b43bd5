//! Reference types for self-managed objects.
//!
//! [`Ref`] is the paper's `ObjRef` (Figure 1): a fat pointer holding the
//! object's indirection-table entry plus the incarnation number observed
//! when the reference was created. Dereferencing is the memory layer's
//! [`EntryRef::resolve`], the paper's `dereference_object` (§5.1): it
//! validates the incarnation and, when compaction flags are set, returns
//! the pointer during the freezing epoch, bails the relocation out during
//! the waiting phase, or helps move the object during the moving phase.
//!
//! [`DirectRef`] is the §6 alternative: a raw pointer to the object's memory
//! slot, validated against the *slot-header* incarnation word (the memory
//! layer's [`DirectPtr`]). It skips the indirection hop — the optimization
//! Figure 12 measures — at the price of chasing forwarding tombstones after
//! compaction and needing the §6 fix-up scan, which the memory manager runs
//! over every field declared with [`Smc::link_direct`](crate::Smc::link_direct)
//! before a block leaves its collection.
//!
//! Both are typed wrappers: the protocol is untyped and lives in
//! `smc-memory`, and hands back an object's payload, the address of its
//! slot-header incarnation cell. Only this module turns a payload into a
//! `&T` (`row_object`): a row's data follow the word at a constant offset.
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

use smc_memory::error::MemError;
use smc_memory::tabular::Tabular;
use smc_memory::{DirectField, DirectPtr, EntryRef, Guard};

use crate::collection::Rows;

/// Bytes from a row's incarnation cell to its data: the 4-byte word, padded
/// to `T`'s alignment (the row layout's `obj_offset`).
pub(crate) fn obj_offset<T>() -> usize {
    std::mem::align_of::<T>().max(4)
}

/// The row whose payload, its incarnation cell, is at `payload`.
#[inline]
pub(crate) fn row_object<T>(payload: usize) -> *mut T {
    (payload + obj_offset::<T>()) as *mut T
}

/// A checked reference to an object in a self-managed collection of layout
/// `L`.
///
/// 12–16 bytes of plain data; copying it never touches the object.
pub struct Ref<T: Tabular, L = Rows> {
    /// The indirection entry; `None` is the null reference.
    entry: Option<EntryRef>,
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
        self.entry == other.entry && self.inc == other.inc
    }
}
impl<T: Tabular, L> Eq for Ref<T, L> {}

impl<T: Tabular, L> std::hash::Hash for Ref<T, L> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.entry.hash(state);
        self.inc.hash(state);
    }
}

impl<T: Tabular, L> std::fmt::Debug for Ref<T, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entry = self.entry.map_or(0, |e| e.addr());
        f.debug_struct("Ref")
            .field("entry", &(entry as *const ()))
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
            entry: None,
            inc: 0,
            _marker: PhantomData,
        }
    }

    /// True for [`null`](Self::null) references.
    pub fn is_null(&self) -> bool {
        self.entry.is_none()
    }

    /// Builds a reference from an entry and its incarnation. Crate-internal:
    /// collections construct references on `add` and during enumeration.
    pub(crate) fn from_parts(entry: EntryRef, inc: u32) -> Ref<T, L> {
        Ref {
            entry: Some(entry),
            inc,
            _marker: PhantomData,
        }
    }

    /// The entry handle, if non-null.
    pub(crate) fn entry(&self) -> Option<EntryRef> {
        self.entry
    }

    /// The incarnation this reference was created with.
    pub(crate) fn incarnation(&self) -> u32 {
        self.inc
    }

    /// Resolves the object's current indirection payload
    /// ([`EntryRef::resolve`], §5.1): its incarnation cell, in both layouts.
    /// `Ok(None)` if the object was removed;
    /// `Err(MemError::SpillFault)` if it sits in a spilled page that cannot
    /// be read back.
    #[inline]
    pub(crate) fn resolve(&self, guard: &Guard<'_>) -> Result<Option<usize>, MemError> {
        match self.entry {
            Some(entry) => entry.resolve(self.inc, guard),
            None => Ok(None),
        }
    }
}

impl<T: Tabular> Ref<T> {
    /// Dereferences the object — the paper's `dereference_object` (§5.1).
    ///
    /// Returns `None` if the object was removed from its collection (the
    /// `NullReferenceException` rendering of §2). The returned borrow lives
    /// as long as the guard: within a critical section, a checked reference
    /// stays valid without rechecking (§3.4). Panics if the object sits in a
    /// spilled page that cannot be read back, as
    /// [`Smc::for_each`](crate::Smc::for_each) does; use
    /// [`try_get`](Self::try_get) where that must be an error.
    #[inline]
    pub fn get<'g>(&self, guard: &'g Guard<'_>) -> Option<&'g T> {
        self.try_get(guard).expect("spilled page unreadable")
    }

    /// Fallible [`get`](Self::get): `Ok(None)` for a removed object,
    /// `Err(MemError::SpillFault)` when its spilled page cannot be read back
    /// (the page stays spilled — fail closed).
    #[inline]
    pub fn try_get<'g>(&self, guard: &'g Guard<'_>) -> Result<Option<&'g T>, MemError> {
        let obj = self.resolve(guard)?;
        // SAFETY: `resolve` validated the incarnation inside the pinned
        // critical section; the slot cannot be reclaimed or relocated while
        // we are pinned (epoch protocol, §3.4/§5.1).
        Ok(obj.map(|p| unsafe { &*row_object::<T>(p) }))
    }

    /// Copies the object out (`None` if removed).
    #[inline]
    pub fn read(&self, guard: &Guard<'_>) -> Option<T> {
        self.get(guard).copied()
    }

    /// Converts to a direct pointer (§6), resolving the current memory
    /// location and capturing the slot-header incarnation. Panics where
    /// [`get`](Self::get) does.
    pub fn to_direct(&self, guard: &Guard<'_>) -> Option<DirectRef<T>> {
        let ptr = self.entry?.to_direct(self.inc, guard);
        let ptr = ptr.expect("spilled page unreadable")?;
        Some(DirectRef {
            ptr,
            _marker: PhantomData,
        })
    }
}

/// A direct pointer between self-managed objects (§6): the address of the
/// object's slot-header incarnation cell plus the incarnation it was taken
/// at. Its check reads the word it points at; the row follows it at a
/// constant offset, `max(4, align_of::<T>())`.
pub struct DirectRef<T: Tabular> {
    ptr: DirectPtr,
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
        f.debug_tuple("DirectRef").field(&self.ptr).finish()
    }
}

/// An optional direct pointer, suitable as a field type inside tabular
/// objects (`DirectRef` itself has no null state).
pub type OptDirectRef<T> = Option<DirectRef<T>>;

// SAFETY: plain data validated at every dereference.
unsafe impl<T: Tabular> Tabular for DirectRef<T> {}

impl<T: Tabular> DirectRef<T> {
    /// The incarnation cell's address, the object's payload (for the fix-up
    /// scan's block-address probe, §6); the row itself lies past it.
    #[inline]
    pub fn addr(&self) -> usize {
        self.ptr.addr()
    }

    /// Dereferences through the slot-header incarnation; follows forwarding
    /// tombstones left by compaction (§6). Kept in a field declared with
    /// [`Smc::link_direct`](crate::Smc::link_direct), the pointer is healed
    /// or cleared before its block leaves the collection, unless it was
    /// stored there while that block was leaving: the fix-up may have passed
    /// the slot already. Kept anywhere else (a local, a `Vec`), it is healed
    /// by nothing: once a block it points into has left and its burial has
    /// ripened, dereferencing it reads freed memory, so use such a pointer
    /// inside the critical section it was taken in.
    #[inline]
    pub fn get<'g>(&self, guard: &'g Guard<'_>) -> Option<&'g T> {
        // SAFETY: the pointer was taken from a live `T` of a row collection.
        // Kept in a linked field (`Smc::link_direct`), it is healed or
        // cleared before any block it points into leaves its collection, so
        // no linked pointer outlives its block's residency (§6); a validated
        // address is a live `T` for the guard's critical section, as for
        // `Ref::get`. Not covered: a pointer stored into a linked field
        // while the target retires its block, which the fix-up may miss
        // (see above), and a pointer kept anywhere else outside the
        // critical section it was taken in.
        let (payload, _) = unsafe { self.ptr.resolve(guard) }?;
        Some(unsafe { &*row_object::<T>(payload) })
    }
}

/// A field declared with [`Smc::link_direct`](crate::Smc::link_direct): the
/// typed accessor the memory manager's fix-up reads and rewrites objects
/// through.
pub(crate) struct LinkedField<T, U: Tabular> {
    pub(crate) field: fn(&mut T) -> &mut Option<DirectRef<U>>,
}

impl<T, U: Tabular> std::fmt::Debug for LinkedField<T, U> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkedField")
            .field("holder", &std::any::type_name::<T>())
            .field("target", &std::any::type_name::<U>())
            .finish()
    }
}

impl<T: Tabular, U: Tabular> DirectField for LinkedField<T, U> {
    unsafe fn get(&self, obj: *mut u8) -> Option<DirectPtr> {
        (self.field)(&mut *obj.cast::<T>()).map(|d| d.ptr)
    }

    unsafe fn set(&self, obj: *mut u8, ptr: Option<DirectPtr>) {
        let marker = PhantomData;
        *(self.field)(&mut *obj.cast::<T>()) = ptr.map(|ptr| DirectRef {
            ptr,
            _marker: marker,
        });
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

    /// A row's data sits a constant distance past its incarnation cell, the
    /// entry payload: the typed layer's offset is the row layout's, and a
    /// checked and a direct reference land on the same, aligned `T`. Rows of
    /// alignment 1, 4, 8 and 16 (`Decimal`).
    #[test]
    fn typed_object_offset_is_the_row_layouts() {
        use smc_memory::{BlockLayout, Decimal};
        fn check<T: Tabular + PartialEq + std::fmt::Debug>(value: T, align: usize) {
            assert_eq!(std::mem::align_of::<T>(), align);
            let layout = BlockLayout::rows_of::<T>().unwrap();
            assert_eq!(
                obj_offset::<T>(),
                layout.obj_offset as usize,
                "align {align}"
            );
            let rt = smc_memory::Runtime::new();
            let c = crate::Smc::<T>::new(&rt);
            let r = c.add(value);
            let g = rt.pin();
            let d = r.to_direct(&g).unwrap();
            let (checked, direct) = (r.get(&g).unwrap(), d.get(&g).unwrap());
            assert!(std::ptr::eq(checked, direct), "align {align}");
            assert_eq!(*direct, value);
            assert_eq!(direct as *const T as usize % align, 0);
        }
        check([7u8; 3], 1);
        check([7u32; 3], 4);
        check(7u64, 8);
        check(Decimal::from_int(7), 16);
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
