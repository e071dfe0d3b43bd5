//! Typed arenas, handles, and the tracing infrastructure.
//!
//! Objects live in segmented slabs (segments never move once allocated, so
//! dereferences stay valid across arena growth). A [`Handle`] is a slot
//! index — the managed-reference stand-in. Dereferencing costs an index
//! translation plus a data-dependent load, and after churn the slots a
//! collection's handles point at are scattered across segments: the
//! pointer-chasing, locality-degrading access pattern the paper measures
//! for managed collections (Fig 10).

use std::any::TypeId;
use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use smc_util::sync::{Mutex, RwLock};

/// Objects per segment.
pub const SEGMENT_SLOTS: usize = 1024;

/// A managed reference: a typed slot index into the object's arena.
pub struct Handle<T> {
    pub(crate) id: u32,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T> Handle<T> {
    pub(crate) fn new(id: u32) -> Self {
        Handle {
            id,
            _marker: std::marker::PhantomData,
        }
    }

    /// The raw slot index.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// A placeholder handle for padding 1-based key tables. Must never be
    /// dereferenced or traced.
    pub fn new_invalid() -> Self {
        Handle::new(u32::MAX)
    }
}

impl<T> Clone for Handle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Handle<T> {}
impl<T> PartialEq for Handle<T> {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl<T> Eq for Handle<T> {}
impl<T> std::hash::Hash for Handle<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state)
    }
}
impl<T> std::fmt::Debug for Handle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Handle({})", self.id)
    }
}

/// Types whose values may live on the managed heap. `trace` must mark every
/// [`Handle`] the value holds, or the referenced objects will be collected.
pub trait Trace: Send + Sync + 'static {
    /// Marks all handles reachable from `self`.
    fn trace(&self, marker: &mut Marker<'_>) {
        let _ = marker;
    }
}

macro_rules! impl_trace_leaf {
    ($($t:ty),* $(,)?) => {
        $(impl Trace for $t {})*
    };
}

impl_trace_leaf!(
    u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64, bool, char, String
);

impl<T: Trace> Trace for Option<T> {
    fn trace(&self, marker: &mut Marker<'_>) {
        if let Some(v) = self {
            v.trace(marker);
        }
    }
}

impl<T: Trace> Trace for Vec<T> {
    fn trace(&self, marker: &mut Marker<'_>) {
        for v in self {
            v.trace(marker);
        }
    }
}

/// Marks a handle field: `marker.mark(self.customer)`.
impl<'h> Marker<'h> {
    /// Marks the object behind `handle` live and schedules it for tracing.
    /// Placeholder handles ([`Handle::new_invalid`]) are ignored.
    pub fn mark<T: Trace>(&mut self, handle: Handle<T>) {
        if handle.id != u32::MAX {
            self.stack.push((TypeId::of::<T>(), handle.id));
        }
    }
}

const MARK_NONE: u8 = 2;

struct SlotCell<T> {
    /// 0 = empty, 1 = live.
    occupied: AtomicU8,
    /// Mark parity (0/1) or [`MARK_NONE`].
    mark: AtomicU8,
    /// Generation: 0 = nursery, 1 = mature.
    gen: AtomicU8,
    value: UnsafeCell<Option<T>>,
}

// SAFETY: value mutations happen only (a) on empty slots owned by a single
// allocator and (b) during sweeps, which run while mutators are stopped.
unsafe impl<T: Send + Sync> Send for SlotCell<T> {}
unsafe impl<T: Send + Sync> Sync for SlotCell<T> {}

struct ArenaAllocState {
    free: Vec<u32>,
    nursery: Vec<u32>,
    next_fresh: u32,
}

/// A typed object arena: segmented slab plus allocation and GC state.
pub struct Arena<T: Trace> {
    segments: RwLock<Vec<Box<[SlotCell<T>]>>>,
    alloc: Mutex<ArenaAllocState>,
    live: AtomicU64,
}

impl<T: Trace> Arena<T> {
    pub(crate) fn new() -> Arena<T> {
        Arena {
            segments: RwLock::new(Vec::new()),
            alloc: Mutex::new(ArenaAllocState {
                free: Vec::new(),
                nursery: Vec::new(),
                next_fresh: 0,
            }),
            live: AtomicU64::new(0),
        }
    }

    /// Raw pointer to a slot; the cell itself never moves. `None` for ids
    /// this arena never allocated (e.g. placeholder handles).
    fn try_cell(&self, id: u32) -> Option<*const SlotCell<T>> {
        let segs = self.segments.read();
        let seg = id as usize / SEGMENT_SLOTS;
        let idx = id as usize % SEGMENT_SLOTS;
        segs.get(seg).map(|s| &s[idx] as *const SlotCell<T>)
    }

    /// Raw pointer to a slot; the cell itself never moves.
    fn cell(&self, id: u32) -> *const SlotCell<T> {
        self.try_cell(id).expect("handle outside arena")
    }

    /// Allocates a slot for `value`, reusing a free slot when available
    /// (slot reuse is what "wears" locality, Fig 10). `parity` is the
    /// current mark parity so new objects are allocated marked.
    pub(crate) fn alloc_value(&self, value: T, parity: u8) -> Handle<T> {
        let id = {
            let mut st = self.alloc.lock();
            if let Some(id) = st.free.pop() {
                st.nursery.push(id);
                id
            } else {
                let id = st.next_fresh;
                st.next_fresh += 1;
                st.nursery.push(id);
                if id as usize / SEGMENT_SLOTS >= self.segments.read().len() {
                    let mut segs = self.segments.write();
                    while id as usize / SEGMENT_SLOTS >= segs.len() {
                        let seg: Box<[SlotCell<T>]> = (0..SEGMENT_SLOTS)
                            .map(|_| SlotCell {
                                occupied: AtomicU8::new(0),
                                mark: AtomicU8::new(MARK_NONE),
                                gen: AtomicU8::new(0),
                                value: UnsafeCell::new(None),
                            })
                            .collect();
                        segs.push(seg);
                    }
                }
                id
            }
        };
        let cell = self.cell(id);
        // SAFETY: the slot is exclusively ours (popped from free list or
        // fresh), and sweeps cannot run concurrently with mutators.
        unsafe {
            (*cell).value.get().write(Some(value));
            (*cell).gen.store(0, Ordering::Relaxed);
            (*cell).mark.store(parity, Ordering::Relaxed);
            (*cell).occupied.store(1, Ordering::Release);
        }
        self.live.fetch_add(1, Ordering::Relaxed);
        Handle::new(id)
    }

    /// Dereferences a handle. `None` if the slot was collected (or the
    /// handle is a placeholder).
    pub fn get(&self, handle: Handle<T>) -> Option<&T> {
        let cell = self.try_cell(handle.id)?;
        // SAFETY: segments are stable; value is only cleared during sweeps,
        // which are mutually exclusive with mutator access.
        unsafe {
            if (*cell).occupied.load(Ordering::Acquire) == 0 {
                return None;
            }
            (*(*cell).value.get()).as_ref()
        }
    }

    /// Mutable access for in-place updates (single-writer discipline is the
    /// caller's responsibility, as in any managed runtime).
    #[allow(clippy::mut_from_ref)]
    pub fn get_mut(&self, handle: Handle<T>) -> Option<&mut T> {
        let cell = self.cell(handle.id);
        // SAFETY: see `get`; mutation discipline is the caller's contract.
        unsafe {
            if (*cell).occupied.load(Ordering::Acquire) == 0 {
                return None;
            }
            (*(*cell).value.get()).as_mut()
        }
    }

    /// Live objects in this arena.
    pub fn live(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }
}

/// Type-erased arena operations used by the collector.
pub(crate) trait AnyArena: Send + Sync {
    /// Marks `id`; returns true if it was newly marked (needs tracing).
    fn mark_slot(&self, id: u32, parity: u8) -> bool;
    /// Traces the object in `id`, marking its referents.
    fn trace_slot(&self, id: u32, marker: &mut Marker<'_>);
    /// Sweeps unmarked slots. Minor sweeps only the nursery set (promoting
    /// survivors to generation 1); major sweeps everything. Returns the
    /// number of objects reclaimed.
    fn sweep(&self, minor: bool, parity: u8) -> u64;
    /// Live object count.
    fn live_objects(&self) -> u64;
}

impl<T: Trace> AnyArena for Arena<T> {
    fn mark_slot(&self, id: u32, parity: u8) -> bool {
        let Some(cell) = self.try_cell(id) else {
            return false;
        };
        // SAFETY: stable cell; atomics only.
        unsafe {
            if (*cell).occupied.load(Ordering::Acquire) == 0 {
                return false;
            }
            (*cell).mark.swap(parity, Ordering::AcqRel) != parity
        }
    }

    fn trace_slot(&self, id: u32, marker: &mut Marker<'_>) {
        let cell = self.cell(id);
        // SAFETY: marking runs while the slot cannot be swept.
        unsafe {
            if let Some(v) = (*(*cell).value.get()).as_ref() {
                v.trace(marker);
            }
        }
    }

    fn sweep(&self, minor: bool, parity: u8) -> u64 {
        let mut st = self.alloc.lock();
        let mut swept = 0u64;
        let sweep_cell = |cell: *const SlotCell<T>, st_free: &mut Vec<u32>, id: u32| -> bool {
            // SAFETY: sweeps run stop-the-world.
            unsafe {
                if (*cell).occupied.load(Ordering::Acquire) == 0 {
                    return false;
                }
                if (*cell).mark.load(Ordering::Acquire) == parity {
                    return false;
                }
                (*cell).occupied.store(0, Ordering::Release);
                (*(*cell).value.get()) = None;
                st_free.push(id);
                true
            }
        };
        if minor {
            let nursery = std::mem::take(&mut st.nursery);
            for id in nursery {
                let cell = self.cell(id);
                if sweep_cell(cell, &mut st.free, id) {
                    swept += 1;
                } else {
                    // Survivor: promote to the mature generation.
                    // SAFETY: stop-the-world.
                    unsafe { (*cell).gen.store(1, Ordering::Relaxed) };
                }
            }
        } else {
            let total = st.next_fresh;
            for id in 0..total {
                let cell = self.cell(id);
                if sweep_cell(cell, &mut st.free, id) {
                    swept += 1;
                }
            }
            st.nursery.clear();
        }
        self.live.fetch_sub(swept, Ordering::Relaxed);
        swept
    }

    fn live_objects(&self) -> u64 {
        self.live()
    }
}

/// The mark-phase work list, handed to [`Trace::trace`] implementations.
pub struct Marker<'h> {
    pub(crate) arenas: &'h HashMap<TypeId, Arc<dyn AnyArena>>,
    pub(crate) stack: Vec<(TypeId, u32)>,
    pub(crate) parity: u8,
    pub(crate) traced: u64,
}

impl<'h> Marker<'h> {
    pub(crate) fn new(arenas: &'h HashMap<TypeId, Arc<dyn AnyArena>>, parity: u8) -> Self {
        Marker {
            arenas,
            stack: Vec::new(),
            parity,
            traced: 0,
        }
    }

    /// Drains up to `budget` objects from the work list (u64::MAX = all).
    /// Returns true when the list is empty.
    pub(crate) fn drain(&mut self, budget: u64) -> bool {
        let mut done = 0;
        while done < budget {
            let Some((ty, id)) = self.stack.pop() else {
                return true;
            };
            let Some(arena) = self.arenas.get(&ty) else {
                continue;
            };
            if arena.mark_slot(id, self.parity) {
                // Take a local clone of the Arc so tracing can push to us.
                let arena = arena.clone();
                arena.trace_slot(id, self);
                self.traced += 1;
                done += 1;
            }
        }
        self.stack.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get_roundtrip() {
        let arena: Arena<u64> = Arena::new();
        let h = arena.alloc_value(99, 0);
        assert_eq!(arena.get(h), Some(&99));
        assert_eq!(arena.live(), 1);
    }

    #[test]
    fn segments_grow_and_stay_stable() {
        let arena: Arena<u64> = Arena::new();
        let first = arena.alloc_value(1, 0);
        let p1 = arena.get(first).unwrap() as *const u64;
        for i in 0..SEGMENT_SLOTS * 3 {
            arena.alloc_value(i as u64, 0);
        }
        assert_eq!(arena.get(first).unwrap() as *const u64, p1, "no relocation");
    }

    #[test]
    fn sweep_reclaims_unmarked_and_promotes_marked() {
        let arena: Arena<u64> = Arena::new();
        let keep = arena.alloc_value(1, MARK_NONE);
        let drop_ = arena.alloc_value(2, MARK_NONE);
        // Mark only `keep` with parity 0.
        assert!(arena.mark_slot(keep.id, 0));
        let swept = arena.sweep(true, 0);
        assert_eq!(swept, 1);
        assert_eq!(arena.get(keep), Some(&1));
        assert_eq!(arena.get(drop_), None);
        assert_eq!(arena.live(), 1);
    }

    #[test]
    fn freed_slots_are_reused() {
        let arena: Arena<u64> = Arena::new();
        let a = arena.alloc_value(1, MARK_NONE);
        arena.sweep(true, 0); // nothing marked: slot freed
        let b = arena.alloc_value(2, MARK_NONE);
        assert_eq!(a.id(), b.id(), "slot recycled");
        assert_eq!(arena.get(b), Some(&2));
    }

    #[test]
    fn mark_is_idempotent_per_parity() {
        let arena: Arena<u64> = Arena::new();
        let h = arena.alloc_value(7, MARK_NONE);
        assert!(arena.mark_slot(h.id, 1));
        assert!(!arena.mark_slot(h.id, 1), "second mark is a no-op");
        assert!(arena.mark_slot(h.id, 0), "new cycle remarqs");
    }

    #[test]
    fn major_sweep_covers_mature_objects() {
        let arena: Arena<u64> = Arena::new();
        let h = arena.alloc_value(5, 0);
        // Survives a minor (marked parity 0), promoted to gen 1.
        arena.mark_slot(h.id, 0);
        arena.sweep(true, 0);
        assert_eq!(arena.get(h), Some(&5));
        // Next major with parity 1 and no marking: reclaimed.
        let swept = arena.sweep(false, 1);
        assert_eq!(swept, 1);
        assert_eq!(arena.get(h), None);
    }
}
