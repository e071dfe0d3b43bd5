//! Columnar storage for self-managed collections (§4.1).
//!
//! Because an SMC's blocks contain only objects of one type from one
//! collection, the collection may store them column-wise instead of
//! row-wise: each block's object store becomes a bundle of parallel column
//! arrays, led by the incarnation column. Queries that touch few columns
//! then read only those arrays — the Fig 12 optimization.
//!
//! Per the paper, the indirection entry of a columnar object does not hold
//! an object address (there is no contiguous object); it holds a locator.
//! We use the address of the object's incarnation cell, from which the block
//! (mask) and slot (offset arithmetic) are recovered — equivalent to the
//! paper's `(block id, slot id)` pair with one less lookup.

use std::marker::PhantomData;
use std::sync::Arc;

use smc_memory::block::{type_id_of, BlockRef};
use smc_memory::context::{Allocation, ContextConfig, MemoryContext};
use smc_memory::epoch::Guard;
use smc_memory::error::MemError;
use smc_memory::runtime::Runtime;
use smc_memory::tabular::Tabular;

use crate::refs::Ref;

/// Maximum number of columns a columnar type may declare.
pub const MAX_COLUMNS: usize = 24;

/// Types that can be shredded into parallel column arrays.
///
/// # Safety
/// `COLUMN_WIDTHS` must exactly describe the bytes written by
/// [`scatter`](Columnar::scatter) and read by [`gather`](Columnar::gather):
/// column `i`'s cell for slot `s` is the `WIDTHS[i]` bytes at
/// `cols.column(i) + s * WIDTHS[i]`, and both methods must stay within
/// their cells. Widths must be powers of two (they double as alignment).
pub unsafe trait Columnar: Tabular {
    /// Byte width of every column, in storage order.
    const COLUMN_WIDTHS: &'static [usize];

    /// Writes `self` into the column cells for `slot`.
    ///
    /// # Safety
    /// `cols` must describe a block of this type and `slot` a claimed slot.
    unsafe fn scatter(&self, cols: &ColumnArrays, slot: usize);

    /// Reads the object back from the column cells for `slot`.
    ///
    /// # Safety
    /// Same contract as [`scatter`](Columnar::scatter); the slot must hold
    /// a valid object.
    unsafe fn gather(cols: &ColumnArrays, slot: usize) -> Self;
}

/// Resolved base pointers of one block's column arrays.
#[derive(Clone, Copy)]
pub struct ColumnArrays {
    bases: [*mut u8; MAX_COLUMNS],
    len: usize,
}

impl ColumnArrays {
    /// Base pointer of column `i`.
    #[inline]
    pub fn column(&self, i: usize) -> *mut u8 {
        debug_assert!(i < self.len);
        self.bases[i]
    }

    /// Typed cell pointer: column `i`, slot `s`.
    ///
    /// # Safety
    /// `V` must be exactly `COLUMN_WIDTHS[i]` bytes and the slot in range.
    #[inline]
    pub unsafe fn cell<V>(&self, i: usize, slot: usize) -> *mut V {
        self.column(i).cast::<V>().add(slot)
    }

    /// Typed column slice covering all `capacity` slots.
    ///
    /// # Safety
    /// Same contract as [`cell`](Self::cell); the returned slice aliases
    /// concurrently-updated memory under the collection's isolation level.
    #[inline]
    pub unsafe fn column_slice<'a, V>(&self, i: usize, capacity: usize) -> &'a [V] {
        std::slice::from_raw_parts(self.column(i).cast::<V>(), capacity)
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no columns (never the case for real schemas).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A self-managed collection with columnar storage (§4.1).
pub struct ColumnarSmc<T: Columnar> {
    ctx: Arc<MemoryContext>,
    /// Byte offset of each column array from the block's store base.
    offsets: Vec<usize>,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Columnar> Clone for ColumnarSmc<T> {
    fn clone(&self) -> Self {
        ColumnarSmc {
            ctx: self.ctx.clone(),
            offsets: self.offsets.clone(),
            _marker: PhantomData,
        }
    }
}

/// Computes per-column offsets for a given capacity; returns the total store
/// bytes consumed.
fn column_offsets(widths: &[usize], capacity: usize, out: &mut Vec<usize>) -> usize {
    out.clear();
    // Incarnation column leads the store.
    let mut cursor = 4 * capacity;
    for &w in widths {
        let align = w.clamp(4, 16);
        cursor = (cursor + align - 1) & !(align - 1);
        out.push(cursor);
        cursor += w * capacity;
    }
    cursor
}

impl<T: Columnar> ColumnarSmc<T> {
    /// Creates a columnar collection on `runtime`.
    pub fn new(runtime: &Arc<Runtime>) -> ColumnarSmc<T> {
        Self::with_config(runtime, ContextConfig::default())
    }

    /// Creates a columnar collection with explicit tunables.
    pub fn with_config(runtime: &Arc<Runtime>, config: ContextConfig) -> ColumnarSmc<T> {
        assert!(T::COLUMN_WIDTHS.len() <= MAX_COLUMNS, "too many columns");
        assert!(!T::COLUMN_WIDTHS.is_empty(), "columnar type needs columns");
        let per_slot: usize = 4 + T::COLUMN_WIDTHS.iter().sum::<usize>();
        let mut offsets = Vec::new();
        // Grow the per-slot estimate until the aligned column arrays fit the
        // store region the layout grants for that estimate.
        let mut pad = 0usize;
        let ctx = loop {
            let ctx = MemoryContext::new_columnar(
                runtime.clone(),
                per_slot + pad,
                type_id_of::<T>(),
                config,
            )
            .expect("columnar row too large for a memory block");
            let cap = ctx.layout().capacity as usize;
            let needed = column_offsets(T::COLUMN_WIDTHS, cap, &mut offsets);
            if needed <= ctx.layout().store_len as usize {
                break ctx;
            }
            pad += 16;
            assert!(pad < 4096, "column alignment padding runaway");
        };
        ColumnarSmc {
            ctx: Arc::new(ctx),
            offsets,
            _marker: PhantomData,
        }
    }

    /// The runtime this collection allocates from.
    pub fn runtime(&self) -> &Arc<Runtime> {
        self.ctx.runtime()
    }

    /// The collection's private memory context (§3.3).
    pub fn context(&self) -> &Arc<MemoryContext> {
        &self.ctx
    }

    /// Hands this collection's maintenance to a background
    /// [`Coordinator`](smc_maint::Coordinator); see
    /// [`Smc::register_maintenance`](crate::Smc::register_maintenance).
    pub fn register_maintenance(
        &self,
        coordinator: &smc_maint::Coordinator,
        policy: smc_maint::MaintPolicy,
    ) {
        coordinator.register(self.ctx.clone(), policy);
    }

    /// Captures a lock-free observatory snapshot of this collection's heap;
    /// see [`smc_memory::inspect`] for the consistency model. Does not
    /// require quiescence.
    pub fn heap_snapshot(&self) -> smc_memory::inspect::HeapSnapshot {
        smc_memory::inspect::HeapSnapshot::capture(self.runtime(), &[&self.ctx])
    }

    /// Resolves the column arrays of one block.
    #[inline]
    pub fn arrays(&self, block: &BlockRef) -> ColumnArrays {
        let base = block.store_base();
        let mut bases = [std::ptr::null_mut(); MAX_COLUMNS];
        for (i, &off) in self.offsets.iter().enumerate() {
            bases[i] = unsafe { base.add(off) };
        }
        ColumnArrays {
            bases,
            len: self.offsets.len(),
        }
    }

    /// Inserts an object, shredding it into the block's columns.
    pub fn add(&self, value: T) -> Ref<T> {
        self.try_add(value).expect("allocation failed")
    }

    /// Fallible [`add`](Self::add).
    pub fn try_add(&self, value: T) -> Result<Ref<T>, MemError> {
        let Allocation {
            entry, entry_inc, ..
        } = self.ctx.alloc_with(|block, slot| {
            let cols = self.arrays(block);
            // SAFETY: exclusive claimed slot; Columnar contract bounds the
            // writes to this slot's cells.
            unsafe { value.scatter(&cols, slot as usize) };
        })?;
        Ok(Ref::from_parts(entry, entry_inc))
    }

    /// Removes the referenced object.
    pub fn remove(&self, r: Ref<T>) -> bool {
        match r.entry() {
            Some(entry) => self.ctx.free(entry, r.incarnation()),
            None => false,
        }
    }

    /// Gathers a copy of the referenced object from its columns. This is the
    /// §4.1 reference path: "the JIT compiler injects the code required to
    /// access columnarly stored data when following references".
    pub fn read(&self, r: Ref<T>, _guard: &Guard<'_>) -> Option<T> {
        let entry = r.entry()?;
        let word = entry.get().inc().load(std::sync::atomic::Ordering::Acquire);
        if word & smc_memory::INC_MASK != r.incarnation() & smc_memory::INC_MASK {
            return None;
        }
        let payload = entry
            .get()
            .load_payload(std::sync::atomic::Ordering::Acquire);
        if payload == 0 {
            return None;
        }
        let (block, slot) = unsafe { self.ctx.locate(payload) };
        let cols = self.arrays(&block);
        // SAFETY: incarnation validated inside the caller's critical section.
        Some(unsafe { T::gather(&cols, slot as usize) })
    }

    /// Number of live objects.
    pub fn len(&self) -> u64 {
        self.ctx.live_objects()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total off-heap bytes held.
    pub fn memory_bytes(&self) -> usize {
        self.ctx.bytes()
    }

    /// Visits each block's column arrays — the columnar compiled-query
    /// loop. `f` receives the arrays and the block; it walks the block's
    /// [`valid_slots`](BlockRef::valid_slots) and reads only the columns the
    /// query needs (§4.1). Blocks of an in-flight compaction group are
    /// visited through the §5.2 protocol, like any other scan.
    pub fn for_each_block(&self, guard: &Guard<'_>, mut f: impl FnMut(&ColumnArrays, &BlockRef)) {
        let m = self.ctx.membership_snapshot();
        m.for_each_block(guard, &self.ctx.runtime().stats, |block| {
            f(&self.arrays(&block), &block);
        });
    }

    /// Applies `f` to every live object, gathered from its columns.
    pub fn for_each(&self, guard: &Guard<'_>, mut f: impl FnMut(&T)) -> u64 {
        let mut n = 0;
        self.for_each_block(guard, |cols, block| {
            block.valid_slots().for_each(|slot| {
                // SAFETY: `cols` are this block's arrays and the slot is valid.
                f(&unsafe { T::gather(cols, slot as usize) });
                n += 1;
            });
        });
        n
    }
}

impl<T: Columnar> std::fmt::Debug for ColumnarSmc<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnarSmc")
            .field("type", &std::any::type_name::<T>())
            .field("len", &self.len())
            .field("columns", &T::COLUMN_WIDTHS.len())
            .finish()
    }
}
