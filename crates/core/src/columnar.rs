//! The columnar layout (§4.1).
//!
//! Because an SMC's blocks contain only objects of one type from one
//! collection, the collection may store them column-wise instead of
//! row-wise: each block's object store becomes a bundle of parallel column
//! arrays, led by the incarnation column. Queries that touch few columns
//! then read only those arrays — the Fig 12 optimization. The layout is the
//! [`Columns`] type parameter of the one collection type, [`Smc`]:
//! `add` scatters an object into its cells, `read` and `for_each` gather
//! copies back, and the compiled plans walk the arrays themselves
//! ([`Smc::for_each_block`]). Removal, compaction, verification and
//! maintenance are the row layout's code; the memory layer knows the
//! column geometry ([`BlockLayout::columnar`](smc_memory::BlockLayout::columnar)),
//! so relocation moves a columnar object cell by cell.
//!
//! Per the paper, the indirection entry of a columnar object does not hold
//! an object address (there is no contiguous object); it holds a locator.
//! We use the address of the object's incarnation cell, from which the block
//! (mask) and slot (offset arithmetic) are recovered — equivalent to the
//! paper's `(block id, slot id)` pair with one less lookup. There is no `T`
//! in memory to borrow, so a columnar reference has no `get`:
//!
//! ```compile_fail
//! # use smc::{ColumnArrays, Columnar, Columns, Ref, Runtime, Smc, Tabular};
//! # #[derive(Clone, Copy)]
//! # struct Cell { v: u64 }
//! # unsafe impl Tabular for Cell {}
//! # unsafe impl Columnar for Cell {
//! #     const COLUMN_WIDTHS: &'static [usize] = &[8];
//! #     unsafe fn scatter(&self, c: &ColumnArrays, s: usize) { c.cell::<u64>(0, s).write(self.v) }
//! #     unsafe fn gather(c: &ColumnArrays, s: usize) -> Self { Cell { v: c.cell::<u64>(0, s).read() } }
//! # }
//! let rt = Runtime::new();
//! let cells: Smc<Cell, Columns> = Smc::columnar(&rt);
//! let r: Ref<Cell, Columns> = cells.add(Cell { v: 7 });
//! let guard = rt.pin();
//! r.get(&guard); // no `&Cell` exists to hand out
//! ```

use std::sync::Arc;

use smc_memory::block::{type_id_of, BlockRef, MAX_COLUMNS};
use smc_memory::context::{ContextConfig, MemoryContext};
use smc_memory::epoch::Guard;
use smc_memory::runtime::Runtime;
use smc_memory::slot::SlotId;
use smc_memory::tabular::Tabular;

use crate::collection::{sealed, Layout, Smc};
use crate::refs::Ref;

/// Types that can be shredded into parallel column arrays.
///
/// # Safety
/// `COLUMN_WIDTHS` must exactly describe the bytes written by
/// [`scatter`](Columnar::scatter) and read by [`gather`](Columnar::gather):
/// column `i`'s cell for slot `s` is the `WIDTHS[i]` bytes at
/// `cols.column(i) + s * WIDTHS[i]`, and both methods must stay within
/// their cells. Widths must be powers of two, because they double as cell
/// alignment; [`BlockLayout::columnar`](smc_memory::BlockLayout::columnar)
/// asserts it when the collection is created. At most [`MAX_COLUMNS`].
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

/// The columnar layout (§4.1): each block's object store is a bundle of
/// parallel column arrays, one per [`Columnar::COLUMN_WIDTHS`] entry.
pub enum Columns {}

impl<T: Columnar> Layout<T> for Columns {}

impl<T: Columnar> sealed::Store<T> for Columns {
    fn context(runtime: &Arc<Runtime>, config: ContextConfig) -> MemoryContext {
        MemoryContext::new_columnar(runtime.clone(), T::COLUMN_WIDTHS, type_id_of::<T>(), config)
            .expect("columnar row too large for a memory block")
    }

    #[inline]
    unsafe fn write(ctx: &MemoryContext, block: &BlockRef, slot: SlotId, value: T) {
        // The Columnar contract bounds the writes to this slot's cells.
        value.scatter(&arrays(ctx, block), slot as usize)
    }

    /// Gathers a copy from the object's cells — the §4.1 reference path:
    /// "the JIT compiler injects the code required to access columnarly
    /// stored data when following references".
    fn read(c: &Smc<T, Columns>, r: Ref<T, Columns>, guard: &Guard<'_>) -> Option<T> {
        let payload = r.resolve(guard)?;
        // SAFETY: `resolve` validated the incarnation inside the guard's
        // critical section, so the payload is a live incarnation cell.
        unsafe {
            let (block, slot) = BlockRef::locate(payload);
            Some(T::gather(&c.arrays(&block), slot as usize))
        }
    }

    fn for_each(c: &Smc<T, Columns>, guard: &Guard<'_>, mut f: impl FnMut(&T)) -> u64 {
        let mut n = 0;
        c.for_each_block(guard, |cols, block| {
            block.valid_slots().for_each(|slot| {
                // SAFETY: `cols` are this block's arrays and the slot is valid.
                f(&unsafe { T::gather(cols, slot as usize) });
                n += 1;
            });
        });
        n
    }
}

/// Resolves the column arrays of one block of `ctx`.
#[inline]
fn arrays(ctx: &MemoryContext, block: &BlockRef) -> ColumnArrays {
    let columns = &ctx.layout().columns;
    let base = block.store_base();
    let mut bases = [std::ptr::null_mut(); MAX_COLUMNS];
    for (i, b) in bases.iter_mut().enumerate().take(columns.len()) {
        *b = unsafe { base.add(columns.offset(i)) };
    }
    ColumnArrays {
        bases,
        len: columns.len(),
    }
}

impl<T: Columnar> Smc<T, Columns> {
    /// Creates a columnar collection on `runtime`.
    pub fn columnar(runtime: &Arc<Runtime>) -> Smc<T, Columns> {
        Self::columnar_with_config(runtime, ContextConfig::default())
    }

    /// Creates a columnar collection with explicit tunables.
    pub fn columnar_with_config(runtime: &Arc<Runtime>, config: ContextConfig) -> Smc<T, Columns> {
        Self::with_layout(runtime, config)
    }

    /// Resolves the column arrays of one block.
    #[inline]
    pub fn arrays(&self, block: &BlockRef) -> ColumnArrays {
        arrays(self.context(), block)
    }

    /// Visits each block's column arrays — the columnar compiled-query
    /// loop. `f` receives the arrays and the block; it walks the block's
    /// [`valid_slots`](BlockRef::valid_slots) and reads only the columns the
    /// query needs (§4.1). Blocks of an in-flight compaction group are
    /// visited through the §5.2 protocol, like any other scan.
    pub fn for_each_block(&self, guard: &Guard<'_>, mut f: impl FnMut(&ColumnArrays, &BlockRef)) {
        let ctx = self.context();
        let m = ctx.membership_snapshot();
        m.for_each_block(guard, &ctx.runtime().stats, |block| {
            f(&arrays(ctx, &block), &block);
        });
    }
}
