//! Typed memory blocks (§3.1–§3.2).
//!
//! The memory manager allocates objects from unmanaged memory blocks, where
//! each block serves objects of exactly one type. Blocks are aligned to
//! their own size so the block header is recoverable from any interior
//! pointer with a single mask — this is how per-type information is stored
//! "only once per block rather than with every object" (§3.1).
//!
//! Block layout (§3.2, Figure 1), in address order:
//!
//! ```text
//! +--------------+-----------------+------------------+------------------+
//! | BlockHeader  | slot directory  | back-pointers    | object store     |
//! |              | capacity x u32  | capacity x usize | capacity x slot  |
//! +--------------+-----------------+------------------+------------------+
//! ```
//!
//! * The **slot directory** holds each slot's `Free`/`Valid`/`Limbo` state
//!   and removal epoch ([`crate::slot`]). Placing it right after the header
//!   keeps enumeration's skip-dead-slots scan within a dense prefix.
//! * **Back-pointers** store, per slot, the address of the slot's
//!   indirection-table entry; queries use them to materialize references to
//!   qualifying objects and compaction uses them to find the entry to
//!   repoint (§3.2).
//! * The **object store** holds one fixed-size *slot* per object: a 4-byte
//!   incarnation word (the object header of §6's refined layout, see
//!   [`crate::incarnation`]) followed by the object's bytes, padded to the
//!   object type's alignment.
//!
//! Row-wise layouts use a constant slot stride; columnar layouts (§4.1)
//! reinterpret the object store as parallel column arrays, led by the
//! incarnation column. [`BlockLayout::columnar`] computes where each column
//! starts ([`ColumnGeometry`]), so the layer that moves objects knows their
//! cells: relocation copies a row slot's bytes or a columnar object's cells
//! (`BlockLayout::copy_object`).

use std::ptr::NonNull;
use std::sync::atomic::Ordering;

use smc_util::sync::{AtomicPtr, AtomicU32, AtomicUsize};

use crate::error::MemError;
use crate::incarnation::IncWord;
use crate::reloc::RelocationList;
use crate::slot::{SlotId, SlotState, SlotWord};

/// Size of every memory block in bytes. 64 KiB holds a few hundred TPC-H
/// lineitem-sized objects, matching the paper's "blocks host ~100 objects"
/// working example (§3.5) at realistic row widths.
pub const BLOCK_SIZE: usize = 1 << 16;
/// Blocks are aligned to their size so headers are mask-recoverable.
pub const BLOCK_ALIGN: usize = BLOCK_SIZE;

const MAGIC: u32 = 0x534d_4342; // "SMCB"

/// Maximum number of columns a columnar layout may declare.
pub const MAX_COLUMNS: usize = 24;

/// Where each column of a columnar store lives (§4.1): column `i`'s cell
/// for slot `s` is the [`width`](Self::width)`(i)` bytes at
/// `store_base + offset(i) + s * width(i)`. The incarnation column (4-byte
/// cells at offset 0) leads the store and is not listed. Row layouts have
/// no columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ColumnGeometry {
    len: u32,
    offsets: [u32; MAX_COLUMNS],
    widths: [u32; MAX_COLUMNS],
}

impl ColumnGeometry {
    /// Number of data columns.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for row layouts.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Byte offset of column `i` from the store base.
    #[inline]
    pub fn offset(&self, i: usize) -> usize {
        self.offsets[i] as usize
    }

    /// Cell width of column `i` in bytes.
    #[inline]
    pub fn width(&self, i: usize) -> usize {
        self.widths[i] as usize
    }
}

/// Lays out columns of the given widths behind a `capacity`-slot
/// incarnation column, each aligned to its width (4 to 16 bytes); returns
/// the geometry and the store bytes it consumes.
fn column_offsets(widths: &[usize], capacity: usize) -> (ColumnGeometry, usize) {
    let mut columns = ColumnGeometry {
        len: widths.len() as u32,
        ..ColumnGeometry::default()
    };
    let mut cursor = 4 * capacity;
    for (i, &w) in widths.iter().enumerate() {
        let align = w.clamp(4, 16);
        cursor = align_up(cursor, align);
        columns.offsets[i] = cursor as u32;
        columns.widths[i] = w as u32;
        cursor += w * capacity;
    }
    (columns, cursor)
}

/// Geometry of a block for one object type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockLayout {
    /// Number of object slots per block.
    pub capacity: u32,
    /// Byte offset of the slot directory from the block base.
    pub slotdir_offset: u32,
    /// Byte offset of the back-pointer array from the block base.
    pub backptr_offset: u32,
    /// Byte offset of the object store from the block base.
    pub store_offset: u32,
    /// Bytes consumed by the whole object store.
    pub store_len: u32,
    /// Distance between consecutive slots (0 for columnar stores, which
    /// address cells through [`columns`](Self::columns)).
    pub slot_stride: u32,
    /// Offset of object data within a slot, past the incarnation word
    /// (row layouts only).
    pub obj_offset: u32,
    /// Bytes of one object in a row slot (0 for columnar stores).
    pub obj_size: u32,
    /// The column arrays of a columnar store (none for rows).
    pub columns: ColumnGeometry,
}

const fn align_up(x: usize, align: usize) -> usize {
    (x + align - 1) & !(align - 1)
}

impl BlockLayout {
    /// Layout for a row-wise store of objects of the given size/alignment.
    pub fn rows(obj_size: usize, obj_align: usize) -> Result<BlockLayout, MemError> {
        assert!(obj_align.is_power_of_two());
        let align = obj_align.max(4);
        let obj_offset = align_up(4, obj_align.max(1)); // inc word, then data
        let stride = align_up(obj_offset + obj_size.max(1), align);
        let mut layout = Self::build(stride, align, obj_offset as u32)?;
        layout.obj_size = obj_size as u32;
        Ok(layout)
    }

    /// Layout for [`rows`](Self::rows) of a concrete type.
    pub fn rows_of<T>() -> Result<BlockLayout, MemError> {
        Self::rows(std::mem::size_of::<T>(), std::mem::align_of::<T>())
    }

    /// Layout for a columnar store (§4.1) whose objects are cells of the
    /// given byte widths, in storage order, behind the incarnation column.
    ///
    /// # Panics
    /// If there are no columns, more than [`MAX_COLUMNS`], or a width that
    /// is not a power of two (widths double as cell alignment).
    pub fn columnar(widths: &[usize]) -> Result<BlockLayout, MemError> {
        assert!(
            (1..=MAX_COLUMNS).contains(&widths.len()),
            "a columnar layout needs 1 to {MAX_COLUMNS} columns"
        );
        assert!(
            widths.iter().all(|w| w.is_power_of_two()),
            "column widths must be powers of two: {widths:?}"
        );
        let per_slot = 4 + widths.iter().sum::<usize>();
        // Grow the per-slot estimate until the aligned column arrays fit the
        // store region the layout grants for that estimate.
        let mut pad = 0;
        loop {
            let mut layout = Self::build(per_slot + pad, 16, 0)?;
            let (columns, needed) = column_offsets(widths, layout.capacity as usize);
            if needed <= layout.store_len as usize {
                layout.slot_stride = 0;
                layout.columns = columns;
                return Ok(layout);
            }
            pad += 16;
            assert!(pad < 4096, "column alignment padding runaway");
        }
    }

    /// True for columnar stores.
    #[inline]
    pub fn is_columnar(&self) -> bool {
        self.slot_stride == 0
    }

    /// Copies the object in `slot` of `src` into `dest_slot` of `dest`: a
    /// row slot's object bytes, or each cell of a columnar object. The
    /// incarnation words are left alone.
    ///
    /// # Safety
    /// Both blocks must have this layout, both slots must be in range, and
    /// nothing else may write either object while it is copied.
    pub(crate) unsafe fn copy_object(
        &self,
        src: BlockRef,
        slot: SlotId,
        dest: BlockRef,
        dest_slot: SlotId,
    ) {
        if self.columns.is_empty() {
            let size = self.obj_size as usize;
            std::ptr::copy_nonoverlapping(src.obj_ptr(slot), dest.obj_ptr(dest_slot), size);
            return;
        }
        let (from, to) = (src.store_base(), dest.store_base());
        for i in 0..self.columns.len() {
            let (offset, width) = (self.columns.offset(i), self.columns.width(i));
            std::ptr::copy_nonoverlapping(
                from.add(offset + slot as usize * width),
                to.add(offset + dest_slot as usize * width),
                width,
            );
        }
    }

    fn build(
        per_slot: usize,
        store_align: usize,
        obj_offset: u32,
    ) -> Result<BlockLayout, MemError> {
        let header = align_up(std::mem::size_of::<BlockHeader>(), 64);
        // Each slot costs: store bytes + 4 (slot directory) + 8 (back-pointer).
        let budget = BLOCK_SIZE - header;
        let mut cap = budget / (per_slot + 4 + std::mem::size_of::<usize>());
        loop {
            if cap == 0 {
                return Err(MemError::ObjectTooLarge {
                    size: per_slot,
                    max: budget.saturating_sub(4 + std::mem::size_of::<usize>() + store_align),
                });
            }
            let slotdir_offset = header;
            let backptr_offset = align_up(slotdir_offset + cap * 4, std::mem::align_of::<usize>());
            let store_offset = align_up(
                backptr_offset + cap * std::mem::size_of::<usize>(),
                store_align,
            );
            let store_len = cap * per_slot;
            if store_offset + store_len <= BLOCK_SIZE {
                return Ok(BlockLayout {
                    capacity: cap as u32,
                    slotdir_offset: slotdir_offset as u32,
                    backptr_offset: backptr_offset as u32,
                    store_offset: store_offset as u32,
                    store_len: store_len as u32,
                    slot_stride: per_slot as u32,
                    obj_offset,
                    obj_size: 0,
                    columns: ColumnGeometry::default(),
                });
            }
            cap -= 1;
        }
    }
}

/// The header at the base of every block.
///
/// `repr(C)` plain data plus atomics; lives inside the raw allocation.
#[derive(Debug)]
#[repr(C)]
pub struct BlockHeader {
    magic: u32,
    /// Identity of the hosted object type; checked when blocks change hands.
    pub type_id: u64,
    /// Identity of the owning memory context (collection).
    pub context_id: u64,
    /// Globally unique block number.
    pub block_id: u64,
    /// Geometry (copied from [`BlockLayout`]).
    pub capacity: u32,
    slot_stride: u32,
    obj_offset: u32,
    slotdir_offset: u32,
    backptr_offset: u32,
    store_offset: u32,
    /// Live objects in this block.
    pub valid_count: AtomicU32,
    /// Limbo (freed, unreclaimed) slots in this block.
    pub limbo_count: AtomicU32,
    /// Allocation scan cursor (§3.5: scans resume "from the slot of the last
    /// allocation").
    pub alloc_cursor: AtomicU32,
    /// 1 while the block sits in its context's reclamation queue.
    pub in_reclaim_queue: AtomicU32,
    /// Thread-slot index + 1 of the thread currently allocating from this
    /// block, or 0 (§3.5: "All allocations are performed from thread-local
    /// blocks so that only one thread allocates slots in a block at a time").
    pub active_owner: AtomicU32,
    /// 1 while the block is claimed: scheduled for (or undergoing)
    /// compaction, or held by a spill; 2 (`spill::SPILLING`) once a spill
    /// has marked its claim. 0 otherwise.
    pub compacting: AtomicU32,
    /// Relocation list for the in-flight compaction, if any (§5.1: "This
    /// list is accessible through the block's header").
    pub reloc_list: AtomicPtr<RelocationList>,
    /// Allocation-shard ownership ([`crate::alloc`]): `0` for blocks
    /// allocated outside the budgeted runtime path (tests, hand-built
    /// fixtures), which go straight back to the OS when freed; otherwise the
    /// allocating thread's epoch slot index + 1, which tells a free by
    /// another thread (counted in `remote_frees`) from the allocator's own.
    pub owner_shard: AtomicU32,
}

static NEXT_BLOCK_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// A copyable handle to a block. The context owns the allocation; handles
/// are valid until the context deallocates the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockRef(NonNull<BlockHeader>);

unsafe impl Send for BlockRef {}
unsafe impl Sync for BlockRef {}

/// The one source of raw block memory: anonymous private mappings, which the
/// kernel hands over already zeroed (no `memset`) and takes back per block
/// (`munmap` of any 64 KiB member of a batch; no arena or chunk bookkeeping).
///
/// A batch is mapped at *exactly* `n * BLOCK_SIZE` bytes and kept if the
/// address is block-aligned. It almost always is: every mapping this module
/// makes is a multiple of 64 KiB and the kernel places new mappings directly
/// below the previous one, so once one batch is aligned the following ones
/// are too — and adjacent anonymous mappings with equal protection merge
/// into one VMA, which keeps `/proc/self/maps` short. A foreign mapping in
/// between (a thread stack, a large `malloc`) breaks the run; the batch is
/// then remapped one block larger and trimmed to alignment, which re-seeds
/// the run. `MADV_POPULATE_WRITE` (Linux 5.14; `EINVAL` before that, ignored)
/// faults the whole batch in with one kernel pass instead of one trap per
/// 4 KiB page.
#[cfg(all(target_os = "linux", not(miri)))]
mod os {
    use super::{align_up, BLOCK_SIZE};
    use std::ffi::{c_int, c_long, c_void};

    // std already links libc; these three symbols are the whole FFI surface.
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    const PROT_READ_WRITE: c_int = 0x1 | 0x2;
    /// `MAP_PRIVATE | MAP_ANONYMOUS` as every Linux ABI but mips, alpha,
    /// parisc and xtensa numbers them; there the call fails (`EBADF`) and
    /// every allocation reports `OutOfMemory` rather than misbehaving.
    const MAP_PRIVATE_ANONYMOUS: c_int = 0x02 | 0x20;
    const MADV_DONTNEED: c_int = 4;
    const MADV_POPULATE_WRITE: c_int = 23;

    fn map(len: usize) -> Option<usize> {
        // SAFETY: a fresh anonymous mapping at a kernel-chosen address
        // aliases nothing; failure is reported as MAP_FAILED (-1).
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ_WRITE,
                MAP_PRIVATE_ANONYMOUS,
                -1,
                0,
            )
        };
        (p as isize != -1).then_some(p as usize)
    }

    /// # Safety
    /// `[addr, addr + len)` must be mapped by this module and unused.
    unsafe fn unmap(addr: usize, len: usize) {
        // Unmapping the middle of a region splits it, which the kernel
        // refuses (`ENOMEM`) at `vm.max_map_count` regions. The range is
        // then lost as address space, but its pages need not be: dropping
        // them splits nothing.
        if munmap(addr as *mut c_void, len) != 0 {
            madvise(addr as *mut c_void, len, MADV_DONTNEED);
        }
    }

    /// Maps `len + BLOCK_SIZE` bytes and unmaps the misaligned head and the
    /// surplus tail, leaving `len` block-aligned bytes.
    pub(super) fn alloc_trimmed(len: usize) -> Option<usize> {
        let span = len.checked_add(BLOCK_SIZE)?;
        let p = map(span)?;
        let base = align_up(p, BLOCK_SIZE);
        // SAFETY: head and tail lie inside the mapping just made and
        // outside the `len` bytes handed out.
        unsafe {
            if base > p {
                unmap(p, base - p);
            }
            if base + len < p + span {
                unmap(base + len, p + span - (base + len));
            }
        }
        Some(base)
    }

    pub(super) fn alloc(n: usize) -> Option<impl Iterator<Item = usize>> {
        let len = n.checked_mul(BLOCK_SIZE)?;
        let mut base = map(len)?;
        if base % BLOCK_SIZE != 0 {
            // SAFETY: the mapping just made, not handed to anyone.
            unsafe { unmap(base, len) };
            base = alloc_trimmed(len)?;
        }
        // SAFETY: the range is ours. The advice only pre-faults; if the
        // kernel refuses (old kernel, cgroup limit) pages fault in lazily.
        unsafe { madvise(base as *mut c_void, len, MADV_POPULATE_WRITE) };
        Some((0..n).map(move |i| base + i * BLOCK_SIZE))
    }

    /// # Safety
    /// `addr` must be a block handed out by [`alloc`], unused.
    pub(super) unsafe fn free(addr: usize) {
        unmap(addr, BLOCK_SIZE);
    }
}

/// Where there is no `mmap` to call (and under Miri, which does not model
/// it), the same two functions over `std::alloc`: one zeroed allocation per
/// block, since members of a batch are freed independently.
#[cfg(any(miri, not(target_os = "linux")))]
mod os {
    use super::{BLOCK_ALIGN, BLOCK_SIZE};
    use std::alloc::{alloc_zeroed, dealloc, Layout};

    fn layout() -> Layout {
        Layout::from_size_align(BLOCK_SIZE, BLOCK_ALIGN).expect("static layout")
    }

    pub(super) fn alloc(n: usize) -> Option<impl Iterator<Item = usize>> {
        // SAFETY: the layout has non-zero size.
        let zeroed = || unsafe { alloc_zeroed(layout()) } as usize;
        let blocks: Vec<usize> = (0..n).map(|_| zeroed()).collect();
        let refused = blocks.contains(&0);
        if refused {
            // SAFETY: each non-null block was allocated just above.
            (blocks.iter().filter(|&&b| b != 0)).for_each(|&b| unsafe { free(b) });
        }
        (!refused).then(|| blocks.into_iter())
    }

    /// # Safety
    /// `addr` must be a block handed out by [`alloc`], unused.
    pub(super) unsafe fn free(addr: usize) {
        dealloc(addr as *mut u8, layout());
    }
}

/// One raw block allocation its holder owns outright: mapped and not yet
/// handed out, or retired with no pointer into it left in use. Owning one is
/// what makes writing its first word (a shard free list's link, see
/// [`crate::alloc`]) or unmapping it sound, so neither asks for more.
#[derive(Debug)]
pub(crate) struct RawBlock(usize);

impl RawBlock {
    /// Takes ownership of the raw block at `base`.
    ///
    /// # Safety
    /// `base` must be the base of a live raw block allocation that no one
    /// else owns and nothing points into.
    pub(crate) unsafe fn from_base(base: usize) -> RawBlock {
        RawBlock(base)
    }

    /// The block's base address.
    pub(crate) fn base(&self) -> usize {
        self.0
    }

    /// Gives ownership up and returns the base address.
    pub(crate) fn into_base(self) -> usize {
        self.0
    }
}

/// Allocates `n` raw, zeroed, size-aligned blocks from the OS in one request
/// and yields them; `None` if the OS refuses (nothing is held then). The
/// caller owns each block separately: pair every one with
/// [`raw_dealloc_block`] or promote it via [`BlockRef::init_at`].
pub(crate) fn raw_alloc_blocks(n: usize) -> Option<impl Iterator<Item = RawBlock>> {
    #[cfg(test)]
    if tests::MAPS_REFUSED.get() {
        return None;
    }
    os::alloc(n).map(|blocks| blocks.map(RawBlock))
}

/// Returns one raw block (from [`raw_alloc_blocks`] or [`BlockRef::retire`])
/// to the OS; a mapped block's pages leave the resident set at once.
pub(crate) fn raw_dealloc_block(block: RawBlock) {
    // SAFETY: the caller owned the block, and owns nothing in it any more.
    unsafe { os::free(block.0) };
}

impl BlockRef {
    /// Allocates and initializes a zeroed, aligned block outside the
    /// budgeted allocator path (`owner_shard` 0): tests and hand-built
    /// fixtures. Runtime handouts go through
    /// `init_at`/`reuse_at` instead.
    pub fn allocate(
        layout: &BlockLayout,
        type_id: u64,
        context_id: u64,
    ) -> Result<BlockRef, MemError> {
        let block = raw_alloc_blocks(1)
            .and_then(|mut blocks| blocks.next())
            .ok_or(MemError::OutOfMemory)?;
        Ok(unsafe { Self::init_at(block.into_base(), layout, type_id, context_id, 0) })
    }

    /// Writes a fresh block header over **zeroed** raw memory and returns
    /// the handle.
    ///
    /// # Safety
    /// `base` must come from [`raw_alloc_blocks`] (size-aligned, fully
    /// zeroed) and must not be shared with any other thread yet.
    pub(crate) unsafe fn init_at(
        base: usize,
        layout: &BlockLayout,
        type_id: u64,
        context_id: u64,
        owner_shard: u32,
    ) -> BlockRef {
        let header = base as *mut BlockHeader;
        header.write(BlockHeader {
            magic: MAGIC,
            type_id,
            context_id,
            block_id: NEXT_BLOCK_ID.fetch_add(1, Ordering::Relaxed),
            capacity: layout.capacity,
            slot_stride: layout.slot_stride,
            obj_offset: layout.obj_offset,
            slotdir_offset: layout.slotdir_offset,
            backptr_offset: layout.backptr_offset,
            store_offset: layout.store_offset,
            valid_count: AtomicU32::new(0),
            limbo_count: AtomicU32::new(0),
            alloc_cursor: AtomicU32::new(0),
            in_reclaim_queue: AtomicU32::new(0),
            active_owner: AtomicU32::new(0),
            compacting: AtomicU32::new(0),
            reloc_list: AtomicPtr::new(std::ptr::null_mut()),
            owner_shard: AtomicU32::new(owner_shard),
        });
        BlockRef(NonNull::new_unchecked(header))
    }

    /// Re-initializes a **recycled** (retired, possibly dirty) raw block for
    /// a new tenancy without paying a full 64 KiB zeroing: one memset covers
    /// the header, slot directory and back-pointers (everything before the
    /// object store), and the store is only normalized at the new geometry's
    /// incarnation words — flags cleared, counter bits kept, so a stale
    /// direct pointer into the recycled block still fails its incarnation
    /// check. This is the one block-reset path. Payload bytes are left
    /// as-is: reads are gated by the slot directory (all `Free` after the
    /// memset) and the incarnation check.
    ///
    /// # Safety
    /// `base` must be a retired block allocation ([`retire`](Self::retire))
    /// exclusively owned by the caller, with no live pointers into it
    /// (epoch barrier at retirement).
    pub(crate) unsafe fn reuse_at(
        base: usize,
        layout: &BlockLayout,
        type_id: u64,
        context_id: u64,
        owner_shard: u32,
    ) -> BlockRef {
        std::ptr::write_bytes(base as *mut u8, 0, layout.store_offset as usize);
        let block = Self::init_at(base, layout, type_id, context_id, owner_shard);
        let h = block.header();
        if h.slot_stride > 0 {
            for slot in 0..h.capacity {
                let inc = block.slot_inc(slot);
                let cur = inc.load(Ordering::Relaxed);
                inc.store(cur & crate::incarnation::INC_MASK, Ordering::Relaxed);
            }
        } else {
            // Columnar stores keep incarnations in the leading column.
            for slot in 0..h.capacity {
                let inc = block.payload_inc(slot);
                let cur = inc.load(Ordering::Relaxed);
                inc.store(cur & crate::incarnation::INC_MASK, Ordering::Relaxed);
            }
        }
        block
    }

    /// Tears the block down to raw recyclable memory: drops any leftover
    /// relocation list and hands the raw block over for a free list. The
    /// header bytes are left in place (overwritten on reuse).
    ///
    /// # Safety
    /// Same quiescence contract as [`deallocate`](Self::deallocate); the
    /// handle must not be used afterwards.
    pub(crate) unsafe fn retire(self) -> RawBlock {
        let rl = self
            .header()
            .reloc_list
            .swap(std::ptr::null_mut(), Ordering::AcqRel);
        if !rl.is_null() {
            drop(Box::from_raw(rl));
        }
        RawBlock(self.0.as_ptr() as usize)
    }

    /// Frees the block's memory. The caller must guarantee quiescence: no
    /// thread can still hold pointers into the block (epoch barrier).
    ///
    /// # Safety
    /// No live references into the block may exist, and the handle must not
    /// be used afterwards.
    pub unsafe fn deallocate(self) {
        raw_dealloc_block(self.retire());
    }

    /// The header.
    #[inline]
    pub fn header(&self) -> &BlockHeader {
        unsafe { self.0.as_ref() }
    }

    /// True if the header's magic word is intact — the first thing the
    /// invariant validator ([`crate::verify`]) checks per block, since a
    /// corrupted header invalidates every other field.
    #[inline]
    pub fn magic_ok(&self) -> bool {
        self.header().magic == MAGIC
    }

    /// Base address of the block.
    #[inline]
    pub fn base(&self) -> *mut u8 {
        self.0.as_ptr().cast()
    }

    /// Recovers the block handle from any pointer into the block — the §3.1
    /// mask trick enabled by size-alignment.
    ///
    /// # Safety
    /// `ptr` must point into a live block allocated by [`allocate`](Self::allocate).
    #[inline]
    pub unsafe fn from_interior_ptr(ptr: *const u8) -> BlockRef {
        let base = (ptr as usize) & !(BLOCK_SIZE - 1);
        let header = base as *mut BlockHeader;
        debug_assert_eq!((*header).magic, MAGIC, "interior pointer outside any block");
        BlockRef(NonNull::new_unchecked(header))
    }

    /// The slot directory word of `slot`.
    #[inline]
    pub fn slot_word(&self, slot: SlotId) -> &SlotWord {
        let h = self.header();
        debug_assert!(slot < h.capacity);
        unsafe {
            &*self
                .base()
                .add(h.slotdir_offset as usize + slot as usize * 4)
                .cast::<SlotWord>()
        }
    }

    /// The valid-slot walk every enumeration runs (§4's generated loop:
    /// "skip dead slots via the slot directory"): yields the slots of this
    /// block that are `Valid` when the walk reaches them, in slot order.
    ///
    /// Scan kernels use the push form, `valid_slots().for_each(|slot| ..)`
    /// (or `fold`), which compiles to a plain counted loop with the body
    /// inlined; `for slot in block.valid_slots()` and `next` are the pull
    /// form, for walks that suspend between objects.
    #[inline]
    pub fn valid_slots(self) -> ValidSlots {
        ValidSlots {
            block: self,
            next: 0,
            capacity: self.header().capacity,
        }
    }

    /// The back-pointer cell of `slot` (address of its indirection entry).
    #[inline]
    pub fn back_ptr(&self, slot: SlotId) -> &AtomicUsize {
        let h = self.header();
        debug_assert!(slot < h.capacity);
        unsafe {
            &*self
                .base()
                .add(h.backptr_offset as usize + slot as usize * std::mem::size_of::<usize>())
                .cast::<AtomicUsize>()
        }
    }

    /// Start address of `slot` within the object store (row layouts).
    #[inline]
    pub fn slot_base(&self, slot: SlotId) -> *mut u8 {
        let h = self.header();
        debug_assert!(slot < h.capacity);
        debug_assert!(h.slot_stride > 0, "row accessor on columnar block");
        unsafe {
            self.base()
                .add(h.store_offset as usize + slot as usize * h.slot_stride as usize)
        }
    }

    /// The slot-header incarnation word of `slot` (row layouts).
    #[inline]
    pub fn slot_inc(&self, slot: SlotId) -> &IncWord {
        unsafe { &*self.slot_base(slot).cast::<IncWord>() }
    }

    /// Address of the object data in `slot` (row layouts).
    #[inline]
    pub fn obj_ptr(&self, slot: SlotId) -> *mut u8 {
        unsafe { self.slot_base(slot).add(self.header().obj_offset as usize) }
    }

    /// Maps an object-data pointer back to its slot id (row layouts).
    ///
    /// # Safety
    /// `ptr` must have been produced by [`obj_ptr`](Self::obj_ptr) on this block.
    #[inline]
    pub unsafe fn slot_of_obj_ptr(&self, ptr: *const u8) -> SlotId {
        let h = self.header();
        let rel = ptr as usize - self.base() as usize - h.store_offset as usize;
        (rel / h.slot_stride as usize) as SlotId
    }

    /// Base address of the object store (columnar layouts address into this).
    #[inline]
    pub fn store_base(&self) -> *mut u8 {
        unsafe { self.base().add(self.header().store_offset as usize) }
    }

    /// True if this block hosts a columnar store (§4.1).
    #[inline]
    pub fn is_columnar(&self) -> bool {
        self.header().slot_stride == 0
    }

    /// The payload indirection entries hold for `slot`: the object data
    /// address for rows, the incarnation-cell address for columnar stores
    /// (equivalent to the paper's packed block/slot locator, recoverable by
    /// the same block-mask arithmetic).
    #[inline]
    pub fn payload(&self, slot: SlotId) -> usize {
        if self.is_columnar() {
            unsafe { self.store_base().add(slot as usize * 4) as usize }
        } else {
            self.obj_ptr(slot) as usize
        }
    }

    /// Maps an entry payload back to `(block, slot)`.
    ///
    /// # Safety
    /// `payload` must come from [`payload`](Self::payload) on a block that
    /// is still allocated (epoch protection guarantees this for checked
    /// references).
    #[inline]
    pub unsafe fn locate(payload: usize) -> (BlockRef, SlotId) {
        let block = Self::from_interior_ptr(payload as *const u8);
        (block, block.slot_of_payload(payload))
    }

    /// Maps an indirection-entry payload (object-data address for rows,
    /// incarnation-cell address for columnar stores) back to its slot id.
    ///
    /// # Safety
    /// `payload` must address into this block's object store.
    #[inline]
    pub unsafe fn slot_of_payload(&self, payload: usize) -> SlotId {
        if self.is_columnar() {
            ((payload - self.store_base() as usize) / 4) as SlotId
        } else {
            self.slot_of_obj_ptr(payload as *const u8)
        }
    }

    /// The slot-header incarnation word of `slot`, regardless of layout
    /// (columnar stores keep incarnations in the leading column).
    #[inline]
    pub fn payload_inc(&self, slot: SlotId) -> &IncWord {
        if self.is_columnar() {
            unsafe { &*self.store_base().add(slot as usize * 4).cast::<IncWord>() }
        } else {
            self.slot_inc(slot)
        }
    }

    /// Fraction of slots holding live objects.
    pub fn occupancy(&self) -> f64 {
        let h = self.header();
        h.valid_count.load(Ordering::Relaxed) as f64 / h.capacity as f64
    }

    /// Fraction of slots in limbo.
    pub fn limbo_fraction(&self) -> f64 {
        let h = self.header();
        h.limbo_count.load(Ordering::Relaxed) as f64 / h.capacity as f64
    }
}

/// Iterator over one block's valid slots; see [`BlockRef::valid_slots`].
#[derive(Debug, Clone)]
pub struct ValidSlots {
    block: BlockRef,
    next: SlotId,
    capacity: SlotId,
}

impl ValidSlots {
    /// The block being walked.
    #[inline]
    pub fn block(&self) -> BlockRef {
        self.block
    }

    /// The loop: hands `visit` each remaining valid slot in turn, until the
    /// block is exhausted or `visit` returns false (the walk can be resumed
    /// after the slot it stopped on).
    #[inline(always)]
    fn walk(&mut self, mut visit: impl FnMut(SlotId) -> bool) {
        while self.next < self.capacity {
            let slot = self.next;
            self.next += 1;
            // Interleaving point for the smc-check model checker: a scan can
            // be preempted between slots, which is exactly where concurrent
            // compaction races live. Nothing in normal builds.
            smc_util::sync::yield_point();
            if self.block.slot_word(slot).state() == SlotState::Valid && !visit(slot) {
                return;
            }
        }
    }
}

impl Iterator for ValidSlots {
    type Item = SlotId;

    /// The pull form, for scans that suspend between objects.
    #[inline]
    fn next(&mut self) -> Option<SlotId> {
        let mut found = None;
        self.walk(|slot| {
            found = Some(slot);
            false
        });
        found
    }

    /// The push form — what `for_each` runs on: without a suspension point
    /// the walk is a plain counted loop the caller's body inlines into.
    #[inline]
    fn fold<B, F: FnMut(B, SlotId) -> B>(mut self, init: B, mut f: F) -> B {
        let mut acc = Some(init);
        self.walk(|slot| {
            acc = acc.take().map(|acc| f(acc, slot));
            true
        });
        acc.expect("the accumulator is put back after every slot")
    }

    /// Lower bound 0 (slots may be freed under the walk), upper bound the
    /// slots not yet examined.
    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some((self.capacity - self.next) as usize))
    }
}

/// Returns a stable 64-bit identity for a Rust type, stored in block headers
/// to enforce the "one type per block" rule.
pub fn type_id_of<T: 'static>() -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    std::any::TypeId::of::<T>().hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::slot::SlotState;

    thread_local! {
        /// While set, [`raw_alloc_blocks`] fails on this thread as if the OS
        /// had refused the mapping.
        pub(crate) static MAPS_REFUSED: std::cell::Cell<bool> =
            const { std::cell::Cell::new(false) };
    }

    fn assert_zeroed_block(base: usize) {
        assert_eq!(base % BLOCK_ALIGN, 0, "block {base:#x} is not size-aligned");
        let words = unsafe { std::slice::from_raw_parts(base as *const u64, BLOCK_SIZE / 8) };
        assert!(
            words.iter().all(|&w| w == 0),
            "block {base:#x} is not zeroed"
        );
    }

    #[test]
    fn batch_members_are_zeroed_and_freed_independently_in_any_order() {
        let batch: Vec<usize> = raw_alloc_blocks(6)
            .unwrap()
            .map(RawBlock::into_base)
            .collect();
        assert_eq!(batch.len(), 6);
        for (i, &base) in batch.iter().enumerate() {
            assert_zeroed_block(base);
            unsafe { (base as *mut usize).write(i + 1) };
            unsafe { ((base + BLOCK_SIZE - 8) as *mut usize).write(i + 1) };
        }
        // Middle, first, last, then the rest: every free leaves the
        // survivors mapped and intact.
        let mut live: Vec<(usize, usize)> = batch.iter().copied().zip(1..).collect();
        for victim in [3, 0, 3, 1, 1, 0] {
            let (base, _) = live.remove(victim);
            raw_dealloc_block(unsafe { RawBlock::from_base(base) });
            for &(base, tag) in &live {
                assert_eq!(unsafe { (base as *const usize).read() }, tag);
                assert_eq!(
                    unsafe { ((base + BLOCK_SIZE - 8) as *const usize).read() },
                    tag
                );
            }
        }
    }

    #[cfg(all(target_os = "linux", not(miri)))]
    #[test]
    fn trimmed_mapping_is_aligned_zeroed_and_exactly_sized() {
        // The path a misaligned exact-size mapping falls back to.
        let base = os::alloc_trimmed(3 * BLOCK_SIZE).unwrap();
        for i in 0..3 {
            assert_zeroed_block(base + i * BLOCK_SIZE);
        }
        // Head and tail were given back: each member unmaps on its own.
        for i in [1, 2, 0] {
            raw_dealloc_block(unsafe { RawBlock::from_base(base + i * BLOCK_SIZE) });
        }
    }

    #[cfg(all(target_os = "linux", not(miri)))]
    #[test]
    fn a_mapping_the_os_refuses_is_none_not_an_abort() {
        assert!(raw_alloc_blocks(usize::MAX / BLOCK_SIZE / 2).is_none());
        assert!(
            raw_alloc_blocks(usize::MAX / BLOCK_SIZE + 1).is_none(),
            "size overflow"
        );
        assert!(
            raw_alloc_blocks(0).is_none(),
            "an empty batch is not a mapping"
        );
    }

    #[test]
    fn layout_fits_within_block() {
        for (size, align) in [(1, 1), (8, 8), (56, 8), (144, 16), (1024, 16), (4096, 64)] {
            let l = BlockLayout::rows(size, align).unwrap();
            assert!(l.capacity > 0, "size {size}");
            let end = l.store_offset as usize + l.store_len as usize;
            assert!(end <= BLOCK_SIZE, "size {size}: end {end}");
            assert!(l.slot_stride as usize >= size + 4 || align > 4);
            assert_eq!(l.store_offset as usize % align.max(4), 0);
        }
    }

    #[test]
    fn oversized_object_is_rejected() {
        assert!(matches!(
            BlockLayout::rows(BLOCK_SIZE, 8),
            Err(MemError::ObjectTooLarge { .. })
        ));
    }

    #[test]
    fn hundredish_lineitem_objects_per_block() {
        // A lineitem-like 14-field row is ~150 bytes; the paper's examples
        // assume blocks hosting on the order of a hundred objects (§3.5).
        let l = BlockLayout::rows(152, 16).unwrap();
        assert!(l.capacity >= 100, "capacity {}", l.capacity);
    }

    #[test]
    fn allocate_and_access_slots() {
        let layout = BlockLayout::rows_of::<u64>().unwrap();
        let b = BlockRef::allocate(&layout, type_id_of::<u64>(), 7).unwrap();
        assert_eq!(b.header().context_id, 7);
        assert_eq!(b.header().capacity, layout.capacity);
        // Zeroed block: all slots free, all incarnations zero.
        for slot in [0, 1, layout.capacity - 1] {
            assert_eq!(b.slot_word(slot).state(), SlotState::Free);
            assert_eq!(b.slot_inc(slot).load(Ordering::Relaxed), 0);
        }
        // Write/read an object.
        unsafe { b.obj_ptr(3).cast::<u64>().write(0xfeed) };
        assert_eq!(unsafe { b.obj_ptr(3).cast::<u64>().read() }, 0xfeed);
        // Slot recovery from object pointer.
        assert_eq!(unsafe { b.slot_of_obj_ptr(b.obj_ptr(3)) }, 3);
        unsafe { b.deallocate() };
    }

    #[test]
    fn header_recovered_from_interior_pointer() {
        let layout = BlockLayout::rows_of::<[u8; 100]>().unwrap();
        let b = BlockRef::allocate(&layout, 1, 2).unwrap();
        let p = b.obj_ptr(layout.capacity - 1);
        let b2 = unsafe { BlockRef::from_interior_ptr(p) };
        assert_eq!(b, b2);
        assert_eq!(b2.header().block_id, b.header().block_id);
        unsafe { b.deallocate() };
    }

    #[test]
    fn block_ids_are_unique() {
        let layout = BlockLayout::rows_of::<u32>().unwrap();
        let a = BlockRef::allocate(&layout, 1, 1).unwrap();
        let b = BlockRef::allocate(&layout, 1, 1).unwrap();
        assert_ne!(a.header().block_id, b.header().block_id);
        unsafe {
            a.deallocate();
            b.deallocate();
        }
    }

    #[test]
    fn slots_do_not_overlap() {
        let layout = BlockLayout::rows_of::<[u64; 3]>().unwrap();
        let b = BlockRef::allocate(&layout, 1, 1).unwrap();
        let cap = layout.capacity;
        for slot in 0..cap {
            unsafe { b.obj_ptr(slot).cast::<[u64; 3]>().write([slot as u64; 3]) };
            b.slot_inc(slot).store(slot, Ordering::Relaxed);
        }
        for slot in 0..cap {
            assert_eq!(
                unsafe { b.obj_ptr(slot).cast::<[u64; 3]>().read() },
                [slot as u64; 3]
            );
            assert_eq!(b.slot_inc(slot).load(Ordering::Relaxed), slot);
        }
        unsafe { b.deallocate() };
    }

    #[test]
    fn reuse_preserves_incarnations_but_resets_state() {
        let layout = BlockLayout::rows_of::<u64>().unwrap();
        let b = BlockRef::allocate(&layout, 1, 1).unwrap();
        b.slot_word(0).set_valid();
        b.slot_inc(0).bump();
        assert!(b
            .slot_inc(0)
            .try_set_flag(1, crate::incarnation::FLAG_FORWARD));
        b.header().valid_count.store(1, Ordering::Relaxed);
        b.header().in_reclaim_queue.store(1, Ordering::Relaxed);
        let base = unsafe { b.retire() }.into_base();
        let b = unsafe { BlockRef::reuse_at(base, &layout, 1, 1, 0) };
        assert_eq!(b.slot_word(0).state(), SlotState::Free);
        assert_eq!(b.slot_inc(0).incarnation(), 1, "incarnation survives reuse");
        assert_eq!(
            b.slot_inc(0).load(Ordering::Relaxed) & crate::incarnation::FLAG_MASK,
            0,
            "flags reset"
        );
        assert_eq!(b.header().valid_count.load(Ordering::Relaxed), 0);
        assert_eq!(b.header().in_reclaim_queue.load(Ordering::Relaxed), 0);
        unsafe { b.deallocate() };
    }

    #[test]
    fn columnar_layout_has_no_stride() {
        let l = BlockLayout::columnar(&[8, 16]).unwrap();
        assert_eq!(l.slot_stride, 0);
        assert!(l.capacity > 0);
    }

    #[test]
    fn columnar_cells_are_aligned_and_disjoint() {
        let widths = [8, 16, 4, 1, 2];
        let l = BlockLayout::columnar(&widths).unwrap();
        let cap = l.capacity as usize;
        let mut end = 4 * cap; // the incarnation column
        for (i, &w) in widths.iter().enumerate() {
            assert_eq!(l.columns.width(i), w);
            let start = l.columns.offset(i);
            assert!(start >= end, "column {i} overlaps its predecessor");
            assert_eq!((l.store_offset as usize + start) % w.clamp(4, 16), 0);
            end = start + w * cap;
        }
        assert!(end <= l.store_len as usize, "columns overrun the store");
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn columnar_width_must_be_a_power_of_two() {
        let _ = BlockLayout::columnar(&[8, 12]);
    }

    #[test]
    fn copy_object_moves_every_cell() {
        let l = BlockLayout::columnar(&[8, 4]).unwrap();
        let (a, b) = (
            BlockRef::allocate(&l, 1, 1).unwrap(),
            BlockRef::allocate(&l, 1, 1).unwrap(),
        );
        let cell = |blk: BlockRef, i: usize, slot: usize| unsafe {
            blk.store_base()
                .add(l.columns.offset(i) + slot * l.columns.width(i))
        };
        unsafe {
            cell(a, 0, 5).cast::<u64>().write(0xfeed_f00d);
            cell(a, 1, 5).cast::<u32>().write(42);
            l.copy_object(a, 5, b, 9);
            assert_eq!(cell(b, 0, 9).cast::<u64>().read(), 0xfeed_f00d);
            assert_eq!(cell(b, 1, 9).cast::<u32>().read(), 42);
            a.deallocate();
            b.deallocate();
        }
    }

    #[test]
    fn occupancy_and_limbo_fractions() {
        let layout = BlockLayout::rows_of::<u64>().unwrap();
        let b = BlockRef::allocate(&layout, 1, 1).unwrap();
        let cap = b.header().capacity;
        b.header().valid_count.store(cap / 2, Ordering::Relaxed);
        b.header().limbo_count.store(cap / 4, Ordering::Relaxed);
        assert!((b.occupancy() - 0.5).abs() < 0.01);
        assert!((b.limbo_fraction() - 0.25).abs() < 0.01);
        unsafe { b.deallocate() };
    }
}
