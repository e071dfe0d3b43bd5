//! The self-managed collection type (§2, §4).
//!
//! An [`Smc<T>`] owns its contained objects: objects are created by
//! [`Smc::add`] and their lifetime ends with [`Smc::remove`] — the
//! database-table-inspired containment semantics of §2. Every object lives
//! in the collection's private [`MemoryContext`]; `Add` and `Remove` map
//! directly onto the memory manager's `alloc` and `free` (§4).
//!
//! Enumeration follows the paper's compiled-query pattern: iterate the
//! blocks of the collection's memory context, skip dead slots via the slot
//! directory, and touch object data only for valid slots (§4's generated
//! code listing). Enumeration honors the §5.2 compaction-group protocol:
//! groups are read either entirely in their pre-relocation state (holding
//! the group's query counter) or entirely post-relocation (helping the move
//! first).
//!
//! # Isolation
//!
//! Objects concurrently removed during an enumeration may or may not be
//! included, and in-place updates may be observed partially — "smcs use a
//! lower isolation level than database systems, in line with other managed
//! collections" (§4). APIs that expose shared borrows document this.

use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use smc_memory::block::{type_id_of, BlockRef, ValidSlots};
use smc_memory::context::{
    Allocation, CompactionReport, ContextConfig, Membership, MemoryContext, UnitRead,
};
use smc_memory::error::MemError;
use smc_memory::inspect::HeapSnapshot;
use smc_memory::runtime::Runtime;
use smc_memory::slot::SlotId;
use smc_memory::spill::SpilledPages;
use smc_memory::stats::MemoryStats;
use smc_memory::tabular::Tabular;
use smc_memory::verify::VerifyReport;
use smc_memory::{EntryRef, Guard};

use crate::refs::{DirectRef, Ref};

/// How a collection stores objects in its blocks (§4.1): [`Rows`], one
/// object per slot, or [`Columns`](crate::Columns), parallel column arrays.
/// The layout is a zero-sized type parameter of [`Smc`] and [`Ref`], so
/// which accesses a reference allows is decided at compile time: only a
/// row reference hands out `&T`. Sealed.
pub trait Layout<T: Tabular>: sealed::Store<T> {}

/// The row layout (§3.2): each slot holds one whole object, which
/// references may borrow in place. The default layout.
pub enum Rows {}

impl<T: Tabular> Layout<T> for Rows {}

/// The per-layout halves of [`Smc`]'s shared methods.
pub(crate) mod sealed {
    use super::*;

    pub trait Store<T: Tabular>: Sized + 'static {
        /// Builds the collection's memory context.
        fn context(runtime: &Arc<Runtime>, config: ContextConfig) -> MemoryContext;

        /// Writes `value` into `slot` of `block`.
        ///
        /// # Safety
        /// The context claimed the slot exclusively for the caller, and it
        /// is not yet published as valid.
        unsafe fn write(ctx: &MemoryContext, block: &BlockRef, slot: SlotId, value: T);

        /// Reads a copy of the referenced object.
        fn read(c: &Smc<T, Self>, r: Ref<T, Self>, guard: &Guard<'_>) -> Option<T>;

        /// Applies `f` to every live object; returns how many it visited.
        fn for_each(c: &Smc<T, Self>, guard: &Guard<'_>, f: impl FnMut(&T)) -> u64;
    }
}

impl<T: Tabular> sealed::Store<T> for Rows {
    fn context(runtime: &Arc<Runtime>, config: ContextConfig) -> MemoryContext {
        MemoryContext::new_rows(
            runtime.clone(),
            std::mem::size_of::<T>(),
            std::mem::align_of::<T>(),
            type_id_of::<T>(),
            config,
        )
        .expect("object type too large for a memory block")
    }

    #[inline]
    unsafe fn write(_: &MemoryContext, block: &BlockRef, slot: SlotId, value: T) {
        block.obj_ptr(slot).cast::<T>().write(value)
    }

    #[inline]
    fn read(_: &Smc<T>, r: Ref<T>, guard: &Guard<'_>) -> Option<T> {
        r.read(guard)
    }

    #[inline]
    fn for_each(c: &Smc<T>, guard: &Guard<'_>, f: impl FnMut(&T)) -> u64 {
        c.try_for_each(guard, f).expect("spilled page unreadable")
    }
}

/// A self-managed collection of tabular objects, stored in layout `L`.
///
/// Cloning the handle is cheap and shares the underlying collection.
pub struct Smc<T: Tabular, L = Rows> {
    ctx: Arc<MemoryContext>,
    _marker: PhantomData<fn() -> (T, L)>,
}

impl<T: Tabular, L> Clone for Smc<T, L> {
    fn clone(&self) -> Self {
        Smc {
            ctx: self.ctx.clone(),
            _marker: PhantomData,
        }
    }
}

impl<T: Tabular, L> std::fmt::Debug for Smc<T, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Smc")
            .field("type", &std::any::type_name::<T>())
            .field("layout", &std::any::type_name::<L>())
            .field("len", &self.ctx.live_objects())
            .field("blocks", &self.ctx.block_count())
            .finish()
    }
}

impl<T: Tabular> Smc<T> {
    /// Creates a collection backed by `runtime` with default configuration.
    pub fn new(runtime: &Arc<Runtime>) -> Smc<T> {
        Self::with_config(runtime, ContextConfig::default())
    }

    /// Creates a collection with explicit tunables (reclamation threshold,
    /// compaction occupancy — the Fig 6 knobs).
    pub fn with_config(runtime: &Arc<Runtime>, config: ContextConfig) -> Smc<T> {
        Self::with_layout(runtime, config)
    }
}

impl<T: Tabular, L: Layout<T>> Smc<T, L> {
    pub(crate) fn with_layout(runtime: &Arc<Runtime>, config: ContextConfig) -> Smc<T, L> {
        Smc {
            ctx: Arc::new(L::context(runtime, config)),
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

    /// Inserts an object: allocates a slot in the collection's context,
    /// writes the value, and returns a checked reference — the paper's
    /// `persons.Add("Adam", 27)` (§2).
    pub fn add(&self, value: T) -> Ref<T, L> {
        self.try_add(value).expect("allocation failed")
    }

    /// Fallible [`add`](Self::add).
    pub fn try_add(&self, value: T) -> Result<Ref<T, L>, MemError> {
        let Allocation {
            entry, entry_inc, ..
        } = self.ctx.alloc_with(|block, slot| {
            // SAFETY: the context claimed this slot exclusively for us; the
            // write happens before the slot is published as Valid.
            unsafe { L::write(&self.ctx, block, slot, value) };
        })?;
        Ok(Ref::from_parts(entry, entry_inc))
    }

    /// Removes the referenced object. All references to it become null
    /// (dereference to `None`) from this point on (§2). Returns false if it
    /// was already removed.
    pub fn remove(&self, r: Ref<T, L>) -> bool {
        self.try_remove(r).expect("thread registry full")
    }

    /// Fallible [`remove`](Self::remove): surfaces
    /// [`MemError::TooManyThreads`] instead of panicking when the calling
    /// thread cannot claim an epoch slot.
    pub fn try_remove(&self, r: Ref<T, L>) -> Result<bool, MemError> {
        match r.entry() {
            Some(entry) => self.ctx.try_free(entry, r.incarnation()),
            None => Ok(false),
        }
    }

    /// Reads a copy of the referenced object (`None` if removed).
    pub fn read(&self, r: Ref<T, L>, guard: &Guard<'_>) -> Option<T> {
        L::read(self, r, guard)
    }

    /// Applies `f` to every live object — the collection's compiled-query
    /// enumeration loop (§4): block by block, skipping dead slots through
    /// the slot directory, never materializing references.
    ///
    /// When a row collection has a spill store attached
    /// ([`enable_spill`](Smc::enable_spill)), spilled pages are scanned
    /// *in place* — objects are read out of the page images without
    /// promoting them back into memory, so a scan does not thrash the
    /// working set it displaced. Panics if a spilled page cannot be read;
    /// use [`try_for_each`](Smc::try_for_each) where that must be an error.
    ///
    /// Returns the number of objects visited.
    pub fn for_each(&self, guard: &Guard<'_>, f: impl FnMut(&T)) -> u64 {
        L::for_each(self, guard, f)
    }

    /// Number of live objects.
    pub fn len(&self) -> u64 {
        self.ctx.live_objects()
    }

    /// True if no live objects remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total off-heap bytes held by the collection's blocks.
    pub fn memory_bytes(&self) -> usize {
        self.ctx.bytes()
    }

    // ------------------------------------------------------------------
    // Compaction (§5) and maintenance
    // ------------------------------------------------------------------

    /// Runs one compaction pass over this collection's blocks (§5). After
    /// compacting, rewrite direct pointers held by referencing collections
    /// ([`fix_direct_refs`](Smc::fix_direct_refs)) and then call
    /// [`release_retired`](Self::release_retired). Panics if the calling
    /// thread cannot claim an epoch slot, as [`add`](Self::add) does; use
    /// [`try_compact`](Self::try_compact) where that must be an error.
    pub fn compact(&self) -> CompactionReport {
        self.ctx.compact()
    }

    /// Fallible [`compact`](Self::compact): `Err(MemError::TooManyThreads)`
    /// when the calling thread cannot claim an epoch slot, and so no pass
    /// ran.
    pub fn try_compact(&self) -> Result<CompactionReport, MemError> {
        self.ctx.try_compact()
    }

    /// Returns retired (emptied) blocks to the OS once direct pointers have
    /// been fixed up. Tombstones inside them stay readable until then.
    pub fn release_retired(&self) {
        self.ctx.release_retired()
    }

    /// Hands this collection's maintenance to a background
    /// [`Coordinator`](smc_maint::Coordinator): the coordinator plans and
    /// runs compaction passes for it under `policy`, instead of the
    /// application calling [`compact`](Self::compact) by hand.
    pub fn register_maintenance(
        &self,
        coordinator: &smc_maint::Coordinator,
        policy: smc_maint::MaintPolicy,
    ) {
        coordinator.register(self.ctx.clone(), policy);
    }

    /// Validates the collection's structural invariants (block headers, slot
    /// directories, indirection back-pointers, incarnation flags) and
    /// cross-checks the recount against [`len`](Self::len). Requires
    /// quiescence: no concurrent mutators or in-flight compaction. See
    /// [`MemoryContext::verify`].
    pub fn verify(&self) -> Result<VerifyReport, Vec<String>> {
        let report = self.ctx.verify()?;
        let len = self.len();
        if report.valid_slots + report.spilled_slots != len {
            return Err(vec![format!(
                "recounted {} valid + {} spilled slots but collection len() is {len}",
                report.valid_slots, report.spilled_slots
            )]);
        }
        Ok(report)
    }

    /// Captures a lock-free observatory snapshot of this collection's heap
    /// (per-block occupancy, limbo dead space, holes, incarnation churn,
    /// indirection load, epoch lag). Unlike [`verify`](Self::verify) it does
    /// **not** require quiescence — it pins an epoch guard and tolerates
    /// concurrent mutation and relocation; see
    /// [`smc_memory::inspect`] for the consistency model.
    pub fn heap_snapshot(&self) -> HeapSnapshot {
        HeapSnapshot::capture(self.runtime(), &[&self.ctx])
    }
}

/// Row-only operations: those that borrow an object in place, spill, or
/// fix up direct pointers.
impl<T: Tabular> Smc<T> {
    /// Attaches a page store and enables the larger-than-memory tier: under
    /// budget pressure the collection evicts cold blocks to the store, and
    /// touching an evicted object faults its page back in transparently.
    /// Returns true: only the columnar layout cannot spill yet.
    pub fn enable_spill(&self, store: Arc<dyn smc_memory::PageStore>) -> bool {
        self.ctx.enable_spill(store)
    }

    /// Blocks currently evicted to the page store.
    pub fn spilled_blocks(&self) -> u64 {
        self.ctx.spilled_blocks()
    }

    /// Live objects resident only in spilled pages (counted in
    /// [`len`](Self::len)).
    pub fn spilled_objects(&self) -> u64 {
        self.ctx.spilled_objects()
    }

    /// Mutates the referenced object in place.
    ///
    /// This is the §7 "compiled unsafe C#" capability: operating on object
    /// fields through pointers, possible only because the collection — not a
    /// moving garbage collector — owns the memory. Concurrent readers may
    /// observe the update partially (the collection's documented isolation
    /// level, §4).
    pub fn update<R>(
        &self,
        r: Ref<T>,
        guard: &Guard<'_>,
        f: impl FnOnce(&mut T) -> R,
    ) -> Option<R> {
        let ptr = r.get_ptr(guard)?;
        // SAFETY: the object is alive for the guard's critical section; the
        // collection's isolation level permits racy field updates (§4).
        Some(f(unsafe { &mut *ptr }))
    }

    /// Fallible [`for_each`](Self::for_each):
    /// `Err(MemError::SpillFault)` when a spilled page cannot be read back
    /// (the scan stops — fail closed, no partial page is surfaced).
    pub fn try_for_each(&self, guard: &Guard<'_>, mut f: impl FnMut(&T)) -> Result<u64, MemError> {
        let mut n = 0;
        // Spilled pages first: the page list and the membership snapshot
        // are taken together, so a page faulted in mid-scan cannot be seen
        // twice (as page *and* block) or missed entirely. No lock is held
        // while `f` runs: it may follow `Ref`s into spilled pages or scan
        // another collection.
        let m = self
            .ctx
            .scan_spilled_then_snapshot(&mut |_entry_addr, _inc, obj| {
                // SAFETY: the callback's pointer addresses `size_of::<T>()`
                // bytes of a decoded page record of this typed context.
                f(unsafe { &*obj.cast::<T>() });
                n += 1;
            })?;
        // The callback above took the address of `f`; the resident loop runs
        // on a moved `f` that nothing else can reach, which is what lets the
        // optimizer keep the closure's captures in registers across objects.
        let mut f = f;
        m.for_each_block(guard, &self.ctx.runtime().stats, |block| {
            n += block.valid_slots().fold(0, |seen, slot| {
                // SAFETY: valid slot in a pinned critical section.
                f(unsafe { &*block.obj_ptr(slot).cast::<T>() });
                seen + 1
            });
        });
        Ok(n)
    }

    /// Like [`for_each`](Self::for_each) but also hands out the checked
    /// reference of each object (built from the slot's back-pointer, exactly
    /// as the paper's generated code yields `ObjRef`s, §4). Spilled objects
    /// yield working references too — dereferencing one faults its page in,
    /// also from inside `f`, which runs with no lock held. A spilled record
    /// freed after the scan listed its page is still visited, from the
    /// scan's copy of the page, but its reference carries the incarnation
    /// the record was spilled at and so resolves to nothing.
    /// Panics if a spilled page cannot be read.
    pub fn for_each_ref(&self, guard: &Guard<'_>, mut f: impl FnMut(Ref<T>, &T)) -> u64 {
        let mut n = 0;
        let mut each = |r: Ref<T>, obj: *const u8| {
            // SAFETY: `obj` addresses a `T` of this collection.
            f(r, unsafe { &*obj.cast::<T>() });
            n += 1;
        };
        let m = self
            .ctx
            .scan_spilled_then_snapshot(&mut |entry_addr, inc, obj| {
                // SAFETY: `entry_addr` is the entry that owned the record
                // when its page was spilled, in the runtime's address-stable
                // entry table.
                let entry = unsafe { EntryRef::from_addr(entry_addr) };
                each(Ref::from_parts(entry, inc), obj)
            })
            .expect("spilled page unreadable");
        m.for_each_block(guard, &self.ctx.runtime().stats, |block| {
            block.valid_slots().for_each(|slot| {
                let back = block.back_ptr(slot).load(Ordering::Acquire);
                if back != 0 {
                    // SAFETY: a valid slot's back-pointer is its live entry.
                    each(unsafe { ref_of_entry(back) }, block.obj_ptr(slot));
                }
            });
        });
        n
    }

    /// Lazily iterates `(Ref<T>, T)` pairs, each object copied out, in
    /// [`for_each_ref`](Self::for_each_ref)'s order: spilled pages first,
    /// read one at a time and without promoting them, then the resident
    /// blocks of the membership snapshot taken with the page listing.
    /// Prefer [`for_each`](Smc::for_each) in performance-critical query
    /// code; the pull iterator exists for ergonomic composition. It yields
    /// copies because a spilled record lives only in a page buffer while its
    /// page is read, and no borrow of that buffer may cross `next`. Panics
    /// if a spilled page cannot be read.
    pub fn iter<'g, 'e>(&'g self, guard: &'g Guard<'e>) -> Iter<'g, 'e, T> {
        let (spilled, membership) = self.ctx.spilled_scan();
        Iter {
            guard,
            stats: &self.ctx.runtime().stats,
            spilled,
            page: Vec::new().into_iter(),
            membership,
            next_unit: 0,
            unit: None,
            slots: None,
            capacity: self.ctx.layout().capacity as usize,
            _marker: PhantomData,
        }
    }

    // ------------------------------------------------------------------
    // Direct-pointer fix-up (§6)
    // ------------------------------------------------------------------

    /// The §6 fix-up scan, run on a *referencing* collection after a
    /// *referenced* collection was compacted: for every live object, probe
    /// whether the direct pointer selected by `field` points into a retired
    /// block (hash-set probe on the block base address — "instead of
    /// following a direct pointer to see if the forwarding flag is set, we
    /// first compute the address of the corresponding block \[and\] probe it
    /// in the hash table"), and if so chase the tombstone and rewrite it.
    pub fn fix_direct_refs<U: Tabular>(
        &self,
        report: &CompactionReport,
        guard: &Guard<'_>,
        field: impl Fn(&mut T) -> &mut DirectRef<U>,
    ) -> u64 {
        if report.retired_bases.is_empty() {
            return 0;
        }
        let retired: std::collections::HashSet<usize> =
            report.retired_bases.iter().copied().collect();
        let mut fixed = 0;
        let stats = &self.ctx.runtime().stats;
        let m = self.ctx.membership_snapshot();
        m.for_each_block(guard, stats, |block| {
            for slot in block.valid_slots() {
                // SAFETY: valid slot, pinned critical section; field updates
                // race benignly under the collection's isolation level.
                let obj = unsafe { &mut *block.obj_ptr(slot).cast::<T>() };
                let dref = field(obj);
                let base = dref.addr() & !(smc_memory::BLOCK_SIZE - 1);
                if retired.contains(&base) && dref.get_healing(guard).is_some() {
                    fixed += 1;
                }
            }
        });
        MemoryStats::add(&stats.direct_pointers_fixed, fixed);
        fixed
    }
}

/// Rebuilds the checked reference held by the indirection entry at `addr`.
///
/// # Safety
/// `addr` must be the address of a live indirection entry of a `T` object.
unsafe fn ref_of_entry<T: Tabular>(addr: usize) -> Ref<T> {
    let entry = EntryRef::from_addr(addr);
    Ref::from_parts(entry, entry.get().inc().incarnation())
}

/// Pull iterator over `(Ref<T>, T)`: the spilled pages, then the same unit
/// walk as [`Smc::for_each`], suspended between items.
pub struct Iter<'g, 'e, T: Tabular> {
    guard: &'g Guard<'e>,
    stats: &'g MemoryStats,
    /// The spilled pages not read yet.
    spilled: SpilledPages<'g>,
    /// The records of the page read last, copied out, not yielded yet.
    page: std::vec::IntoIter<(Ref<T>, T)>,
    /// The resident half, snapshotted with the page listing.
    membership: Membership,
    /// Next unit of `membership` to open.
    next_unit: usize,
    /// The open unit — for a group, its §5.2 reader, whose pre-state pin (if
    /// any) lasts until the unit is drained or the iterator dropped — and
    /// the index of its next block.
    unit: Option<(UnitRead, usize)>,
    /// The walk over the current block.
    slots: Option<ValidSlots>,
    /// Slots per block (constant for the collection's layout).
    capacity: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Tabular> Iter<'_, '_, T> {
    /// Copies the records of the next spilled page into `page`.
    fn read_page(&mut self) {
        let mut records = Vec::new();
        let mut copy = |entry_addr: usize, inc: u32, obj: *const u8| {
            // SAFETY: `entry_addr` is the entry that owned the record when
            // its page was spilled, in the runtime's address-stable table,
            // and `obj` addresses an aligned `T` for the call.
            let entry = unsafe { EntryRef::from_addr(entry_addr) };
            records.push((Ref::from_parts(entry, inc), unsafe {
                obj.cast::<T>().read()
            }));
        };
        (self.spilled.next_page(&mut copy)).expect("spilled page unreadable");
        self.page = records.into_iter();
    }
}

impl<'g, 'e, T: Tabular> Iterator for Iter<'g, 'e, T> {
    type Item = (Ref<T>, T);

    fn next(&mut self) -> Option<Self::Item> {
        // The spilled pages first, one at a time, as `for_each` reads them.
        while self.page.len() == 0 && self.spilled.pages_left() > 0 {
            self.read_page();
        }
        if let Some(record) = self.page.next() {
            return Some(record);
        }
        loop {
            if let Some(slots) = &mut self.slots {
                let block = slots.block();
                for slot in slots {
                    let back = block.back_ptr(slot).load(Ordering::Acquire);
                    if back != 0 {
                        // SAFETY: valid slot in the guard's critical
                        // section; `back` is its live indirection entry.
                        return Some(unsafe {
                            (ref_of_entry(back), block.obj_ptr(slot).cast::<T>().read())
                        });
                    }
                }
                self.slots = None;
            }
            if let Some((unit, k)) = &mut self.unit {
                if let Some(block) = unit.blocks().nth(*k) {
                    *k += 1;
                    self.slots = Some(block.valid_slots());
                    continue;
                }
                self.unit = None;
            }
            if self.next_unit == self.membership.units() {
                return None;
            }
            let m = &self.membership;
            self.unit = Some((m.read_unit(self.next_unit, self.guard, self.stats), 0));
            self.next_unit += 1;
        }
    }

    /// Lower bound 0, upper bound the remaining slot *capacity* (a page
    /// not read yet counts a block's).
    ///
    /// The lower bound must stay 0 and the iterator cannot be
    /// `ExactSizeIterator`: other threads may remove objects (or the
    /// iterator may skip limbo slots) at any point, so any count derived
    /// from `len()` could overstate what `next` will actually yield. The
    /// capacity bound, by contrast, is exact arithmetic over the snapshot:
    /// a block never yields more items than it has slots.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let slots = self
            .slots
            .as_ref()
            .map_or(0, |s| s.size_hint().1.unwrap_or(self.capacity));
        let open = self
            .unit
            .as_ref()
            .map_or(0, |(u, k)| u.blocks().count() - k);
        let m = &self.membership;
        // Unopened units: a block each, or — worst case, the group is read
        // post-state — dest plus sources.
        let plain = m.blocks.len().saturating_sub(self.next_unit);
        let opened_groups = self.next_unit.saturating_sub(m.blocks.len());
        let grouped: usize = m.groups[opened_groups..]
            .iter()
            .map(|g| g.sources.len() + 1)
            .sum();
        let spilled = self.page.len() + self.spilled.pages_left() * self.capacity;
        (
            0,
            Some(spilled + slots + (open + plain + grouped) * self.capacity),
        )
    }
}
