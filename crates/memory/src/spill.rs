//! Block spill and fault-in — the residency layer of the persistence tier.
//!
//! A context with a byte budget smaller than its dataset can *spill* cold
//! blocks to a [`PageStore`] (a heapfile, see `smc-persist`) and *fault*
//! them back in on first touch. Spilling is a rung of the context's budget
//! gate: when the gate would reject a fresh block, the allocator first
//! tries to evict one resident block to the store, which frees exactly the
//! footprint the fresh block needs.
//!
//! ## How a spilled object stays reachable
//!
//! The indirection table is the paper's one level of indirection (§3.2), and
//! spill rides it. Row payloads are always 4-byte aligned (`BlockLayout`
//! guarantees stride and object offset are multiples of 4), so bit 0 of an
//! entry payload is free. A spilled object's entry keeps its incarnation —
//! references stay valid — but its payload becomes a *tagged stub pointer*:
//! `Box<SpillStub> | SPILL_TAG`. Dereference (`Ref::resolve` in
//! `smc-core`) sees the tag, calls [`fault_in_tagged`], and retries; free
//! ([`MemoryContext::try_free`]) does the same. The stub carries a weak
//! context handle plus the spilled block id, which is all a bare entry
//! payload needs to find its way home.
//!
//! Fault-in loads the page, verifies its checksum (failing **closed** with
//! [`crate::error::MemError::SpillFault`] on any corruption — a torn page never becomes a
//! partial heap), copies every record into a block of its own and repoints
//! the entries. Stubs are freed through the runtime's graveyard: a reader
//! pinned at epoch `e` may still dereference a stub it loaded before the
//! fault-in, so the box is buried until `e + 2`, exactly like a block.
//!
//! ## One claim per block
//!
//! A spill claims its victim as compaction claims a source, then marks the
//! claim `SPILLING` in the block's `compacting` word and fences. From
//! then on nothing else writes the victim's live entries or slot words:
//! movers never claim a claimed block, and a free whose object's home block
//! carries the mark unlocks and steps aside until the spill is done. A free
//! that locked its entry *before* the mark is the one exception, so the tag
//! pass waits for each entry's lock bit to clear and then takes only slots
//! still `Valid` whose entry still points home. Each object then costs a
//! plain store to its slot counter and a release store of the tag, and no
//! entry lock or read-modify-write. The mark and the free's check form a
//! store-then-load pair behind two `SeqCst` fences, so at least one side
//! sees the other. A failed store puts the payloads back with plain stores
//! while the claim still holds.
//!
//! ## One copy each way, and victims that ripen
//!
//! A spill copies each object from its slot straight into the one page
//! buffer the context owns and hands the sealed page to the store; a
//! fault-in loads into the same buffer, verifies it in place and copies each
//! object once, buffer to slot. What a page looks like is [`crate::page`]'s
//! business alone; which entry owns record *i*, and at which incarnation,
//! is the page directory's (`SpilledPage::entries[i]`). Both bury what they
//! displace — the victim block, the stub — two epochs out, and nothing but
//! the memory manager moves the epoch (§3.4), so both call
//! `Runtime::advance_and_drain`: the allocation path after a successful
//! spill, [`MemoryContext::fault_in_block`] on entry. A load, or a run of
//! reads each under its own pin, therefore gets the victim of two spills ago
//! back through the shard cache instead of a first-touched block from the
//! OS. A reader that *stays* pinned across many faults still blocks the
//! advance, and its victims wait until it unpins.
//!
//! ## Scans
//!
//! Enumerations must not thrash: a scan over a larger-than-budget dataset
//! would otherwise fault every page back in and spill another to make room.
//! `Smc::for_each` therefore reads spilled pages *first*, into a read buffer
//! of its own, without promoting them to residency. Under the spill mutex it
//! takes the page list and the membership snapshot together, so a page and
//! its resident reincarnation are never both visited, and then lets the
//! mutex go: a scan sees the directory as it stood, never a half state. Its
//! `visit` holds no lock, so a fault-in, a free, a spill or another scan
//! from inside it takes the ordinary path. The directory shares each page by
//! `Arc`, and the store's ticket is discarded when the last holder drops it,
//! so a page stays readable while a scan's list holds it, even after it
//! faults back in. The scan names each record by the incarnation its entry
//! had at spill time, so a record freed mid-walk yields a dead reference.
//!
//! [`MemoryContext::try_free`]: crate::context::MemoryContext::try_free

use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};

use crate::block::BlockRef;
use crate::context::{Membership, MemoryContext};
use crate::error::MemError;
use crate::fault::FaultSite;
use crate::indirection::EntryRef;
use crate::page::PageWriter;
use crate::runtime::Grave;
use crate::slot::{SlotId, SlotState};
use crate::stats::MemoryStats;
use smc_util::mutation::{self, Mutation};
use smc_util::sync::{fence, yield_point};

/// Bit 0 of an indirection-entry payload marks a spilled object. Row object
/// pointers are always 4-byte aligned (see `BlockLayout::rows`), so the bit
/// is never set on a resident payload.
pub const SPILL_TAG: usize = 1;

/// True when an entry payload is a tagged `SpillStub` pointer rather than
/// a resident object address.
#[inline]
pub fn is_spill_tagged(payload: usize) -> bool {
    payload & SPILL_TAG != 0
}

/// An I/O failure reported by a [`PageStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillIoError(pub String);

impl fmt::Display for SpillIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page store error: {}", self.0)
    }
}

impl std::error::Error for SpillIoError {}

/// Backing storage for spilled pages — implemented by `smc-persist`'s
/// heapfile (`SpillFile`) and by [`MemoryPageStore`] for tests.
///
/// To a store a *page* is an opaque byte string ([`crate::page`] says what
/// is in it). `store_page` returns a ticket the context presents to `load_page` and
/// `discard_page`; stores may recycle ticket slots after a discard.
pub trait PageStore: Send + Sync + fmt::Debug {
    /// Persists one page and returns its ticket. Must not return until the
    /// bytes are durably readable back — the context declares the block
    /// spilled (and frees its memory) only after this succeeds.
    fn store_page(&self, block_id: u64, bytes: &[u8]) -> Result<u64, SpillIoError>;

    /// Reads the page behind `ticket` into `out` (replacing its contents).
    fn load_page(&self, ticket: u64, block_id: u64, out: &mut Vec<u8>) -> Result<(), SpillIoError>;

    /// Releases the page behind `ticket`; the ticket may be reused.
    fn discard_page(&self, ticket: u64);
}

/// In-memory [`PageStore`] for tests and benchmarks: pages live in a vector
/// of byte strings, tickets are indices with free-slot recycling.
#[derive(Debug, Default)]
pub struct MemoryPageStore {
    inner: std::sync::Mutex<MemoryPages>,
}

#[derive(Debug, Default)]
struct MemoryPages {
    pages: Vec<Option<(u64, Vec<u8>)>>,
    free: Vec<usize>,
}

impl MemoryPageStore {
    /// An empty store.
    pub fn new() -> MemoryPageStore {
        MemoryPageStore::default()
    }

    /// Number of pages currently stored.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner.pages.iter().filter(|p| p.is_some()).count()
    }

    /// True when no pages are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PageStore for MemoryPageStore {
    fn store_page(&self, block_id: u64, bytes: &[u8]) -> Result<u64, SpillIoError> {
        let mut inner = self.inner.lock().unwrap();
        let page = Some((block_id, bytes.to_vec()));
        match inner.free.pop() {
            Some(i) => {
                inner.pages[i] = page;
                Ok(i as u64)
            }
            None => {
                inner.pages.push(page);
                Ok(inner.pages.len() as u64 - 1)
            }
        }
    }

    fn load_page(&self, ticket: u64, block_id: u64, out: &mut Vec<u8>) -> Result<(), SpillIoError> {
        let inner = self.inner.lock().unwrap();
        match inner.pages.get(ticket as usize).and_then(|p| p.as_ref()) {
            Some((id, bytes)) if *id == block_id => {
                out.clear();
                out.extend_from_slice(bytes);
                Ok(())
            }
            Some(_) => Err(SpillIoError(format!(
                "ticket {ticket} holds a different block"
            ))),
            None => Err(SpillIoError(format!("no page behind ticket {ticket}"))),
        }
    }

    fn discard_page(&self, ticket: u64) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(p) = inner.pages.get_mut(ticket as usize) {
            if p.take().is_some() {
                inner.free.push(ticket as usize);
            }
        }
    }
}

/// What a tagged entry payload points at: enough to route a bare
/// dereference back to its context and spilled block. One stub is shared by
/// every entry of a spilled page; it waits in the runtime's graveyard for
/// two epochs after the page faults back in.
#[derive(Debug)]
pub(crate) struct SpillStub {
    /// The owning context (weak: a stub must not keep a dropped collection
    /// alive; upgrade failure renders the reference null).
    pub(crate) ctx: Weak<MemoryContext>,
    /// The spilled block's id, key into the context's page directory.
    pub(crate) block_id: u64,
}

/// Bookkeeping for one spilled block, shared by the page directory and the
/// scans that listed it. The store's page goes when the last of them drops.
#[derive(Debug)]
pub(crate) struct SpilledPage {
    /// The store that holds the page; the last drop discards it there.
    store: Arc<dyn PageStore>,
    /// The store's handle for the page bytes.
    pub(crate) ticket: u64,
    /// The tagged stub pointer installed in every member entry's payload.
    pub(crate) tag: usize,
    /// The entry that owns each record and its incarnation at spill time,
    /// in page order — the only place that says so: a page holds objects
    /// and nothing about whose they are. A spilled entry's incarnation does
    /// not change (a free faults the page in first), so a scan reading a
    /// page it listed earlier names each record as it was when listed.
    pub(crate) entries: Vec<(usize, u32)>,
}

impl Drop for SpilledPage {
    fn drop(&mut self) {
        self.store.discard_page(self.ticket);
    }
}

/// Per-context spill state, behind one mutex: the store handle, a weak
/// self-reference (stubs need `Weak<MemoryContext>`), the page directory
/// and the one page buffer every spill encodes into and every fault-in
/// loads into.
#[derive(Debug, Default)]
pub(crate) struct SpillState {
    pub(crate) store: Option<Arc<dyn PageStore>>,
    pub(crate) this: Weak<MemoryContext>,
    /// Spilled pages by the id of their (now buried) source block. Ordered,
    /// so a spilled scan reads the store in the order the pages were
    /// written.
    pub(crate) pages: BTreeMap<u64, Arc<SpilledPage>>,
    page_buf: Vec<u8>,
}

// ---------------------------------------------------------------------
// Dereference hook
// ---------------------------------------------------------------------

/// Faults in the block behind a tagged entry payload. Called by `smc-core`'s
/// `Ref::resolve` when it observes [`SPILL_TAG`]; returns true when the
/// caller should re-read the entry payload (the object may now be resident),
/// false when the reference is dead (its collection was dropped), and the
/// fault-in's error when the page cannot be read back (fail closed).
///
/// # Safety contract (checked by construction, not by this signature)
///
/// `payload` must have been loaded from an indirection entry *while the
/// calling thread holds an epoch guard*: stubs are freed through the epoch
/// graveyard, so a pinned reader's stub pointer stays dereferenceable.
pub fn fault_in_tagged(payload: usize) -> Result<bool, MemError> {
    debug_assert!(is_spill_tagged(payload));
    let stub = unsafe { &*((payload & !SPILL_TAG) as *const SpillStub) };
    let Some(ctx) = stub.ctx.upgrade() else {
        return Ok(false); // collection dropped: the reference is null
    };
    ctx.fault_in_block(stub.block_id).map(|_| true)
}

/// One scan's listing of a context's spilled pages
/// ([`MemoryContext::spilled_scan`]), read page by page: the one
/// spilled-scan path, behind `Smc::for_each` and its pull iterator alike.
#[derive(Debug)]
pub struct SpilledPages<'c> {
    ctx: &'c MemoryContext,
    /// The pages still to read, each kept readable by its `Arc` even if it
    /// faults in meanwhile.
    pages: std::vec::IntoIter<(u64, Arc<SpilledPage>)>,
    /// The page read last.
    bytes: Vec<u8>,
    /// Room for an aligned copy of one record.
    scratch: Vec<u8>,
}

impl SpilledPages<'_> {
    /// Reads the next listed page and hands each of its records to `visit`
    /// as `(entry_addr, incarnation, object_ptr)`: the incarnation is the
    /// entry's when the page was spilled, so a record freed after the page
    /// was listed is named by a dead reference; the pointer is aligned for
    /// the object type and valid for the duration of the call. `visit` runs
    /// with no lock held: it may fault pages in, free, allocate, spill and
    /// scan, this context or another. `Ok(false)` once every page was read;
    /// [`MemError::SpillFault`] for a page that cannot be read back.
    pub fn next_page(
        &mut self,
        visit: &mut dyn FnMut(usize, u32, *const u8),
    ) -> Result<bool, MemError> {
        let Some((block_id, page)) = self.pages.next() else {
            return Ok(false);
        };
        // A page read is I/O, where a real scan is likeliest to lose its
        // core: let the checker run another thread here.
        yield_point();
        let ctx = self.ctx;
        // Page records are packed back to back, so a record may sit at an
        // address the object type cannot be read from; such a record is
        // handed to `visit` as an aligned scratch copy.
        let obj_size = ctx.layout.obj_size as usize;
        self.scratch.resize(obj_size + ctx.obj_align, 0);
        let aligned = self.scratch.as_ptr().align_offset(ctx.obj_align);
        let scratch = &mut self.scratch[aligned..aligned + obj_size];
        let records = ctx.read_page(block_id, &page, &mut self.bytes)?;
        for (obj, &(entry_addr, inc)) in records.zip(&page.entries) {
            let obj = if obj.as_ptr().align_offset(ctx.obj_align) == 0 {
                obj.as_ptr()
            } else {
                scratch.copy_from_slice(obj);
                scratch.as_ptr()
            };
            visit(entry_addr, inc, obj);
        }
        Ok(true)
    }

    /// Pages not read yet; each holds at most one block's capacity of
    /// records.
    pub fn pages_left(&self) -> usize {
        self.pages.len()
    }
}

// ---------------------------------------------------------------------
// The residency protocol
// ---------------------------------------------------------------------

/// The `compacting` word of a block under a spill's claim: claimed as
/// [`MemoryContext::claim`] leaves it (1), then marked while the spill tags,
/// copies and stores its objects. A free whose object's home block carries
/// the mark steps aside until the spill is done
/// ([`MemoryContext::try_free`]). `unclaim` resets it when a spill gives the
/// block back; a spilled block keeps it until it is recycled.
pub(crate) const SPILLING: u32 = 2;

impl MemoryContext {
    /// Attaches a page store, enabling the spill rung of the budget gate and
    /// fault-in on dereference. Returns false for columnar contexts (their
    /// entry payloads point into the incarnation column, whose cells the
    /// relocation protocol reads unconditionally — spill tagging is a
    /// row-store feature).
    pub fn enable_spill(self: &Arc<Self>, store: Arc<dyn PageStore>) -> bool {
        if self.layout.is_columnar() {
            return false;
        }
        let mut s = self.spill.lock();
        s.store = Some(store);
        s.this = Arc::downgrade(self);
        true
    }

    /// Blocks currently spilled to the page store.
    pub fn spilled_blocks(&self) -> u64 {
        self.spilled_blocks_gauge.load(Ordering::Relaxed)
    }

    /// Objects currently living in spilled pages.
    pub fn spilled_objects(&self) -> u64 {
        self.spilled_objects_gauge.load(Ordering::Relaxed)
    }

    /// Runs `f` over the spilled-page directory under the spill mutex.
    /// Used by the validator and the persistence tier, which must observe
    /// a page list that cannot race fault-in.
    pub(crate) fn with_spill_pages<R>(
        &self,
        f: impl FnOnce(&BTreeMap<u64, Arc<SpilledPage>>) -> R,
    ) -> R {
        let s = self.spill.lock();
        f(&s.pages)
    }

    /// Evicts one cold resident block to the page store. Returns true when a
    /// block was spilled; false when spill is disabled, no block qualifies,
    /// or the store failed (rolled back).
    pub fn try_spill_one(&self) -> bool {
        self.try_spill_one_locked(&mut self.spill.lock())
    }

    /// Spill body; requires the spill mutex. The victim is claimed the way
    /// compaction claims its candidates, minus the occupancy ceiling — any
    /// resident block with live objects qualifies, coldest-first being
    /// approximated by collection order — and the claim is marked
    /// [`SPILLING`]. Then two passes: the tag pass points each live entry
    /// at the stub and retires its slot's counter, with plain stores and no
    /// entry lock; the copy pass writes the tagged objects into the page.
    /// A failed store puts the payloads back before the claim is released.
    fn try_spill_one_locked(&self, s: &mut SpillState) -> bool {
        let Some(store) = s.store.clone() else {
            return false;
        };
        let live = |b: &BlockRef| b.header().valid_count.load(Ordering::Relaxed) > 0;
        let Some(victim) = self.claim(1, live).pop() else {
            return false;
        };
        // Mark the claim as a spill before reading any entry. A free that
        // locked an entry before the mark is waited out below; one that
        // locks after it sees the mark and steps aside. The fence pairs with
        // the one between `try_free`'s lock and its look at this word (the
        // store-then-load pair of `smc_util::waiter`): one side sees the
        // other.
        victim
            .header()
            .compacting
            .store(SPILLING, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        // Remove the victim from membership before touching entries: scans
        // snapshot membership under this same spill mutex, so no enumeration
        // can miss the block (it is either in their snapshot or in the page
        // list, never neither, never both).
        self.membership.write().blocks.retain(|b| *b != victim);
        let block_id = victim.header().block_id;
        let stub = Box::into_raw(Box::new(SpillStub {
            ctx: s.this.clone(),
            block_id,
        })) as usize;
        let tag = stub | SPILL_TAG;
        let valid = victim.header().valid_count.load(Ordering::Relaxed) as usize;
        // The page directory: the only thing a spill allocates to keep.
        let mut entries: Vec<(usize, u32)> = Vec::with_capacity(valid);
        // Where each came from, for the copy and the rollback.
        let mut slots: Vec<SlotId> = Vec::with_capacity(valid);
        // Tag pass. Under the marked claim nothing else writes the victim's
        // live entries or slot words (movers never claim it, frees step
        // aside), so each object is tagged with plain stores.
        victim.valid_slots().for_each(|slot_id| {
            let back = victim.back_ptr(slot_id).load(Ordering::Acquire);
            if back == 0 {
                return;
            }
            let entry = unsafe { EntryRef::from_addr(back) };
            // A free that locked before the mark finishes here; after it
            // the slot is no longer `Valid` and is not ours to spill.
            entry.get().inc().wait_unlocked();
            let home = victim.payload(slot_id);
            if victim.slot_word(slot_id).state() != SlotState::Valid
                || entry.get().load_payload(Ordering::Acquire) != home
            {
                return;
            }
            // Retire direct pointers into the page — a spilled slot must
            // not satisfy a §6 direct dereference against stale memory.
            victim.payload_inc(slot_id).bump_exclusive();
            entry.get().store_payload(tag, Ordering::Release);
            entries.push((back, entry.get().inc().incarnation()));
            slots.push(slot_id);
        });
        // Both no-progress exits below hand the victim back the same way.
        let give_back = || {
            self.membership.write().blocks.push(victim);
            self.unclaim([victim]);
        };
        if entries.is_empty() {
            // Raced empty: no entry was ever tagged, so no reader can hold
            // the stub and it is freed on the spot.
            drop(unsafe { Box::from_raw(stub as *mut SpillStub) });
            give_back();
            return false;
        }
        // Copy pass: each tagged object goes from its slot straight into the
        // page buffer, once, in slot order.
        let mut page = PageWriter::begin(
            &mut s.page_buf,
            block_id,
            self.layout.obj_size as usize,
            self.layout.capacity as usize,
        );
        for &slot_id in &slots {
            // SAFETY: a tagged object of a block we hold under the claim: a
            // free faults it in first, which waits for the spill mutex.
            unsafe { page.push(victim.obj_ptr(slot_id)) };
        }
        let stored = if self.runtime.faults().should_fail(FaultSite::SpillStore) {
            Err(SpillIoError("injected fault at spill-store".into()))
        } else {
            store.store_page(block_id, page.finish())
        };
        let Ok(ticket) = stored else {
            // Store failed: restore every tagged entry while the claim still
            // holds, then give the block back. A free or fault-in that saw a
            // tag waits for the spill mutex and finds no page.
            for (&(back, _), &slot_id) in entries.iter().zip(&slots) {
                let entry = unsafe { EntryRef::from_addr(back) };
                entry
                    .get()
                    .store_payload(victim.payload(slot_id), Ordering::Release);
            }
            // The tag was published: a pinned reader may have loaded it
            // before the restore and dereferences the stub before it takes
            // any lock. The stub outlives the rollback as it outlives a
            // fault-in.
            self.runtime
                .bury(Grave::Stub(stub), self.runtime.global_epoch() + 2);
            give_back();
            MemoryStats::inc(&self.runtime.stats.spill_fault_failures);
            return false;
        };
        self.spilled_blocks_gauge.fetch_add(1, Ordering::Relaxed);
        self.spilled_objects_gauge
            .fetch_add(entries.len() as u64, Ordering::Relaxed);
        MemoryStats::inc(&self.runtime.stats.blocks_spilled);
        let page = SpilledPage {
            store,
            ticket,
            tag,
            entries,
        };
        s.pages.insert(block_id, Arc::new(page));
        // The victim's slots stay Valid with intact data until burial ripens:
        // a reader that loaded the resident payload just before our tag store
        // reads the old copy safely for two more epochs. (The copy pass runs
        // after the tag pass, so an in-place write through such a payload
        // may miss the page or tear its record — the same isolation caveat
        // as a §5 relocation mid-copy; mutate through `try_update`-style
        // replace, not in place, when spill is enabled.)
        self.runtime
            .bury_block(victim, self.runtime.global_epoch() + 2);
        smc_obs::trace::emit(smc_obs::Event::BlockSpilled {
            context: self.id,
            block_id,
        });
        true
    }

    /// Brings the spilled page `block_id` back to residency. `Ok(true)` when
    /// this call faulted the page in, `Ok(false)` when the page was not
    /// spilled (typically: another thread won the race). Fails closed with
    /// [`MemError::SpillFault`] on any store or integrity failure — the page
    /// stays spilled and the heap intact. A scan that listed the page before
    /// keeps reading it from the store: the ticket goes with the last `Arc`.
    pub fn fault_in_block(&self, block_id: u64) -> Result<bool, MemError> {
        let start = smc_obs::clock::now();
        // What earlier spills and fault-ins buried ripens here: a run of
        // short-pinned reads advances the epoch once per fault, so each
        // victim recycles through the shard cache two faults later. (A
        // caller that stays pinned across many faults blocks the advance,
        // and its victims wait in the graveyard until it unpins.)
        self.runtime.advance_and_drain();
        let mut s = self.spill.lock();
        // Make room first if the budget is hot: faulting one page in while
        // over budget should displace another page, not grow the footprint.
        if let Some(budget) = self.config.budget_bytes {
            if (self.bytes() + crate::block::BLOCK_SIZE) as u64 > budget {
                let _ = self.try_spill_one_locked(&mut s);
            }
        }
        let SpillState {
            pages, page_buf, ..
        } = &mut *s;
        let Entry::Occupied(slot) = pages.entry(block_id) else {
            return Ok(false);
        };
        let records = self.read_page(block_id, slot.get(), page_buf)?;
        // A block of its own, new block id: fault-in is a relocation, not a
        // revival. Allocation skips the `BlockAlloc` failpoint: a read that
        // faults in must fail only when the OS refuses.
        let fresh = self.runtime.hand_out(&self.layout, self.type_id, self.id)?;
        let page = slot.remove();
        let obj_size = self.layout.obj_size as usize;
        let mut live: u32 = 0;
        for (i, (obj, &(entry_addr, _))) in records.zip(&page.entries).enumerate() {
            let slot_id = i as SlotId;
            let entry = unsafe { EntryRef::from_addr(entry_addr) };
            // Object bytes (one copy, page buffer to slot), back pointer and
            // slot state land before the payload repoint publishes the slot
            // to retrying readers.
            unsafe {
                std::ptr::copy_nonoverlapping(obj.as_ptr(), fresh.obj_ptr(slot_id), obj_size)
            };
            fresh.back_ptr(slot_id).store(entry_addr, Ordering::Release);
            fresh.slot_word(slot_id).set_valid();
            if entry.get().load_payload(Ordering::Acquire) == page.tag {
                entry
                    .get()
                    .store_payload(fresh.payload(slot_id), Ordering::Release);
                live += 1;
            } else {
                // Defensive: the entry no longer references this page (it
                // should be impossible — frees fault in first). Unpublish.
                fresh.slot_word(slot_id).reset();
                fresh.back_ptr(slot_id).store(0, Ordering::Release);
            }
        }
        fresh.header().valid_count.store(live, Ordering::Relaxed);
        fresh
            .header()
            .alloc_cursor
            .store(page.entries.len() as SlotId, Ordering::Relaxed);
        self.membership.write().blocks.push(fresh);
        // The stub outlives the repoint by two epochs: a reader pinned now
        // may still hold the tagged payload it loaded before us.
        let stub = Grave::Stub(page.tag & !SPILL_TAG);
        self.runtime.bury(stub, self.runtime.global_epoch() + 2);
        self.spilled_blocks_gauge.fetch_sub(1, Ordering::Relaxed);
        self.spilled_objects_gauge
            .fetch_sub(page.entries.len() as u64, Ordering::Relaxed);
        MemoryStats::inc(&self.runtime.stats.blocks_faulted_in);
        let nanos = smc_obs::clock::now().saturating_sub(start);
        self.runtime.stats.spill_fault_ns.record(nanos);
        smc_obs::trace::emit(smc_obs::Event::BlockFaulted {
            context: self.id,
            block_id,
            nanos,
        });
        Ok(true)
    }

    /// The one verified page read: loads `page` from its store into `bytes`
    /// and decodes it in place, checking checksum, block id, object size and
    /// that the record count matches the page directory. Any failure is
    /// counted in `spill_fault_failures` and fails closed as
    /// [`MemError::SpillFault`].
    fn read_page<'b>(
        &self,
        block_id: u64,
        page: &SpilledPage,
        bytes: &'b mut Vec<u8>,
    ) -> Result<impl ExactSizeIterator<Item = &'b [u8]>, MemError> {
        let loaded = !self.runtime.faults().should_fail(FaultSite::SpillLoad)
            && page.store.load_page(page.ticket, block_id, bytes).is_ok();
        let bytes: &'b [u8] = bytes;
        loaded
            .then(|| crate::page::decode(bytes, block_id, self.layout.obj_size as u64).ok())
            .flatten()
            .filter(|records| records.len() == page.entries.len())
            .ok_or_else(|| {
                MemoryStats::inc(&self.runtime.stats.spill_fault_failures);
                MemError::SpillFault
            })
    }

    /// Streams every spilled record through `visit` *without* promoting
    /// pages to residency, then returns the membership snapshot taken with
    /// the page list — the scan-without-thrashing primitive behind
    /// `Smc::for_each`: [`spilled_scan`](Self::spilled_scan) read to its
    /// end. `visit` receives what [`SpilledPages::next_page`] hands it.
    pub fn scan_spilled_then_snapshot(
        &self,
        visit: &mut dyn FnMut(usize, u32, *const u8),
    ) -> Result<Membership, MemError> {
        let (mut pages, membership) = self.spilled_scan();
        while pages.next_page(visit)? {}
        Ok(membership)
    }

    /// Lists the spilled pages and snapshots membership, both under the
    /// spill mutex, so every object is in exactly one of them: a page
    /// faulted in after it holds a block that is not in the snapshot, and a
    /// block spilled after it keeps its (still live, epoch-protected)
    /// resident copy in the snapshot. The pages are then read one at a
    /// time, with no lock held ([`SpilledPages::next_page`]).
    pub fn spilled_scan(&self) -> (SpilledPages<'_>, Membership) {
        let s = self.spill.lock();
        let pages: Vec<_> = s.pages.iter().map(|(&id, p)| (id, p.clone())).collect();
        if mutation::enabled(Mutation::ScanSnapshotsApart) {
            drop(s);
        }
        let pages = SpilledPages {
            ctx: self,
            pages: pages.into_iter(),
            bytes: Vec::new(),
            scratch: Vec::new(),
        };
        (pages, self.membership_snapshot())
    }

    /// The spilled half of `Drop for MemoryContext`: retires the entries of
    /// every spilled page (stale refs upgrade the stub's weak context handle
    /// and get null), drops the pages, which releases their store pages, and
    /// buries the stubs like any other epoch-protected object.
    pub(crate) fn release_spilled(&mut self, free_at: u64) {
        let s = self.spill.get_mut();
        let mut freed = 0;
        for page in std::mem::take(&mut s.pages).into_values() {
            let entries = page.entries.iter().filter_map(|&(entry_addr, _)| {
                let entry = unsafe { EntryRef::from_addr(entry_addr) };
                (entry.get().load_payload(Ordering::Acquire) == page.tag).then(|| {
                    entry.get().inc().bump_unlocked();
                    entry
                })
            });
            // One lock and one count for the page's entries.
            freed += self.runtime.indirection.release_many(entries);
            self.runtime
                .bury(Grave::Stub(page.tag & !SPILL_TAG), free_at);
        }
        self.runtime.stats.note_dropped_objects(freed);
        self.spilled_blocks_gauge.store(0, Ordering::Relaxed);
        self.spilled_objects_gauge.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::type_id_of;
    use crate::context::tests::{alloc_u64, ctx, ctx_with, read_u64};
    use crate::context::{Allocation, ContextConfig};
    use crate::runtime::Runtime;

    #[test]
    fn memory_store_roundtrip_and_recycling() {
        let store = MemoryPageStore::new();
        let t1 = store.store_page(1, b"page-one").unwrap();
        let t2 = store.store_page(2, b"page-two").unwrap();
        assert_ne!(t1, t2);
        assert_eq!(store.len(), 2);
        let mut buf = Vec::new();
        store.load_page(t1, 1, &mut buf).unwrap();
        assert_eq!(buf, b"page-one");
        // Wrong block id for a ticket is an error.
        assert!(store.load_page(t1, 9, &mut buf).is_err());
        store.discard_page(t1);
        assert!(store.load_page(t1, 1, &mut buf).is_err());
        // Ticket slot is recycled.
        let t3 = store.store_page(3, b"three").unwrap();
        assert_eq!(t3, t1);
        store.discard_page(t2);
        store.discard_page(t3);
        assert!(store.is_empty());
    }

    // ---- the residency protocol ------------------------------------------

    fn spill_ctx(rt: &Arc<Runtime>) -> (Arc<MemoryContext>, Arc<MemoryPageStore>) {
        let c = Arc::new(ctx(rt));
        let store = Arc::new(MemoryPageStore::new());
        assert!(c.enable_spill(store.clone()));
        (c, store)
    }

    /// Arms `rt`'s failpoint registry so the next call at `site` fails, once.
    fn fail_next(rt: &Runtime, site: FaultSite) {
        rt.faults().set_rate(site, crate::fault::RATE_DENOMINATOR);
        rt.faults().set_limit(Some(1));
        rt.faults().enable(0x5b11);
    }

    /// Fills one block and four slots of a second, spills the first (cold)
    /// one and returns its allocations.
    fn fill_two_blocks_and_spill(c: &MemoryContext) -> Vec<Allocation> {
        let cap = c.layout().capacity as usize;
        let mut first: Vec<_> = (0..cap + 4).map(|i| alloc_u64(c, i as u64)).collect();
        first.truncate(cap);
        assert_eq!(c.block_count(), 2);
        assert!(c.try_spill_one(), "a full cold block must be spillable");
        assert_eq!(c.spilled_blocks(), 1);
        assert_eq!(c.spilled_objects(), cap as u64);
        assert_eq!(c.block_count(), 1, "the victim leaves membership");
        first
    }

    #[test]
    fn spill_then_free_faults_the_page_back_in() {
        let rt = Runtime::new();
        let (c, store) = spill_ctx(&rt);
        let first = fill_two_blocks_and_spill(&c);
        assert_eq!(store.len(), 1);
        // live_objects counts spilled objects; verify balances.
        let cap = c.layout().capacity as u64;
        assert_eq!(c.live_objects(), cap + 4);
        let report = c.verify().unwrap();
        assert_eq!(report.spilled_slots, cap);
        assert_eq!(report.valid_slots + report.spilled_slots, cap + 4);
        // Freeing a spilled object transparently faults its page in.
        let victim = &first[3];
        assert!(c.try_free(victim.entry, victim.entry_inc).unwrap());
        assert_eq!(c.spilled_blocks(), 0);
        assert_eq!(c.spilled_objects(), 0);
        assert_eq!(store.len(), 0, "the page ticket is discarded");
        assert_eq!(c.live_objects(), cap + 3);
        assert_eq!(MemoryStats::get(&rt.stats.blocks_spilled), 1);
        assert_eq!(MemoryStats::get(&rt.stats.blocks_faulted_in), 1);
        // The faulted-in copies carry the original values.
        for (i, a) in first.iter().enumerate() {
            if i == 3 {
                continue;
            }
            assert_eq!(
                read_u64(a.entry),
                i as u64,
                "object {i} survives the round trip"
            );
        }
        c.verify().unwrap();
    }

    #[test]
    fn a_spilled_block_is_a_snapshot_page() {
        // "Same bytes" as an executable statement: what the store holds for
        // a spilled block goes through the header-then-decode reader
        // `smc-persist`'s recovery runs over a page file, given nothing but
        // the block's id and the object size.
        use crate::page::{decode, PageHeader, PAGE_HEADER};
        let rt = Runtime::new();
        let (c, store) = spill_ctx(&rt);
        let cap = c.layout().capacity as u64;
        let allocs: Vec<_> = (0..cap + 4).map(|i| alloc_u64(&c, i)).collect();
        let block_id = allocs[0].block.header().block_id;
        assert!(c.try_spill_one());
        let mut bytes = Vec::new();
        store.load_page(0, block_id, &mut bytes).unwrap();
        let header = PageHeader::read(&bytes[..PAGE_HEADER]).unwrap();
        assert_eq!(
            (header.id, header.count, header.obj_size),
            (block_id, cap, 8)
        );
        assert_eq!(header.page_len(), Some(bytes.len()));
        let values: Vec<u64> = decode(&bytes, block_id, 8)
            .unwrap()
            .map(|obj| u64::from_le_bytes(obj.try_into().unwrap()))
            .collect();
        assert_eq!(values, (0..cap).collect::<Vec<_>>());
    }

    #[test]
    fn budget_pressure_spills_instead_of_rejecting() {
        let rt = Runtime::new();
        let config = ContextConfig {
            // One resident block: growth must spill, not reject.
            budget_bytes: Some(crate::block::BLOCK_SIZE as u64),
            ..ContextConfig::default()
        };
        let c = Arc::new(ctx_with(&rt, config));
        let store = Arc::new(MemoryPageStore::new());
        assert!(c.enable_spill(store.clone()));
        let cap = c.layout().capacity as usize;
        // Allocate three blocks' worth under a one-block budget.
        let allocs: Vec<_> = (0..cap * 3).map(|i| alloc_u64(&c, i as u64)).collect();
        assert!(c.spilled_blocks() >= 2, "growth rode the spill rung");
        assert_eq!(c.block_count(), 1, "resident footprint stays at budget");
        assert_eq!(c.live_objects(), (cap * 3) as u64);
        assert_eq!(MemoryStats::get(&rt.stats.context_budget_rejections), 0);
        // Every object — resident or spilled — still reads back (reading a
        // spilled one faults it in, which may spill another block in turn).
        for (i, a) in allocs.iter().enumerate() {
            let payload = loop {
                let p = a.entry.get().load_payload(Ordering::Acquire);
                if !is_spill_tagged(p) {
                    break p;
                }
                assert_eq!(
                    fault_in_tagged(p),
                    Ok(true),
                    "a spilled object faults back in"
                );
            };
            assert_eq!(unsafe { (payload as *const u64).read() }, i as u64);
        }
        c.verify().unwrap();
    }

    #[test]
    fn spill_store_failure_rolls_back_cleanly() {
        let rt = Runtime::new();
        let (c, _store) = spill_ctx(&rt);
        let cap = c.layout().capacity as usize;
        let _allocs: Vec<_> = (0..cap + 4).map(|i| alloc_u64(&c, i as u64)).collect();
        fail_next(&rt, FaultSite::SpillStore);
        assert!(!c.try_spill_one(), "a failed store must report no spill");
        assert_eq!(c.spilled_blocks(), 0);
        assert_eq!(c.block_count(), 2, "the victim rejoins membership");
        assert_eq!(MemoryStats::get(&rt.stats.spill_fault_failures), 1);
        c.verify().unwrap();
        // The store works again: the next attempt succeeds.
        assert!(c.try_spill_one());
        c.verify().unwrap();
    }

    #[test]
    fn spill_store_failure_buries_the_published_stub() {
        let rt = Runtime::new();
        let (c, _store) = spill_ctx(&rt);
        let cap = c.layout().capacity as usize;
        let _allocs: Vec<_> = (0..cap + 4).map(|i| alloc_u64(&c, i as u64)).collect();
        // Each live stub holds one weak handle beside the context's own.
        assert_eq!(Arc::weak_count(&c), 1);
        fail_next(&rt, FaultSite::SpillStore);
        assert!(!c.try_spill_one());
        // The rollback published the tag before it failed, so a pinned
        // reader may still be about to dereference the stub: it must sit in
        // the graveyard, not be freed, until the epoch ripens.
        assert_eq!(Arc::weak_count(&c), 2, "stub freed under pinned readers");
        rt.drain_graveyard();
        assert_eq!(Arc::weak_count(&c), 2, "stub freed before its epoch");
        rt.epochs.try_advance().unwrap();
        rt.epochs.try_advance().unwrap();
        rt.drain_graveyard();
        assert_eq!(Arc::weak_count(&c), 1, "ripe stub is freed");
    }

    #[test]
    fn claimed_blocks_are_not_spilled_until_unclaimed() {
        let rt = Runtime::new();
        let (c, store) = spill_ctx(&rt);
        let cap = c.layout().capacity as usize;
        let allocs: Vec<_> = (0..cap + 4).map(|i| alloc_u64(&c, i as u64)).collect();
        // Claim as compaction would: every owner-free block (the second
        // block is this thread's allocation block and claimable by no one).
        let claimed = c.claim(usize::MAX, |_| true);
        assert_eq!(claimed, [allocs[0].block]);
        assert!(c.claim(usize::MAX, |_| true).is_empty(), "claims exclude");
        assert!(!c.try_spill_one(), "a claimed block is no spill victim");
        assert!(store.is_empty());
        for a in &allocs {
            assert!(!is_spill_tagged(
                a.entry.get().load_payload(Ordering::Acquire)
            ));
        }
        c.unclaim(claimed);
        assert!(c.try_spill_one(), "unclaimed, the block spills");
        assert_eq!(c.spilled_objects(), cap as u64);
        c.verify().unwrap();
    }

    #[test]
    fn fault_in_load_failure_fails_closed() {
        let rt = Runtime::new();
        let (c, _store) = spill_ctx(&rt);
        let first = fill_two_blocks_and_spill(&c);
        fail_next(&rt, FaultSite::SpillLoad);
        let victim = &first[0];
        assert_eq!(
            c.try_free(victim.entry, victim.entry_inc).unwrap_err(),
            MemError::SpillFault,
            "an unreadable page must fail closed, never panic"
        );
        // The page stays spilled; nothing was partially materialized.
        assert_eq!(c.spilled_blocks(), 1);
        c.verify().unwrap();
        assert!(c.try_free(victim.entry, victim.entry_inc).unwrap());
        c.verify().unwrap();
    }

    /// Flips one byte of the stored page behind `ticket` (torn-write
    /// helper); returns false if the ticket holds no page.
    fn corrupt_page(store: &MemoryPageStore, ticket: u64) -> bool {
        let mut inner = store.inner.lock().unwrap();
        match inner
            .pages
            .get_mut(ticket as usize)
            .and_then(|p| p.as_mut())
        {
            Some((_, bytes)) if !bytes.is_empty() => {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xff;
                true
            }
            _ => false,
        }
    }

    #[test]
    fn fault_in_corrupted_page_fails_closed() {
        let rt = Runtime::new();
        let (c, store) = spill_ctx(&rt);
        let first = fill_two_blocks_and_spill(&c);
        corrupt_page(&store, 0);
        let victim = &first[0];
        assert_eq!(
            c.try_free(victim.entry, victim.entry_inc).unwrap_err(),
            MemError::SpillFault
        );
        assert!(MemoryStats::get(&rt.stats.spill_fault_failures) >= 1);
        assert_eq!(c.spilled_blocks(), 1, "the corrupt page is not dropped");
    }

    #[test]
    fn spilled_scan_visits_every_object_exactly_once() {
        let rt = Runtime::new();
        let (c, _store) = spill_ctx(&rt);
        fill_two_blocks_and_spill(&c);
        let cap = c.layout().capacity as usize;
        let mut seen = Vec::new();
        let snapshot = c
            .scan_spilled_then_snapshot(&mut |_entry_addr, _inc, obj| {
                seen.push(unsafe { obj.cast::<u64>().read() });
            })
            .unwrap();
        // The page walk yielded the spilled objects; the membership
        // snapshot holds the resident remainder — no overlap.
        assert_eq!(seen.len(), cap);
        seen.sort_unstable();
        let expect: Vec<u64> = (0..cap as u64).collect();
        assert_eq!(seen, expect);
        let resident: usize = snapshot
            .blocks
            .iter()
            .map(|b| b.header().valid_count.load(Ordering::Relaxed) as usize)
            .sum();
        assert_eq!(resident, 4);
    }

    #[test]
    fn a_page_faulted_in_mid_scan_stays_readable_to_the_scan() {
        let rt = Runtime::new();
        let (c, store) = spill_ctx(&rt);
        let first = fill_two_blocks_and_spill(&c);
        let mut seen = Vec::new();
        let snapshot = c
            .scan_spilled_then_snapshot(&mut |_entry_addr, _inc, obj| {
                if seen.is_empty() {
                    // Freeing a spilled object faults its page in, under
                    // the scan that is reading that page.
                    assert!(c.try_free(first[0].entry, first[0].entry_inc).unwrap());
                    assert_eq!(c.spilled_blocks(), 0);
                    assert_eq!(store.len(), 1, "the scan's list still holds the page");
                }
                seen.push(unsafe { obj.cast::<u64>().read() });
            })
            .unwrap();
        assert_eq!(seen, (0..first.len() as u64).collect::<Vec<_>>());
        assert_eq!(store.len(), 0, "the scan's drop of the page discards it");
        // The block the page became joined membership after the snapshot.
        let resident: u32 = snapshot
            .blocks
            .iter()
            .map(|b| b.header().valid_count.load(Ordering::Relaxed))
            .sum();
        assert_eq!(resident, 4);
        c.verify().unwrap();
    }

    #[test]
    fn context_drop_releases_spilled_entries() {
        let rt = Runtime::new();
        let (c, store) = spill_ctx(&rt);
        fill_two_blocks_and_spill(&c);
        drop(c);
        rt.drain_graveyard_blocking();
        assert_eq!(store.len(), 0, "dropping the context discards its pages");
        assert_eq!(rt.indirection.live_entries(), 0);
        rt.verify().unwrap();
    }

    #[test]
    fn spill_disabled_for_columnar_contexts() {
        let rt = Runtime::new();
        let c = Arc::new(
            MemoryContext::new_columnar(
                rt.clone(),
                &[8],
                type_id_of::<u64>(),
                ContextConfig::default(),
            )
            .unwrap(),
        );
        let store = Arc::new(MemoryPageStore::new());
        assert!(!c.enable_spill(store), "columnar layouts cannot spill");
        assert!(c.spill.lock().store.is_none());
    }
}
