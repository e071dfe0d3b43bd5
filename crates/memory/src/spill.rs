//! Block spill and fault-in — the residency layer of the persistence tier.
//!
//! A context with a byte budget smaller than its dataset can *spill* cold
//! blocks to a [`PageStore`] (a heapfile, see `smc-persist`) and *fault*
//! them back in on first touch. Spilling is a new rung on the PR 1 OOM
//! ladder: when the per-context budget gate would reject a fresh block, the
//! allocator first tries to evict one resident block to the store, which
//! frees exactly the footprint the fresh block needs.
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
//! the entries. Stubs are freed through an epoch graveyard: a reader pinned
//! at epoch `e` may still dereference a stub it loaded before the fault-in,
//! so the box is buried until `e + 2`, exactly like a block.
//!
//! ## One copy each way, and victims that ripen
//!
//! A spill writes `entry_addr ‖ object` from each slot straight into the one
//! page buffer the context owns (`PageWriter`), seals it with
//! [`checksum64`] and hands it to the store; a fault-in loads into the same
//! buffer, verifies it in place (`decode_page` allocates nothing) and
//! copies each object once, buffer to slot. Both bury what they displace —
//! the victim block, the stub — two epochs out, and nothing but the memory
//! manager moves the epoch (§3.4), so both call
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
//! `Smc::for_each` therefore walks spilled pages *first*, streaming records
//! out of a transient read buffer without promoting them to residency, and
//! takes its membership snapshot under the same spill mutex — a page and its
//! resident reincarnation can never both be visited.
//!
//! [`MemoryContext::try_free`]: crate::context::MemoryContext::try_free

use std::cell::Cell;
use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

use crate::block::BlockRef;
use crate::context::{LayoutMode, Membership, MemoryContext};
use crate::error::MemError;
use crate::indirection::EntryRef;
use crate::slot::SlotId;
use crate::stats::MemoryStats;

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
/// A *page* is an opaque byte string (the encoded record set of one block).
/// `store_page` returns a ticket the context presents to `load_page` and
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
    /// When true, the next `store_page` fails (exercises rollback paths).
    fail_next_store: AtomicBool,
    /// When true, every `load_page` fails (exercises fail-closed paths).
    fail_loads: AtomicBool,
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

    /// Makes the next `store_page` call fail (then auto-rearms to success).
    pub fn fail_next_store(&self) {
        self.fail_next_store.store(true, Ordering::Relaxed);
    }

    /// Makes every `load_page` call fail until called with `false`.
    pub fn set_fail_loads(&self, fail: bool) {
        self.fail_loads.store(fail, Ordering::Relaxed);
    }

    /// Flips one byte of the stored page behind `ticket` (torn-write test
    /// helper); returns false if the ticket holds no page.
    pub fn corrupt_page(&self, ticket: u64) -> bool {
        let mut inner = self.inner.lock().unwrap();
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
}

impl PageStore for MemoryPageStore {
    fn store_page(&self, block_id: u64, bytes: &[u8]) -> Result<u64, SpillIoError> {
        if self.fail_next_store.swap(false, Ordering::Relaxed) {
            return Err(SpillIoError("injected store failure".into()));
        }
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
        if self.fail_loads.load(Ordering::Relaxed) {
            return Err(SpillIoError("injected load failure".into()));
        }
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
/// every entry of a spilled page; it is freed through the runtime's stub
/// graveyard two epochs after the page faults back in.
#[derive(Debug)]
pub(crate) struct SpillStub {
    /// The owning context (weak: a stub must not keep a dropped collection
    /// alive; upgrade failure renders the reference null).
    pub(crate) ctx: Weak<MemoryContext>,
    /// The spilled block's id, key into the context's page directory.
    pub(crate) block_id: u64,
}

/// Bookkeeping for one spilled block.
#[derive(Debug)]
pub(crate) struct SpilledPage {
    /// The store's handle for the page bytes.
    pub(crate) ticket: u64,
    /// The tagged stub pointer installed in every member entry's payload.
    pub(crate) tag: usize,
    /// `(entry_addr, source_slot)` per record, in page order.
    pub(crate) entries: Vec<(usize, SlotId)>,
}

/// Per-context spill state, behind one mutex: the store handle, a weak
/// self-reference (stubs need `Weak<MemoryContext>`), the page directory
/// and the one page buffer every spill encodes into and every fault-in and
/// spilled scan loads into.
#[derive(Debug, Default)]
pub(crate) struct SpillState {
    pub(crate) store: Option<Arc<dyn PageStore>>,
    pub(crate) this: Weak<MemoryContext>,
    /// Spilled pages by the id of their (now buried) source block. Ordered,
    /// so a spilled scan reads the store in the order the pages were
    /// written.
    pub(crate) pages: BTreeMap<u64, SpilledPage>,
    page_buf: Vec<u8>,
}

// ---------------------------------------------------------------------
// Page codec
// ---------------------------------------------------------------------

/// Magic prefix of an encoded spill page ("SMCPAGE2").
const PAGE_MAGIC: u64 = 0x534d_4350_4147_4532;
/// Bytes before the first record: magic, block id, object size, record count.
const PAGE_HEADER: usize = 32;

const PRIME_1: u64 = 0x9e37_79b1_85eb_ca87;
const PRIME_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const PRIME_3: u64 = 0x1656_67b1_9e37_79f9;
const PRIME_4: u64 = 0x85eb_ca77_c2b2_ae63;

/// One accumulator step. A bijection of `acc` for a fixed `word` and of
/// `word` for a fixed `acc`: add, rotate and multiply-by-odd all invert.
#[inline(always)]
fn mix(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

/// Folds one word into the merged sum (same bijection property as [`mix`]).
#[inline(always)]
fn fold(sum: u64, word: u64) -> u64 {
    (sum ^ mix(0, word))
        .rotate_left(27)
        .wrapping_mul(PRIME_1)
        .wrapping_add(PRIME_4)
}

/// The integrity checksum of spill pages, snapshot pages and the snapshot
/// manifest's per-object digest: four independent 64-bit multiply-rotate
/// lanes over 32-byte stripes of little-endian words (the xxHash64 shape),
/// merged, then the length, the remaining words, a zero-padded tail and a
/// final avalanche.
///
/// Every step is a bijection of the state it updates, so two inputs of one
/// length that differ only inside a single 8-byte word *always* sum
/// differently. It is an integrity check against torn and rotted pages, not
/// a MAC: nothing here resists an adversary. Words are read with
/// `from_le_bytes`, so the sum depends on neither host endianness nor the
/// buffer's alignment — it is part of the on-disk formats.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("an 8-byte chunk"));
    let mut lanes = [
        PRIME_1.wrapping_add(PRIME_2),
        PRIME_2,
        0,
        PRIME_1.wrapping_neg(),
    ];
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        lanes[0] = mix(lanes[0], word(&stripe[0..8]));
        lanes[1] = mix(lanes[1], word(&stripe[8..16]));
        lanes[2] = mix(lanes[2], word(&stripe[16..24]));
        lanes[3] = mix(lanes[3], word(&stripe[24..32]));
    }
    let mut sum = lanes[0]
        .rotate_left(1)
        .wrapping_add(lanes[1].rotate_left(7))
        .wrapping_add(lanes[2].rotate_left(12))
        .wrapping_add(lanes[3].rotate_left(18))
        .wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        sum = fold(sum, word(w));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        sum = fold(sum, u64::from_le_bytes(last));
    }
    sum ^= sum >> 33;
    sum = sum.wrapping_mul(PRIME_2);
    sum ^= sum >> 29;
    sum = sum.wrapping_mul(PRIME_3);
    sum ^ (sum >> 32)
}

/// Errors from [`decode_page`]. Internal: the fault path maps every variant
/// to [`MemError::SpillFault`](crate::error::MemError::SpillFault).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PageError {
    Truncated,
    BadMagic,
    BadBlockId,
    BadObjSize,
    Checksum,
}

/// Writes one page in place: header, then records of `entry_addr ‖ object`
/// appended one at a time, then the [`checksum64`] of everything before it.
/// The buffer is sized once for `max_records` and written by offset, so a
/// buffer reused across pages is neither cleared nor regrown.
pub(crate) struct PageWriter<'b> {
    buf: &'b mut Vec<u8>,
    obj_size: usize,
    at: usize,
}

impl<'b> PageWriter<'b> {
    pub(crate) fn begin(
        buf: &'b mut Vec<u8>,
        block_id: u64,
        obj_size: usize,
        max_records: usize,
    ) -> PageWriter<'b> {
        let full = PAGE_HEADER + max_records * (8 + obj_size) + 8;
        if buf.len() < full {
            buf.resize(full, 0);
        }
        buf[0..8].copy_from_slice(&PAGE_MAGIC.to_le_bytes());
        buf[8..16].copy_from_slice(&block_id.to_le_bytes());
        buf[16..24].copy_from_slice(&(obj_size as u64).to_le_bytes());
        PageWriter {
            buf,
            obj_size,
            at: PAGE_HEADER,
        }
    }

    /// Appends one record, copying the object straight from its slot.
    ///
    /// # Safety
    /// `obj` must be readable for `obj_size` bytes.
    pub(crate) unsafe fn push(&mut self, entry_addr: usize, obj: *const u8) {
        let rec = &mut self.buf[self.at..self.at + 8 + self.obj_size];
        rec[..8].copy_from_slice(&(entry_addr as u64).to_le_bytes());
        // A raw copy, not a `&[u8]` over the slot: the object is another
        // thread's to write in place until its burial ripens.
        std::ptr::copy_nonoverlapping(obj, rec[8..].as_mut_ptr(), self.obj_size);
        self.at += rec.len();
    }

    /// Seals the page — record count, checksum — and returns its bytes.
    pub(crate) fn finish(self) -> &'b [u8] {
        let records = (self.at - PAGE_HEADER) / (8 + self.obj_size);
        self.buf[24..32].copy_from_slice(&(records as u64).to_le_bytes());
        let sum = checksum64(&self.buf[..self.at]);
        self.buf[self.at..self.at + 8].copy_from_slice(&sum.to_le_bytes());
        &self.buf[..self.at + 8]
    }
}

fn read_u64(bytes: &[u8], off: usize) -> Option<u64> {
    bytes
        .get(off..off + 8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
}

/// The verified records of one page, `(entry_addr, obj_bytes)` in page
/// order, borrowed from the loaded bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PageRecords<'b> {
    /// The records not yet yielded: a whole number of `rec`-byte records.
    body: &'b [u8],
    rec: usize,
}

impl<'b> Iterator for PageRecords<'b> {
    type Item = (u64, &'b [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.body.is_empty() {
            return None;
        }
        let (record, rest) = self.body.split_at(self.rec);
        self.body = rest;
        let (addr, obj) = record.split_at(8);
        Some((u64::from_le_bytes(addr.try_into().unwrap()), obj))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.body.len() / self.rec;
        (left, Some(left))
    }
}

impl ExactSizeIterator for PageRecords<'_> {}

/// Verifies one page and returns its records. The header is checked first —
/// its record count fixes the page's length, so a truncated page is caught
/// whatever its last eight bytes hold — then the checksum over the whole
/// body. Any failure is an error, never a partial page.
pub(crate) fn decode_page(
    bytes: &[u8],
    expect_block_id: u64,
    expect_obj_size: u64,
) -> Result<PageRecords<'_>, PageError> {
    if bytes.len() < PAGE_HEADER + 8 {
        return Err(PageError::Truncated);
    }
    if read_u64(bytes, 0) != Some(PAGE_MAGIC) {
        return Err(PageError::BadMagic);
    }
    if read_u64(bytes, 8) != Some(expect_block_id) {
        return Err(PageError::BadBlockId);
    }
    if read_u64(bytes, 16) != Some(expect_obj_size) {
        return Err(PageError::BadObjSize);
    }
    let body_len = bytes.len() - 8;
    let rec = 8 + expect_obj_size as usize;
    let n = read_u64(bytes, 24).ok_or(PageError::Truncated)?;
    if n.checked_mul(rec as u64) != Some((body_len - PAGE_HEADER) as u64) {
        return Err(PageError::Truncated);
    }
    if read_u64(bytes, body_len) != Some(checksum64(&bytes[..body_len])) {
        return Err(PageError::Checksum);
    }
    Ok(PageRecords {
        body: &bytes[PAGE_HEADER..body_len],
        rec,
    })
}

// ---------------------------------------------------------------------
// Scan re-entrancy guard
// ---------------------------------------------------------------------

thread_local! {
    /// Depth of spill-page walks on this thread. While non-zero, the thread
    /// holds the spill mutex of some context: fault-in and spill must not be
    /// attempted (self-deadlock), and nested scans fall back to
    /// resident-only enumeration.
    static IN_SPILL_SCAN: Cell<u32> = const { Cell::new(0) };
}

/// True while this thread is inside a spill-page walk (and therefore holds
/// a spill mutex).
pub(crate) fn in_spill_scan() -> bool {
    IN_SPILL_SCAN.with(|c| c.get() > 0)
}

/// RAII marker for a spill-page walk.
pub(crate) struct SpillScanGuard;

impl SpillScanGuard {
    pub(crate) fn enter() -> SpillScanGuard {
        IN_SPILL_SCAN.with(|c| c.set(c.get() + 1));
        SpillScanGuard
    }
}

impl Drop for SpillScanGuard {
    fn drop(&mut self) {
        IN_SPILL_SCAN.with(|c| c.set(c.get() - 1));
    }
}

// ---------------------------------------------------------------------
// Dereference hook
// ---------------------------------------------------------------------

/// Faults in the block behind a tagged entry payload. Called by `smc-core`'s
/// `Ref::resolve` when it observes [`SPILL_TAG`]; returns true when the
/// caller should re-read the entry payload (the object may now be resident),
/// false when the reference is dead or the page is unreadable (fail closed).
///
/// # Safety contract (checked by construction, not by this signature)
///
/// `payload` must have been loaded from an indirection entry *while the
/// calling thread holds an epoch guard*: stubs are freed through the epoch
/// graveyard, so a pinned reader's stub pointer stays dereferenceable.
pub fn fault_in_tagged(payload: usize) -> bool {
    debug_assert!(is_spill_tagged(payload));
    let stub = unsafe { &*((payload & !SPILL_TAG) as *const SpillStub) };
    let Some(ctx) = stub.ctx.upgrade() else {
        return false; // collection dropped: the reference is null
    };
    ctx.fault_in_block(stub.block_id).is_ok()
}

// ---------------------------------------------------------------------
// The residency protocol
// ---------------------------------------------------------------------

/// Swings `entry`'s payload from `from` to `to` under the entry lock, leaving
/// incarnation and every other flag as they were; `under_lock` runs first,
/// while the object can be neither freed nor moved. False, with nothing
/// done, when the entry was freed or does not hold `from`.
fn swing(entry: EntryRef, from: usize, to: usize, under_lock: impl FnOnce()) -> bool {
    let word = entry.get().inc();
    let Some(observed) = word.lock(word.incarnation()) else {
        return false;
    };
    let ours = entry.get().load_payload(Ordering::Acquire) == from;
    if ours {
        under_lock();
        entry.get().store_payload(to, Ordering::Release);
    }
    word.unlock_keep_flags(observed);
    ours
}

impl MemoryContext {
    /// Attaches a page store, enabling the spill rung of the OOM ladder and
    /// fault-in on dereference. Returns false for columnar contexts (their
    /// entry payloads point into the incarnation column, whose cells the
    /// relocation protocol reads unconditionally — spill tagging is a
    /// row-store feature).
    pub fn enable_spill(self: &Arc<Self>, store: Arc<dyn PageStore>) -> bool {
        if self.mode != LayoutMode::Rows {
            return false;
        }
        let mut s = self.spill.lock();
        s.store = Some(store);
        s.this = Arc::downgrade(self);
        true
    }

    /// True once [`enable_spill`](Self::enable_spill) has attached a store.
    pub fn spill_enabled(&self) -> bool {
        self.spill.lock().store.is_some()
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
        f: impl FnOnce(&BTreeMap<u64, SpilledPage>) -> R,
    ) -> R {
        let s = self.spill.lock();
        f(&s.pages)
    }

    /// Evicts one cold resident block to the page store. Returns true when a
    /// block was spilled; false when spill is disabled, no block qualifies,
    /// the store failed (rolled back), or the caller is inside a
    /// spilled-page scan (the mutex is already held above us).
    pub fn try_spill_one(&self) -> bool {
        if in_spill_scan() {
            return false;
        }
        self.try_spill_one_locked(&mut self.spill.lock())
    }

    /// Spill body; requires the spill mutex. The victim is claimed the way
    /// compaction claims its candidates, minus the occupancy ceiling — any
    /// resident block with live objects qualifies, coldest-first being
    /// approximated by collection order.
    fn try_spill_one_locked(&self, s: &mut SpillState) -> bool {
        let Some(store) = s.store.clone() else {
            return false;
        };
        let live = |b: &BlockRef| b.header().valid_count.load(Ordering::Relaxed) > 0;
        let Some(victim) = self.claim(1, live).pop() else {
            return false;
        };
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
        // Each record goes from its slot straight into the page buffer, once;
        // the directory below is the only thing a spill allocates to keep.
        let valid = victim.header().valid_count.load(Ordering::Relaxed) as usize;
        let mut entries: Vec<(usize, SlotId)> = Vec::with_capacity(valid);
        let mut page = PageWriter::begin(
            &mut s.page_buf,
            block_id,
            self.obj_size as usize,
            self.layout.capacity as usize,
        );
        for slot_id in victim.valid_slots() {
            let back = victim.back_ptr(slot_id).load(Ordering::Acquire);
            if back == 0 {
                continue;
            }
            let home = self.payload_of(&victim, slot_id);
            // An entry that fails the swing was freed (and possibly reused)
            // between the slot-state check and the lock: not ours to spill.
            let tagged = swing(unsafe { EntryRef::from_addr(back) }, home, tag, || {
                // SAFETY: `home` is the object of a valid slot of a block we
                // claimed; the entry lock keeps it from being freed or moved.
                unsafe { page.push(back, home as *const u8) };
                // Retire direct pointers into the page — a spilled slot must
                // not satisfy a §6 direct dereference against stale memory.
                self.slot_inc(&victim, slot_id).bump_unlocked();
            });
            if tagged {
                entries.push((back, slot_id));
            }
        }
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
        let Ok(ticket) = store.store_page(block_id, page.finish()) else {
            // Store failed: restore every tagged entry. We still hold the
            // spill mutex, so nothing else can have repointed them.
            for &(back, slot_id) in &entries {
                let home = self.payload_of(&victim, slot_id);
                swing(unsafe { EntryRef::from_addr(back) }, tag, home, || ());
            }
            // The tag was published: a pinned reader may have loaded it
            // before the restore and dereferences the stub before it takes
            // any lock. The stub outlives the rollback as it outlives a
            // fault-in.
            self.runtime
                .bury_stub(stub, self.runtime.global_epoch() + 2);
            give_back();
            MemoryStats::inc(&self.runtime.stats.spill_fault_failures);
            return false;
        };
        self.spilled_blocks_gauge.fetch_add(1, Ordering::Relaxed);
        self.spilled_objects_gauge
            .fetch_add(entries.len() as u64, Ordering::Relaxed);
        MemoryStats::inc(&self.runtime.stats.blocks_spilled);
        s.pages.insert(
            block_id,
            SpilledPage {
                ticket,
                tag,
                entries,
            },
        );
        // The victim's slots stay Valid with intact data until burial ripens:
        // a reader that loaded the resident payload just before our tag store
        // reads the old copy safely for two more epochs. (In-place writes in
        // that window are lost on fault-in — the same isolation caveat as a
        // §5 relocation mid-copy; mutate through `try_update`-style replace,
        // not in place, when spill is enabled.)
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
    /// stays spilled and the heap intact — and when called from inside a
    /// spilled-page scan callback (the scan already streams the data).
    pub fn fault_in_block(&self, block_id: u64) -> Result<bool, MemError> {
        if in_spill_scan() {
            return Err(MemError::SpillFault);
        }
        let start = Instant::now();
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
            store,
            pages,
            page_buf,
            ..
        } = &mut *s;
        let Entry::Occupied(slot) = pages.entry(block_id) else {
            return Ok(false);
        };
        let store = store.as_ref().expect("page without store");
        let records = self.read_page(&**store, block_id, slot.get(), page_buf)?;
        // A block of its own, new block id: fault-in is a relocation, not a
        // revival. Allocation bypasses the runtime budget gate — the
        // faulting thread may be pinned (dereference path) and so can never
        // ripen its own victim's burial; see
        // `Runtime::allocate_block_unbudgeted`.
        let fresh = self
            .runtime
            .allocate_block_unbudgeted(&self.layout, self.type_id, self.id)?;
        let page = slot.remove();
        let obj_size = self.obj_size as usize;
        let mut live: u32 = 0;
        for (i, (entry_addr, obj)) in records.enumerate() {
            let slot_id = i as SlotId;
            debug_assert_eq!(entry_addr as usize, page.entries[i].0);
            let entry = unsafe { EntryRef::from_addr(entry_addr as usize) };
            // Object bytes (one copy, page buffer to slot), back pointer and
            // slot state land before the payload repoint publishes the slot
            // to retrying readers.
            unsafe {
                std::ptr::copy_nonoverlapping(obj.as_ptr(), fresh.obj_ptr(slot_id), obj_size)
            };
            fresh
                .back_ptr(slot_id)
                .store(entry_addr as usize, Ordering::Release);
            fresh.slot_word(slot_id).set_valid();
            if entry.get().load_payload(Ordering::Acquire) == page.tag {
                entry
                    .get()
                    .store_payload(self.payload_of(&fresh, slot_id), Ordering::Release);
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
        store.discard_page(page.ticket);
        // The stub outlives the repoint by two epochs: a reader pinned now
        // may still hold the tagged payload it loaded before us.
        self.runtime
            .bury_stub(page.tag & !SPILL_TAG, self.runtime.global_epoch() + 2);
        self.spilled_blocks_gauge.fetch_sub(1, Ordering::Relaxed);
        self.spilled_objects_gauge
            .fetch_sub(page.entries.len() as u64, Ordering::Relaxed);
        MemoryStats::inc(&self.runtime.stats.blocks_faulted_in);
        let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.runtime.stats.spill_fault_ns.record(nanos);
        smc_obs::trace::emit(smc_obs::Event::BlockFaulted {
            context: self.id,
            block_id,
            nanos,
        });
        Ok(true)
    }

    /// The one verified page read: loads `page` from `store` into `bytes`
    /// and decodes it in place, checking checksum, block id, object size and
    /// that the record count matches the page directory. Any failure is
    /// counted in `spill_fault_failures` and fails closed as
    /// [`MemError::SpillFault`].
    fn read_page<'b>(
        &self,
        store: &dyn PageStore,
        block_id: u64,
        page: &SpilledPage,
        bytes: &'b mut Vec<u8>,
    ) -> Result<PageRecords<'b>, MemError> {
        let loaded = store.load_page(page.ticket, block_id, bytes).is_ok();
        let bytes: &'b [u8] = bytes;
        loaded
            .then(|| decode_page(bytes, block_id, self.obj_size as u64).ok())
            .flatten()
            .filter(|records| records.len() == page.entries.len())
            .ok_or_else(|| {
                MemoryStats::inc(&self.runtime.stats.spill_fault_failures);
                MemError::SpillFault
            })
    }

    /// Streams every spilled record through `visit` *without* promoting
    /// pages to residency, then returns a membership snapshot taken under
    /// the same spill mutex — the scan-without-thrashing primitive behind
    /// `Smc::for_each`. A page and its resident reincarnation can never both
    /// be visited: pages faulted in after this walk hold blocks that are not
    /// in the returned snapshot, and blocks spilled after the snapshot keep
    /// their (still live, epoch-protected) resident copies.
    ///
    /// `visit` receives `(entry_addr, object_ptr)` per record — the pointer
    /// is aligned for the object type and valid for the duration of the
    /// call — and runs with the spill mutex held: it may free resident
    /// objects, allocate, and call [`live_objects`](Self::live_objects), but
    /// freeing a *spilled* object or nesting another spilled scan fails with
    /// [`MemError::SpillFault`].
    pub fn scan_spilled_then_snapshot(
        &self,
        visit: &mut dyn FnMut(usize, *const u8),
    ) -> Result<Membership, MemError> {
        if self.mode != LayoutMode::Rows || in_spill_scan() {
            return Ok(self.membership_snapshot());
        }
        let mut s = self.spill.lock();
        if s.pages.is_empty() {
            return Ok(self.membership_snapshot());
        }
        let SpillState {
            store,
            pages,
            page_buf,
            ..
        } = &mut *s;
        let store = store.as_ref().expect("pages without store");
        let _scan = SpillScanGuard::enter();
        // Page records are packed back to back, so a record may sit at an
        // address the object type cannot be read from; such a record is
        // handed to `visit` as an aligned scratch copy.
        let obj_size = self.obj_size as usize;
        let mut scratch = vec![0u8; obj_size + self.obj_align];
        let aligned = scratch.as_ptr().align_offset(self.obj_align);
        let scratch = &mut scratch[aligned..aligned + obj_size];
        for (&block_id, page) in pages.iter() {
            for (entry_addr, obj) in self.read_page(&**store, block_id, page, page_buf)? {
                let obj = if obj.as_ptr().align_offset(self.obj_align) == 0 {
                    obj.as_ptr()
                } else {
                    scratch.copy_from_slice(obj);
                    scratch.as_ptr()
                };
                visit(entry_addr as usize, obj);
            }
        }
        Ok(self.membership_snapshot())
    }

    /// The spilled half of `Drop for MemoryContext`: retires the entries of
    /// every spilled page (stale refs upgrade the stub's weak context handle
    /// and get null), releases the store pages, and buries the stubs like
    /// any other epoch-protected object.
    pub(crate) fn release_spilled(&mut self, free_at: u64) {
        let s = self.spill.get_mut();
        for page in std::mem::take(&mut s.pages).into_values() {
            for &(entry_addr, _) in &page.entries {
                let entry = unsafe { EntryRef::from_addr(entry_addr) };
                if entry.get().load_payload(Ordering::Acquire) == page.tag {
                    entry.get().inc().bump_unlocked();
                    self.runtime.indirection.release(entry, 0);
                    MemoryStats::inc(&self.runtime.stats.objects_freed);
                }
            }
            if let Some(store) = &s.store {
                store.discard_page(page.ticket);
            }
            self.runtime.bury_stub(page.tag & !SPILL_TAG, free_at);
        }
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

    /// The pinned input: byte `i` of every vector below.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    /// [`checksum64`]'s definition restated the slow way — one lane array
    /// indexed by word number, words assembled byte by byte — so the kernel's
    /// striping, tail handling and word order are checked against something
    /// that shares none of them.
    fn checksum64_reference(bytes: &[u8]) -> u64 {
        let le = |b: &[u8]| b.iter().rev().fold(0u64, |w, &x| w << 8 | x as u64);
        let step = |acc: u64, w: u64| {
            (acc.wrapping_add(w.wrapping_mul(PRIME_2)).rotate_left(31)).wrapping_mul(PRIME_1)
        };
        let mut lanes = [PRIME_1.wrapping_add(PRIME_2), PRIME_2, 0, !PRIME_1 + 1];
        let striped = bytes.len() / 32 * 32;
        for (i, w) in bytes[..striped].chunks(8).enumerate() {
            lanes[i % 4] = step(lanes[i % 4], le(w));
        }
        let merged = [1, 7, 12, 18]
            .iter()
            .zip(lanes)
            .map(|(&r, l)| l.rotate_left(r));
        let mut sum = merged.fold(bytes.len() as u64, u64::wrapping_add);
        for w in bytes[striped..].chunks(8) {
            sum = ((sum ^ step(0, le(w))).rotate_left(27).wrapping_mul(PRIME_1))
                .wrapping_add(PRIME_4);
        }
        for (shift, prime) in [(33, PRIME_2), (29, PRIME_3)] {
            sum = (sum ^ (sum >> shift)).wrapping_mul(prime);
        }
        sum ^ (sum >> 32)
    }

    #[test]
    fn checksum64_matches_pinned_vectors() {
        // The on-disk definition: a change to any of these is a format
        // change (new page magic, new manifest schema), not a refactor.
        let pinned: [(usize, u64); 10] = [
            (0, 0x9090_306c_6e91_ed59),
            (1, 0x3ee0_2232_1272_3452),
            (7, 0x3cf6_9c5a_2d78_1173),
            (8, 0x1f94_49bb_972a_c643),
            (31, 0x035a_dbd9_354c_273b),
            (32, 0x4b87_2b68_b7e1_a9b6),
            (33, 0xc56d_7a60_484b_82c7),
            (63, 0xdbb5_168b_664d_0103),
            (64, 0x1ef5_10aa_5654_f182),
            (56 * 1024, 0xc117_2555_4e17_2721),
        ];
        for (len, want) in pinned {
            let got = checksum64(&pattern(len));
            assert_eq!(got, want, "length {len}: {got:#018x}");
        }
    }

    #[test]
    fn checksum64_agrees_with_the_reference_at_every_length_and_alignment() {
        let lengths = if cfg!(miri) { 0..=72 } else { 0..=200 };
        let mut buf = vec![0u8; 208];
        for len in lengths {
            let data = pattern(len);
            let want = checksum64_reference(&data);
            for start in 0..8 {
                buf[start..start + len].copy_from_slice(&data);
                assert_eq!(
                    checksum64(&buf[start..start + len]),
                    want,
                    "length {len} at alignment {start}"
                );
            }
        }
    }

    #[test]
    fn checksum64_catches_every_bit_flip_and_every_word_swap() {
        // Every step of the kernel is a bijection of the lane it updates, so
        // a change confined to one word cannot cancel: all 32 768 single-bit
        // flips of a 4 KiB page are caught, not merely most.
        let mut page = pattern(if cfg!(miri) { 96 } else { 4096 });
        let clean = checksum64(&page);
        for bit in 0..page.len() * 8 {
            page[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum64(&page), clean, "bit {bit} flipped unseen");
            page[bit / 8] ^= 1 << (bit % 8);
        }
        // Lane and position sensitivity: exchanging two words — same lane,
        // different lanes, stripe against tail — is no multiset-preserving
        // no-op. 35 words: four whole stripes and three tail words.
        let words: Vec<u64> = (0..35u64).map(|i| i.wrapping_mul(PRIME_3) | 1).collect();
        let bytes = |w: &[u64]| w.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
        let clean = checksum64(&bytes(&words));
        for a in 0..words.len() {
            for b in a + 1..words.len() {
                let mut swapped = words.clone();
                swapped.swap(a, b);
                assert_ne!(checksum64(&bytes(&swapped)), clean, "words {a} and {b}");
            }
        }
    }

    /// A page over already-gathered objects, through the writer the spill
    /// path uses.
    fn encode_page(
        block_id: u64,
        obj_size: usize,
        entry_addrs: &[(usize, SlotId)],
        objs: &[u8],
    ) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut page = PageWriter::begin(&mut buf, block_id, obj_size, entry_addrs.len());
        for (&(addr, _slot), obj) in entry_addrs.iter().zip(objs.chunks(obj_size)) {
            unsafe { page.push(addr, obj.as_ptr()) };
        }
        page.finish().to_vec()
    }

    #[test]
    fn page_roundtrip() {
        let objs: Vec<u8> = (0..32u8).collect();
        let entries = vec![(0x1000usize, 0u32), (0x2000, 1), (0x3000, 7), (0x4000, 9)];
        let page = encode_page(42, 8, &entries, &objs);
        assert_eq!(page.len(), 32 + 4 * (8 + 8) + 8, "header, records, trailer");
        let records: Vec<_> = decode_page(&page, 42, 8).unwrap().collect();
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].0, 0x1000);
        assert_eq!(records[2].0, 0x3000);
        assert_eq!(records[3].1, &objs[24..32]);
    }

    #[test]
    fn page_writer_reuses_a_longer_buffer_without_leaking_it_into_the_page() {
        // The spill path's buffer is never cleared: a short page written
        // after a long one must seal and verify as exactly its own bytes.
        let mut buf = Vec::new();
        let long = {
            let mut page = PageWriter::begin(&mut buf, 1, 8, 6);
            for i in 0..6u64 {
                unsafe { page.push(0x100 + i as usize, i.to_le_bytes().as_ptr()) };
            }
            page.finish().len()
        };
        let mut page = PageWriter::begin(&mut buf, 2, 8, 6);
        unsafe { page.push(0x900, 77u64.to_le_bytes().as_ptr()) };
        let short = page.finish();
        assert!(short.len() < long);
        let records: Vec<_> = decode_page(short, 2, 8).unwrap().collect();
        assert_eq!(records, [(0x900, &77u64.to_le_bytes()[..])]);
    }

    #[test]
    fn page_decode_fails_closed() {
        let objs = vec![7u8; 16];
        let entries = vec![(0x10usize, 0u32), (0x20, 1)];
        let good = encode_page(5, 8, &entries, &objs);
        // Truncation at every prefix length must error, never panic.
        for cut in 0..good.len() {
            assert!(decode_page(&good[..cut], 5, 8).is_err(), "cut at {cut}");
        }
        // Single-byte corruption anywhere must be caught by the checksum
        // (or by a failed field check — either way, an error).
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            assert!(decode_page(&bad, 5, 8).is_err(), "corrupt byte {i}");
        }
        // Mismatched expectations are named errors.
        assert_eq!(decode_page(&good, 6, 8), Err(PageError::BadBlockId));
        assert_eq!(decode_page(&good, 5, 16), Err(PageError::BadObjSize));
        assert!(decode_page(&good, 5, 8).is_ok());
    }

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

    #[test]
    fn memory_store_failure_switches() {
        let store = MemoryPageStore::new();
        store.fail_next_store();
        assert!(store.store_page(1, b"x").is_err());
        let t = store.store_page(1, b"x").unwrap(); // rearmed
        let mut buf = Vec::new();
        store.set_fail_loads(true);
        assert!(store.load_page(t, 1, &mut buf).is_err());
        store.set_fail_loads(false);
        store.load_page(t, 1, &mut buf).unwrap();
    }

    #[test]
    fn spill_scan_guard_nests() {
        assert!(!in_spill_scan());
        {
            let _g = SpillScanGuard::enter();
            assert!(in_spill_scan());
            {
                let _g2 = SpillScanGuard::enter();
                assert!(in_spill_scan());
            }
            assert!(in_spill_scan());
        }
        assert!(!in_spill_scan());
    }

    // ---- the residency protocol ------------------------------------------

    fn spill_ctx(rt: &Arc<Runtime>) -> (Arc<MemoryContext>, Arc<MemoryPageStore>) {
        let c = Arc::new(ctx(rt));
        let store = Arc::new(MemoryPageStore::new());
        assert!(c.enable_spill(store.clone()));
        (c, store)
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
                assert!(fault_in_tagged(p), "a spilled object faults back in");
            };
            assert_eq!(unsafe { (payload as *const u64).read() }, i as u64);
        }
        c.verify().unwrap();
    }

    #[test]
    fn spill_store_failure_rolls_back_cleanly() {
        let rt = Runtime::new();
        let (c, store) = spill_ctx(&rt);
        let cap = c.layout().capacity as usize;
        let _allocs: Vec<_> = (0..cap + 4).map(|i| alloc_u64(&c, i as u64)).collect();
        store.fail_next_store();
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
        let (c, store) = spill_ctx(&rt);
        let cap = c.layout().capacity as usize;
        let _allocs: Vec<_> = (0..cap + 4).map(|i| alloc_u64(&c, i as u64)).collect();
        // Each live stub holds one weak handle beside the context's own.
        assert_eq!(Arc::weak_count(&c), 1);
        store.fail_next_store();
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
        let (c, store) = spill_ctx(&rt);
        let first = fill_two_blocks_and_spill(&c);
        store.set_fail_loads(true);
        let victim = &first[0];
        assert_eq!(
            c.try_free(victim.entry, victim.entry_inc).unwrap_err(),
            MemError::SpillFault,
            "an unreadable page must fail closed, never panic"
        );
        // The page stays spilled; nothing was partially materialized.
        assert_eq!(c.spilled_blocks(), 1);
        c.verify().unwrap();
        store.set_fail_loads(false);
        assert!(c.try_free(victim.entry, victim.entry_inc).unwrap());
        c.verify().unwrap();
    }

    #[test]
    fn fault_in_corrupted_page_fails_closed() {
        let rt = Runtime::new();
        let (c, store) = spill_ctx(&rt);
        let first = fill_two_blocks_and_spill(&c);
        store.corrupt_page(0);
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
            .scan_spilled_then_snapshot(&mut |_entry_addr, obj| {
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
                12,
                type_id_of::<u64>(),
                ContextConfig::default(),
            )
            .unwrap(),
        );
        let store = Arc::new(MemoryPageStore::new());
        assert!(!c.enable_spill(store), "columnar layouts cannot spill");
        assert!(!c.spill_enabled());
    }
}
