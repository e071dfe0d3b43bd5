//! The global indirection table (§3.2).
//!
//! Object references do not store the address of the object's memory slot;
//! they point at an *indirection table entry*, which in turn points at the
//! slot. This level of indirection is what makes compaction possible: moving
//! an object requires only an atomic update of the entry's pointer, never a
//! scan for references held by the application (§5.1).
//!
//! Each entry also carries an incarnation word. Indirect references validate
//! against it, which "allows us to reuse empty indirection table entries and
//! memory blocks for different types without breaking our type guarantees"
//! (§3.2): releasing an entry bumps its incarnation, so stale references fail
//! their check no matter who reuses the entry.
//!
//! Entries live in address-stable chunks (never moved or shrunk).
//!
//! ## Allocation takes no lock
//!
//! "All allocations are performed from thread-local blocks" (§3.5), and the
//! entry half of an allocation follows the slot half: every epoch thread
//! slot owns a *magazine* of up to `MAGAZINE` (32) free entries, and
//! [`IndirectionTable::allocate`] pops the caller's. A thread slot has one
//! holder at a time and changes hands through the release/acquire pair on
//! its claim flag (`EpochManager::release_slot` / `claim_slot`), so the
//! holder reads and writes its magazine with plain loads and stores — no
//! lock, no read-modify-write, no cache line another core writes — and a
//! magazine outlives its thread: whoever claims the slot next pops what the
//! last holder left. Only an empty magazine touches shared state, once for a
//! whole run of entries: recycled ones from a sharded free list (the
//! caller's home shard first, then the others), else the next run of the
//! newest chunk, carved straight into the magazine.
//!
//! Releases never write a magazine (the releasing thread does not hold the
//! slot the entry came from, and may hold none): they go to the free lists,
//! a batch under one lock. A freed object's entry gets there by way of the
//! runtime's graveyard ([`crate::runtime`]), which holds it for two epochs
//! and hands every ripe one back in one batch; a dropped context's entries
//! go at once.

use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, Ordering};

use crate::epoch::{Slot, MAX_THREADS};
use crate::incarnation::{IncWord, INC_LIMIT};
#[cfg(smc_check)]
use smc_util::mutation::{self, Mutation};
use smc_util::sync::{AtomicU64, AtomicUsize, Mutex};

// Gauges and magazine words are deliberately *plain* std atomics, like
// `ThreadSlot::pin_start`: each is written by one thread at a time (the
// slot's holder, or the holder of the lock beside it), and an instrumented
// type would add a model-checker switch point to every `allocate`.
type PlainU64 = std::sync::atomic::AtomicU64;
type PlainUsize = std::sync::atomic::AtomicUsize;

/// Entries per chunk; chunks are allocated as the table grows and are never
/// released until the table is dropped.
pub const CHUNK_ENTRIES: usize = 4096;

/// Number of free-list shards (power of two).
const SHARDS: usize = 16;

/// Entries one magazine holds, and so the most one refill moves. Divides
/// [`CHUNK_ENTRIES`], so a fresh chunk is carved in whole runs. One magazine
/// is 320 bytes (two words, 32 pointers, padded to whole cache lines): the
/// [`MAX_THREADS`] of them cost a table 40 KiB, whether or not their slots
/// are ever claimed.
pub(crate) const MAGAZINE: usize = 32;

/// One indirection table entry.
///
/// `payload` is the address of the object's slot data for row layouts, or a
/// packed `(block id, slot id)` pair for columnar layouts (§4.1) — the owner
/// of the context decides the interpretation. `0` means null.
#[derive(Debug)]
#[repr(C)]
pub struct IndirEntry {
    payload: AtomicUsize,
    inc: IncWord,
}

impl IndirEntry {
    /// Loads the payload (slot address or packed columnar locator).
    #[inline]
    pub fn load_payload(&self, order: Ordering) -> usize {
        self.payload.load(order)
    }

    /// Stores the payload.
    #[inline]
    pub fn store_payload(&self, value: usize, order: Ordering) {
        self.payload.store(value, order)
    }

    /// The entry's incarnation word (checked by indirect references).
    #[inline]
    pub fn inc(&self) -> &IncWord {
        &self.inc
    }
}

/// A stable, copyable handle to an [`IndirEntry`].
///
/// Valid for as long as the runtime's entry table is alive; the `smc`
/// crate guarantees this by routing every dereference through a collection
/// handle that keeps the runtime (and thus the table) alive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntryRef(NonNull<IndirEntry>);

// SAFETY: entries are shared, internally-synchronized atomics.
unsafe impl Send for EntryRef {}
unsafe impl Sync for EntryRef {}

impl EntryRef {
    /// Dereferences the handle.
    ///
    /// Safe because the table never frees or moves chunks while alive, and
    /// the crate-internal callers all hold the runtime alive.
    #[inline]
    pub fn get(&self) -> &IndirEntry {
        unsafe { self.0.as_ref() }
    }

    /// The raw address of the entry, used for back-pointer storage inside
    /// memory blocks.
    #[inline]
    pub fn addr(&self) -> usize {
        self.0.as_ptr() as usize
    }

    /// Rebuilds a handle from a back-pointer address previously produced by
    /// [`addr`](Self::addr).
    ///
    /// # Safety
    /// `addr` must have come from `EntryRef::addr` of an entry in a table
    /// that is still alive.
    #[inline]
    pub unsafe fn from_addr(addr: usize) -> EntryRef {
        EntryRef(NonNull::new_unchecked(addr as *mut IndirEntry))
    }
}

/// One epoch thread slot's private stock of free entries, and its share of
/// the live count. Padded so neighbouring slots never share a cache line.
#[derive(Debug)]
#[repr(align(64))]
struct Magazine {
    /// Entries in stock: `entries[..len]`.
    len: PlainUsize,
    /// Entries this slot's holders allocated, less those they freed
    /// ([`IndirectionTable::note_freed`]; wrapping: a holder may free what
    /// other slots allocated).
    live: PlainU64,
    entries: [AtomicPtr<IndirEntry>; MAGAZINE],
}

impl Magazine {
    /// Fills the (empty) magazine's cells from `entries`, as far as either
    /// goes, and returns how many it took. The caller stores `len`.
    fn stock(&self, entries: impl Iterator<Item = EntryRef>) -> usize {
        let stocked = self.entries.iter().zip(entries).map(|(cell, entry)| {
            cell.store(entry.0.as_ptr(), Ordering::Relaxed);
        });
        stocked.count()
    }
}

/// One shard of recycled entries.
#[derive(Debug)]
struct FreeShard {
    /// The batches releases arrived in, each in an allocation of its own
    /// that goes back to the heap when refills have used it up. (One vector
    /// per shard, growing by doubling while a 4 M-entry context is dropped,
    /// left 20 MB of reallocation holes behind.)
    batches: Mutex<Vec<Vec<EntryRef>>>,
    /// Entries in `batches`, stored under the lock and read without it, so
    /// a refill passes an empty shard by without locking it.
    len: PlainUsize,
}

/// The chunks, and how much of the newest one no magazine has taken yet.
#[derive(Debug, Default)]
struct Chunks {
    chunks: Vec<Box<[IndirEntry]>>,
    /// Entries at the tail of the newest chunk that were never handed out.
    uncarved: usize,
}

/// The growable, address-stable table of indirection entries.
#[derive(Debug)]
pub struct IndirectionTable {
    chunks: Mutex<Chunks>,
    /// Indexed by epoch thread slot; popped only by the slot's holder.
    magazines: Box<[Magazine]>,
    free: [FreeShard; SHARDS],
    /// Picks the shard the next released batch goes to.
    next_shard: PlainUsize,
    /// Entries released through [`release_many`](Self::release_many), whose
    /// caller may hold no thread slot to count them in.
    released_unindexed: PlainU64,
    quarantined: AtomicU64,
    /// Locks `allocate` has taken (see [`entry_refills`](Self::entry_refills)).
    refills: PlainU64,
}

impl IndirectionTable {
    /// An empty table.
    pub fn new() -> Self {
        let magazine = |_| Magazine {
            len: PlainUsize::new(0),
            live: PlainU64::new(0),
            entries: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
        };
        let shard = |_| FreeShard {
            batches: Mutex::new(Vec::new()),
            len: PlainUsize::new(0),
        };
        IndirectionTable {
            chunks: Mutex::new(Chunks::default()),
            magazines: (0..MAX_THREADS).map(magazine).collect(),
            free: std::array::from_fn(shard),
            next_shard: PlainUsize::new(0),
            released_unindexed: PlainU64::new(0),
            quarantined: AtomicU64::new(0),
            refills: PlainU64::new(0),
        }
    }

    /// Allocates an entry with a null payload from the magazine of `slot`,
    /// a slot of the epoch registry this table is used beside, which the
    /// calling thread holds.
    ///
    /// The returned entry keeps whatever incarnation its previous life ended
    /// with — references to the previous occupant already fail their check
    /// because release bumped the incarnation.
    #[inline]
    pub fn allocate(&self, slot: Slot<'_>) -> EntryRef {
        let magazine = &self.magazines[slot.index()];
        let mut len = magazine.len.load(Ordering::Relaxed);
        if len == 0 {
            len = self.refill(magazine, slot);
        }
        len -= 1;
        magazine.len.store(len, Ordering::Relaxed);
        let live = magazine.live.load(Ordering::Relaxed);
        magazine.live.store(live.wrapping_add(1), Ordering::Relaxed);
        let entry = magazine.entries[len].load(Ordering::Relaxed);
        EntryRef(NonNull::new(entry).expect("a magazine slot below len holds an entry"))
    }

    /// Restocks an empty magazine under one lock and returns its new length
    /// (never 0): recycled entries if some shard has any, else the next run
    /// of fresh ones.
    #[cold]
    fn refill(&self, magazine: &Magazine, slot: Slot<'_>) -> usize {
        let home = slot.index() & (SHARDS - 1);
        for offset in 0..SHARDS {
            let shard = &self.free[(home + offset) & (SHARDS - 1)];
            if shard.len.load(Ordering::Relaxed) == 0 {
                continue;
            }
            self.refills.fetch_add(1, Ordering::Relaxed);
            let mut batches = shard.batches.lock();
            // None: another refill emptied the shard between the peek and
            // the lock.
            if let Some(batch) = batches.last_mut() {
                let keep = batch.len().saturating_sub(MAGAZINE);
                let taken = magazine.stock(batch.drain(keep..));
                if keep == 0 {
                    batches.pop();
                }
                let left = shard.len.load(Ordering::Relaxed) - taken;
                shard.len.store(left, Ordering::Relaxed);
                return taken;
            }
        }
        self.refills.fetch_add(1, Ordering::Relaxed);
        let mut fresh = self.chunks.lock();
        if fresh.uncarved == 0 {
            let chunk = (0..CHUNK_ENTRIES).map(|_| IndirEntry {
                payload: AtomicUsize::new(0),
                inc: IncWord::new(0),
            });
            fresh.chunks.push(chunk.collect());
            fresh.uncarved = CHUNK_ENTRIES;
        }
        let start = CHUNK_ENTRIES - fresh.uncarved;
        let newest = fresh.chunks.last().expect("a chunk was just ensured");
        let taken = magazine.stock(newest[start..].iter().map(|e| EntryRef(NonNull::from(e))));
        fresh.uncarved -= taken;
        taken
    }

    /// Puts released entries on one shard's free list, as one batch under
    /// one lock, with their payloads cleared.
    ///
    /// The releaser must already have bumped each entry's incarnation (that
    /// is part of `free`'s protocol, §3.5). Entries whose incarnation
    /// counter reached its limit are quarantined instead of reused — the
    /// paper's overflow rule ("we stop reusing these memory slots", §3.1).
    pub(crate) fn recycle(&self, entries: impl IntoIterator<Item = EntryRef>) {
        let mut worn_out = 0u64;
        let reusable = entries.into_iter().filter(|entry| {
            let worn = entry.get().inc().incarnation() >= INC_LIMIT - 1;
            worn_out += u64::from(worn);
            !worn
        });
        let cleared = reusable.inspect(|entry| entry.get().store_payload(0, Ordering::Release));
        let mut batch: Vec<EntryRef> = cleared.collect();
        if worn_out > 0 {
            self.quarantined.fetch_add(worn_out, Ordering::Relaxed);
        }
        let target = self.next_shard.fetch_add(1, Ordering::Relaxed);
        #[cfg(smc_check)]
        if mutation::enabled(Mutation::ReleaseIntoForeignMagazine) {
            // Re-introduced bug: skip the lock and stock a magazine directly
            // — one whose slot the releasing thread does not hold, so its
            // plain read-then-write of `len` races the holder's pop. The
            // magazine's words are not switch points; the mutation names the
            // window between its load and its stores itself.
            let foreign = crate::epoch::forged_slot(target % MAX_THREADS);
            let magazine = &self.magazines[foreign.index()];
            for entry in batch {
                let len = magazine.len.load(Ordering::Relaxed).min(MAGAZINE - 1);
                smc_util::sync::yield_point();
                magazine.entries[len].store(entry.0.as_ptr(), Ordering::Relaxed);
                magazine.len.store(len + 1, Ordering::Relaxed);
            }
            return;
        }
        if batch.is_empty() {
            return;
        }
        // Millions of entries wait here while a big context is dropped: do
        // not let each batch keep its growth slack on top.
        batch.shrink_to_fit();
        let shard = &self.free[target & (SHARDS - 1)];
        let mut batches = shard.batches.lock();
        let listed = shard.len.load(Ordering::Relaxed) + batch.len();
        shard.len.store(listed, Ordering::Relaxed);
        batches.push(batch);
    }

    /// Returns the entries of freed objects to the free lists at once — one
    /// lock and one count for the whole batch — and returns how many there
    /// were. That suits a whole context going away; a single `free` counts
    /// its entry out through `note_freed` and leaves it in the runtime's
    /// graveyard for two epochs.
    pub fn release_many(&self, entries: impl IntoIterator<Item = EntryRef>) -> u64 {
        let mut released = 0u64;
        self.recycle(entries.into_iter().inspect(|_| released += 1));
        self.released_unindexed
            .fetch_add(released, Ordering::Relaxed);
        released
    }

    /// Counts one entry, freed by the holder of `slot`, out of the live
    /// total. The entry itself waits in the runtime's graveyard: a stale
    /// direct pointer following a tombstone (§6) reads it until every
    /// critical section that could still hold such a pointer has ended.
    pub(crate) fn note_freed(&self, slot: Slot<'_>) {
        let live = &self.magazines[slot.index()].live;
        live.store(
            live.load(Ordering::Relaxed).wrapping_sub(1),
            Ordering::Relaxed,
        );
    }

    /// Number of live (allocated, unreleased) entries: the sum of every
    /// thread slot's share less the batch releases. Each term is read on its
    /// own, so the sum is exact once allocation and release are quiescent
    /// and an estimate (never negative) while they run.
    pub fn live_entries(&self) -> u64 {
        let shares = self
            .magazines
            .iter()
            .map(|m| m.live.load(Ordering::Relaxed));
        let allocated = shares.fold(0u64, u64::wrapping_add);
        let live = allocated.wrapping_sub(self.released_unindexed.load(Ordering::Relaxed));
        (live as i64).max(0) as u64
    }

    /// Checks that every entry is in exactly one place: `capacity == live +
    /// in magazines + free + deferred + quarantined`, where `deferred` is
    /// the count of freed entries the caller holds outside the table (the
    /// runtime's graveyard). Like [`live_entries`](Self::live_entries),
    /// meaningful only while nothing allocates or releases. The error names
    /// every term.
    pub fn check_conserved(&self, deferred: u64) -> Result<(), String> {
        let (capacity, live) = (self.capacity() as u64, self.live_entries());
        let (stocked, free) = (self.magazine_entries(), self.free_entries());
        let worn = self.quarantined_entries();
        if capacity == live + stocked + free + deferred + worn {
            return Ok(());
        }
        Err(format!(
            "indirection entries not conserved: capacity {capacity} != live {live} \
             + in magazines {stocked} + free {free} + deferred {deferred} \
             + quarantined {worn}"
        ))
    }

    /// Free entries stocked in thread slots' magazines.
    pub(crate) fn magazine_entries(&self) -> u64 {
        let stocks = self.magazines.iter().map(|m| m.len.load(Ordering::Relaxed));
        stocks.sum::<usize>() as u64
    }

    /// Free entries in no magazine: recycled ones on the free lists, and the
    /// uncarved tail of the newest chunk.
    pub(crate) fn free_entries(&self) -> u64 {
        let listed = self.free.iter().map(|s| s.len.load(Ordering::Relaxed));
        (listed.sum::<usize>() + self.chunks.lock().uncarved) as u64
    }

    /// Number of entries permanently retired due to incarnation overflow.
    pub fn quarantined_entries(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Locks [`allocate`](Self::allocate) has taken: one per magazine refill
    /// (a free-list shard's, or the chunk list's when no shard has entries),
    /// and one more whenever a racing refill emptied the shard it was about
    /// to take from. `MAGAZINE` allocations share each.
    pub fn entry_refills(&self) -> u64 {
        self.refills.load(Ordering::Relaxed)
    }

    /// Total entries the table has ever materialized.
    pub fn capacity(&self) -> usize {
        self.chunks.lock().chunks.len() * CHUNK_ENTRIES
    }
}

impl Default for IndirectionTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::EpochManager;
    use std::collections::HashSet;

    fn assert_conserved(t: &IndirectionTable) {
        t.check_conserved(0).unwrap();
    }

    /// Runs `f` with a slot of a fresh registry, which the calling thread
    /// holds.
    fn with_slot<R>(f: impl FnOnce(Slot<'_>) -> R) -> R {
        let mgr = EpochManager::new();
        f(mgr.slot().expect("a fresh registry has room"))
    }

    #[test]
    fn allocate_initializes_null_payload() {
        let t = IndirectionTable::new();
        let e = with_slot(|me| t.allocate(me));
        assert_eq!(e.get().load_payload(Ordering::Acquire), 0);
        assert_eq!(t.live_entries(), 1);
        assert_eq!(t.capacity(), CHUNK_ENTRIES);
        assert_eq!(t.magazine_entries(), MAGAZINE as u64 - 1);
        assert_eq!(t.free_entries(), (CHUNK_ENTRIES - MAGAZINE) as u64);
        assert_conserved(&t);
    }

    #[test]
    fn release_allows_reuse_with_bumped_incarnation() {
        let mgr = EpochManager::new();
        let me = mgr.slot().unwrap();
        let t = IndirectionTable::new();
        let e = t.allocate(me);
        e.get().store_payload(0xdead0, Ordering::Release);
        let old_inc = e.get().inc().incarnation();
        e.get().inc().bump();
        assert_eq!(t.release_many([e]), 1);
        assert_eq!(t.live_entries(), 0);
        // Recycled entries restock a magazine before fresh ones do: ours
        // comes back once the stock in hand is used up.
        let mut found = false;
        for _ in 0..CHUNK_ENTRIES {
            let e2 = t.allocate(me);
            if e2 == e {
                assert_ne!(e2.get().inc().incarnation(), old_inc);
                assert_eq!(e2.get().load_payload(Ordering::Acquire), 0);
                found = true;
                break;
            }
        }
        assert!(found, "released entry should be recycled");
        assert_eq!(t.capacity(), CHUNK_ENTRIES);
        assert_conserved(&t);
    }

    #[test]
    fn addr_round_trip() {
        let t = IndirectionTable::new();
        let e = with_slot(|me| t.allocate(me));
        let addr = e.addr();
        let e2 = unsafe { EntryRef::from_addr(addr) };
        assert_eq!(e, e2);
    }

    #[test]
    fn grows_beyond_one_chunk() {
        let t = IndirectionTable::new();
        let n = CHUNK_ENTRIES * 2 + 5;
        let entries: Vec<_> = with_slot(|me| (0..n).map(|_| t.allocate(me)).collect());
        assert!(t.capacity() >= CHUNK_ENTRIES * 2);
        // All distinct.
        let set: HashSet<_> = entries.iter().map(|e| e.addr()).collect();
        assert_eq!(set.len(), entries.len());
        assert_conserved(&t);
    }

    #[test]
    fn entries_are_address_stable_across_growth() {
        let t = IndirectionTable::new();
        let mgr = EpochManager::new();
        let me = mgr.slot().unwrap();
        let first = t.allocate(me);
        first.get().store_payload(42, Ordering::Release);
        for _ in 0..CHUNK_ENTRIES * 3 {
            t.allocate(me);
        }
        assert_eq!(first.get().load_payload(Ordering::Acquire), 42);
    }

    #[test]
    fn overflowed_entries_are_quarantined() {
        let t = IndirectionTable::new();
        let mgr = EpochManager::new();
        let me = mgr.slot().unwrap();
        let e = t.allocate(me);
        // Force the incarnation to the limit, then release.
        e.get().inc().store(INC_LIMIT - 1, Ordering::Release);
        t.release_many([e]);
        assert_eq!(t.quarantined_entries(), 1);
        // The quarantined entry must not come back.
        for _ in 0..CHUNK_ENTRIES * 2 {
            assert_ne!(t.allocate(me), e);
        }
        assert_conserved(&t);
    }

    #[test]
    fn a_refill_takes_one_lock_for_a_whole_magazine() {
        let t = IndirectionTable::new();
        let mgr = EpochManager::new();
        let me = mgr.slot().unwrap();
        assert_eq!(me.index(), 0, "the first registrant");
        let fresh: Vec<_> = (0..3 * MAGAZINE).map(|_| t.allocate(me)).collect();
        assert_eq!(t.entry_refills(), 3, "fresh runs, one lock each");
        // A released batch lands on one shard under one lock, whichever
        // shard that is, and restocks whole magazines from there: recycled
        // entries first, and the second registrant's home shard holds none
        // of them.
        for e in &fresh {
            e.get().inc().bump();
        }
        t.release_many(fresh.iter().copied());
        let second = || {
            let other = mgr.slot().unwrap();
            assert_eq!(other.index(), 1, "the second registrant");
            (0..3 * MAGAZINE)
                .map(|_| t.allocate(other))
                .collect::<HashSet<_>>()
        };
        let recycled = std::thread::scope(|s| s.spawn(second).join().unwrap());
        assert_eq!(recycled, fresh.into_iter().collect());
        assert_eq!(t.entry_refills(), 6);
        assert_eq!(t.capacity(), CHUNK_ENTRIES, "nothing grew");
        assert_conserved(&t);
    }

    /// `epoch::tests::thread_slots_are_reused_after_thread_exit`, with a
    /// magazine riding on the slot: each thread leaves it part full, and the
    /// next claimer of the slot carries on from there.
    #[test]
    fn a_part_full_magazine_passes_to_the_slots_next_claimer() {
        let mgr = EpochManager::new();
        let table = std::sync::Arc::new(IndirectionTable::new());
        let mut handed_out = HashSet::new();
        let mut total = 0;
        for round in 0..12 {
            // Stocks of every size, a whole magazine and none included.
            let take = [5, MAGAZINE, 0, MAGAZINE + 7][round % 4];
            let (m, t) = (mgr.clone(), table.clone());
            let body = move || {
                let me = m.slot().unwrap();
                let taken: Vec<_> = (0..take).map(|_| t.allocate(me).addr()).collect();
                (me.index(), taken)
            };
            let (tid, taken) = std::thread::spawn(body).join().unwrap();
            assert_eq!(tid, 0, "sequential threads land on the freed slot");
            total += take;
            for addr in taken {
                assert!(handed_out.insert(addr), "entry handed out twice");
            }
            // Nothing lost: every refill so far was used up before the next.
            assert_eq!(table.entry_refills(), total.div_ceil(MAGAZINE) as u64);
            let stock = table.entry_refills() * MAGAZINE as u64 - total as u64;
            assert_eq!(table.magazine_entries(), stock);
            assert_eq!(table.live_entries(), total as u64);
            assert_conserved(&table);
        }
    }

    #[test]
    fn concurrent_allocate_release() {
        let t = std::sync::Arc::new(IndirectionTable::new());
        let mgr = EpochManager::new();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (t, m) = (t.clone(), mgr.clone());
            handles.push(std::thread::spawn(move || {
                let me = m.slot().unwrap();
                let mut held = Vec::new();
                for i in 0..2000 {
                    held.push(t.allocate(me));
                    if i % 3 == 0 {
                        let e: EntryRef = held.swap_remove(held.len() / 2);
                        e.get().inc().bump();
                        if i % 2 == 0 {
                            t.release_many([e]);
                        } else {
                            // A `free`'s path, its graveyard wait skipped.
                            t.note_freed(me);
                            t.recycle([e]);
                        }
                    }
                }
                held
            }));
        }
        let held: Vec<_> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        assert_eq!(t.live_entries(), held.len() as u64);
        let distinct: HashSet<_> = held.iter().collect();
        assert_eq!(
            distinct.len(),
            held.len(),
            "a live entry was handed out twice"
        );
        assert_conserved(&t);
    }
}
