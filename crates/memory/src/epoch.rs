//! Epoch-based memory reclamation (§3.4).
//!
//! Threads access self-managed objects inside *critical sections* (the
//! paper's grace periods). The system maintains a continuously increasing
//! global epoch plus one thread-local epoch per registered thread; a thread
//! entering a critical section copies the global epoch into its slot and
//! raises an `in_critical` flag, with a full fence so the publication is
//! visible before any object access. The global epoch may be advanced from
//! `e` to `e + 1` only when every thread currently inside a critical section
//! has reached `e`; consequently memory freed in epoch `e` can be reused in
//! epoch `e + 2`, when no thread can still be reading it.
//!
//! Deviations from Fraser's original scheme follow the paper (§3.4): epochs
//! are a continuous counter (not modulo 3), and epoch advancement happens
//! lazily inside the allocator when reclaimable blocks are waiting, not on
//! critical-section exit.
//!
//! ## Entry race and why it is safe here
//!
//! A thread can read the global epoch `e`, stall, and publish `e` after the
//! global already moved past `e`. Classic EBR implementations close this
//! with a publish-recheck loop; we do the same (`EpochManager::enter`),
//! and additionally every object access re-validates an incarnation number
//! *after* entering, so even a stale-epoch entry can at worst observe limbo
//! memory that is still block-resident — never unmapped memory, because a
//! buried block is freed only once the global epoch has passed the epoch it
//! was buried at ([`Runtime::drain_graveyard`](crate::runtime::Runtime::drain_graveyard)).
//!
//! ## One handle per thread slot
//!
//! Every per-thread structure of the memory system (a slot's block cache,
//! entry magazine and counter cell, a context's allocation block, the
//! advance reservation) is indexed by the registry slot of the thread that
//! uses it, and is reached only through the [`Slot`] token this module
//! makes: [`EpochManager::slot`] on registration, [`Guard::slot`] from a
//! pin. DESIGN.md §16 "One handle per thread slot" says what the token
//! proves and why none outlives its thread's registration.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};

use crate::error::MemError;
use crate::fault::{FaultInjector, FaultSite};
use smc_util::mutation::{self, Mutation};
use smc_util::sync::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize};

/// Maximum number of threads that may concurrently use one manager.
#[cfg(not(smc_check))]
pub const MAX_THREADS: usize = 128;
/// Maximum number of threads that may concurrently use one manager (reduced
/// under the model checker: `all_threads_at` walks every slot, and each walk
/// is a chain of interleaving points that would explode the state space).
#[cfg(smc_check)]
pub const MAX_THREADS: usize = 8;

/// Sentinel for "no thread holds the advance reservation".
const NO_RESERVATION: usize = usize::MAX;

/// Per-thread epoch slot (the paper's `sectionCtx[threadId]`).
#[derive(Debug)]
struct ThreadSlot {
    /// Thread-local epoch, meaningful while `depth > 0`.
    epoch: AtomicU64,
    /// Critical-section nesting depth; non-zero means "in critical section".
    depth: AtomicU32,
    /// Slot ownership: 0 free, 1 claimed.
    claimed: AtomicU32,
    /// [`smc_obs::clock::now`] at which the current outermost critical
    /// section was entered. Observability-only, so deliberately a *plain*
    /// std atomic — the instrumented `smc_util::sync` types would add
    /// model-checker switch points to every pin and blow up the `smc_check`
    /// state space.
    pin_start: std::sync::atomic::AtomicU64,
}

impl ThreadSlot {
    const fn new() -> Self {
        ThreadSlot {
            epoch: AtomicU64::new(0),
            depth: AtomicU32::new(0),
            claimed: AtomicU32::new(0),
            pin_start: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

/// The global epoch state shared by all threads of one runtime.
#[derive(Debug)]
pub struct EpochManager {
    global: AtomicU64,
    slots: Box<[ThreadSlot]>,
    /// Unique id used to key thread-local registrations.
    id: u64,
    /// Advance reservation: during compaction only the compaction thread may
    /// advance the global epoch (§5.1: "no other but the compaction thread
    /// can increment the global epoch until the compaction is finished").
    reserved_by: AtomicUsize,
    /// The relocation epoch announced by an in-flight compaction, or 0
    /// (§5.1's `nextRelocationEpoch`). Lives here so a dereference slow path
    /// can reach it through its [`Guard`] alone.
    next_relocation_epoch: AtomicU64,
    /// True during the moving phase of the relocation epoch (§5.1's
    /// `inMovingPhase`).
    in_moving_phase: AtomicBool,
    /// Failpoint registry shared with the owning runtime (a detached,
    /// permanently-disarmed one for bare managers).
    faults: Arc<FaultInjector>,
    /// Distribution of outermost critical-section hold times in
    /// nanoseconds, fed on every [`Guard`] drop. Long pins are what stall
    /// epoch advancement (and therefore reclamation and compaction), so the
    /// observatory surfaces this next to [`epoch_lag`](Self::epoch_lag).
    pin_hold_ns: smc_obs::Histogram,
}

/// Source of [`EpochManager::id`]: starts at 1 and never hands a value out
/// twice, so id 0 names no manager and the id of a dropped manager names no
/// later one.
static NEXT_MANAGER_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

struct Registration {
    mgr_id: u64,
    idx: usize,
    mgr: Weak<EpochManager>,
}

/// Thread-local registration table; the drop releases slots when the thread
/// exits so slots can be reused by later threads.
struct TlsRegistry {
    regs: Vec<Registration>,
}

impl Drop for TlsRegistry {
    fn drop(&mut self) {
        // First: a slot released below may be claimed by another thread at
        // once, and a destructor of some other thread-local that runs after
        // this one must not be answered from the cache with a slot this
        // thread no longer holds. (Nor can it register again: the registry
        // is gone, so `slot` answers it with an error.)
        LAST_HIT.set((0, 0));
        for reg in &self.regs {
            if let Some(mgr) = reg.mgr.upgrade() {
                mgr.release_slot(reg.idx);
            }
        }
    }
}

thread_local! {
    static REGISTRY: RefCell<TlsRegistry> = const { RefCell::new(TlsRegistry { regs: Vec::new() }) };
    /// The `(manager id, slot)` [`EpochManager::slot`] answered last
    /// on this thread, in front of the registry walk. A manager's id is
    /// never reused (`NEXT_MANAGER_ID`), so an entry left behind by a
    /// dropped manager matches no live one; `(0, 0)` matches nothing.
    static LAST_HIT: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

impl EpochManager {
    /// Creates a manager with epoch 0 and no registered threads (the
    /// runtime's own is [`with_faults`](Self::with_faults)).
    #[cfg(any(test, smc_check))]
    pub fn new() -> Arc<Self> {
        Self::with_faults(Arc::new(FaultInjector::detached()))
    }

    /// Creates a manager whose failpoints report to `faults` (used by
    /// [`Runtime`](crate::runtime::Runtime) so one registry covers the whole
    /// memory system).
    pub fn with_faults(faults: Arc<FaultInjector>) -> Arc<Self> {
        let slots = (0..MAX_THREADS)
            .map(|_| ThreadSlot::new())
            .collect::<Vec<_>>();
        Arc::new(EpochManager {
            global: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
            id: NEXT_MANAGER_ID.fetch_add(1, Ordering::Relaxed),
            reserved_by: AtomicUsize::new(NO_RESERVATION),
            next_relocation_epoch: AtomicU64::new(0),
            in_moving_phase: AtomicBool::new(false),
            faults,
            pin_hold_ns: smc_obs::Histogram::new(),
        })
    }

    /// Current global epoch.
    #[inline]
    pub fn global_epoch(&self) -> u64 {
        self.global.load(Ordering::SeqCst)
    }

    /// The calling thread's [`Slot`], registering on first use. One
    /// thread-local load and one compare when the thread asked this manager
    /// last; otherwise the registry walk. `Err(MemError::TooManyThreads)`
    /// when every slot is held, when an injected [`FaultSite::ThreadClaim`]
    /// failure refuses the claim, or when the thread's registry is already
    /// gone (a thread-local destructor that runs after the registry's).
    #[inline]
    pub fn slot(self: &Arc<Self>) -> Result<Slot<'_>, MemError> {
        let (id, idx) = LAST_HIT.get();
        if id == self.id {
            return Ok(self.token(idx));
        }
        self.slot_slow()
    }

    #[cold]
    fn slot_slow(self: &Arc<Self>) -> Result<Slot<'_>, MemError> {
        let registered = REGISTRY.try_with(|r| {
            let mut reg = r.borrow_mut();
            let idx = match reg.regs.iter().find(|x| x.mgr_id == self.id) {
                Some(existing) => existing.idx,
                None => {
                    // A registration whose manager is gone would lengthen
                    // every later walk and keep the manager's allocation
                    // alive through its `Weak` for the life of the thread.
                    reg.regs.retain(|x| x.mgr.strong_count() > 0);
                    let idx = self.claim_slot()?;
                    reg.regs.push(Registration {
                        mgr_id: self.id,
                        idx,
                        mgr: Arc::downgrade(self),
                    });
                    idx
                }
            };
            LAST_HIT.set((self.id, idx));
            Ok(idx)
        });
        let idx = registered.unwrap_or(Err(MemError::TooManyThreads))?;
        Ok(self.token(idx))
    }

    /// The token for slot `idx` of this manager; the callers above have
    /// just found the calling thread holding it.
    #[inline]
    fn token(&self, idx: usize) -> Slot<'_> {
        Slot {
            idx,
            manager: self.id,
            _held_here: PhantomData,
        }
    }

    fn claim_slot(&self) -> Result<usize, MemError> {
        if self.faults.should_fail(FaultSite::ThreadClaim) {
            return Err(MemError::TooManyThreads);
        }
        for (i, slot) in self.slots.iter().enumerate() {
            if slot
                .claimed
                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                slot.depth.store(0, Ordering::Release);
                return Ok(i);
            }
        }
        Err(MemError::TooManyThreads)
    }

    /// Gives slot `idx` back when its thread exits, unless a guard of the
    /// thread still pins it: a `Guard` kept in a thread-local whose
    /// destructor runs after the registry's drops after this, and the slot
    /// it would unpin must not be another thread's by then. Such a slot
    /// stays claimed for the life of the manager.
    fn release_slot(&self, idx: usize) {
        if self.slots[idx].depth.load(Ordering::Acquire) == 0 {
            self.slots[idx].claimed.store(0, Ordering::Release);
        }
    }

    /// Enters a critical section (the paper's `enter_critical_section`) and
    /// returns a [`Guard`] whose drop exits it. Re-entrant: nested guards
    /// share the outermost guard's epoch.
    ///
    /// Panics if the thread registry is full; use [`try_pin`](Self::try_pin)
    /// where that must surface as an error instead.
    #[cfg(any(test, smc_check))]
    pub fn pin(self: &Arc<Self>) -> Guard<'_> {
        self.try_pin().expect("epoch thread registry full")
    }

    /// Fallible [`pin`](Self::pin): `Err(MemError::TooManyThreads)` when the
    /// calling thread cannot register (registry exhausted, or an injected
    /// [`FaultSite::ThreadClaim`] failure).
    pub fn try_pin(self: &Arc<Self>) -> Result<Guard<'_>, MemError> {
        let idx = self.slot()?.idx;
        self.enter(idx);
        Ok(Guard {
            mgr: self,
            idx,
            _pinned_to_thread: PhantomData,
        })
    }

    fn enter(&self, idx: usize) {
        let slot = &self.slots[idx];
        let depth = slot.depth.load(Ordering::Relaxed);
        if depth == 0 {
            if mutation::enabled(Mutation::NoPublishRecheck) {
                // Re-introduced bug: publish once without rechecking, leaving
                // the entry race open against a concurrent advance.
                let e = self.global.load(Ordering::SeqCst);
                slot.epoch.store(e, Ordering::SeqCst);
                slot.depth.store(1, Ordering::SeqCst);
                fence(Ordering::SeqCst);
                slot.pin_start
                    .store(smc_obs::clock::now(), Ordering::Relaxed);
                return;
            }
            // Publish-recheck loop: republish until the global epoch is
            // stable across our publication, closing the entry race.
            let mut e = self.global.load(Ordering::SeqCst);
            loop {
                slot.epoch.store(e, Ordering::SeqCst);
                slot.depth.store(1, Ordering::SeqCst);
                fence(Ordering::SeqCst);
                let now = self.global.load(Ordering::SeqCst);
                if now == e {
                    break;
                }
                e = now;
            }
            slot.pin_start
                .store(smc_obs::clock::now(), Ordering::Relaxed);
        } else {
            slot.depth.store(depth + 1, Ordering::Relaxed);
        }
    }

    fn exit(&self, idx: usize) {
        let slot = &self.slots[idx];
        let depth = slot.depth.load(Ordering::Relaxed);
        debug_assert!(depth > 0, "exit without matching enter");
        if depth == 1 {
            let held = smc_obs::clock::now().saturating_sub(slot.pin_start.load(Ordering::Relaxed));
            fence(Ordering::SeqCst); // order object accesses before the clear
            slot.depth.store(0, Ordering::SeqCst);
            // Recorded after the clear so the histogram update never
            // extends the critical section it measures.
            self.pin_hold_ns.record(held);
        } else {
            slot.depth.store(depth - 1, Ordering::Relaxed);
        }
    }

    /// True if every thread currently in a critical section — except
    /// `exclude`, if given — has reached global epoch `e`.
    fn all_threads_at(&self, e: u64, exclude: Option<usize>) -> bool {
        for (i, slot) in self.slots.iter().enumerate() {
            if Some(i) == exclude {
                continue;
            }
            if slot.claimed.load(Ordering::Acquire) == 0 {
                continue;
            }
            if slot.depth.load(Ordering::SeqCst) > 0 && slot.epoch.load(Ordering::SeqCst) != e {
                return false;
            }
        }
        true
    }

    /// Attempts to advance the global epoch by one. Fails if some in-critical
    /// thread lags behind, or if another thread holds the advance
    /// reservation. Returns the new epoch on success.
    pub fn try_advance(&self) -> Option<u64> {
        self.try_advance_from(None)
    }

    /// [`try_advance`](Self::try_advance) on behalf of the holder of `me`,
    /// ignoring that thread's own pinned epoch (used by the compaction
    /// thread, which sits in a critical section at `e` while driving the
    /// global epoch forward, §5.1).
    pub(crate) fn try_advance_excluding(&self, me: Slot<'_>) -> Option<u64> {
        self.try_advance_from(Some(self.index_of(me)))
    }

    /// `slot`'s index, which must name a slot of this manager.
    #[inline]
    fn index_of(&self, slot: Slot<'_>) -> usize {
        debug_assert_eq!(slot.manager, self.id, "a slot of another manager");
        slot.idx
    }

    fn try_advance_from(&self, me: Option<usize>) -> Option<u64> {
        if self.faults.should_fail(FaultSite::EpochAdvance) {
            return None;
        }
        let reserved = self.reserved_by.load(Ordering::Acquire);
        if reserved != NO_RESERVATION && Some(reserved) != me {
            return None;
        }
        let e = self.global.load(Ordering::SeqCst);
        // Re-introduced bug (`AdvanceIgnoresPinned`): skip the "all pinned
        // threads reached e" check, reclaiming memory under live readers.
        if !mutation::enabled(Mutation::AdvanceIgnoresPinned) && !self.all_threads_at(e, me) {
            return None;
        }
        match self
            .global
            .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => {
                smc_obs::trace::emit(smc_obs::Event::EpochAdvance { epoch: e + 1 });
                Some(e + 1)
            }
            Err(_) => None,
        }
    }

    /// True if every in-critical thread other than the holder of `me` has
    /// reached `epoch` — the §5.1 condition for the compaction thread to
    /// conclude that "all other threads are in the relocation epoch".
    pub(crate) fn can_advance_excluding(&self, me: Slot<'_>, epoch: u64) -> bool {
        self.all_threads_at(epoch, Some(self.index_of(me)))
    }

    /// The announced relocation epoch, 0 if no compaction is pending (§5.1).
    #[inline]
    pub fn next_relocation_epoch(&self) -> u64 {
        self.next_relocation_epoch.load(Ordering::SeqCst)
    }

    /// Announces (or clears, with 0) the relocation epoch.
    pub fn set_relocation_epoch(&self, e: u64) {
        self.next_relocation_epoch.store(e, Ordering::SeqCst);
    }

    /// True while the in-flight compaction is moving objects.
    #[inline]
    pub fn in_moving_phase(&self) -> bool {
        self.in_moving_phase.load(Ordering::SeqCst)
    }

    /// Opens or closes the moving phase.
    pub fn set_moving_phase(&self, on: bool) {
        self.in_moving_phase.store(on, Ordering::SeqCst);
    }

    /// Reserves epoch advancement for the holder of `me`. Returns false if
    /// another reservation is active.
    pub(crate) fn reserve_advance(&self, me: Slot<'_>) -> bool {
        let idx = self.index_of(me);
        self.reserved_by
            .compare_exchange(NO_RESERVATION, idx, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Releases an advance reservation taken by the holder of `me`.
    pub(crate) fn release_advance(&self, me: Slot<'_>) {
        let _ = self.reserved_by.compare_exchange(
            self.index_of(me),
            NO_RESERVATION,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Histogram of outermost critical-section (pin) hold times in
    /// nanoseconds. Lock-free to read at any time; drives the observatory's
    /// pin hold-time percentiles ([`inspect`](crate::inspect)).
    pub fn pin_hold_ns(&self) -> &smc_obs::Histogram {
        &self.pin_hold_ns
    }

    /// The oldest epoch any thread currently inside a critical section is
    /// pinned at, or `None` when no thread is pinned.
    ///
    /// This is a racy observability read — threads keep entering and
    /// exiting while the slots are walked — but it is *conservatively*
    /// racy in the direction that matters: a slot observed in-critical at
    /// epoch `e` really was pinned at `e` at the moment of the read, and
    /// by the advance invariant the global epoch was then at most `e + 1`.
    pub fn min_pinned_epoch(&self) -> Option<u64> {
        let mut min = None;
        for slot in self.slots.iter() {
            if slot.claimed.load(Ordering::Acquire) == 0 {
                continue;
            }
            if slot.depth.load(Ordering::SeqCst) == 0 {
                continue;
            }
            let e = slot.epoch.load(Ordering::SeqCst);
            min = Some(match min {
                None => e,
                Some(m) if e < m => e,
                Some(m) => m,
            });
        }
        min
    }

    /// How far the global epoch has run ahead of the oldest pinned reader
    /// (0 when nothing is pinned). The §3.4 advance invariant bounds this
    /// at 1 for a consistent observation; values read while readers churn
    /// are still useful as a stall indicator (a reader stuck at lag ≥ 1
    /// for a long interval is what blocks reclamation).
    pub fn epoch_lag(&self) -> u64 {
        match self.min_pinned_epoch() {
            Some(m) => self.global_epoch().saturating_sub(m),
            None => 0,
        }
    }
}

/// The calling thread's hold on one thread slot of its runtime's epoch
/// registry (an epoch *thread* slot, not an object's
/// [`SlotId`](crate::slot::SlotId) in a block). Each per-thread structure
/// of the memory system — the slot's entry magazine, its block cache, its
/// hot-counter cell, a context's current allocation block, the advance
/// reservation a compaction pass takes — is reached through one, and only
/// the registry makes one: for the thread that holds the slot, on
/// registration or from a pinned [`Guard`]. A token is the slot's index and
/// its manager's id, copied by value.
///
/// It is neither `Send` nor `Sync`, so it never leaves the thread that holds
/// the slot, and its lifetime is a borrow of the runtime (or, from
/// [`Guard::slot`], of the guard). The crate derives one per operation and
/// keeps none, and no public function takes one: a token that outlived its
/// thread's registration could be used for nothing.
///
/// ```compile_fail
/// let rt = smc_memory::Runtime::new();
/// let guard = rt.pin();
/// let slot = guard.slot();
/// std::thread::scope(|s| {
///     s.spawn(move || slot.index());
/// });
/// ```
///
/// The entry table behind it is the runtime's own, out of reach from
/// outside the crate:
///
/// ```compile_fail
/// let rt = smc_memory::Runtime::new();
/// let guard = rt.pin();
/// let entry = rt.indirection.allocate(guard.slot());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Slot<'m> {
    idx: usize,
    /// [`EpochManager::id`] of the registry the slot belongs to.
    manager: u64,
    _held_here: PhantomData<(&'m EpochManager, *const ())>,
}

impl Slot<'_> {
    /// The slot's index, below [`MAX_THREADS`]: the same index for as long
    /// as the thread lives, and reused by a later thread after it exits.
    #[inline]
    pub fn index(self) -> usize {
        self.idx
    }
}

/// A token for slot `idx` that the calling thread does not hold. Only the
/// model checker's mutations make one, to write another thread's
/// per-thread structure: the bug each of them re-introduces.
#[cfg(smc_check)]
pub(crate) fn forged_slot(idx: usize) -> Slot<'static> {
    Slot {
        idx,
        manager: 0,
        _held_here: PhantomData,
    }
}

/// An active critical section. Object dereferences require a `&Guard`; the
/// guard's lifetime bounds every reference obtained through it, which is the
/// Rust rendering of "all accesses to objects are valid as long as the
/// incarnation numbers matched at the time they were checked" within a grace
/// period (§3.4).
///
/// A guard pins its thread's registry slot, so it is neither `Send` nor
/// `Sync`: the slot is released when its thread exits, and a guard that
/// outlived that thread would pin nothing while the global epoch moves on.
///
/// ```compile_fail
/// let rt = smc_memory::Runtime::new();
/// let guard = std::thread::scope(|s| s.spawn(|| rt.pin()).join().unwrap());
/// ```
#[derive(Debug)]
pub struct Guard<'e> {
    mgr: &'e Arc<EpochManager>,
    idx: usize,
    _pinned_to_thread: PhantomData<*const ()>,
}

impl<'e> Guard<'e> {
    /// The epoch this guard's thread is pinned at.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.mgr.slots[self.idx].epoch.load(Ordering::Acquire)
    }

    /// The thread slot this guard pins, for the per-thread structures it
    /// indexes. Borrowed from the guard, so it lives no longer than the pin.
    #[inline]
    pub fn slot(&self) -> Slot<'_> {
        self.mgr.token(self.idx)
    }

    /// True while the in-flight compaction of this guard's runtime is in
    /// its moving phase (§5.1).
    #[inline]
    pub fn in_moving_phase(&self) -> bool {
        self.mgr.in_moving_phase()
    }

    /// True if this guard's thread is pinned in the announced relocation
    /// epoch — the precondition for the §5.1 slow-path cases b and c.
    #[inline]
    pub fn in_relocation_epoch(&self) -> bool {
        let r = self.mgr.next_relocation_epoch();
        r != 0 && self.epoch() == r
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.mgr.exit(self.idx);
    }
}

/// Runs `f` on the calling thread while `MAX_THREADS` other threads hold
/// every registry slot of `mgr` (test fixture for the exhaustion paths).
#[cfg(test)]
pub(crate) fn with_registry_exhausted(mgr: &Arc<EpochManager>, f: impl FnOnce()) {
    let barrier = Arc::new(std::sync::Barrier::new(MAX_THREADS + 1));
    let holders: Vec<_> = (0..MAX_THREADS)
        .map(|_| {
            let (m, b) = (mgr.clone(), barrier.clone());
            std::thread::spawn(move || {
                let registered = m.slot().is_ok();
                b.wait(); // all slots taken
                b.wait(); // `f` has run
                registered
            })
        })
        .collect();
    barrier.wait();
    f();
    barrier.wait();
    for h in holders {
        assert!(h.join().unwrap(), "each of the first MAX_THREADS registers");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn pin_publishes_epoch() {
        let mgr = EpochManager::new();
        let g = mgr.pin();
        assert_eq!(g.epoch(), 0);
        assert_eq!(mgr.min_pinned_epoch(), Some(0));
        drop(g);
        assert_eq!(mgr.min_pinned_epoch(), None);
    }

    #[test]
    fn advance_without_pinned_threads() {
        let mgr = EpochManager::new();
        assert_eq!(mgr.try_advance(), Some(1));
        assert_eq!(mgr.try_advance(), Some(2));
        assert_eq!(mgr.global_epoch(), 2);
    }

    #[test]
    fn pinned_thread_blocks_advance() {
        let mgr = EpochManager::new();
        let _g = mgr.pin();
        // Own pinned epoch (0) equals global (0), so one advance succeeds...
        assert_eq!(mgr.try_advance(), Some(1));
        // ...but a second would leave us two behind, so it must fail.
        assert_eq!(mgr.try_advance(), None);
    }

    #[test]
    fn nested_guards_share_epoch_and_exit_once() {
        let mgr = EpochManager::new();
        let g1 = mgr.pin();
        let g2 = mgr.pin();
        assert_eq!(g1.epoch(), g2.epoch());
        drop(g2);
        // Still pinned: advance twice must fail.
        assert_eq!(mgr.try_advance(), Some(1));
        assert_eq!(mgr.try_advance(), None);
        drop(g1);
        assert_eq!(mgr.try_advance(), Some(2));
    }

    #[test]
    fn reservation_gates_other_threads() {
        let mgr = EpochManager::new();
        let me = mgr.slot().unwrap();
        assert!(mgr.reserve_advance(me));
        let m2 = mgr.clone();
        let other = move || m2.reserve_advance(m2.slot().unwrap());
        assert!(!std::thread::spawn(other).join().unwrap());
        // Other threads (None = anonymous) cannot advance.
        assert_eq!(mgr.try_advance(), None);
        // The reserving thread can, excluding itself.
        assert_eq!(mgr.try_advance_excluding(me), Some(1));
        mgr.release_advance(me);
        assert_eq!(mgr.try_advance(), Some(2));
    }

    #[test]
    fn cross_thread_pin_blocks_then_releases() {
        let mgr = EpochManager::new();
        let entered = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let m2 = mgr.clone();
        let (e2, r2) = (entered.clone(), release.clone());
        let t = std::thread::spawn(move || {
            let _g = m2.pin();
            e2.store(true, Ordering::SeqCst);
            while !r2.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
        });
        while !entered.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        // Remote thread pinned at 0: one advance ok, second blocked.
        assert_eq!(mgr.try_advance(), Some(1));
        assert_eq!(mgr.try_advance(), None);
        release.store(true, Ordering::SeqCst);
        t.join().unwrap();
        assert_eq!(mgr.try_advance(), Some(2));
    }

    #[test]
    fn thread_slots_are_reused_after_thread_exit() {
        let mgr = EpochManager::new();
        let mut first_idx = None;
        for _ in 0..MAX_THREADS + 10 {
            let m = mgr.clone();
            let idx = std::thread::spawn(move || m.slot().unwrap().index())
                .join()
                .unwrap();
            match first_idx {
                None => first_idx = Some(idx),
                // All sequential threads should land on a freed slot.
                Some(_) => assert!(idx < MAX_THREADS),
            }
        }
    }

    #[test]
    fn dead_registrations_are_pruned_and_indices_stay_correct() {
        // On a thread of its own: the registry under test is per thread.
        let body = || {
            let registered = || REGISTRY.with(|r| r.borrow().regs.len());
            let keeper = EpochManager::new();
            let keeper_idx = keeper.slot().unwrap().index();
            // A manager is ~10 KB of atomics to initialise: fewer under Miri.
            for _ in 0..if cfg!(miri) { 50 } else { 1000 } {
                let mgr = EpochManager::new();
                let idx = mgr.slot().unwrap().index();
                // Claimed for real: the cache still names the keeper (or a
                // dropped manager's id, which is never issued again).
                assert_eq!(mgr.slots[idx].claimed.load(Ordering::Acquire), 1);
                drop(mgr.pin());
                assert_eq!(mgr.slot().unwrap().index(), idx);
                assert_eq!(keeper.slot().unwrap().index(), keeper_idx);
                drop(mgr);
                // The keeper, this round's manager, and at most the round
                // before's: pruned when this round's registered.
                assert!(registered() <= 3, "registry grew to {}", registered());
            }
            assert_eq!(keeper.slots[keeper_idx].claimed.load(Ordering::Acquire), 1);
        };
        std::thread::spawn(body).join().unwrap();
    }

    /// A thread-local whose destructor runs after the registry's (its value
    /// was set before the thread first registered: destructors run in the
    /// reverse order of first use) cannot register again, and a guard such
    /// a value holds keeps its slot from the next thread.
    // The manager is leaked on purpose (a guard in a thread-local needs a
    // `'static` one), which Miri's leak check would report.
    #[cfg(target_os = "linux")]
    #[cfg_attr(miri, ignore)]
    #[test]
    fn a_thread_local_destroyed_after_the_registry_gets_no_slot_and_keeps_its_pin() {
        struct Late {
            mgr: &'static Arc<EpochManager>,
            guard: Option<Guard<'static>>,
            refused: Arc<AtomicBool>,
        }
        impl Drop for Late {
            fn drop(&mut self) {
                let refused = matches!(self.mgr.slot(), Err(MemError::TooManyThreads));
                self.refused.store(refused, Ordering::SeqCst);
                drop(self.guard.take());
            }
        }
        thread_local! {
            static LATE: RefCell<Option<Late>> = const { RefCell::new(None) };
        }
        let mgr: &'static Arc<EpochManager> = Box::leak(Box::new(EpochManager::new()));
        let refused = Arc::new(AtomicBool::new(false));
        let r2 = refused.clone();
        let idx = std::thread::spawn(move || {
            LATE.with(|late| {
                *late.borrow_mut() = Some(Late {
                    mgr,
                    guard: None,
                    refused: r2,
                })
            });
            let guard = mgr.pin();
            let idx = guard.slot().index();
            LATE.with(|late| late.borrow_mut().as_mut().unwrap().guard = Some(guard));
            idx
        })
        .join()
        .unwrap();
        assert!(
            refused.load(Ordering::SeqCst),
            "a late destructor registered"
        );
        let claimed = mgr.slots[idx].claimed.load(Ordering::Acquire);
        assert_eq!(claimed, 1, "the pinned slot was handed back");
        assert_eq!(mgr.slots[idx].depth.load(Ordering::Acquire), 0);
        let next = std::thread::spawn(move || mgr.slot().unwrap().index());
        assert_ne!(next.join().unwrap(), idx);
    }

    #[test]
    fn registry_exhaustion_errors_then_recovers() {
        let mgr = EpochManager::new();
        with_registry_exhausted(&mgr, || {
            // Registrant MAX_THREADS + 1: must fail, not panic.
            assert!(matches!(mgr.slot(), Err(MemError::TooManyThreads)));
            assert!(matches!(mgr.try_pin(), Err(MemError::TooManyThreads)));
        });
        // Exited threads released their slots: registration works again.
        assert!(mgr.slot().is_ok());
        assert!(mgr.try_pin().is_ok());
    }

    #[test]
    fn injected_thread_claim_fault_surfaces_as_error() {
        let faults = Arc::new(FaultInjector::detached());
        faults.enable(11);
        faults.set_rate(FaultSite::ThreadClaim, crate::fault::RATE_DENOMINATOR);
        let mgr = EpochManager::with_faults(faults.clone());
        // This thread is unregistered with the fresh manager, so pinning
        // must claim a slot and hit the failpoint.
        assert!(matches!(mgr.try_pin(), Err(MemError::TooManyThreads)));
        faults.disable();
        assert!(mgr.try_pin().is_ok(), "disarmed registry claims normally");
    }

    #[test]
    fn injected_epoch_advance_fault_blocks_progress() {
        let faults = Arc::new(FaultInjector::detached());
        let mgr = EpochManager::with_faults(faults.clone());
        faults.enable(13);
        faults.set_rate(FaultSite::EpochAdvance, crate::fault::RATE_DENOMINATOR);
        assert_eq!(mgr.try_advance(), None);
        assert_eq!(mgr.global_epoch(), 0);
        faults.disable();
        assert_eq!(mgr.try_advance(), Some(1));
    }

    #[test]
    fn pin_hold_time_is_recorded_on_guard_drop() {
        let mgr = EpochManager::new();
        let before = mgr.pin_hold_ns().count();
        {
            let _g = mgr.pin();
            // Nested guards must not double-count.
            let _g2 = mgr.pin();
        }
        assert_eq!(
            mgr.pin_hold_ns().count(),
            before + 1,
            "one outermost pin = one sample"
        );
    }

    #[test]
    fn min_pinned_epoch_and_lag_track_readers() {
        let mgr = EpochManager::new();
        assert_eq!(mgr.min_pinned_epoch(), None);
        assert_eq!(mgr.epoch_lag(), 0);
        let g = mgr.pin();
        assert_eq!(mgr.min_pinned_epoch(), Some(0));
        assert_eq!(mgr.epoch_lag(), 0);
        // One advance succeeds; the pinned reader now lags by exactly 1.
        assert_eq!(mgr.try_advance(), Some(1));
        assert_eq!(mgr.min_pinned_epoch(), Some(0));
        assert_eq!(mgr.epoch_lag(), 1);
        drop(g);
        assert_eq!(mgr.min_pinned_epoch(), None);
        assert_eq!(mgr.epoch_lag(), 0);
    }

    #[test]
    fn many_threads_pin_concurrently() {
        let mgr = EpochManager::new();
        let mut handles = Vec::new();
        for _ in 0..16 {
            let m = mgr.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let g = m.pin();
                    std::hint::black_box(g.epoch());
                    drop(g);
                    let _ = m.try_advance();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // With 16 threads pinning/advancing, the epoch made progress.
        assert!(mgr.global_epoch() > 0);
    }
}
