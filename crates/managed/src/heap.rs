//! The managed heap: allocation budget, safepoints, and the collector.
//!
//! Mutators interact with the heap through [`HeapGuard`]s (shared "the world
//! is running" locks); the collector stops the world by taking the lock
//! exclusively. Allocation debits a nursery budget and, when the budget is
//! exhausted, runs a collection at the next safepoint — so allocation-heavy
//! phases periodically stall on GC work whose cost scales with the live
//! object graph, which is precisely the managed-runtime behaviour the
//! paper's Figures 7–9 measure.
//!
//! Two modes mirror the paper's .NET settings (§7):
//!
//! * [`GcMode::Batch`] — each collection runs fully stop-the-world:
//!   highest throughput, pauses grow with the live set.
//! * [`GcMode::Interactive`] — the mark phase runs in bounded increments
//!   interleaved with mutator work (allocations perform mark slices):
//!   shorter pauses, lower overall throughput.

use std::any::TypeId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Weak};

use smc_obs::clock;
use smc_util::sync::{Mutex, RwLock, RwLockReadGuard};

use crate::arena::{AnyArena, Arena, Handle, Marker, Trace};
use crate::pause::PauseStats;

/// Collector scheduling mode (the paper's batch vs interactive, §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcMode {
    /// Non-concurrent: full stop-the-world collections.
    Batch,
    /// Concurrent-ish: incremental mark slices at safepoints.
    Interactive,
}

/// Heap tunables.
#[derive(Debug, Clone, Copy)]
pub struct HeapConfig {
    /// Collector mode.
    pub mode: GcMode,
    /// Objects allocated between collections (the nursery budget).
    pub nursery_budget: u64,
    /// Every n-th collection is a major (full-heap) one.
    pub major_every: u64,
    /// Objects marked per incremental slice (interactive mode).
    pub mark_slice: u64,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            mode: GcMode::Batch,
            nursery_budget: 64 * 1024,
            major_every: 8,
            mark_slice: 16 * 1024,
        }
    }
}

/// Objects that act as GC roots (the collections themselves).
pub trait HeapRoot: Send + Sync {
    /// Marks every handle the root holds.
    fn trace_root(&self, marker: &mut Marker<'_>);
}

/// A mutator's "world is running" token. Object dereferences borrow it; the
/// collector stops the world by excluding all guards.
pub struct HeapGuard<'h> {
    _world: RwLockReadGuard<'h, ()>,
}

/// An in-flight incremental mark cycle (interactive mode).
struct MarkCycle {
    stack: Vec<(TypeId, u32)>,
    roots_traced: bool,
    major: bool,
    traced: u64,
}

/// The simulated managed heap.
pub struct ManagedHeap {
    world: RwLock<()>,
    arenas: Mutex<HashMap<TypeId, Arc<dyn AnyArena>>>,
    /// Arena map snapshot used during marking (rebuilt when arenas change).
    roots: Mutex<Vec<Weak<dyn HeapRoot>>>,
    config: HeapConfig,
    /// Remaining nursery budget; collections run when it goes negative.
    budget: AtomicI64,
    /// Current mark parity (0/1), flipped at each cycle start.
    parity: AtomicU8,
    collections_run: AtomicU64,
    cycle: Mutex<Option<MarkCycle>>,
    /// Pause statistics (Fig 9).
    pub pauses: PauseStats,
    /// Total objects ever allocated.
    pub allocated: AtomicU64,
}

impl ManagedHeap {
    /// Creates a heap with the given configuration.
    pub fn new(config: HeapConfig) -> Arc<ManagedHeap> {
        Arc::new(ManagedHeap {
            world: RwLock::new(()),
            arenas: Mutex::new(HashMap::new()),
            roots: Mutex::new(Vec::new()),
            config,
            budget: AtomicI64::new(config.nursery_budget as i64),
            parity: AtomicU8::new(0),
            collections_run: AtomicU64::new(0),
            cycle: Mutex::new(None),
            pauses: PauseStats::new(),
            allocated: AtomicU64::new(0),
        })
    }

    /// Creates a heap with default (batch) configuration.
    pub fn new_batch() -> Arc<ManagedHeap> {
        Self::new(HeapConfig::default())
    }

    /// The configuration in effect.
    pub fn config(&self) -> &HeapConfig {
        &self.config
    }

    /// Enters mutator mode. Dereferences borrow the guard; the collector
    /// cannot stop the world while guards are held, so treat a guard like a
    /// critical section and drop it between batches of work (a safepoint).
    pub fn enter(&self) -> HeapGuard<'_> {
        HeapGuard {
            _world: self.world.read(),
        }
    }

    /// The arena for type `T`, created on first use.
    pub fn arena<T: Trace>(&self) -> Arc<Arena<T>> {
        let mut arenas = self.arenas.lock();
        let any = arenas
            .entry(TypeId::of::<T>())
            .or_insert_with(|| Arc::new(Arena::<T>::new()) as Arc<dyn AnyArena>)
            .clone();
        drop(arenas);
        // SAFETY of downcast: the map is keyed by TypeId, entries are only
        // ever created as Arena<T> for that exact T.
        unsafe { Arc::from_raw(Arc::into_raw(any) as *const Arena<T>) }
    }

    /// Registers a collection as a GC root.
    pub fn add_root(&self, root: Weak<dyn HeapRoot>) {
        self.roots.lock().push(root);
    }

    /// Allocates `value` on the heap. This is a safepoint: the allocation
    /// may first perform collector work (a full collection in batch mode, a
    /// bounded mark slice in interactive mode).
    ///
    /// Must not be called while the calling thread holds a [`HeapGuard`]
    /// (the world could never stop — a real runtime would deadlock its GC
    /// the same way).
    pub fn alloc<T: Trace>(&self, arena: &Arena<T>, value: T) -> Handle<T> {
        self.allocated.fetch_add(1, Ordering::Relaxed);
        if self.budget.fetch_sub(1, Ordering::Relaxed) <= 0 {
            self.safepoint_collect();
        }
        // Hold the world lock (shared) across the slot write so a collection
        // triggered by another thread cannot mark/sweep a half-written slot.
        let _world = self.world.read();
        let parity = self.parity.load(Ordering::Relaxed);
        arena.alloc_value(value, parity)
    }

    /// Live objects across all arenas.
    pub fn live_objects(&self) -> u64 {
        self.arenas.lock().values().map(|a| a.live_objects()).sum()
    }

    /// Number of collections completed.
    pub fn collections(&self) -> u64 {
        self.collections_run.load(Ordering::Relaxed)
    }

    /// Explicitly runs a full (major) collection, stop-the-world, and
    /// returns the number of objects it traced: the live set.
    pub fn collect_full(&self) -> u64 {
        // An incremental cycle in flight owns the mark parity: flipping it
        // back would pass everything that cycle has not reached off as
        // marked, neither traced nor swept. Finish the cycle first, and
        // keep its slot so that none starts before the collection is done.
        let mut cycle = self.cycle.lock();
        if cycle.is_some() {
            self.run_incremental_slice(&mut cycle, u64::MAX);
        }
        self.run_batch_collection(true)
    }

    // ------------------------------------------------------------------
    // Collector
    // ------------------------------------------------------------------

    fn safepoint_collect(&self) {
        match self.config.mode {
            GcMode::Batch => {
                let n = self.collections_run.load(Ordering::Relaxed);
                let major = self.config.major_every > 0 && (n + 1) % self.config.major_every == 0;
                self.run_batch_collection(major);
            }
            GcMode::Interactive => {
                self.run_incremental_slice(&mut self.cycle.lock(), self.config.mark_slice);
            }
        }
    }

    fn reset_budget(&self) {
        self.budget
            .store(self.config.nursery_budget as i64, Ordering::Relaxed);
    }

    /// Collects live roots, dropping dead weak references.
    fn live_roots(&self) -> Vec<Arc<dyn HeapRoot>> {
        let mut roots = self.roots.lock();
        let mut live = Vec::with_capacity(roots.len());
        roots.retain(|w| match w.upgrade() {
            Some(r) => {
                live.push(r);
                true
            }
            None => false,
        });
        live
    }

    /// Returns the number of objects traced.
    fn run_batch_collection(&self, major: bool) -> u64 {
        let roots = self.live_roots();
        let arenas: HashMap<TypeId, Arc<dyn AnyArena>> = self.arenas.lock().clone();
        // Stop the world. If this thread (or another) holds a guard, the
        // write acquisition blocks until the world reaches a safepoint.
        smc_obs::trace::emit(smc_obs::Event::GcPauseBegin { major });
        let t0 = clock::now();
        let world = self.world.write();
        let parity = self.parity.fetch_xor(1, Ordering::AcqRel) ^ 1;
        let mut marker = Marker::new(&arenas, parity);
        for root in &roots {
            root.trace_root(&mut marker);
        }
        marker.drain(u64::MAX);
        let traced = marker.traced;
        drop(marker);
        let mut swept = 0;
        for arena in arenas.values() {
            swept += arena.sweep(!major, parity);
        }
        drop(world);
        let pause = clock::now().saturating_sub(t0);
        self.pauses.record(pause);
        self.pauses.record_cycle(major, traced, swept);
        smc_obs::trace::emit(smc_obs::Event::GcPauseEnd {
            major,
            nanos: pause,
            traced,
            swept,
        });
        self.collections_run.fetch_add(1, Ordering::Relaxed);
        self.reset_budget();
        traced
    }

    /// Interactive mode: perform one slice of collector work, marking at
    /// most `mark_slice` objects.
    fn run_incremental_slice(&self, cycle_slot: &mut Option<MarkCycle>, mark_slice: u64) {
        let arenas: HashMap<TypeId, Arc<dyn AnyArena>> = self.arenas.lock().clone();
        let parity = match cycle_slot.as_ref() {
            Some(_) => self.parity.load(Ordering::Relaxed),
            None => {
                // Start a new cycle: flip parity; objects allocated from now
                // on are allocated black (marked).
                let n = self.collections_run.load(Ordering::Relaxed);
                let major = self.config.major_every > 0 && (n + 1) % self.config.major_every == 0;
                *cycle_slot = Some(MarkCycle {
                    stack: Vec::new(),
                    roots_traced: false,
                    major,
                    traced: 0,
                });
                self.parity.fetch_xor(1, Ordering::AcqRel) ^ 1
            }
        };
        let cycle = cycle_slot.as_mut().expect("cycle just ensured");

        // One short stop-the-world slice.
        smc_obs::trace::emit(smc_obs::Event::GcPauseBegin { major: cycle.major });
        let slice_major = cycle.major;
        let t0 = clock::now();
        let world = self.world.write();
        let mut marker = Marker::new(&arenas, parity);
        marker.stack = std::mem::take(&mut cycle.stack);
        if !cycle.roots_traced {
            for root in self.live_roots() {
                root.trace_root(&mut marker);
            }
            cycle.roots_traced = true;
        }
        let done = marker.drain(mark_slice);
        cycle.traced += marker.traced;
        cycle.stack = std::mem::take(&mut marker.stack);
        drop(marker);
        let mut slice_traced = 0;
        let mut slice_swept = 0;
        if done {
            // Final slice: sweep and finish the cycle.
            let mut swept = 0;
            for arena in arenas.values() {
                swept += arena.sweep(!cycle.major, parity);
            }
            self.pauses.record_cycle(cycle.major, cycle.traced, swept);
            slice_traced = cycle.traced;
            slice_swept = swept;
            self.collections_run.fetch_add(1, Ordering::Relaxed);
            *cycle_slot = None;
            self.reset_budget();
        } else {
            // Mid-cycle: grant a small budget so mutators keep running and
            // the next safepoint performs the next slice.
            self.budget.store(
                (self.config.nursery_budget / 8).max(1024) as i64,
                Ordering::Relaxed,
            );
        }
        drop(world);
        let pause = clock::now().saturating_sub(t0);
        self.pauses.record(pause);
        smc_obs::trace::emit(smc_obs::Event::GcPauseEnd {
            major: slice_major,
            nanos: pause,
            traced: slice_traced,
            swept: slice_swept,
        });
    }
}

impl std::fmt::Debug for ManagedHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ManagedHeap")
            .field("mode", &self.config.mode)
            .field("live", &self.live_objects())
            .field("collections", &self.collections())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct VecRoot {
        arena: Arc<Arena<u64>>,
        items: Mutex<Vec<Handle<u64>>>,
    }

    impl HeapRoot for VecRoot {
        fn trace_root(&self, marker: &mut Marker<'_>) {
            for &h in self.items.lock().iter() {
                marker.mark(h);
            }
        }
    }

    fn small_heap(mode: GcMode) -> Arc<ManagedHeap> {
        ManagedHeap::new(HeapConfig {
            mode,
            nursery_budget: 1000,
            major_every: 4,
            mark_slice: 500,
        })
    }

    #[test]
    fn unreachable_objects_are_collected() {
        let heap = small_heap(GcMode::Batch);
        let arena = heap.arena::<u64>();
        let root = Arc::new(VecRoot {
            arena: arena.clone(),
            items: Mutex::new(Vec::new()),
        });
        heap.add_root(Arc::downgrade(&root) as Weak<dyn HeapRoot>);
        // Rooted objects survive; unrooted garbage does not.
        for i in 0..500u64 {
            let h = heap.alloc(&arena, i);
            if i % 2 == 0 {
                root.items.lock().push(h);
            }
        }
        heap.collect_full();
        assert_eq!(arena.live(), 250);
        // Every rooted handle still dereferences.
        for &h in root.items.lock().iter() {
            assert!(root.arena.get(h).is_some());
        }
    }

    #[test]
    fn allocation_triggers_collections() {
        let heap = small_heap(GcMode::Batch);
        let arena = heap.arena::<u64>();
        for i in 0..10_000u64 {
            heap.alloc(&arena, i); // all garbage
        }
        assert!(
            heap.collections() >= 5,
            "collections: {}",
            heap.collections()
        );
        assert!(arena.live() < 10_000, "garbage must have been reclaimed");
        assert!(heap.pauses.report().pauses > 0);
    }

    #[test]
    fn reachable_graph_survives_through_trace() {
        #[allow(dead_code)]
        struct Node {
            next: Option<Handle<Node>>,
            v: u64,
        }
        impl Trace for Node {
            fn trace(&self, m: &mut Marker<'_>) {
                if let Some(n) = self.next {
                    m.mark(n);
                }
            }
        }
        struct OneRoot(Mutex<Option<Handle<Node>>>);
        impl HeapRoot for OneRoot {
            fn trace_root(&self, m: &mut Marker<'_>) {
                if let Some(h) = *self.0.lock() {
                    m.mark(h);
                }
            }
        }
        let heap = small_heap(GcMode::Batch);
        let arena = heap.arena::<Node>();
        let root = Arc::new(OneRoot(Mutex::new(None)));
        heap.add_root(Arc::downgrade(&root) as Weak<dyn HeapRoot>);
        // Build a 100-node chain rooted only at its head.
        let mut head: Option<Handle<Node>> = None;
        for i in 0..100 {
            head = Some(heap.alloc(&arena, Node { next: head, v: i }));
        }
        *root.0.lock() = head;
        heap.collect_full();
        assert_eq!(arena.live(), 100, "whole chain reachable through trace");
        // Cut the chain in half: the tail becomes garbage.
        let g = heap.enter();
        let mut cur = head.unwrap();
        for _ in 0..49 {
            cur = arena.get(cur).unwrap().next.unwrap();
        }
        drop(g);
        arena.get_mut(cur).unwrap().next = None;
        heap.collect_full();
        assert_eq!(arena.live(), 50);
    }

    #[test]
    fn interactive_mode_completes_cycles_with_short_slices() {
        let heap = small_heap(GcMode::Interactive);
        let arena = heap.arena::<u64>();
        let root = Arc::new(VecRoot {
            arena: arena.clone(),
            items: Mutex::new(Vec::new()),
        });
        heap.add_root(Arc::downgrade(&root) as Weak<dyn HeapRoot>);
        for i in 0..20_000u64 {
            let h = heap.alloc(&arena, i);
            if i % 4 == 0 {
                root.items.lock().push(h);
            }
        }
        // Drive remaining slices to completion.
        for _ in 0..100 {
            heap.alloc(&arena, 0);
        }
        assert!(heap.collections() >= 1);
        // Rooted objects survived incremental cycles.
        for &h in root.items.lock().iter().take(100) {
            assert!(arena.get(h).is_some());
        }
    }

    #[test]
    fn collect_full_finishes_an_incremental_cycle_in_flight() {
        let heap = small_heap(GcMode::Interactive);
        let arena = heap.arena::<u64>();
        let root = Arc::new(VecRoot {
            arena: arena.clone(),
            items: Mutex::new(Vec::new()),
        });
        heap.add_root(Arc::downgrade(&root) as Weak<dyn HeapRoot>);
        // Fill to just past one nursery budget: the safepoint that spends
        // it starts a cycle whose first slice marks 500 of ~1000 roots.
        while heap.cycle.lock().is_none() {
            let h = heap.alloc(&arena, 7);
            root.items.lock().push(h);
        }
        assert_eq!(heap.collections(), 0, "the cycle is still in flight");
        // Drop every other root, so that of the objects the cycle has
        // marked, and of those it has not, some die and some stay.
        let live = {
            let mut items = root.items.lock();
            let mut index = 0;
            items.retain(|_| {
                index += 1;
                index % 2 == 0
            });
            items.len() as u64
        };
        assert_eq!(heap.collect_full(), live, "one call traces the live set");
        assert_eq!(arena.live(), live, "and sweeps what was dropped");
        assert!(heap.cycle.lock().is_none());
    }

    #[test]
    fn guard_blocks_collection_until_dropped() {
        let heap = small_heap(GcMode::Batch);
        let arena = heap.arena::<u64>();
        let h = heap.alloc(&arena, 42);
        let guard = heap.enter();
        // Dereference stays valid while the guard pins the world.
        assert_eq!(arena.get(h), Some(&42));
        drop(guard);
        heap.collect_full(); // h unrooted: now reclaimed
        assert_eq!(arena.get(h), None);
    }

    #[test]
    fn concurrent_allocation_from_many_threads() {
        let heap = small_heap(GcMode::Batch);
        let mut joins = Vec::new();
        for t in 0..4 {
            let heap = heap.clone();
            joins.push(std::thread::spawn(move || {
                let arena = heap.arena::<u64>();
                for i in 0..20_000u64 {
                    heap.alloc(&arena, t * 1_000_000 + i);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(heap.allocated.load(Ordering::Relaxed), 80_000);
        assert!(heap.collections() > 0);
    }
}
