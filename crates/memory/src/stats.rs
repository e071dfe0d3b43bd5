//! Lightweight counters for observing the memory manager.
//!
//! The evaluation (Fig 6) reports allocation/removal performance, query
//! performance and *total memory size* as the reclamation threshold varies;
//! these counters make the memory-size series observable without walking
//! every block.

use std::sync::atomic::{AtomicU64, Ordering};

use smc_obs::Histogram;

use crate::epoch::{Slot, MAX_THREADS};

/// Declares the scalar counters once: the atomic fields of [`MemoryStats`]
/// and [`HotCell`], the plain fields of [`StatsSnapshot`], `snapshot()` and
/// the `key=value` `Display` dump are all generated from the two
/// `doc + name` lists below.
macro_rules! scalar_counters {
    (
        hot { $($(#[$hot_doc:meta])* $hot:ident,)+ }
        shared { $($(#[$doc:meta])* $name:ident,)+ }
    ) => {
        /// The counters bumped once or more per object operation (`add`,
        /// `remove`, `pin`). One cell per epoch thread slot, a cache line
        /// each, so the hot paths never write a line another core writes.
        #[derive(Debug, Default)]
        #[repr(align(64))]
        pub struct HotCell {
            $($(#[$hot_doc])* pub $hot: AtomicU64,)+
        }

        /// Counters shared by one [`Runtime`](crate::runtime::Runtime).
        ///
        /// All counters are monotonic except the `*_live` gauges. Relaxed
        /// ordering is used throughout: the counters inform reporting, never
        /// correctness.
        #[derive(Debug, Default)]
        pub struct MemoryStats {
            $($(#[$doc])* pub $name: AtomicU64,)+
            /// The per-object counters ([`HotCell`]); read them through
            /// [`hot`](Self::hot) or [`snapshot`](Self::snapshot).
            cells: HotCells,
            /// Wall time of whole compaction passes, in nanoseconds (select
            /// through publish). Report via [`Histogram::summary`]
            /// (p50/p95/p99).
            pub compaction_pass_ns: Histogram,
            /// Wall time of compaction *moving phases* only, in nanoseconds
            /// — the window during which readers may hit relocated slots
            /// and must follow forwarding state (§5.1). This is the SMC
            /// analogue of a GC pause.
            pub compaction_pause_ns: Histogram,
            /// Wall time of successful spill fault-ins, in nanoseconds
            /// (page-store read through entry repoint) — the cold-access
            /// latency tax.
            pub spill_fault_ns: Histogram,
        }

        /// Plain-value copy of [`MemoryStats`] (scalar counters only; the
        /// pause histograms are read directly off the live struct).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$hot_doc])* pub $hot: u64,)+
            $($(#[$doc])* pub $name: u64,)+
        }

        impl MemoryStats {
            /// A point-in-time copy of every counter, for reporting.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($hot: self.hot(|cell| &cell.$hot),)+
                    $($name: Self::get(&self.$name),)+
                }
            }

            /// Every live counter with its name, in declaration order (for
            /// a hot counter, the shared cell of dropped contexts).
            #[cfg(test)]
            fn counters(&self) -> Vec<(&'static str, &AtomicU64)> {
                vec![
                    $((stringify!($hot), &self.cells.dropped.$hot),)+
                    $((stringify!($name), &self.$name),)+
                ]
            }
        }

        impl std::fmt::Display for StatsSnapshot {
            /// One `key=value` line per counter, for stress-harness dumps
            /// and logs.
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                let lines = [
                    $(format!("{}={}", stringify!($hot), self.$hot),)+
                    $(format!("{}={}", stringify!($name), self.$name),)+
                ];
                f.write_str(&lines.join("\n"))
            }
        }
    };
}

scalar_counters! {
    hot {
        /// Objects ever allocated.
        objects_allocated,
        /// Objects ever freed (entered limbo).
        objects_freed,
        /// Slot-directory entries scanned by the allocator (cost proxy, Fig 6).
        alloc_scan_steps,
        /// Epoch guards taken by readers ([`Runtime::pin`](crate::runtime::Runtime::pin)
        /// and `try_pin`).
        pins_taken,
    }
    shared {
        /// Blocks currently allocated from the OS (gauge).
        blocks_live,
        /// Blocks ever allocated from the OS.
        blocks_allocated,
        /// Blocks returned to the OS.
        blocks_freed,
        /// Limbo slots reclaimed for new allocations.
        slots_reclaimed,
        /// Global epoch advances.
        epoch_advances,
        /// Objects relocated by compaction.
        objects_relocated,
        /// Relocations that readers bailed out of (§5.1 case b).
        relocations_bailed,
        /// Relocations completed by helping readers (§5.1 case c).
        relocations_helped,
        /// Compaction passes completed.
        compactions,
        /// Direct pointers rewritten by post-compaction fix-up scans (§6).
        direct_pointers_fixed,
        /// Fresh-block requests rejected by a context's budget
        /// ([`ContextConfig::budget_bytes`](crate::context::ContextConfig::budget_bytes)),
        /// the memory system's only budget.
        context_budget_rejections,
        /// Failures injected by the fault registry ([`crate::fault`]).
        faults_injected,
        /// Compaction passes aborted mid-relocation (injected crash or reader
        /// timeout during the moving phase).
        compactions_interrupted,
        /// Blocks enumerated by parallel scan workers.
        blocks_scanned,
        /// Morsels (blocks or compaction groups) claimed from a parallel scan's
        /// work-stealing cursor.
        morsels_dispatched,
        /// Blocks evicted to a page store under budget pressure (the spill rung
        /// of a context's budget gate; see [`crate::spill`]).
        blocks_spilled,
        /// Spilled pages brought back to residency on dereference or free.
        blocks_faulted_in,
        /// Fault-in attempts that failed closed (page-store read error or
        /// checksum mismatch; the page stayed spilled).
        spill_fault_failures,
        /// Block handouts served from a shard's recycled free list instead of a
        /// fresh OS allocation ([`crate::alloc`]).
        blocks_recycled,
        /// Blocks freed by a thread other than the one that allocated them
        /// (they stay with the freeing thread).
        remote_frees,
        /// Batched slow-path refills: fresh mappings that handed out one block
        /// and parked the rest of the batch in the shard cache.
        alloc_batch_refills,
    }
}

/// One [`HotCell`] per epoch thread slot, plus the cell shared by context
/// drops.
#[derive(Debug)]
struct HotCells {
    /// Indexed by epoch thread slot; written only by the slot's holder.
    slots: [HotCell; MAX_THREADS],
    /// Objects freed wholesale by dropping a context
    /// ([`MemoryStats::note_dropped_objects`]).
    dropped: HotCell,
}

impl Default for HotCells {
    fn default() -> Self {
        HotCells {
            slots: std::array::from_fn(|_| HotCell::default()),
            dropped: HotCell::default(),
        }
    }
}

impl MemoryStats {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bump a counter by one.
    #[inline]
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Bump a counter by `n`.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Read a counter.
    #[inline]
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Bumps a per-object counter by `n` in the cell of `slot`, which the
    /// calling thread holds. A slot has one holder at a time and hands over
    /// through the registry's release/acquire on its claim flag, so the
    /// holder's cell takes a plain load and store — no locked
    /// read-modify-write, no line shared with another core.
    #[inline]
    pub(crate) fn bump(&self, slot: Slot<'_>, counter: impl Fn(&HotCell) -> &AtomicU64, n: u64) {
        let mine = counter(&self.cells.slots[slot.index()]);
        mine.store(mine.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }

    /// Counts `n` objects freed wholesale by dropping a context: one
    /// read-modify-write on a shared cell, whichever thread drops it. A drop
    /// may run where no slot can be had (a thread-local destructor after the
    /// registry's, or a full registry), so it asks for none.
    pub(crate) fn note_dropped_objects(&self, n: u64) {
        Self::add(&self.cells.dropped.objects_freed, n);
    }

    /// Reads a per-object counter: the sum over every thread's cell, e.g.
    /// `stats.hot(|cell| &cell.pins_taken)`. Each term is monotonic, so the
    /// sum is too; it is exact once the writers are quiescent.
    pub fn hot(&self, counter: impl Fn(&HotCell) -> &AtomicU64) -> u64 {
        let cells = &self.cells;
        cells
            .slots
            .iter()
            .chain([&cells.dropped])
            .map(|cell| Self::get(counter(cell)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = MemoryStats::new();
        MemoryStats::inc(&s.blocks_allocated);
        MemoryStats::add(&s.blocks_allocated, 4);
        MemoryStats::inc(&s.blocks_freed);
        assert_eq!(MemoryStats::get(&s.blocks_allocated), 5);
        assert_eq!(MemoryStats::get(&s.blocks_freed), 1);
    }

    #[test]
    fn every_declared_counter_round_trips_and_is_dumped_once() {
        let s = MemoryStats::new();
        let mut lines = Vec::new();
        for (name, counter) in s.counters() {
            let value = 100 + lines.len() as u64;
            MemoryStats::add(counter, value);
            lines.push(format!("{name}={value}"));
        }
        let snap = s.snapshot();
        // Exactly one `key=value` line per declared counter, each carrying
        // the distinct value stored in that counter.
        assert_eq!(snap.to_string(), lines.join("\n"));
        // The generated public fields read the same storage.
        assert_eq!(snap.objects_allocated, 100);
        assert_eq!(snap.alloc_batch_refills, 100 + lines.len() as u64 - 1);
    }

    #[test]
    fn a_hot_counter_is_the_sum_of_every_slot_cell_and_the_shared_one() {
        let mgr = crate::epoch::EpochManager::new();
        let s = MemoryStats::new();
        s.bump(mgr.slot().unwrap(), |cell| &cell.pins_taken, 2);
        std::thread::scope(|scope| {
            scope.spawn(|| s.bump(mgr.slot().unwrap(), |cell| &cell.pins_taken, 3));
        });
        s.note_dropped_objects(5);
        s.bump(mgr.slot().unwrap(), |cell| &cell.objects_freed, 7);
        assert_eq!(s.hot(|cell| &cell.pins_taken), 5);
        assert_eq!(s.snapshot().pins_taken, 5);
        assert_eq!(s.snapshot().objects_freed, 12);
        assert_eq!(
            std::mem::align_of::<HotCell>(),
            64,
            "one line per thread slot"
        );
    }
}
