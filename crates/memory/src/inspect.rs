//! Live heap introspection — the memory observatory.
//!
//! [`HeapSnapshot::capture`] walks every block of one or more
//! [`MemoryContext`]s **without stopping writers** and reports what the
//! paper's claims are actually about: per-block and per-collection
//! occupancy, limbo dead space and in-block holes (§3.5 fragmentation),
//! incarnation churn (slot-reuse pressure), indirection-table load, epoch
//! lag, and pin hold-time percentiles. [`HeapSnapshot::to_json`]
//! serializes it into `smc-serve`'s scrape document, which `smc-top`
//! renders live.
//!
//! ## Consistency model (lock-free, epoch-consistent)
//!
//! The snapshot takes no lock the mutators care about. It pins an epoch
//! guard *before* taking the membership snapshot and holds it across the
//! walk, which buys the same guarantee enumeration relies on
//! ([`Membership`](crate::context::Membership)): while the snapshot thread sits pinned in
//! epoch `e`, the global epoch can reach at most `e + 1`, and a compaction
//! announced after the snapshot needs the global epoch to reach its
//! relocation epoch plus one (≥ `e + 2`) before it may move or retire
//! anything — so every block in the snapshot stays block-resident for the
//! whole walk. What the walk *cannot* promise is a serializable point in
//! time across counters: writers keep allocating and freeing while the
//! per-block atomics are read, and a compaction announced *before* the pin
//! may already be moving objects between two blocks mid-walk. The snapshot
//! therefore tolerates concurrent relocation (group sources and dest are
//! walked explicitly, like [`MemoryContext::verify`] does) and records a
//! [`Watermark`] — pinned epoch, global epoch at both ends of the walk,
//! relocation announcement — so a consumer can tell how much the world
//! moved underneath it. Totals reconcile exactly with `Smc::verify` once
//! the heap is quiescent (asserted by `tests/snapshot_under_compaction.rs`
//! while compaction runs *between* snapshots, with per-snapshot invariants
//! holding *during* it).

use std::sync::atomic::Ordering;

use smc_obs::{JsonValue, Summary};

use crate::block::{BlockRef, BLOCK_SIZE};
use crate::context::MemoryContext;
use crate::epoch::Guard;
use crate::error::MemError;
use crate::runtime::Runtime;

/// Epoch bookkeeping recorded around one snapshot walk: how much the world
/// could have moved while the walk ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermark {
    /// The epoch the snapshot thread was pinned at for the whole walk.
    pub pinned_epoch: u64,
    /// Global epoch observed right after pinning, before the first block.
    pub global_epoch_begin: u64,
    /// Global epoch observed after the last block.
    pub global_epoch_end: u64,
    /// The relocation epoch an in-flight compaction announced at capture
    /// time, §5.1's `nextRelocationEpoch` (0 = no compaction pending).
    pub relocation_epoch: u64,
    /// True when an in-flight compaction was in its moving phase.
    pub in_moving_phase: bool,
}

impl Watermark {
    /// The snapshot-vs-advance invariant: while the snapshot held its pin
    /// at `pinned_epoch`, the global epoch may not have moved past
    /// `pinned_epoch + 1`. Always true for a correctly-pinned walk; the
    /// `smc-check` scenario `snapshot_vs_advance` explores it exhaustively.
    pub fn consistent(&self) -> bool {
        self.global_epoch_begin <= self.pinned_epoch + 1
            && self.global_epoch_end <= self.pinned_epoch + 1
    }
}

/// Point-in-time occupancy accounting for one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSnapshot {
    /// Globally unique block number.
    pub block_id: u64,
    /// Slots in this block.
    pub capacity: u32,
    /// Live (`Valid`) slots.
    pub valid: u32,
    /// Limbo slots: freed, but their removal epoch keeps them unreusable.
    pub limbo: u32,
    /// Holes: slots inside the allocated prefix that are free again
    /// (reclaimed limbo), i.e. internal fragmentation the allocator can
    /// refill without growing the block.
    pub holes: u32,
    /// The allocation scan cursor (extent of the allocated prefix).
    pub alloc_cursor: u32,
    /// Sum of slot incarnation counters over the allocated prefix — slot
    /// turnover: every fill and every free of a slot bumps its counter, and
    /// a recycled block keeps the counters its former tenant left.
    pub incarnation_churn: u64,
    /// True while the block is scheduled for (or undergoing) compaction.
    pub compacting: bool,
    /// True when the block was reached through an in-flight compaction
    /// group (source or destination) rather than regular membership.
    pub in_group: bool,
}

impl BlockSnapshot {
    /// Live-slot fraction of capacity.
    pub fn occupancy(&self) -> f64 {
        self.valid as f64 / self.capacity.max(1) as f64
    }
}

/// Aggregated snapshot of one collection ([`MemoryContext`]).
#[derive(Debug, Clone)]
pub struct CollectionSnapshot {
    /// The context's runtime-unique id.
    pub context_id: u64,
    /// Bytes of payload per slot (row stride, or the columnar store's
    /// per-slot share) — the unit behind the `*_bytes` figures.
    pub slot_bytes: u32,
    /// Per-block accounting, regular membership first, then group blocks.
    pub blocks: Vec<BlockSnapshot>,
    /// In-flight compaction groups observed.
    pub groups: usize,
    /// Total live slots.
    pub valid_slots: u64,
    /// Total limbo slots.
    pub limbo_slots: u64,
    /// Total holes (reusable slots inside allocated prefixes).
    pub hole_slots: u64,
    /// Total slot capacity.
    pub capacity_slots: u64,
    /// Total incarnation churn.
    pub incarnation_churn: u64,
    /// The context's byte budget
    /// ([`ContextConfig::budget_bytes`](crate::context::ContextConfig::budget_bytes)),
    /// `None` for unlimited — lets a tenants panel show used-vs-budget.
    pub budget_bytes: Option<u64>,
    /// Blocks currently evicted to the page store (§ spill tier).
    pub spilled_blocks: u64,
    /// Live objects resident only in spilled pages — counted into
    /// `live_objects()` but absent from `valid_slots` (no heap slot).
    pub spilled_objects: u64,
}

impl CollectionSnapshot {
    /// Captures one collection under an already-pinned guard. Pin the
    /// guard **before** calling and keep it alive while the result is
    /// interpreted — see the module docs for why that ordering is the
    /// whole consistency argument.
    pub fn capture(ctx: &MemoryContext, _guard: &Guard<'_>) -> CollectionSnapshot {
        let membership = ctx.membership_snapshot();
        // Group blocks are the ones past the regular list.
        let regular = membership.blocks.len();
        let blocks = (membership.owned_blocks().enumerate())
            .map(|(i, block)| block_snapshot(&block, i >= regular))
            .collect();
        let mut snap = CollectionSnapshot {
            context_id: ctx.id(),
            slot_bytes: slot_bytes(ctx),
            groups: membership.groups.len(),
            valid_slots: 0,
            limbo_slots: 0,
            hole_slots: 0,
            capacity_slots: 0,
            incarnation_churn: 0,
            budget_bytes: ctx.config().budget_bytes,
            spilled_blocks: ctx.spilled_blocks(),
            spilled_objects: ctx.spilled_objects(),
            blocks,
        };
        for b in &snap.blocks {
            snap.valid_slots += b.valid as u64;
            snap.limbo_slots += b.limbo as u64;
            snap.hole_slots += b.holes as u64;
            snap.capacity_slots += b.capacity as u64;
            snap.incarnation_churn += b.incarnation_churn;
        }
        snap
    }

    /// Blocks walked (membership plus in-flight group sources and dests).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Live-slot fraction of total capacity (0 for an empty collection).
    pub fn occupancy(&self) -> f64 {
        self.valid_slots as f64 / self.capacity_slots.max(1) as f64
    }

    /// Bytes of live payload.
    pub fn live_bytes(&self) -> u64 {
        self.valid_slots * self.slot_bytes as u64
    }

    /// Dead bytes: limbo slots that cannot be reused yet.
    pub fn dead_bytes(&self) -> u64 {
        self.limbo_slots * self.slot_bytes as u64
    }

    /// Hole bytes: reusable free slots inside allocated prefixes.
    pub fn hole_bytes(&self) -> u64 {
        self.hole_slots * self.slot_bytes as u64
    }

    /// Total block footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.blocks.len() as u64 * BLOCK_SIZE as u64
    }
}

/// Load figures for the runtime's shared indirection table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndirectionLoad {
    /// Entries currently backing live objects (summed from per-thread-slot
    /// cells: exact once allocation and release are quiescent).
    pub live_entries: u64,
    /// Entries retired for good because their incarnation counter ran out.
    pub quarantined_entries: u64,
    /// Entries of removed objects waiting out their epochs before reuse.
    pub deferred_entries: u64,
    /// Total entries across all allocated chunks.
    pub capacity: u64,
    /// Locks entry allocation has taken since the runtime started: one per
    /// refill of a thread slot's magazine (`IndirectionTable::entry_refills`).
    pub entry_refills: u64,
}

impl IndirectionLoad {
    /// Live fraction of allocated capacity.
    pub fn load_factor(&self) -> f64 {
        self.live_entries as f64 / self.capacity.max(1) as f64
    }
}

/// One lock-free, epoch-consistent observatory snapshot (see module docs).
#[derive(Debug, Clone)]
pub struct HeapSnapshot {
    /// Epoch bookkeeping around the walk.
    pub watermark: Watermark,
    /// Per-collection accounting, in argument order.
    pub collections: Vec<CollectionSnapshot>,
    /// Indirection-table load at capture time.
    pub indirection: IndirectionLoad,
    /// Global epoch minus the oldest pinned reader's epoch (0 when idle).
    pub epoch_lag: u64,
    /// The oldest pinned reader's epoch, if any thread was pinned
    /// (includes the snapshot's own pin).
    pub min_pinned_epoch: Option<u64>,
    /// Pin hold-time percentiles (ns) since the runtime started.
    pub pin_hold: Summary,
    /// Allocation-layer state: shard caches, budget gauge, recycled and
    /// cross-thread frees.
    pub alloc: crate::alloc::AllocSnapshot,
}

impl HeapSnapshot {
    /// Captures a snapshot of `contexts` (all owned by `runtime`), pinning
    /// its own epoch guard for the duration of the walk.
    ///
    /// Panics when the epoch thread registry is full; use
    /// [`try_capture`](Self::try_capture) where that must be an error.
    pub fn capture(runtime: &Runtime, contexts: &[&MemoryContext]) -> HeapSnapshot {
        Self::try_capture(runtime, contexts).expect("epoch thread registry full")
    }

    /// Fallible [`capture`](Self::capture).
    pub fn try_capture(
        runtime: &Runtime,
        contexts: &[&MemoryContext],
    ) -> Result<HeapSnapshot, MemError> {
        // Pin FIRST: everything below leans on the pinned-epoch fence
        // between this thread and any compaction announced afterwards.
        let guard = runtime.try_pin()?;
        let epochs = &runtime.epochs;
        let global_epoch_begin = epochs.global_epoch();
        let relocation_epoch = epochs.next_relocation_epoch();
        let in_moving_phase = epochs.in_moving_phase();
        let collections = contexts
            .iter()
            .map(|ctx| CollectionSnapshot::capture(ctx, &guard))
            .collect();
        let min_pinned_epoch = epochs.min_pinned_epoch();
        let epoch_lag = epochs.epoch_lag();
        let indirection = IndirectionLoad {
            live_entries: runtime.indirection.live_entries(),
            quarantined_entries: runtime.indirection.quarantined_entries(),
            deferred_entries: runtime.buried().entries as u64,
            capacity: runtime.indirection.capacity() as u64,
            entry_refills: runtime.indirection.entry_refills(),
        };
        let watermark = Watermark {
            pinned_epoch: guard.epoch(),
            global_epoch_begin,
            global_epoch_end: epochs.global_epoch(),
            relocation_epoch,
            in_moving_phase,
        };
        let pin_hold = epochs.pin_hold_ns().summary();
        drop(guard);
        Ok(HeapSnapshot {
            watermark,
            collections,
            indirection,
            epoch_lag,
            min_pinned_epoch,
            pin_hold,
            alloc: runtime.alloc_snapshot(),
        })
    }

    /// Totals across all collections: `(valid, limbo, holes, blocks)`.
    pub fn totals(&self) -> (u64, u64, u64, usize) {
        let mut t = (0, 0, 0, 0);
        for c in &self.collections {
            t.0 += c.valid_slots;
            t.1 += c.limbo_slots;
            t.2 += c.hole_slots;
            t.3 += c.block_count();
        }
        t
    }

    /// Serializes the snapshot (each shard's `heap` entry in `smc-serve`'s
    /// scrape document).
    pub fn to_json(&self) -> JsonValue {
        let mut doc = JsonValue::obj();
        doc.set("schema", "smc-heap-snapshot/v1");
        let mut wm = JsonValue::obj();
        wm.set("pinned_epoch", self.watermark.pinned_epoch);
        wm.set("global_epoch_begin", self.watermark.global_epoch_begin);
        wm.set("global_epoch_end", self.watermark.global_epoch_end);
        wm.set("relocation_epoch", self.watermark.relocation_epoch);
        wm.set("in_moving_phase", self.watermark.in_moving_phase);
        wm.set("consistent", self.watermark.consistent());
        doc.set("watermark", wm);
        doc.set("epoch_lag", self.epoch_lag);
        match self.min_pinned_epoch {
            Some(e) => doc.set("min_pinned_epoch", e),
            None => doc.set("min_pinned_epoch", JsonValue::Null),
        }
        let mut ind = JsonValue::obj();
        ind.set("live_entries", self.indirection.live_entries);
        ind.set("quarantined_entries", self.indirection.quarantined_entries);
        ind.set("deferred_entries", self.indirection.deferred_entries);
        ind.set("capacity", self.indirection.capacity);
        ind.set("load_factor", self.indirection.load_factor());
        ind.set("entry_refills", self.indirection.entry_refills);
        doc.set("indirection", ind);
        let mut ph = JsonValue::obj();
        ph.set("count", self.pin_hold.count);
        ph.set("p50_ns", self.pin_hold.p50);
        ph.set("p95_ns", self.pin_hold.p95);
        ph.set("p99_ns", self.pin_hold.p99);
        ph.set("max_ns", self.pin_hold.max);
        doc.set("pin_hold_ns", ph);
        let mut al = JsonValue::obj();
        al.set("budgeted_blocks", self.alloc.budgeted_blocks);
        al.set("cached_blocks", self.alloc.cached_blocks);
        al.set("blocks_recycled", self.alloc.blocks_recycled);
        al.set("remote_frees", self.alloc.remote_frees);
        doc.set("alloc", al);
        let collections = self
            .collections
            .iter()
            .map(|c| {
                let mut cj = JsonValue::obj();
                cj.set("context_id", c.context_id);
                cj.set("blocks", c.block_count());
                cj.set("groups", c.groups);
                cj.set("valid_slots", c.valid_slots);
                cj.set("limbo_slots", c.limbo_slots);
                cj.set("hole_slots", c.hole_slots);
                cj.set("capacity_slots", c.capacity_slots);
                cj.set("occupancy", c.occupancy());
                cj.set("live_bytes", c.live_bytes());
                cj.set("dead_bytes", c.dead_bytes());
                cj.set("hole_bytes", c.hole_bytes());
                cj.set("footprint_bytes", c.footprint_bytes());
                match c.budget_bytes {
                    Some(b) => cj.set("budget_bytes", b),
                    None => cj.set("budget_bytes", JsonValue::Null),
                }
                cj.set("budget_used_bytes", c.footprint_bytes());
                cj.set("spilled_blocks", c.spilled_blocks);
                cj.set("spilled_objects", c.spilled_objects);
                cj.set("incarnation_churn", c.incarnation_churn);
                let blocks = c
                    .blocks
                    .iter()
                    .map(|b| {
                        let mut bj = JsonValue::obj();
                        bj.set("block_id", b.block_id);
                        bj.set("capacity", b.capacity);
                        bj.set("valid", b.valid);
                        bj.set("limbo", b.limbo);
                        bj.set("holes", b.holes);
                        bj.set("occupancy", b.occupancy());
                        bj.set("incarnation_churn", b.incarnation_churn);
                        bj.set("compacting", b.compacting);
                        bj.set("in_group", b.in_group);
                        bj
                    })
                    .collect();
                cj.set("block_detail", JsonValue::Arr(blocks));
                cj
            })
            .collect();
        doc.set("collections", JsonValue::Arr(collections));
        doc
    }
}

/// Payload bytes per slot for occupancy-to-bytes conversion.
fn slot_bytes(ctx: &MemoryContext) -> u32 {
    let layout = ctx.layout();
    if layout.slot_stride > 0 {
        layout.slot_stride
    } else {
        layout.store_len / layout.capacity.max(1)
    }
}

/// Reads one block's counters and walks its allocated prefix for
/// incarnation churn. All reads are atomic loads on live memory — the
/// caller's pinned guard keeps the block resident (module docs).
fn block_snapshot(block: &BlockRef, in_group: bool) -> BlockSnapshot {
    let h = block.header();
    let capacity = h.capacity;
    let valid = h.valid_count.load(Ordering::Acquire).min(capacity);
    let limbo = h.limbo_count.load(Ordering::Acquire).min(capacity);
    let cursor = h.alloc_cursor.load(Ordering::Acquire).min(capacity);
    // Free slots inside the allocated prefix. Saturating: valid/limbo/
    // cursor are read at slightly different instants under concurrent
    // writers, so the difference can transiently undershoot.
    let holes = cursor.saturating_sub(valid).saturating_sub(limbo);
    let mut churn = 0u64;
    for slot in 0..cursor {
        churn += block.payload_inc(slot).incarnation() as u64;
    }
    BlockSnapshot {
        block_id: h.block_id,
        capacity,
        valid,
        limbo,
        holes,
        alloc_cursor: cursor,
        incarnation_churn: churn,
        compacting: h.compacting.load(Ordering::Acquire) != 0,
        in_group,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::tests::{alloc_u64 as alloc, ctx as context};
    use crate::runtime::Runtime;

    #[test]
    fn empty_heap_snapshot_is_consistent_and_zero() {
        let rt = Runtime::new();
        let ctx = context(&rt);
        let snap = HeapSnapshot::capture(&rt, &[&ctx]);
        assert!(snap.watermark.consistent());
        assert_eq!(snap.totals(), (0, 0, 0, 0));
        assert_eq!(snap.collections.len(), 1);
        assert_eq!(snap.collections[0].occupancy(), 0.0);
        let json = snap.to_json().to_json();
        assert!(json.contains("\"schema\":\"smc-heap-snapshot/v1\""));
        assert!(json.contains("\"consistent\":true"));
    }

    #[test]
    fn snapshot_counts_live_limbo_and_churn() {
        let rt = Runtime::new();
        let ctx = context(&rt);
        let mut allocs = Vec::new();
        for i in 0..100 {
            allocs.push(alloc(&ctx, i));
        }
        let snap = HeapSnapshot::capture(&rt, &[&ctx]);
        let c = &snap.collections[0];
        assert_eq!(c.valid_slots, 100);
        assert_eq!(c.limbo_slots, 0);
        assert!(c.occupancy() > 0.0);
        assert_eq!(c.live_bytes(), 100 * c.slot_bytes as u64);
        // Free 40: they enter limbo until their removal epoch passes.
        for a in allocs.drain(..40) {
            assert!(ctx.free(a.entry, a.entry_inc));
        }
        let snap = HeapSnapshot::capture(&rt, &[&ctx]);
        let c = &snap.collections[0];
        assert_eq!(c.valid_slots, 60);
        assert_eq!(c.limbo_slots, 40);
        assert_eq!(c.dead_bytes(), 40 * c.slot_bytes as u64);
        assert!(snap.watermark.consistent());
        // The snapshot itself was pinned while capturing, so the pin-hold
        // histogram gained samples and indirection shows the live entries.
        assert!(snap.pin_hold.count > 0);
        assert_eq!(snap.indirection.live_entries, 60);
        assert_eq!(snap.indirection.entry_refills, 4, "100 adds, 32 a refill");
        let doc = snap.to_json();
        let exported = doc.get("indirection").and_then(|i| i.get("entry_refills"));
        assert_eq!(exported.and_then(|v| v.as_u64()), Some(4));
    }

    #[test]
    fn snapshot_reconciles_with_verify_when_quiescent() {
        let rt = Runtime::new();
        let ctx = context(&rt);
        let mut allocs = Vec::new();
        for i in 0..500 {
            allocs.push(alloc(&ctx, i));
        }
        for a in allocs.drain(..250) {
            assert!(ctx.free(a.entry, a.entry_inc));
        }
        let report = ctx.verify().expect("quiescent heap verifies");
        let snap = HeapSnapshot::capture(&rt, &[&ctx]);
        let c = &snap.collections[0];
        assert_eq!(c.valid_slots, report.valid_slots);
        assert_eq!(c.block_count(), report.blocks);
        assert!(
            c.limbo_slots >= report.limbo_slots,
            "snapshot limbo {} < verify limbo {}",
            c.limbo_slots,
            report.limbo_slots
        );
    }
}
