//! Invariant validation for the memory manager.
//!
//! [`MemoryContext::verify`] walks a context's blocks, slot directories and
//! indirection entries; [`Runtime::verify`] checks runtime-global state
//! (epoch/relocation flags, block accounting, indirection totals). The
//! stress harness calls these after every injected failure: a fault-induced
//! early exit anywhere in the manager must never leave a structural
//! inconsistency behind.
//!
//! Both validators require **quiescence**: no concurrent mutators,
//! enumerators, or in-flight compaction passes on the verified state. They
//! read non-atomically-consistent snapshots and would report spurious
//! violations against concurrent writers.

use std::sync::atomic::Ordering;

use crate::block::BlockRef;
use crate::context::MemoryContext;
use crate::incarnation::{FLAG_FORWARD, FLAG_FROZEN, FLAG_LOCK, INC_MASK};
use crate::indirection::EntryRef;
use crate::reloc::RelocationList;
use crate::runtime::Runtime;
use crate::slot::SlotState;
use crate::stats::MemoryStats;

/// Cap on accumulated violation messages, to keep pathological failures
/// readable.
const MAX_VIOLATIONS: usize = 32;

/// Summary of a successful [`MemoryContext::verify`] walk.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    /// Blocks walked (regular membership plus group sources and dests).
    pub blocks: usize,
    /// Valid (live) slots found.
    pub valid_slots: u64,
    /// Limbo (freed, unreclaimed) slots found.
    pub limbo_slots: u64,
    /// Live objects resident only in spilled pages (no heap slot).
    pub spilled_slots: u64,
    /// In-flight compaction groups encountered (0 when quiescent).
    pub groups: usize,
}

/// Collects violations up to [`MAX_VIOLATIONS`].
struct Violations(Vec<String>);

impl Violations {
    fn new() -> Self {
        Violations(Vec::new())
    }

    fn push(&mut self, msg: String) {
        if self.0.len() < MAX_VIOLATIONS {
            self.0.push(msg);
        }
    }

    fn into_result<T>(self, ok: T) -> Result<T, Vec<String>> {
        if self.0.is_empty() {
            Ok(ok)
        } else {
            Err(self.0)
        }
    }
}

impl MemoryContext {
    /// Validates every structural invariant of this context. Requires
    /// quiescence (see module docs). Returns the walk summary, or the list
    /// of violations found.
    ///
    /// Checked invariants, per block:
    /// - the header magic word is intact and the header identifies this
    ///   context's type and id;
    /// - the slot directory's recounted `Valid` slots equal the header's
    ///   `valid_count`, and the recounted `Limbo` slots equal `limbo_count`;
    /// - every `Valid` slot has a back-pointer to an indirection entry whose
    ///   payload points back at exactly this slot;
    /// - no `Valid` slot or its entry is left `LOCK`ed, no `Valid` slot
    ///   carries a `FORWARD` tombstone flag, and `FROZEN` appears only on
    ///   blocks that are mid-compaction.
    ///
    /// Per spilled page, every entry it lists carries the page's tag, is not
    /// `LOCK`ed and is not waiting in the graveyard.
    pub fn verify(&self) -> Result<VerifyReport, Vec<String>> {
        let mut v = Violations::new();
        let mut report = VerifyReport::default();
        let m = self.membership_snapshot();
        report.groups = m.groups.len();

        for block in m.owned_blocks() {
            self.verify_block(block, &mut v, &mut report);
        }
        self.verify_spilled(&mut v, &mut report);
        v.into_result(report)
    }

    /// Accounts objects that live only in spilled pages. Every entry a
    /// spilled page claims must still carry that page's spill-stub tag
    /// (fault-in untags and removes the page atomically under the spill
    /// mutex, so a mismatch means a lost or double-resident object), must
    /// not be left `LOCK`ed, must still have the incarnation the page
    /// recorded (scans name spilled records by it), and must not wait in the
    /// runtime's graveyard (a page holding a freed object's record).
    fn verify_spilled(&self, v: &mut Violations, report: &mut VerifyReport) {
        let buried = self.runtime.buried_entries();
        let (pages, counted) = self.with_spill_pages(|pages| {
            let mut counted = 0u64;
            for (&id, page) in pages {
                for (record, &(back, inc, _)) in page.entries.iter().enumerate() {
                    counted += 1;
                    let entry = unsafe { EntryRef::from_addr(back) };
                    let payload = entry.get().load_payload(Ordering::Acquire);
                    if payload != page.tag {
                        v.push(format!(
                            "spilled block {id} record {record}: entry payload {payload:#x} \
                             != spill stub {:#x}",
                            page.tag
                        ));
                    }
                    let word = entry.get().inc().load(Ordering::Acquire);
                    if word & FLAG_LOCK != 0 {
                        v.push(format!(
                            "spilled block {id} record {record}: entry incarnation left LOCKed"
                        ));
                    }
                    if word & INC_MASK != inc {
                        v.push(format!(
                            "spilled block {id} record {record}: entry incarnation {} != {inc} \
                             recorded at spill",
                            word & INC_MASK
                        ));
                    }
                    if buried.binary_search(&back).is_ok() {
                        v.push(format!(
                            "spilled block {id} record {record}: entry {back:#x} was freed \
                             (it waits in the graveyard)"
                        ));
                    }
                }
            }
            (pages.len(), counted)
        });
        report.spilled_slots = counted;
        let gauge_blocks = self.spilled_blocks();
        if gauge_blocks != pages as u64 {
            v.push(format!(
                "spilled-blocks gauge {gauge_blocks} != spill page count {pages}"
            ));
        }
        let gauge_objects = self.spilled_objects();
        if gauge_objects != counted {
            v.push(format!(
                "spilled-objects gauge {gauge_objects} != recounted {counted}"
            ));
        }
    }

    fn verify_block(&self, block: BlockRef, v: &mut Violations, report: &mut VerifyReport) {
        report.blocks += 1;
        let id = block.header().block_id;
        if !block.magic_ok() {
            v.push(format!("block {id}: header magic corrupted"));
            return; // nothing else in this header can be trusted
        }
        let header = block.header();
        if header.type_id != self.type_id() {
            v.push(format!(
                "block {id}: type_id {} != context type_id {}",
                header.type_id,
                self.type_id()
            ));
        }
        if header.context_id != self.id() {
            v.push(format!(
                "block {id}: context_id {} != context id {}",
                header.context_id,
                self.id()
            ));
        }
        if header.capacity != self.layout().capacity {
            v.push(format!(
                "block {id}: capacity {} != layout capacity {}",
                header.capacity,
                self.layout().capacity
            ));
        }

        let compacting = header.compacting.load(Ordering::Acquire) != 0;
        let mut valid = 0u64;
        let mut limbo = 0u64;
        for slot in 0..header.capacity {
            match block.slot_word(slot).state() {
                SlotState::Free => {}
                SlotState::Limbo => limbo += 1,
                SlotState::Valid => {
                    valid += 1;
                    self.verify_valid_slot(block, slot, compacting, v);
                }
            }
        }
        report.valid_slots += valid;
        report.limbo_slots += limbo;

        let counted_valid = header.valid_count.load(Ordering::Relaxed) as u64;
        if counted_valid != valid {
            v.push(format!(
                "block {id}: valid_count {counted_valid} != recounted {valid}"
            ));
        }
        // Freed and moved-out slots both enter limbo counted, so the count
        // is exact.
        let counted_limbo = header.limbo_count.load(Ordering::Relaxed) as u64;
        if counted_limbo != limbo {
            v.push(format!(
                "block {id}: limbo_count {counted_limbo} != recounted {limbo}"
            ));
        }
    }

    fn verify_valid_slot(&self, block: BlockRef, slot: u32, compacting: bool, v: &mut Violations) {
        let id = block.header().block_id;
        let back = block.back_ptr(slot).load(Ordering::Acquire);
        if back == 0 {
            v.push(format!(
                "block {id} slot {slot}: valid slot without back-pointer"
            ));
            return;
        }
        let entry = unsafe { EntryRef::from_addr(back) };
        let payload = entry.get().load_payload(Ordering::Acquire);
        let expected = block.payload(slot);
        if payload != expected {
            v.push(format!(
                "block {id} slot {slot}: entry payload {payload:#x} does not point back \
                 (expected {expected:#x})"
            ));
        }
        let entry_word = entry.get().inc().load(Ordering::Acquire);
        if entry_word & FLAG_LOCK != 0 {
            v.push(format!(
                "block {id} slot {slot}: entry incarnation left LOCKed"
            ));
        }
        if entry_word & FLAG_FORWARD != 0 {
            v.push(format!(
                "block {id} slot {slot}: live entry carries FORWARD flag"
            ));
        }
        if entry_word & FLAG_FROZEN != 0 && !compacting {
            v.push(format!(
                "block {id} slot {slot}: entry FROZEN outside compaction"
            ));
        }
        let slot_word = block.payload_inc(slot).load(Ordering::Acquire);
        if slot_word & FLAG_LOCK != 0 {
            v.push(format!(
                "block {id} slot {slot}: slot incarnation left LOCKed"
            ));
        }
        if slot_word & FLAG_FORWARD != 0 {
            v.push(format!(
                "block {id} slot {slot}: valid slot is a FORWARD tombstone"
            ));
        }
        if slot_word & FLAG_FROZEN != 0 && !compacting {
            let reloc = match RelocationList::of(&block).map(|list| list.find(slot)) {
                None => "no reloc list".to_string(),
                Some(Some(r)) => format!("reloc status {:?} inc {:#x}", r.status(), r.inc),
                Some(None) => "not in reloc list".to_string(),
            };
            v.push(format!(
                "block {id} slot {slot}: slot FROZEN outside compaction \
                 (word {slot_word:#x}, entry word {entry_word:#x}, {reloc})"
            ));
        }
    }
}

impl Runtime {
    /// Validates runtime-global invariants. Requires quiescence (see module
    /// docs): in particular, no compaction pass may be in flight.
    ///
    /// Checked invariants:
    /// - relocation state is fully cleared (no moving phase without an
    ///   announced relocation epoch; both clear when quiescent);
    /// - block accounting balances: `blocks_live` equals
    ///   `blocks_allocated - blocks_freed` and covers the graveyard's blocks;
    /// - allocator accounting balances: every block held from the OS is
    ///   either a live handout or parked in a shard cache
    ///   (`budgeted == blocks_live + cached`);
    /// - the indirection table's live entries equal the live object count;
    /// - no indirection entry is lost or counted twice: `capacity == live +
    ///   in magazines + free + deferred + quarantined`, where `deferred` is
    ///   the entries in the graveyard.
    pub fn verify(&self) -> Result<(), Vec<String>> {
        let mut v = Violations::new();
        if self.epochs.in_moving_phase() && self.epochs.next_relocation_epoch() == 0 {
            v.push("moving phase open without an announced relocation epoch".into());
        }
        let live = MemoryStats::get(&self.stats.blocks_live);
        let allocated = MemoryStats::get(&self.stats.blocks_allocated);
        let freed = MemoryStats::get(&self.stats.blocks_freed);
        if allocated.checked_sub(freed) != Some(live) {
            v.push(format!(
                "block accounting off: allocated {allocated} - freed {freed} != live {live}"
            ));
        }
        let buried = self.buried();
        if buried.blocks as u64 > live {
            v.push(format!(
                "graveyard holds {} blocks but only {live} live",
                buried.blocks
            ));
        }
        let budgeted = self.alloc.budgeted_blocks();
        let cached = self.alloc.cached_blocks();
        if budgeted != live + cached {
            v.push(format!(
                "allocator accounting off: budgeted {budgeted} != live {live} + cached {cached}"
            ));
        }
        let entries = self.indirection.live_entries();
        let allocated = self.stats.hot(|cell| &cell.objects_allocated);
        let objects = allocated.saturating_sub(self.stats.hot(|cell| &cell.objects_freed));
        if entries != objects {
            v.push(format!(
                "indirection live entries {entries} != live objects {objects}"
            ));
        }
        let deferred = buried.entries as u64;
        if let Err(lost_or_doubled) = self.indirection.check_conserved(deferred) {
            v.push(lost_or_doubled);
        }
        v.into_result(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::tests::{alloc_u64, ctx, ctx_with};
    use crate::context::ContextConfig;

    #[test]
    fn fresh_runtime_and_context_verify_clean() {
        let rt = Runtime::new();
        rt.verify().unwrap();
        let c = ctx(&rt);
        let report = c.verify().unwrap();
        assert_eq!(report, VerifyReport::default());
    }

    #[test]
    fn verify_counts_slots_after_churn() {
        let rt = Runtime::new();
        let c = ctx(&rt);
        let allocs: Vec<_> = (0..100).map(|i| alloc_u64(&c, i)).collect();
        for a in allocs.iter().take(40) {
            assert!(c.free(a.entry, a.entry_inc));
        }
        let report = c.verify().unwrap();
        assert_eq!(report.valid_slots, 60);
        assert_eq!(report.limbo_slots, 40);
        assert!(report.blocks >= 1);
        rt.verify().unwrap();
    }

    #[test]
    fn verify_passes_after_compaction() {
        let rt = Runtime::new();
        let config = ContextConfig {
            reclamation_threshold: 1.1,
            ..ContextConfig::default()
        };
        let c = ctx_with(&rt, config);
        let cap = c.layout().capacity as usize;
        let allocs: Vec<_> = (0..cap * 4).map(|i| alloc_u64(&c, i as u64)).collect();
        for (i, a) in allocs.iter().enumerate() {
            if i % 10 != 0 {
                assert!(c.free(a.entry, a.entry_inc));
            }
        }
        let report = c.compact();
        assert!(report.moved > 0);
        rt.drain_graveyard_blocking();
        let vr = c.verify().unwrap();
        assert_eq!(vr.groups, 0, "no groups survive a finished pass");
        rt.verify().unwrap();
    }

    #[test]
    fn verify_covers_a_columnar_context() {
        let rt = Runtime::new();
        let config = ContextConfig {
            reclamation_threshold: 1.1,
            ..ContextConfig::default()
        };
        let c = MemoryContext::new_columnar(
            rt.clone(),
            &[8, 8],
            crate::block::type_id_of::<[u64; 2]>(),
            config,
        )
        .unwrap();
        let cols = c.layout().columns;
        let cell = |block: &BlockRef, i: usize, slot: u32| unsafe {
            block
                .store_base()
                .add(cols.offset(i) + slot as usize * 8)
                .cast::<u64>()
        };
        let cap = c.layout().capacity as u64;
        let allocs: Vec<_> = (0..cap * 4)
            .map(|k| {
                let a = c.alloc_with(|block, slot| unsafe {
                    cell(block, 0, slot).write(k);
                    cell(block, 1, slot).write(k * 3);
                });
                (k, a.unwrap())
            })
            .collect();
        for (k, a) in &allocs {
            if k % 5 != 0 {
                assert!(c.free(a.entry, a.entry_inc));
            }
        }
        let survivors = allocs.iter().filter(|(k, _)| k % 5 == 0).count() as u64;
        assert_eq!(c.verify().unwrap().valid_slots, survivors);
        let report = c.compact();
        assert!(report.moved > 0, "{report:?}");
        rt.drain_graveyard_blocking();
        let vr = c.verify().unwrap();
        assert_eq!(vr.valid_slots, survivors);
        rt.verify().unwrap();
        // Every survivor's cells moved with it.
        for (k, a) in allocs.iter().filter(|(k, _)| k % 5 == 0) {
            let payload = a.entry.get().load_payload(Ordering::Acquire);
            let (block, slot) = unsafe { BlockRef::locate(payload) };
            unsafe {
                assert_eq!(cell(&block, 0, slot).read(), *k);
                assert_eq!(cell(&block, 1, slot).read(), k * 3);
            }
        }
        // A hand-broken counter on a columnar block is reported.
        let (_, a) = &allocs[0];
        let payload = a.entry.get().load_payload(Ordering::Acquire);
        let (block, _) = unsafe { BlockRef::locate(payload) };
        block.header().valid_count.fetch_add(1, Ordering::Relaxed);
        let violations = c.verify().unwrap_err();
        assert!(
            violations.iter().any(|m| m.contains("valid_count")),
            "{violations:?}"
        );
        block.header().valid_count.fetch_sub(1, Ordering::Relaxed);
        c.verify().unwrap();
    }

    #[test]
    fn verify_detects_corrupted_counts() {
        let rt = Runtime::new();
        let c = ctx(&rt);
        let a = alloc_u64(&c, 1);
        // Sabotage: inflate the valid counter behind the validator's back.
        a.block.header().valid_count.fetch_add(5, Ordering::Relaxed);
        let violations = c.verify().unwrap_err();
        assert!(
            violations.iter().any(|m| m.contains("valid_count")),
            "{violations:?}"
        );
        a.block.header().valid_count.fetch_sub(5, Ordering::Relaxed);
        c.verify().unwrap();
    }

    #[test]
    fn verify_detects_dangling_entry_payload() {
        let rt = Runtime::new();
        let c = ctx(&rt);
        let a = alloc_u64(&c, 2);
        let good = a.entry.get().load_payload(Ordering::Acquire);
        a.entry.get().store_payload(good + 8, Ordering::Release);
        let violations = c.verify().unwrap_err();
        assert!(
            violations.iter().any(|m| m.contains("does not point back")),
            "{violations:?}"
        );
        a.entry.get().store_payload(good, Ordering::Release);
        c.verify().unwrap();
    }
}
