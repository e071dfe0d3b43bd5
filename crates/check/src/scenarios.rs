//! Protocol scenarios: small, fully-checkable concurrent workloads over the
//! *real* `smc-memory` protocol code, each with a shadow-state oracle.
//!
//! Every scenario factory builds a fresh world (epoch manager / blocks /
//! indirection entries) plus shadow state kept in *uninstrumented* `std`
//! types — shadow bookkeeping must not create interleaving points of its own.
//! The oracle runs either inline (asserts inside thread bodies) or as a
//! single-threaded finale once all virtual threads finished.
//!
//! The oracles encode the §3/§5 safety contracts:
//!
//! * **pin/advance** — while a thread is pinned at epoch `e`, the global
//!   epoch never exceeds `e + 1` (otherwise memory freed inside the reader's
//!   grace period could already be reused under it).
//! * **free/freeze** — a freed slot ends with its counter bumped exactly once
//!   and no leaked compaction flags, no matter how `free` races a freeze.
//! * **relocation** — every live reference resolves to exactly one
//!   incarnation in exactly one location: one winner per move, slot-side
//!   counters survive relocation, bailed-out objects are unfrozen.
//! * **§5.2 visitation** — a scanner visits each live object exactly once
//!   under concurrent compaction.
//! * **budget** — a context's budget admits racing adders up to one block
//!   each beyond the first and never leaks a refused block; a freed
//!   block stays with the thread that frees it.
//! * **entries** — indirection entries are conserved, and none is handed out
//!   twice, while thread slots' magazines change hands and releases race
//!   allocations.
//! * **spill** — a free racing a spill of its object's block lands, and no
//!   spilled page keeps the record of a freed object; a spilled scan racing
//!   a fault-in and a free of its page visits each object once.
//! * **rings and waiter** — a reply ring drained by its documented rule
//!   loses and reorders nothing; a wake-up published while its waiter goes
//!   to sleep is not lost; a trace-ring reader racing the owner sees only
//!   whole records.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use smc_memory::alloc::ALLOC_BATCH;
use smc_memory::block::{type_id_of, BlockLayout, BlockRef, BLOCK_SIZE};
use smc_memory::context::{CompactionGroup, ContextConfig, Membership, MemoryContext};
use smc_memory::error::MemError;
use smc_memory::incarnation::{IncWord, FLAG_FORWARD, FLAG_FROZEN, FLAG_LOCK, FLAG_MASK, INC_MASK};
use smc_memory::reloc::{
    bail_out_relocation, cancel_relocation, try_move_object, MoveOutcome, RelocEntry, RelocStatus,
    RelocationList,
};
use smc_memory::runtime::Runtime;
use smc_memory::slot::SlotState;
use smc_memory::spill::MemoryPageStore;
use smc_memory::stats::MemoryStats;
use smc_memory::{EntryRef, EpochManager, IndirectionTable};
use smc_obs::trace::{CheckRing, Event, TracedEvent, RING_CAPACITY};
use smc_util::spsc;
use smc_util::sync::{cpu_relax, AtomicBool, AtomicU32};
use smc_util::waiter::Waiter;

use crate::sched::Scenario;

/// A named scenario factory, as listed by [`all`].
pub type NamedScenario = (&'static str, fn() -> Scenario);

/// Name → factory for every protocol scenario, for exhaustive sweeps.
pub fn all() -> Vec<NamedScenario> {
    vec![
        ("pin_vs_advance", pin_vs_advance as fn() -> Scenario),
        ("free_vs_freeze", free_vs_freeze),
        ("double_mover", double_mover),
        ("move_vs_bail", move_vs_bail),
        ("cancel_vs_inflight_move", cancel_vs_inflight_move),
        ("slot_vs_entry_incarnation", slot_vs_entry_incarnation),
        ("exactly_once_visitation", exactly_once_visitation),
        ("budget_race", budget_race),
        ("snapshot_vs_advance", snapshot_vs_advance),
        ("foreign_free_vs_owner_pop", foreign_free_vs_owner_pop),
        ("entry_release_vs_owner_alloc", entry_release_vs_owner_alloc),
        ("spill_vs_free", spill_vs_free),
        ("spilled_scan_vs_fault_in", spilled_scan_vs_fault_in),
        (
            "reply_ring_drain_vs_late_producer",
            reply_ring_drain_vs_late_producer,
        ),
        ("waiter_park_vs_wake", waiter_park_vs_wake),
        ("trace_ring_reader_vs_owner", trace_ring_reader_vs_owner),
    ]
}

/// A reader pins while another thread drives the epoch forward. Oracle: the
/// reader, while pinned at `e`, never observes a global epoch above `e + 1`
/// (§3.4 — this is exactly the bound that makes "free at `e`, reuse at
/// `e + 2`" safe). Catches [`smc_util::mutation::Mutation::NoPublishRecheck`]
/// and [`smc_util::mutation::Mutation::AdvanceIgnoresPinned`].
pub fn pin_vs_advance() -> Scenario {
    let mgr = EpochManager::new();
    let reader_mgr = mgr.clone();
    Scenario::new()
        .thread(move || {
            let guard = reader_mgr.pin();
            let pinned = guard.epoch();
            let global = reader_mgr.global_epoch();
            assert!(
                global <= pinned + 1,
                "reader pinned at epoch {pinned} observed global epoch {global}: \
                 memory freed during its grace period may already be reused"
            );
            drop(guard);
        })
        .thread(move || {
            let _ = mgr.try_advance();
            let _ = mgr.try_advance();
        })
}

/// The memory observatory's capture sequence (pin → read epoch begin → walk
/// → read min-pinned → read epoch end) races an epoch-advancing thread.
/// Oracle: the snapshot's watermark invariant — both epoch reads, taken
/// while pinned at `e`, are bounded by `e + 1`, and the min-pinned gauge
/// never reports an epoch above the snapshotter's own pin (the snapshot *is*
/// a pinned reader, so it bounds the minimum from above). This is exactly
/// the `Watermark::consistent()` contract `HeapSnapshot::try_capture`
/// asserts over a live heap; here it is swept over every interleaving.
pub fn snapshot_vs_advance() -> Scenario {
    let mgr = EpochManager::new();
    let snap_mgr = mgr.clone();
    Scenario::new()
        .thread(move || {
            // HeapSnapshot::try_capture, reduced to its epoch reads.
            let guard = snap_mgr.pin();
            let pinned = guard.epoch();
            let begin = snap_mgr.global_epoch();
            let min_pinned = snap_mgr.min_pinned_epoch();
            let lag = snap_mgr.epoch_lag();
            let end = snap_mgr.global_epoch();
            assert!(
                begin <= pinned + 1 && end <= pinned + 1,
                "snapshot pinned at {pinned} watermarked [{begin}, {end}]: \
                 blocks walked by the snapshot could already be reused"
            );
            let min = min_pinned.expect("snapshotter itself is pinned");
            assert!(
                min <= pinned,
                "min-pinned gauge ({min}) passed over the snapshotter's own \
                 pin ({pinned})"
            );
            assert!(
                min + lag >= begin,
                "epoch lag {lag} inconsistent with min-pinned {min} and \
                 global {begin}"
            );
            drop(guard);
        })
        .thread(move || {
            let _ = mgr.try_advance();
            let _ = mgr.try_advance();
        })
}

/// `free` (counter bump) races a compaction freeze on one incarnation word.
/// Oracle: the counter lands on exactly 1 and no flag survives — a freeze
/// that lost the race must have been rejected (stale counter) or cleared by
/// the bump (§5.1 footnote: free uses CAS for precisely this race).
fn free_vs_freeze() -> Scenario {
    let word = Arc::new(IncWord::new(0));
    let freer = word.clone();
    let freezer = word.clone();
    Scenario::new()
        .thread(move || {
            let _ = freer.bump();
        })
        .thread(move || {
            let _ = freezer.try_set_flag(0, FLAG_FROZEN);
        })
        .finally(move || {
            let end = word.load(Ordering::SeqCst);
            assert_eq!(
                end & INC_MASK,
                1,
                "free must land exactly once (word {end:#010x})"
            );
            assert_eq!(
                end & FLAG_MASK,
                0,
                "no compaction flag may survive a free (word {end:#010x})"
            );
        })
}

const SRC_SLOT: u32 = 3;
const DEST_SLOT: u32 = 7;

/// An entry of `table` for a fixture, taken by the thread that builds it
/// through a registry of its own.
fn fixture_entry(table: &IndirectionTable) -> EntryRef {
    let registry = EpochManager::new();
    table.allocate(registry.slot().expect("a fresh registry has room"))
}

/// A frozen object wired for relocation: source + destination blocks, one
/// indirection entry, one pending [`RelocEntry`] installed in the source
/// block's header list.
struct MoveFixture {
    src: BlockRef,
    dst: BlockRef,
    entry: EntryRef,
    reloc: Arc<RelocEntry>,
    /// Keeps the entry's backing storage alive for the scenario's duration.
    table: Arc<IndirectionTable>,
}

fn move_fixture(value: u64, slot_counter: u32) -> MoveFixture {
    let layout = BlockLayout::rows_of::<u64>().expect("u64 fits a block");
    let src = BlockRef::allocate(&layout, type_id_of::<u64>(), 1).expect("alloc src");
    let dst = BlockRef::allocate(&layout, type_id_of::<u64>(), 1).expect("alloc dst");
    let table = Arc::new(IndirectionTable::new());
    let entry = fixture_entry(&table);
    unsafe { src.obj_ptr(SRC_SLOT).cast::<u64>().write(value) };
    // The slot-side incarnation is an independent counter from the entry's;
    // seeding it differently is what makes counter confusion detectable.
    src.slot_inc(SRC_SLOT)
        .store(slot_counter, Ordering::Release);
    src.slot_word(SRC_SLOT).set_valid();
    src.back_ptr(SRC_SLOT)
        .store(entry.addr(), Ordering::Release);
    src.header().valid_count.fetch_add(1, Ordering::Relaxed);
    entry
        .get()
        .store_payload(src.obj_ptr(SRC_SLOT) as usize, Ordering::Release);
    // Freezing epoch work (§5.1): freeze both incarnation words and publish
    // the relocation list through the source header.
    assert!(entry.get().inc().try_set_flag(0, FLAG_FROZEN));
    assert!(src
        .slot_inc(SRC_SLOT)
        .try_set_flag(slot_counter, FLAG_FROZEN));
    let reloc = Arc::new(RelocEntry::new(
        SRC_SLOT,
        entry.addr(),
        0,
        dst.obj_ptr(DEST_SLOT) as usize,
        DEST_SLOT,
    ));
    let list = Box::new(RelocationList::new(layout, Vec::new()));
    src.header()
        .reloc_list
        .store(Box::into_raw(list), Ordering::Release);
    MoveFixture {
        src,
        dst,
        entry,
        reloc,
        table,
    }
}

/// Two movers race to execute the same relocation (compaction thread vs a
/// §5.1-case-c helping reader). Oracle: exactly one `MovedByUs`, the
/// destination counts the object exactly once, and the source is a clean
/// forwarding tombstone — i.e. no reader can observe a moved-then-reused
/// slot as live. Catches [`smc_util::mutation::Mutation::MoveSkipsLock`].
pub fn double_mover() -> Scenario {
    let fx = move_fixture(4242, 0);
    let outcomes = Arc::new(Mutex::new(Vec::new()));
    let (src, dst, entry, reloc) = (fx.src, fx.dst, fx.entry, fx.reloc.clone());
    let mut scenario = Scenario::new();
    for _ in 0..2 {
        let reloc = reloc.clone();
        let outcomes = outcomes.clone();
        let table = fx.table.clone();
        scenario = scenario.thread(move || {
            let outcome = unsafe { try_move_object(src, &reloc) };
            outcomes.lock().unwrap().push(outcome);
            drop(table);
        });
    }
    let table = fx.table;
    scenario.finally(move || {
        let outcomes = outcomes.lock().unwrap();
        let winners = outcomes
            .iter()
            .filter(|o| **o == MoveOutcome::MovedByUs)
            .count();
        assert_eq!(
            winners, 1,
            "exactly one mover must win the relocation, got {outcomes:?}"
        );
        assert_eq!(reloc.status(), RelocStatus::Succeeded);
        assert_eq!(unsafe { dst.obj_ptr(DEST_SLOT).cast::<u64>().read() }, 4242);
        assert_eq!(dst.slot_word(DEST_SLOT).state(), SlotState::Valid);
        assert_eq!(
            dst.header().valid_count.load(Ordering::SeqCst),
            1,
            "destination must count the object exactly once"
        );
        assert_eq!(
            entry.get().load_payload(Ordering::SeqCst),
            dst.obj_ptr(DEST_SLOT) as usize,
            "the indirection entry must resolve to the new location"
        );
        let src_word = src.slot_inc(SRC_SLOT).load(Ordering::SeqCst);
        assert_ne!(
            src_word & FLAG_FORWARD,
            0,
            "source slot must be a forwarding tombstone"
        );
        assert_eq!(src_word & (FLAG_FROZEN | FLAG_LOCK), 0);
        unsafe {
            src.deallocate();
            dst.deallocate();
        }
        drop(table);
    })
}

/// A mover races a reader that bails the relocation out (§5.1 case b).
/// Oracle: whichever side wins, the world is consistent — a successful move
/// leaves a forwarding source and a valid destination; a bail-out leaves the
/// object in place with the freeze fully stripped so readers stop taking the
/// slow path. Catches [`smc_util::mutation::Mutation::BailKeepsFrozen`].
pub fn move_vs_bail() -> Scenario {
    let fx = move_fixture(77, 0);
    let (src, dst, entry, reloc) = (fx.src, fx.dst, fx.entry, fx.reloc.clone());
    let mover_reloc = reloc.clone();
    let bailer_reloc = reloc.clone();
    let mover_table = fx.table.clone();
    let bailer_table = fx.table.clone();
    let table = fx.table;
    Scenario::new()
        .thread(move || {
            let _ = unsafe { try_move_object(src, &mover_reloc) };
            drop(mover_table);
        })
        .thread(move || {
            let _ = unsafe { bail_out_relocation(src, &bailer_reloc) };
            drop(bailer_table);
        })
        .finally(move || {
            match reloc.status() {
                RelocStatus::Succeeded => {
                    assert_eq!(unsafe { dst.obj_ptr(DEST_SLOT).cast::<u64>().read() }, 77);
                    assert_eq!(dst.slot_word(DEST_SLOT).state(), SlotState::Valid);
                    assert_eq!(
                        entry.get().load_payload(Ordering::SeqCst),
                        dst.obj_ptr(DEST_SLOT) as usize
                    );
                    let src_word = src.slot_inc(SRC_SLOT).load(Ordering::SeqCst);
                    assert_ne!(src_word & FLAG_FORWARD, 0);
                    assert_eq!(src_word & (FLAG_FROZEN | FLAG_LOCK), 0);
                }
                RelocStatus::Failed => {
                    // Bail-out won: object stays put, fully thawed.
                    assert_eq!(src.slot_word(SRC_SLOT).state(), SlotState::Valid);
                    assert_eq!(unsafe { src.obj_ptr(SRC_SLOT).cast::<u64>().read() }, 77);
                    let src_word = src.slot_inc(SRC_SLOT).load(Ordering::SeqCst);
                    assert_eq!(
                        src_word & FLAG_FROZEN,
                        0,
                        "bailed-out relocation left the source slot frozen: \
                         readers would wedge on the §5.1 slow path forever"
                    );
                    assert_eq!(src_word & FLAG_LOCK, 0);
                    assert_eq!(
                        entry.get().inc().load(Ordering::SeqCst) & FLAG_MASK,
                        0,
                        "bail-out must strip the entry-side freeze too"
                    );
                    assert_eq!(
                        entry.get().load_payload(Ordering::SeqCst),
                        src.obj_ptr(SRC_SLOT) as usize
                    );
                    assert_eq!(dst.header().valid_count.load(Ordering::SeqCst), 0);
                }
                RelocStatus::Pending => panic!("relocation never settled"),
            }
            unsafe {
                src.deallocate();
                dst.deallocate();
            }
            drop(table);
        })
}

/// The pass epilogue's rollback races a mover still moving the entry: an
/// interrupted or aborted pass rolls every still-pending relocation back
/// through [`cancel_relocation`] while a helping reader may be mid-move.
/// Oracle: the rollback is *exact* — whichever side settles the entry, the
/// world reconciles bit-exact. A completed move leaves a forwarding source
/// and valid destination; a rolled-back move leaves the object in place with
/// freeze and lock fully stripped on both the slot and the entry, exactly as
/// `Smc::verify` demands after the pass. Catches
/// [`smc_util::mutation::Mutation::CancelSkipsBailRollback`].
pub fn cancel_vs_inflight_move() -> Scenario {
    let fx = move_fixture(5150, 0);
    let (src, dst, entry, reloc) = (fx.src, fx.dst, fx.entry, fx.reloc.clone());
    let mover_reloc = reloc.clone();
    let canceller_reloc = reloc.clone();
    let mover_table = fx.table.clone();
    let canceller_table = fx.table.clone();
    let table = fx.table;
    Scenario::new()
        .thread(move || {
            // A helping reader, moving the entry.
            let _ = unsafe { try_move_object(src, &mover_reloc) };
            drop(mover_table);
        })
        .thread(move || {
            // The interrupted pass's epilogue, rolling the entry back.
            let _ = unsafe { cancel_relocation(src, &canceller_reloc) };
            drop(canceller_table);
        })
        .finally(move || {
            match reloc.status() {
                RelocStatus::Succeeded => {
                    // The move beat the cancel: normal post-move state.
                    assert_eq!(unsafe { dst.obj_ptr(DEST_SLOT).cast::<u64>().read() }, 5150);
                    assert_eq!(dst.slot_word(DEST_SLOT).state(), SlotState::Valid);
                    assert_eq!(
                        entry.get().load_payload(Ordering::SeqCst),
                        dst.obj_ptr(DEST_SLOT) as usize
                    );
                    let src_word = src.slot_inc(SRC_SLOT).load(Ordering::SeqCst);
                    assert_ne!(src_word & FLAG_FORWARD, 0);
                    assert_eq!(src_word & (FLAG_FROZEN | FLAG_LOCK), 0);
                }
                RelocStatus::Failed => {
                    // Cancel won: the object must stay put, fully thawed, so
                    // a later pass can retry it and verify reconciles now.
                    assert_eq!(src.slot_word(SRC_SLOT).state(), SlotState::Valid);
                    assert_eq!(unsafe { src.obj_ptr(SRC_SLOT).cast::<u64>().read() }, 5150);
                    let src_word = src.slot_inc(SRC_SLOT).load(Ordering::SeqCst);
                    assert_eq!(
                        src_word & FLAG_FROZEN,
                        0,
                        "cancelled relocation left the source slot frozen: \
                         the quiesced heap would fail Smc::verify and readers \
                         would wedge on the §5.1 slow path"
                    );
                    assert_eq!(src_word & FLAG_LOCK, 0);
                    assert_eq!(
                        entry.get().inc().load(Ordering::SeqCst) & FLAG_MASK,
                        0,
                        "cancel must strip the entry-side freeze too"
                    );
                    assert_eq!(
                        entry.get().load_payload(Ordering::SeqCst),
                        src.obj_ptr(SRC_SLOT) as usize
                    );
                    assert_eq!(dst.header().valid_count.load(Ordering::SeqCst), 0);
                }
                RelocStatus::Pending => panic!("cancelled relocation never settled"),
            }
            unsafe {
                src.deallocate();
                dst.deallocate();
            }
            drop(table);
        })
}

/// The slot-side incarnation counter (seeded to 5) differs from the
/// entry-side counter (0). A mover relocates the object while a direct-
/// pointer reader validates against the slot side and chases the forwarding
/// tombstone. Oracle: the *slot* counter is what survives at the destination
/// (§6 — direct references embed the slot counter). Catches the original
/// PR 1 bug re-introduced as
/// [`smc_util::mutation::Mutation::SlotVsEntryInc`].
pub fn slot_vs_entry_incarnation() -> Scenario {
    const SLOT_COUNTER: u32 = 5;
    let fx = move_fixture(9001, SLOT_COUNTER);
    let (src, dst, reloc) = (fx.src, fx.dst, fx.reloc.clone());
    let mover_table = fx.table.clone();
    let table = fx.table;
    Scenario::new()
        .thread(move || {
            let outcome = unsafe { try_move_object(src, &reloc) };
            assert_eq!(outcome, MoveOutcome::MovedByUs);
            drop(mover_table);
        })
        .thread(move || {
            // A direct reference holds (slot address, counter 5). If it finds
            // the slot forwarded, revalidation at the destination must still
            // succeed against counter 5.
            let word = src.slot_inc(SRC_SLOT).load(Ordering::SeqCst);
            if word & FLAG_FORWARD != 0 {
                let dest_word = dst.slot_inc(DEST_SLOT).load(Ordering::SeqCst);
                assert_eq!(
                    dest_word & INC_MASK,
                    SLOT_COUNTER,
                    "direct reference (slot counter {SLOT_COUNTER}) no longer validates \
                     after relocation: destination got counter {}",
                    dest_word & INC_MASK
                );
            } else {
                assert_eq!(
                    word & INC_MASK,
                    SLOT_COUNTER,
                    "unmoved slot counter changed under a live reference"
                );
            }
        })
        .finally(move || {
            let dest_word = dst.slot_inc(DEST_SLOT).load(Ordering::SeqCst);
            assert_eq!(
                dest_word & INC_MASK,
                SLOT_COUNTER,
                "relocation must install the slot-side incarnation at the destination \
                 (entry-side counter is an independent sequence)"
            );
            let src_word = src.slot_inc(SRC_SLOT).load(Ordering::SeqCst);
            assert_eq!(
                src_word & INC_MASK,
                SLOT_COUNTER,
                "forwarding tombstone must keep the slot counter for direct readers"
            );
            unsafe {
                src.deallocate();
                dst.deallocate();
            }
            drop(table);
        })
}

const VISIT_OBJECTS: u32 = 3;

/// §5.2's query-counter protocol: a scanner and a compacting mover race over
/// a group of one source block holding three objects. The scanner is the
/// shipped scan — [`Membership::for_each_block`] under a guard pinned in the
/// relocation epoch, hence [`CompactionGroup::read`], then
/// [`BlockRef::valid_slots`] over the blocks it yields: it increments the
/// group's query counter and re-checks `started`;
/// if the mover won it helps finish the move ([`CompactionGroup::help_relocate`])
/// and reads dest plus source. The mover announces `started` and waits in
/// [`CompactionGroup::wait_pre_readers`] before moving anything. Oracle: the
/// scanner visits every object **exactly once** — never zero (lost under the
/// move) and never twice (seen at both source and destination). Catches
/// [`smc_util::mutation::Mutation::PinSkipsStartedRecheck`].
pub fn exactly_once_visitation() -> Scenario {
    // 20 000-byte slots: a block holds exactly the three objects, so the
    // shipped whole-block walk costs the checker three steps per block
    // rather than thousands. Only the leading u64 of each slot is used.
    let layout = BlockLayout::rows(20_000, 8).expect("three wide slots fit a block");
    assert_eq!(layout.capacity, VISIT_OBJECTS);
    let src = BlockRef::allocate(&layout, type_id_of::<u64>(), 1).expect("alloc src");
    let dst = BlockRef::allocate(&layout, type_id_of::<u64>(), 1).expect("alloc dst");
    let table = Arc::new(IndirectionTable::new());
    let mut relocs = Vec::new();
    for slot in 0..VISIT_OBJECTS {
        let entry = fixture_entry(&table);
        unsafe {
            src.obj_ptr(slot)
                .cast::<u64>()
                .write(1000 + u64::from(slot))
        };
        src.slot_word(slot).set_valid();
        src.back_ptr(slot).store(entry.addr(), Ordering::Release);
        src.header().valid_count.fetch_add(1, Ordering::Relaxed);
        entry
            .get()
            .store_payload(src.obj_ptr(slot) as usize, Ordering::Release);
        assert!(entry.get().inc().try_set_flag(0, FLAG_FROZEN));
        assert!(src.slot_inc(slot).try_set_flag(0, FLAG_FROZEN));
        relocs.push(RelocEntry::new(
            slot,
            entry.addr(),
            0,
            dst.obj_ptr(slot) as usize,
            slot,
        ));
    }
    let list = Box::new(RelocationList::new(layout, relocs));
    src.header()
        .reloc_list
        .store(Box::into_raw(list), Ordering::Release);
    let group = Arc::new(CompactionGroup {
        sources: vec![src],
        dest: dst,
        query_counter: AtomicU32::new(0),
        started: AtomicBool::new(false),
        settled: AtomicBool::new(false),
    });
    // The moving phase of relocation epoch 1: the scanner's pin lands in the
    // relocation epoch, so its read takes the §5.2 path, and helping is
    // permitted.
    let mgr = EpochManager::new();
    mgr.try_advance().expect("nothing is pinned");
    mgr.set_relocation_epoch(1);
    mgr.set_moving_phase(true);
    let stats = Arc::new(MemoryStats::new());

    let visited = Arc::new(Mutex::new(Vec::new()));
    let snapshot = Membership {
        blocks: Vec::new(),
        groups: vec![group.clone()],
    };
    let mover_group = group;
    let mover_table = table.clone();
    let scan_visited = visited.clone();
    let scan_table = table.clone();
    Scenario::new()
        .thread(move || {
            // Mover (§5.2): announce, wait for in-flight scans, then move.
            // The scanner may help, so losing an object's move to it is fine.
            mover_group.started.store(true, Ordering::SeqCst);
            assert!(mover_group.wait_pre_readers(None));
            let list = unsafe { &*src.header().reloc_list.load(Ordering::SeqCst) };
            for reloc in &list.entries {
                let outcome = unsafe { try_move_object(src, reloc) };
                assert!(matches!(
                    outcome,
                    MoveOutcome::MovedByUs | MoveOutcome::AlreadyMoved
                ));
            }
            drop(mover_table);
        })
        .thread(move || {
            // Scanner: the sequential scan every `for_each` runs, over a
            // snapshot holding just the group.
            let guard = mgr.pin();
            snapshot.for_each_block(&guard, &stats, |block| {
                for slot in block.valid_slots() {
                    // Object values, not addresses: the violation message
                    // must replay identically from its seed.
                    let value = unsafe { block.obj_ptr(slot).cast::<u64>().read() };
                    scan_visited.lock().unwrap().push(value);
                }
            });
            drop(guard);
            drop(scan_table);
        })
        .finally(move || {
            let mut seen = visited.lock().unwrap().clone();
            seen.sort_unstable();
            let expected: Vec<u64> = (0..VISIT_OBJECTS).map(|s| 1000 + u64::from(s)).collect();
            assert_eq!(
                seen, expected,
                "scanner must visit each live object exactly once under \
                 concurrent compaction (missing = lost, duplicate = double-seen)"
            );
            unsafe {
                src.deallocate();
                dst.deallocate();
            }
            drop(table);
        })
}

/// Two threads add one object each to a context with a one-block budget.
/// The context's budget gate is check-then-act (DESIGN.md §8): both racers
/// may pass the check before either block joins the context, so the
/// context may overshoot by one block per racer beyond the first. Oracle:
/// each thread gets its object or a clean `OutOfMemory`; `blocks_live`
/// equals the blocks the context holds (a refused add takes no block); and
/// the context holds at most the budget plus one block per extra racer.
fn budget_race() -> Scenario {
    const RACERS: usize = 2;
    let config = ContextConfig {
        budget_bytes: Some(BLOCK_SIZE as u64),
        ..ContextConfig::default()
    };
    let ctx = Arc::new(
        MemoryContext::new_rows(Runtime::new(), 8, 8, type_id_of::<u64>(), config)
            .expect("u64 fits a block"),
    );
    let outcomes = Arc::new(Mutex::new(Vec::new()));
    let mut scenario = Scenario::new();
    for value in 0..RACERS as u64 {
        let (ctx, outcomes) = (ctx.clone(), outcomes.clone());
        scenario = scenario.thread(move || {
            let outcome = ctx.alloc_with(|block, slot| unsafe {
                block.obj_ptr(slot).cast::<u64>().write(value)
            });
            outcomes.lock().unwrap().push(outcome.map(|_| ()));
        });
    }
    scenario.finally(move || {
        let outcomes = outcomes.lock().unwrap();
        assert_eq!(outcomes.len(), RACERS, "every racer reported");
        for outcome in outcomes.iter() {
            assert!(
                matches!(outcome, Ok(()) | Err(MemError::OutOfMemory)),
                "an add under a budget ends in its object or a clean OutOfMemory, not {outcome:?}"
            );
        }
        let held = ctx.block_count() as u64;
        assert_eq!(
            MemoryStats::get(&ctx.runtime().stats.blocks_live),
            held,
            "blocks_live gauge out of sync: a refused add leaked a block"
        );
        assert!(
            held <= RACERS as u64,
            "the context holds {held} blocks: more than the one-block budget \
             plus one per extra racer"
        );
    })
}

/// The sharded allocator's single-owner free lists.
///
/// Thread A allocates a block `x` (mapping a batch, whose three spares go
/// onto A's list) and two more, which leaves one spare on its list. It
/// hands `x` to thread B and pops its list again: three allocations, the
/// first taking the last spare, the second mapping a fresh batch, the third
/// popping that batch. B frees `x` as A pops. A free goes onto the freeing
/// thread's own list, so B never touches A's. Oracle: A's handouts are
/// pairwise distinct, A's pops find its list and its count in agreement
/// (`BlockAllocator::pop_cached` asserts it), and the books balance
/// afterwards. Catches
/// [`smc_util::mutation::Mutation::FreeIntoForeignCache`], which pushes
/// B's free onto A's list: a push that interleaves with A's pop either
/// drops `x` (the count then outruns the list) or puts back a block A
/// already took (handed out twice). The blocks hold three 20 000-byte
/// slots: recycling a block resets every slot, one checker step each, and
/// a narrow layout would spend the step budget there.
pub fn foreign_free_vs_owner_pop() -> Scenario {
    const OBJ_SIZE: usize = 20_000;
    let rt = Runtime::new();
    let layout = BlockLayout::rows(OBJ_SIZE, 8).expect("three wide slots fit a block");
    let (rt_a, rt_b) = (rt.clone(), rt.clone());
    let handed = Arc::new(AtomicBool::new(false));
    let handed_b = handed.clone();
    let x_slot = Arc::new(Mutex::new(None));
    let x_slot_b = x_slot.clone();
    let held = Arc::new(Mutex::new(Vec::new()));
    let held_fin = held.clone();
    Scenario::new()
        .thread(move || {
            let alloc = || {
                rt_a.allocate_block(&layout, type_id_of::<[u8; OBJ_SIZE]>(), 1)
                    .expect("the runtime maps what it is asked for")
            };
            let x = alloc();
            let mut mine: Vec<BlockRef> = (0..ALLOC_BATCH - 2).map(|_| alloc()).collect();
            *x_slot.lock().unwrap() = Some(x);
            handed.store(true, Ordering::Release);
            mine.extend((0..3).map(|_| alloc()));
            let mut bases: Vec<*mut u8> = mine.iter().map(BlockRef::base).collect();
            let handed_out = bases.len();
            held.lock().unwrap().extend(mine);
            bases.sort_unstable();
            bases.dedup();
            assert_eq!(bases.len(), handed_out, "a block was handed out twice");
        })
        .thread(move || {
            while !handed_b.load(Ordering::Acquire) {
                cpu_relax();
            }
            let x = x_slot_b.lock().unwrap().take().expect("A handed x over");
            rt_b.free_block(x);
        })
        .finally(move || {
            let held = std::mem::take(&mut *held_fin.lock().unwrap());
            assert_eq!(
                MemoryStats::get(&rt.stats.blocks_live),
                held.len() as u64,
                "exactly A's handouts live at quiescence"
            );
            for block in held {
                rt.free_block(block);
            }
            rt.verify()
                .unwrap_or_else(|v| panic!("allocator books must reconcile at quiescence: {v:?}"));
        })
}

/// The lock-free entry allocation path: thread slots' magazines against a
/// racing release, across a slot hand-over.
///
/// Before the threads start, a thread that has since exited held slot 0,
/// took three entries and left the rest of its magazine in stock; two of its
/// objects were freed. Then an owner claims a slot and pops its magazine,
/// another thread releases the two freed entries, and a third claims a slot
/// and allocates too — one of the claimers inherits slot 0 and its stock, the
/// other starts slot 1 from nothing (recycled entries if the release got
/// there first, a fresh run otherwise). Oracle: entries are conserved
/// (`Runtime::verify`'s clause: capacity = live + in magazines + free +
/// deferred + quarantined) — a magazine whose count ran ahead of its stock
/// would hand the difference out twice — and no two live holders share an
/// entry. Catches
/// [`smc_util::mutation::Mutation::ReleaseIntoForeignMagazine`].
pub fn entry_release_vs_owner_alloc() -> Scenario {
    const PER_THREAD: usize = 2;
    let mgr = EpochManager::new();
    let table = Arc::new(IndirectionTable::new());
    let (m, t) = (mgr.clone(), table.clone());
    let departed = move || {
        let me = m.slot().expect("the first registrant finds a slot");
        (0..3).map(|_| t.allocate(me)).collect::<Vec<EntryRef>>()
    };
    let departed = std::thread::spawn(departed)
        .join()
        .expect("the departed holder ran");
    let (freed, kept) = departed.split_at(2);
    for entry in freed {
        entry.get().inc().bump();
    }
    let freed = freed.to_vec();
    let live = Arc::new(Mutex::new(vec![kept[0]]));
    let mut scenario = Scenario::new();
    for _ in 0..2 {
        let (mgr, table, live) = (mgr.clone(), table.clone(), live.clone());
        scenario = scenario.thread(move || {
            let me = mgr.slot().expect("two claimers, eight slots");
            let mine: Vec<EntryRef> = (0..PER_THREAD).map(|_| table.allocate(me)).collect();
            live.lock().unwrap().extend(mine);
        });
    }
    let releaser_table = table.clone();
    scenario
        .thread(move || {
            releaser_table.release_many(freed);
        })
        .finally(move || {
            let mut seen = live.lock().unwrap().clone();
            assert_eq!(table.live_entries(), seen.len() as u64);
            table
                .check_conserved(0)
                .unwrap_or_else(|lost_or_doubled| panic!("{lost_or_doubled}"));
            let handed_out = seen.len();
            seen.sort_unstable_by_key(EntryRef::addr);
            seen.dedup();
            assert_eq!(
                seen.len(),
                handed_out,
                "an indirection entry was handed out twice"
            );
        })
}

/// A spill races a free of one of its victim's objects.
///
/// A row context of 20 000-byte slots (three to a block) with an in-memory
/// page store holds four objects: block 1 is full and ownerless, block 2
/// holds the fourth and belongs to the thread that allocated it. Thread A
/// spills ([`MemoryContext::try_spill_one`]), which can only take block 1;
/// thread B frees object 0, which lives there. Whichever goes first, the
/// free lands and the freed object survives in no page. Oracle: the free
/// succeeds, `live_objects()` equals the model (three) and `verify()` is
/// clean: a spilled page must not carry the record of a freed object.
pub fn spill_vs_free() -> Scenario {
    const OBJ_SIZE: usize = 20_000;
    let rt = Runtime::new();
    let ctx = Arc::new(
        MemoryContext::new_rows(
            rt,
            OBJ_SIZE,
            8,
            type_id_of::<[u8; OBJ_SIZE]>(),
            ContextConfig::default(),
        )
        .expect("three wide slots fit a block"),
    );
    assert_eq!(ctx.layout().capacity, 3);
    assert!(ctx.enable_spill(Arc::new(MemoryPageStore::new())));
    let objects: Vec<_> = (0..4u8)
        .map(|i| {
            ctx.alloc_with(|block, slot| unsafe { block.obj_ptr(slot).write_bytes(i, OBJ_SIZE) })
                .expect("four objects fit two blocks")
        })
        .collect();
    assert_eq!(ctx.block_count(), 2);
    let freed = Arc::new(Mutex::new(None));
    let (spiller, freer, freed_by_b) = (ctx.clone(), ctx.clone(), freed.clone());
    let victim = (objects[0].entry, objects[0].entry_inc);
    Scenario::new()
        .thread(move || {
            let _ = spiller.try_spill_one();
        })
        .thread(move || {
            let outcome = freer.try_free(victim.0, victim.1);
            *freed_by_b.lock().unwrap() = Some(outcome);
        })
        .finally(move || {
            let outcome = freed.lock().unwrap().take().expect("thread B ran");
            let freed = outcome.expect("a free racing a spill must not fail");
            assert!(freed, "object 0 was live, so its free must succeed");
            let model = objects.len() as u64 - 1;
            let live = ctx.live_objects();
            assert_eq!(
                live,
                model,
                "live objects {live} != model {model} (spilled {})",
                ctx.spilled_objects()
            );
            ctx.verify()
                .unwrap_or_else(|v| panic!("context must verify at quiescence: {v:?}"));
        })
}

/// A spilled scan races a fault-in and a free on the page it reads.
///
/// The context of [`spill_vs_free`] with its full block spilled: objects 0,
/// 1 and 2 live in one page, object 3 in the resident tail block. Thread A
/// runs the scan `Smc::for_each` runs
/// ([`MemoryContext::scan_spilled_then_snapshot`], then the snapshot's
/// blocks) while pinned; thread B frees object 0, which faults the page in
/// first. Oracle: the scan succeeds and sees objects 1, 2 and 3 exactly once
/// and object 0 at most once — from the page it listed, or from the block
/// the page became, never both — the free succeeds, a page record names
/// object 0 by the incarnation the free retired (so a second free through
/// that name frees nothing), and `verify()` is clean.
/// Catches [`smc_util::mutation::Mutation::ScanSnapshotsApart`].
pub fn spilled_scan_vs_fault_in() -> Scenario {
    const OBJ_SIZE: usize = 20_000;
    let rt = Runtime::new();
    let ctx = Arc::new(
        MemoryContext::new_rows(
            rt.clone(),
            OBJ_SIZE,
            8,
            type_id_of::<[u8; OBJ_SIZE]>(),
            ContextConfig::default(),
        )
        .expect("three wide slots fit a block"),
    );
    assert!(ctx.enable_spill(Arc::new(MemoryPageStore::new())));
    let objects: Vec<_> = (0..4u8)
        .map(|i| {
            ctx.alloc_with(|block, slot| unsafe { block.obj_ptr(slot).write_bytes(i, OBJ_SIZE) })
                .expect("four objects fit two blocks")
        })
        .collect();
    assert!(ctx.try_spill_one());
    assert_eq!(ctx.spilled_objects(), 3);
    let seen = Arc::new(Mutex::new(None));
    let freed = Arc::new(Mutex::new(None));
    let (scanner, freer) = (ctx.clone(), ctx.clone());
    let (seen_by_a, freed_by_b) = (seen.clone(), freed.clone());
    let victim = (objects[0].entry, objects[0].entry_inc);
    Scenario::new()
        .thread(move || {
            let guard = rt.pin();
            let (mut values, mut names) = (Vec::new(), Vec::new());
            let scanned = scanner
                .scan_spilled_then_snapshot(&mut |_, inc, obj| {
                    values.push(unsafe { *obj });
                    names.push((unsafe { *obj }, inc));
                })
                .map(|m| {
                    m.for_each_block(&guard, &rt.stats, |block| {
                        for slot in block.valid_slots() {
                            values.push(unsafe { *block.obj_ptr(slot) });
                        }
                    });
                    (values, names)
                });
            *seen_by_a.lock().unwrap() = Some(scanned);
        })
        .thread(move || {
            let outcome = freer.try_free(victim.0, victim.1);
            *freed_by_b.lock().unwrap() = Some(outcome);
        })
        .finally(move || {
            let scanned = seen.lock().unwrap().take().expect("thread A ran");
            let (mut values, names) =
                scanned.expect("a spilled scan racing a fault-in must not fail");
            values.sort_unstable();
            assert!(
                values == [1, 2, 3] || values == [0, 1, 2, 3],
                "the scan saw {values:?}: each live object exactly once, the freed one at most once"
            );
            let outcome = freed.lock().unwrap().take().expect("thread B ran");
            assert_eq!(
                outcome,
                Ok(true),
                "object 0 was live, so its free must land"
            );
            for &(_, inc) in names.iter().filter(|(value, _)| *value == 0) {
                assert_eq!(
                    inc, victim.1,
                    "the page named object 0 by another incarnation"
                );
                assert_eq!(
                    ctx.try_free(victim.0, inc),
                    Ok(false),
                    "object 0 freed twice"
                );
            }
            assert_eq!(ctx.live_objects(), 3);
            ctx.verify()
                .unwrap_or_else(|v| panic!("context must verify at quiescence: {v:?}"));
        })
}

/// A reply ring's drain races a late producer (`smc_util::spsc`, the serve
/// layer's request and reply rings). The producer pushes 0, 1 and 2 into a
/// ring of capacity 2, retrying while it is full, then drops its handle;
/// the consumer pops until the ring is empty and stops by the documented
/// rule, `is_closed() && pop().is_none()`. Oracle: it receives exactly
/// `[0, 1, 2]` — nothing lost to the close, nothing overwritten before it
/// was read. Catches
/// [`smc_util::mutation::Mutation::PopReleasesSlotBeforeRead`].
pub fn reply_ring_drain_vs_late_producer() -> Scenario {
    let (tx, mut rx) = spsc::channel::<u64>(2);
    assert_eq!(tx.capacity(), 2);
    let received = Arc::new(Mutex::new(Vec::new()));
    let sink = received.clone();
    Scenario::new()
        .thread(move || {
            for i in 0..3u64 {
                let mut v = i;
                while let Err(back) = tx.push(v) {
                    v = back;
                    cpu_relax();
                }
            }
            drop(tx);
        })
        .thread(move || loop {
            match rx.pop() {
                Some(v) => sink.lock().unwrap().push(v),
                None if rx.is_closed() => match rx.pop() {
                    Some(v) => sink.lock().unwrap().push(v),
                    None => break,
                },
                None => cpu_relax(),
            }
        })
        .finally(move || {
            let received = received.lock().unwrap();
            assert_eq!(
                *received,
                [0, 1, 2],
                "the drained ring must deliver every push once, in order"
            );
        })
}

/// `Waiter`'s sleeping-flag handshake (`smc_util::waiter`): one thread
/// waits untimed on a flag while a peer sets the flag and then calls
/// `wake`. Oracle: the wait returns the flag — a lost wake-up leaves the
/// waiter parked for ever, which the step budget reports as a livelock.
/// Catches [`smc_util::mutation::Mutation::SleepAfterRecheck`].
pub fn waiter_park_vs_wake() -> Scenario {
    let waiter = Arc::new(Waiter::new());
    let flag = Arc::new(AtomicBool::new(false));
    let (waker, set) = (waiter.clone(), flag.clone());
    Scenario::new()
        .thread(move || {
            let seen = waiter.wait(None, || flag.load(Ordering::Acquire).then_some(()));
            assert_eq!(seen, Some(()), "an untimed wait returns what it waited for");
        })
        .thread(move || {
            set.store(true, Ordering::Release);
            waker.wake();
        })
}

/// The record a trace-ring scenario pushes at logical position `i`: every
/// one of its eight words is a function of `i`, so a record mixing two
/// pushes is recognisable.
fn ring_record(i: u64) -> TracedEvent {
    TracedEvent {
        seq: i,
        thread: i ^ 0x7e,
        nanos: !i,
        event: Event::GcPauseEnd {
            major: true,
            nanos: i << 1,
            traced: i << 2,
            swept: i << 3,
        },
    }
}

/// The trace ring's seqlock (`smc_obs::trace`): the owner overwrites a
/// published record while a reader reads every slot, as `snapshot` does.
/// The ring starts full, so the owner's push reuses the oldest slot.
/// Oracle: every record the reader accepts is whole — all eight words from
/// one push. Catches [`smc_util::mutation::Mutation::BusyAfterWords`].
pub fn trace_ring_reader_vs_owner() -> Scenario {
    let ring = Arc::new(CheckRing::default());
    let capacity = RING_CAPACITY as u64;
    for i in 0..capacity {
        ring.push(ring_record(i));
    }
    let owner = ring.clone();
    Scenario::new()
        .thread(move || owner.push(ring_record(capacity)))
        .thread(move || {
            for slot in 0..RING_CAPACITY {
                if let Some(t) = ring.read_slot(slot) {
                    assert_eq!(t, ring_record(t.seq), "slot {slot} held a torn record");
                }
            }
        })
}
