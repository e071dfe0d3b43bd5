//! Memory-pressure and fault-injection integration tests, spanning the
//! `smc-memory` runtime and the `smc` collection API.
//!
//! These exercise the failure model end to end: a context budget surfaces
//! `MemError::OutOfMemory` through the collection's `try_` APIs, freeing
//! objects makes room again, interrupted compactions stay retriable, and
//! the structural validator holds after every injected failure.

use std::sync::Arc;

use smc_repro::smc::{ContextConfig, Smc, Tabular};
use smc_repro::smc_memory::error::MemError;
use smc_repro::smc_memory::fault::FaultSite;
use smc_repro::smc_memory::stats::MemoryStats;
use smc_repro::smc_memory::{Runtime, BLOCK_SIZE};
use smc_repro::smc_util::Pcg32;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Payload {
    key: u64,
    fill: [u64; 7],
}
unsafe impl Tabular for Payload {}

fn payload(key: u64) -> Payload {
    Payload {
        key,
        fill: [key ^ 0xabcd; 7],
    }
}

/// A collection on a fresh runtime whose context holds at most `blocks`
/// blocks.
fn budgeted_collection(blocks: u64) -> (Arc<Runtime>, Smc<Payload>) {
    let rt = Runtime::new();
    let config = ContextConfig {
        budget_bytes: Some(blocks * BLOCK_SIZE as u64),
        ..ContextConfig::default()
    };
    let c = Smc::with_config(&rt, config);
    (rt, c)
}

#[test]
fn tiny_budget_surfaces_oom_through_collection_api() {
    let (rt, c) = budgeted_collection(1);
    let mut added = 0u64;
    let err = loop {
        match c.try_add(payload(added)) {
            Ok(_) => added += 1,
            Err(e) => break e,
        }
        assert!(added < 100_000, "budget never enforced");
    };
    assert_eq!(err, MemError::OutOfMemory);
    // The failed insert took nothing: the collection still matches what
    // succeeded, and the validator agrees.
    assert_eq!(c.len(), added);
    let report = c.verify().unwrap();
    assert_eq!(report.valid_slots, added);
    rt.verify().unwrap();
    assert!(
        MemoryStats::get(&rt.stats.context_budget_rejections) > 0,
        "the budget gate never refused"
    );
}

#[test]
fn freeing_objects_recovers_from_oom() {
    let (rt, c) = budgeted_collection(2);
    let mut refs = Vec::new();
    let mut key = 0u64;
    while let Ok(r) = c.try_add(payload(key)) {
        refs.push(r);
        key += 1;
    }
    // Shed half, then inserts must succeed again, the first one included:
    // removal puts slots in limbo and queues their block, the budget gate
    // advances the epoch until the block ripens, and the allocator
    // reclaims the slots in place.
    for r in refs.drain(..refs.len() / 2) {
        assert!(c.remove(r));
    }
    let first = c.try_add(payload(999_999));
    assert!(first.is_ok(), "first insert after shedding: {first:?}");
    refs.push(first.unwrap());
    for i in 0..64 {
        let r = c
            .try_add(payload(1_000_000 + i))
            .expect("insert after shedding");
        refs.push(r);
    }
    c.verify().unwrap();
    rt.verify().unwrap();
    // The rescue path here is the reclaim queue, reached after the budget
    // gate refused the fill's last insert — both must have fired.
    let snap = rt.stats.snapshot();
    assert!(
        snap.context_budget_rejections > 0,
        "the budget gate never refused:\n{snap}"
    );
    assert!(
        snap.slots_reclaimed > 0,
        "no limbo slot was reclaimed in place:\n{snap}"
    );
}

/// A freed row's entry waits two epochs, then goes back to the free lists;
/// a collection that churns at a constant size reuses those entries instead
/// of growing the indirection table. FIFO churn frees the oldest row before
/// each add, so every add needs an entry some earlier remove gave back.
#[test]
fn fifo_churn_reuses_freed_entries_instead_of_growing_the_table() {
    const LIVE: u64 = 10_000;
    const PAIRS: u64 = 200_000;
    let rt = Runtime::new();
    let c: Smc<Payload> = Smc::new(&rt);
    let mut rows: std::collections::VecDeque<_> = (0..LIVE).map(|k| c.add(payload(k))).collect();
    for key in LIVE..LIVE + PAIRS {
        assert!(c.remove(rows.pop_front().unwrap()));
        rows.push_back(c.add(payload(key)));
    }
    assert_eq!(c.len(), LIVE);
    let capacity = rt.entry_capacity() as u64;
    assert!(
        capacity <= 2 * LIVE,
        "{capacity} indirection entries for {LIVE} live rows"
    );
    rt.verify().unwrap();
}

#[test]
fn interrupted_compaction_is_retriable_and_loses_nothing() {
    let rt = Runtime::new();
    let config = ContextConfig {
        reclamation_threshold: 1.1, // never reuse limbo slots in place
        compaction_occupancy: 0.9,
        ..ContextConfig::default()
    };
    let c: Smc<Payload> = Smc::with_config(&rt, config);
    let mut rng = Pcg32::seed_from_u64(0xFA11);
    let mut live = Vec::new();
    for key in 0..6000u64 {
        let r = c.add(payload(key));
        if rng.gen_bool(0.3) {
            live.push((key, r));
        } else {
            assert!(c.remove(r));
        }
    }

    // Interrupt relocation on every pass until the injection limit runs out;
    // each interrupted pass must leave the collection fully valid.
    rt.faults().set_rate(FaultSite::Relocation, 1024);
    rt.faults().set_limit(Some(3));
    rt.faults().enable(0xFA11);
    let mut interruptions = 0;
    for _ in 0..8 {
        let report = c.compact();
        if report.interrupted {
            interruptions += 1;
            c.verify()
                .unwrap_or_else(|v| panic!("invalid after interruption: {v:?}"));
        }
        c.release_retired();
    }
    assert_eq!(
        interruptions, 3,
        "injection limit should allow exactly 3 interrupts"
    );
    rt.faults().disable();

    // With faults off, a retry pass completes; the survivors are intact.
    let report = c.compact();
    assert!(!report.interrupted);
    c.release_retired();
    rt.drain_graveyard_blocking();
    assert_eq!(c.len(), live.len() as u64);
    let guard = rt.pin();
    for (key, r) in &live {
        assert_eq!(c.read(*r, &guard), Some(payload(*key)));
    }
    drop(guard);
    c.verify().unwrap();
    rt.verify().unwrap();
    let snap = rt.stats.snapshot();
    assert_eq!(snap.compactions_interrupted, 3);
    assert_eq!(snap.faults_injected, 3);
}

#[test]
fn fault_schedule_is_reproducible_from_seed() {
    use smc_repro::smc_memory::fault::FaultInjector;

    // Decision-schedule level: identical seeds produce bit-identical
    // schedules; different seeds produce different ones.
    let schedule = |seed: u64| -> Vec<bool> {
        let f = FaultInjector::detached();
        f.set_all_rates(32);
        f.enable(seed);
        (0..4096)
            .flat_map(|_| FaultSite::ALL.map(|site| f.should_fail(site)))
            .collect()
    };
    let a = schedule(42);
    assert_eq!(a, schedule(42), "same seed must produce the same schedule");
    assert!(
        a.iter().any(|&d| d),
        "rate 32/1024 over 4096 calls should inject"
    );
    assert_ne!(a, schedule(43), "different seeds must diverge somewhere");

    // Workload level: the same seeded run fails the same allocations. A
    // refused add past the budget meets no failpoint, so the rows churn
    // FIFO at about a block's worth: the context keeps recycling its two
    // blocks through the reclaim queue, and the budget gate's epoch
    // advances and block allocations are where the faults land.
    let run = |seed: u64| -> (u64, Vec<u64>) {
        let (rt, c) = budgeted_collection(2);
        rt.faults().set_all_rates(32);
        rt.faults().enable(seed);
        let mut added = Vec::new();
        let mut live = std::collections::VecDeque::new();
        for key in 0..20_000u64 {
            if let Ok(r) = c.try_add(payload(key)) {
                added.push(key);
                live.push_back(r);
            }
            if live.len() > 1000 {
                assert!(c.remove(live.pop_front().unwrap()));
            }
        }
        (rt.faults().injected_total(), added)
    };
    let (a_inj, a_keys) = run(42);
    let (b_inj, b_keys) = run(42);
    assert_eq!(a_inj, b_inj, "same seed must inject identically");
    assert_eq!(a_keys, b_keys, "same seed must fail the same allocations");
    assert!(a_inj > 0, "this configuration should inject something");
}

// ---- a spill tier that holds its budget --------------------------------
//
// A spilled victim and the stub of a faulted-in page wait two epochs in the
// runtime's graveyard, and nothing but the memory manager moves the epoch
// (§3.4). These tests pin down who moves it for the residency protocol —
// the load after each spill, the fault path on entry — and that a pinned
// reader still stops it. CI runs them once more on the release build, the
// only one that spills thousands of blocks inside a second.

/// Blocks, or stubs, that may wait in the graveyard at any instant:
/// burials ripen two advances later, one advance per spill or fault, plus
/// the one just made.
const GRAVEYARD_BOUND: usize = 4;

/// A collection budgeted to `budget_blocks` resident blocks over an
/// in-memory page store.
fn spilling_collection(rt: &Arc<Runtime>, budget_blocks: u64) -> Smc<Payload> {
    let c: Smc<Payload> = Smc::with_config(
        rt,
        ContextConfig {
            budget_bytes: Some(budget_blocks * BLOCK_SIZE as u64),
            ..ContextConfig::default()
        },
    );
    let store = Arc::new(smc_repro::smc_memory::MemoryPageStore::new());
    assert!(c.enable_spill(store));
    c
}

/// Adds rows keyed from `*next` until `blocks` more blocks have spilled.
fn load_until_spilled(
    c: &Smc<Payload>,
    next: &mut u64,
    blocks: u64,
) -> Vec<smc_repro::smc::Ref<Payload>> {
    let target = c.spilled_blocks() + blocks;
    let mut refs = Vec::new();
    while c.spilled_blocks() < target {
        refs.push(
            c.try_add(payload(*next))
                .expect("an over-budget add spills"),
        );
        *next += 1;
    }
    refs
}

#[test]
fn budget_held_by_an_unpinned_load() {
    const BUDGET: u64 = 16;
    let rt = Runtime::new();
    let c = spilling_collection(&rt, BUDGET);
    let mut next = 0;
    load_until_spilled(&c, &mut next, 7 * BUDGET);
    // The victims went round through the shard cache; they did not pile up
    // behind a clock nobody advanced.
    let buried = rt.buried();
    assert!(buried.blocks <= GRAVEYARD_BOUND, "{buried:?}");
    assert!(buried.stubs <= GRAVEYARD_BOUND, "{buried:?}");
    let alloc = rt.alloc_snapshot();
    assert!(
        alloc.blocks_recycled > 0,
        "no victim was ever handed out again"
    );
    assert!(
        alloc.budgeted_blocks
            <= BUDGET + GRAVEYARD_BOUND as u64 + smc_repro::smc_memory::MAX_SHARD_CACHE,
        "{} blocks held from the OS for a {BUDGET}-block budget",
        alloc.budgeted_blocks
    );
    assert_eq!(c.context().block_count() as u64, BUDGET);
    assert_eq!(c.len(), next);
    c.verify().unwrap();
    rt.verify().unwrap();
}

#[test]
fn budget_held_load_still_honours_a_pin() {
    const BUDGET: u64 = 4;
    let rt = Runtime::new();
    let c = spilling_collection(&rt, BUDGET);
    let mut next = 0;
    // Fill the budget without spilling, then pin and keep plain references
    // into the resident blocks — the ones about to become victims.
    let mut early = Vec::new();
    while (c.context().block_count() as u64) < BUDGET {
        early.push((next, c.try_add(payload(next)).unwrap()));
        next += 1;
    }
    assert_eq!(c.spilled_blocks(), 0);
    let guard = rt.pin();
    let rows: Vec<(u64, &Payload)> = early
        .iter()
        .map(|(key, r)| (*key, r.get(&guard).expect("a resident row")))
        .collect();
    load_until_spilled(&c, &mut next, 6 * BUDGET);
    // Every victim is still buried: the guard sits two epochs short of the
    // first burial, so none was freed, let alone handed out again ...
    assert_eq!(rt.buried().blocks as u64, c.spilled_blocks());
    // ... which is why the references taken before the spills still read
    // their own rows out of the victims' memory.
    for (key, row) in &rows {
        assert_eq!(
            **row,
            payload(*key),
            "row {key} was overwritten under a pin"
        );
    }
    drop(rows);
    drop(guard);
    load_until_spilled(&c, &mut next, 3);
    let buried = rt.buried();
    assert!(buried.blocks <= GRAVEYARD_BOUND, "{buried:?}");
    assert_eq!(c.len(), next);
    c.verify().unwrap();
    rt.verify().unwrap();
}

#[test]
fn budget_held_across_ten_thousand_faulting_reads() {
    const BUDGET: u64 = 4;
    // The full count on the release build CI also runs; a debug build takes
    // seconds over the same ground.
    const FAULTS: u64 = if cfg!(debug_assertions) {
        1_000
    } else {
        10_000
    };
    let rt = Runtime::new();
    let c = spilling_collection(&rt, BUDGET);
    let mut next = 0;
    let refs = load_until_spilled(&c, &mut next, 3 * BUDGET);
    let faults = || MemoryStats::get(&rt.stats.blocks_faulted_in);
    let mut rng = Pcg32::seed_from_u64(0x5b11);
    let (mut reads, mut deepest) = (0u64, 0);
    while faults() < FAULTS {
        let key = rng.next_u64() % next;
        let guard = rt.pin();
        assert_eq!(refs[key as usize].get(&guard), Some(&payload(key)));
        drop(guard);
        reads += 1;
        let buried = rt.buried();
        deepest = deepest.max(buried.blocks).max(buried.stubs);
    }
    // A constant, not a function of the read count: each fault ripens what
    // the fault two before it buried.
    assert!(
        deepest <= GRAVEYARD_BOUND,
        "{deepest} buried after {reads} reads"
    );
    assert!(c.context().block_count() as u64 <= BUDGET);
    c.verify().unwrap();
    rt.verify().unwrap();
}

/// 4 KiB rows: fifteen to a block, so a page directory thousands of entries
/// long costs tens of thousands of adds, not millions.
#[derive(Clone, Copy)]
struct Wide {
    key: u64,
    fill: [u64; 511],
}
unsafe impl Tabular for Wide {}

#[test]
fn fault_in_finds_the_last_of_two_thousand_pages() {
    const PAGES: u64 = 2_000;
    let rt = Runtime::new();
    let c: Smc<Wide> = Smc::new(&rt);
    assert!(c.enable_spill(Arc::new(smc_repro::smc_memory::MemoryPageStore::new())));
    let rows_per_block = c.context().layout().capacity as u64;
    // One kept row per block and the rest removed, so each page is one
    // record long; the block filled last round is spilled as soon as the
    // loader has moved on to the next one.
    let mut kept = Vec::new();
    for block in 0..=PAGES {
        for i in 0..rows_per_block {
            let key = block * rows_per_block + i;
            let r = c.add(Wide {
                key,
                fill: [!key; 511],
            });
            if i > 0 {
                assert!(c.remove(r));
                continue;
            }
            kept.push((key, r));
            if block > 0 {
                assert!(c.context().try_spill_one(), "block {} stays", block - 1);
            }
        }
    }
    assert_eq!(c.spilled_blocks(), PAGES);
    assert_eq!(c.spilled_objects(), PAGES);
    // Newest page, oldest page, one in the middle: the directory is keyed by
    // block id, so none of them is a walk over the other 1 999.
    for page in [PAGES - 1, 0, PAGES / 2] {
        let (key, r) = kept[page as usize];
        let guard = rt.pin();
        let row = r.get(&guard).expect("a spilled row faults back in");
        assert_eq!((row.key, row.fill[510]), (key, !key));
    }
    assert_eq!(c.spilled_blocks(), PAGES - 3);
    assert_eq!(c.len(), PAGES + 1);
    c.verify().unwrap();
}

// ---- one page, one failpoint registry ----------------------------------
//
// A spilled page carries objects and nothing else: which entry owns record
// *i* is the page directory's to say, by position. And a store that fails is
// a seeded `FaultSite` like every other failure here, whatever the store is.

#[test]
fn every_ref_reads_its_own_row_after_a_fault_in() {
    let rt = Runtime::new();
    let c: Smc<Payload> = Smc::new(&rt);
    assert!(c.enable_spill(Arc::new(smc_repro::smc_memory::MemoryPageStore::new())));
    let rows_per_block = c.context().layout().capacity as u64;
    let mut refs: Vec<_> = (0..rows_per_block + 4)
        .map(|key| (key, Some(c.add(payload(key)))))
        .collect();
    // Holes, so page order is not slot order: record i is the i-th *valid*
    // slot of the victim, and only the directory says whose it is.
    let mut removed = Vec::new();
    for (key, r) in refs.iter_mut().take(rows_per_block as usize) {
        if *key % 3 == 1 {
            removed.push(r.take().unwrap());
        }
    }
    for r in &removed {
        assert!(c.remove(*r));
    }
    assert!(c.context().try_spill_one());
    assert_eq!(c.spilled_objects(), rows_per_block - removed.len() as u64);
    let guard = rt.pin();
    for (key, r) in &refs {
        if let Some(r) = r {
            assert_eq!(r.get(&guard), Some(&payload(*key)), "row {key}");
        }
    }
    assert_eq!(c.spilled_blocks(), 0, "the first read faulted the page in");
    assert!(removed.iter().all(|r| r.get(&guard).is_none()));
    drop(guard);
    c.verify().unwrap();
}

#[test]
fn spill_file_rides_out_seeded_store_and_load_faults() {
    use smc_repro::smc_persist::SpillFile;
    const BUDGET: u64 = 4;
    const OPS: usize = 600;

    /// What one seeded run did, step by step: enough to tell two runs apart.
    #[derive(Debug, PartialEq)]
    struct Trace {
        failed_adds: Vec<u64>,
        failed_ops: Vec<usize>,
        injected: (u64, u64),
        live: u64,
    }

    let run = |seed: u64| -> Trace {
        let path = std::env::temp_dir().join(format!(
            "smc-spill-faults-{}-{seed:x}.dat",
            std::process::id()
        ));
        let rt = Runtime::new();
        let c: Smc<Payload> = Smc::with_config(
            &rt,
            ContextConfig {
                budget_bytes: Some(BUDGET * BLOCK_SIZE as u64),
                ..ContextConfig::default()
            },
        );
        let file = Arc::new(SpillFile::create(&path).unwrap());
        assert!(c.enable_spill(file.clone()));
        let faults = rt.faults();
        faults.set_rate(FaultSite::SpillStore, 160);
        faults.set_rate(FaultSite::SpillLoad, 160);
        faults.enable(seed);
        let failures = || MemoryStats::get(&rt.stats.spill_fault_failures);
        let residency = || (c.spilled_blocks(), c.context().block_count(), file.len());

        // Load to four times the budget. An add whose spill fails is refused
        // with the collection exactly as it was; the next one draws again.
        let rows = 4 * BUDGET * c.context().layout().capacity as u64;
        let mut model: Vec<(u64, smc_repro::smc::Ref<Payload>)> = Vec::new();
        let mut failed_adds = Vec::new();
        let mut key = 0u64;
        while key < rows {
            let before = (residency(), failures());
            match c.try_add(payload(key)) {
                Ok(r) => {
                    model.push((key, r));
                    key += 1;
                }
                Err(MemError::OutOfMemory) => {
                    assert_eq!(residency(), before.0, "a failed spill rolls back");
                    assert_eq!(failures(), before.1 + 1);
                    failed_adds.push(key);
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(c.spilled_blocks() >= 2 * BUDGET);

        // Removes and reads of random rows, most of them spilled. A failed
        // fault-in is a named error, the page still spilled and the row
        // still there for the next attempt.
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut failed_ops = Vec::new();
        for op in 0..OPS {
            let i = rng.gen_range(0..model.len());
            let (key, r) = model[i];
            let before = (c.spilled_blocks(), c.len(), failures());
            if op % 2 == 0 {
                match c.try_remove(r) {
                    Ok(true) => {
                        model.swap_remove(i);
                    }
                    Err(MemError::SpillFault) => failed_ops.push(op),
                    other => panic!("row {key}: {other:?}"),
                }
            } else {
                let guard = rt.pin();
                match r.try_get(&guard) {
                    Ok(Some(row)) => assert_eq!(*row, payload(key)),
                    Err(MemError::SpillFault) => failed_ops.push(op),
                    other => panic!("row {key}: {other:?}"),
                }
            }
            if failed_ops.last() == Some(&op) {
                assert!(failures() > before.2, "op {op} failed without a fault");
                assert!(
                    c.spilled_blocks() >= before.0,
                    "a failed fault-in keeps its page"
                );
                assert_eq!(c.len(), before.1);
            }
        }

        // Every failure counted was one this registry injected: the file
        // itself never failed, and nothing failed uncounted.
        let injected = (
            faults.injected(FaultSite::SpillStore),
            faults.injected(FaultSite::SpillLoad),
        );
        assert_eq!(failures(), injected.0 + injected.1);
        assert!(injected.0 > 0 && injected.1 > 0, "{faults}");
        faults.disable();
        assert_eq!(c.len(), model.len() as u64);
        let guard = rt.pin();
        for (key, r) in &model {
            assert_eq!(r.get(&guard), Some(&payload(*key)), "row {key}");
        }
        drop(guard);
        c.verify().unwrap();
        rt.verify().unwrap();
        drop(c);
        std::fs::remove_file(&path).ok();
        Trace {
            failed_adds,
            failed_ops,
            injected,
            live: model.len() as u64,
        }
    };
    let first = run(0x5eed);
    assert!(!first.failed_adds.is_empty() && !first.failed_ops.is_empty());
    assert_eq!(first, run(0x5eed), "the run replays from its seed");
    assert_ne!(first, run(0xfa11), "another seed is another schedule");
}

/// Frees race spills on real threads: one thread removes random rows while
/// the other adds rows and spills blocks. A removed row must be gone and a
/// kept one counted once, in a page or in the heap. (The interleaving that
/// frees an object between a spill's look at its slot and its tag store is
/// pinned by the `spill_vs_free` checker scenario; this run is the same
/// protocol at full speed.)
#[test]
fn frees_racing_spills_agree_with_the_model() {
    use std::sync::Mutex;
    const BUDGET: u64 = 4;
    const ADDS: u64 = 3_000;
    const REMOVES: usize = 600;
    /// The adder asks for a spill of its own every this many adds.
    const SPILL_EVERY: u64 = 50;
    type Row = [u64; 8];
    let row = |key: u64| [key; 8];

    let rt = Runtime::new();
    let c: Smc<Row> = Smc::with_config(
        &rt,
        ContextConfig {
            budget_bytes: Some(BUDGET * BLOCK_SIZE as u64),
            ..ContextConfig::default()
        },
    );
    assert!(c.enable_spill(Arc::new(smc_repro::smc_memory::MemoryPageStore::new())));
    // Start the remover with rows in spilled pages and in resident blocks.
    let capacity = c.context().layout().capacity as u64;
    let seeded = 2 * BUDGET * capacity;
    let window = (BUDGET * capacity) as usize;
    let model: Mutex<Vec<(u64, smc_repro::smc::Ref<Row>)>> =
        Mutex::new((0..seeded).map(|key| (key, c.add(row(key)))).collect());
    assert!(c.spilled_blocks() > 0);
    let removed = std::thread::scope(|s| {
        s.spawn(|| {
            for key in seeded..seeded + ADDS {
                let r = c.try_add(row(key)).expect("an over-budget add spills");
                model.lock().unwrap().push((key, r));
                if key % SPILL_EVERY == 0 {
                    c.context().try_spill_one();
                }
            }
        });
        let remover = s.spawn(|| {
            let mut rng = Pcg32::seed_from_u64(0x5b11_f4ee);
            let mut removed = 0u64;
            for op in 0..REMOVES {
                let (key, r) = {
                    let mut model = model.lock().unwrap();
                    // Every other remove picks among the newest rows, which
                    // sit in resident blocks the next spills will take; the
                    // rest pick any row, most of them in spilled pages.
                    let newest = if op % 2 == 0 { 0 } else { model.len() - window };
                    let i = rng.gen_range(newest..model.len());
                    model.swap_remove(i)
                };
                assert_eq!(c.try_remove(r), Ok(true), "row {key} was live");
                removed += 1;
            }
            removed
        });
        remover.join().unwrap()
    });
    let model = model.into_inner().unwrap();
    assert_eq!(model.len() as u64, seeded + ADDS - removed);
    assert_eq!(
        c.len(),
        model.len() as u64,
        "a freed row was spilled or lost"
    );
    c.verify().unwrap();
    let guard = rt.pin();
    for (key, r) in &model {
        assert_eq!(r.get(&guard), Some(&row(*key)), "row {key}");
    }
    drop(guard);
    drop(c);
    rt.drain_graveyard_blocking();
    rt.verify().unwrap();
}
