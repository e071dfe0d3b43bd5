//! Integration tests for the morsel-driven engine: parity with the
//! sequential enumeration (and of every enumeration entry point with every
//! other, over a dense, a compacting and a partly spilled collection), clean
//! thread-registry exhaustion from the pool constructor, and the paper's
//! headline concurrency claim — a parallel scan running *while* `compact()`
//! relocates objects visits every live element exactly once.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use smc::{ContextConfig, Smc};
use smc_exec::{ParScan, WorkerPool};
use smc_memory::error::MemError;
use smc_memory::fault::{FaultSite, RATE_DENOMINATOR};
use smc_memory::{MemoryPageStore, Runtime, Tabular};
use smc_persist::Persist;

#[derive(Clone, Copy)]
struct Obj {
    key: u64,
    _pad: [u64; 7],
}
unsafe impl Tabular for Obj {}

fn obj(key: u64) -> Obj {
    Obj {
        key,
        _pad: [key; 7],
    }
}

#[test]
fn parallel_results_match_sequential() {
    let rt = Runtime::new();
    let c: Smc<Obj> = Smc::new(&rt);
    let total = 10_000u64;
    for i in 0..total {
        let r = c.add(obj(i));
        if i % 7 == 0 {
            c.remove(r);
        }
    }
    // Sequential ground truth.
    let guard = rt.pin();
    let mut seq_count = 0u64;
    let mut seq_sum = 0u64;
    c.for_each(&guard, |o| {
        if o.key % 2 == 0 {
            seq_count += 1;
            seq_sum = seq_sum.wrapping_add(o.key);
        }
    });
    drop(guard);

    for threads in [1, 3, 8] {
        let pool = WorkerPool::for_runtime(&rt, threads).unwrap();
        let scan = ParScan::new(&c, &pool);
        assert_eq!(scan.filter_count(|o| o.key % 2 == 0), seq_count);
        let sum = scan.filter_fold(
            || 0u64,
            |o| o.key % 2 == 0,
            |acc, o| *acc = acc.wrapping_add(o.key),
            |a, b| *a = a.wrapping_add(b),
        );
        assert_eq!(sum, seq_sum, "{threads} threads");
    }
}

#[test]
fn parallel_scan_counts_reader_stats() {
    let rt = Runtime::new();
    let c: Smc<Obj> = Smc::new(&rt);
    for i in 0..5_000 {
        c.add(obj(i));
    }
    let pool = WorkerPool::for_runtime(&rt, 4).unwrap();
    let scan = ParScan::new(&c, &pool);
    let before = rt.stats.snapshot();
    let n = scan.filter_count(|_| true);
    let after = rt.stats.snapshot();
    assert_eq!(n, c.len());
    let blocks = c.context().block_count() as u64;
    assert_eq!(after.morsels_dispatched - before.morsels_dispatched, blocks);
    assert_eq!(after.blocks_scanned - before.blocks_scanned, blocks);
    assert!(
        after.pins_taken > before.pins_taken,
        "coordinator and workers pin guards"
    );
}

#[test]
fn registry_exhaustion_is_a_constructor_error() {
    // Injected exhaustion: every claim fails, so even a 1-worker pool must
    // report TooManyThreads from the constructor (not panic in the worker).
    let rt = Runtime::new();
    rt.faults().enable(7);
    rt.faults()
        .set_rate(FaultSite::ThreadClaim, RATE_DENOMINATOR);
    match WorkerPool::for_runtime(&rt, 2) {
        Err(MemError::TooManyThreads) => {}
        other => panic!("expected TooManyThreads, got {other:?}"),
    }
    rt.faults().disable();
    // With faults off the same runtime accepts a pool again.
    let pool = WorkerPool::for_runtime(&rt, 2).unwrap();
    assert_eq!(pool.threads(), 2);
}

#[test]
fn real_registry_exhaustion_is_a_constructor_error() {
    // No faults: genuinely exhaust the 128-slot registry. Workers that did
    // claim a slot are torn down by the failed constructor, so the follow-up
    // pool finds free slots again.
    let rt = Runtime::new();
    let oversubscribed = smc_memory::MAX_THREADS + 1;
    match WorkerPool::for_runtime(&rt, oversubscribed) {
        Err(MemError::TooManyThreads) => {}
        Ok(_) => panic!("pool larger than the registry must fail"),
        Err(e) => panic!("expected TooManyThreads, got {e:?}"),
    }
    let pool = WorkerPool::for_runtime(&rt, 8).expect("slots released after failed construction");
    assert_eq!(pool.threads(), 8);
}

#[test]
fn parallel_scan_during_compaction_visits_live_set_exactly_once() {
    let rt = Runtime::new();
    // Keep limbo slots unreclaimed so compaction always has sparse blocks
    // to work on, and arm the relocation failpoint so some passes die
    // mid-move (bailed objects must still be visited exactly once, in
    // their source block).
    let cfg = ContextConfig {
        reclamation_threshold: 1.1,
        ..ContextConfig::default()
    };
    let c: Smc<Obj> = Smc::with_config(&rt, cfg);
    let cap = c.context().layout().capacity as usize;
    let mut expected_count = 0u64;
    let mut expected_sum = 0u64;
    for i in 0..(cap * 12) as u64 {
        let r = c.add(obj(i));
        if i % 4 == 0 {
            expected_count += 1;
            expected_sum = expected_sum.wrapping_add(i);
        } else {
            c.remove(r);
        }
    }
    rt.faults().enable(1234);
    rt.faults().set_rate(FaultSite::Relocation, 48);

    let pool = WorkerPool::for_runtime(&rt, 4).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        let compactor_stop = stop.clone();
        let cc = &c;
        let compactor = s.spawn(move || {
            let mut passes = 0u64;
            while !compactor_stop.load(Ordering::Relaxed) {
                cc.compact();
                cc.release_retired();
                passes += 1;
            }
            passes
        });
        let scan = ParScan::new(&c, &pool);
        for round in 0..60 {
            let (n, sum) = scan.filter_fold(
                || (0u64, 0u64),
                |_| true,
                |acc, o| {
                    acc.0 += 1;
                    acc.1 = acc.1.wrapping_add(o.key);
                },
                |a, b| {
                    a.0 += b.0;
                    a.1 = a.1.wrapping_add(b.1);
                },
            );
            assert_eq!(n, expected_count, "round {round}: lost or doubled visit");
            assert_eq!(sum, expected_sum, "round {round}: wrong element set");
        }
        stop.store(true, Ordering::Relaxed);
        let passes = compactor.join().unwrap();
        assert!(passes > 0, "compactor never ran");
    });

    rt.faults().disable();
    // Let a final clean pass settle any faulted group, then verify the
    // structure end-to-end.
    c.compact();
    c.release_retired();
    rt.drain_graveyard_blocking();
    let report = c.verify().expect("structure intact after concurrent scans");
    assert_eq!(report.valid_slots, expected_count);
}

/// What one enumeration entry point saw: object count and, where the entry
/// point exposes objects, the order-insensitive sum of their keys.
type Seen = (u64, Option<u64>);

type EntryPoint = fn(&Smc<Obj>, &WorkerPool) -> Seen;

/// Every enumeration entry point, by name. Each sees spilled rows too.
const ENTRY_POINTS: &[(&str, EntryPoint)] = &[
    ("for_each", |c, _| {
        let guard = c.runtime().pin();
        let mut sum = 0u64;
        let n = c.for_each(&guard, |o| sum = sum.wrapping_add(o.key));
        (n, Some(sum))
    }),
    ("for_each_ref", |c, _| {
        let guard = c.runtime().pin();
        let mut sum = 0u64;
        let n = c.for_each_ref(&guard, |r, o| {
            assert!(!r.is_null(), "for_each_ref handed out a null ref");
            sum = sum.wrapping_add(o.key);
        });
        (n, Some(sum))
    }),
    ("iter", |c, _| {
        let guard = c.runtime().pin();
        let (mut n, mut sum) = (0u64, 0u64);
        for (_, o) in c.iter(&guard) {
            n += 1;
            sum = sum.wrapping_add(o.key);
        }
        (n, Some(sum))
    }),
    ("ParScan::filter_count", |c, pool| {
        (ParScan::new(c, pool).filter_count(|_| true), None)
    }),
    ("Persist::snapshot_to", |c, _| {
        static NEXT_DIR: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "smc-parity-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        let report = c.snapshot_to(&dir).expect("snapshot");
        std::fs::remove_dir_all(&dir).expect("remove the snapshot directory");
        (report.objects, None)
    }),
];

/// One collection state of the parity table: the collection, the live set
/// the model says it holds, and whether a compactor should race the scans.
struct ParityCase {
    name: &'static str,
    rt: Arc<Runtime>,
    c: Smc<Obj>,
    count: u64,
    sum: u64,
    compactor_races: bool,
}

impl ParityCase {
    /// `blocks` blocks' worth of insertions, keeping the keys `keep` accepts.
    fn build(name: &'static str, cfg: ContextConfig, blocks: usize, keep: fn(u64) -> bool) -> Self {
        let rt = Runtime::new();
        let c: Smc<Obj> = Smc::with_config(&rt, cfg);
        let cap = c.context().layout().capacity as usize;
        let (mut count, mut sum) = (0u64, 0u64);
        for key in 0..(cap * blocks) as u64 {
            let r = c.add(obj(key));
            if keep(key) {
                count += 1;
                sum = sum.wrapping_add(key);
            } else {
                c.remove(r);
            }
        }
        ParityCase {
            name,
            rt,
            c,
            count,
            sum,
            compactor_races: false,
        }
    }
}

struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

#[test]
fn every_entry_point_sees_the_same_live_set_in_every_collection_state() {
    let dense = ParityCase::build("dense", ContextConfig::default(), 6, |_| true);

    // Sparse, limbo never reclaimed in place, relocation failpoint armed: the
    // compactor of `parallel_visitation.rs`, racing every entry point.
    let sparse_cfg = ContextConfig {
        reclamation_threshold: 1.1,
        ..ContextConfig::default()
    };
    let mut sparse = ParityCase::build("sparse+compactor", sparse_cfg, 10, |k| k % 4 == 0);
    sparse.rt.faults().enable(99);
    sparse.rt.faults().set_rate(FaultSite::Relocation, 64);
    sparse.compactor_races = true;

    let spilled = ParityCase::build("partly spilled", ContextConfig::default(), 6, |_| true);
    assert!(spilled.c.enable_spill(Arc::new(MemoryPageStore::default())));
    for _ in 0..3 {
        assert!(spilled.c.context().try_spill_one());
    }
    assert!(spilled.c.spilled_objects() > 0 && spilled.c.spilled_objects() < spilled.count);

    for case in [dense, sparse, spilled] {
        let pool = WorkerPool::for_runtime(&case.rt, 3).unwrap();
        assert_eq!(case.c.len(), case.count);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let compactor = case.compactor_races.then(|| {
                s.spawn(|| {
                    let mut passes = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        case.c.compact();
                        case.c.release_retired();
                        passes += 1;
                    }
                    passes
                })
            });
            // Set when the table run ends *or unwinds*: a failed assertion
            // must not leave the scope waiting on the compactor.
            let table_run = SetOnDrop(&stop);
            let rounds = if case.compactor_races { 20 } else { 1 };
            for round in 0..rounds {
                for &(entry, run) in ENTRY_POINTS {
                    let at = format!("{}: {entry}, round {round}", case.name);
                    let (n, sum) = run(&case.c, &pool);
                    assert_eq!(n, case.count, "{at}: lost or doubled element");
                    if let Some(sum) = sum {
                        assert_eq!(sum, case.sum, "{at}: wrong element set");
                    }
                }
            }
            drop(table_run);
            if let Some(compactor) = compactor {
                assert!(compactor.join().unwrap() > 0, "compactor never ran");
            }
        });

        // Racers stopped: the reference recount must agree too.
        case.rt.faults().disable();
        case.c.compact();
        case.c.release_retired();
        let report = case.c.verify().expect("verify after the table run");
        assert_eq!(
            report.valid_slots + report.spilled_slots,
            case.count,
            "{}: Smc::verify",
            case.name
        );
    }
}
