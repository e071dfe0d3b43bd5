//! Workspace-level integration tests: the full stack — generator → SMC
//! database → queries → compaction → fix-up — exercised through the public
//! API only, plus property-based invariants on the memory manager.

use smc_repro::smc::{ContextConfig, Smc};
use smc_repro::smc_memory::{Decimal, Runtime, Tabular};
use smc_repro::tpch::{self, Generator};

#[derive(Clone, Copy, Debug, PartialEq)]
struct Item {
    key: u64,
    value: Decimal,
}
unsafe impl Tabular for Item {}

#[test]
fn full_pipeline_load_query_refresh_compact() {
    let gen = Generator::new(0.003);
    let db = tpch::smcdb::SmcDb::load(&gen, true);
    let params = tpch::Params::default();

    // Queries run.
    let q1 = tpch::queries::smc_q::q1(&db, &params);
    assert_eq!(q1.len(), 4);
    let q6 = tpch::queries::smc_q::q6(&db, &params);
    assert!(q6 > Decimal::ZERO);

    // Refresh, then requery: results change consistently.
    let mut rng = tpch::workloads::workload_rng(5);
    let victims = tpch::workloads::pick_victims(&mut rng, db.orders.len() as i64, 100);
    let removed = tpch::workloads::smc_removal_stream(&db, &victims);
    assert!(removed > 0);
    let q1_after = tpch::queries::smc_q::q1(&db, &params);
    let total_before: u64 = q1.iter().map(|r| r.count).sum();
    let total_after: u64 = q1_after.iter().map(|r| r.count).sum();
    // Q1 only counts rows with shipdate <= its cutoff, so the delta is
    // bounded by (not equal to) the number of removed lineitems.
    assert!(total_after < total_before);
    assert!(total_before - total_after <= removed as u64);

    // Heavy shrinkage + compaction: results unchanged, memory reclaimed.
    let g = db.runtime.pin();
    let mut extra = Vec::new();
    db.lineitems.for_each_ref(&g, |r, l| {
        if l.orderkey % 4 != 0 {
            extra.push(r);
        }
    });
    drop(g);
    for r in extra {
        db.lineitems.remove(r);
    }
    let q6_sparse = tpch::queries::smc_q::q6(&db, &params);
    let bytes_before = db.lineitems.memory_bytes();
    let report = db.lineitems.compact();
    assert!(report.moved > 0, "sparse blocks must compact");
    db.runtime.drain_graveyard_blocking();
    assert!(db.lineitems.memory_bytes() < bytes_before);
    assert_eq!(
        tpch::queries::smc_q::q6(&db, &params),
        q6_sparse,
        "compaction preserves answers"
    );
}

#[test]
fn managed_and_smc_agree_after_everything() {
    let gen = Generator::new(0.002);
    let heap = smc_repro::managed_heap::ManagedHeap::new_batch();
    let smc = tpch::smcdb::SmcDb::load(&gen, false);
    let gc = tpch::gcdb::GcDb::load(&gen, &heap);
    let p = tpch::Params::default();
    use tpch::queries::{gc_q, gc_q::EnumVia, smc_q};
    assert_eq!(smc_q::q1(&smc, &p), gc_q::q1(&gc, &p, EnumVia::List));
    assert_eq!(smc_q::q5(&smc, &p), gc_q::q5(&gc, &p, EnumVia::Dict));
}

#[test]
fn smc_survives_interleaved_concurrent_everything() {
    // Readers + writers + compactions, all at once, on one collection.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let rt = Runtime::new();
    let cfg = ContextConfig {
        compaction_patience: std::time::Duration::from_millis(300),
        ..ContextConfig::default()
    };
    let c: Arc<Smc<Item>> = Arc::new(Smc::with_config(&rt, cfg));
    for i in 0..50_000u64 {
        c.add(Item {
            key: i,
            value: Decimal::from_cents(i as i64),
        });
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();
    // Writers: churn.
    for t in 0..2u64 {
        let c = c.clone();
        let stop = stop.clone();
        threads.push(std::thread::spawn(move || {
            let mut live = Vec::new();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                live.push(c.add(Item {
                    key: 1_000_000 + t,
                    value: Decimal::ONE,
                }));
                if live.len() > 100 {
                    let r = live.swap_remove((i % 97) as usize % live.len());
                    c.remove(r);
                }
                i += 1;
            }
        }));
    }
    // Readers: continuous scans, checking internal consistency.
    for _ in 0..2 {
        let c = c.clone();
        let rt = rt.clone();
        let stop = stop.clone();
        threads.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let g = rt.pin();
                let mut n = 0u64;
                c.for_each(&g, |item| {
                    assert!(item.key < 1_000_100, "torn object observed");
                    n += 1;
                });
                assert!(n >= 50_000, "scan lost committed objects: {n}");
            }
        }));
    }
    // Compactor.
    for _ in 0..10 {
        let report = c.compact();
        let _ = report;
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    stop.store(true, Ordering::SeqCst);
    for t in threads {
        t.join().unwrap();
    }
}

mod properties {
    use super::*;
    use smc_repro::smc_util::Pcg32;

    /// Random interleavings of add/remove/read keep the collection
    /// consistent with a model HashMap. 64 seeded cases.
    #[test]
    fn collection_matches_model() {
        for case in 0u64..64 {
            let mut rng = Pcg32::seed_from_u64(0xA11CE ^ case);
            let n_ops = rng.gen_range(1..300usize);
            let rt = Runtime::new();
            let c: Smc<Item> = Smc::new(&rt);
            let mut model: std::collections::HashMap<u64, (smc_repro::smc::Ref<Item>, Decimal)> =
                std::collections::HashMap::new();
            for _ in 0..n_ops {
                let op = rng.gen_range(0u8..3);
                let key = rng.gen_range(0u64..64);
                match op {
                    0 => {
                        // add (replacing any previous holder of the key)
                        if let Some((r, _)) = model.remove(&key) {
                            c.remove(r);
                        }
                        let v = Decimal::from_cents(key as i64);
                        let r = c.add(Item { key, value: v });
                        model.insert(key, (r, v));
                    }
                    1 => {
                        // remove
                        if let Some((r, _)) = model.remove(&key) {
                            assert!(c.remove(r));
                        }
                    }
                    _ => {
                        // read
                        let g = rt.pin();
                        if let Some((r, v)) = model.get(&key) {
                            let item = r.get(&g);
                            assert!(item.is_some());
                            assert_eq!(item.unwrap().value, *v);
                        }
                    }
                }
            }
            assert_eq!(c.len(), model.len() as u64);
            let g = rt.pin();
            let mut seen = 0;
            c.for_each(&g, |_| seen += 1);
            assert_eq!(seen, model.len());
        }
    }

    /// Compaction at arbitrary survivor patterns never loses or corrupts
    /// objects. 64 seeded cases.
    #[test]
    fn compaction_preserves_arbitrary_survivors() {
        for case in 0u64..64 {
            let mut rng = Pcg32::seed_from_u64(0xC0FFEE ^ case);
            let keep_mod = rng.gen_range(2u64..16);
            let seed = rng.gen_range(0u64..1000);
            let rt = Runtime::new();
            let cfg = ContextConfig {
                reclamation_threshold: 1.1,
                ..ContextConfig::default()
            };
            let c: Smc<Item> = Smc::with_config(&rt, cfg);
            let cap = c.context().layout().capacity as u64;
            let n = cap * 3;
            let mut kept = Vec::new();
            for i in 0..n {
                let r = c.add(Item {
                    key: i,
                    value: Decimal::from_cents((seed + i) as i64),
                });
                if i % keep_mod == 0 {
                    kept.push((r, i));
                } else {
                    c.remove(r);
                }
            }
            c.compact();
            let g = rt.pin();
            for (r, i) in &kept {
                let item = r.get(&g);
                assert!(item.is_some());
                assert_eq!(item.unwrap().key, *i);
            }
            let mut count = 0u64;
            c.for_each(&g, |_| count += 1);
            assert_eq!(count, kept.len() as u64);
        }
    }
}
