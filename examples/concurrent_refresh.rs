//! Concurrent refresh pipeline: analytical queries running continuously
//! while writer threads apply TPC-H refresh streams, and a compaction pass
//! reclaiming space after heavy shrinkage — the full concurrency story of
//! §3.4–§5 in one program.
//!
//! Run with: `cargo run --release --example concurrent_refresh`

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn main() {
    let gen = tpch::Generator::new(0.02);
    println!("loading TPC-H at SF 0.02...");
    let db = Arc::new(tpch::smcdb::SmcDb::load(&gen, false));
    let params = tpch::Params::default();
    println!("{} lineitems loaded", db.lineitems.len());

    let stop = Arc::new(AtomicBool::new(false));
    let queries_run = Arc::new(AtomicU64::new(0));

    // Two reader threads: continuous Q6-style analytics.
    let mut readers = Vec::new();
    for _ in 0..2 {
        let db = db.clone();
        let stop = stop.clone();
        let counter = queries_run.clone();
        let params = params.clone();
        readers.push(std::thread::spawn(move || {
            let mut last = smc_memory::Decimal::ZERO;
            while !stop.load(Ordering::Relaxed) {
                last = tpch::queries::smc_q::q6(&db, &params);
                counter.fetch_add(1, Ordering::Relaxed);
            }
            last
        }));
    }

    // Two writer threads: alternating insert/removal refresh streams.
    let mut writers = Vec::new();
    let max_orderkey = db.orders.len() as i64;
    for w in 0..2u64 {
        let db = db.clone();
        let stop = stop.clone();
        writers.push(std::thread::spawn(move || {
            let mut rng = tpch::workloads::workload_rng(1000 + w);
            let mut streams = 0u64;
            let mut key_base = 7_000_000_000 + w as i64 * 1_000_000;
            while !stop.load(Ordering::Relaxed) {
                if streams % 2 == 0 {
                    tpch::workloads::smc_insert_stream(&db, &mut rng, key_base, 200);
                    key_base += 200;
                } else {
                    let victims = tpch::workloads::pick_victims(&mut rng, max_orderkey, 50);
                    tpch::workloads::smc_removal_stream(&db, &victims);
                }
                streams += 1;
            }
            streams
        }));
    }

    std::thread::sleep(std::time::Duration::from_millis(1500));
    stop.store(true, Ordering::SeqCst);
    let revenues: Vec<_> = readers.into_iter().map(|r| r.join().unwrap()).collect();
    let streams: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
    println!(
        "ran {} queries concurrently with {streams} refresh streams; last Q6 revenue {}",
        queries_run.load(Ordering::Relaxed),
        revenues[0]
    );

    // Heavy shrinkage, then compaction (§5).
    let g = db.runtime.pin();
    let mut victims = Vec::new();
    db.lineitems.for_each_ref(&g, |r, l| {
        if l.orderkey % 10 != 0 {
            victims.push(r);
        }
    });
    drop(g);
    for r in victims {
        db.lineitems.remove(r);
    }
    let before = db.lineitems.memory_bytes();
    let report = db.lineitems.compact();
    db.runtime.drain_graveyard_blocking();
    println!(
        "after 90% shrinkage: compaction moved {} objects ({} bailed), retired {} blocks, {} KiB -> {} KiB",
        report.moved,
        report.bailed,
        report.retired,
        before / 1024,
        db.lineitems.memory_bytes() / 1024
    );
    let q6 = tpch::queries::smc_q::q6(&db, &params);
    println!("Q6 over the compacted collection: {q6}");
}
