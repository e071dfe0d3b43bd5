//! Satellite of the morsel-driven engine PR: exactly-once visitation under
//! concurrency, at the `Smc` layer (no worker pool — plain `for_each`
//! readers on their own threads with their own pins, racing a compactor).
//!
//! Each reader repeatedly snapshots the membership and walks it while the
//! compactor relocates objects with the relocation failpoint armed, so
//! passes regularly abort mid-move (§5.2 pre-state bail). Every walk must
//! still see each live element exactly once: the count and an
//! order-insensitive checksum are compared against the ground truth on
//! every iteration, and `Smc::verify` audits the final structure.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use smc::{ContextConfig, Smc};
use smc_memory::fault::FaultSite;
use smc_memory::{Runtime, Tabular};

#[derive(Clone, Copy)]
struct Item {
    key: u64,
    _pad: [u64; 3],
}
unsafe impl Tabular for Item {}

#[test]
fn concurrent_for_each_sees_live_set_exactly_once_during_compaction() {
    let rt = Runtime::new();
    let cfg = ContextConfig {
        reclamation_threshold: 1.1,
        ..ContextConfig::default()
    };
    let c: Smc<Item> = Smc::with_config(&rt, cfg);
    let cap = c.context().layout().capacity as usize;

    // Sparse population: keep every 4th object so every block is a
    // compaction candidate, and limbo slots are never reclaimed in place.
    let mut expected_count = 0u64;
    let mut expected_sum = 0u64;
    for i in 0..(cap * 10) as u64 {
        let r = c.add(Item {
            key: i,
            _pad: [0; 3],
        });
        if i % 4 == 0 {
            expected_count += 1;
            expected_sum = expected_sum.wrapping_add(i);
        } else {
            c.remove(r);
        }
    }

    rt.faults().enable(99);
    rt.faults().set_rate(FaultSite::Relocation, 64);

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        let mut readers = Vec::new();
        for reader in 0..3 {
            let c = &c;
            let rt = &rt;
            let stop = stop.clone();
            readers.push(s.spawn(move || {
                let mut walks = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let guard = rt.pin();
                    let mut count = 0u64;
                    let mut sum = 0u64;
                    c.for_each(&guard, |item| {
                        count += 1;
                        sum = sum.wrapping_add(item.key);
                    });
                    assert_eq!(
                        count, expected_count,
                        "reader {reader} walk {walks}: lost or doubled element"
                    );
                    assert_eq!(
                        sum, expected_sum,
                        "reader {reader} walk {walks}: wrong element set"
                    );
                    walks += 1;
                }
                walks
            }));
        }

        // Compactor: keep relocating (and sometimes failing mid-relocation,
        // per the armed failpoint) while the readers walk.
        let mut passes = 0u64;
        while passes < 200 {
            c.compact();
            passes += 1;
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            let walks = r.join().unwrap();
            assert!(walks > 0, "reader never completed a walk");
        }
        assert!(passes > 0);
    });

    rt.faults().disable();
    c.compact();
    rt.drain_graveyard_blocking();
    let report = c.verify().expect("verify after concurrent scans");
    assert_eq!(report.valid_slots, expected_count);
    assert_eq!(report.groups, 0, "no in-flight group after quiescence");
}
