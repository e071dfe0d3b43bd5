//! The observatory's consistency claim, under fire: [`HeapSnapshot`]s are
//! captured concurrently with decimation-driven compaction (including runs
//! where the `Relocation` failpoint interrupts passes mid-group), every
//! snapshot must satisfy the watermark invariant and basic accounting
//! bounds, and once the heap quiesces the snapshot totals must reconcile
//! exactly with the structural validator ([`Smc::verify`]).
//!
//! This is the integration counterpart of the `snapshot_vs_advance`
//! `smc-check` scenario: the scenario proves the pin/advance interlock on
//! the model checker's schedules; this test exercises the full block walk
//! against a real compacting heap.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use smc::{ContextConfig, Ref, Smc, Tabular};
use smc_memory::fault::{FaultSite, RATE_DENOMINATOR};
use smc_memory::{HeapSnapshot, Runtime};
use smc_util::Pcg32;

#[derive(Clone, Copy)]
#[allow(dead_code)] // stored off-heap, never read back by the test
struct Row {
    key: u64,
    payload: [u64; 15],
}
unsafe impl Tabular for Row {}

/// Removes roughly `fraction` of `refs` (seeded), modeled on the bench
/// workloads' `smc_decimate`: strewn removals leave limbo holes in every
/// block, which is what makes the subsequent compaction move objects.
fn decimate(c: &Smc<Row>, refs: &mut Vec<Ref<Row>>, rng: &mut Pcg32, fraction: f64) -> usize {
    let cutoff = (fraction * 1024.0) as u32;
    let mut removed = 0;
    refs.retain(|r| {
        if rng.gen_range(0u32..1024) < cutoff && c.remove(*r) {
            removed += 1;
            false
        } else {
            true
        }
    });
    removed
}

/// Invariants every mid-flight snapshot must satisfy, writers or not.
fn check_snapshot(snap: &HeapSnapshot, max_live: u64) {
    assert!(
        snap.watermark.consistent(),
        "pinned snapshot saw the global epoch advance past pinned+1: {:?}",
        snap.watermark
    );
    assert_eq!(snap.collections.len(), 1);
    let c = &snap.collections[0];
    for b in &c.blocks {
        assert!(
            b.valid <= b.capacity,
            "block {}: valid > capacity",
            b.block_id
        );
        assert!(
            b.limbo <= b.capacity,
            "block {}: limbo > capacity",
            b.block_id
        );
        assert!(
            b.alloc_cursor <= b.capacity,
            "block {}: cursor > capacity",
            b.block_id
        );
    }
    // The walk tolerates concurrent mutation, so per-counter sums are racy
    // — but they can never exceed the high-water mark of objects that ever
    // existed, and capacity sums are exact.
    assert!(
        c.valid_slots <= max_live,
        "snapshot counted phantom objects"
    );
    assert!(c.capacity_slots >= c.valid_slots);
}

#[test]
fn snapshots_race_compaction_and_reconcile_with_verify() {
    const OBJECTS: usize = 30_000;
    let rt = Runtime::new();
    // Compaction-eager: in-place reclamation off, high occupancy cutoff, so
    // decimation leaves every block below the cutoff and compaction must
    // relocate the survivors.
    let config = ContextConfig {
        reclamation_threshold: 1.1,
        compaction_occupancy: 0.85,
        ..ContextConfig::default()
    };
    let c: Arc<Smc<Row>> = Arc::new(Smc::with_config(&rt, config));
    let mut rng = Pcg32::seed_from_u64(0x0b5e_7a70);
    let mut refs: Vec<Ref<Row>> = (0..OBJECTS)
        .map(|i| {
            c.add(Row {
                key: i as u64,
                payload: [i as u64; 15],
            })
        })
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let snapshotter = {
        let c = c.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut taken = 0u64;
            let mut saw_groups = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snap = c.heap_snapshot();
                check_snapshot(&snap, OBJECTS as u64);
                taken += 1;
                if snap.collections[0].groups > 0 {
                    saw_groups += 1;
                }
            }
            (taken, saw_groups)
        })
    };

    // Round 1: clean decimation + compaction while snapshots race.
    decimate(&c, &mut refs, &mut rng, 0.5);
    let report = c.compact();
    assert!(!report.interrupted, "no faults armed yet");

    // Round 2: decimate again and compact with the Relocation failpoint
    // armed — interrupted passes leave groups mid-flight, exactly the state
    // the snapshot walk must tolerate (group sources and dest walked
    // explicitly).
    decimate(&c, &mut refs, &mut rng, 0.5);
    rt.faults()
        .set_rate(FaultSite::Relocation, RATE_DENOMINATOR / 8);
    rt.faults().enable(0x0b5e_7a70);
    for _ in 0..4 {
        c.compact();
    }
    rt.faults().disable();

    // Every interrupted pass must be retriable to completion with faults
    // off; keep snapshotting throughout.
    let retry = c.compact();
    assert!(!retry.interrupted, "compaction interrupted without faults");

    stop.store(true, Ordering::Relaxed);
    let (taken, saw_groups) = snapshotter.join().expect("snapshot thread panicked");
    assert!(taken > 0, "snapshot thread never ran");
    println!("snapshots taken: {taken} (of which {saw_groups} saw in-flight groups)");

    // Quiesce fully, then the snapshot must agree with the validator
    // exactly: same blocks, same valid and limbo totals, no groups.
    rt.drain_graveyard_blocking();
    let verify = c
        .verify()
        .unwrap_or_else(|v| panic!("validator failed after quiescence:\n  {}", v.join("\n  ")));
    let snap = c.heap_snapshot();
    let col = &snap.collections[0];
    assert_eq!(col.valid_slots, verify.valid_slots, "valid totals diverge");
    assert_eq!(col.limbo_slots, verify.limbo_slots, "limbo totals diverge");
    assert_eq!(col.block_count(), verify.blocks, "block counts diverge");
    assert_eq!(col.groups, verify.groups, "groups after quiescence");
    assert_eq!(col.valid_slots, refs.len() as u64, "model diverged");
    assert!(snap.watermark.consistent());
    // Compaction actually relocated objects: slot reuse shows up as
    // incarnation churn in the snapshot.
    assert!(
        col.incarnation_churn > 0,
        "compaction left no incarnation churn"
    );
}
