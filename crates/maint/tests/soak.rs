//! Soak of the maintenance coordinator: decimation churn × a scanning
//! foreground × seeded relocation faults — the combination DESIGN §13 credits
//! with flushing out four free-vs-compaction races. Three phases: soak (the
//! coordinator owns all compaction, the failpoint interrupts passes so the
//! retry path runs for real), back-pressure (a zero SLO ceiling must defer
//! the nudged pass), quiesce + exact reconcile against the survivor model.
//! Wall-clock scan latency is not asserted: it flakes on a shared host, and
//! the gated benchmark's `embed_churn` reports it (`maint.fg_scan_p99_ms`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smc::{Ref, Smc};
use smc_maint::{Coordinator, MaintConfig, MaintPolicy};
use smc_memory::fault::FaultSite;
use smc_memory::Runtime;
use smc_obs::hist::Histogram;
use smc_util::Pcg32;

const SEED: u64 = 0x5eed;
const OBJECTS_PER_WORKER: usize = 10_000;

/// 64-byte row — key, checksum of the key, zero padding — so a scan that
/// reads a half-moved row sees it.
type Row = [u64; 8];

fn checksum(key: u64) -> u64 {
    key.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5ca1_ab1e
}

/// Tops its pool up to the target, removes ~90% of it, repeats; returns the
/// survivors for the final reconcile.
fn churn(c: &Smc<Row>, tid: u64, next_key: &AtomicU64, stop: &AtomicBool) -> Vec<Ref<Row>> {
    let mut rng = Pcg32::seed_from_u64(SEED ^ ((0xc4 + tid) << 32));
    let mut pool: Vec<Ref<Row>> = Vec::with_capacity(OBJECTS_PER_WORKER);
    while !stop.load(Ordering::Relaxed) {
        while pool.len() < OBJECTS_PER_WORKER && !stop.load(Ordering::Relaxed) {
            let key = next_key.fetch_add(1, Ordering::Relaxed);
            pool.push(c.add([key, checksum(key), 0, 0, 0, 0, 0, 0]));
        }
        pool.retain(|&r| {
            let keep = rng.gen_range(0u32..10) == 0;
            assert!(keep || c.remove(r), "own live ref was already removed");
            keep
        });
        // Brief pause so the coordinator sees distinct churn generations.
        std::thread::sleep(Duration::from_millis(1));
    }
    pool
}

/// Scans under a pin into the SLO gauge until `done`; returns torn rows seen.
fn scan_until(c: &Smc<Row>, gauge: &Histogram, mut done: impl FnMut() -> bool) -> u64 {
    let mut torn = 0;
    while !done() {
        let t0 = Instant::now();
        let guard = c.runtime().pin();
        c.for_each(&guard, |row| torn += u64::from(row[1] != checksum(row[0])));
        drop(guard);
        gauge.record_duration(t0.elapsed());
        std::thread::sleep(Duration::from_millis(1));
    }
    torn
}

#[test]
fn coordinator_soak_reconciles_exactly_under_churn_scans_and_relocation_faults() {
    println!("soak seed {SEED:#x}"); // the harness shows this on failure
    let rt = Runtime::new();
    let c: Arc<Smc<Row>> = Arc::new(Smc::new(&rt));
    let gauge = Arc::new(Histogram::new());
    // The global fault budget makes the interruptions *transient*: early
    // passes are interrupted and retried, later ones run clean. An attempt
    // spends at most one fault and a pass makes at most six attempts, so
    // with 16 the third pass at the latest runs clean.
    rt.faults().set_rate(FaultSite::Relocation, 32);
    rt.faults().set_limit(Some(16));
    rt.faults().enable(SEED);
    let coordinator = Coordinator::new(MaintConfig {
        gauge: Some(gauge.clone()),
    });
    // Out of reach while soaking: back-pressure is phase 2's subject.
    coordinator.set_slo_ceiling(Duration::from_secs(3600));
    c.register_maintenance(&coordinator, MaintPolicy);

    // Detached threads, not a scope: a failed assert below must fail the
    // test, not wait forever on workers nobody told to stop.
    let stop = Arc::new(AtomicBool::new(false));
    let next_key = Arc::new(AtomicU64::new(0));
    let spawn = |tid| {
        let (c, next_key, stop) = (c.clone(), next_key.clone(), stop.clone());
        std::thread::spawn(move || churn(&c, tid, &next_key, &stop))
    };
    let workers = [spawn(0), spawn(1)];

    // Phase 1: soak.
    let soak_end = Instant::now() + Duration::from_millis(1500);
    let mut torn = scan_until(&c, &gauge, || Instant::now() >= soak_end);
    let (m, faults) = (coordinator.snapshot(), rt.faults().injected_total());
    assert!(m.passes_completed > 0, "no unprompted pass: {m:?}");
    assert!(m.passes_retried > 0 && faults > 0, "vacuous soak: {m:?}");
    assert_eq!(m.passes_deferred, 0, "deferred under a far ceiling: {m:?}");

    // Phase 2: zero ceiling, nudge; the due pass must be deferred, not run.
    coordinator.set_slo_ceiling(Duration::ZERO);
    coordinator.nudge(c.context().id());
    let bp_end = Instant::now() + Duration::from_secs(5);
    let deferred = || coordinator.snapshot().passes_deferred > 0;
    torn += scan_until(&c, &gauge, || deferred() || Instant::now() >= bp_end);
    assert!(deferred(), "zero ceiling never deferred a pass");
    println!("soak: {faults} faults, {:?}", coordinator.snapshot());

    // Phase 3: quiesce, tidy the decimation tail the coordinator never saw
    // with faults off, then reconcile exactly.
    stop.store(true, Ordering::Relaxed);
    let survivors: usize = workers.map(|w| w.join().unwrap().len()).iter().sum();
    coordinator.quiesce();
    rt.faults().disable();
    // Compacted means no pass could form a group: fewer than two blocks
    // left under the occupancy cutoff. A pass's own part-filled destination
    // block can be one, so iterate.
    let compacted = || c.context().compaction_candidates() < 2;
    for _ in 0..4 {
        assert!(!c.compact().interrupted, "interrupted with faults off");
        c.release_retired();
        if compacted() {
            break;
        }
    }
    rt.drain_graveyard_blocking();

    assert_eq!(torn, 0, "scanner saw torn rows");
    c.verify().unwrap_or_else(|v| panic!("Smc::verify: {v:?}"));
    rt.verify()
        .unwrap_or_else(|v| panic!("Runtime::verify: {v:?}"));
    assert_eq!(c.len(), survivors as u64, "live set != survivor model");
    assert!(compacted(), "a group's worth of sparse blocks left");
}
