//! Deterministic fault-injection stress harness for the memory manager.
//!
//! Runs random interleavings of `add` / `remove` / `read` / `enumerate`
//! across worker threads — with seeded faults injected at block allocation,
//! epoch advancement, thread-slot claim and mid-relocation — and a periodic
//! compaction thread, all against a budgeted context. Between rounds (with
//! all workers joined, i.e. quiescent) the structural validator must pass,
//! the collection must hold exactly the objects the workers' models say
//! survive, and every interrupted compaction must be retriable.
//!
//! The run is reproducible from `--seed`: the fault schedule is a pure
//! function of (seed, site, call index), and each worker derives its RNG
//! from the same seed.
//!
//! ```text
//! stress [--seed N] [--threads N] [--ops N] [--rounds N]
//!        [--fault-rate PER_1024] [--budget-blocks N (0 = unlimited)]
//!        [--threshold F] [--occupancy F]
//! ```
//!
//! The defaults deliberately pick a compaction-eager configuration
//! (in-place reclamation off, high occupancy cutoff) and a tight context
//! budget so all four failpoints and the budget gate actually fire.
//!
//! SIGINT/SIGTERM end the run early but cleanly: workers wind down at the
//! next op boundary, the current round still finishes its quiescent verify,
//! and the summary, csv line and `SMC_TRACE_OUT` trace are all written.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use smc::{ContextConfig, Ref, Smc, Tabular};
use smc_bench::{
    arg_f64, arg_u64, arg_usize, csv, init_tracing, install_signal_handler, interrupted, trace_lost,
};
use smc_memory::error::MemError;
use smc_memory::{Runtime, BLOCK_SIZE};
use smc_util::Pcg32;

#[derive(Clone, Copy)]
struct Row {
    key: u64,
    checksum: u64,
}
unsafe impl Tabular for Row {}

impl Row {
    fn new(key: u64) -> Row {
        Row {
            key,
            checksum: key.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5ca1_ab1e,
        }
    }

    fn coherent(&self) -> bool {
        self.checksum == self.key.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5ca1_ab1e
    }
}

#[derive(Default)]
struct WorkerTally {
    adds: u64,
    removes: u64,
    reads: u64,
    enumerations: u64,
    oom_errors: u64,
    claim_errors: u64,
    torn_reads: u64,
}

fn worker(
    c: Arc<Smc<Row>>,
    seed: u64,
    tid: usize,
    ops: usize,
    key_tag: Arc<AtomicU64>,
) -> (Vec<Ref<Row>>, WorkerTally) {
    let mut rng = Pcg32::seed_from_u64(seed ^ (0xdead_beef + tid as u64));
    let mut pool: Vec<Ref<Row>> = Vec::new();
    let mut t = WorkerTally::default();
    for _ in 0..ops {
        // Wind down at an op boundary on SIGINT/SIGTERM; the pool is still
        // returned so the round's model reconcile stays exact.
        if interrupted() {
            break;
        }
        match rng.gen_range(0u32..100) {
            // Insert-heavy mix keeps memory pressure on the budget.
            0..=44 => {
                let key = key_tag.fetch_add(1, Ordering::Relaxed);
                match c.try_add(Row::new(key)) {
                    Ok(r) => {
                        pool.push(r);
                        t.adds += 1;
                    }
                    Err(MemError::OutOfMemory) => {
                        t.oom_errors += 1;
                        // Application-level response to pressure: shed the
                        // oldest quarter of this worker's objects.
                        let shed = (pool.len() / 4).max(1).min(pool.len());
                        for r in pool.drain(..shed) {
                            if matches!(c.try_remove(r), Ok(true)) {
                                t.removes += 1;
                            }
                        }
                    }
                    Err(MemError::TooManyThreads) => t.claim_errors += 1,
                    Err(e) => panic!("unexpected add error: {e}"),
                }
            }
            45..=69 => {
                if pool.is_empty() {
                    continue;
                }
                let i = rng.gen_range(0..pool.len());
                let r = pool.swap_remove(i);
                match c.try_remove(r) {
                    Ok(true) => t.removes += 1,
                    Ok(false) => panic!("own live ref was already removed"),
                    Err(MemError::TooManyThreads) => {
                        t.claim_errors += 1;
                        pool.push(r); // the remove did not happen; keep it
                    }
                    Err(e) => panic!("unexpected remove error: {e}"),
                }
            }
            70..=94 => {
                if pool.is_empty() {
                    continue;
                }
                let r = pool[rng.gen_range(0..pool.len())];
                match c.runtime().try_pin() {
                    Ok(guard) => {
                        t.reads += 1;
                        match c.read(r, &guard) {
                            Some(v) if v.coherent() => {}
                            Some(_) => t.torn_reads += 1,
                            None => panic!("own live ref dereferenced to null"),
                        }
                    }
                    Err(MemError::TooManyThreads) => t.claim_errors += 1,
                    Err(e) => panic!("unexpected pin error: {e}"),
                }
            }
            _ => match c.runtime().try_pin() {
                Ok(guard) => {
                    t.enumerations += 1;
                    let mut torn = 0u64;
                    c.for_each(&guard, |row| {
                        if !row.coherent() {
                            torn += 1;
                        }
                    });
                    t.torn_reads += torn;
                }
                Err(MemError::TooManyThreads) => t.claim_errors += 1,
                Err(e) => panic!("unexpected pin error: {e}"),
            },
        }
    }
    (pool, t)
}

fn main() {
    init_tracing();
    install_signal_handler();
    let seed = arg_u64("--seed", 0x5eed);
    let threads = arg_usize("--threads", 4);
    let ops = arg_usize("--ops", 20_000);
    let rounds = arg_usize("--rounds", 4);
    let fault_rate = arg_usize("--fault-rate", 64) as u32;
    let budget_blocks = arg_usize("--budget-blocks", 24);
    // In-place limbo reclamation off (>1.0) + a high occupancy cutoff: removes
    // drain block occupancy until compaction must move survivors, keeping the
    // relocation failpoint and the context's budget gate hot.
    let threshold = arg_f64("--threshold", 1.1);
    let occupancy = arg_f64("--occupancy", 0.85);

    let rt = Runtime::new();
    let config = ContextConfig {
        reclamation_threshold: threshold,
        compaction_occupancy: occupancy,
        budget_bytes: (budget_blocks > 0).then(|| budget_blocks as u64 * BLOCK_SIZE as u64),
        ..ContextConfig::default()
    };
    let c: Arc<Smc<Row>> = Arc::new(Smc::with_config(&rt, config));
    let key_tag = Arc::new(AtomicU64::new(0));

    println!(
        "stress: seed={seed:#x} threads={threads} ops={ops} rounds={rounds} \
         fault-rate={fault_rate}/1024 budget-blocks={budget_blocks}"
    );

    let mut survivors: Vec<Ref<Row>> = Vec::new();
    let mut total = WorkerTally::default();
    let mut interrupted_passes = 0u64;
    for round in 0..rounds {
        rt.faults().set_all_rates(fault_rate);
        rt.faults().enable(seed.wrapping_add(round as u64));

        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let c = c.clone();
                let key_tag = key_tag.clone();
                std::thread::spawn(move || worker(c, seed, tid + round * threads, ops, key_tag))
            })
            .collect();

        // Compact under fire while workers mutate: relocation faults will
        // interrupt some passes mid-group; each interrupted pass must leave
        // the collection valid and the pass retriable.
        let mut round_interrupted = 0u64;
        for handle in handles {
            let report = c.compact();
            if report.interrupted {
                round_interrupted += 1;
            }
            c.release_retired();
            let (pool, tally) = handle.join().expect("worker panicked");
            survivors.extend(pool);
            total.adds += tally.adds;
            total.removes += tally.removes;
            total.reads += tally.reads;
            total.enumerations += tally.enumerations;
            total.oom_errors += tally.oom_errors;
            total.claim_errors += tally.claim_errors;
            total.torn_reads += tally.torn_reads;
        }
        interrupted_passes += round_interrupted;

        // Quiescent: faults off, reclaim everything reclaimable, validate.
        rt.faults().disable();
        let retry = c.compact();
        assert!(
            !retry.interrupted,
            "compaction interrupted with faults disabled"
        );
        c.release_retired();
        rt.drain_graveyard_blocking();

        let report = c.verify().unwrap_or_else(|violations| {
            panic!(
                "round {round}: collection validator failed:\n  {}",
                violations.join("\n  ")
            )
        });
        rt.verify().unwrap_or_else(|violations| {
            panic!(
                "round {round}: runtime validator failed:\n  {}",
                violations.join("\n  ")
            )
        });
        assert_eq!(
            c.len(),
            survivors.len() as u64,
            "round {round}: collection diverged from the workers' models"
        );
        let faults = rt.faults().injected_total();
        println!(
            "round {round}: live={} blocks={} faults-injected={faults} \
             interrupted-compactions={round_interrupted}",
            c.len(),
            report.blocks
        );
        // The quiescent verify above already ran for this round, so a
        // signal-shortened run still ends on a validated heap.
        if interrupted() {
            println!("stress: interrupted — stopping after round {round}");
            break;
        }
    }

    assert_eq!(total.torn_reads, 0, "readers observed torn objects");
    {
        let guard = rt.pin();
        for r in &survivors {
            let v = c.read(*r, &guard).expect("survivor dereferenced to null");
            assert!(v.coherent(), "survivor failed checksum");
        }
    }

    let snap = rt.stats.snapshot();
    println!("--- failpoints ---\n{}", rt.faults());
    println!("--- final stats ---\n{snap}");
    println!(
        "compaction pass:  {}",
        rt.stats.compaction_pass_ns.summary()
    );
    println!(
        "compaction pause: {}",
        rt.stats.compaction_pause_ns.summary()
    );
    println!(
        "totals: adds={} removes={} reads={} enumerations={} oom-errors={} \
         claim-errors={} interrupted-passes={interrupted_passes}",
        total.adds,
        total.removes,
        total.reads,
        total.enumerations,
        total.oom_errors,
        total.claim_errors
    );
    csv(&[
        "stress",
        &format!("{seed:#x}"),
        &c.len().to_string(),
        &snap.faults_injected.to_string(),
        &snap.compactions_interrupted.to_string(),
        &snap.context_budget_rejections.to_string(),
    ]);
    // The stress harness has no Report, so the tracer-honesty rule is an
    // exit code here rather than a recorded check.
    if trace_lost() {
        std::process::exit(1);
    }
    println!("stress: OK");
}
