//! `spill_recover`: one collection four times its context budget, with a
//! `SpillFile` behind it.
//!
//! The only workload larger than the program's own cache (the budget).
//! Three measured phases on one thread: uniform-random `Ref::get`, three in
//! four of which fault a 64 KiB page in and push another out; `for_each`
//! scans that stream the spilled pages in place; then laps of `snapshot_to`
//! and `recover_from` into fresh directories. Spill pages are never
//! fsynced, snapshots `sync_all` their pages, manifest and directory, and
//! reads come from the OS page cache: these are the sandbox's numbers, not
//! a device's.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smc::{ContextConfig, Ref, Runtime, Smc};
use smc_memory::MemoryStats;
use smc_persist::{Persist, SpillFile};
use smc_util::Pcg32;

use super::{
    peak_rss_mb, setup_laps, wide_row, wide_row_ok, MemoryCounters, Outcome, Plan, RunConfig,
    Tally, WideRow, WINDOWS,
};
use crate::ladder;
use crate::metrics::Values;
use crate::stats::{self, Samples};
use crate::trace;

/// `ContextConfig::budget_bytes` of the collection.
pub const BUDGET_BYTES: u64 = 64 << 20;
/// Data loaded, as a multiple of the budget.
pub const DATA_FACTOR: u64 = 4;
/// Snapshot + recover laps after the timed phases. Three, not the five first
/// asked for: a lap of 256 MiB takes about 2.7 s, and the driver's time for
/// all its runs leaves room for three.
const LAPS: usize = 3;
const ROW_BYTES: u64 = std::mem::size_of::<WideRow>() as u64;
const ROWS: u64 = BUDGET_BYTES * DATA_FACTOR / ROW_BYTES;

struct State {
    runtime: Arc<Runtime>,
    smc: Smc<WideRow>,
    /// `refs[key]` is the row written for `key`.
    refs: Vec<Ref<WideRow>>,
    store: Arc<SpillFile>,
    spill_path: PathBuf,
}

/// Loads [`ROWS`] rows into a context budgeted for a quarter of them; the
/// allocation ladder spills the rest as the load proceeds.
fn build(scratch: &Path) -> State {
    let spill_path = scratch.join("spill.dat");
    let store = Arc::new(
        SpillFile::create(&spill_path).expect("create the spill file in the scratch directory"),
    );
    let runtime = Runtime::new();
    let smc: Smc<WideRow> = Smc::with_config(
        &runtime,
        ContextConfig {
            budget_bytes: Some(BUDGET_BYTES),
            ..ContextConfig::default()
        },
    );
    assert!(smc.enable_spill(store.clone()), "row contexts can spill");
    let refs = (0..ROWS)
        .map(|key| {
            smc.try_add(wide_row(key))
                .expect("an over-budget add spills a block instead of failing")
        })
        .collect();
    State {
        runtime,
        smc,
        refs,
        store,
        spill_path,
    }
}

fn teardown(state: State) {
    let path = state.spill_path.clone();
    drop(state);
    let _ = std::fs::remove_file(path);
}

/// Scans the collection, returning rows seen, their wrapping key sum, and
/// how many failed their own check.
fn checked_scan(runtime: &Arc<Runtime>, smc: &Smc<WideRow>) -> (u64, u64, u64) {
    let (mut key_sum, mut torn) = (0u64, 0u64);
    let guard = runtime.pin();
    let seen = smc.for_each(&guard, |row| {
        torn += u64::from(!wide_row_ok(row));
        key_sum = key_sum.wrapping_add(row[0]);
    });
    (seen, key_sum, torn)
}

pub fn run(cfg: &RunConfig) -> Outcome {
    // Three quarters of the measured time go to point reads, one to scans.
    let run = cfg.plan();
    let scan_time = run.measure / 4;
    let read_time = run.measure - scan_time;
    let plan = Plan {
        warmup: run.warmup,
        measure: read_time,
        window: read_time / WINDOWS as u32,
    };
    let (state, setup_s) = setup_laps(|| build(&cfg.scratch), teardown);
    let State {
        runtime,
        smc,
        refs,
        store,
        ..
    } = &state;
    let model_sum = (0..ROWS).fold(0u64, |s, k| s.wrapping_add(k));
    let live_mb = (ROWS * ROW_BYTES) as f64 / 1e6;

    let mut tally = Tally::default();
    tally.check(smc.spilled_blocks() > 0, || {
        "nothing spilled during the load".into()
    });
    let stats = &runtime.stats;
    let before = MemoryCounters::read(stats);

    // Phase 1: uniform-random point reads, three in four of which fault.
    let mut rng = Pcg32::seed_from_u64(smc_util::rng::splitmix64(cfg.seed ^ (0x5b << 56)));
    let mut faulting = Samples::default();
    let mut windows = plan.windows();
    let start = Instant::now();
    loop {
        let key = rng.next_u64() % ROWS;
        let t0 = Instant::now();
        let since = t0 - start;
        if since >= plan.end() {
            break;
        }
        if cfg.traced {
            super::trace_window(&plan, since);
        }
        let faults_before = MemoryStats::get(&stats.blocks_faulted_in);
        let got = {
            let _s = trace::span("spill.get");
            let guard = runtime.pin();
            refs[key as usize].get(&guard).copied()
        };
        let took = t0.elapsed();
        let ok = got == Some(wide_row(key));
        tally.check(ok, || format!("Ref::get of key {key} returned {got:?}"));
        if let Some(at) = plan.measured(since + took).filter(|_| ok) {
            windows.add(at, 1);
            if MemoryStats::get(&stats.blocks_faulted_in) != faults_before {
                faulting.record(took);
            }
        }
    }

    // Phase 2: cold scans.
    let (mut scanned_rows, mut in_scans) = (0u64, Duration::ZERO);
    let phase = Instant::now();
    let mut scan_index = 0usize;
    while phase.elapsed() < scan_time {
        // Alternate by scan, as the windows do in the read phase.
        trace::set_enabled(cfg.traced && scan_index % 2 == 0);
        scan_index += 1;
        let t0 = Instant::now();
        let (seen, key_sum, torn) = {
            let _s = trace::span("spill.cold_scan");
            checked_scan(runtime, smc)
        };
        let took = t0.elapsed();
        let ok = seen == ROWS && key_sum == model_sum && torn == 0;
        tally.check(ok, || format!("a cold scan saw {seen} rows (key sum {key_sum}, {torn} torn), model {ROWS} ({model_sum})"));
        if ok {
            scanned_rows += seen;
            in_scans += took;
        }
    }
    trace::set_enabled(cfg.traced);
    let after = MemoryCounters::read(stats);
    let spilled_share = smc.spilled_objects() as f64 / ROWS as f64;
    tally.check((0.5..0.9).contains(&spilled_share), || {
        format!("{spilled_share:.2} of the rows are spilled after the scans, expected about 3/4")
    });
    let bytes_per_live_byte = (smc.memory_bytes() as u64 + store.file_bytes()) as f64
        / (smc.len().max(1) * ROW_BYTES) as f64;

    // Phase 3: snapshot + recover laps.
    let (mut snap_rates, mut recover_rates) = (Vec::new(), Vec::new());
    let (mut snapshot_pages, mut recovered_objects) = (0, 0);
    for lap in 0..LAPS {
        let dir = cfg.scratch.join(format!("snapshot-{lap}"));
        let t0 = Instant::now();
        let snap = {
            let _s = trace::span("persist.snapshot_to");
            smc.snapshot_to(&dir)
        };
        let snap_took = t0.elapsed();
        let fresh = Runtime::new();
        let t0 = Instant::now();
        let recovered = {
            let _s = trace::span("persist.recover_from");
            Smc::<WideRow>::recover_from(&fresh, &dir)
        };
        let recover_took = t0.elapsed();
        match (snap, recovered) {
            (Ok(snap), Ok((copy, report))) => {
                let (seen, key_sum, torn) = checked_scan(&fresh, &copy);
                let ok = snap.objects == ROWS
                    && report.objects == ROWS
                    && copy.len() == smc.len()
                    && (seen, key_sum, torn) == (ROWS, model_sum, 0);
                tally.check(ok, || {
                    format!("lap {lap}: snapshot {} objects, recovered {} ({seen} scanned, key sum {key_sum}, {torn} torn), source {ROWS} ({model_sum})", snap.objects, report.objects)
                });
                if ok {
                    snap_rates.push(live_mb / snap_took.as_secs_f64());
                    recover_rates.push(live_mb / recover_took.as_secs_f64());
                    snapshot_pages = snap.pages;
                    recovered_objects = report.objects;
                }
            }
            (snap, recovered) => tally.fail(|| {
                format!(
                    "lap {lap}: snapshot {:?}, recovery {:?}",
                    snap.err(),
                    recovered.err().map(|e| e.to_string())
                )
            }),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    let mut layers = Values::default();
    if cfg.traced {
        after.set_deltas(&before, &mut layers);
        layers.set("persist.snapshot_pages", snapshot_pages as f64);
        layers.set("persist.recovered_objects", recovered_objects as f64);
        layers.set("obs.trace_overhead_ratio", windows.even_over_odd());
        ladder::spill_probes(&cfg.scratch);
    }

    let faulting = faulting.sorted();
    let mut e2e = Values::default();
    e2e.set("setup_s", setup_s);
    e2e.set("ops_per_s", windows.median_rate());
    e2e.set_opt("read_p50_us", faulting.p50_us());
    e2e.set(
        "cold_scan_mrows_per_s",
        scanned_rows as f64 / 1e6 / in_scans.as_secs_f64().max(1e-9),
    );
    e2e.set_opt("snapshot_mb_per_s", stats::median(&snap_rates));
    e2e.set_opt("recover_mb_per_s", stats::median(&recover_rates));
    e2e.set("bytes_per_live_byte", bytes_per_live_byte);
    e2e.set("peak_rss_mb", peak_rss_mb());
    teardown(state);
    Outcome {
        end_to_end: e2e,
        layers,
        tally,
    }
}
