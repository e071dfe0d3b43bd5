//! `embed_churn`: refresh batches beside back-to-back scans of one
//! collection, with an `smc_maint::Coordinator` registered.
//!
//! Thread A runs refresh batches: 16 `remove` of random live rows, then 16
//! `add`, one timed op per batch. Thread B scans the whole collection again
//! and again through `for_each`, checking every row it sees. The two share
//! the epoch, the indirection table and the blocks the coordinator compacts:
//! removed slots wait in limbo for the open scan to end, the scan meets dead
//! and recycled slots. `ops_per_s` is thread A's own batch rate and
//! `scan_mrows_per_s` thread B's own scan rate, so a scan speed-up paid for
//! by slower add/remove/reclamation, or the reverse, shows as one of the two
//! falling.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smc::{Ref, Runtime, Smc};
use smc_maint::{Coordinator, MaintConfig, MaintPolicy};
use smc_util::Pcg32;

use super::{
    peak_rss_mb, setup_laps, wide_row, wide_row_ok, MemoryCounters, Outcome, Plan, RunConfig,
    Tally, WideRow,
};
use crate::ladder;
use crate::metrics::Values;
use crate::stats::{self, Samples, Windows};
use crate::trace;

/// Rows the collection holds throughout.
pub const ROWS: u64 = 2_000_000;
/// Rows removed, and rows added, per refresh batch.
pub const BATCH: usize = 16;
/// Batches between two readings of the collection's footprint.
const FOOTPRINT_EVERY: usize = 1024;

struct State {
    runtime: Arc<Runtime>,
    smc: Smc<WideRow>,
    /// Every live row's reference and key; the model.
    live: Vec<(Ref<WideRow>, u64)>,
}

fn build() -> State {
    let runtime = Runtime::new();
    let smc: Smc<WideRow> = Smc::new(&runtime);
    let live = (0..ROWS).map(|key| (smc.add(wide_row(key)), key)).collect();
    State { runtime, smc, live }
}

/// The refresh stream: which live row each removal takes is a pure function
/// of the seed; new keys count up.
pub struct Refresh {
    rng: Pcg32,
    next_key: u64,
}

impl Refresh {
    pub fn new(seed: u64, rows: u64) -> Refresh {
        Refresh {
            rng: Pcg32::seed_from_u64(smc_util::rng::splitmix64(seed ^ (0xc4 << 56))),
            next_key: rows,
        }
    }

    /// Index into the live list of the next row to remove.
    pub fn victim(&mut self, live: usize) -> usize {
        (self.rng.next_u64() % live as u64) as usize
    }

    pub fn fresh_key(&mut self) -> u64 {
        self.next_key += 1;
        self.next_key - 1
    }
}

/// What thread A hands back.
struct Written {
    tally: Tally,
    batches: Samples,
    windows: Windows,
    /// `memory_bytes()` after every [`FOOTPRINT_EVERY`]th batch of the
    /// measured phase.
    footprints: Vec<f64>,
}

/// Thread A: refresh batches until the plan ends.
fn write(
    smc: &Smc<WideRow>,
    live: &mut Vec<(Ref<WideRow>, u64)>,
    mut stream: Refresh,
    plan: Plan,
    traced: bool,
    start: Instant,
    done: &AtomicU64,
) -> Written {
    let mut out = Written {
        tally: Tally::default(),
        batches: Samples::default(),
        windows: plan.windows(),
        footprints: Vec::new(),
    };
    loop {
        let t0 = Instant::now();
        let since = t0 - start;
        if since >= plan.end() {
            break;
        }
        if traced {
            super::trace_window(&plan, since);
        }
        let mut removed = 0;
        {
            let _s = trace::span_items("churn.batch", 2 * BATCH as u32);
            for _ in 0..BATCH {
                let (r, _key) = live.swap_remove(stream.victim(live.len()));
                removed += usize::from(smc.remove(r));
            }
            for _ in 0..BATCH {
                let key = stream.fresh_key();
                live.push((smc.add(wide_row(key)), key));
            }
        }
        let took = t0.elapsed();
        done.fetch_add(1, Ordering::Release);
        let ok = removed == BATCH;
        out.tally.check(ok, || {
            format!("a batch removed {removed} of {BATCH} live rows")
        });
        if let Some(at) = plan.measured(since + took).filter(|_| ok) {
            out.batches.record(took);
            out.windows.add(at, 1);
            if out.batches.len() % FOOTPRINT_EVERY == 0 {
                out.footprints.push(smc.memory_bytes() as f64);
            }
        }
    }
    trace::flush_thread();
    out
}

/// What thread B hands back.
struct Scanned {
    tally: Tally,
    scans: Samples,
    rows: u64,
    time: Duration,
}

/// Thread B: back-to-back scans until thread A is done.
fn scan(
    runtime: &Arc<Runtime>,
    smc: &Smc<WideRow>,
    plan: Plan,
    start: Instant,
    batches_done: &AtomicU64,
    writer_done: &AtomicBool,
) -> Scanned {
    let mut out = Scanned {
        tally: Tally::default(),
        scans: Samples::default(),
        rows: 0,
        time: Duration::ZERO,
    };
    while !writer_done.load(Ordering::Acquire) {
        let batches_before = batches_done.load(Ordering::Acquire);
        let t0 = Instant::now();
        let (mut torn, mut key_xor) = (0u64, 0u64);
        let seen = {
            let _s = trace::span("churn.scan");
            let guard = runtime.pin();
            smc.for_each(&guard, |row| {
                torn += u64::from(!wide_row_ok(row));
                key_xor ^= row[0];
            })
        };
        let took = t0.elapsed();
        std::hint::black_box(key_xor);
        // A scan is not a snapshot: its row count may differ from the
        // model's by the rows added and removed while it was open (and the
        // batch in flight at either end), no more.
        let beside = batches_done.load(Ordering::Acquire) - batches_before + 2;
        let slack = BATCH as u64 * beside;
        let ok = torn == 0 && seen.abs_diff(ROWS) <= slack;
        out.tally.check(ok, || {
            format!("a scan saw {seen} rows ({torn} torn), model {ROWS} +- {slack}")
        });
        let since = t0 - start;
        if plan.measured(since).is_some() && plan.measured(since + took).is_some() && ok {
            out.scans.record(took);
            out.rows += seen;
            out.time += took;
        }
    }
    trace::flush_thread();
    out
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let plan = cfg.plan();
    let (state, setup_s) = setup_laps(build, drop);
    let State {
        runtime,
        smc,
        mut live,
    } = state;

    let coordinator = Coordinator::new(MaintConfig::default());
    smc.register_maintenance(&coordinator, MaintPolicy::default());

    let mem = &runtime.stats;
    let before = MemoryCounters::read(mem);
    let compacting_before = mem.compaction_pass_ns.summary().sum;
    let maint_before = coordinator.snapshot();

    let stream = Refresh::new(cfg.seed, ROWS);
    let batches_done = AtomicU64::new(0);
    let writer_done = AtomicBool::new(false);
    let start = Instant::now();
    let (written, scanned) = std::thread::scope(|s| {
        let scanner = std::thread::Builder::new()
            .name("scanner".into())
            .spawn_scoped(s, || {
                scan(&runtime, &smc, plan, start, &batches_done, &writer_done)
            })
            .expect("spawn the scanner thread");
        let writer = std::thread::Builder::new()
            .name("writer".into())
            .spawn_scoped(s, || {
                let out = write(
                    &smc,
                    &mut live,
                    stream,
                    plan,
                    cfg.traced,
                    start,
                    &batches_done,
                );
                writer_done.store(true, Ordering::Release);
                out
            })
            .expect("spawn the writer thread");
        (
            writer.join().expect("writer thread"),
            scanner.join().expect("scanner thread"),
        )
    });
    trace::set_enabled(cfg.traced);
    let wall = start.elapsed();
    let after = MemoryCounters::read(mem);
    let compacting = mem.compaction_pass_ns.summary().sum - compacting_before;
    let maint_after = coordinator.snapshot();

    let mut tally = written.tally;
    tally.merge(scanned.tally);

    // With maintenance at rest the heap must verify and hold the model
    // exactly: same rows, same keys, none torn.
    coordinator.quiesce();
    let verified = smc.verify();
    tally.check(verified.is_ok(), || {
        format!("Smc::verify: {:?}", verified.err())
    });
    let model_sum = live.iter().fold(0u64, |s, &(_, k)| s.wrapping_add(k));
    let (mut torn, mut key_sum) = (0u64, 0u64);
    let seen = {
        let guard = runtime.pin();
        smc.for_each(&guard, |row| {
            torn += u64::from(!wide_row_ok(row));
            key_sum = key_sum.wrapping_add(row[0]);
        })
    };
    tally.check(
        torn == 0 && seen == live.len() as u64 && seen == smc.len() && key_sum == model_sum,
        || {
            format!(
                "final scan saw {seen} rows (key sum {key_sum}, {torn} torn), model {} (key sum {model_sum})",
                live.len()
            )
        },
    );
    // The footprint breathes with the limbo slots awaiting their epoch: the
    // median of the readings, not whatever the last instant held.
    let bytes_per_live_byte = stats::median(&written.footprints).unwrap_or(0.0)
        / (smc.len().max(1) * std::mem::size_of::<WideRow>() as u64) as f64;

    let scans = scanned.scans.sorted();
    let mut layers = Values::default();
    if cfg.traced {
        after.set_deltas(&before, &mut layers);
        layers.set(
            "maint.passes",
            (maint_after.passes_completed - maint_before.passes_completed) as f64,
        );
        layers.set(
            "maint.deferred",
            (maint_after.passes_deferred - maint_before.passes_deferred) as f64,
        );
        layers.set(
            "maint.busy_ratio",
            compacting as f64 / wall.as_nanos() as f64,
        );
        layers.set(
            "maint.fg_scan_p99_ms",
            scans.percentile_us(99.0).unwrap_or(0.0) / 1e3,
        );
        layers.set("obs.trace_overhead_ratio", written.windows.even_over_odd());
        ladder::churn_probes();
    }
    drop(coordinator);

    let batches = written.batches.sorted();
    let mut e2e = Values::default();
    e2e.set("setup_s", setup_s);
    e2e.set("ops_per_s", written.windows.median_rate());
    e2e.set_opt("write_p50_us", batches.p50_us());
    e2e.set_tail("write_p99_us", &batches);
    e2e.set_opt("read_p50_us", scans.p50_us());
    e2e.set(
        "scan_mrows_per_s",
        scanned.rows as f64 / 1e6 / scanned.time.as_secs_f64().max(1e-9),
    );
    e2e.set("bytes_per_live_byte", bytes_per_live_byte);
    e2e.set("peak_rss_mb", peak_rss_mb());
    Outcome {
        end_to_end: e2e,
        layers,
        tally,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_the_refresh_stream() {
        let victims = |seed| {
            let mut r = Refresh::new(seed, 1000);
            (0..500)
                .map(|_| (r.victim(1000), r.fresh_key()))
                .collect::<Vec<_>>()
        };
        assert_eq!(victims(42), victims(42));
        assert_ne!(victims(42), victims(7));
        assert!(victims(42)
            .iter()
            .enumerate()
            .all(|(i, &(v, k))| v < 1000 && k == 1000 + i as u64));
    }
}
