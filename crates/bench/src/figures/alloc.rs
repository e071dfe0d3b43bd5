//! Figs 6–8: what allocation and removal cost — the reclamation-threshold
//! sweep, batch allocation throughput, and the TPC-H refresh streams.

use std::collections::HashSet;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::time::Instant;

use managed_heap::{
    GcConcurrentBag, GcConcurrentDictionary, GcList, GcMode, HeapConfig, ManagedHeap,
};
use smc::{ContextConfig, Smc};
use smc_memory::Runtime;
use smc_util::rng::Pcg32;
use tpch::gcdb::GcDb;
use tpch::smcdb::SmcDb;
use tpch::{workloads, Generator};

use super::{claim_ratio, new_report, row, series, timed_ms, Cell, Line, Scale};
use crate::Report;

const THREADS: [usize; 3] = [1, 2, 4];

/// Fig 6: churn and enumerate one collection under each limbo-slot
/// threshold; the three series are normalized to their maxima, as plotted.
pub fn fig06(scale: &Scale) -> Report {
    const THRESHOLDS_PCT: [u32; 11] = [1, 2, 5, 10, 20, 30, 40, 50, 70, 90, 99];
    let n = scale.objects;
    let mut report = new_report("fig06");
    report.param("objects", n);
    // Per threshold: churn ops/ms, enumerations/ms, bytes held afterwards.
    let measured = THRESHOLDS_PCT.map(|pct| {
        let rt = Runtime::new();
        let config = ContextConfig {
            reclamation_threshold: pct as f64 / 100.0,
            ..ContextConfig::default()
        };
        let c: Smc<Line> = Smc::with_config(&rt, config);
        let mut refs: Vec<_> = (0..n).map(|i| c.add(Line::new(i as u64))).collect();
        // Six rounds of strided removal spread limbo slots across blocks;
        // each round re-inserts what it removed, so `n` objects stay live.
        let mut churned = 0;
        let churn_ms = timed_ms(|| {
            churned = 0;
            for stride in 7..13 {
                let strided = (stride - 7..n).step_by(stride);
                let removed: Vec<usize> = strided.filter(|&i| c.remove(refs[i])).collect();
                for &i in &removed {
                    refs[i] = c.add(Line::new(i as u64));
                }
                churned += 2 * removed.len();
            }
        });
        let query_ms = timed_ms(|| {
            let mut acc = 0u64;
            c.for_each(&rt.pin(), |r| acc = acc.wrapping_add(r.key));
            acc
        });
        let bytes = c.memory_bytes() as f64;
        [churned as f64 / churn_ms, 1.0 / query_ms, bytes]
    });
    let columns = "threshold_pct alloc_removal_norm query_norm memory_norm";
    let sid = series(&mut report, "threshold_sweep", columns);
    let max = |k: usize| measured.iter().map(|m| m[k]).fold(0.0, f64::max);
    for (pct, m) in THRESHOLDS_PCT.iter().zip(&measured) {
        report.push_row(sid, row(*pct, (0..3).map(|k| m[k] / max(k))));
    }
    // §7: "memory grows with the threshold", counted in block bytes. Up to
    // 10 % and from 50 % it sits on a plateau, a block or two either way
    // from step to step; between the plateaus it grows at every step.
    let memory = measured.map(|m| m[2]);
    let low = memory[..4].iter().fold(0.0, |a: f64, &b| a.max(b));
    let high = memory[7..].iter().fold(f64::MAX, |a, &b| a.min(b));
    report.check(
        "memory_grows_with_threshold",
        memory[3..8].windows(2).all(|w| w[1] > w[0]) && high >= 1.2 * low,
        format!(
            "grows at every step from 10 % to 50 %; each threshold >= 50 % holds >= {:.2}x the \
             bytes of any <= 10 %",
            high / low
        ),
    );
    report
}

/// `threads` threads each call `add(thread, key)` for `per_thread` distinct
/// keys; returns million calls per second, and whether `len()` then counts
/// every one of them.
fn alloc_mops<R>(
    threads: usize,
    per_thread: usize,
    add: impl Fn(usize, u64) -> R + Sync,
    len: impl Fn() -> usize,
) -> (f64, bool) {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let keys = (t * per_thread) as u64..((t + 1) * per_thread) as u64;
            let add = &add;
            s.spawn(move || {
                for key in keys {
                    add(t, key);
                }
            });
        }
    });
    let mops = (threads * per_thread) as f64 / t0.elapsed().as_secs_f64() / 1e6;
    (mops, len() == threads * per_thread)
}

/// Fig 7: batch allocation of lineitem-sized objects. The managed series
/// keep every object reachable — from thread-local roots ("pure"), a
/// `ConcurrentBag` or a `ConcurrentDictionary` — under both GC modes.
pub fn fig07(scale: &Scale) -> Report {
    const MANAGED: &str =
        "pure_interactive bag_interactive dict_interactive pure_batch bag_batch dict_batch";
    let n = scale.objects;
    let mut report = new_report("fig07");
    report.param("objects_per_thread", n);
    let columns = format!("threads {MANAGED} smc");
    let sid = series(&mut report, "alloc_throughput", &columns);
    let mut reconciled = true;
    for threads in THREADS {
        let mut cells = Vec::new();
        for mode in [GcMode::Interactive, GcMode::Batch] {
            let config = HeapConfig {
                mode,
                ..HeapConfig::default()
            };
            let heap = ManagedHeap::new(config);
            let roots: Vec<GcList<Line>> = (0..threads).map(|_| GcList::new(&heap)).collect();
            let add = |t: usize, k| roots[t].add(Line::new(k));
            let len = || roots.iter().map(GcList::len).sum();
            cells.push(alloc_mops(threads, n, add, len));
            drop(roots);
            let bag: GcConcurrentBag<Line> = GcConcurrentBag::new(&ManagedHeap::new(config));
            let add = |_, k| bag.add(Line::new(k));
            cells.push(alloc_mops(threads, n, add, || bag.len()));
            drop(bag);
            let heap = ManagedHeap::new(config);
            let dict: GcConcurrentDictionary<u64, Line> = GcConcurrentDictionary::new(&heap);
            let add = |_, k| dict.insert(k, Line::new(k));
            cells.push(alloc_mops(threads, n, add, || dict.len()));
        }
        let c: Smc<Line> = Smc::new(&Runtime::new());
        let add = |_, k| c.add(Line::new(k));
        cells.push(alloc_mops(threads, n, add, || c.len() as usize));
        reconciled &= cells.iter().all(|c| c.1);
        report.push_row(sid, row(threads, cells.iter().map(|c| c.0)));
    }
    report.check(
        "every_series_holds_every_allocation",
        reconciled,
        format!("each of 7 series x 3 thread counts holds threads x {n} objects"),
    );
    // Pure managed allocation at 1 and 2 threads carries no claim: at test
    // scale SMC leads it by 1.2-1.9x, too close for a threshold with margin
    // (the lead grows with the object count, as the collector's work does).
    let slower = |r| MANAGED.split(' ').map(move |m| ((r, "smc"), (r, m)));
    let pairs = ["1", "2", "4"].into_iter().flat_map(slower);
    let claimed = |p: &(Cell, Cell)| p.0 .0 == "4" || !p.1 .1.starts_with("pure");
    let pairs: Vec<(Cell, Cell)> = pairs.filter(claimed).collect();
    let name = "smc_allocates_faster_than_managed_collections";
    claim_ratio(&mut report, name, "alloc_throughput", &pairs);
    report
}

/// Refresh streams each thread of a Fig 8 cell runs, half of each kind.
const STREAMS: usize = 24;

/// One Fig 8 cell: `threads` threads alternate the two §7 streams — insert
/// 0.1 % of the population, then remove by order-key predicate in one
/// enumeration. Returns streams per minute, and
/// whether `len()` moved by exactly what the streams inserted and removed.
fn refresh_rate(
    threads: usize,
    gen: &Generator,
    len: impl Fn() -> usize,
    insert: impl Fn(&mut Pcg32, i64, usize) + Sync,
    remove: impl Fn(&HashSet<i64>) -> usize + Sync,
) -> (f64, bool) {
    let before = len();
    let batch = (before / 1000).max(1);
    let max_orderkey = gen.cardinalities().orders as i64;
    // Inserted keys start far above the loaded ones, so no removal hits them.
    let next_key = AtomicI64::new(3_000_000_000);
    let removed = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let (insert, remove, next_key, removed) = (&insert, &remove, &next_key, &removed);
            s.spawn(move || {
                for i in 0..STREAMS {
                    let mut rng = workloads::workload_rng((t * 1000 + i) as u64);
                    if i % 2 == 0 {
                        let base = next_key.fetch_add(batch as i64, Ordering::Relaxed);
                        insert(&mut rng, base, batch);
                    } else {
                        let victims = workloads::pick_victims(&mut rng, max_orderkey, batch / 4);
                        removed.fetch_add(remove(&victims), Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let rate = (threads * STREAMS) as f64 / t0.elapsed().as_secs_f64() * 60.0;
    let expected = before + threads * STREAMS / 2 * batch - removed.into_inner();
    (rate, len() == expected)
}

/// Fig 8: refresh streams over `List`, `ConcurrentDictionary` and SMC.
/// Every cell loads its own database: the managed insert stream feeds both
/// the list and the dictionary view, so a shared `GcDb` would hand the
/// second series a population the first already grew and wore.
pub fn fig08(scale: &Scale) -> Report {
    let gen = Generator::new(scale.sf);
    let mut report = new_report("fig08");
    report.param("sf", scale.sf);
    let sid = series(&mut report, "refresh_rate", "threads list dict smc");
    let mut reconciled = true;
    for threads in THREADS {
        let mut cells = Vec::new();
        for dict in [false, true] {
            let gc = GcDb::load(&gen, &ManagedHeap::new_batch());
            let len = || match dict {
                false => gc.lineitems.len(),
                true => gc.lineitem_dict.len(),
            };
            let insert = |rng: &mut Pcg32, base, n| workloads::gc_insert_stream(&gc, rng, base, n);
            let remove = |victims: &HashSet<i64>| match dict {
                false => workloads::gc_list_removal_stream(&gc, victims),
                true => workloads::gc_dict_removal_stream(&gc, victims),
            };
            cells.push(refresh_rate(threads, &gen, len, insert, remove));
        }
        let smc = SmcDb::load(&gen, false);
        let len = || smc.lineitems.len() as usize;
        let insert = |rng: &mut Pcg32, base, n| workloads::smc_insert_stream(&smc, rng, base, n);
        let remove = |victims: &HashSet<i64>| workloads::smc_removal_stream(&smc, victims);
        cells.push(refresh_rate(threads, &gen, len, insert, remove));
        reconciled &= cells.iter().all(|c| c.1);
        report.push_row(sid, row(threads, cells.iter().map(|c| c.0)));
    }
    report.check(
        "stream_counts_reconcile",
        reconciled,
        "in all 9 cells: population after = before + inserted - removed",
    );
    // At one thread SMC and `List` are within a fifth of each other.
    let slower = |r| [((r, "smc"), (r, "list")), ((r, "smc"), (r, "dict"))];
    let pairs: Vec<(Cell, Cell)> = ["2", "4"].into_iter().flat_map(slower).collect();
    let name = "smc_refreshes_faster_than_managed_from_2_threads";
    claim_ratio(&mut report, name, "refresh_rate", &pairs);
    report
}
