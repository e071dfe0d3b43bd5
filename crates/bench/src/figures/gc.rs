//! Fig 9: application timeouts caused by garbage collection as a
//! collection's live set grows.
//!
//! The paper's method: store N objects in a collection (managed or
//! self-managed), then run two threads — one continuously allocating
//! managed objects with varying lifetimes, one sleeping 1 ms and recording
//! how much longer it actually slept. The worst overshoot approximates the
//! longest stop-the-world stall. On a shared 2-thread host that overshoot
//! is scheduler noise as much as collector work, so the figure's *claim* is
//! counted instead: the objects a major collection traces, which grows
//! with a managed live set and never sees an SMC's.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use managed_heap::GcMode::{Batch, Interactive};
use managed_heap::{GcList, HeapConfig, ManagedHeap};
use smc::Smc;
use smc_memory::Runtime;
use smc_obs::Histogram;

use super::{new_report, row, series, Line, Scale};
use crate::Report;

/// The churn thread's temporaries that outlive their allocation: a rolling
/// window of at most this many.
const KEEP_WINDOW: u64 = 4096;

/// Runs the churn + sleeper pair against `heap` for `window`; returns the
/// worst sleep overshoot in ms and the objects one more major collection
/// then traces — the live set the collector had to walk each cycle.
fn stall_and_trace(heap: &Arc<ManagedHeap>, window: Duration) -> (f64, u64) {
    let stop = AtomicBool::new(false);
    let keep: GcList<u64> = GcList::new(heap);
    let mut worst = Duration::ZERO;
    std::thread::scope(|s| {
        s.spawn(|| {
            let arena = heap.arena::<u64>();
            for k in 0u64.. {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if k % 16 != 0 {
                    heap.alloc(&arena, k);
                    continue;
                }
                keep.add(k);
                if keep.len() as u64 >= KEEP_WINDOW {
                    // Retire the older half of the window.
                    keep.remove_where(&heap.enter(), |&kept| kept < k - 8 * KEEP_WINDOW);
                }
            }
        });
        let deadline = Instant::now() + window;
        while Instant::now() < deadline {
            let t0 = Instant::now();
            std::thread::sleep(Duration::from_millis(1));
            // A heap operation at the measurement point makes the sleeper
            // pass a safepoint, like any managed thread would.
            drop(heap.enter());
            worst = worst.max(t0.elapsed().saturating_sub(Duration::from_millis(1)));
        }
        stop.store(true, Ordering::SeqCst);
    });
    (worst.as_secs_f64() * 1e3, heap.collect_full())
}

/// Fig 9: N objects in a managed list or in an SMC, under both GC modes.
pub fn fig09(scale: &Scale) -> Report {
    // 1.5 s a cell at the default 1.6 M objects, 100 ms at test scale.
    let window = Duration::from_millis((scale.objects as u64 / 1000).clamp(100, 1500));
    let mut report = new_report("fig09");
    report.param("max_objects", scale.objects);
    report.param("window_ms", window.as_millis() as u64);
    let columns = "objects managed_batch managed_interactive smc_batch smc_interactive";
    let timeouts = series(&mut report, "max_timeout_ms", columns);
    let traces = series(&mut report, "traced_by_a_major_collection", columns);
    let pauses = [Histogram::new(), Histogram::new()];
    // Each size's objects traced, in column order.
    let mut traced = Vec::new();
    for n in [8, 4, 2, 1].map(|d| scale.objects / d) {
        let cells = [
            (false, Batch),
            (false, Interactive),
            (true, Batch),
            (true, Interactive),
        ];
        let (stalls, objects): (Vec<f64>, Vec<u64>) = cells
            .into_iter()
            .map(|(in_smc, mode)| {
                let config = HeapConfig {
                    mode,
                    ..HeapConfig::default()
                };
                let heap = ManagedHeap::new(config);
                // Off-heap the data never meets the collector, which then
                // only sees the churn thread's temporaries.
                let smc: Smc<Line> = Smc::new(&Runtime::new());
                let list: GcList<Line> = GcList::new(&heap);
                for i in 0..n as u64 {
                    if in_smc {
                        smc.add(Line::new(i));
                    } else {
                        list.add(Line::new(i));
                    }
                }
                let measured = stall_and_trace(&heap, window);
                pauses[in_smc as usize].merge(heap.pauses.histogram());
                measured
            })
            .unzip();
        report.push_row(timeouts, row(n, stalls));
        report.push_row(traces, row(n, objects.iter().map(|&t| t as f64)));
        traced.push((n as u64, objects));
    }
    report.histogram("managed_gc_pause_ns", &pauses[0]);
    report.histogram("smc_gc_pause_ns", &pauses[1]);
    let (smallest, largest) = (&traced[0].1, &traced[3].1);
    let growth = largest[0].min(largest[1]) as f64 / smallest[0].max(smallest[1]) as f64;
    report.check(
        "managed_trace_grows_with_live_set",
        traced.iter().all(|(n, t)| t[0] >= *n && t[1] >= *n) && growth >= 4.0,
        format!(
            "a major collection traces every managed object: {growth:.1}x more at 8x the objects"
        ),
    );
    let most = traced.iter().flat_map(|(_, t)| &t[2..]).max();
    let most = *most.expect("four sizes");
    report.check(
        "smc_trace_independent_of_live_set",
        most <= KEEP_WINDOW,
        format!("at most {most} objects traced at any size: the churn's own {KEEP_WINDOW}-object window"),
    );
    report
}
