//! Figure 18: contended block-allocation churn on the sharded allocator.
//!
//! Each thread runs an allocate/hand-off/free loop against one shared
//! [`Runtime`]: it allocates blocks (per-allocation latency recorded in an
//! HDR histogram), keeps a small live window, and passes evicted blocks to
//! its ring neighbour, which frees them — so with two or more threads every
//! free is a *remote* free and the MPSC return queues carry the whole free
//! stream. The figure is allocations per second and p50/p99 allocation
//! latency per thread count. (The retired shared-allocator strawman's
//! numbers are recorded in EXPERIMENTS.md, Fig 18.)
//!
//! Oracles (all recorded as report checks):
//! - `alloc_parity`: every run performs exactly `threads × iters`
//!   allocations and frees, and ends with zero live blocks.
//! - `post_churn_verify`: `Runtime::verify` reconciles after every run —
//!   free-list and budget accounting balance exactly.

use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use smc_bench::{arg_usize, csv, csv_into, finish, init_tracing, Report};
use smc_memory::block::type_id_of;
use smc_memory::{BlockLayout, MemoryStats, Runtime};
use smc_obs::Histogram;

/// Live blocks each thread holds before evicting the oldest to its
/// neighbour. Small enough to keep the footprint flat, large enough that
/// frees trail allocations and the recycling paths stay hot.
const WINDOW: usize = 16;

struct ChurnRun {
    p50_ns: u64,
    p99_ns: u64,
    allocated: u64,
    freed: u64,
    live: u64,
    remote_frees_drained: u64,
    verify_ok: bool,
}

fn churn(threads: usize, iters: usize) -> ChurnRun {
    let rt = Runtime::new();
    let layout = BlockLayout::rows_of::<u64>().expect("u64 fits a block");
    let hist = Arc::new(Histogram::new());
    let barrier = Arc::new(Barrier::new(threads));
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..threads).map(|_| mpsc::channel()).unzip();
    std::thread::scope(|s| {
        let mut rxs = rxs.into_iter();
        for i in 0..threads {
            let tx = txs[(i + 1) % threads].clone();
            let rx = rxs.next().unwrap();
            let rt = rt.clone();
            let hist = hist.clone();
            let barrier = barrier.clone();
            s.spawn(move || {
                let mut window = Vec::with_capacity(WINDOW + 1);
                barrier.wait();
                for k in 0..iters {
                    let t0 = Instant::now();
                    let b = rt
                        .allocate_block(&layout, type_id_of::<u64>(), (i * iters + k) as u64)
                        .expect("unbounded budget");
                    hist.record_duration(t0.elapsed());
                    window.push(b);
                    if window.len() > WINDOW {
                        tx.send(window.remove(0)).unwrap();
                    }
                    // Free whatever the left neighbour has handed over so the
                    // in-flight backlog stays bounded.
                    while let Ok(other) = rx.try_recv() {
                        rt.free_block(other);
                    }
                }
                for b in window {
                    tx.send(b).unwrap();
                }
                drop(tx);
                // The left neighbour's sender closing means every block it
                // ever produced has been handed over; free the remainder.
                while let Ok(other) = rx.recv() {
                    rt.free_block(other);
                }
            });
        }
        drop(txs);
    });
    ChurnRun {
        p50_ns: hist.p50(),
        p99_ns: hist.p99(),
        allocated: MemoryStats::get(&rt.stats.blocks_allocated),
        freed: MemoryStats::get(&rt.stats.blocks_freed),
        live: MemoryStats::get(&rt.stats.blocks_live),
        remote_frees_drained: MemoryStats::get(&rt.stats.remote_frees_drained),
        verify_ok: rt.verify().is_ok(),
    }
}

fn main() {
    init_tracing();
    let max_threads = arg_usize("--threads", 4).max(1);
    let iters = arg_usize("--iters", 30_000).max(WINDOW + 1);
    let hw_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("Figure 18: contended allocation churn");
    println!("hardware threads: {hw_threads}, per-thread iterations: {iters}");
    let columns = ["threads", "allocs_per_sec", "p50_ns", "p99_ns"];
    let mut report = Report::new("fig18", "Contended allocation throughput");
    report.param("iters_per_thread", iters as u64);
    report.param("hw_threads", hw_threads as u64);
    let sid = report.series("alloc_churn", &columns);
    csv(&columns);

    let mut allocs_total = 0u64;
    let mut remote_drained_total = 0u64;
    let mut parity_ok = true;
    let mut verify_ok = true;
    for threads in [1usize, 2, 4].into_iter().filter(|&t| t <= max_threads) {
        let t0 = Instant::now();
        let run = churn(threads, iters);
        let secs = t0.elapsed().as_secs_f64().max(1e-9);
        let expected = (threads * iters) as u64;
        let rate = expected as f64 / secs;
        parity_ok &= run.allocated == expected && run.freed == expected && run.live == 0;
        verify_ok &= run.verify_ok;
        allocs_total += run.allocated;
        remote_drained_total += run.remote_frees_drained;
        println!(
            "{threads:>2} threads: {rate:>12.0} allocs/s  p50 {:>6} ns  p99 {:>8} ns",
            run.p50_ns, run.p99_ns
        );
        csv_into(
            &mut report,
            sid,
            &[
                &threads.to_string(),
                &format!("{rate:.0}"),
                &run.p50_ns.to_string(),
                &run.p99_ns.to_string(),
            ],
        );
    }

    report.check(
        "alloc_parity",
        parity_ok,
        "every run allocated and freed exactly threads*iters blocks with zero live at exit"
            .to_string(),
    );
    report.check(
        "post_churn_verify",
        verify_ok,
        "Runtime::verify reconciled after every churn run".to_string(),
    );
    report.counter("allocs_total", allocs_total);
    report.counter("remote_frees_drained", remote_drained_total);
    finish(&mut report);
}
