//! Figure 14 (this repo's addition): morsel-driven scaling of the parallel
//! query engine over SMC blocks.
//!
//! Sweeps worker counts (1, 2, 4, ... up to `--max-threads`) over three
//! workloads on the SMC backend: a raw filter-count scan, Q1 (group
//! aggregate) and Q6 (filter fold). For each thread count the table shows
//! the time and the speedup over the 1-worker pool; the sequential
//! single-thread pipeline is printed as the baseline row. Parallel results
//! are checked bit-identical to the sequential pipelines on every run; a
//! parity failure still writes `BENCH_fig14.json` (with the failed check
//! recorded) and exits non-zero, so CI smoke catches regressions from the
//! artifact as well as the exit code.

use smc_bench::{
    arg_f64, arg_usize, csv, csv_into, finish, init_tracing, ms, record_memory_counters,
    time_median, Report,
};
use smc_exec::{ParScan, WorkerPool};
use tpch::queries::{smc_q, Params};
use tpch::smcdb::SmcDb;
use tpch::Generator;

fn main() {
    init_tracing();
    let sf = arg_f64("--sf", 0.05);
    let max_threads = arg_usize("--max-threads", 8);
    let runs = arg_usize("--runs", 3);
    let gen = Generator::new(sf);
    let p = Params::default();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "Figure 14: morsel-driven scaling on SMC (SF {sf}); times in ms; \
         {cores} hardware threads available (speedup is bounded by this)"
    );
    let db = SmcDb::load(&gen, false);

    // Sequential baselines (the existing single-threaded pipelines).
    let q1_seq = smc_q::q1(&db, &p);
    let q6_seq = smc_q::q6(&db, &p);
    let scan_seq = {
        let guard = db.runtime.pin();
        db.lineitems.for_each(&guard, |_| {})
    };
    let t_scan_seq = time_median(runs, || {
        let guard = db.runtime.pin();
        std::hint::black_box(db.lineitems.for_each(&guard, |_| {}))
    });
    let t_q1_seq = time_median(runs, || std::hint::black_box(smc_q::q1(&db, &p)).len());
    let t_q6_seq = time_median(runs, || std::hint::black_box(smc_q::q6(&db, &p)));

    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "threads", "scan ms", "Q1 ms", "Q6 ms", "scan x", "Q1 x", "Q6 x"
    );
    let columns = [
        "threads",
        "scan_ms",
        "q1_ms",
        "q6_ms",
        "scan_speedup",
        "q1_speedup",
        "q6_speedup",
    ];
    let mut report = Report::new("fig14", "Scaling of morsel-driven scans on SMC");
    report.param("sf", sf);
    report.param("max_threads", max_threads as u64);
    report.param("runs", runs as u64);
    report.param("hardware_threads", cores as u64);
    let sid = report.series("scaling", &columns);
    csv(&columns);
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "seq",
        ms(t_scan_seq),
        ms(t_q1_seq),
        ms(t_q6_seq),
        "-",
        "-",
        "-"
    );

    let mut base: Option<(f64, f64, f64)> = None;
    let mut threads = 1;
    while threads <= max_threads {
        let pool = WorkerPool::for_runtime(&db.runtime, threads).expect("thread registry full");
        let scan = ParScan::new(&db.lineitems, &pool);
        // Parity checks are recorded, not asserted: a failure must still
        // produce the JSON artifact (and then exit non-zero via finish()).
        let n = scan.filter_count(|_| true);
        report.check(
            format!("scan_parity_t{threads}"),
            n == scan_seq,
            format!("parallel visited {n}, sequential {scan_seq}"),
        );
        let q1_par = smc_q::q1_par(&db, &p, &pool);
        report.check(
            format!("q1_parity_t{threads}"),
            q1_par == q1_seq,
            "parallel Q1 must be bit-identical to sequential",
        );
        let q6_par = smc_q::q6_par(&db, &p, &pool);
        report.check(
            format!("q6_parity_t{threads}"),
            q6_par == q6_seq,
            format!("parallel Q6 = {q6_par:?}, sequential = {q6_seq:?}"),
        );
        if n != scan_seq || q1_par != q1_seq || q6_par != q6_seq {
            eprintln!("parity failure at {threads} threads; skipping timing sweep");
            record_memory_counters(&mut report, &db.runtime.stats);
            finish(&mut report);
        }

        let t_scan = time_median(runs, || std::hint::black_box(scan.filter_count(|_| true)));
        let t_q1 = time_median(runs, || {
            std::hint::black_box(smc_q::q1_par(&db, &p, &pool)).len()
        });
        let t_q6 = time_median(runs, || std::hint::black_box(smc_q::q6_par(&db, &p, &pool)));
        let (s0, q10, q60) =
            *base.get_or_insert((t_scan.as_secs_f64(), t_q1.as_secs_f64(), t_q6.as_secs_f64()));
        let sx = s0 / t_scan.as_secs_f64();
        let q1x = q10 / t_q1.as_secs_f64();
        let q6x = q60 / t_q6.as_secs_f64();
        println!(
            "{:>8} {:>10} {:>10} {:>10} {:>8.2}x {:>8.2}x {:>8.2}x",
            threads,
            ms(t_scan),
            ms(t_q1),
            ms(t_q6),
            sx,
            q1x,
            q6x
        );
        csv_into(
            &mut report,
            sid,
            &[
                &threads.to_string(),
                &ms(t_scan),
                &ms(t_q1),
                &ms(t_q6),
                &format!("{sx:.3}"),
                &format!("{q1x:.3}"),
                &format!("{q6x:.3}"),
            ],
        );
        threads *= 2;
    }
    report.histogram("query_latency_ns", &tpch::queries::QUERY_LATENCY_NS);
    record_memory_counters(&mut report, &db.runtime.stats);
    finish(&mut report);
}
