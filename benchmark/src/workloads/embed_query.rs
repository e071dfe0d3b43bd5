//! `embed_query`: TPC-H Q1-Q6 in process over `tpch::SmcDb`.
//!
//! One thread runs passes of the eight queries `smc_q::{q1..q6}`,
//! `q1_columnar` and `q6_columnar` over a database loaded at SF 0.1
//! with its columnar lineitem twin. Scan kernels, `Ref::get` joins, the
//! columnar layout and nothing else do the work: no allocation, no rings,
//! no persistence. The `_direct`, `_par` and remaining `_columnar` variants
//! are checked against the row variants once, outside the timed phases.

use std::time::{Duration, Instant};

use smc_exec::WorkerPool;
use smc_memory::Decimal;
use tpch::queries::smc_q;
use tpch::queries::{Q1Row, Q2Row, Q3Row, Q4Row, Q5Row};
use tpch::smcdb::SmcDb;
use tpch::{Generator, Params};

use super::{nproc, peak_rss_mb, setup_laps, MemoryCounters, Outcome, RunConfig, Tally};
use crate::ladder;
use crate::metrics::Values;
use crate::stats::Samples;
use crate::trace;

pub const SCALE_FACTOR: f64 = 0.1;

/// The answers of one pass.
#[derive(Debug, PartialEq)]
struct Answers {
    q1: Vec<Q1Row>,
    q2: Vec<Q2Row>,
    q3: Vec<Q3Row>,
    q4: Vec<Q4Row>,
    q5: Vec<Q5Row>,
    q6: Decimal,
    q1_col: Vec<Q1Row>,
    q6_col: Decimal,
}

/// Runs the eight queries once; `done` is told as each one completes.
fn pass(db: &SmcDb, p: &Params, mut done: impl FnMut()) -> Answers {
    macro_rules! timed {
        ($name:literal, $call:expr) => {{
            let out = {
                let _s = trace::span($name);
                std::hint::black_box($call)
            };
            done();
            out
        }};
    }
    Answers {
        q1: timed!("query.q1", smc_q::q1(db, p)),
        q2: timed!("query.q2", smc_q::q2(db, p)),
        q3: timed!("query.q3", smc_q::q3(db, p)),
        q4: timed!("query.q4", smc_q::q4(db, p)),
        q5: timed!("query.q5", smc_q::q5(db, p)),
        q6: timed!("query.q6", smc_q::q6(db, p)),
        q1_col: timed!("query.q1_col", smc_q::q1_columnar(db, p)),
        q6_col: timed!("query.q6_col", smc_q::q6_columnar(db, p)),
    }
}

/// Rows the eight queries enumerate in one pass: seven of them scan
/// lineitem (or its columnar twin), Q2 scans partsupp twice.
fn rows_examined(db: &SmcDb) -> u64 {
    7 * db.lineitems.len() + 2 * db.partsupps.len()
}

/// Bytes of the rows the database holds, were they packed end to end.
fn live_bytes(db: &SmcDb) -> u64 {
    fn of<T: smc::Tabular>(c: &smc::Smc<T>) -> u64 {
        c.len() * std::mem::size_of::<T>() as u64
    }
    of(&db.regions)
        + of(&db.nations)
        + of(&db.suppliers)
        + of(&db.parts)
        + of(&db.partsupps)
        + of(&db.customers)
        + of(&db.orders)
        + of(&db.lineitems)
        + db.lineitems_col.as_ref().map_or(0, |c| {
            c.len()
                * <tpch::smcdb::LineitemCol as smc::Columnar>::COLUMN_WIDTHS
                    .iter()
                    .sum::<usize>() as u64
        })
}

/// Every variant the passes do not time must agree with the row variant.
fn check_variants(db: &SmcDb, p: &Params, first: &Answers, tally: &mut Tally) {
    let pool = WorkerPool::for_runtime(&db.runtime, nproc())
        .expect("a fresh runtime has room for the workers");
    tally.check(first.q1_col == first.q1, || {
        "q1_columnar differs from q1".into()
    });
    tally.check(first.q6_col == first.q6, || {
        "q6_columnar differs from q6".into()
    });
    tally.check(smc_q::q3_direct(db, p) == first.q3, || {
        "q3_direct differs from q3".into()
    });
    tally.check(smc_q::q4_direct(db, p) == first.q4, || {
        "q4_direct differs from q4".into()
    });
    tally.check(smc_q::q5_direct(db, p) == first.q5, || {
        "q5_direct differs from q5".into()
    });
    tally.check(smc_q::q3_columnar(db, p) == first.q3, || {
        "q3_columnar differs from q3".into()
    });
    tally.check(smc_q::q5_columnar(db, p) == first.q5, || {
        "q5_columnar differs from q5".into()
    });
    tally.check(smc_q::q1_par(db, p, &pool) == first.q1, || {
        "q1_par differs from q1".into()
    });
    tally.check(smc_q::q6_par(db, p, &pool) == first.q6, || {
        "q6_par differs from q6".into()
    });
    tally.check(smc_q::q6_columnar_par(db, p, &pool) == first.q6, || {
        "q6_columnar_par differs from q6".into()
    });
    tally.check(
        !first.q1.is_empty() && !first.q3.is_empty() && first.q6 != Decimal::ZERO,
        || "a query came back empty".into(),
    );
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let plan = cfg.plan();
    let gen = Generator::with_seed(SCALE_FACTOR, cfg.seed);
    let (db, setup_s) = setup_laps(|| SmcDb::load(&gen, true), drop);
    let p = Params::default();

    let mut tally = Tally::default();
    let first = pass(&db, &p, || {});
    check_variants(&db, &p, &first, &mut tally);

    let stats = &db.runtime.stats;
    let before = MemoryCounters::read(stats);

    let mut passes = Samples::default();
    let mut windows = plan.windows();
    let mut in_passes = Duration::ZERO;
    let end = plan.end();
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let since = t0 - start;
        if since >= end {
            break;
        }
        if cfg.traced {
            super::trace_window(&plan, since);
        }
        let answers = pass(&db, &p, || {
            if let Some(at) = plan.measured(start.elapsed()) {
                windows.add(at, 1);
            }
        });
        let took = t0.elapsed();
        let same = answers == first;
        tally.check(same, || "a pass answered differently from the first".into());
        if plan.measured(since).is_some() && same {
            passes.record(took);
            in_passes += took;
        }
    }
    trace::set_enabled(cfg.traced);
    let after = MemoryCounters::read(stats);

    let mut layers = Values::default();
    if cfg.traced {
        after.set_deltas(&before, &mut layers);
        layers.set("obs.trace_overhead_ratio", windows.even_over_odd());
        ladder::query_probes(&db);
    }

    let mut e2e = Values::default();
    e2e.set("setup_s", setup_s);
    e2e.set("ops_per_s", windows.median_rate());
    e2e.set(
        "scan_mrows_per_s",
        (rows_examined(&db) * passes.len() as u64) as f64 / 1e6 / in_passes.as_secs_f64().max(1e-9),
    );
    e2e.set(
        "bytes_per_live_byte",
        db.memory_bytes() as f64 / live_bytes(&db).max(1) as f64,
    );
    e2e.set_opt("read_p50_us", passes.sorted().p50_us());
    e2e.set("peak_rss_mb", peak_rss_mb());
    Outcome {
        end_to_end: e2e,
        layers,
        tally,
    }
}
