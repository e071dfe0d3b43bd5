//! Figs 11–13: TPC-H Q1–Q6 over every backend, all three figures reading
//! the one series table [`SERIES`].

use std::fmt::Debug;
use std::sync::OnceLock;

use managed_heap::ManagedHeap;
use tpch::csdb::CsDb;
use tpch::gcdb::GcDb;
use tpch::queries::gc_q::EnumVia;
use tpch::queries::{cs_q, gc_q, smc_q, Params, QUERY_LATENCY_NS};
use tpch::smcdb::SmcDb;
use tpch::Generator;

use super::{claim_ratio, new_report, num, Cell, Scale, NA};
use crate::{JsonValue, Report};

/// The databases of one figure, each loaded when a plan first asks for it.
#[derive(Default)]
struct Dbs {
    sf: f64,
    columnar: bool,
    gc: OnceLock<GcDb>,
    smc: OnceLock<SmcDb>,
    cs: OnceLock<CsDb>,
    p: Params,
}

impl Dbs {
    fn gc(&self) -> &GcDb {
        let load = || GcDb::load(&Generator::new(self.sf), &ManagedHeap::new_batch());
        self.gc.get_or_init(load)
    }
    fn smc(&self) -> &SmcDb {
        let load = || SmcDb::load(&Generator::new(self.sf), self.columnar);
        self.smc.get_or_init(load)
    }
    fn cs(&self) -> &CsDb {
        self.cs.get_or_init(|| CsDb::load(&Generator::new(self.sf)))
    }
}

/// How a series answers one query.
#[derive(Clone, Copy)]
enum Plan {
    /// Its own code; the answer comes back boxed so one fn type fits all.
    Own(fn(&Dbs) -> Box<dyn Debug>),
    /// The very code of the named series — nothing of its own to time.
    Same(&'static str),
    /// The series has no such query.
    None,
}

macro_rules! own {
    ($d:ident => $answer:expr) => {
        Plan::Own(|$d| Box::new($answer))
    };
}

/// Every series, by the name its column carries, and its plan for each of
/// Q1..Q6 — the only query dispatch in the crate. `smc` is compiled safe
/// code, the base every variant is compared to. `smc_direct` is the SMC with
/// every §6 unsafe optimisation — direct pointers on the reference joins
/// (Q3–Q5), unchecked decimal math on Q1: Fig 11's "unsafe" column and
/// Figs 12–13's "direct" column are this one series (Fig 12 used to time
/// the safe Q1 under that label). `rdbms` is the columnstore stand-in with
/// value joins; `linq` the interpreted engine over the SMC.
#[rustfmt::skip]
const SERIES: [(&str, [Plan; 6]); 7] = [
    ("list", [
        own!(d => gc_q::q1(d.gc(), &d.p, EnumVia::List)),
        own!(d => gc_q::q2(d.gc(), &d.p)),
        own!(d => gc_q::q3(d.gc(), &d.p, EnumVia::List)),
        own!(d => gc_q::q4(d.gc(), &d.p, EnumVia::List)),
        own!(d => gc_q::q5(d.gc(), &d.p, EnumVia::List)),
        own!(d => gc_q::q6(d.gc(), &d.p, EnumVia::List)),
    ]),
    ("dict", [
        own!(d => gc_q::q1(d.gc(), &d.p, EnumVia::Dict)),
        Plan::Same("list"), // Q2 enumerates no lineitems
        own!(d => gc_q::q3(d.gc(), &d.p, EnumVia::Dict)),
        own!(d => gc_q::q4(d.gc(), &d.p, EnumVia::Dict)),
        own!(d => gc_q::q5(d.gc(), &d.p, EnumVia::Dict)),
        own!(d => gc_q::q6(d.gc(), &d.p, EnumVia::Dict)),
    ]),
    ("smc", [
        own!(d => smc_q::q1(d.smc(), &d.p)),
        own!(d => smc_q::q2(d.smc(), &d.p)),
        own!(d => smc_q::q3(d.smc(), &d.p)),
        own!(d => smc_q::q4(d.smc(), &d.p)),
        own!(d => smc_q::q5(d.smc(), &d.p)),
        own!(d => smc_q::q6(d.smc(), &d.p)),
    ]),
    ("smc_direct", [
        own!(d => smc_q::q1_unsafe(d.smc(), &d.p)),
        Plan::Same("smc"),
        own!(d => smc_q::q3_direct(d.smc(), &d.p)),
        own!(d => smc_q::q4_direct(d.smc(), &d.p)),
        own!(d => smc_q::q5_direct(d.smc(), &d.p)),
        Plan::Same("smc"), // Q6 follows no reference
    ]),
    ("smc_columnar", [
        own!(d => smc_q::q1_columnar(d.smc(), &d.p)),
        Plan::Same("smc"), // Q2 touches no lineitem column
        own!(d => smc_q::q3_columnar(d.smc(), &d.p)),
        Plan::Same("smc_direct"),
        own!(d => smc_q::q5_columnar(d.smc(), &d.p)),
        own!(d => smc_q::q6_columnar(d.smc(), &d.p)),
    ]),
    ("linq", [
        own!(d => smc_q::q1_linq(d.smc(), &d.p)),
        Plan::None, Plan::None, Plan::None, Plan::None,
        own!(d => smc_q::q6_linq(d.smc(), &d.p)),
    ]),
    ("rdbms", [
        own!(d => cs_q::q1(d.cs(), &d.p)),
        own!(d => cs_q::q2(d.cs(), &d.p)),
        own!(d => cs_q::q3(d.cs(), &d.p)),
        own!(d => cs_q::q4(d.cs(), &d.p)),
        own!(d => cs_q::q5(d.cs(), &d.p)),
        own!(d => cs_q::q6(d.cs(), &d.p)),
    ]),
];

fn plans(series: &str) -> [Plan; 6] {
    let listed = SERIES.iter().find(|s| s.0 == series);
    let (_, plans) = listed.unwrap_or_else(|| panic!("no series {series:?} in SERIES"));
    *plans
}

/// Figs 11–13: the figure, its columns (the first is the baseline), and its
/// timed claims as (check, the queries it covers, the slower series, the
/// faster). Fig 11's Q1 and Q4 carry no claim: SMC/List is 0.5–0.8 on them
/// with excursions past 1. Fig 13's expected shape (§7): the RDBMS wins
/// what its clustered date index prunes hard (Q6); reference joins win the
/// join-heavy queries.
type TimedClaim = (&'static str, &'static str, &'static str, &'static str);
#[rustfmt::skip]
const QUERY_FIGURES: [(&str, &[&str], &[TimedClaim]); 3] = [
    ("fig11", &["list", "dict", "smc", "smc_direct", "linq"], &[
        ("smc_beats_list_on_q2_q3_q5_q6", "Q2 Q3 Q5 Q6", "list", "smc"),
        ("interpreted_q1_slower_than_compiled", "Q1", "linq", "smc"),
        ("interpreted_q6_slower_than_compiled", "Q6", "linq", "smc"),
    ]),
    ("fig12", &["smc", "smc_direct", "smc_columnar"], &[
        ("columnar_beats_rows_on_q3_q5_q6", "Q3 Q5 Q6", "smc", "smc_columnar"),
    ]),
    ("fig13", &["rdbms", "smc_direct", "smc_columnar"], &[
        ("reference_joins_beat_value_joins_on_q3_q5", "Q3 Q5", "rdbms", "smc_columnar"),
        ("rdbms_wins_date_pruned_q6", "Q6", "smc_columnar", "rdbms"),
    ]),
];

/// Runs Q1–Q6 on the columns of `id`'s row of `QUERY_FIGURES` and tabulates
/// milliseconds per series, then each later column over the first. A series
/// that runs another's code for a query is timed once: the later column
/// reads `= <the earlier one>`, and no ratio is made of one measurement
/// taken twice.
fn query_figure(id: &str, scale: &Scale) -> Report {
    let listed = QUERY_FIGURES.iter().find(|f| f.0 == id);
    let (&(_, columns, claims), sf) = (listed.expect("a listed id"), scale.sf);
    let columnar = columns.contains(&"smc_columnar");
    let dbs = Dbs {
        sf,
        columnar,
        ..Dbs::default()
    };
    let mut report = new_report(id);
    report.param("sf", sf);
    let over = |s: &&str| format!("{s}/{}", columns[0]);
    let ratio_names: Vec<String> = columns[1..].iter().map(over).collect();
    let names = columns.iter().copied();
    let names = names.chain(ratio_names.iter().map(String::as_str));
    let names: Vec<&str> = std::iter::once("query").chain(names).collect();
    let sid = report.series("query_times_ms", &names);
    let mut disagreements = Vec::new();
    for q in 0..6 {
        // (whose code ran, the column that timed it, ms, its answer).
        let mut timed: Vec<(&str, &str, f64, String)> = Vec::new();
        let mut row: Vec<JsonValue> = vec![format!("Q{}", q + 1).into()];
        for &column in columns {
            let mut owner = column;
            let run = loop {
                match plans(owner)[q] {
                    Plan::Own(run) => break Some(run),
                    Plan::Same(other) => owner = other,
                    Plan::None => break None,
                }
            };
            let earlier = timed.iter().find(|t| t.0 == owner).map(|t| t.1);
            row.push(match (run, earlier) {
                (None, _) => num(NA),
                (Some(_), Some(first)) => format!("= {first}").into(),
                (Some(run), None) => {
                    let answer = format!("{:?}", run(&dbs));
                    let ms = super::timed_ms(|| run(&dbs));
                    timed.push((owner, column, ms, answer));
                    num(ms)
                }
            });
        }
        let ms = |s: &str| timed.iter().find(|t| t.1 == s).map_or(NA, |t| t.2);
        row.extend(columns[1..].iter().map(|s| num(ms(s) / ms(columns[0]))));
        report.push_row(sid, row);
        if timed.iter().any(|t| t.3 != timed[0].3) {
            disagreements.push(format!("Q{}", q + 1));
        }
    }
    report.histogram("query_latency_ns", &QUERY_LATENCY_NS);
    // A time ratio between two plans means something only while both
    // compute the same rows, to the last decimal digit.
    report.check(
        "every_series_gives_the_same_answer",
        disagreements.is_empty(),
        format!("series disagree on {disagreements:?} of Q1-Q6"),
    );
    for (check, queries, slow, fast) in claims {
        let cells = |q| ((q, *slow), (q, *fast));
        let pairs: Vec<(Cell, Cell)> = queries.split(' ').map(cells).collect();
        claim_ratio(&mut report, check, "query_times_ms", &pairs);
    }
    report
}

/// Fig 11: evaluation time against `List<T>`, plus the §7 "interpreted
/// LINQ is 40–400 % slower" observation on Q1 and Q6.
pub fn fig11(scale: &Scale) -> Report {
    query_figure("fig11", scale)
}

/// Fig 12: the direct-pointer (§6) and columnar (§4.1) variants against
/// the base SMC.
pub fn fig12(scale: &Scale) -> Report {
    query_figure("fig12", scale)
}

/// Fig 13: the SMC variants against the in-memory columnar RDBMS.
pub fn fig13(scale: &Scale) -> Report {
    query_figure("fig13", scale)
}
