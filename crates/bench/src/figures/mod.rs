//! Figures 6–13 — the paper's whole evaluation (§7) — as the eight rows of
//! [`FIGURES`]. The `figures` binary runs one row, prints it through
//! [`render`] and exits through [`finish`](crate::finish);
//! `tests/paper_claims.rs` runs all eight at [`TEST_SCALE`]. Both read one
//! gate: every figure ends by recording its paper claim as a report check.
//! *Counted* claims (bytes held, objects traced, operation counts, checksums,
//! query answers) are asserted in every build; *timed-ratio* claims go
//! through [`claim_ratio`] against the threshold table [`CLAIMS`] and are
//! release-only — without inlining SMC loses Figs 7 and 8 to the managed
//! baseline's simpler code, which says nothing about the design.

mod alloc;
mod enumeration;
mod gc;
mod queries;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::{arg_in, parse_u64, JsonValue, Report, SeriesId};

/// The two sizes that differ between a test-scale and a paper-scale run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// TPC-H scale factor (Figs 8 and 10–13; the paper runs SF 3).
    pub sf: f64,
    /// Objects: the collection in Fig 6, the allocations per thread in
    /// Fig 7, the largest collection in Fig 9.
    pub objects: usize,
}

/// What `cargo test` runs every figure at: seconds for all eight, yet large
/// enough that the timed ratios hold their thresholds.
#[rustfmt::skip]
pub const TEST_SCALE: Scale = Scale { sf: 0.01, objects: 100_000 };

/// One figure of the evaluation.
pub struct Figure {
    /// `fig06` … `fig13`; also names the `BENCH_<id>.json` report.
    pub id: &'static str,
    /// What the paper's figure shows.
    pub title: &'static str,
    /// The laptop-sized scale `figures <id>` runs at without flags.
    pub default: Scale,
    /// Runs the figure and records its claims.
    pub run: fn(&Scale) -> Report,
}

/// The evaluation, in the paper's order.
#[rustfmt::skip]
pub const FIGURES: [Figure; 8] = [
    Figure { id: "fig06", title: "Sensitivity to the reclamation threshold", default: Scale { sf: 0.05, objects: 200_000 }, run: alloc::fig06 },
    Figure { id: "fig07", title: "Allocation throughput (M objects/s)", default: Scale { sf: 0.05, objects: 1_000_000 }, run: alloc::fig07 },
    Figure { id: "fig08", title: "Refresh streams per minute", default: Scale { sf: 0.02, objects: 1_000_000 }, run: alloc::fig08 },
    Figure { id: "fig09", title: "Longest thread timeout vs collection size", default: Scale { sf: 0.05, objects: 1_600_000 }, run: gc::fig09 },
    Figure { id: "fig10", title: "Enumeration time, fresh vs worn", default: Scale { sf: 0.05, objects: 1_000_000 }, run: enumeration::fig10 },
    Figure { id: "fig11", title: "TPC-H Q1-Q6 against the managed collections", default: Scale { sf: 0.05, objects: 1_000_000 }, run: queries::fig11 },
    Figure { id: "fig12", title: "Direct pointers and columnar storage against the base SMC", default: Scale { sf: 0.05, objects: 1_000_000 }, run: queries::fig12 },
    Figure { id: "fig13", title: "SMC against the columnstore RDBMS", default: Scale { sf: 0.05, objects: 1_000_000 }, run: queries::fig13 },
];

/// `figures <id> [--sf f] [--objects n]`: the figure and the scale to run
/// it at. Anything else — no id, an unknown id, an unknown or misspelt flag,
/// a missing or unparsable value — is an error naming the argument.
pub fn parse_args(args: &[String]) -> Result<(&'static Figure, Scale), String> {
    let ids = FIGURES.map(|f| f.id).join(" ");
    let id = args.first().ok_or(format!("no figure id; one of: {ids}"))?;
    let figure = FIGURES.iter().find(|f| f.id == id);
    let figure = figure.ok_or(format!("unknown figure {id:?}; one of: {ids}"))?;
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--sf" | "--objects" => rest.next(),
            _ => return Err(format!("unknown argument {arg:?}")),
        };
    }
    let positive = |v: &str| {
        v.parse()
            .ok()
            .filter(|sf: &f64| sf.is_finite() && *sf > 0.0)
    };
    let sf = arg_in(args, "--sf", positive)?.unwrap_or(figure.default.sf);
    let objects = arg_in(args, "--objects", |v| parse_u64(v)?.try_into().ok())?;
    let objects = objects.unwrap_or(figure.default.objects);
    Ok((figure, Scale { sf, objects }))
}

/// An empty report carrying `id`'s title from [`FIGURES`].
fn new_report(id: &str) -> Report {
    let figure = FIGURES.iter().find(|f| f.id == id).expect("a listed id");
    Report::new(figure.id, figure.title)
}

/// Opens a series whose column names are the words of `columns`.
fn series(report: &mut Report, name: &str, columns: &str) -> SeriesId {
    report.series(name, &columns.split(' ').collect::<Vec<_>>())
}

/// A cell with nothing to measure: `null` in the JSON, `-` in the table.
const NA: f64 = f64::NAN;

/// A measured cell, kept to three decimals so table and JSON agree.
fn num(v: f64) -> JsonValue {
    JsonValue::Num((v * 1e3).round() / 1e3)
}

/// A series row: its label, then one [`num`] per cell.
fn row(label: impl Into<JsonValue>, cells: impl IntoIterator<Item = f64>) -> Vec<JsonValue> {
    let cells = cells.into_iter().map(num);
    std::iter::once(label.into()).chain(cells).collect()
}

/// The lineitem-sized (136-byte) object Figs 6, 7 and 9 allocate — the same
/// bytes on either heap: tabular for an SMC, traceable for the collector.
#[derive(Clone, Copy)]
struct Line {
    key: u64,
    _payload: [u64; 16],
}

// SAFETY: integers only — no pointers, every bit pattern valid.
unsafe impl smc_memory::Tabular for Line {}
impl managed_heap::Trace for Line {}

impl Line {
    fn new(key: u64) -> Line {
        let _payload = [key; 16];
        Line { key, _payload }
    }
}

/// The one timed cell: the median of five calls of `f` after a warm-up
/// call, in milliseconds. The result of `f` is black-boxed so the
/// computation cannot be optimized out.
fn timed_ms<R>(mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let mut samples = [Duration::ZERO; 5].map(|_| {
        let t0 = Instant::now();
        std::hint::black_box(f());
        t0.elapsed()
    });
    samples.sort();
    samples[2].as_secs_f64() * 1e3
}

fn text(v: Option<&JsonValue>) -> String {
    match v {
        Some(JsonValue::Str(s)) => s.clone(),
        Some(JsonValue::Num(n)) if n.is_finite() => n.to_string(),
        _ => "-".to_string(),
    }
}

fn items<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    doc.get(key).and_then(JsonValue::as_arr).unwrap_or_default()
}

/// The one rendering of a figure: title and parameters, every series as a
/// GitHub pipe table, every check with its verdict — what EXPERIMENTS.md
/// pastes.
pub fn render(report: &Report) -> String {
    let doc = report.document();
    let params = doc
        .get("params")
        .map(JsonValue::to_json)
        .unwrap_or_default();
    let (id, title) = (text(doc.get("figure")), text(doc.get("title")));
    let mut out = format!("{id}: {title} {params}\n");
    let line = |cells: &[JsonValue]| {
        let cells: Vec<String> = cells.iter().map(|c| text(Some(c))).collect();
        format!("| {} |\n", cells.join(" | "))
    };
    for series in items(&doc, "series") {
        let columns = items(series, "columns");
        let _ = write!(out, "\n{}:\n\n{}", text(series.get("name")), line(columns));
        let _ = writeln!(out, "|{}", "---|".repeat(columns.len()));
        let rows = items(series, "rows").iter().filter_map(JsonValue::as_arr);
        rows.for_each(|r| out.push_str(&line(r)));
    }
    out.push('\n');
    for check in items(&doc, "checks") {
        let verdict = match check.get("passed").and_then(JsonValue::as_bool) {
            Some(true) => "pass",
            Some(false) => "FAIL",
            None => "unmeasured",
        };
        let (name, detail) = (text(check.get("name")), text(check.get("detail")));
        let _ = writeln!(out, "check {name}: {verdict} ({detail})");
    }
    out
}

/// Every timed-ratio claim — "the slower cell took at least this many times
/// the faster one's time" — by check name. Each threshold sits at least
/// 1.25× below the weakest ratio the release runs of `paper_claims` on the
/// 2-thread reference host produced (tabulated in EXPERIMENTS.md).
pub const CLAIMS: [(&str, f64); 10] = [
    ("smc_allocates_faster_than_managed_collections", 1.05),
    ("smc_refreshes_faster_than_managed_from_2_threads", 1.15),
    ("smc_flat_scan_beats_list", 1.6),
    ("worn_dictionary_slower_than_fresh", 1.0),
    ("smc_beats_list_on_q2_q3_q5_q6", 1.25),
    ("interpreted_q1_slower_than_compiled", 2.0),
    ("interpreted_q6_slower_than_compiled", 1.1),
    ("columnar_beats_rows_on_q3_q5_q6", 1.05),
    ("reference_joins_beat_value_joins_on_q3_q5", 1.25),
    ("rdbms_wins_date_pruned_q6", 1.15),
];

/// A cell of a series: the row's label (its first cell) and the column.
pub type Cell<'a> = (&'a str, &'a str);

/// The number in `cell` of `series`; panics naming whichever of the three
/// the report does not hold.
fn cell_value(doc: &JsonValue, series: &str, (row, column): Cell<'_>) -> f64 {
    let named = |s: &&JsonValue| text(s.get("name")) == series;
    let found = items(doc, "series").iter().find(named);
    let found = found.unwrap_or_else(|| panic!("no series {series:?} in the report"));
    let col = items(found, "columns").iter();
    let col = col.clone().position(|c| c.as_str() == Some(column));
    let col = col.unwrap_or_else(|| panic!("no column {column:?} in series {series:?}"));
    let mut rows = items(found, "rows").iter().filter_map(JsonValue::as_arr);
    let cells = rows.find(|r| text(r.first()) == row);
    let cells = cells.unwrap_or_else(|| panic!("no row {row:?} in series {series:?}"));
    let value = cells[col].as_f64().filter(|v| v.is_finite());
    value.unwrap_or_else(|| panic!("{series}[{row}][{column}] is not a measured cell"))
}

/// Records the claim `name` of [`CLAIMS`] over cells the report already
/// holds: each pair is the slower and the faster cell of `series`, and the
/// pair with the smallest ratio decides. The cells are looked up in every
/// build, so a misspelt one panics under `cargo test`; the comparison
/// itself is release-only.
pub fn claim_ratio(report: &mut Report, name: &str, series: &str, pairs: &[(Cell, Cell)]) {
    let claimed = CLAIMS.iter().find(|c| c.0 == name);
    let (_, at_least) = claimed.unwrap_or_else(|| panic!("no claim {name:?} in CLAIMS"));
    let doc = report.document();
    let value = |cell| cell_value(&doc, series, cell);
    let ratios = pairs.iter().map(|p| (value(p.0) / value(p.1), p));
    let weakest = ratios.min_by(|a, b| a.0.total_cmp(&b.0));
    let (ratio, ((r1, c1), (r2, c2))) = weakest.expect("a claim compares at least one pair");
    if cfg!(debug_assertions) {
        return report.unmeasured(name, "debug build");
    }
    let n = pairs.len();
    let detail =
        format!("weakest of {n}: {r1}[{c1}] / {r2}[{c2}] = {ratio:.2}, claimed >= {at_least}");
    report.check(name, ratio >= *at_least, detail);
}

#[cfg(test)]
mod tests {
    #[test]
    fn median_orders_samples() {
        let mut calls = 0;
        let ms = super::timed_ms(|| calls += 1);
        assert_eq!(calls, 6, "warm-up + five samples");
        assert!(ms >= 0.0);
    }
}
