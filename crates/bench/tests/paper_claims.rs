//! The paper's evaluation as a test: every row of `FIGURES` runs at test
//! scale and must record no failed check and at least one measured one —
//! the same gate as the `figures` binary's exit code — after the gate's own
//! parts (`claim_ratio`, the threshold table, the renderer) are shown able
//! to fail. Counted claims are asserted in every build; timed-ratio claims
//! only in a release build (`cargo test --release -p smc-bench --test
//! paper_claims`), a debug build reporting them unmeasured. `-- --nocapture`
//! shows the tables.

use std::collections::BTreeSet;

use smc_bench::figures::{claim_ratio, render, CLAIMS, FIGURES, TEST_SCALE};
use smc_bench::{JsonValue, Report};

const WRITE_UP: &str = include_str!("../../../EXPERIMENTS.md");

/// One test, so the figures run one after another: their timed cells must
/// not share the host's two hardware threads with each other.
#[test]
fn every_figure_reproduces_its_claims_at_test_scale() {
    let mut recorded = BTreeSet::new();
    for figure in &FIGURES {
        let report = (figure.run)(&TEST_SCALE);
        println!("{}", render(&report));
        assert_eq!(report.failed_checks(), vec![], "{}", figure.id);
        let doc = report.document();
        let checks = doc.get("checks").and_then(JsonValue::as_arr).unwrap();
        let name = |c: &JsonValue| {
            c.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        };
        let measured = |c: &JsonValue| c.get("passed") == Some(&JsonValue::Bool(true));
        assert!(checks.iter().any(measured), "{}", figure.id);
        // Each timed claim is measured exactly where the build can time it.
        let timed = |c: &&JsonValue| CLAIMS.iter().any(|k| k.0 == name(c));
        for c in checks.iter().filter(timed) {
            assert_eq!(measured(c), !cfg!(debug_assertions), "{}", name(c));
        }
        recorded.extend(checks.iter().map(name));
    }
    // The write-up cannot drift from the table: it names every figure and
    // every check a figure records.
    for id in FIGURES.iter().map(|f| f.id) {
        assert!(WRITE_UP.contains(&format!("figures {id}")), "{id}");
    }
    for check in &recorded {
        assert!(WRITE_UP.contains(&format!("`{check}`")), "{check}");
    }
    // Every threshold is recorded by some figure, and the write-up tabulates
    // it beside a weakest observed ratio at least 1.25x above it.
    for (name, at_least) in CLAIMS {
        assert!(recorded.contains(name), "{name} is never recorded");
        let row = WRITE_UP
            .lines()
            .find(|l| l.starts_with(&format!("| `{name}` |")));
        let row = row.unwrap_or_else(|| panic!("no `| `{name}` | threshold | weakest |` row"));
        let cells: Vec<f64> = row
            .split('|')
            .filter_map(|c| c.trim().parse().ok())
            .collect();
        assert_eq!(cells[0], at_least, "{row}");
        assert!(cells[1] / at_least >= 1.25, "{row}");
    }
}

/// List three times faster than SMC on the flat scan, and a cell with
/// nothing measured.
fn slow_smc() -> Report {
    let mut r = Report::new("fig00", "hand-built");
    r.param("sf", 0.01);
    let s = r.series("enumeration", &["series", "flat_ms", "nested_ms"]);
    r.push_row(s, vec!["List".into(), 1.0.into(), 2.5.into()]);
    r.push_row(s, vec!["SMC".into(), 3.0.into(), f64::NAN.into()]);
    r
}

/// A real row of `CLAIMS`: List at least 1.7x SMC on a flat scan.
const SMC_FASTER: &str = "smc_flat_scan_beats_list";

#[test]
fn a_false_claim_fails_the_report_in_release_and_is_unmeasured_in_debug() {
    let mut r = slow_smc();
    let pair = (("List", "flat_ms"), ("SMC", "flat_ms"));
    claim_ratio(&mut r, SMC_FASTER, "enumeration", &[pair]);
    if cfg!(debug_assertions) {
        let why = "debug build".to_string();
        assert_eq!(r.unmeasured_checks(), vec![(SMC_FASTER.into(), why)]);
        assert!(r.all_checks_passed());
    } else {
        let failed = r.failed_checks();
        assert_eq!(failed.len(), 1, "{failed:?}");
        let detail = &failed[0].1;
        assert!(
            detail.contains("List[flat_ms] / SMC[flat_ms] = 0.33"),
            "{detail}"
        );
    }
    // The same cells the other way round hold.
    let mut r = slow_smc();
    claim_ratio(&mut r, SMC_FASTER, "enumeration", &[(pair.1, pair.0)]);
    assert!(r.all_checks_passed());
}

#[test]
fn a_cell_the_report_does_not_hold_panics_naming_it() {
    let flat = ("List", "flat_ms");
    let cases = [
        (
            "enumerations",
            ("SMC", "flat_ms"),
            "no series \"enumerations\"",
        ),
        ("enumeration", ("SMC", "flat"), "no column \"flat\""),
        ("enumeration", ("Bag", "flat_ms"), "no row \"Bag\""),
        (
            "enumeration",
            ("SMC", "nested_ms"),
            "enumeration[SMC][nested_ms] is not a measured",
        ),
    ];
    for (series, cell, named) in cases {
        let claimed = || claim_ratio(&mut slow_smc(), SMC_FASTER, series, &[(flat, cell)]);
        let panic = std::panic::catch_unwind(claimed).unwrap_err();
        let message = panic.downcast_ref::<String>().unwrap();
        assert!(message.contains(named), "{message}");
    }
}

#[test]
fn renders_every_series_as_a_pipe_table_and_every_check_with_its_verdict() {
    let mut r = slow_smc();
    let s = r.series("post", &["n", "moved"]);
    r.push_row(s, vec![2u64.into(), 11754u64.into()]);
    r.check("counted", true, "2 == 2");
    r.unmeasured("timed", "debug build");
    let expected = r#"fig00: hand-built {"sf":0.01}

enumeration:

| series | flat_ms | nested_ms |
|---|---|---|
| List | 1 | 2.5 |
| SMC | 3 | - |

post:

| n | moved |
|---|---|
| 2 | 11754 |

check counted: pass (2 == 2)
check timed: unmeasured (debug build)
"#;
    assert_eq!(render(&r), expected);
}
