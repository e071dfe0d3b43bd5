//! Two promises the tracer makes outside its own module: DESIGN.md §10
//! lists exactly the variants the `events!` table declares, and an export
//! draws each tracer thread on a track of its own, named after it.

use std::collections::BTreeSet;

use smc_obs::trace::{self, Event};
use smc_obs::{ChromeTrace, JsonValue};

const DESIGN: &str = include_str!("../../../DESIGN.md");

#[test]
fn design_table_lists_exactly_the_declared_variants() {
    let section = DESIGN
        .split_once("\n## 10. Observability")
        .and_then(|(_, rest)| rest.split_once("\n### Histograms"))
        .expect("DESIGN.md §10 precedes its Histograms heading")
        .0;
    // The first cell of each table row below the header names variants in
    // backticks: "| `A` / `B` | producer | point |".
    let documented: BTreeSet<&str> = section
        .lines()
        .filter(|line| line.starts_with("| `"))
        .filter_map(|line| line.split('|').nth(1))
        .flat_map(|cell| cell.split('`').skip(1).step_by(2))
        .collect();
    let declared: BTreeSet<&str> = Event::KINDS.iter().map(|row| row.variant).collect();
    let undocumented: Vec<_> = declared.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&declared).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "DESIGN.md §10's taxonomy table misses {undocumented:?} and names {stale:?}, \
         which `events!` in crates/obs/src/trace.rs does not declare"
    );
}

#[test]
fn each_tracer_thread_is_drawn_on_its_own_named_track() {
    trace::enable();
    trace::emit(Event::EpochAdvance { epoch: 1 });
    std::thread::spawn(|| trace::emit(Event::RelocationBailed { src_slot: 2 }))
        .join()
        .unwrap();
    trace::disable();
    let doc = ChromeTrace::from_ring_snapshot().to_json();
    let records = doc.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
    let text = |r: &JsonValue, key: &str| r.get(key).and_then(JsonValue::as_str).map(str::to_owned);
    let tid = |r: &JsonValue| r.get("tid").and_then(JsonValue::as_u64).unwrap();
    let mut named = BTreeSet::new();
    let mut drawn = BTreeSet::new();
    for r in records {
        if text(r, "name").unwrap() == "thread_name" {
            let track = r.get("args").and_then(|a| text(a, "name")).unwrap();
            assert_eq!(track, format!("tracer-{}", tid(r)));
            named.insert(tid(r));
        } else {
            assert_ne!(tid(r), 0, "tracer thread ids start at 1");
            drawn.insert(tid(r));
        }
    }
    assert_eq!(drawn.len(), 2, "both threads' events were exported");
    assert_eq!(named, drawn, "every drawn track is named");
}
