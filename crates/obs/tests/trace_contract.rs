//! Two promises the tracer makes outside its own module: DESIGN.md §10
//! lists exactly the variants the `events!` table declares, and an export
//! never draws a tracer thread on the counter track.
//!
//! This file is its own process, so the thread that emits below is the
//! first this process's tracer ever sees — the one that drew id 0, the
//! counter track's id, before tracer ids started at 1.

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
fn tracer_threads_never_share_the_counter_track() {
    trace::enable();
    trace::emit(Event::EpochAdvance { epoch: 1 });
    std::thread::spawn(|| trace::emit(Event::RelocationBailed { src_slot: 2 }))
        .join()
        .unwrap();
    trace::disable();
    let mut export = ChromeTrace::from_ring_snapshot();
    export.counter(5, "occupancy", 0.5);
    let doc = export.to_json();
    let records = doc.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
    let text = |r: &JsonValue, key: &str| r.get(key).and_then(JsonValue::as_str).map(str::to_owned);
    let tid = |r: &JsonValue| r.get("tid").and_then(JsonValue::as_u64).unwrap();
    let mut ring_records = 0;
    for r in records {
        let name = text(r, "name").unwrap();
        if name == "thread_name" {
            let track = r.get("args").and_then(|a| text(a, "name")).unwrap();
            assert_eq!(
                track == "counters",
                tid(r) == 0,
                "{track} on tid {}",
                tid(r)
            );
        } else if name == "occupancy" {
            assert_eq!(tid(r), 0, "counter samples live on track 0");
        } else {
            ring_records += 1;
            assert_ne!(tid(r), 0, "{name} is drawn on the counter track");
        }
    }
    assert_eq!(ring_records, 2, "both threads' events were exported");
}
