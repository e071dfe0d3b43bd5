//! `smc-top` — the live memory observatory of a running `smc-serve`.
//!
//! Every 500 ms it issues the `SCRAPE` wire op and renders the
//! `smc-scrape/v1` document as a text dashboard: per-shard request
//! counters, tenant budgets, tail-latency attribution, tracer health (its
//! rings are what a flight dump writes), then per shard its heap snapshot
//! (epoch lag and capture watermark, per-context occupancy bars, limbo/hole
//! fragmentation, incarnation churn, spilled blocks, budget versus used
//! bytes, indirection-table load, the block allocator, pin hold times),
//! its compaction pass and pause percentiles, and its maintenance
//! coordinator's pass counters and SLO state.
//!
//! ```text
//! smc-top --addr HOST:PORT [--once] [--json]
//! smc-top --check-trace FILE [--require-request-flow N]
//! ```
//!
//! `--once` renders one frame and exits; `--json` prints the raw scrape
//! documents instead of the dashboard. Exit 0 after a clean run (ctrl-c
//! or SIGTERM included), 1 when a scrape fails, 2 on a usage error.
//!
//! `--check-trace` gates a Chrome trace another process wrote (`smc-serve`'s
//! drain trace or flight dump) by [`smc_obs::chrome::validate`] and
//! [`TraceShape::require`](smc_obs::chrome::TraceShape::require): exit 0 =
//! pass, 1 = violation or empty timeline, 2 = unreadable file or not JSON.

use std::time::Duration;

use smc_bench::{arg_flag, arg_string, arg_usize, install_signal_handler, interrupted};
use smc_obs::JsonValue;
use smc_serve::{Client, ClientError};

/// Time between two dashboard frames.
const REFRESH: Duration = Duration::from_millis(500);

const USAGE: &str = "usage: smc-top --addr HOST:PORT [--once] [--json]\n       \
                     smc-top --check-trace FILE [--require-request-flow N]";

/// The integer at `key`, 0 when absent.
fn u(v: &JsonValue, key: &str) -> u64 {
    v.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

/// The array at `key`, empty when absent.
fn arr<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    v.get(key).and_then(JsonValue::as_arr).unwrap_or(&[])
}

/// The number at `key`, 0 when absent.
fn num(v: &JsonValue, key: &str) -> f64 {
    v.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

fn is_true(v: Option<&JsonValue>) -> bool {
    v.and_then(JsonValue::as_bool) == Some(true)
}

/// `yes` when `v` is `true`, else `no`.
fn pick(v: Option<&JsonValue>, yes: &'static str, no: &'static str) -> &'static str {
    if is_true(v) {
        yes
    } else {
        no
    }
}

/// `width`-character occupancy bar: `[######....]`.
fn bar(frac: f64, width: usize) -> String {
    let filled = (frac.clamp(0.0, 1.0) * width as f64).round() as usize;
    format!("[{}{}]", "#".repeat(filled), ".".repeat(width - filled))
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// A histogram summary object (`count`, `p50_ns`, …) on one line.
fn summary(h: Option<&JsonValue>) -> String {
    let Some(h) = h else {
        return "-".to_string();
    };
    let [p50, p95, p99, max, n] =
        ["p50_ns", "p95_ns", "p99_ns", "max_ns", "count"].map(|k| u(h, k));
    format!("p50 {p50} p95 {p95} p99 {p99} max {max} (n={n})")
}

/// One shard's `smc-heap-snapshot/v1` document.
fn render_heap(shard: u64, snap: &JsonValue) {
    let wm = snap.get("watermark");
    println!(
        "  shard {shard} heap — epoch {} (lag {}, min pinned {}) — watermark {}",
        wm.map_or(0, |w| u(w, "global_epoch_end")),
        u(snap, "epoch_lag"),
        snap.get("min_pinned_epoch")
            .and_then(JsonValue::as_u64)
            .map_or_else(|| "-".to_string(), |e| e.to_string()),
        pick(
            wm.and_then(|w| w.get("consistent")),
            "consistent",
            "INCONSISTENT"
        ),
    );
    for c in arr(snap, "collections") {
        let ctx = u(c, "context_id");
        let occ = num(c, "occupancy");
        let compacting = arr(c, "block_detail")
            .iter()
            .filter(|b| is_true(b.get("compacting")))
            .count();
        println!(
            "    ctx#{ctx}: {} blocks ({compacting} compacting, {} groups) occ {:5.1}% {} \
             live {} limbo {} holes {}",
            u(c, "blocks"),
            u(c, "groups"),
            occ * 100.0,
            bar(occ, 20),
            u(c, "valid_slots"),
            u(c, "limbo_slots"),
            u(c, "hole_slots"),
        );
        println!(
            "           live {:.2} MiB  dead {:.2} MiB  holes {:.2} MiB  \
             footprint {:.2} MiB  incarnation churn {}",
            mib(u(c, "live_bytes")),
            mib(u(c, "dead_bytes")),
            mib(u(c, "hole_bytes")),
            mib(u(c, "footprint_bytes")),
            u(c, "incarnation_churn"),
        );
        if u(c, "spilled_blocks") > 0 {
            println!(
                "           spilled {} blocks / {} objects (resident {} blocks)",
                u(c, "spilled_blocks"),
                u(c, "spilled_objects"),
                u(c, "blocks"),
            );
        }
        let used = u(c, "budget_used_bytes");
        let budget = c.get("budget_bytes").and_then(JsonValue::as_u64);
        println!(
            "    tenants: ctx#{ctx} budget {}  used {:.2} MiB {}",
            budget.map_or_else(|| "unlimited".to_string(), |b| format!("{:.2} MiB", mib(b))),
            mib(used),
            budget.map_or_else(String::new, |b| bar(used as f64 / b.max(1) as f64, 20)),
        );
    }
    if let Some(ind) = snap.get("indirection") {
        println!(
            "    indirection: live {}/{} ({:.1}%)  quarantined {}  deferred {}  refills {}",
            u(ind, "live_entries"),
            u(ind, "capacity"),
            num(ind, "load_factor") * 100.0,
            u(ind, "quarantined_entries"),
            u(ind, "deferred_entries"),
            u(ind, "entry_refills"),
        );
    }
    if let Some(a) = snap.get("alloc") {
        println!(
            "    alloc: budgeted {}  cached {}  recycled {}  remote {} (drained {})",
            u(a, "budgeted_blocks"),
            u(a, "cached_blocks"),
            u(a, "blocks_recycled"),
            u(a, "remote_frees"),
            u(a, "remote_frees_drained"),
        );
    }
    println!(
        "    pin hold ns:         {}",
        summary(snap.get("pin_hold_ns"))
    );
}

/// One shard's compaction timings and coordinator line.
fn render_maint(m: &JsonValue) {
    let shard = u(m, "shard");
    for key in ["compaction_pass_ns", "compaction_pause_ns"] {
        let label = key.trim_end_matches("_ns").replace('_', " ");
        println!("  shard {shard} {label:<16} ns: {}", summary(m.get(key)));
    }
    let last = m
        .get("last_pass")
        .and_then(|l| Some((l, l.get("outcome")?.as_str()?)))
        .map_or_else(
            || "-".to_string(),
            |(l, outcome)| {
                format!(
                    "ctx#{} {outcome} moved {} bailed {}",
                    u(l, "context_id"),
                    u(l, "moved"),
                    u(l, "bailed")
                )
            },
        );
    println!(
        "  shard {shard} maint: active {} | planned {} done {} deferred {} \
         retried {} cancelled {} | slo {} | last {last}",
        u(m, "passes_active"),
        u(m, "passes_planned"),
        u(m, "passes_completed"),
        u(m, "passes_deferred"),
        u(m, "passes_retried"),
        u(m, "passes_cancelled"),
        pick(m.get("slo_breached"), "BREACHED", "ok"),
    );
}

/// Renders one `smc-scrape/v1` document as a dashboard frame.
fn render(tick: u64, addr: &str, doc: &JsonValue) {
    println!("smc-top tick {tick} — {addr}");
    let stats = doc.get("stats");
    for s in stats.map_or(&[][..], |s| arr(s, "shards")) {
        println!(
            "  shard {}: {} requests  pins {}  blocks scanned {}  morsels {}",
            u(s, "shard"),
            u(s, "requests"),
            u(s, "pins_taken"),
            u(s, "blocks_scanned"),
            u(s, "morsels_dispatched"),
        );
    }
    for t in stats.map_or(&[][..], |s| arr(s, "tenants")) {
        let budget = t
            .get("budget_bytes")
            .and_then(JsonValue::as_u64)
            .filter(|&b| b != u64::MAX)
            .map_or_else(|| "unlimited".to_string(), |b| format!("{:.2} MiB", mib(b)));
        println!(
            "  tenant {}: budget {budget}  used {:.2} MiB  live {}  over-budget {}",
            u(t, "tenant"),
            mib(u(t, "used_bytes")),
            u(t, "live_objects"),
            u(t, "over_budget_errors"),
        );
    }
    if let Some(attr) = doc.get("attribution") {
        let threshold = u(attr, "threshold_ns");
        for class in ["ingest", "query"] {
            let Some(c) = attr.get(class) else { continue };
            // One "<stage> p99 N ns" per stage the server attributes.
            let stages: String = smc_serve::attr::STAGES
                .iter()
                .map(|key| {
                    let label = key.trim_end_matches("_ns").replace('_', "-");
                    format!(
                        "  {label} p99 {} ns",
                        c.get(key).map_or(0, |h| u(h, "p99_ns"))
                    )
                })
                .collect();
            println!(
                "  slow {class} (> {threshold} ns): {}  total p99 {} ns{stages}  \
                 |  spill {}  rungs {}  epoch {}  maint-overlap {}",
                u(c, "slow_requests"),
                c.get("total_ns").map_or(0, |h| u(h, "p99_ns")),
                u(c, "spill_faults"),
                u(c, "budget_rungs"),
                u(c, "epoch_stalls"),
                u(c, "maint_overlaps"),
            );
        }
    }
    match doc.get("tracer") {
        Some(t) if is_true(t.get("enabled")) => {
            println!("  tracer: enabled, {} events dropped", u(t, "dropped"));
        }
        // A disabled tracer reports as such — zeros would read as a
        // drop-free recording that never happened.
        _ => println!("  tracer: disabled on server (a flight dump would be empty)"),
    }
    if is_true(doc.get("heap_elided")) {
        println!("  heap: elided (the snapshots would not fit in one wire frame)");
    }
    for h in arr(doc, "heap") {
        if let Some(snap) = h.get("snapshot") {
            render_heap(u(h, "shard"), snap);
        }
    }
    for m in arr(doc, "maint") {
        render_maint(m);
    }
    println!();
}

/// Polls `addr`'s `SCRAPE` op until interrupted (once with `once`).
fn run(addr: &str, once: bool, json: bool) -> i32 {
    let mut tick = 0u64;
    while !interrupted() {
        tick += 1;
        let doc = Client::connect(addr)
            .map_err(ClientError::Io)
            .and_then(|mut c| {
                c.set_timeout(Some(Duration::from_secs(10)))?;
                c.scrape()
            });
        match doc {
            Ok(doc) if json => println!("{}", doc.to_json()),
            Ok(doc) => render(tick, addr, &doc),
            Err(e) => {
                eprintln!("smc-top: scrape of {addr} failed: {e}");
                return 1;
            }
        }
        if once {
            break;
        }
        std::thread::sleep(REFRESH);
    }
    0
}

/// `--check-trace FILE`, exiting as the module docs say.
fn check_trace(path: &str, min_flow: usize) -> i32 {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string());
    let verdict = text
        .and_then(|text| JsonValue::parse(&text))
        .map(|doc| smc_obs::chrome::validate(&doc).and_then(|shape| shape.require(min_flow)));
    let (code, outcome) = match verdict {
        Ok(Ok(shape)) => (0, format!("passes: {shape:?}")),
        Ok(Err(e)) => (1, format!("FAILED: {e}")),
        Err(e) => (2, format!("cannot be read: {e}")),
    };
    eprintln!("smc-top: {path} {outcome}");
    code
}

fn main() {
    if let Some(path) = arg_string("--check-trace") {
        std::process::exit(check_trace(&path, arg_usize("--require-request-flow", 0)));
    }
    let Some(addr) = arg_string("--addr") else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    install_signal_handler();
    std::process::exit(run(&addr, arg_flag("--once"), arg_flag("--json")));
}
