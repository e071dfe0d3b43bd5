//! `smc-top` — the live memory observatory dashboard.
//!
//! Runs an embedded churn workload (worker threads doing add/remove/read
//! against one [`Smc`], with the `smc-maint` coordinator owning compaction
//! in the background) and periodically renders a [`HeapSnapshot`] as a
//! text dashboard: per-block occupancy bars, limbo/hole fragmentation,
//! incarnation churn, indirection-table load, epoch lag, pin hold-time and
//! compaction percentiles, the coordinator's pass counters and SLO state,
//! and the tracer's per-ring drop counters. The workload is the subject;
//! the point is watching the observatory instruments move while writers
//! run.
//!
//! ```text
//! smc-top [--threads N] [--objects N] [--refresh-ms N] [--ticks N]
//!         [--budget-mb N] [--once] [--json] [--addr HOST:PORT]
//! smc-top --check-trace FILE [--require-request-flow N]
//! ```
//!
//! `--check-trace` gates a Chrome trace another process wrote (`smc-serve`'s
//! drain trace or flight dump) by [`smc_obs::chrome::validate`] and
//! [`TraceShape::require`](smc_obs::chrome::TraceShape::require): exit 0 =
//! pass, 1 = violation or empty timeline, 2 = unreadable file or not JSON.
//!
//! `--addr HOST:PORT` switches from the embedded workload to **live
//! scrape mode**: each tick issues the `SCRAPE` wire op against a running
//! external `smc-serve` and renders its observability document —
//! per-shard request counters, tenant budgets, tail-latency attribution,
//! tracer and flight-recorder health. `--json` prints the raw
//! `smc-scrape/v1` documents instead.
//!
//! `--budget-mb N` caps the demo collection's context at N MiB (the
//! per-tenant budget machinery the serve layer rides); the `tenants` panel
//! line — and the `tenants` array in `--json` — then shows budget vs used
//! bytes live.
//!
//! `--json` prints each snapshot as one `smc-heap-snapshot/v1` JSON
//! document (extended with tracer, workload and coordinator figures)
//! instead of the dashboard; `--once` renders a single snapshot and exits
//! (CI runs `smc-top --json --once`). `SMC_TRACE_OUT` additionally writes
//! a Chrome trace of the run on exit, like every bench binary.
//!
//! ctrl-c (or SIGTERM) exits cleanly: the coordinator is quiesced, the
//! heap validated, and the trace written — same path as a normal exit.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smc::{ContextConfig, Ref, Smc, Tabular};
use smc_bench::{
    arg_flag, arg_string, arg_usize, init_tracing, install_signal_handler, interrupted, trace_lost,
};
use smc_maint::{Coordinator, MaintConfig, MaintPolicy, MaintSnapshot};
use smc_memory::{HeapSnapshot, Runtime};
use smc_obs::{Histogram, JsonValue, Summary};
use smc_util::Pcg32;

#[derive(Clone, Copy)]
struct Row {
    #[allow(dead_code)]
    key: u64,
    _payload: [u64; 14],
}
unsafe impl Tabular for Row {}

/// Per-op latency of every churn worker (recording is lock-free).
static WORKER_OPS: Histogram = Histogram::new();

/// One churn worker: keeps a pool of live refs, alternates inserts,
/// removes and reads, and records per-op latency into [`WORKER_OPS`].
fn worker(c: Arc<Smc<Row>>, seed: u64, stop: Arc<AtomicBool>, keys: Arc<AtomicU64>) {
    let mut rng = Pcg32::seed_from_u64(seed);
    let mut pool: Vec<Ref<Row>> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let t0 = Instant::now();
        match rng.gen_range(0u32..100) {
            0..=39 => {
                let key = keys.fetch_add(1, Ordering::Relaxed);
                if let Ok(r) = c.try_add(Row {
                    key,
                    _payload: [key; 14],
                }) {
                    pool.push(r);
                }
            }
            40..=69 => {
                if !pool.is_empty() {
                    let i = rng.gen_range(0..pool.len());
                    let r = pool.swap_remove(i);
                    let _ = c.try_remove(r);
                }
            }
            _ => {
                if !pool.is_empty() {
                    let r = pool[rng.gen_range(0..pool.len())];
                    if let Ok(guard) = c.runtime().try_pin() {
                        std::hint::black_box(c.read(r, &guard));
                    }
                }
            }
        }
        WORKER_OPS.record_duration(t0.elapsed());
    }
    // Shed the pool so repeated runs do not grow without bound.
    for r in pool {
        let _ = c.try_remove(r);
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

fn fmt_summary(s: &Summary) -> String {
    format!(
        "p50 {} p95 {} p99 {} max {} (n={})",
        s.p50, s.p95, s.p99, s.max, s.count
    )
}

/// The coordinator panel: one line of queue/pass counters plus the SLO
/// state and the last finished pass.
fn render_maint(m: &MaintSnapshot) {
    let last = m.last_pass.map_or_else(
        || "-".to_string(),
        |lp| {
            format!(
                "ctx#{} {} moved {} bailed {}",
                lp.context_id,
                lp.outcome.as_str(),
                lp.moved,
                lp.bailed
            )
        },
    );
    println!(
        "  maint: queue {} active {} | planned {} done {} deferred {} \
         throttled {} retried {} cancelled {} watchdog {} | slo {} | last {}",
        m.queue_depth,
        m.passes_active,
        m.passes_planned,
        m.passes_completed,
        m.passes_deferred,
        m.passes_throttled,
        m.passes_retried,
        m.passes_cancelled,
        m.watchdog_cancels,
        if m.slo_breached { "BREACHED" } else { "ok" },
        last,
    );
}

/// Renders one dashboard frame to stdout.
fn render(tick: u64, snap: &HeapSnapshot, rt: &Runtime, live: u64, m: &MaintSnapshot) {
    println!(
        "smc-top tick {tick} — epoch {} (lag {}, min pinned {}) — watermark {}",
        snap.watermark.global_epoch_end,
        snap.epoch_lag,
        snap.min_pinned_epoch
            .map_or_else(|| "-".to_string(), |e| e.to_string()),
        if snap.watermark.consistent() {
            "consistent"
        } else {
            "INCONSISTENT"
        }
    );
    for c in &snap.collections {
        let compacting = c.blocks.iter().filter(|b| b.compacting).count();
        println!(
            "  ctx#{}: {} blocks ({} compacting, {} groups) occ {:5.1}% {} \
             live {} limbo {} holes {}",
            c.context_id,
            c.block_count(),
            compacting,
            c.groups,
            c.occupancy() * 100.0,
            bar(c.occupancy(), 20),
            c.valid_slots,
            c.limbo_slots,
            c.hole_slots,
        );
        println!(
            "         live {:.2} MiB  dead {:.2} MiB  holes {:.2} MiB  \
             footprint {:.2} MiB  incarnation churn {}",
            mib(c.live_bytes()),
            mib(c.dead_bytes()),
            mib(c.hole_bytes()),
            mib(c.footprint_bytes()),
            c.incarnation_churn,
        );
        if c.spilled_blocks > 0 {
            println!(
                "         spilled {} blocks / {} objects (resident {} blocks)",
                c.spilled_blocks,
                c.spilled_objects,
                c.block_count(),
            );
        }
    }
    for c in &snap.collections {
        let budget = c
            .budget_bytes
            .map_or_else(|| "unlimited".to_string(), |b| format!("{:.2} MiB", mib(b)));
        let used = c.footprint_bytes();
        let frac = c
            .budget_bytes
            .map(|b| used as f64 / b.max(1) as f64)
            .unwrap_or(0.0);
        println!(
            "  tenants: ctx#{} budget {budget}  used {:.2} MiB {}",
            c.context_id,
            mib(used),
            if c.budget_bytes.is_some() {
                bar(frac, 20)
            } else {
                String::new()
            },
        );
    }
    println!(
        "  indirection: live {}/{} ({:.1}%)  quarantined {}  deferred {}  refills {}",
        snap.indirection.live_entries,
        snap.indirection.capacity,
        snap.indirection.load_factor() * 100.0,
        snap.indirection.quarantined_entries,
        snap.indirection.deferred_entries,
        snap.indirection.entry_refills,
    );
    let a = &snap.alloc;
    println!(
        "  alloc: budgeted {}  cached {}  recycled {}  remote {} (drained {})",
        a.budgeted_blocks,
        a.cached_blocks,
        a.blocks_recycled,
        a.remote_frees,
        a.remote_frees_drained,
    );
    println!("  pin hold ns:         {}", fmt_summary(&snap.pin_hold));
    println!(
        "  compaction pass ns:  {}",
        rt.stats.compaction_pass_ns.summary()
    );
    println!(
        "  compaction pause ns: {}",
        rt.stats.compaction_pause_ns.summary()
    );
    let ops = WORKER_OPS.summary();
    println!("  worker op ns:        {}", fmt_summary(&ops));
    render_maint(m);
    if smc_obs::trace::is_enabled() {
        let dropped = smc_obs::trace::dropped();
        let per_thread = smc_obs::trace::dropped_by_thread()
            .iter()
            .map(|(t, d)| format!("ring {t}: {d}"))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "  tracer: {} events dropped{}  |  collection len {}",
            dropped,
            if per_thread.is_empty() {
                String::new()
            } else {
                format!(" ({per_thread})")
            },
            live,
        );
    } else {
        // Honest panel: zeros from a disabled tracer would read as "no
        // drops" when nothing was ever recorded.
        println!(
            "  tracer: disabled (set SMC_TRACE_OUT to record)  |  \
             collection len {live}",
        );
    }
    println!();
}

/// The coordinator figures for the `--json` document.
fn maint_json(m: &MaintSnapshot) -> JsonValue {
    let mut o = JsonValue::obj();
    o.set("queue_depth", m.queue_depth);
    o.set("passes_active", m.passes_active);
    o.set("passes_planned", m.passes_planned);
    o.set("passes_completed", m.passes_completed);
    o.set("passes_deferred", m.passes_deferred);
    o.set("passes_throttled", m.passes_throttled);
    o.set("passes_retried", m.passes_retried);
    o.set("passes_cancelled", m.passes_cancelled);
    o.set("watchdog_cancels", m.watchdog_cancels);
    o.set("slo_breached", m.slo_breached);
    if let Some(lp) = m.last_pass {
        let mut l = JsonValue::obj();
        l.set("context_id", lp.context_id);
        l.set("outcome", lp.outcome.as_str());
        l.set("moved", lp.moved);
        l.set("bailed", lp.bailed);
        o.set("last_pass", l);
    }
    o
}

/// The `--json` document: the heap snapshot extended with tracer,
/// workload and coordinator figures.
fn json_doc(
    tick: u64,
    snap: &HeapSnapshot,
    rt: &Runtime,
    live: u64,
    m: &MaintSnapshot,
) -> JsonValue {
    let mut doc = snap.to_json();
    doc.set("tick", tick);
    doc.set("collection_len", live);
    let mut tracer = JsonValue::obj();
    tracer.set("enabled", smc_obs::trace::is_enabled());
    tracer.set("dropped", smc_obs::trace::dropped());
    let per_thread = smc_obs::trace::dropped_by_thread()
        .into_iter()
        .map(|(t, d)| {
            let mut o = JsonValue::obj();
            o.set("thread", t);
            o.set("dropped", d);
            o
        })
        .collect();
    tracer.set("dropped_by_thread", JsonValue::Arr(per_thread));
    doc.set("tracer", tracer);
    let worker = WORKER_OPS.summary();
    let mut w = JsonValue::obj();
    w.set("count", worker.count);
    w.set("p50_ns", worker.p50);
    w.set("p95_ns", worker.p95);
    w.set("p99_ns", worker.p99);
    doc.set("worker_op_ns", w);
    let pass = rt.stats.compaction_pass_ns.summary();
    let mut p = JsonValue::obj();
    p.set("count", pass.count);
    p.set("p50_ns", pass.p50);
    p.set("p99_ns", pass.p99);
    doc.set("compaction_pass_ns", p);
    doc.set("maint", maint_json(m));
    // The tenants panel: per-context budget vs used bytes, the serve
    // layer's multi-tenant accounting surfaced through the observatory.
    let tenants = snap
        .collections
        .iter()
        .map(|c| {
            let mut t = JsonValue::obj();
            t.set("context_id", c.context_id);
            match c.budget_bytes {
                Some(b) => t.set("budget_bytes", b),
                None => t.set("budget_bytes", JsonValue::Null),
            }
            t.set("budget_used_bytes", c.footprint_bytes());
            t.set("spilled_blocks", c.spilled_blocks);
            t.set("spilled_objects", c.spilled_objects);
            t
        })
        .collect();
    doc.set("tenants", JsonValue::Arr(tenants));
    doc
}

/// Renders one `smc-scrape/v1` document as a dashboard frame.
fn render_scrape(tick: u64, doc: &JsonValue) {
    let u = |v: Option<&JsonValue>, k: &str| -> u64 {
        v.and_then(|o| o.get(k))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
    };
    println!("smc-top tick {tick} — live scrape");
    let stats = doc.get("stats");
    if let Some(shards) = stats
        .and_then(|s| s.get("shards"))
        .and_then(JsonValue::as_arr)
    {
        for s in shards {
            println!(
                "  shard {}: {} requests  pins {}  blocks scanned {}  morsels {}",
                u(Some(s), "shard"),
                u(Some(s), "requests"),
                u(Some(s), "pins_taken"),
                u(Some(s), "blocks_scanned"),
                u(Some(s), "morsels_dispatched"),
            );
        }
    }
    if let Some(tenants) = stats
        .and_then(|s| s.get("tenants"))
        .and_then(JsonValue::as_arr)
    {
        for t in tenants {
            let budget = t
                .get("budget_bytes")
                .and_then(JsonValue::as_u64)
                .filter(|&b| b != u64::MAX)
                .map_or_else(|| "unlimited".to_string(), |b| format!("{:.2} MiB", mib(b)));
            println!(
                "  tenant {}: budget {budget}  used {:.2} MiB  live {}  over-budget {}",
                u(Some(t), "tenant"),
                mib(u(Some(t), "used_bytes")),
                u(Some(t), "live_objects"),
                u(Some(t), "over_budget_errors"),
            );
        }
    }
    if let Some(attr) = doc.get("attribution") {
        let threshold = u(Some(attr), "threshold_ns");
        for class in ["ingest", "query"] {
            let Some(c) = attr.get(class) else { continue };
            // One "<stage> p99 N ns" per stage the server attributes.
            let stages: String = smc_serve::attr::STAGES
                .iter()
                .map(|key| {
                    let label = key.trim_end_matches("_ns").replace('_', "-");
                    format!("  {label} p99 {} ns", u(c.get(key), "p99_ns"))
                })
                .collect();
            println!(
                "  slow {class} (> {threshold} ns): {}  total p99 {} ns{stages}  \
                 |  spill {}  rungs {}  epoch {}  maint-overlap {}",
                u(Some(c), "slow_requests"),
                u(c.get("total_ns"), "p99_ns"),
                u(Some(c), "spill_faults"),
                u(Some(c), "budget_rungs"),
                u(Some(c), "epoch_stalls"),
                u(Some(c), "maint_overlaps"),
            );
        }
    }
    match doc.get("tracer") {
        Some(t) if t.get("enabled").and_then(JsonValue::as_bool) == Some(true) => {
            println!(
                "  tracer: enabled, {} events dropped",
                u(Some(t), "dropped")
            );
        }
        // A disabled tracer reports as such — zeros would read as a
        // drop-free recording that never happened.
        _ => println!("  tracer: disabled on server (start it with SMC_TRACE_OUT to record)"),
    }
    if let Some(f) = doc.get("flight") {
        let armed = f.get("enabled").and_then(JsonValue::as_bool) == Some(true);
        println!(
            "  flight: {}  capacity {}  overwritten {}",
            if armed { "armed" } else { "disarmed" },
            u(Some(f), "capacity"),
            u(Some(f), "dropped"),
        );
    }
    println!();
}

/// Live scrape mode: poll an external server's `SCRAPE` op instead of
/// running the embedded workload.
fn run_scrape(addr: &str, refresh_ms: usize, ticks: usize, json: bool) -> i32 {
    let mut tick = 0u64;
    while !interrupted() {
        tick += 1;
        let doc = smc_serve::Client::connect(addr)
            .map_err(smc_serve::ClientError::Io)
            .and_then(|mut c| {
                c.set_timeout(Some(Duration::from_secs(10)))?;
                c.scrape()
            });
        match doc {
            Ok(doc) if json => println!("{}", doc.to_json()),
            Ok(doc) => render_scrape(tick, &doc),
            Err(e) => {
                eprintln!("smc-top: scrape of {addr} failed: {e}");
                return 1;
            }
        }
        if ticks > 0 && tick >= ticks as u64 {
            break;
        }
        std::thread::sleep(Duration::from_millis(refresh_ms as u64));
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
    init_tracing();
    install_signal_handler();
    let threads = arg_usize("--threads", 2);
    let objects = arg_usize("--objects", 50_000);
    let refresh_ms = arg_usize("--refresh-ms", 500);
    let json = arg_flag("--json");
    let once = arg_flag("--once");
    let ticks = arg_usize("--ticks", if once { 1 } else { 0 });
    let budget_mb = arg_usize("--budget-mb", 0);

    if let Some(addr) = arg_string("--addr") {
        std::process::exit(run_scrape(&addr, refresh_ms, ticks, json));
    }

    let rt = Runtime::new();
    // Compaction-eager configuration so the dashboard has relocation and
    // fragmentation activity to show.
    let config = ContextConfig {
        reclamation_threshold: 1.1, // in-place reclamation off
        compaction_occupancy: 0.85,
        budget_bytes: (budget_mb > 0).then_some((budget_mb as u64) << 20),
        ..ContextConfig::default()
    };
    let c: Arc<Smc<Row>> = Arc::new(Smc::with_config(&rt, config));

    // The coordinator owns compaction: the dashboard loop never calls
    // `compact()` itself, it only reads the counters. A foreground scan
    // probe (below) feeds the SLO gauge so the back-pressure state on the
    // panel is live.
    let scan_gauge = Arc::new(Histogram::new());
    let coordinator = Coordinator::new(MaintConfig {
        gauge: Some(scan_gauge.clone()),
        p99_ceiling: Duration::from_millis(250),
    });
    c.register_maintenance(
        &coordinator,
        MaintPolicy {
            min_interval: Duration::from_millis((refresh_ms as u64 / 4).max(5)),
        },
    );

    let keys = Arc::new(AtomicU64::new(0));
    for i in 0..objects as u64 {
        let key = keys.fetch_add(1, Ordering::Relaxed);
        let _ = c.try_add(Row {
            key,
            _payload: [i; 14],
        });
    }

    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..threads)
        .map(|tid| {
            let c = c.clone();
            let stop = stop.clone();
            let keys = keys.clone();
            std::thread::spawn(move || worker(c, 0x5eed_u64 + tid as u64, stop, keys))
        })
        .collect();

    if !json {
        println!(
            "smc-top: {threads} churn workers over {objects} objects, \
             refresh {refresh_ms} ms (ctrl-c to quit)"
        );
    }
    let mut tick = 0u64;
    while !interrupted() {
        tick += 1;
        // Foreground scan probe: the latency the coordinator's SLO loop
        // watches is the one the dashboard itself experiences.
        let t0 = Instant::now();
        if let Ok(guard) = rt.try_pin() {
            let mut seen = 0u64;
            c.for_each(&guard, |_| seen += 1);
            std::hint::black_box(seen);
        }
        scan_gauge.record_duration(t0.elapsed());
        // Snapshot concurrently with the workers — the observatory's whole
        // claim. Relocation activity between frames is the coordinator's.
        let snap = c.heap_snapshot();
        let m = coordinator.snapshot();
        if json {
            println!("{}", json_doc(tick, &snap, &rt, c.len(), &m).to_json());
        } else {
            render(tick, &snap, &rt, c.len(), &m);
        }
        if ticks > 0 && tick >= ticks as u64 {
            break;
        }
        std::thread::sleep(Duration::from_millis(refresh_ms as u64));
    }

    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("worker panicked");
    }
    // Quiesce and sanity-check before exiting — also the ctrl-c path: the
    // coordinator drains its in-flight pass, a tidy pass sweeps what the
    // planner never saw, and the snapshot instruments must reconcile with
    // the structural validator once writers stop.
    coordinator.quiesce();
    if !json {
        render_maint(&coordinator.snapshot());
    }
    c.compact();
    c.release_retired();
    rt.drain_graveyard_blocking();
    let verify = c.verify().expect("validator failed after quiescence");
    let snap = c.heap_snapshot();
    assert_eq!(
        snap.totals().0,
        verify.valid_slots,
        "quiescent snapshot diverged from verify"
    );
    if trace_lost() {
        std::process::exit(1);
    }
}
