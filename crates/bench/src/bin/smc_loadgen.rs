//! `smc-loadgen` — closed-loop load harness for the SMC server (Figure 16,
//! this repo's addition).
//!
//! A wire client of a running `smc-serve` (`--addr`, default
//! `127.0.0.1:7878`, the server's own default). It issues one `SCRAPE`
//! first and reads the tenant and shard counts from its `stats` section,
//! so a run always matches the server it drives; a failed scrape exits 1.
//! Then `--connections` closed-loop clients drive a fixed aggregate request
//! rate: each paces itself to `rate / connections` requests per second,
//! issues one request at a time, and records the service latency into a
//! per-op-class histogram (`ingest` = upsert/delete, `query` = count/sum).
//! Lateness against the pacing schedule is tracked separately, so a
//! saturated server shows up as a `saturation_free` check failure rather
//! than silently stretching the schedule. Over-budget errors are counted,
//! not failed: a clean wire error under budget pressure is exactly the
//! contract under test.
//!
//! Checks recorded in `BENCH_fig16.json`, any failure of which is a
//! non-zero exit — the exit code is the gate:
//! `slo_p999_ingest` / `slo_p999_query` (p99.9 service latency within
//! `--slo-ingest-us` / `--slo-query-us`), `saturation_free` (≤10% of
//! requests started late), `no_internal_errors`, `shard_requests_nonzero`
//! (every shard served work), `no_dropped_tenants` (every targeted tenant
//! kept answering), `attribution_scraped` (the scraped breakdown is whole
//! and counts the requests it describes), and
//! `ingest_ring_wait_p50_below_exec_p50` — recorded as *unmeasured*
//! (`"passed": null`) against a non-loopback address (the server is on
//! another host) or on a host with fewer hardware threads than the run
//! has threads. The drain is `smc-serve`'s to verify: its SIGTERM exit
//! code is that gate.
//!
//! `--trace-every N` attaches a fresh `RequestId` to every Nth request per
//! connection — the server tags its conn/ring/shard/exec spans with the
//! id, so its Chrome trace renders per-request flow across threads. After
//! the run a second `SCRAPE` supplies the shard and tenant panels and the
//! server's attribution histograms (every request's, when the server runs
//! with `--slow-us 0`), all folded into `BENCH_fig16.json`.
//!
//! ```text
//! smc-loadgen [--addr HOST:PORT] [--duration 5s] [--rate N]
//!             [--connections N] [--query-pct P] [--keys N] [--batch N]
//!             [--seed N] [--slo-ingest-us N] [--slo-query-us N]
//!             [--trace-every N]
//! ```

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use smc_bench::{
    arg_parsed, arg_u64, arg_usize, csv, finish, init_tracing, install_signal_handler, interrupted,
    JsonValue, Report,
};
use smc_obs::{Histogram, RequestId};
use smc_serve::wire::ErrorCode;
use smc_serve::{Client, ClientError};
use smc_util::Pcg32;

/// Parses `--duration` values like `5s`, `750ms`, or a bare seconds count.
fn parse_duration(s: &str) -> Option<Duration> {
    if let Some(ms) = s.strip_suffix("ms") {
        return ms
            .parse::<f64>()
            .ok()
            .map(Duration::from_secs_f64)
            .map(|d| d / 1000);
    }
    let secs = s.strip_suffix('s').unwrap_or(s);
    secs.parse::<f64>().ok().map(Duration::from_secs_f64)
}

/// One `SCRAPE` of the server at `addr`.
fn scrape(addr: SocketAddr) -> Result<JsonValue, ClientError> {
    let mut client = Client::connect(addr)?;
    client.set_timeout(Some(Duration::from_secs(30)))?;
    client.scrape()
}

/// The rows of a scrape's `stats.<key>` array, empty when absent.
fn stats_rows<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    let rows = doc.get("stats").and_then(|s| s.get(key));
    rows.and_then(JsonValue::as_arr).unwrap_or(&[])
}

/// The integer at `key` of one stats row, 0 when absent.
fn field(row: &JsonValue, key: &str) -> u64 {
    row.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

/// What one connection worker brings home.
struct ConnResult {
    tenant: u16,
    completed: u64,
    late: u64,
    failed: u64,
    over_budget: u64,
    tenant_ok: u64,
}

struct Workload {
    conn: u64,
    tenant: u16,
    interval: Duration,
    duration: Duration,
    query_pct: usize,
    keys: u64,
    batch: usize,
    seed: u64,
    trace_every: usize,
}

/// One closed-loop connection: pace, issue, record, repeat.
fn run_conn(
    addr: SocketAddr,
    w: Workload,
    ingest: Arc<Histogram>,
    query: Arc<Histogram>,
) -> ConnResult {
    let mut out = ConnResult {
        tenant: w.tenant,
        completed: 0,
        late: 0,
        failed: 0,
        over_budget: 0,
        tenant_ok: 0,
    };
    let Ok(mut client) = Client::connect(addr) else {
        out.failed = 1;
        return out;
    };
    let _ = client.set_timeout(Some(Duration::from_secs(30)));
    let mut rng = Pcg32::seed_from_u64(w.seed);
    let mut issued = 0u64;
    let start = Instant::now();
    let end = start + w.duration;
    let mut next = start;
    loop {
        let now = Instant::now();
        if now >= end || interrupted() {
            break;
        }
        if now < next {
            std::thread::sleep(next - now);
        } else if now > next + w.interval {
            out.late += 1;
        }
        if w.trace_every > 0 && issued % w.trace_every as u64 == 0 {
            // Unique nonzero id: connection index in the high bits, a
            // per-connection sequence in the low ones.
            client.trace_next(RequestId::new(((w.conn + 1) << 40) | (issued + 1)));
        }
        issued += 1;
        let is_query = rng.gen_range(0..100usize) < w.query_pct;
        let t0 = Instant::now();
        let result = if is_query {
            let lo = rng.gen_range(0u64..900);
            let hi = lo + rng.gen_range(1u64..101);
            if rng.gen_bool(0.5) {
                client.count(w.tenant, lo, hi).map(|_| ())
            } else {
                client.sum(w.tenant, lo, hi).map(|_| ())
            }
        } else if rng.gen_bool(0.8) {
            let rows: Vec<(u64, u64)> = (0..w.batch)
                .map(|_| (rng.gen_range(0..w.keys), rng.gen_range(0u64..1000)))
                .collect();
            client.upsert(w.tenant, rows).map(|_| ())
        } else {
            let keys: Vec<u64> = (0..w.batch / 4 + 1)
                .map(|_| rng.gen_range(0..w.keys))
                .collect();
            client.delete(w.tenant, keys).map(|_| ())
        };
        let elapsed = t0.elapsed();
        if is_query {
            query.record_duration(elapsed);
        } else {
            ingest.record_duration(elapsed);
        }
        match result {
            Ok(()) => {
                out.completed += 1;
                out.tenant_ok += 1;
            }
            Err(ClientError::Server(ErrorCode::TenantOverBudget, _)) => {
                // The contract under test: a clean wire error, not a crash.
                out.completed += 1;
                out.over_budget += 1;
            }
            Err(_) => out.failed += 1,
        }
        next += w.interval;
        // After a long stall, resync instead of bursting to catch up.
        if Instant::now() > next + w.interval * 8 {
            next = Instant::now();
        }
    }
    out
}

fn main() {
    init_tracing();
    install_signal_handler();

    let addr = arg_parsed("--addr", ([127, 0, 0, 1], 7878).into(), |v| v.parse().ok());
    let duration = arg_parsed("--duration", Duration::from_secs(5), parse_duration);
    let rate = arg_usize("--rate", 2000).max(1);
    let connections = arg_usize("--connections", 4).max(1);
    let query_pct = arg_usize("--query-pct", 40).min(100);
    let keys = arg_usize("--keys", 50_000).max(1) as u64;
    let batch = arg_usize("--batch", 64).max(1);
    let seed = arg_u64("--seed", 42);
    let slo_ingest_us = arg_u64("--slo-ingest-us", 50_000);
    let slo_query_us = arg_u64("--slo-query-us", 100_000);
    let trace_every = arg_usize("--trace-every", 0);

    // The server knows its own layout: read it rather than take it as flags.
    let layout = scrape(addr).unwrap_or_else(|e| {
        eprintln!("smc-loadgen: scrape of {addr} failed: {e}");
        std::process::exit(1)
    });
    let shards = stats_rows(&layout, "shards").len();
    let ntenants = stats_rows(&layout, "tenants").len();
    if shards == 0 || ntenants == 0 {
        eprintln!("smc-loadgen: scrape of {addr} lists {shards} shards and {ntenants} tenants");
        std::process::exit(1)
    }

    println!(
        "smc-loadgen: {} conns x {:.0} req/s against {} for {:?}",
        connections,
        rate as f64 / connections as f64,
        addr,
        duration
    );

    let ingest_hist = Arc::new(Histogram::new());
    let query_hist = Arc::new(Histogram::new());
    let interval = Duration::from_secs_f64(connections as f64 / rate as f64);
    let t0 = Instant::now();
    let joins: Vec<_> = (0..connections)
        .map(|c| {
            let w = Workload {
                conn: c as u64,
                tenant: (c % ntenants) as u16,
                interval,
                duration,
                query_pct,
                keys,
                batch,
                seed: seed.wrapping_add(c as u64),
                trace_every,
            };
            let (ih, qh) = (ingest_hist.clone(), query_hist.clone());
            std::thread::spawn(move || run_conn(addr, w, ih, qh))
        })
        .collect();
    let results: Vec<ConnResult> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    let wall = t0.elapsed();

    // The server's counters and tail-latency attribution after the run.
    let scrape = scrape(addr).ok();

    let mut report = Report::new("fig16", "Closed-loop multi-tenant server load");
    report.param("addr", addr.to_string());
    report.param("rate", rate as u64);
    report.param("connections", connections as u64);
    report.param("duration_ms", duration.as_millis() as u64);
    report.param("shards", shards as u64);
    report.param("tenants", ntenants as u64);
    report.param("query_pct", query_pct as u64);
    report.param("seed", seed);
    report.param("trace_every", trace_every as u64);
    if interrupted() {
        report.param("interrupted", true);
    }

    let completed: u64 = results.iter().map(|r| r.completed).sum();
    let late: u64 = results.iter().map(|r| r.late).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let over_budget: u64 = results.iter().map(|r| r.over_budget).sum();
    let achieved = completed as f64 / wall.as_secs_f64();

    // Per-op-class latency series: the figure's headline numbers.
    let lat = report.series("latency_us", &["op_class", "p50_us", "p99_us", "p999_us"]);
    csv(&["op_class", "p50_us", "p99_us", "p999_us"]);
    for (name, h) in [("ingest", &ingest_hist), ("query", &query_hist)] {
        let (p50, p99, p999) = (
            h.percentile(50.0) / 1_000,
            h.percentile(99.0) / 1_000,
            h.percentile(99.9) / 1_000,
        );
        csv(&[name, &p50.to_string(), &p99.to_string(), &p999.to_string()]);
        report.push_row(
            lat,
            vec![
                JsonValue::Str(name.to_string()),
                p50.into(),
                p99.into(),
                p999.into(),
            ],
        );
    }
    report.histogram("ingest", &ingest_hist);
    report.histogram("query", &query_hist);

    report.counter("requests_completed", completed);
    report.counter("requests_late", late);
    report.counter("requests_failed", failed);
    report.counter("over_budget_errors", over_budget);
    report.counter("achieved_rate", achieved as u64);

    // Shard and tenant panels from the scrape's `stats` section, plus the
    // reader-side memory counters summed across the per-shard runtimes.
    let shard_series = report.series("shard_requests", &["shard", "requests"]);
    let tenant_series = report.series(
        "tenant_stats",
        &[
            "tenant",
            "budget_bytes",
            "used_bytes",
            "live_objects",
            "over_budget_errors",
        ],
    );
    let (shard_rows, tenant_rows) = match &scrape {
        Some(doc) => (stats_rows(doc, "shards"), stats_rows(doc, "tenants")),
        None => (&[][..], &[][..]),
    };
    let shards_nonzero =
        !shard_rows.is_empty() && shard_rows.iter().all(|s| field(s, "requests") > 0);
    for (i, s) in shard_rows.iter().enumerate() {
        report.push_row(
            shard_series,
            vec![(i as u64).into(), field(s, "requests").into()],
        );
    }
    for counter in ["pins_taken", "blocks_scanned", "morsels_dispatched"] {
        report.counter(counter, shard_rows.iter().map(|s| field(s, counter)).sum());
    }
    for t in tenant_rows {
        let budget = match field(t, "budget_bytes") {
            u64::MAX => JsonValue::Str("unlimited".to_string()),
            b => b.into(),
        };
        let f = |k: &str| JsonValue::from(field(t, k));
        let row = vec![
            f("tenant"),
            budget,
            f("used_bytes"),
            f("live_objects"),
            f("over_budget_errors"),
        ];
        report.push_row(tenant_series, row);
    }

    // Tail-latency attribution, scraped from the server: per-op-class
    // breakdown histograms (total, then one per stage) in the same summary
    // shape as this harness's own histograms, plus the pressure counters
    // (spill faults, concurrent maintenance overlaps) attributed to
    // over-threshold requests.
    let mut attribution_ok = false;
    if let Some(attr) = scrape.as_ref().and_then(|d| d.get("attribution")) {
        if let Some(t) = attr.get("threshold_ns").and_then(JsonValue::as_u64) {
            report.param("slow_threshold_ns", t);
        }
        let attr_series = report.series(
            "attribution",
            &[
                "op_class",
                "slow_requests",
                "spill_faults",
                "maint_overlaps",
            ],
        );
        attribution_ok = true;
        for class in ["ingest", "query"] {
            let Some(c) = attr.get(class) else {
                attribution_ok = false;
                continue;
            };
            for part in std::iter::once("total_ns").chain(smc_serve::attr::STAGES) {
                match c.get(part) {
                    Some(h) => report.histogram_json(format!("attr_{class}_{part}"), h.clone()),
                    None => attribution_ok = false,
                }
            }
            let g = |k: &str| c.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
            // The breakdown must describe the requests it counted: one
            // total-histogram sample per slow request.
            let sampled = c.get("total_ns").and_then(|h| h.get("count"));
            attribution_ok &= sampled.and_then(JsonValue::as_u64) == Some(g("slow_requests"));
            report.push_row(
                attr_series,
                vec![
                    JsonValue::Str(class.to_string()),
                    g("slow_requests").into(),
                    g("spill_faults").into(),
                    g("maint_overlaps").into(),
                ],
            );
        }
        let slow_total = ["ingest", "query"]
            .iter()
            .filter_map(|c| attr.get(c))
            .filter_map(|c| c.get("slow_requests").and_then(JsonValue::as_u64))
            .sum::<u64>();
        report.counter("slow_requests", slow_total);
    }
    report.check(
        "attribution_scraped",
        attribution_ok,
        if attribution_ok {
            "SCRAPE returned per-op-class attribution histograms, one total sample per slow request"
        } else {
            "SCRAPE attribution section missing, incomplete, or counting other requests than it sampled"
        },
    );

    // ROADMAP's success test for the request path: a median ingest request
    // spends less time waiting in its ring than executing. The comparison
    // needs a core for every thread it times — with fewer, "ring wait" is
    // the job's turn on the run queue, whatever the hand-off costs — so a
    // smaller host, or a server on another host whose cores the harness
    // cannot count, reports the two medians as unmeasured instead of
    // passing or failing on them.
    let ingest_p50 = |part: &str| {
        let class = scrape.as_ref()?.get("attribution")?.get("ingest")?;
        class.get(part)?.get("p50_ns")?.as_u64()
    };
    let (ring_p50, exec_p50) = (ingest_p50("ring_wait_ns"), ingest_p50("exec_ns"));
    let ns = |v: Option<u64>| v.map_or("n/a".to_string(), |n| n.to_string());
    let medians = format!(
        "ingest ring-wait p50 {} ns vs exec p50 {} ns",
        ns(ring_p50),
        ns(exec_p50)
    );
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run_threads = 2 * connections + shards; // loadgen, connection, shard
    report.param("hw_threads", hw_threads as u64);
    let exec_bound = "ingest_ring_wait_p50_below_exec_p50";
    if !addr.ip().is_loopback() {
        report.unmeasured(exec_bound, format!("server on another host: {medians}"));
    } else if hw_threads < run_threads {
        let why = format!("{run_threads} threads on {hw_threads} hardware threads");
        report.unmeasured(exec_bound, format!("{why}: {medians}"));
    } else {
        let below = matches!((ring_p50, exec_p50), (Some(ring), Some(exec)) if ring < exec);
        report.check(exec_bound, below, medians);
    }

    let ip999 = ingest_hist.percentile(99.9) / 1_000;
    let qp999 = query_hist.percentile(99.9) / 1_000;
    report.check(
        "slo_p999_ingest",
        ip999 <= slo_ingest_us && ingest_hist.count() > 0,
        format!("ingest p99.9 {ip999}us vs SLO {slo_ingest_us}us"),
    );
    report.check(
        "slo_p999_query",
        qp999 <= slo_query_us && query_hist.count() > 0,
        format!("query p99.9 {qp999}us vs SLO {slo_query_us}us"),
    );
    report.check(
        "saturation_free",
        completed > 0 && late * 10 <= completed,
        format!(
            "{late} of {completed} requests started late (achieved {achieved:.0}/s of {rate}/s)"
        ),
    );
    report.check(
        "no_internal_errors",
        failed == 0,
        format!("{failed} requests failed outside the budget contract"),
    );
    report.check(
        "shard_requests_nonzero",
        shards_nonzero,
        "every shard must have served requests".to_string(),
    );
    // Every targeted tenant kept answering (over-budget replies count: the
    // tenant was *answered*, not dropped).
    let mut targeted_ok = vec![0u64; ntenants];
    for r in &results {
        targeted_ok[r.tenant as usize] += r.tenant_ok + r.over_budget;
    }
    let all_tenants_alive = targeted_ok
        .iter()
        .take(connections.min(ntenants))
        .all(|&n| n > 0)
        && (scrape.is_none() || tenant_rows.len() == ntenants);
    report.check(
        "no_dropped_tenants",
        all_tenants_alive,
        format!("per-tenant served counts: {targeted_ok:?}"),
    );

    finish(&mut report);
}
