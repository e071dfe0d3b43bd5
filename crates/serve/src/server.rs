//! The TCP front: blocking acceptor, thread-per-connection framing, and
//! the scatter-gather router between connections and shards.
//!
//! A connection thread owns its socket, one `ShardLink` (request ring out,
//! reply ring back) per shard and the one `Waiter` every shard wakes it on.
//! Ingest batches are partitioned by key hash and fan out only to the
//! shards that own keys in the batch; `COUNT`/`SUM` scatter to every shard
//! and the connection thread merges the partial aggregates, gathering all
//! of a request's replies in one wait. The server
//! never shares mutable state across shards — the only cross-shard
//! structure is this routing layer, and it is per-connection.
//!
//! Shutdown runs in strict order: stop the acceptor, let connection threads
//! finish their in-flight request and exit (dropping their rings), then
//! stop each shard, which drains leftover jobs, quiesces its maintenance
//! coordinator, and verifies every tenant collection plus its runtime
//! ([`Server::shutdown`] returns the combined [`DrainReport`]).

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use smc::Runtime;
use smc_memory::inspect::HeapSnapshot;
use smc_memory::stats::MemoryStats;
use smc_obs::clock;
use smc_obs::trace::{self, RequestId, RequestScope};
use smc_obs::{flight, JsonValue};
use smc_util::waiter::Waiter;

use crate::attr::{summary_json, Attribution, OpClass, SlowBreakdown};
use crate::shard::{
    run_shard, shard_of, ShardConfig, ShardDrain, ShardJob, ShardLink, ShardOp, ShardReply,
    ShardShared, REPLY_TIMEOUT, RING_PATIENCE,
};
use crate::wire::{
    ErrorCode, FrameError, FrameReader, FrameWriter, Op, Request, Response, MAX_FRAME,
};

/// One tenant as configured at server start. Tenant ids on the wire are the
/// index of the tenant in [`ServerConfig::tenants`].
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Human-readable name (reports, error messages).
    pub name: String,
    /// Total byte budget across all shards, `None` for unlimited. Split
    /// evenly per shard and enforced by each shard's `MemoryContext`.
    pub budget_bytes: Option<u64>,
}

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Number of shards (one runtime + worker set + coordinator each).
    pub shards: usize,
    /// Scan workers per shard.
    pub workers_per_shard: usize,
    /// Tenants, in wire-id order.
    pub tenants: Vec<TenantConfig>,
    /// Persistence root, `None` to run purely in memory. When set, each
    /// shard recovers every tenant from
    /// `<dir>/shard-<i>/tenant-<id>/snapshot/` at start (starting empty
    /// when no snapshot exists yet), attaches a spill file so tenant
    /// budgets smaller than the dataset evict instead of rejecting, and
    /// writes a fresh snapshot of the verified state at drain.
    pub persist_dir: Option<PathBuf>,
    /// Requests completing at or over this threshold record a tail-latency
    /// breakdown into the per-op-class [`Attribution`] (the scrape
    /// document's `attribution` section). `Duration::ZERO` records every
    /// request.
    pub slow_request_threshold: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: 2,
            workers_per_shard: 2,
            tenants: vec![TenantConfig {
                name: "default".to_string(),
                budget_bytes: None,
            }],
            persist_dir: None,
            slow_request_threshold: Duration::from_millis(1),
        }
    }
}

/// Everything [`Server::shutdown`] learned while draining.
#[derive(Debug)]
pub struct DrainReport {
    /// Per-shard drain results, in shard order.
    pub shards: Vec<ShardDrain>,
}

impl DrainReport {
    /// True when every shard drained and verified clean.
    pub fn clean(&self) -> bool {
        self.shards.iter().all(|s| s.verify_errors.is_empty())
    }

    /// Total requests served across shards.
    pub fn requests(&self) -> u64 {
        self.shards.iter().map(|s| s.requests).sum()
    }

    /// Total tenant snapshots written at drain (0 without a persist dir).
    pub fn snapshots_written(&self) -> usize {
        self.shards.iter().map(|s| s.snapshots_written).sum()
    }

    /// All verification failures, across shards.
    pub fn verify_errors(&self) -> Vec<&str> {
        self.shards
            .iter()
            .flat_map(|s| s.verify_errors.iter().map(String::as_str))
            .collect()
    }
}

/// Per-shard counters: the scrape document's `stats.shards` rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Requests this shard executed.
    pub requests: u64,
    /// Epoch pins taken on the shard's runtime.
    pub pins_taken: u64,
    /// Blocks enumerated by the shard's parallel scans.
    pub blocks_scanned: u64,
    /// Morsels dispatched by the shard's parallel scans.
    pub morsels_dispatched: u64,
}

/// Per-tenant accounting, summed across shards: the scrape document's
/// `stats.tenants` rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant id.
    pub tenant: u16,
    /// Configured per-shard budget × shards, or `u64::MAX` for unlimited.
    pub budget_bytes: u64,
    /// Off-heap bytes currently held by the tenant's contexts.
    pub used_bytes: u64,
    /// Live objects across shards.
    pub live_objects: u64,
    /// Ingest requests rejected by the tenant's budget.
    pub over_budget_errors: u64,
}

/// What [`Server::stats`] returns and the scrape's `stats` section holds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsBody {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardStats>,
    /// One entry per configured tenant.
    pub tenants: Vec<TenantStats>,
}

/// What the acceptor and every connection thread share with the server.
struct Shared {
    /// Set by `shutdown`: stop accepting, hang up between requests.
    stop: AtomicBool,
    shards: Vec<Arc<ShardShared>>,
    attr: Attribution,
}

/// A running shard-per-core SMC server.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    shard_joins: Vec<JoinHandle<ShardDrain>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("shards", &self.shared.shards.len())
            .finish()
    }
}

impl Server {
    /// Binds, spawns the shard threads and the acceptor, and returns.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        assert!(config.shards >= 1, "a server needs at least one shard");
        assert!(!config.tenants.is_empty(), "a server needs tenants");
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;

        let mut shards = Vec::with_capacity(config.shards);
        let mut shard_joins = Vec::with_capacity(config.shards);
        for index in 0..config.shards {
            let shared = Arc::new(ShardShared::new(
                index,
                Runtime::new(),
                &config.tenants,
                config.shards,
            ));
            let cfg = ShardConfig {
                workers: config.workers_per_shard.max(1),
                persist_dir: config.persist_dir.clone(),
            };
            let s = shared.clone();
            let join = std::thread::Builder::new()
                .name(format!("smc-shard-{index}"))
                .spawn(move || run_shard(s, cfg))?;
            shards.push(shared);
            shard_joins.push(join);
        }

        let shared = Arc::new(Shared {
            attr: Attribution::new(config.slow_request_threshold),
            stop: AtomicBool::new(false),
            shards,
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let (shared, conns) = (shared.clone(), conns.clone());
            std::thread::Builder::new()
                .name("smc-acceptor".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        // `shutdown` wakes this blocking accept by
                        // connecting to it; that socket is dropped here.
                        if shared.stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else {
                            // Out of descriptors, most likely: back off
                            // instead of spinning on the error.
                            std::thread::sleep(Duration::from_millis(5));
                            continue;
                        };
                        let shared = shared.clone();
                        let handle = std::thread::Builder::new()
                            .name("smc-conn".to_string())
                            .spawn(move || handle_conn(stream, &shared));
                        // A failed spawn drops the socket.
                        if let Ok(h) = handle {
                            conns.lock().unwrap_or_else(|e| e.into_inner()).push(h);
                        }
                    }
                })?
        };

        Ok(Server {
            local_addr,
            shared,
            acceptor: Some(acceptor),
            conns,
            shard_joins,
        })
    }

    /// The bound address (resolves `:0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The counters of the scrape document's `stats` section, read in
    /// process while the server runs.
    pub fn stats(&self) -> StatsBody {
        gather_stats(&self.shared.shards)
    }

    /// The `smc-scrape/v1` document the `SCRAPE` op answers with, built
    /// in-process (no socket round-trip).
    pub fn scrape_json(&self) -> JsonValue {
        gather_scrape(&self.shared.shards, &self.shared.attr)
    }

    /// Stops accepting, drains connections, then drains, quiesces, and
    /// verifies every shard. Idempotent; the second call returns an empty
    /// report.
    pub fn shutdown(&mut self) -> DrainReport {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(a) = self.acceptor.take() {
            // The acceptor blocks in `accept`: a throw-away loopback
            // connection makes it look at `stop`. Should even that fail, the
            // thread is left behind rather than joined for ever.
            let mut wake = self.local_addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake.ip() {
                    IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
                let _ = a.join();
            }
        }
        let conns = std::mem::take(&mut *self.conns.lock().unwrap_or_else(|e| e.into_inner()));
        for c in conns {
            let _ = c.join();
        }
        // Every producer ring is dropped now; shards can drain to closure.
        for s in &self.shared.shards {
            s.request_stop();
        }
        let mut report = DrainReport { shards: Vec::new() };
        for join in self.shard_joins.drain(..) {
            match join.join() {
                Ok(d) => report.shards.push(d),
                Err(_) => report.shards.push(ShardDrain {
                    shard: usize::MAX,
                    verify_errors: vec!["shard thread panicked".to_string()],
                    ..ShardDrain::default()
                }),
            }
        }
        if !report.clean() {
            // A failed drain verify is one of the flight recorder's trigger
            // conditions: preserve the event window before the process
            // exits. No-op unless the recorder is armed.
            let _ = flight::dump("drain-verify-failed");
        }
        report
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() || !self.shard_joins.is_empty() {
            let _ = self.shutdown();
        }
    }
}

/// Collects the shard and tenant counters from shard shared state (no
/// shard round-trip: every field is an atomic or an `Arc<MemoryContext>`
/// accessor). [`Server::stats`] and the scrape's `stats` section both read
/// this.
fn gather_stats(shards: &[Arc<ShardShared>]) -> StatsBody {
    let mut body = StatsBody::default();
    for s in shards {
        body.shards.push(ShardStats {
            requests: s.requests_served.load(Ordering::Relaxed),
            pins_taken: s.runtime.stats.hot(|cell| &cell.pins_taken),
            blocks_scanned: MemoryStats::get(&s.runtime.stats.blocks_scanned),
            morsels_dispatched: MemoryStats::get(&s.runtime.stats.morsels_dispatched),
        });
    }
    let ntenants = shards.first().map_or(0, |s| s.tenants.len());
    for id in 0..ntenants {
        let mut t = TenantStats {
            tenant: id as u16,
            budget_bytes: 0,
            used_bytes: 0,
            live_objects: 0,
            over_budget_errors: 0,
        };
        let mut unlimited = false;
        for s in shards {
            let ts = &s.tenants[id];
            match ts.budget_bytes {
                Some(b) => t.budget_bytes = t.budget_bytes.saturating_add(b),
                None => unlimited = true,
            }
            if let Some(ctx) = ts.ctx.get() {
                t.used_bytes += ctx.bytes() as u64;
                t.live_objects += ctx.live_objects();
            }
            t.over_budget_errors += ts.over_budget_errors.load(Ordering::Relaxed);
        }
        if unlimited {
            t.budget_bytes = u64::MAX;
        }
        body.tenants.push(t);
    }
    body
}

/// Builds the `smc-scrape/v1` JSON document: shard and tenant stats,
/// tail-latency attribution, tracer health (the rings are also the flight
/// recorder's), per-shard maintenance, and per-shard heap snapshots. The
/// heap section is elided (with an explicit marker) when the serialized
/// document would not fit in one wire frame.
fn gather_scrape(shards: &[Arc<ShardShared>], attr: &Attribution) -> JsonValue {
    let stats = gather_stats(shards);
    let mut doc = JsonValue::obj();
    doc.set("schema", JsonValue::from("smc-scrape/v1"));

    let mut stats_json = JsonValue::obj();
    let shard_rows = stats
        .shards
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut o = JsonValue::obj();
            o.set("shard", JsonValue::from(i));
            o.set("requests", JsonValue::from(s.requests));
            o.set("pins_taken", JsonValue::from(s.pins_taken));
            o.set("blocks_scanned", JsonValue::from(s.blocks_scanned));
            o.set("morsels_dispatched", JsonValue::from(s.morsels_dispatched));
            o
        })
        .collect();
    stats_json.set("shards", JsonValue::Arr(shard_rows));
    let tenant_rows = stats
        .tenants
        .iter()
        .map(|t| {
            let mut o = JsonValue::obj();
            o.set("tenant", JsonValue::from(u64::from(t.tenant)));
            o.set("budget_bytes", JsonValue::from(t.budget_bytes));
            o.set("used_bytes", JsonValue::from(t.used_bytes));
            o.set("live_objects", JsonValue::from(t.live_objects));
            o.set("over_budget_errors", JsonValue::from(t.over_budget_errors));
            o
        })
        .collect();
    stats_json.set("tenants", JsonValue::Arr(tenant_rows));
    doc.set("stats", stats_json);

    doc.set("attribution", attr.to_json());

    let mut tracer = JsonValue::obj();
    tracer.set("enabled", JsonValue::from(trace::is_enabled()));
    let by_thread = trace::dropped_by_thread();
    tracer.set(
        "dropped",
        JsonValue::from(by_thread.iter().map(|&(_, n)| n).sum::<u64>()),
    );
    tracer.set(
        "dropped_by_thread",
        JsonValue::Arr(
            by_thread
                .iter()
                .map(|&(thread, dropped)| {
                    let mut o = JsonValue::obj();
                    o.set("thread", JsonValue::from(thread));
                    o.set("dropped", JsonValue::from(dropped));
                    o
                })
                .collect(),
        ),
    );
    doc.set("tracer", tracer);

    // Each shard's coordinator counters and compaction timings: a few
    // hundred bytes, so never elided with the heap.
    let maint = shards
        .iter()
        .filter_map(|s| {
            let mut o = s.coordinator.get()?.snapshot().to_json();
            o.set("shard", JsonValue::from(s.index));
            let stats = &s.runtime.stats;
            o.set(
                "compaction_pass_ns",
                summary_json(&stats.compaction_pass_ns),
            );
            o.set(
                "compaction_pause_ns",
                summary_json(&stats.compaction_pause_ns),
            );
            Some(o)
        })
        .collect();
    doc.set("maint", JsonValue::Arr(maint));

    let heaps = shards
        .iter()
        .filter_map(|s| {
            let ctx_arcs: Vec<_> = s.tenants.iter().filter_map(|t| t.ctx.get()).collect();
            let ctxs: Vec<&smc_memory::MemoryContext> =
                ctx_arcs.iter().map(|a| a.as_ref()).collect();
            // Capture can fail (epoch registry full); a scrape never does.
            let snap = HeapSnapshot::try_capture(&s.runtime, &ctxs).ok()?;
            let mut o = JsonValue::obj();
            o.set("shard", JsonValue::from(s.index));
            o.set("snapshot", snap.to_json());
            Some(o)
        })
        .collect();
    doc.set("heap", JsonValue::Arr(heaps));
    doc.set("heap_elided", JsonValue::Bool(false));
    if doc.to_json().len() >= MAX_FRAME as usize {
        doc.set("heap", JsonValue::Arr(Vec::new()));
        doc.set("heap_elided", JsonValue::Bool(true));
    }
    doc
}

/// The connection loop: frame in, route, frame out.
fn handle_conn(mut stream: TcpStream, server: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let waiter = Arc::new(Waiter::new());
    let mut router = Router {
        server,
        links: server.shards.iter().map(|s| s.connect(&waiter)).collect(),
        waiter,
        seq: 0,
    };
    let mut reader = FrameReader::new();
    let mut writer = FrameWriter::new();
    let draining = || server.stop.load(Ordering::Acquire);
    let goodbye = || (Response::err(ErrorCode::Shutdown, "server draining"), true);
    loop {
        let (response, close) = match reader.read_frame(&mut stream, draining) {
            Err(FrameError::Closed | FrameError::Truncated | FrameError::Io(_)) => break,
            // Draining: tell the peer why we hang up — when its read times
            // out idle, and just as much when its next frame is already
            // here, or a peer that always has one ready holds the drain
            // open for ever. That frame is answered, not executed.
            Err(FrameError::Stopped) => goodbye(),
            Ok(_) if draining() => goodbye(),
            // The stream cannot be resynchronized after a bogus prefix:
            // answer, then close.
            Err(FrameError::Oversized(len)) => (
                Response::err(
                    ErrorCode::BadFrame,
                    format!("frame length {len} exceeds {MAX_FRAME}"),
                ),
                true,
            ),
            Ok(payload) => (router.handle(payload), false),
        };
        if writer.write_frame(&mut stream, &response.encode()).is_err() || close {
            break;
        }
    }
    // Dropping the router closes the rings; shards prune them once drained.
}

/// How one shard's part of a scatter ended.
#[derive(Debug, PartialEq)]
enum Outcome {
    Reply(ShardReply),
    /// The request ring stayed full for `RING_PATIENCE`; no job was sent.
    Saturated,
    /// No reply within `REPLY_TIMEOUT`; one that comes later is discarded.
    TimedOut,
}

/// One connection's routing state.
struct Router<'a> {
    server: &'a Shared,
    /// This connection's ring pair into each shard, in shard order.
    links: Vec<ShardLink>,
    /// What this thread waits on for replies; every shard wakes it.
    waiter: Arc<Waiter>,
    /// Number of the latest scatter. Its jobs carry it and so do their
    /// replies: any other number on a reply ring is the late answer to a
    /// request that already timed out.
    seq: u64,
}

impl Router<'_> {
    /// Decodes and routes one frame. Framing is still intact when decoding
    /// fails (the prefix was honest), so that answers and keeps the
    /// connection.
    fn handle(&mut self, payload: &[u8]) -> Response {
        let conn_start = clock::now();
        let (req, id) = match Request::decode_traced(payload) {
            Ok(decoded) => decoded,
            Err(e) => return Response::err(e.code(), e.message()),
        };
        // Hold the span context for the whole connection-side handling so
        // anything emitted below carries the id.
        let _scope = id.map(RequestScope::enter);
        let resp = self.dispatch(req, id);
        if let Some(id) = id {
            trace::emit_stage(id, "conn", clock::now().saturating_sub(conn_start));
        }
        resp
    }

    /// Routes one request: to the owning shards for ingest partitions, to
    /// every shard for queries, nowhere for `PING`/`SCRAPE`. A
    /// shard-bound op records its tail-latency breakdown when it completes
    /// at or over the slow-request threshold.
    fn dispatch(&mut self, req: Request, trace: Option<RequestId>) -> Response {
        let start = clock::now();
        let shards = &self.server.shards;
        let n = shards.len();
        let op = req.op();
        let (tenant, ops): (u16, Vec<Option<ShardOp>>) = match req {
            Request::Ping => return Response::Ok(Vec::new()),
            Request::Scrape => {
                let doc = gather_scrape(shards, &self.server.attr);
                return Response::Ok(doc.to_json().into_bytes());
            }
            Request::Upsert { tenant, rows } => {
                let parts = partition(rows, n, |row| row.0);
                (tenant, parts.map(|p| p.map(ShardOp::Upsert)).collect())
            }
            Request::Delete { tenant, keys } => {
                let parts = partition(keys, n, |key| *key);
                (tenant, parts.map(|p| p.map(ShardOp::Delete)).collect())
            }
            Request::Count { tenant, lo, hi } => (tenant, vec![Some(ShardOp::Count { lo, hi }); n]),
            Request::Sum { tenant, lo, hi } => (tenant, vec![Some(ShardOp::Sum { lo, hi }); n]),
        };
        let mut breakdown = SlowBreakdown::default();
        let resp = if (tenant as usize) < shards.first().map_or(0, |s| s.tenants.len()) {
            merge(op, self.scatter(tenant, ops, trace, &mut breakdown))
        } else {
            Response::err(
                ErrorCode::UnknownTenant,
                format!("tenant {tenant} is not configured"),
            )
        };
        let class = match op {
            Op::Upsert | Op::Delete => OpClass::Ingest,
            _ => OpClass::Query,
        };
        let total_ns = clock::now().saturating_sub(start);
        self.server.attr.observe(class, total_ns, &breakdown);
        resp
    }

    /// Sends `ops[i]` to shard `i`, then gathers every reply.
    /// Send-then-gather keeps the shards working in parallel during a
    /// scatter-gather query. The outcomes come back in shard order, `None`
    /// where there was no job.
    fn scatter(
        &mut self,
        tenant: u16,
        ops: Vec<Option<ShardOp>>,
        trace: Option<RequestId>,
        breakdown: &mut SlowBreakdown,
    ) -> Vec<Option<Outcome>> {
        self.seq += 1;
        let server = self.server;
        let send = |(i, op): (usize, Option<ShardOp>)| {
            let job = ShardJob {
                seq: self.seq,
                tenant,
                op: op?,
                trace,
                enqueued: clock::now(),
            };
            // A queued job has timed out until its reply says otherwise.
            let queued = self.links[i].send(&server.shards[i], job, RING_PATIENCE);
            Some(if queued {
                Outcome::TimedOut
            } else {
                Outcome::Saturated
            })
        };
        let mut outcomes: Vec<_> = ops.into_iter().enumerate().map(send).collect();
        let (links, waiter, seq) = (&mut self.links, &self.waiter, self.seq);
        gather(links, waiter, seq, REPLY_TIMEOUT, &mut outcomes, breakdown);
        outcomes
    }
}

/// Replaces every `TimedOut` in `outcomes` by that shard's reply to scatter
/// `seq`, in **one** wait over all reply rings that ends when none is left
/// or after `timeout`. Replies numbered otherwise are dropped unread. Each
/// reply's timing folds into `breakdown` as it arrives.
fn gather(
    links: &mut [ShardLink],
    waiter: &Waiter,
    seq: u64,
    timeout: Duration,
    outcomes: &mut [Option<Outcome>],
    breakdown: &mut SlowBreakdown,
) {
    let awaited = |o: &&Option<Outcome>| matches!(o, Some(Outcome::TimedOut));
    let mut left = outcomes.iter().filter(awaited).count();
    waiter.wait(Some(timeout), || {
        for (link, outcome) in links.iter_mut().zip(outcomes.iter_mut()) {
            while let Some(r) = link.pop_reply() {
                if r.seq == seq {
                    breakdown.fold(&r.timing);
                    *outcome = Some(Outcome::Reply(r.reply));
                    left -= 1;
                }
            }
        }
        (left == 0).then_some(())
    });
}

/// Splits an ingest batch by owning shard: `None` where a shard owns none
/// of it, so the batch fans out only to the shards it touches.
fn partition<T>(
    items: Vec<T>,
    shards: usize,
    key: impl Fn(&T) -> u64,
) -> impl Iterator<Item = Option<Vec<T>>> {
    let mut parts: Vec<Vec<T>> = (0..shards).map(|_| Vec::new()).collect();
    for item in items {
        parts[shard_of(key(&item), shards)].push(item);
    }
    parts.into_iter().map(|p| (!p.is_empty()).then_some(p))
}

/// Merges the shards' answers to one `op`: the total on success (`count`,
/// and `sum` for `SUM`). On mixed outcomes the budget error wins over
/// transport noise — it is the one the tenant can act on, and its message
/// carries how much of the batch still applied — else the first error.
fn merge(op: Op, outcomes: Vec<Option<Outcome>>) -> Response {
    let (mut count, mut sum) = (0u64, 0u64);
    let mut budget_err: Option<Response> = None;
    let mut first_err: Option<Response> = None;
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let err = match (op, outcome) {
            (_, None) => continue,
            (Op::Upsert, Some(Outcome::Reply(ShardReply::Upserted(n))))
            | (Op::Delete, Some(Outcome::Reply(ShardReply::Deleted(n))))
            | (Op::Count, Some(Outcome::Reply(ShardReply::Counted(n)))) => {
                count += n;
                continue;
            }
            (Op::Sum, Some(Outcome::Reply(ShardReply::Summed { count: c, sum: s }))) => {
                count += c;
                sum = sum.wrapping_add(s);
                continue;
            }
            (_, Some(Outcome::Reply(ShardReply::Error(code, msg)))) => Response::Err(code, msg),
            (_, Some(Outcome::Reply(other))) => internal(format!("mismatched reply {other:?}")),
            (_, Some(Outcome::Saturated)) => internal(format!("shard {i} ring saturated")),
            (_, Some(Outcome::TimedOut)) => internal(format!("shard {i} reply timed out")),
        };
        match err {
            Response::Err(ErrorCode::TenantOverBudget, _) => budget_err.get_or_insert(err),
            _ => first_err.get_or_insert(err),
        };
    }
    if let Some(resp) = budget_err.or(first_err) {
        return resp;
    }
    let mut body = count.to_le_bytes().to_vec();
    if op == Op::Sum {
        body.extend_from_slice(&sum.to_le_bytes());
    }
    Response::Ok(body)
}

fn internal(msg: String) -> Response {
    Response::err(ErrorCode::Internal, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::link;

    #[test]
    fn gather_drops_a_stale_reply_keeps_the_current_one_and_times_out_on_silence() {
        let waiter = Arc::new(Waiter::new());
        let (link0, inbox0) = link(&waiter);
        let (link1, _inbox1) = link(&waiter);
        let mut links = [link0, link1];
        let mut run = |seq, outcomes: &mut [Option<Outcome>]| {
            let mut breakdown = SlowBreakdown::default();
            let timeout = Duration::from_millis(20);
            gather(&mut links, &waiter, seq, timeout, outcomes, &mut breakdown);
            breakdown
        };
        // Shard 0 answers request 4 (long given up on), then request 5;
        // shard 1 was sent nothing.
        let timing = |exec_ns| SlowBreakdown {
            exec_ns,
            ..SlowBreakdown::default()
        };
        inbox0.answer(4, ShardReply::Counted(111), timing(1_000));
        inbox0.answer(5, ShardReply::Counted(2), timing(7));
        let mut outcomes = [Some(Outcome::TimedOut), None];
        let breakdown = run(5, &mut outcomes);
        let current = Outcome::Reply(ShardReply::Counted(2));
        assert_eq!(outcomes, [Some(current), None]);
        assert_eq!(breakdown.exec_ns, 7, "only the current reply folds");
        let total = merge(Op::Count, outcomes.into());
        assert_eq!(total, Response::Ok(2u64.to_le_bytes().to_vec()));

        // Request 6 goes to both shards; neither answers in time.
        let mut outcomes = [Some(Outcome::TimedOut), Some(Outcome::TimedOut)];
        run(6, &mut outcomes);
        match merge(Op::Upsert, outcomes.into()) {
            Response::Err(ErrorCode::Internal, msg) => assert!(msg.contains("timed out"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
