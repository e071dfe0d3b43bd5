//! `serve_point`: small requests to an embedded `smc_serve::Server`.
//!
//! One load-generator thread with one connection per two hardware threads
//! (generator threads plus connections stay within the hardware threads),
//! each the only writer of its own tenants, so every reply can be checked
//! against an exact model. The mix is
//! 80 % `upsert` x8 rows, 10 % `delete` x8, 10 % `count`/`sum`; keys come
//! from a space 9/8 the preloaded rows, where that mix holds the live set
//! steady. A scan touches 50 k 16-byte rows per tenant, so the request path
//! (wire, rings, doorbell, reply cell, shard loop, slot alloc) does nearly
//! all the work.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use smc_obs::JsonValue;
use smc_serve::{Client, Server, ServerConfig, TenantConfig};
use smc_util::Pcg32;

use super::{nproc, peak_rss_mb, setup_laps, Outcome, Plan, RunConfig, Tally};
use crate::ladder;
use crate::metrics::Values;
use crate::stats::{Samples, Windows};
use crate::trace;

/// Tenants the load is spread over.
pub const TENANTS: u16 = 2;
/// Rows preloaded into each tenant.
pub const ROWS_PER_TENANT: u64 = 50_000;
/// Rows per ingest request.
pub const BATCH: usize = 8;
/// Values are drawn below the last threshold; `count`/`sum` ask for the
/// rows below one of them, so the model answers from four running totals.
const THRESHOLDS: [u64; 4] = [1 << 18, 1 << 19, 3 << 18, 1 << 20];
/// Bytes of one `smc_serve::Row`.
const ROW_BYTES: u64 = 16;

/// One request of the mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Upsert(Vec<(u64, u64)>),
    Delete(Vec<u64>),
    /// Count the rows whose value is below `THRESHOLDS[i]`.
    Count(usize),
    /// Count and sum the rows whose value is below `THRESHOLDS[i]`.
    Sum(usize),
}

/// Connections the load comes over: one, with its generator thread, per two
/// hardware threads.
pub fn connections() -> usize {
    (nproc() / 2).clamp(1, TENANTS as usize)
}

/// The request sequence of one connection: a pure function of its seed.
#[derive(Debug)]
pub struct OpGen {
    rng: Pcg32,
    key_space: u64,
    /// The tenants this connection alone writes to.
    tenants: Vec<u16>,
}

impl OpGen {
    /// The generator of connection `connection` of `connections`, which owns
    /// every tenant `t` with `t % connections == connection`.
    pub fn new(seed: u64, connection: usize, connections: usize, key_space: u64) -> OpGen {
        OpGen {
            rng: Pcg32::seed_from_u64(smc_util::rng::splitmix64(
                seed ^ ((connection as u64 + 1) << 32),
            )),
            key_space,
            tenants: (0..TENANTS)
                .filter(|t| *t as usize % connections == connection)
                .collect(),
        }
    }

    fn row(&mut self) -> (u64, u64) {
        let key = self.rng.next_u64() % self.key_space;
        (key, self.rng.next_u64() % THRESHOLDS[3])
    }

    /// The next request: the tenant it goes to and what it asks.
    pub fn next_op(&mut self) -> (u16, Op) {
        let tenant = self.tenants[self.rng.next_u32() as usize % self.tenants.len()];
        let op = match self.rng.next_u32() % 100 {
            0..=79 => Op::Upsert((0..BATCH).map(|_| self.row()).collect()),
            80..=89 => Op::Delete((0..BATCH).map(|_| self.row().0).collect()),
            90..=94 => Op::Count(self.rng.next_u32() as usize % THRESHOLDS.len()),
            _ => Op::Sum(self.rng.next_u32() as usize % THRESHOLDS.len()),
        };
        (tenant, op)
    }
}

/// What one tenant must hold.
#[derive(Debug, Default)]
struct Model {
    rows: HashMap<u64, u64>,
    /// Count and wrapping sum of the values below each threshold.
    below: [(u64, u64); 4],
}

impl Model {
    fn account(&mut self, value: u64, add: bool) {
        for (t, b) in THRESHOLDS.iter().zip(&mut self.below) {
            if value < *t {
                if add {
                    *b = (b.0 + 1, b.1.wrapping_add(value));
                } else {
                    *b = (b.0 - 1, b.1.wrapping_sub(value));
                }
            }
        }
    }

    fn upsert(&mut self, key: u64, value: u64) {
        if let Some(old) = self.rows.insert(key, value) {
            self.account(old, false);
        }
        self.account(value, true);
    }

    fn delete(&mut self, key: u64) -> bool {
        match self.rows.remove(&key) {
            Some(old) => {
                self.account(old, false);
                true
            }
            None => false,
        }
    }
}

/// One connection with the models of its tenants (indexed by tenant id).
struct Conn {
    client: Client,
    models: Vec<Model>,
    gen: OpGen,
}

impl Conn {
    /// Sends `op`, compares the reply with the model and applies the op to
    /// it. `Err` carries what went wrong.
    fn execute(&mut self, tenant: u16, op: Op) -> Result<(), String> {
        let model = &mut self.models[tenant as usize];
        match op {
            Op::Upsert(rows) => {
                let want = rows.len() as u64;
                for &(k, v) in &rows {
                    model.upsert(k, v);
                }
                let got = {
                    let _s = trace::span("serve.upsert");
                    self.client.upsert(tenant, rows)
                };
                match got {
                    Ok(n) if n == want => Ok(()),
                    other => Err(format!("upsert of {want} rows answered {other:?}")),
                }
            }
            Op::Delete(keys) => {
                let want = keys.iter().filter(|&&k| model.delete(k)).count() as u64;
                let got = {
                    let _s = trace::span("serve.delete");
                    self.client.delete(tenant, keys)
                };
                match got {
                    Ok(n) if n == want => Ok(()),
                    other => Err(format!("delete of {want} present keys answered {other:?}")),
                }
            }
            Op::Count(i) => {
                let got = {
                    let _s = trace::span("serve.count");
                    self.client.count(tenant, 0, THRESHOLDS[i])
                };
                match got {
                    Ok(n) if n == model.below[i].0 => Ok(()),
                    other => Err(format!(
                        "count below {} answered {other:?}, model {}",
                        THRESHOLDS[i], model.below[i].0
                    )),
                }
            }
            Op::Sum(i) => {
                let got = {
                    let _s = trace::span("serve.sum");
                    self.client.sum(tenant, 0, THRESHOLDS[i])
                };
                match got {
                    Ok(pair) if pair == model.below[i] => Ok(()),
                    other => Err(format!(
                        "sum below {} answered {other:?}, model {:?}",
                        THRESHOLDS[i], model.below[i]
                    )),
                }
            }
        }
    }
}

struct State {
    server: Server,
    conns: Vec<Conn>,
}

/// Starts the server and preloads every tenant, one thread per connection.
fn build(cfg: &RunConfig, conns: usize, rows: u64) -> State {
    // Past the loaded tenants: one for the 1-row probe, one left empty.
    let tenants = (0..TENANTS + 2)
        .map(|i| TenantConfig {
            name: format!("tenant-{i}"),
            budget_bytes: None,
        })
        .collect();
    let server = Server::start(ServerConfig {
        shards: nproc(),
        workers_per_shard: 1,
        tenants,
        slow_request_threshold: if cfg.traced {
            Duration::ZERO
        } else {
            ServerConfig::default().slow_request_threshold
        },
        ..ServerConfig::default()
    })
    .expect("server binds an ephemeral loopback port");
    let addr = server.local_addr();
    let key_space = rows * 9 / 8;
    let seed = cfg.seed;
    let conns = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|i| {
                s.spawn(move || {
                    let mut conn = Conn {
                        client: Client::connect(addr).expect("loopback connect"),
                        models: (0..TENANTS).map(|_| Model::default()).collect(),
                        gen: OpGen::new(seed, i, conns, key_space),
                    };
                    for tenant in conn.gen.tenants.clone() {
                        let mut key = 0;
                        while key < rows {
                            let n = (BATCH as u64).min(rows - key);
                            let batch = (key..key + n).map(|k| (k, conn.gen.row().1)).collect();
                            conn.execute(tenant, Op::Upsert(batch)).expect("preload");
                            key += n;
                        }
                    }
                    conn
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("preload thread"))
            .collect()
    });
    State { server, conns }
}

struct ConnResult {
    conn: Conn,
    tally: Tally,
    writes: Samples,
    reads: Samples,
    write_windows: Windows,
}

/// Runs one connection's closed loop through warm-up and the measured phase.
fn drive(mut conn: Conn, plan: Plan, traced: bool, start: Instant) -> ConnResult {
    let mut tally = Tally::default();
    let mut writes = Samples::default();
    let mut reads = Samples::default();
    let mut write_windows = plan.windows();
    let end = plan.end();
    loop {
        let (tenant, op) = conn.gen.next_op();
        let is_write = matches!(op, Op::Upsert(_) | Op::Delete(_));
        let t0 = Instant::now();
        let since = t0 - start;
        if since >= end {
            break;
        }
        if traced {
            super::trace_window(&plan, since);
        }
        let outcome = conn.execute(tenant, op);
        let took = t0.elapsed();
        let ok = outcome.is_ok();
        tally.check(ok, || outcome.unwrap_err());
        // A failed op counts as missing any latency: it adds no sample.
        let Some(at) = plan.measured(since + took).filter(|_| ok) else {
            continue;
        };
        if is_write {
            writes.record(took);
            write_windows.add(at, 1);
        } else {
            reads.record(took);
        }
    }
    trace::flush_thread();
    ConnResult {
        conn,
        tally,
        writes,
        reads,
        write_windows,
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let conns = connections();
    let rows = ROWS_PER_TENANT;
    let plan = cfg.plan();

    let (state, setup_s) = setup_laps(
        || build(cfg, conns, rows),
        |mut old| {
            old.conns.clear();
            old.server.shutdown();
        },
    );
    let State { mut server, conns } = state;

    let before = Counters::read(&server);
    let barrier = Arc::new(Barrier::new(conns.len()));
    let start = Instant::now();
    let results: Vec<ConnResult> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, conn)| {
                let barrier = barrier.clone();
                std::thread::Builder::new()
                    .name(format!("client-{i}"))
                    .spawn_scoped(s, move || {
                        barrier.wait();
                        drive(conn, plan, cfg.traced, start)
                    })
                    .expect("spawn client thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    trace::set_enabled(cfg.traced);
    let after = Counters::read(&server);

    let mut tally = Tally::default();
    let mut writes = Samples::default();
    let mut reads = Samples::default();
    let mut windows = plan.windows();
    let mut conns = Vec::new();
    for r in results {
        tally.merge(r.tally);
        writes.merge(r.writes);
        reads.merge(r.reads);
        windows.merge(&r.write_windows);
        conns.push(r.conn);
    }

    // Every tenant holds exactly its model, seen through the wire and
    // through the server's own accounting.
    let mut model_rows = 0;
    for conn in &mut conns {
        for tenant in conn.gen.tenants.clone() {
            model_rows += conn.models[tenant as usize].rows.len() as u64;
            let outcome = conn.execute(tenant, Op::Sum(THRESHOLDS.len() - 1));
            tally.check(outcome.is_ok(), || {
                format!("final check of tenant {tenant}: {}", outcome.unwrap_err())
            });
        }
    }
    let stats = server.stats();
    let live: u64 = stats.tenants.iter().map(|t| t.live_objects).sum();
    let used: u64 = stats.tenants.iter().map(|t| t.used_bytes).sum();
    tally.check(live == model_rows, || {
        format!("server holds {live} rows, models hold {model_rows}")
    });

    let mut layers = Values::default();
    if cfg.traced {
        layers.set(
            "memory.blocks_faulted",
            (after.faulted - before.faulted) as f64,
        );
        layers.set(
            "memory.blocks_spilled",
            (after.spilled - before.spilled) as f64,
        );
        layers.set(
            "memory.remote_frees",
            (after.remote_frees - before.remote_frees) as f64,
        );
        layers.set("serve.ring_wait_share", after.ring_wait_share);
        layers.set("obs.trace_overhead_ratio", windows.even_over_odd());
        ladder::serve_probes(&mut conns[0].client, TENANTS, TENANTS + 1, &mut tally);
    }

    drop(conns);
    let drain = server.shutdown();
    tally.check(drain.clean(), || {
        format!("drain verify failed: {:?}", drain.verify_errors())
    });

    if cfg.traced {
        ladder::request_path_probes();
    }

    let writes = writes.sorted();
    let reads = reads.sorted();
    let mut e2e = Values::default();
    e2e.set("setup_s", setup_s);
    e2e.set("ops_per_s", windows.median_rate());
    e2e.set_opt("write_p50_us", writes.p50_us());
    e2e.set_tail("write_p99_us", &writes);
    e2e.set_opt("read_p50_us", reads.p50_us());
    e2e.set(
        "bytes_per_live_byte",
        used as f64 / (live.max(1) * ROW_BYTES) as f64,
    );
    e2e.set("peak_rss_mb", peak_rss_mb());
    Outcome {
        end_to_end: e2e,
        layers,
        tally,
    }
}

/// Counters the server only shows through its scrape document.
struct Counters {
    faulted: u64,
    spilled: u64,
    remote_frees: u64,
    ring_wait_share: f64,
}

impl Counters {
    fn read(server: &Server) -> Counters {
        let doc = server.scrape_json();
        let u = |v: Option<&JsonValue>| v.and_then(JsonValue::as_u64).unwrap_or(0);
        let attr = doc.get("attribution");
        let class = |name: &str| attr.and_then(|a| a.get(name));
        let faulted = ["ingest", "query"]
            .iter()
            .map(|c| u(class(c).and_then(|c| c.get("spill_faults"))))
            .sum();
        let hist_sum = |h: &str| {
            u(class("ingest")
                .and_then(|c| c.get(h))
                .and_then(|h| h.get("sum_ns")))
        };
        let mut spilled = 0;
        let mut remote_frees = 0;
        for shard in doc.get("heap").and_then(JsonValue::as_arr).unwrap_or(&[]) {
            let snap = shard.get("snapshot");
            remote_frees += u(snap
                .and_then(|s| s.get("alloc"))
                .and_then(|a| a.get("remote_frees")));
            for c in snap
                .and_then(|s| s.get("collections"))
                .and_then(JsonValue::as_arr)
                .unwrap_or(&[])
            {
                spilled += u(c.get("spilled_blocks"));
            }
        }
        Counters {
            faulted,
            spilled,
            remote_frees,
            ring_wait_share: hist_sum("ring_wait_ns") as f64 / hist_sum("total_ns").max(1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_the_request_sequence() {
        let ops = |seed, conn| {
            let mut g = OpGen::new(seed, conn, 2, 56_250);
            (0..2000).map(|_| g.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(42, 0), ops(42, 0));
        assert_ne!(ops(42, 0), ops(42, 1));
        assert_ne!(ops(42, 0), ops(7, 0));

        // The mix is 80 / 10 / 10 and every batch carries eight rows.
        let sample = ops(42, 0);
        let share = |f: fn(&Op) -> bool| {
            sample.iter().filter(|(_, o)| f(o)).count() as f64 / sample.len() as f64
        };
        assert!((share(|o| matches!(o, Op::Upsert(_))) - 0.80).abs() < 0.03);
        assert!((share(|o| matches!(o, Op::Delete(_))) - 0.10).abs() < 0.03);
        assert!((share(|o| matches!(o, Op::Count(_) | Op::Sum(_))) - 0.10).abs() < 0.03);
        assert!(sample.iter().all(|(tenant, op)| *tenant == 0
            && match op {
                Op::Upsert(r) =>
                    r.len() == BATCH && r.iter().all(|&(k, v)| k < 56_250 && v < THRESHOLDS[3]),
                Op::Delete(k) => k.len() == BATCH,
                Op::Count(i) | Op::Sum(i) => *i < THRESHOLDS.len(),
            }));
        // A lone connection writes to every tenant.
        let mut lone = OpGen::new(42, 0, 1, 56_250);
        let tenants: std::collections::HashSet<u16> = (0..100).map(|_| lone.next_op().0).collect();
        assert_eq!(tenants.len(), TENANTS as usize);
    }

    #[test]
    fn model_totals_follow_overwrites_and_deletes() {
        let mut m = Model::default();
        m.upsert(1, 10);
        m.upsert(2, THRESHOLDS[0]);
        m.upsert(1, THRESHOLDS[2]);
        assert_eq!(m.below[0], (0, 0));
        assert_eq!(m.below[1], (1, THRESHOLDS[0]));
        assert_eq!(m.below[3], (2, THRESHOLDS[0] + THRESHOLDS[2]));
        assert!(m.delete(2) && !m.delete(2));
        assert_eq!(m.below[3], (1, THRESHOLDS[2]));
    }
}
