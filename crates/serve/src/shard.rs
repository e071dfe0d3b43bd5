//! Shard-local runtimes: one [`Runtime`], worker pool, and maintenance
//! coordinator per shard thread, no cross-shard locks.
//!
//! A shard owns everything about its slice of the keyspace: per-tenant
//! [`Smc<Row>`] collections, the `key → Ref` index (touched only by the
//! shard thread, so it needs no lock), the `smc-exec` pool that runs scans
//! morsel-parallel, and the `smc-maint` coordinator that compacts in the
//! background under the shard's own SLO gauge. Connection threads reach a
//! shard exclusively through a pair of SPSC rings ([`smc_util::spsc`]) per
//! (connection, shard): jobs one way, sequence-numbered replies the other.
//! Both ends wait on a spin-then-park [`Waiter`] — the shard on its own,
//! for work from any connection; a connection on its own, for replies from
//! any shard. Backpressure is the request ring itself: a full ring pushes
//! back on the connection, never on the shard.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use smc::{ContextConfig, Ref, Runtime, Smc, Tabular};
use smc_exec::{ParScan, WorkerPool};
use smc_maint::{Coordinator, MaintConfig, MaintPolicy};
use smc_memory::stats::MemoryStats;
use smc_memory::{MemError, MemoryContext, PageStore};
use smc_obs::clock;
use smc_obs::trace::{self, RequestId, RequestScope};
use smc_obs::Histogram;
use smc_persist::{Persist, PersistError, RecoverOptions, SpillFile};
use smc_util::rng::splitmix64;
use smc_util::spsc::{self, Consumer, Producer};
use smc_util::waiter::Waiter;

use crate::attr::SlowBreakdown;
use crate::wire::ErrorCode;

/// The one row shape the server stores: a keyed 16-byte record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct Row {
    /// Tenant-scoped primary key.
    pub key: u64,
    /// The value ingested with the key; queries filter and aggregate it.
    pub value: u64,
}

// SAFETY: plain-old-data, no padding secrets, no interior references.
unsafe impl Tabular for Row {}

/// Capacity of each (connection, shard) request ring and of its reply ring.
pub(crate) const RING_CAPACITY: usize = 256;

/// How long a connection leans on a full shard ring before answering with
/// backpressure (`Internal` error) instead of queueing.
pub(crate) const RING_PATIENCE: Duration = Duration::from_millis(200);

/// How long a connection waits for a shard reply before declaring the shard
/// wedged.
pub(crate) const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Distributes `key` to a shard by hash (splitmix64 — sequential keys must
/// not land on one shard). Recover-on-start finds a tenant's rows by this
/// function, so its values are pinned by a test.
pub fn shard_of(key: u64, shards: usize) -> usize {
    (splitmix64(key) % shards.max(1) as u64) as usize
}

/// What a shard is asked to do for one tenant (already routed and decoded).
#[derive(Debug, Clone)]
pub(crate) enum ShardOp {
    /// Insert-or-overwrite rows; all keys already hash to this shard.
    Upsert(Vec<(u64, u64)>),
    /// Remove keys; absent keys are ignored.
    Delete(Vec<u64>),
    /// Count rows with value in `[lo, hi)`.
    Count { lo: u64, hi: u64 },
    /// Sum values over rows with value in `[lo, hi)`.
    Sum { lo: u64, hi: u64 },
}

/// A shard's answer to one [`ShardJob`].
#[derive(Debug, PartialEq)]
pub(crate) enum ShardReply {
    /// Rows applied by an upsert.
    Upserted(u64),
    /// Rows removed by a delete.
    Deleted(u64),
    /// Matching rows counted.
    Counted(u64),
    /// Matching rows counted and their values summed.
    Summed { count: u64, sum: u64 },
    /// The request failed; mirrors a wire error.
    Error(ErrorCode, String),
}

/// One unit of work in a shard's inbox.
#[derive(Debug)]
pub(crate) struct ShardJob {
    /// The connection's request number; the reply carries it back.
    pub(crate) seq: u64,
    pub(crate) tenant: u16,
    pub(crate) op: ShardOp,
    /// Span context from the wire header, if the request was traced; the
    /// shard re-enters it so every event it emits carries the id.
    pub(crate) trace: Option<RequestId>,
    /// [`clock::now`] when the connection thread enqueued the job
    /// (ring-wait start).
    pub(crate) enqueued: u64,
}

/// A shard's answer as it travels the reply ring.
#[derive(Debug)]
pub(crate) struct Reply {
    /// [`ShardJob::seq`] of the job this answers. A connection that gave up
    /// on a job (`REPLY_TIMEOUT`) has moved on to a later number and drops
    /// the late answer instead of taking it for the next request's.
    pub(crate) seq: u64,
    pub(crate) reply: ShardReply,
    /// Where the job spent its time and what pressure it met, measured on
    /// the shard thread; `reply_wake_ns` is filled in by
    /// [`ShardLink::pop_reply`].
    pub(crate) timing: SlowBreakdown,
    /// [`clock::now`] when the shard pushed the reply (reply-wake start).
    pushed: u64,
}

/// The shard's end of one connection's ring pair.
#[derive(Debug)]
pub(crate) struct Inbox {
    jobs: Consumer<ShardJob>,
    replies: Producer<Reply>,
    /// The connection thread's waiter, shared by all its reply rings.
    conn: Arc<Waiter>,
}

impl Inbox {
    /// Pushes one reply and wakes the connection if it sleeps. A full reply
    /// ring means the connection stopped gathering (it needs `RING_CAPACITY`
    /// timed-out jobs in a row); it will time this one out too.
    pub(crate) fn answer(&self, seq: u64, reply: ShardReply, timing: SlowBreakdown) {
        let _ = self.replies.push(Reply {
            seq,
            reply,
            timing,
            pushed: clock::now(),
        });
        self.conn.wake();
    }
}

/// A connection's end of one shard's ring pair.
#[derive(Debug)]
pub(crate) struct ShardLink {
    jobs: Producer<ShardJob>,
    replies: Consumer<Reply>,
}

/// A ring pair between a connection (waiting on `conn`) and a shard.
pub(crate) fn link(conn: &Arc<Waiter>) -> (ShardLink, Inbox) {
    let (job_tx, job_rx) = spsc::channel(RING_CAPACITY);
    let (reply_tx, reply_rx) = spsc::channel(RING_CAPACITY);
    (
        ShardLink {
            jobs: job_tx,
            replies: reply_rx,
        },
        Inbox {
            jobs: job_rx,
            replies: reply_tx,
            conn: conn.clone(),
        },
    )
}

/// Tenant state visible outside the shard thread (stats, budgets).
#[derive(Debug)]
pub(crate) struct TenantShared {
    /// Wire-protocol tenant id (index into the configured tenant list).
    pub(crate) id: u16,
    /// Human-readable tenant name (reports, panels).
    pub(crate) name: String,
    /// Per-shard slice of the tenant's byte budget, `None` for unlimited.
    pub(crate) budget_bytes: Option<u64>,
    /// The tenant's context on this shard, set once by the shard thread.
    pub(crate) ctx: OnceLock<Arc<MemoryContext>>,
    /// Ingest requests this shard rejected for this tenant's budget.
    pub(crate) over_budget_errors: AtomicU64,
}

/// The part of a shard shared with connection threads and the server.
#[derive(Debug)]
pub(crate) struct ShardShared {
    /// Shard index, for labels.
    pub(crate) index: usize,
    /// Tells the shard thread to drain and exit.
    pub(crate) stop: AtomicBool,
    /// Requests executed by this shard.
    pub(crate) requests_served: AtomicU64,
    /// The shard-private runtime (shared only for stats/verify reads).
    pub(crate) runtime: Arc<Runtime>,
    /// Per-tenant shared state, indexed by tenant id.
    pub(crate) tenants: Vec<TenantShared>,
    /// Foreground query latency (ns); doubles as the maint SLO gauge.
    pub(crate) query_latency: Arc<Histogram>,
    /// The shard's maintenance coordinator, set once by the shard thread
    /// and read by the scrape.
    pub(crate) coordinator: OnceLock<Coordinator>,
    /// Ring pairs handed over by new connections, adopted by the shard loop
    /// when `inbox_new` says there are any.
    inbox_reg: Mutex<Vec<Inbox>>,
    inbox_new: AtomicBool,
    /// What the shard thread waits on: a job in any inbox, a new inbox, stop.
    waiter: Waiter,
}

impl ShardShared {
    pub(crate) fn new(
        index: usize,
        runtime: Arc<Runtime>,
        tenants: &[crate::server::TenantConfig],
        shards: usize,
    ) -> ShardShared {
        let tenants = tenants
            .iter()
            .enumerate()
            .map(|(id, t)| TenantShared {
                id: id as u16,
                name: t.name.clone(),
                // The tenant budget is split evenly across shards: each
                // shard enforces its slice locally, no cross-shard locks.
                budget_bytes: t.budget_bytes.map(|b| (b / shards.max(1) as u64).max(1)),
                ctx: OnceLock::new(),
                over_budget_errors: AtomicU64::new(0),
            })
            .collect();
        ShardShared {
            index,
            stop: AtomicBool::new(false),
            requests_served: AtomicU64::new(0),
            runtime,
            tenants,
            query_latency: Arc::new(Histogram::new()),
            coordinator: OnceLock::new(),
            inbox_reg: Mutex::new(Vec::new()),
            inbox_new: AtomicBool::new(false),
            waiter: Waiter::new(),
        }
    }

    /// Opens a ring pair into this shard for a connection that waits for
    /// its replies on `conn` (one pair per connection and shard).
    pub(crate) fn connect(&self, conn: &Arc<Waiter>) -> ShardLink {
        let (link, inbox) = link(conn);
        self.inbox_reg
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(inbox);
        self.inbox_new.store(true, Ordering::Release);
        self.waiter.wake();
        link
    }

    /// Asks the shard thread to drain and exit.
    pub(crate) fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.waiter.wake();
    }
}

impl ShardLink {
    /// Enqueues a job and wakes the shard if it sleeps; its reply will come
    /// up the reply ring. A full ring is retried for `patience` (the
    /// closed-loop backpressure path); `false` means it stayed full and the
    /// job was dropped, so no reply will come.
    #[must_use]
    pub(crate) fn send(&self, shard: &ShardShared, mut job: ShardJob, patience: Duration) -> bool {
        let deadline = clock::now() + patience.as_nanos() as u64;
        loop {
            match self.jobs.push(job) {
                Ok(()) => {
                    shard.waiter.wake();
                    return true;
                }
                Err(back) => {
                    job = back;
                    if clock::now() >= deadline {
                        return false;
                    }
                    std::thread::yield_now();
                }
            }
        }
    }

    /// The oldest unread reply, stamped with how long it waited here.
    pub(crate) fn pop_reply(&mut self) -> Option<Reply> {
        let mut r = self.replies.pop()?;
        r.timing.reply_wake_ns = clock::now().saturating_sub(r.pushed);
        Some(r)
    }
}

/// What one shard reports after draining at shutdown.
#[derive(Debug, Default)]
pub struct ShardDrain {
    /// Shard index.
    pub shard: usize,
    /// Requests the shard executed over its lifetime.
    pub requests: u64,
    /// Tenant collections that passed `Smc::verify` at drain.
    pub tenants_verified: usize,
    /// Tenant snapshots written at drain (0 without a persist dir).
    pub snapshots_written: usize,
    /// Verification failures (collection or runtime), empty when clean.
    pub verify_errors: Vec<String>,
}

/// Per-tenant state private to the shard thread.
struct TenantLocal {
    smc: Smc<Row>,
    index: HashMap<u64, Ref<Row>>,
}

/// Tunables for one shard thread.
pub(crate) struct ShardConfig {
    pub(crate) workers: usize,
    /// Server-wide persistence root; the shard owns the
    /// `shard-<index>/tenant-<id>/` subtree underneath it.
    pub(crate) persist_dir: Option<PathBuf>,
}

/// The shard thread body: builds the shard-local world, serves jobs until
/// stopped, then drains, quiesces maintenance, and verifies (satellite
/// "graceful drain" — the per-shard half).
pub(crate) fn run_shard(shared: Arc<ShardShared>, cfg: ShardConfig) -> ShardDrain {
    let runtime = shared.runtime.clone();
    // This shard's slice of the persistence tree: snapshots and the spill
    // file for tenant N live under `<persist_dir>/shard-<index>/tenant-N/`.
    let persist_root = cfg
        .persist_dir
        .as_ref()
        .map(|d| d.join(format!("shard-{}", shared.index)));
    let mut tenants: HashMap<u16, TenantLocal> = HashMap::new();
    for t in &shared.tenants {
        let config = ContextConfig {
            budget_bytes: t.budget_bytes,
            ..ContextConfig::default()
        };
        let local = match &persist_root {
            Some(root) => {
                let dir = root.join(format!("tenant-{}", t.id));
                match build_persistent_tenant(&runtime, config, &dir) {
                    Ok(local) => local,
                    Err(msg) => {
                        // Fail closed: a corrupt snapshot must not be
                        // silently shadowed by an empty collection. The
                        // shard refuses to serve; the drain report names
                        // the tenant and page so the operator can restore.
                        let msg = format!("shard {} tenant {}: {msg}", shared.index, t.name);
                        eprintln!("smc-serve: recovery failed: {msg}");
                        return ShardDrain {
                            shard: shared.index,
                            verify_errors: vec![msg],
                            ..ShardDrain::default()
                        };
                    }
                }
            }
            None => TenantLocal {
                smc: Smc::with_config(&runtime, config),
                index: HashMap::new(),
            },
        };
        t.ctx
            .set(local.smc.context().clone())
            .expect("shard thread sets each tenant context once");
        tenants.insert(t.id, local);
    }
    let pool = WorkerPool::for_runtime(&runtime, cfg.workers)
        .expect("shard worker registration exceeded the epoch thread registry");
    // Prewarm this shard thread's allocation cache so the first tenant
    // writes after startup skip the budget slow path.
    runtime.prewarm_local_blocks(smc_memory::ALLOC_BATCH);
    let coordinator = shared.coordinator.get_or_init(|| {
        Coordinator::new(MaintConfig {
            gauge: Some(shared.query_latency.clone()),
        })
    });
    for t in tenants.values() {
        t.smc.register_maintenance(coordinator, MaintPolicy);
    }

    let mut inboxes: Vec<Inbox> = Vec::new();
    loop {
        if shared.inbox_new.swap(false, Ordering::Acquire) {
            inboxes.extend(
                shared
                    .inbox_reg
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .drain(..),
            );
        }
        let mut served = 0u64;
        inboxes.retain_mut(|inbox| {
            while let Some(job) = inbox.jobs.pop() {
                let seq = job.seq;
                let (reply, timing) = execute(&shared, &mut tenants, &pool, coordinator, job);
                inbox.answer(seq, reply, timing);
                served += 1;
            }
            // A closed, drained ring belongs to a finished connection.
            !(inbox.jobs.is_closed() && inbox.jobs.is_empty())
        });
        if served > 0 {
            shared.requests_served.fetch_add(served, Ordering::Relaxed);
            continue;
        }
        let pending = || {
            shared.inbox_new.load(Ordering::Acquire) || inboxes.iter().any(|i| !i.jobs.is_empty())
        };
        if shared.stop.load(Ordering::Acquire) {
            // Stop is only requested after connection threads exit, so every
            // producer is dropped: one more adoption + drain sweep empties
            // the world, then the rings all read closed.
            if inboxes.is_empty() && !pending() {
                break;
            }
            continue;
        }
        // Going idle: spin briefly for the next job and park — untimed —
        // until a connection, `connect` or `request_stop` wakes us.
        shared.waiter.wait(None, || {
            (pending() || shared.stop.load(Ordering::Acquire)).then_some(())
        });
    }

    // Quiesce maintenance exactly (no half-moved state), let the retired
    // blocks ripen and drain the graveyard, then reconcile bit-exact.
    coordinator.quiesce();
    let mut verify_errors = Vec::new();
    let mut tenants_verified = 0usize;
    let mut snapshots_written = 0usize;
    for t in &shared.tenants {
        let local = &tenants[&t.id];
        runtime.drain_graveyard_blocking();
        match local.smc.verify() {
            Ok(_) => tenants_verified += 1,
            Err(errs) => verify_errors.extend(
                errs.into_iter()
                    .map(|e| format!("shard {} tenant {}: {e}", shared.index, t.name)),
            ),
        }
        // Snapshot the verified state: the next start recovers exactly what
        // drained. A snapshot failure is a drain error, not a panic — the
        // previous generation on disk stays intact (commit is the manifest
        // rename), so the operator still has a consistent restore point.
        if let Some(root) = &persist_root {
            let dir = root.join(format!("tenant-{}", t.id)).join("snapshot");
            match local.smc.snapshot_to(&dir) {
                Ok(_) => snapshots_written += 1,
                Err(e) => verify_errors.push(format!(
                    "shard {} tenant {}: snapshot failed: {e}",
                    shared.index, t.name
                )),
            }
        }
    }
    if let Err(errs) = runtime.verify() {
        verify_errors.extend(
            errs.into_iter()
                .map(|e| format!("shard {} runtime: {e}", shared.index)),
        );
    }
    drop(pool);
    ShardDrain {
        shard: shared.index,
        requests: shared.requests_served.load(Ordering::Relaxed),
        tenants_verified,
        snapshots_written,
        verify_errors,
    }
}

/// Builds one tenant's collection from its persistence directory: recover
/// the latest snapshot when one exists (rebuilding the key index from the
/// recovered rows), start empty otherwise, and in both cases attach the
/// tenant's spill file so a budget smaller than the dataset spills instead
/// of rejecting. Any error other than "no snapshot yet" is returned as a
/// named, fail-closed message.
fn build_persistent_tenant(
    runtime: &Arc<Runtime>,
    config: ContextConfig,
    dir: &std::path::Path,
) -> Result<TenantLocal, String> {
    let store: Arc<dyn PageStore> = Arc::new(
        SpillFile::create(dir.join("spill.dat"))
            .map_err(|e| format!("spill file {:?}: {e}", dir.join("spill.dat")))?,
    );
    let snapshot_dir = dir.join("snapshot");
    match Smc::recover_opts(
        runtime,
        RecoverOptions {
            config,
            store: Some(store.clone()),
        },
        &snapshot_dir,
    ) {
        Ok((smc, _report)) => {
            let mut index = HashMap::new();
            let guard = runtime.pin();
            smc.for_each_ref(&guard, |r, row: &Row| {
                index.insert(row.key, r);
            });
            drop(guard);
            Ok(TenantLocal { smc, index })
        }
        Err(PersistError::NoSnapshot) => {
            let smc: Smc<Row> = Smc::with_config(runtime, config);
            smc.enable_spill(store);
            Ok(TenantLocal {
                smc,
                index: HashMap::new(),
            })
        }
        Err(e) => Err(format!("recovery from {snapshot_dir:?}: {e}")),
    }
}

/// Executes one job against the shard-local state and returns its reply,
/// measuring its [`SlowBreakdown`] along the way. A traced job has
/// its [`RequestScope`] entered for the whole execution window, so scan
/// workers inherit the id and the `req.ring`/`req.shard` stage spans land
/// on the shard thread's track.
fn execute(
    shared: &ShardShared,
    tenants: &mut HashMap<u16, TenantLocal>,
    pool: &WorkerPool,
    coordinator: &Coordinator,
    job: ShardJob,
) -> (ShardReply, SlowBreakdown) {
    let exec_start = clock::now();
    let ring_wait_ns = exec_start.saturating_sub(job.enqueued);
    let _scope = job.trace.map(RequestScope::enter);
    if let Some(id) = job.trace {
        trace::emit_stage(id, "ring", ring_wait_ns);
    }
    let stats = &shared.runtime.stats;
    let faults0 = MemoryStats::get(&stats.blocks_faulted_in);

    let tenant_id = job.tenant;
    let reply = match tenants.get_mut(&tenant_id) {
        None => ShardReply::Error(
            ErrorCode::UnknownTenant,
            format!("tenant {tenant_id} is not configured"),
        ),
        Some(local) => match job.op {
            ShardOp::Upsert(rows) => upsert(shared, tenant_id, local, rows),
            ShardOp::Delete(keys) => delete(shared, local, keys),
            ShardOp::Count { lo, hi } => {
                let start = clock::now();
                let n = ParScan::new(&local.smc, pool).filter_fold(
                    || 0u64,
                    |row: &Row| row.value >= lo && row.value < hi,
                    |n, _| *n += 1,
                    |n, part| *n += part,
                );
                shared
                    .query_latency
                    .record(clock::now().saturating_sub(start));
                n.map_or_else(|e| failed(shared, "count", e), ShardReply::Counted)
            }
            ShardOp::Sum { lo, hi } => {
                let start = clock::now();
                let summed = ParScan::new(&local.smc, pool).filter_fold(
                    || (0u64, 0u64),
                    |row: &Row| row.value >= lo && row.value < hi,
                    |acc, row| {
                        acc.0 += 1;
                        acc.1 = acc.1.wrapping_add(row.value);
                    },
                    |acc, part| {
                        acc.0 += part.0;
                        acc.1 = acc.1.wrapping_add(part.1);
                    },
                );
                shared
                    .query_latency
                    .record(clock::now().saturating_sub(start));
                summed.map_or_else(
                    |e| failed(shared, "sum", e),
                    |(count, sum)| ShardReply::Summed { count, sum },
                )
            }
        },
    };

    let exec_ns = clock::now().saturating_sub(exec_start);
    if let Some(id) = job.trace {
        trace::emit_stage(id, "shard", exec_ns);
    }
    let timing = SlowBreakdown {
        ring_wait_ns,
        exec_ns,
        reply_wake_ns: 0,
        spill_faults: MemoryStats::get(&stats.blocks_faulted_in).saturating_sub(faults0),
        maint_active: coordinator.passes_active() > 0,
    };
    (reply, timing)
}

/// The answer to an operation the memory layer failed — a spilled page that
/// cannot be read back, say: an error frame, and the shard keeps serving.
fn failed(shared: &ShardShared, op: &str, e: MemError) -> ShardReply {
    let message = format!("{op} failed on shard {}: {e}", shared.index);
    ShardReply::Error(ErrorCode::Internal, message)
}

fn upsert(
    shared: &ShardShared,
    tenant_id: u16,
    local: &mut TenantLocal,
    rows: Vec<(u64, u64)>,
) -> ShardReply {
    let mut applied = 0u64;
    for (key, value) in rows {
        if let Some(&r) = local.index.get(&key) {
            let guard = shared.runtime.pin();
            match local
                .smc
                .update(r, &guard, |row: &mut Row| row.value = value)
            {
                Ok(Some(())) => {
                    applied += 1;
                    continue;
                }
                // The reference went stale (removed behind the index, which
                // only drain paths can cause); fall through to reinsert.
                Ok(None) => {
                    local.index.remove(&key);
                }
                // The row sits in a spilled page that cannot be read back:
                // answer with the error and keep serving.
                Err(e) => return failed(shared, "upsert", e),
            }
        }
        match local.smc.try_add(Row { key, value }) {
            Ok(r) => {
                local.index.insert(key, r);
                applied += 1;
            }
            Err(MemError::OutOfMemory) => {
                shared.tenants[tenant_id as usize]
                    .over_budget_errors
                    .fetch_add(1, Ordering::Relaxed);
                return ShardReply::Error(
                    ErrorCode::TenantOverBudget,
                    format!(
                        "tenant {tenant_id} over memory budget on shard {} \
                         ({applied} of batch applied)",
                        shared.index
                    ),
                );
            }
            Err(e) => return failed(shared, "upsert", e),
        }
    }
    ShardReply::Upserted(applied)
}

fn delete(shared: &ShardShared, local: &mut TenantLocal, keys: Vec<u64>) -> ShardReply {
    let mut deleted = 0u64;
    for key in keys {
        let Some(&r) = local.index.get(&key) else {
            continue;
        };
        match local.smc.try_remove(r) {
            Ok(removed) => {
                local.index.remove(&key);
                deleted += u64::from(removed);
            }
            // The row sits in a spilled page that cannot be read back: it
            // stays, so its key stays too. Answer with the error and keep
            // serving.
            Err(e) => return failed(shared, "delete", e),
        }
    }
    ShardReply::Deleted(deleted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_spreads_sequential_keys() {
        let shards = 4;
        let mut hit = vec![0usize; shards];
        for k in 0..4000u64 {
            hit[shard_of(k, shards)] += 1;
        }
        for (i, &n) in hit.iter().enumerate() {
            assert!(
                n > 500,
                "shard {i} got only {n}/4000 sequential keys: {hit:?}"
            );
        }
        // A snapshot taken by one build is recovered by the next: the
        // mapping itself must not move.
        assert_eq!(shard_of(1, 4), 1);
        assert_eq!(shard_of(0xdead_beef, 7), 2);
        assert_eq!(shard_of(u64::MAX, 3), 2);
    }

    fn idle_shard() -> Arc<ShardShared> {
        let tenants = [crate::server::TenantConfig {
            name: "t".to_string(),
            budget_bytes: None,
        }];
        Arc::new(ShardShared::new(0, Runtime::new(), &tenants, 1))
    }

    fn count_job(seq: u64) -> ShardJob {
        ShardJob {
            seq,
            tenant: 0,
            op: ShardOp::Count { lo: 0, hi: 1 },
            trace: None,
            enqueued: clock::now(),
        }
    }

    #[test]
    fn full_ring_saturates_after_patience() {
        // No shard thread: nothing drains the ring.
        let shard = idle_shard();
        let link = shard.connect(&Arc::new(Waiter::new()));
        for seq in 0..RING_CAPACITY as u64 {
            assert!(link.send(&shard, count_job(seq), Duration::ZERO));
        }
        let start = clock::now();
        let patience = Duration::from_millis(20);
        assert!(!link.send(&shard, count_job(0), patience));
        assert!(
            clock::now() - start >= patience.as_nanos() as u64,
            "leaned on the ring first"
        );
    }

    #[test]
    fn shard_with_an_empty_inbox_parks_untimed_and_answers_when_woken() {
        let shard = idle_shard();
        let cfg = ShardConfig {
            workers: 1,
            persist_dir: None,
        };
        let s = shard.clone();
        let thread = std::thread::spawn(move || run_shard(s, cfg));
        let deadline = clock::now() + 10_000_000_000;
        while !shard.waiter.is_sleeping() {
            assert!(clock::now() < deadline, "shard never went idle");
            std::thread::sleep(Duration::from_millis(1));
        }
        let before = shard.waiter.wakeups();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(shard.waiter.wakeups(), before, "an idle shard stays parked");

        // It still wakes for work: one job through a fresh ring pair.
        let conn = Arc::new(Waiter::new());
        let mut link = shard.connect(&conn);
        assert!(link.send(&shard, count_job(9), Duration::ZERO));
        let reply = conn.wait(Some(REPLY_TIMEOUT), || link.pop_reply()).unwrap();
        assert_eq!((reply.seq, reply.reply), (9, ShardReply::Counted(0)));
        drop(link);
        shard.request_stop();
        let drain = thread.join().unwrap();
        assert_eq!(drain.requests, 1);
        assert!(drain.verify_errors.is_empty(), "{:?}", drain.verify_errors);
    }
}
