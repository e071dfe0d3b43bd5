//! The background compaction coordinator.
//!
//! One planner thread evaluates every registered context's [`MaintPolicy`]
//! against live heap introspection each cycle, and a small pool of worker
//! threads executes the planned passes. Three mechanisms bound the
//! foreground impact:
//!
//! * **Concurrency limit** — at most `max_concurrent_passes` workers exist,
//!   so that many passes can run at once (the runtime's compaction mutex
//!   additionally serializes passes *per runtime*).
//! * **Token-bucket pacer** — the planner takes one token per planned pass,
//!   bounding pass starts per second ([`TokenBucket`]).
//! * **SLO back-pressure** — when the foreground scan-latency gauge's p99
//!   rises past the configured ceiling, planning stops: due passes are
//!   counted as deferred and the coordinator holds off for a bounded
//!   exponentially-backed-off interval (seeded jitter, reproducible) before
//!   re-checking.
//!
//! Transient pass failures — an injected [`FaultSite::MaintPass`] trip, an
//! aborted or interrupted pass — are retried with the same seeded backoff up
//! to a retry limit. A watchdog cancels passes that hold their pin past a
//! deadline via [`MemoryContext::request_compaction_cancel`], which rolls
//! every still-pending relocation back through the protocol's §5.1 bail
//! path. [`Coordinator::quiesce`] drains in-flight work and
//! [`Coordinator::cancel`] actively cancels it; after either, the heap
//! reconciles bit-exact under `Smc::verify` (proved by the `smc-check`
//! cancel scenario and exercised end-to-end by `tests/soak.rs`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smc_memory::fault::FaultSite;
use smc_memory::inspect::HeapSnapshot;
use smc_memory::MemoryContext;
use smc_obs::hist::Histogram;
use smc_obs::trace::{self, Event, Label, ShortLabel};
use smc_util::Backoff;

use crate::pacer::TokenBucket;
use crate::policy::{MaintPolicy, PassReason};

/// Foreground-latency service-level objective driving back-pressure.
#[derive(Debug, Clone)]
pub struct SloPolicy {
    /// Live histogram of foreground scan latencies (shared with the
    /// workload threads that record into it). `None` disables back-pressure.
    pub gauge: Option<Arc<Histogram>>,
    /// Back-pressure engages while the gauge's p99 is at or above this.
    pub p99_ceiling: Duration,
    /// First hold-off interval after a breach.
    pub backoff_base: Duration,
    /// Upper bound on the hold-off interval.
    pub backoff_cap: Duration,
}

impl Default for SloPolicy {
    fn default() -> SloPolicy {
        SloPolicy {
            gauge: None,
            p99_ceiling: Duration::from_millis(10),
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(500),
        }
    }
}

/// Coordinator-wide tunables.
#[derive(Debug, Clone)]
pub struct MaintConfig {
    /// Worker threads, i.e. the global bound on passes in flight.
    pub max_concurrent_passes: usize,
    /// Token-bucket burst capacity (passes).
    pub pacer_capacity: f64,
    /// Token-bucket refill rate (passes per second).
    pub pacer_refill_per_sec: f64,
    /// A pass still running after this long is cancelled by the watchdog.
    pub watchdog_deadline: Duration,
    /// Transient failures (failpoint trips, aborted/interrupted passes) are
    /// retried at most this many times per pass.
    pub retry_limit: u32,
    /// Seed for every backoff jitter stream (retries and SLO hold-off);
    /// a fixed seed reproduces the exact delay sequences.
    pub seed: u64,
    /// Planner cycle period.
    pub poll_interval: Duration,
    /// Foreground-latency SLO; see [`SloPolicy`].
    pub slo: SloPolicy,
}

impl Default for MaintConfig {
    fn default() -> MaintConfig {
        MaintConfig {
            max_concurrent_passes: 1,
            pacer_capacity: 4.0,
            pacer_refill_per_sec: 8.0,
            watchdog_deadline: Duration::from_secs(2),
            retry_limit: 5,
            seed: 0x5eed_5eed,
            poll_interval: Duration::from_millis(10),
            slo: SloPolicy::default(),
        }
    }
}

/// Outcome class of the most recent finished pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassOutcome {
    /// The pass completed and retired blocks were released.
    Done,
    /// The pass was cancelled (watchdog or [`Coordinator::cancel`]); pending
    /// relocations were rolled back through the bail path.
    Cancelled,
    /// The pass kept failing transiently past the retry limit.
    Aborted,
}

impl PassOutcome {
    /// Short stable token for traces and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            PassOutcome::Done => "done",
            PassOutcome::Cancelled => "cancel",
            PassOutcome::Aborted => "abort",
        }
    }
}

/// Summary of the last finished pass, for `smc-top` and reports.
#[derive(Debug, Clone, Copy)]
pub struct LastPass {
    /// Context the pass ran against.
    pub context_id: u64,
    /// How the pass ended.
    pub outcome: PassOutcome,
    /// Objects moved.
    pub moved: usize,
    /// Relocations rolled back through the bail path.
    pub bailed: usize,
}

/// Point-in-time counters for dashboards and reports. All counters are
/// cumulative since coordinator construction.
#[derive(Debug, Clone, Default)]
pub struct MaintSnapshot {
    /// Contexts currently registered.
    pub registered: usize,
    /// Planned passes waiting for a worker.
    pub queue_depth: usize,
    /// Passes currently executing.
    pub passes_active: usize,
    /// Passes the planner enqueued.
    pub passes_planned: u64,
    /// Passes that finished successfully.
    pub passes_completed: u64,
    /// Due passes not planned because the SLO was breached.
    pub passes_deferred: u64,
    /// Due passes not planned because the pacer was out of tokens.
    pub passes_throttled: u64,
    /// Transient-failure retries across all passes.
    pub passes_retried: u64,
    /// Passes that ended cancelled.
    pub passes_cancelled: u64,
    /// Passes the watchdog cancelled for exceeding the deadline.
    pub watchdog_cancels: u64,
    /// Planning cycles skipped by an injected [`FaultSite::MaintPlan`] trip.
    pub plan_faults: u64,
    /// Whether back-pressure is currently engaged.
    pub slo_breached: bool,
    /// The most recently finished pass, if any.
    pub last_pass: Option<LastPass>,
}

struct Registration {
    ctx: Arc<MemoryContext>,
    policy: MaintPolicy,
    last_pass: Option<Instant>,
    forced: bool,
}

struct Planned {
    ctx: Arc<MemoryContext>,
    reason: PassReason,
    /// For [`PassReason::Spill`]: the resident-byte watermark the pass
    /// evicts toward, computed at planning time from the policy ratio and
    /// the snapshot's budget. `None` for every other reason.
    spill_target: Option<u64>,
}

struct InFlight {
    context_id: u64,
    ctx: Arc<MemoryContext>,
    started: Instant,
    watchdog_fired: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Running,
    /// Stop planning, drain in-flight passes, then stop.
    Quiescing,
    /// Stop planning, cancel in-flight passes, then stop.
    Cancelling,
}

struct State {
    registrations: Vec<Registration>,
    queue: VecDeque<Planned>,
    in_flight: Vec<InFlight>,
    mode: Mode,
    last_pass: Option<LastPass>,
}

struct Counters {
    planned: AtomicU64,
    completed: AtomicU64,
    deferred: AtomicU64,
    throttled: AtomicU64,
    retried: AtomicU64,
    cancelled: AtomicU64,
    watchdog_cancels: AtomicU64,
    plan_faults: AtomicU64,
}

struct Inner {
    config: MaintConfig,
    state: Mutex<State>,
    /// Workers wait here for queued passes; quiesce/cancel wait here for the
    /// in-flight list to drain.
    work_cv: Condvar,
    counters: Counters,
    /// Runtime-adjustable SLO ceiling in nanoseconds (`tests/soak.rs` flips
    /// it to zero to force deterministic back-pressure).
    slo_ceiling_ns: AtomicU64,
    slo_breached: AtomicBool,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Handle to the background maintenance coordinator. Dropping the handle
/// quiesces the coordinator (see [`Coordinator::quiesce`]).
pub struct Coordinator {
    inner: Arc<Inner>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Coordinator {
    /// Starts the coordinator: one planner thread plus
    /// `config.max_concurrent_passes` workers. Contexts are registered
    /// afterwards with [`register`](Self::register).
    pub fn new(config: MaintConfig) -> Coordinator {
        let workers = config.max_concurrent_passes.max(1);
        let slo_ceiling_ns = config.slo.p99_ceiling.as_nanos().min(u64::MAX as u128) as u64;
        let inner = Arc::new(Inner {
            config,
            state: Mutex::new(State {
                registrations: Vec::new(),
                queue: VecDeque::new(),
                in_flight: Vec::new(),
                mode: Mode::Running,
                last_pass: None,
            }),
            work_cv: Condvar::new(),
            counters: Counters {
                planned: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                deferred: AtomicU64::new(0),
                throttled: AtomicU64::new(0),
                retried: AtomicU64::new(0),
                cancelled: AtomicU64::new(0),
                watchdog_cancels: AtomicU64::new(0),
                plan_faults: AtomicU64::new(0),
            },
            slo_ceiling_ns: AtomicU64::new(slo_ceiling_ns),
            slo_breached: AtomicBool::new(false),
        });
        let mut threads = Vec::with_capacity(workers + 1);
        {
            let inner = inner.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("smc-maint-plan".into())
                    .spawn(move || planner_loop(&inner))
                    .expect("spawn planner"),
            );
        }
        for w in 0..workers {
            let inner = inner.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("smc-maint-{w}"))
                    .spawn(move || worker_loop(&inner, w as u64))
                    .expect("spawn worker"),
            );
        }
        Coordinator {
            inner,
            threads: Mutex::new(threads),
        }
    }

    /// Registers a context for background maintenance under `policy`.
    pub fn register(&self, ctx: Arc<MemoryContext>, policy: MaintPolicy) {
        let mut g = self.inner.lock();
        g.registrations.push(Registration {
            ctx,
            policy,
            last_pass: None,
            forced: false,
        });
    }

    /// Marks a registered context force-due: the next planning cycle
    /// schedules a pass for it regardless of thresholds or `min_interval`
    /// (the pacer and SLO back-pressure still apply).
    pub fn nudge(&self, context_id: u64) {
        let mut g = self.inner.lock();
        for reg in &mut g.registrations {
            if reg.ctx.id() == context_id {
                reg.forced = true;
            }
        }
    }

    /// Replaces the SLO p99 ceiling at runtime. `Duration::ZERO` forces the
    /// breached state (every observable p99 is ≥ 0), which the soak test uses
    /// to provoke deterministic deferrals.
    pub fn set_slo_ceiling(&self, ceiling: Duration) {
        self.inner.slo_ceiling_ns.store(
            ceiling.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }

    /// Maintenance passes executing right now. Cheaper than
    /// [`snapshot`](Self::snapshot) for per-request attribution probes.
    pub fn passes_active(&self) -> usize {
        self.inner.lock().in_flight.len()
    }

    /// Current counters and queue state.
    pub fn snapshot(&self) -> MaintSnapshot {
        let g = self.inner.lock();
        let c = &self.inner.counters;
        MaintSnapshot {
            registered: g.registrations.len(),
            queue_depth: g.queue.len(),
            passes_active: g.in_flight.len(),
            passes_planned: c.planned.load(Ordering::Relaxed),
            passes_completed: c.completed.load(Ordering::Relaxed),
            passes_deferred: c.deferred.load(Ordering::Relaxed),
            passes_throttled: c.throttled.load(Ordering::Relaxed),
            passes_retried: c.retried.load(Ordering::Relaxed),
            passes_cancelled: c.cancelled.load(Ordering::Relaxed),
            watchdog_cancels: c.watchdog_cancels.load(Ordering::Relaxed),
            plan_faults: c.plan_faults.load(Ordering::Relaxed),
            slo_breached: self.inner.slo_breached.load(Ordering::Relaxed),
            last_pass: g.last_pass,
        }
    }

    /// Stops planning, discards queued (not yet started) passes, lets every
    /// in-flight pass finish, and joins all threads. Terminal and
    /// idempotent. After `quiesce` returns the heap is at rest: `Smc::verify`
    /// reconciles bit-exact.
    pub fn quiesce(&self) {
        self.shutdown(Mode::Quiescing);
    }

    /// Like [`quiesce`](Self::quiesce), but actively cancels in-flight
    /// passes via [`MemoryContext::request_compaction_cancel`] instead of
    /// waiting them out. Pending relocations roll back through the bail
    /// path, so `Smc::verify` still reconciles bit-exact afterwards.
    pub fn cancel(&self) {
        self.shutdown(Mode::Cancelling);
    }

    fn shutdown(&self, mode: Mode) {
        {
            let mut g = self.inner.lock();
            if g.mode == Mode::Running {
                g.mode = mode;
            }
            g.queue.clear();
            if mode == Mode::Cancelling {
                for inf in &g.in_flight {
                    inf.ctx.request_compaction_cancel();
                }
            }
            self.inner.work_cv.notify_all();
        }
        let threads = std::mem::take(&mut *self.threads.lock().unwrap_or_else(|e| e.into_inner()));
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.quiesce();
    }
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

fn planner_loop(inner: &Inner) {
    let cfg = &inner.config;
    let mut pacer = TokenBucket::new(cfg.pacer_capacity, cfg.pacer_refill_per_sec);
    let mut slo_backoff = Backoff::new(
        cfg.seed ^ 0x510_b0ff,
        cfg.slo.backoff_base,
        cfg.slo.backoff_cap,
    );
    let mut hold_until: Option<Instant> = None;
    loop {
        // Sleep one cycle (interruptibly: shutdown notifies the condvar).
        {
            let g = inner.lock();
            if g.mode != Mode::Running {
                return;
            }
            let (g, _) = inner
                .work_cv
                .wait_timeout(g, cfg.poll_interval)
                .unwrap_or_else(|e| e.into_inner());
            if g.mode != Mode::Running {
                return;
            }
        }
        let now = Instant::now();

        // Watchdog: cancel passes running past the deadline.
        {
            let mut g = inner.lock();
            for inf in &mut g.in_flight {
                if !inf.watchdog_fired
                    && now.saturating_duration_since(inf.started) >= cfg.watchdog_deadline
                {
                    inf.watchdog_fired = true;
                    inf.ctx.request_compaction_cancel();
                    inner
                        .counters
                        .watchdog_cancels
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        // SLO back-pressure: while breached, count due work as deferred and
        // hold off for a (seeded, bounded-exponential) interval before the
        // next re-check; on recovery the backoff envelope resets.
        let ceiling_ns = inner.slo_ceiling_ns.load(Ordering::Relaxed);
        let p99_ns = cfg.slo.gauge.as_ref().map(|h| h.p99());
        let over_ceiling = p99_ns.is_some_and(|p| p >= ceiling_ns);
        let holding = hold_until.is_some_and(|t| now < t);
        let breached = over_ceiling || holding;
        if breached != inner.slo_breached.swap(breached, Ordering::Relaxed) {
            trace::emit(Event::MaintSloState {
                breached,
                p99_ns: p99_ns.unwrap_or(0),
            });
            if breached {
                // Entering the breached state is a forensic moment: the
                // window of events leading up to it is exactly what an
                // operator wants preserved. No-op unless the flight
                // recorder is armed and SMC_FLIGHT_OUT is set.
                let _ = smc_obs::flight::dump("slo-breach");
            }
        }
        if over_ceiling && !holding {
            hold_until = Some(now + slo_backoff.next_delay());
        }
        if !breached {
            hold_until = None;
            if slo_backoff.attempt() > 0 {
                slo_backoff.reset();
            }
        }

        // Transient planning failure (injected): skip this cycle, retry next.
        let plan_fault = {
            let g = inner.lock();
            g.registrations
                .first()
                .is_some_and(|r| r.ctx.runtime().faults().should_fail(FaultSite::MaintPlan))
        };
        if plan_fault {
            inner.counters.plan_faults.fetch_add(1, Ordering::Relaxed);
            continue;
        }

        // Evaluate policies under the state lock (snapshot capture pins a
        // short-lived epoch guard; workers never hold this lock across a
        // pass, so the hold time stays bounded). The registration list is
        // append-only, so the collected indexes stay valid after unlocking.
        let due = {
            let g = inner.lock();
            if g.mode != Mode::Running {
                return;
            }
            let mut due: Vec<(usize, PassReason, Option<u64>)> = Vec::new();
            let busy: Vec<u64> = g
                .queue
                .iter()
                .map(|p| p.ctx.id())
                .chain(g.in_flight.iter().map(|i| i.context_id))
                .collect();
            for (i, reg) in g.registrations.iter().enumerate() {
                if busy.contains(&reg.ctx.id()) {
                    continue;
                }
                if reg.forced {
                    due.push((i, PassReason::Nudge, None));
                    continue;
                }
                if reg
                    .last_pass
                    .is_some_and(|t| now.saturating_duration_since(t) < reg.policy.min_interval)
                {
                    continue;
                }
                let snap = HeapSnapshot::capture(reg.ctx.runtime(), &[&reg.ctx])
                    .collections
                    .into_iter()
                    .next();
                let Some(snap) = snap else { continue };
                if let Some(reason) = reg.policy.due(&snap) {
                    let target = (reason == PassReason::Spill)
                        .then(|| reg.policy.spill_target_bytes(&snap))
                        .flatten();
                    due.push((i, reason, target));
                }
            }
            due
        };

        for (idx, reason, spill_target) in due {
            // Spill bypasses SLO deferral: eviction is how a budget-hot
            // context sheds pressure, and deferring it under back-pressure
            // only turns budget heat into allocation rejections.
            if breached && reason != PassReason::Spill {
                let g = inner.lock();
                let Some(reg) = g.registrations.get(idx) else {
                    continue;
                };
                inner.counters.deferred.fetch_add(1, Ordering::Relaxed);
                trace::emit(Event::MaintDeferred {
                    context: reg.ctx.id(),
                    p99_ns: p99_ns.unwrap_or(0),
                    slo_ns: ceiling_ns,
                });
                continue;
            }
            if !pacer.try_take(now) {
                inner.counters.throttled.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let mut g = inner.lock();
            if g.mode != Mode::Running {
                return;
            }
            let Some(reg) = g.registrations.get_mut(idx) else {
                continue;
            };
            reg.forced = false;
            reg.last_pass = Some(now);
            let ctx = reg.ctx.clone();
            g.queue.push_back(Planned {
                ctx,
                reason,
                spill_target,
            });
            inner.counters.planned.fetch_add(1, Ordering::Relaxed);
            inner.work_cv.notify_all();
        }
    }
}

fn worker_loop(inner: &Inner, worker: u64) {
    let cfg = &inner.config;
    loop {
        // Claim the next planned pass (or exit on shutdown once idle).
        let planned = {
            let mut g = inner.lock();
            loop {
                if let Some(p) = g.queue.pop_front() {
                    g.in_flight.push(InFlight {
                        context_id: p.ctx.id(),
                        ctx: p.ctx.clone(),
                        started: Instant::now(),
                        watchdog_fired: false,
                    });
                    break Some(p);
                }
                if g.mode != Mode::Running {
                    break None;
                }
                g = inner
                    .work_cv
                    .wait_timeout(g, cfg.poll_interval)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        };
        let Some(planned) = planned else { return };

        let outcome = run_pass(inner, worker, &planned);

        let mut g = inner.lock();
        g.in_flight.retain(|i| i.context_id != planned.ctx.id());
        g.last_pass = Some(outcome);
        // Wake shutdown waiters (and idle workers re-checking the mode).
        inner.work_cv.notify_all();
    }
}

/// Executes one planned pass with transient-failure retries. Returns the
/// summary recorded as `last_pass`.
fn run_pass(inner: &Inner, worker: u64, planned: &Planned) -> LastPass {
    let cfg = &inner.config;
    let ctx = &planned.ctx;
    let mut backoff = Backoff::new(
        cfg.seed ^ ctx.id().rotate_left(32) ^ worker,
        Duration::from_micros(200),
        Duration::from_millis(20),
    );
    trace::emit(Event::MaintPassStart {
        context: ctx.id(),
        reason: Label::new(planned.reason.as_str()),
    });
    let mut moved = 0usize;
    let mut bailed = 0usize;
    let outcome = loop {
        let cancelling = { inner.lock().mode == Mode::Cancelling };
        if cancelling {
            break PassOutcome::Cancelled;
        }
        // Spill pass: evict cold blocks toward the watermark instead of
        // compacting. `moved` counts evicted blocks in the pass summary.
        // The loop is bounded by the context's block count; a store
        // failure (try_spill_one returns false after rollback) ends the
        // pass with whatever progress was made.
        if planned.reason == PassReason::Spill {
            let target = planned.spill_target.unwrap_or(0);
            while ctx.bytes() as u64 > target {
                if inner.lock().mode == Mode::Cancelling {
                    break;
                }
                if !ctx.try_spill_one() {
                    break;
                }
                moved += 1;
            }
            break PassOutcome::Done;
        }
        // Injected transient failure before the pass proper.
        if ctx.runtime().faults().should_fail(FaultSite::MaintPass) {
            if backoff.attempt() >= cfg.retry_limit {
                break PassOutcome::Aborted;
            }
            inner.counters.retried.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(backoff.next_delay());
            continue;
        }
        let report = ctx.compact();
        moved += report.moved;
        bailed += report.bailed;
        if report.cancelled {
            break PassOutcome::Cancelled;
        }
        if report.aborted || report.interrupted {
            if backoff.attempt() >= cfg.retry_limit {
                break PassOutcome::Aborted;
            }
            inner.counters.retried.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(backoff.next_delay());
            continue;
        }
        ctx.release_retired();
        break PassOutcome::Done;
    };
    match outcome {
        PassOutcome::Done => {
            inner.counters.completed.fetch_add(1, Ordering::Relaxed);
        }
        PassOutcome::Cancelled => {
            inner.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        }
        PassOutcome::Aborted => {}
    }
    trace::emit(Event::MaintPassEnd {
        context: ctx.id(),
        moved: moved as u64,
        bailed: bailed as u64,
        outcome: ShortLabel::new(outcome.as_str()),
    });
    LastPass {
        context_id: ctx.id(),
        outcome,
        moved,
        bailed,
    }
}
