//! The background compaction coordinator.
//!
//! One planner thread evaluates every registered context's [`MaintPolicy`]
//! against live heap introspection every 10 ms, and one worker thread
//! executes the planned passes, one at a time. Two mechanisms bound the
//! foreground impact beyond that:
//!
//! * **Token-bucket pacer** — the planner takes one token per planned pass
//!   (a burst of 4, refilled at 8 a second), bounding pass starts per
//!   second.
//! * **SLO back-pressure** — when the foreground scan-latency gauge's p99
//!   rises past [`MaintConfig::p99_ceiling`], planning stops: due passes are
//!   counted as deferred and the coordinator holds off for a bounded
//!   exponentially-backed-off interval (5 ms doubling to 500 ms, seeded
//!   jitter, reproducible) before re-checking.
//!
//! Transient pass failures — an injected [`FaultSite::MaintPass`] trip, an
//! aborted or interrupted pass — are retried with seeded backoff up to five
//! times. A watchdog cancels a pass still running after 2 s via
//! [`MemoryContext::request_compaction_cancel`], which rolls every
//! still-pending relocation back through the protocol's §5.1 bail path.
//! [`Coordinator::quiesce`] drains in-flight work and
//! [`Coordinator::cancel`] actively cancels it; after either, the heap
//! reconciles bit-exact under `Smc::verify` (proved by the `smc-check`
//! cancel scenario and exercised end-to-end by `tests/soak.rs`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use smc_memory::fault::FaultSite;
use smc_memory::inspect::HeapSnapshot;
use smc_memory::MemoryContext;
use smc_obs::clock;
use smc_obs::hist::Histogram;
use smc_obs::trace::{self, Event, Label, ShortLabel};
use smc_obs::JsonValue;
use smc_util::Backoff;

use crate::pacer::TokenBucket;
use crate::policy::{MaintPolicy, PassReason};

/// Planner cycle period.
const POLL_INTERVAL: Duration = Duration::from_millis(10);
/// Token-bucket burst capacity (passes).
const PACER_CAPACITY: f64 = 4.0;
/// Token-bucket refill rate (passes per second).
const PACER_REFILL_PER_SEC: f64 = 8.0;
/// A pass still running after this long is cancelled by the watchdog.
const WATCHDOG_DEADLINE: Duration = Duration::from_secs(2);
/// Transient failures (failpoint trips, aborted/interrupted passes) are
/// retried at most this many times per pass.
const RETRY_LIMIT: u32 = 5;
/// Seed of every backoff jitter stream (retries and SLO hold-off), so the
/// delay sequences reproduce.
const SEED: u64 = 0x5eed_5eed;
/// First SLO hold-off interval after a breach, and its upper bound.
const SLO_BACKOFF_BASE: Duration = Duration::from_millis(5);
const SLO_BACKOFF_CAP: Duration = Duration::from_millis(500);

/// The foreground-latency objective driving back-pressure; everything else
/// about the coordinator is fixed.
#[derive(Debug, Clone)]
pub struct MaintConfig {
    /// Live histogram of foreground scan latencies (shared with the
    /// workload threads that record into it). `None` disables back-pressure.
    pub gauge: Option<Arc<Histogram>>,
    /// Back-pressure engages while the gauge's p99 is at or above this.
    pub p99_ceiling: Duration,
}

impl Default for MaintConfig {
    fn default() -> MaintConfig {
        MaintConfig {
            gauge: None,
            p99_ceiling: Duration::from_millis(10),
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

/// Summary of the last finished pass, for the scrape document and reports.
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
    /// Planned passes waiting for the worker.
    pub queue_depth: usize,
    /// Passes currently executing (0 or 1).
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

impl MaintSnapshot {
    /// Every field as one JSON object (the per-shard `maint` entry of
    /// `smc-serve`'s scrape document); `last_pass` is `null` before the
    /// first finished pass.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::obj();
        o.set("registered", self.registered);
        o.set("queue_depth", self.queue_depth);
        o.set("passes_active", self.passes_active);
        o.set("passes_planned", self.passes_planned);
        o.set("passes_completed", self.passes_completed);
        o.set("passes_deferred", self.passes_deferred);
        o.set("passes_throttled", self.passes_throttled);
        o.set("passes_retried", self.passes_retried);
        o.set("passes_cancelled", self.passes_cancelled);
        o.set("watchdog_cancels", self.watchdog_cancels);
        o.set("plan_faults", self.plan_faults);
        o.set("slo_breached", self.slo_breached);
        let last = self.last_pass.map_or(JsonValue::Null, |lp| {
            let mut l = JsonValue::obj();
            l.set("context_id", lp.context_id);
            l.set("outcome", lp.outcome.as_str());
            l.set("moved", lp.moved);
            l.set("bailed", lp.bailed);
            l
        });
        o.set("last_pass", last);
        o
    }
}

struct Registration {
    ctx: Arc<MemoryContext>,
    policy: MaintPolicy,
    /// [`clock::now`] when the planner last queued a pass for it.
    last_pass: Option<u64>,
    forced: bool,
}

struct Planned {
    ctx: Arc<MemoryContext>,
    reason: PassReason,
}

struct InFlight {
    ctx: Arc<MemoryContext>,
    /// [`clock::now`] when the worker claimed the pass.
    started: u64,
    watchdog_fired: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Running,
    /// Stop planning, drain the in-flight pass, then stop.
    Quiescing,
    /// Stop planning, cancel the in-flight pass, then stop.
    Cancelling,
}

struct State {
    registrations: Vec<Registration>,
    queue: VecDeque<Planned>,
    /// The pass the worker is executing.
    in_flight: Option<InFlight>,
    mode: Mode,
    last_pass: Option<LastPass>,
}

#[derive(Default)]
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
    /// See [`MaintConfig::gauge`].
    gauge: Option<Arc<Histogram>>,
    state: Mutex<State>,
    /// The worker waits here for queued passes, the planner for its next
    /// cycle; every enqueue, finished pass and shutdown notifies it.
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
    /// Starts the coordinator: one planner thread and one worker thread.
    /// Contexts are registered afterwards with [`register`](Self::register).
    pub fn new(config: MaintConfig) -> Coordinator {
        let inner = Arc::new(Inner {
            gauge: config.gauge,
            state: Mutex::new(State {
                registrations: Vec::new(),
                queue: VecDeque::new(),
                in_flight: None,
                mode: Mode::Running,
                last_pass: None,
            }),
            work_cv: Condvar::new(),
            counters: Counters::default(),
            slo_ceiling_ns: AtomicU64::new(nanos(config.p99_ceiling)),
            slo_breached: AtomicBool::new(false),
        });
        let spawn = |name: &str, body: fn(&Inner)| {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name(name.into())
                .spawn(move || body(&inner))
                .expect("spawn a maintenance thread")
        };
        let threads = vec![
            spawn("smc-maint-plan", planner_loop),
            spawn("smc-maint-work", worker_loop),
        ];
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
        self.inner
            .slo_ceiling_ns
            .store(nanos(ceiling), Ordering::Relaxed);
    }

    /// Maintenance passes executing right now (0 or 1). Cheaper than
    /// [`snapshot`](Self::snapshot) for per-request attribution probes.
    pub fn passes_active(&self) -> usize {
        usize::from(self.inner.lock().in_flight.is_some())
    }

    /// Current counters and queue state.
    pub fn snapshot(&self) -> MaintSnapshot {
        let g = self.inner.lock();
        let c = &self.inner.counters;
        MaintSnapshot {
            registered: g.registrations.len(),
            queue_depth: g.queue.len(),
            passes_active: usize::from(g.in_flight.is_some()),
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

    /// Stops planning, discards queued (not yet started) passes, lets the
    /// in-flight pass finish, and joins both threads. Terminal and
    /// idempotent. After `quiesce` returns the heap is at rest: `Smc::verify`
    /// reconciles bit-exact.
    pub fn quiesce(&self) {
        self.shutdown(Mode::Quiescing);
    }

    /// Like [`quiesce`](Self::quiesce), but actively cancels the in-flight
    /// pass via [`MemoryContext::request_compaction_cancel`] instead of
    /// waiting it out. Pending relocations roll back through the bail
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
            if let (Mode::Cancelling, Some(inf)) = (mode, &g.in_flight) {
                inf.ctx.request_compaction_cancel();
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

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

fn planner_loop(inner: &Inner) {
    let mut pacer = TokenBucket::new(PACER_CAPACITY, PACER_REFILL_PER_SEC);
    let mut slo_backoff = Backoff::new(SEED ^ 0x510_b0ff, SLO_BACKOFF_BASE, SLO_BACKOFF_CAP);
    let mut hold_until: Option<u64> = None;
    loop {
        // Sleep one cycle (interruptibly: shutdown notifies the condvar).
        {
            let g = inner.lock();
            if g.mode != Mode::Running {
                return;
            }
            let (g, _) = inner
                .work_cv
                .wait_timeout(g, POLL_INTERVAL)
                .unwrap_or_else(|e| e.into_inner());
            if g.mode != Mode::Running {
                return;
            }
        }
        let now = clock::now();

        // Watchdog: cancel a pass running past the deadline.
        if let Some(inf) = &mut inner.lock().in_flight {
            if !inf.watchdog_fired && now.saturating_sub(inf.started) >= nanos(WATCHDOG_DEADLINE) {
                inf.watchdog_fired = true;
                inf.ctx.request_compaction_cancel();
                inner
                    .counters
                    .watchdog_cancels
                    .fetch_add(1, Ordering::Relaxed);
            }
        }

        // SLO back-pressure: while breached, count due work as deferred and
        // hold off for a (seeded, bounded-exponential) interval before the
        // next re-check; on recovery the backoff envelope resets.
        let ceiling_ns = inner.slo_ceiling_ns.load(Ordering::Relaxed);
        let p99_ns = inner.gauge.as_ref().map(|h| h.p99());
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
            hold_until = Some(now + nanos(slo_backoff.next_delay()));
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
        // short-lived epoch guard; the worker never holds this lock across a
        // pass, so the hold time stays bounded). The registration list is
        // append-only, so the collected indexes stay valid after unlocking.
        let due = {
            let g = inner.lock();
            if g.mode != Mode::Running {
                return;
            }
            let mut due: Vec<(usize, PassReason)> = Vec::new();
            let busy: Vec<u64> = g
                .queue
                .iter()
                .map(|p| p.ctx.id())
                .chain(g.in_flight.iter().map(|i| i.ctx.id()))
                .collect();
            for (i, reg) in g.registrations.iter().enumerate() {
                if busy.contains(&reg.ctx.id()) {
                    continue;
                }
                if reg.forced {
                    due.push((i, PassReason::Nudge));
                    continue;
                }
                if reg
                    .last_pass
                    .is_some_and(|t| now.saturating_sub(t) < nanos(reg.policy.min_interval))
                {
                    continue;
                }
                let snap = HeapSnapshot::capture(reg.ctx.runtime(), &[&reg.ctx])
                    .collections
                    .into_iter()
                    .next();
                if let Some(reason) = snap.and_then(|s| reg.policy.due(&s)) {
                    due.push((i, reason));
                }
            }
            due
        };

        for (idx, reason) in due {
            if breached {
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
            g.queue.push_back(Planned { ctx, reason });
            inner.counters.planned.fetch_add(1, Ordering::Relaxed);
            inner.work_cv.notify_all();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        // Claim the next planned pass (or exit on shutdown once idle). The
        // wait needs no timeout: every enqueue and every shutdown notifies
        // under the state lock, so no wake-up is lost.
        let planned = {
            let mut g = inner.lock();
            loop {
                if let Some(p) = g.queue.pop_front() {
                    g.in_flight = Some(InFlight {
                        ctx: p.ctx.clone(),
                        started: clock::now(),
                        watchdog_fired: false,
                    });
                    break Some(p);
                }
                if g.mode != Mode::Running {
                    break None;
                }
                g = inner.work_cv.wait(g).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(planned) = planned else { return };

        let outcome = run_pass(inner, &planned);

        let mut g = inner.lock();
        g.in_flight = None;
        g.last_pass = Some(outcome);
        // Wake the planner: the context is no longer busy.
        inner.work_cv.notify_all();
    }
}

/// Executes one planned pass with transient-failure retries. Returns the
/// summary recorded as `last_pass`.
fn run_pass(inner: &Inner, planned: &Planned) -> LastPass {
    let ctx = &planned.ctx;
    let mut backoff = Backoff::new(
        SEED ^ ctx.id().rotate_left(32),
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
        if inner.lock().mode == Mode::Cancelling {
            break PassOutcome::Cancelled;
        }
        // An injected failure before the pass proper is as transient as an
        // aborted or interrupted pass.
        let failed = ctx.runtime().faults().should_fail(FaultSite::MaintPass) || {
            let report = ctx.compact();
            moved += report.moved;
            bailed += report.bailed;
            if report.cancelled {
                break PassOutcome::Cancelled;
            }
            report.aborted || report.interrupted
        };
        if !failed {
            ctx.release_retired();
            break PassOutcome::Done;
        }
        if backoff.attempt() >= RETRY_LIMIT {
            break PassOutcome::Aborted;
        }
        inner.counters.retried.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(backoff.next_delay());
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
