//! The background compaction coordinator.
//!
//! One thread per coordinator wakes every period (125 ms) and starts at most
//! one pass per period: for the due context whose last pass is oldest. A
//! context is due when its [`MaintPolicy`] says a pass would form a group.
//! The period is measured on the process clock ([`smc_obs::clock`]); real
//! time only paces the wake-ups, so a test that holds the clock holds the
//! coordinator's decisions with it. The period is the only thing that starts
//! a pass, or runs one again: at most eight a second.
//!
//! While the foreground scan-latency gauge's p99 is at or over the SLO
//! ceiling (10 ms), a period starts nothing and counts its due contexts as
//! deferred; the next period looks again.
//!
//! A pass is one [`MemoryContext::compact`]. One that aborts or is
//! interrupted ends as [`PassOutcome::Aborted`]: the pass epilogue has
//! rolled every still-pending relocation back through the §5.1 bail path,
//! the context stays due, and a later period runs it again, after every
//! other due context has had its turn. A pass needs no deadline of its own:
//! every wait inside it gives up at the context's `compaction_patience`.
//! [`Coordinator::quiesce`] lets the in-flight pass finish; after it, the
//! heap reconciles bit-exact under `Smc::verify` (exercised end-to-end by
//! the workspace's `tests/seeded_churn.rs::coordinator_soak`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use smc_memory::MemoryContext;
use smc_obs::clock;
use smc_obs::hist::Histogram;
use smc_obs::trace::{self, Event, ShortLabel};
use smc_obs::JsonValue;

use crate::policy::MaintPolicy;

/// At most one pass starts per period of the process clock.
const PERIOD: Duration = Duration::from_millis(125);
/// Back-pressure holds while the gauge's p99 is at or above this.
const SLO_CEILING: Duration = Duration::from_millis(10);

/// The foreground-latency gauge driving back-pressure; everything else
/// about the coordinator is fixed.
#[derive(Debug, Clone, Default)]
pub struct MaintConfig {
    /// Live histogram of foreground scan latencies (shared with the
    /// workload threads that record into it). `None` disables back-pressure.
    pub gauge: Option<Arc<Histogram>>,
}

/// Outcome class of the most recent finished pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassOutcome {
    /// The pass completed.
    Done,
    /// The pass aborted (a wait outlasted the context's patience), was
    /// interrupted mid-move — its pending relocations were rolled back
    /// through the bail path — or never started, its thread refused an
    /// epoch slot; a later period runs it again.
    Aborted,
}

impl PassOutcome {
    /// Short stable token for traces and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            PassOutcome::Done => "done",
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
    /// Passes currently executing (0 or 1).
    pub passes_active: usize,
    /// Passes started.
    pub passes_planned: u64,
    /// Passes that finished successfully.
    pub passes_completed: u64,
    /// Due passes not started because the SLO was breached.
    pub passes_deferred: u64,
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
        o.set("passes_active", self.passes_active);
        o.set("passes_planned", self.passes_planned);
        o.set("passes_completed", self.passes_completed);
        o.set("passes_deferred", self.passes_deferred);
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
    /// [`clock::now`] when its last pass started.
    last_start: Option<u64>,
}

struct State {
    registrations: Vec<Registration>,
    /// Set by [`Coordinator::quiesce`]: start nothing, let the in-flight
    /// pass finish, then stop.
    quiescing: bool,
    last_pass: Option<LastPass>,
}

#[derive(Default)]
struct Counters {
    planned: AtomicU64,
    completed: AtomicU64,
    deferred: AtomicU64,
}

struct Inner {
    /// See [`MaintConfig::gauge`].
    gauge: Option<Arc<Histogram>>,
    state: Mutex<State>,
    /// The thread waits here between periods; `quiesce` notifies it.
    wake: Condvar,
    counters: Counters,
    /// Whether a pass is in flight.
    active: AtomicBool,
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
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Coordinator {
    /// Starts the coordinator's thread. Contexts are registered afterwards
    /// with [`register`](Self::register).
    pub fn new(config: MaintConfig) -> Coordinator {
        let inner = Arc::new(Inner {
            gauge: config.gauge,
            state: Mutex::new(State {
                registrations: Vec::new(),
                quiescing: false,
                last_pass: None,
            }),
            wake: Condvar::new(),
            counters: Counters::default(),
            active: AtomicBool::new(false),
            slo_breached: AtomicBool::new(false),
        });
        let thread = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("smc-maint".into())
                .spawn(move || maintenance_loop(&inner))
                .expect("spawn the maintenance thread")
        };
        Coordinator {
            inner,
            thread: Mutex::new(Some(thread)),
        }
    }

    /// Registers a context for background maintenance under `policy`.
    pub fn register(&self, ctx: Arc<MemoryContext>, policy: MaintPolicy) {
        let mut g = self.inner.lock();
        g.registrations.push(Registration {
            ctx,
            policy,
            last_start: None,
        });
    }

    /// Maintenance passes executing right now (0 or 1). One atomic load,
    /// for per-request attribution probes.
    pub fn passes_active(&self) -> usize {
        usize::from(self.inner.active.load(Ordering::Relaxed))
    }

    /// Current counters.
    pub fn snapshot(&self) -> MaintSnapshot {
        let g = self.inner.lock();
        let c = &self.inner.counters;
        MaintSnapshot {
            registered: g.registrations.len(),
            passes_active: self.passes_active(),
            passes_planned: c.planned.load(Ordering::Relaxed),
            passes_completed: c.completed.load(Ordering::Relaxed),
            passes_deferred: c.deferred.load(Ordering::Relaxed),
            slo_breached: self.inner.slo_breached.load(Ordering::Relaxed),
            last_pass: g.last_pass,
        }
    }

    /// Starts no further pass, lets the in-flight pass finish, and joins
    /// the thread. Terminal and idempotent. After `quiesce` returns the heap
    /// is at rest: `Smc::verify` reconciles bit-exact.
    pub fn quiesce(&self) {
        self.inner.lock().quiescing = true;
        self.inner.wake.notify_all();
        let thread = self.thread.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(t) = thread {
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

fn maintenance_loop(inner: &Inner) {
    let mut period_start = clock::now();
    loop {
        {
            let g = inner.lock();
            if g.quiescing {
                return;
            }
            let (g, _) = inner
                .wake
                .wait_timeout(g, PERIOD)
                .unwrap_or_else(|e| e.into_inner());
            if g.quiescing {
                return;
            }
        }
        // A period is one of the process clock. On the real clock every
        // wake-up begins one; on a held clock none does until it is moved.
        let now = clock::now();
        if now.saturating_sub(period_start) < nanos(PERIOD) {
            continue;
        }
        period_start = now;
        let Some(ctx) = plan(inner, now) else {
            continue;
        };
        let outcome = run_pass(inner, &ctx);
        let mut g = inner.lock();
        inner.active.store(false, Ordering::Relaxed);
        g.last_pass = Some(outcome);
    }
}

/// Reads the gauge against the ceiling and traces a change of state.
/// Returns the p99 in nanoseconds while breached.
fn slo_breach(inner: &Inner) -> Option<u64> {
    let p99_ns = inner.gauge.as_ref().map(|h| h.p99());
    let breached = p99_ns.is_some_and(|p| p >= nanos(SLO_CEILING));
    if breached != inner.slo_breached.swap(breached, Ordering::Relaxed) {
        trace::emit(Event::MaintSloState {
            breached,
            p99_ns: p99_ns.unwrap_or(0),
        });
        if breached {
            // Entering the breached state is a forensic moment: the window
            // of events leading up to it is exactly what an operator wants
            // preserved. No-op unless the flight recorder is armed and
            // SMC_FLIGHT_OUT is set.
            let _ = smc_obs::flight::dump("slo-breach");
        }
    }
    p99_ns.filter(|_| breached)
}

/// One period's decision. Picks the due context whose last pass is oldest
/// and marks a pass active; under a breached SLO it counts every due
/// context as deferred and picks none.
fn plan(inner: &Inner, now: u64) -> Option<Arc<MemoryContext>> {
    let breach = slo_breach(inner);
    let mut g = inner.lock();
    if g.quiescing {
        return None;
    }
    let mut pick: Option<usize> = None;
    for (i, reg) in g.registrations.iter().enumerate() {
        if !reg.policy.due(&reg.ctx) {
            continue;
        }
        if let Some(p99_ns) = breach {
            inner.counters.deferred.fetch_add(1, Ordering::Relaxed);
            trace::emit(Event::MaintDeferred {
                context: reg.ctx.id(),
                p99_ns,
                slo_ns: nanos(SLO_CEILING),
            });
        } else if pick.map_or(true, |j| reg.last_start < g.registrations[j].last_start) {
            pick = Some(i);
        }
    }
    let reg = &mut g.registrations[pick?];
    reg.last_start = Some(now);
    inner.active.store(true, Ordering::Relaxed);
    inner.counters.planned.fetch_add(1, Ordering::Relaxed);
    Some(reg.ctx.clone())
}

/// Runs one pass and releases the sources it retired. Returns the summary
/// recorded as `last_pass`.
fn run_pass(inner: &Inner, ctx: &MemoryContext) -> LastPass {
    trace::emit(Event::MaintPassStart { context: ctx.id() });
    let (outcome, moved, bailed) = match ctx.try_compact() {
        Ok(report) if !report.aborted && !report.interrupted => {
            inner.counters.completed.fetch_add(1, Ordering::Relaxed);
            (PassOutcome::Done, report.moved, report.bailed)
        }
        Ok(report) => (PassOutcome::Aborted, report.moved, report.bailed),
        // The thread could not claim an epoch slot: no pass ran.
        Err(_) => (PassOutcome::Aborted, 0, 0),
    };
    ctx.release_retired();
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
