//! Token-passing deterministic scheduler over real OS threads.
//!
//! Exactly one virtual thread holds the token at any time. Before each shared
//! operation the running thread calls [`switch_point`], which hands the
//! decision to the execution's [`crate::explore::Chooser`]: either the
//! current thread continues (free) or another runnable thread is resumed (a
//! *preemption*, counted against the exploration bound). Spin events mark the
//! current thread *yielded* — it is excluded from the enabled set until it is
//! explicitly rescheduled or every live thread has yielded (at which point all
//! yields are cleared, modelling "some spin eventually observes progress").
//!
//! A step budget bounds each execution; exceeding it is reported as a
//! violation ("step budget exceeded"), which doubles as a livelock detector.

use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::explore::Chooser;

/// One scheduling decision, recorded for trace-driven DFS backtracking.
#[derive(Debug, Clone)]
pub struct Decision {
    /// Threads that were eligible to run at this point (post yield-clearing).
    pub enabled: Vec<usize>,
    /// The thread that held the token when the decision was made.
    pub current: usize,
    /// Whether `current` itself was in `enabled` — if so, picking anything
    /// else costs a preemption.
    pub current_enabled: bool,
    /// The thread the chooser picked.
    pub chosen: usize,
}

/// Result of driving one execution to completion (or abortion).
#[derive(Debug)]
pub struct ExecOutcome {
    /// Every decision taken, in order.
    pub trace: Vec<Decision>,
    /// First assertion/panic message observed, if any.
    pub failure: Option<String>,
}

struct SchedState {
    current: usize,
    runnable: Vec<bool>,
    yielded: Vec<bool>,
    live: usize,
    steps: usize,
    max_steps: usize,
    trace: Vec<Decision>,
    chooser: Box<dyn Chooser + Send>,
    failure: Option<String>,
    abort: bool,
}

struct Inner {
    state: Mutex<SchedState>,
    cv: Condvar,
}

/// Unwind payload used to tear a virtual thread down after an abort without
/// reporting it as a scenario failure.
struct Aborted;

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Inner>, usize)>> = const { RefCell::new(None) };
}

fn lock(inner: &Inner) -> MutexGuard<'_, SchedState> {
    inner.state.lock().unwrap_or_else(|e| e.into_inner())
}

/// Reports a scheduling point from the currently running virtual thread.
///
/// `spin` marks the call as a failed-progress retry (a spin iteration): the
/// thread is descheduled until chosen again or until every thread has spun.
/// No-op when called from a thread the checker does not manage, so
/// instrumented `smc-memory` code keeps working on driver/test threads —
/// their thread-local destructors included (an exiting thread gives its epoch
/// slot back through an instrumented store, possibly after `CURRENT` is gone).
pub fn switch_point(spin: bool) {
    let ctx = CURRENT.try_with(|c| c.borrow().clone());
    if let Ok(Some((inner, me))) = ctx {
        switch(&inner, me, spin);
    }
}

fn enabled_set(st: &mut SchedState) -> Vec<usize> {
    let mut enabled: Vec<usize> = (0..st.runnable.len())
        .filter(|&t| st.runnable[t] && !st.yielded[t])
        .collect();
    if enabled.is_empty() {
        // Every live thread is spinning: clear the yields so one of them can
        // retry (its awaited condition may be satisfiable only by itself on a
        // later branch, and livelocks are caught by the step budget anyway).
        for y in st.yielded.iter_mut() {
            *y = false;
        }
        enabled = (0..st.runnable.len()).filter(|&t| st.runnable[t]).collect();
    }
    enabled
}

fn switch(inner: &Inner, me: usize, spin: bool) {
    // Drop handlers running during a panic unwind may hit instrumented
    // operations; unwinding via `resume_unwind` from inside a drop would be a
    // double panic (process abort), so aborted switch points become no-ops
    // while the thread is already unwinding.
    let unwinding = std::thread::panicking();
    let mut st = lock(inner);
    if st.abort {
        drop(st);
        if unwinding {
            return;
        }
        resume_unwind(Box::new(Aborted));
    }
    st.steps += 1;
    if st.steps > st.max_steps {
        if st.failure.is_none() {
            st.failure = Some(format!(
                "step budget exceeded ({} steps): possible livelock",
                st.max_steps
            ));
        }
        st.abort = true;
        inner.cv.notify_all();
        drop(st);
        if unwinding {
            return;
        }
        resume_unwind(Box::new(Aborted));
    }
    if spin {
        st.yielded[me] = true;
    }
    let enabled = enabled_set(&mut st);
    let current_enabled = enabled.contains(&me);
    let chosen = st.chooser.choose(&enabled, me, current_enabled);
    debug_assert!(enabled.contains(&chosen), "chooser picked disabled thread");
    st.trace.push(Decision {
        enabled,
        current: me,
        current_enabled,
        chosen,
    });
    if chosen == me {
        st.yielded[me] = false;
        return;
    }
    st.current = chosen;
    st.yielded[chosen] = false;
    inner.cv.notify_all();
    while st.current != me && !st.abort {
        st = inner.cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    if st.abort {
        drop(st);
        if unwinding {
            return;
        }
        resume_unwind(Box::new(Aborted));
    }
}

/// Called when a virtual thread's body returns (or unwinds): hands the token
/// to a successor, if any thread is still live.
fn finish(inner: &Inner, me: usize) {
    let mut st = lock(inner);
    st.runnable[me] = false;
    st.live -= 1;
    if st.live == 0 || st.abort {
        inner.cv.notify_all();
        return;
    }
    if st.current != me {
        // We were torn down while another thread holds the token (abort path
        // already handled above; this is just defensive).
        return;
    }
    let enabled = enabled_set(&mut st);
    let chosen = st.chooser.choose(&enabled, me, false);
    st.trace.push(Decision {
        enabled,
        current: me,
        current_enabled: false,
        chosen,
    });
    st.current = chosen;
    st.yielded[chosen] = false;
    inner.cv.notify_all();
}

/// Blocks until this thread is given the token for the first time.
/// Returns `false` if the execution aborted before that happened.
fn wait_for_token(inner: &Inner, me: usize) -> bool {
    let mut st = lock(inner);
    while st.current != me && !st.abort {
        st = inner.cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    !st.abort
}

fn record_failure(inner: &Inner, msg: String) {
    let mut st = lock(inner);
    if st.failure.is_none() {
        st.failure = Some(msg);
    }
    st.abort = true;
    inner.cv.notify_all();
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs one execution of `bodies` under the given chooser, to completion or
/// abort. `finale` runs on the driver thread afterwards (single-threaded
/// oracle checks), only if the threaded part did not already fail.
pub(crate) fn run_execution(
    bodies: Vec<Box<dyn FnOnce() + Send>>,
    finale: Option<Box<dyn FnOnce() + Send>>,
    chooser: Box<dyn Chooser + Send>,
    max_steps: usize,
) -> ExecOutcome {
    let n = bodies.len();
    assert!(n > 0, "scenario has no threads");
    // The panic-hook swap below is process-global; serialize executions so
    // concurrently running checker tests can't clobber each other's hooks.
    static EXEC_LOCK: Mutex<()> = Mutex::new(());
    let _exec_guard = EXEC_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let inner = Arc::new(Inner {
        state: Mutex::new(SchedState {
            current: 0,
            runnable: vec![true; n],
            yielded: vec![false; n],
            live: n,
            steps: 0,
            max_steps,
            trace: Vec::new(),
            chooser,
            failure: None,
            abort: false,
        }),
        cv: Condvar::new(),
    });
    // Suppress the default panic printout while virtual threads run: scenario
    // assertion failures are expected output of exploration, not noise.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let handles: Vec<_> = bodies
        .into_iter()
        .enumerate()
        .map(|(tid, body)| {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name(format!("smc-check-{tid}"))
                .spawn(move || {
                    CURRENT.with(|c| *c.borrow_mut() = Some((inner.clone(), tid)));
                    if wait_for_token(&inner, tid) {
                        let result = catch_unwind(AssertUnwindSafe(body));
                        if let Err(payload) = result {
                            if !payload.is::<Aborted>() {
                                record_failure(&inner, panic_message(payload.as_ref()));
                            }
                        }
                    }
                    finish(&inner, tid);
                    CURRENT.with(|c| *c.borrow_mut() = None);
                })
                .expect("failed to spawn virtual thread")
        })
        .collect();
    for h in handles {
        let _ = h.join();
    }
    let (mut trace, mut failure) = {
        let mut st = lock(&inner);
        (std::mem::take(&mut st.trace), st.failure.take())
    };
    if failure.is_none() {
        if let Some(finale) = finale {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(finale)) {
                failure = Some(panic_message(payload.as_ref()));
            }
        }
    }
    std::panic::set_hook(prev_hook);
    // Drop enabled-set allocations for decisions nobody will inspect further
    // (the explorer only reads them; keep as-is).
    trace.shrink_to_fit();
    ExecOutcome { trace, failure }
}

/// A checkable scenario: a set of virtual-thread bodies plus an optional
/// single-threaded finale that asserts the shadow-state oracle.
///
/// The closure passed to [`Checker::check`](crate::Checker::check) is invoked
/// once per execution and must build a *fresh* scenario each time (fresh
/// shared state, fresh shadow state).
#[derive(Default)]
pub struct Scenario {
    pub(crate) threads: Vec<Box<dyn FnOnce() + Send>>,
    pub(crate) finale: Option<Box<dyn FnOnce() + Send>>,
}

impl Scenario {
    /// Creates an empty scenario.
    pub fn new() -> Scenario {
        Scenario::default()
    }

    /// Adds a virtual thread. Thread ids are assigned in call order, starting
    /// at 0; execution always starts at thread 0.
    pub fn thread(mut self, body: impl FnOnce() + Send + 'static) -> Scenario {
        self.threads.push(Box::new(body));
        self
    }

    /// Adds a single-threaded oracle check that runs after all virtual
    /// threads finished (skipped if the execution already failed).
    pub fn finally(mut self, f: impl FnOnce() + Send + 'static) -> Scenario {
        self.finale = Some(Box::new(f));
        self
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("threads", &self.threads.len())
            .field("has_finale", &self.finale.is_some())
            .finish()
    }
}
