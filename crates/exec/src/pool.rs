//! A reusable scoped worker pool with per-worker epoch registration.
//!
//! The pool spawns its threads once and reuses them across queries: a query
//! installs a job (a `Fn(worker_index)` closure borrowing the query's local
//! state), wakes every worker, and blocks until all of them report done —
//! which is what makes handing out a *borrowed* closure sound despite the
//! threads being `'static`.
//!
//! Workers of a runtime-bound pool ([`WorkerPool::for_runtime`]) claim their
//! epoch-registry slot at spawn time, so [`MemError::TooManyThreads`] is
//! returned from the constructor instead of panicking inside a worker
//! mid-query. Slots are released when the pool drops (thread-exit TLS
//! cleanup), making them reusable by later pools.

use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use smc_memory::error::MemError;
use smc_memory::runtime::Runtime;

/// Lifetime-erased pointer to the job closure. Sound because
/// [`WorkerPool::run`] does not return until every worker finished calling
/// it, and workers never touch a job outside a `run` call (the generation
/// check).
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (callable from any thread through a shared
// reference) and outlives every use — see `JobPtr`.
unsafe impl Send for JobPtr {}

struct JobState {
    job: Option<JobPtr>,
    /// Bumped once per installed job; workers run each generation once.
    generation: u64,
    /// Workers finished with the current generation.
    completed: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<JobState>,
    work_cv: Condvar,
    done_cv: Condvar,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(|e| e.into_inner())
}

/// A fixed-size pool of persistent worker threads for morsel-driven scans.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
    runtime: Option<Arc<Runtime>>,
    /// Serializes concurrent `run` callers.
    run_lock: Mutex<()>,
}

impl WorkerPool {
    /// Spawns `threads` plain workers (no epoch registration) — for backends
    /// without a memory [`Runtime`], e.g. the managed-heap and columnstore
    /// baselines. At least one worker is always spawned.
    pub fn new(threads: usize) -> WorkerPool {
        Self::build(threads.max(1), None).expect("plain workers register nothing")
    }

    /// Spawns `threads` workers, each pre-registered with `runtime`'s epoch
    /// manager. If the thread registry cannot accommodate every worker (or an
    /// injected `ThreadClaim` fault fires), all spawned workers are torn down
    /// and the error is returned cleanly.
    pub fn for_runtime(runtime: &Arc<Runtime>, threads: usize) -> Result<WorkerPool, MemError> {
        Self::build(threads.max(1), Some(runtime.clone()))
    }

    fn build(threads: usize, runtime: Option<Arc<Runtime>>) -> Result<WorkerPool, MemError> {
        let shared = Arc::new(Shared {
            state: Mutex::new(JobState {
                job: None,
                generation: 0,
                completed: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let (tx, rx) = mpsc::channel::<Result<(), MemError>>();
        let mut handles = Vec::with_capacity(threads);
        for index in 0..threads {
            let shared = shared.clone();
            let runtime = runtime.clone();
            let tx = tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("smc-exec-{index}"))
                .spawn(move || {
                    // Claim the epoch slot before reporting ready, so registry
                    // exhaustion surfaces from the constructor.
                    let claimed = match &runtime {
                        Some(rt) => rt.epochs.thread_index().map(|_| ()),
                        None => Ok(()),
                    };
                    let ok = claimed.is_ok();
                    let _ = tx.send(claimed);
                    if ok {
                        worker_loop(&shared, index, threads);
                    }
                })
                .expect("failed to spawn worker thread");
            handles.push(handle);
        }
        drop(tx);
        let mut first_err: Option<MemError> = None;
        for _ in 0..threads {
            if let Ok(Err(e)) = rx.recv() {
                first_err.get_or_insert(e);
            }
        }
        let pool = WorkerPool {
            shared,
            handles,
            threads,
            runtime,
            run_lock: Mutex::new(()),
        };
        match first_err {
            // Dropping joins the successfully-registered workers, releasing
            // their slots.
            Some(e) => Err(e),
            None => Ok(pool),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The runtime the workers registered with, if any.
    pub fn runtime(&self) -> Option<&Arc<Runtime>> {
        self.runtime.as_ref()
    }

    /// Runs `job` on every worker (passing each its worker index) and blocks
    /// until all of them return. Concurrent callers are serialized.
    pub fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        let _serial = lock(&self.run_lock);
        // Clock reads only happen while tracing is on; the disabled path
        // stays untimed.
        let t0 = smc_obs::trace::is_enabled().then(smc_obs::clock::now);
        // SAFETY: erase the closure's borrow lifetime. Sound because this
        // function blocks below until `completed == threads`, i.e. no worker
        // can still be executing (or later observe) the job once we return.
        let ptr = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(job)
        };
        let mut st = lock(&self.shared.state);
        st.job = Some(JobPtr(ptr));
        st.generation = st.generation.wrapping_add(1);
        st.completed = 0;
        // Interleaving point matching the workers' pickup yield: the
        // dispatch/pickup pair is the pool's model-checkable surface.
        smc_util::sync::yield_point();
        self.shared.work_cv.notify_all();
        while st.completed < self.threads {
            st = wait(&self.shared.done_cv, st);
        }
        st.job = None;
        if let Some(t0) = t0 {
            smc_obs::trace::emit(smc_obs::Event::PoolBroadcast {
                threads: self.threads as u64,
                nanos: smc_obs::clock::now().saturating_sub(t0),
            });
        }
    }

    /// Monomorphized convenience wrapper over [`run`](Self::run).
    pub fn broadcast(&self, job: impl Fn(usize) + Sync) {
        self.run(&job);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("registered", &self.runtime.is_some())
            .finish()
    }
}

fn worker_loop(shared: &Shared, index: usize, threads: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = lock(&shared.state);
            while !st.shutdown && st.generation == seen {
                st = wait(&shared.work_cv, st);
            }
            if st.shutdown {
                return;
            }
            seen = st.generation;
            st.job.expect("generation bumped without a job")
        };
        // Interleaving point for the smc-check model checker: job pickup is
        // where a worker's view of dispatched state can race the coordinator.
        smc_util::sync::yield_point();
        // SAFETY: `run` keeps the closure alive until every worker completed.
        (unsafe { &*job.0 })(index);
        let mut st = lock(&shared.state);
        st.completed += 1;
        if st.completed == threads {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_scoped_jobs_repeatedly() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        for round in 1..=3usize {
            let counter = AtomicUsize::new(0);
            pool.broadcast(|idx| {
                counter.fetch_add(idx + round, Ordering::Relaxed);
            });
            assert_eq!(counter.load(Ordering::Relaxed), 6 + 4 * round);
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        let hits = AtomicUsize::new(0);
        pool.broadcast(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn runtime_pool_preregisters_workers() {
        let rt = Runtime::new();
        let pool = WorkerPool::for_runtime(&rt, 3).unwrap();
        let pins = AtomicUsize::new(0);
        pool.broadcast(|_| {
            // Pre-registered workers must be able to pin without claiming.
            let _g = rt.try_pin().expect("worker slot claimed at spawn");
            pins.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(pins.load(Ordering::Relaxed), 3);
    }
}
