//! The workspace's one synchronisation layer: `std` types normally,
//! checker-instrumented types under `cfg(smc_check)`.
//!
//! Every atomic, lock, fence, spin/yield site and park of the workspace's
//! lock-free protocols routes through this module instead of touching
//! `std::sync` directly: the §3.4 epochs, §5.1 relocation and §5.2
//! query-counter rendezvous in `smc-memory`, the [`spsc`](crate::spsc)
//! rings, the [`waiter`](crate::waiter) handshake and `smc-obs`'s trace
//! ring. In a normal build the module is a zero-cost pass-through: the
//! atomic types are re-exports of `std::sync::atomic`, [`thread`] re-exports
//! `std::thread`'s parker, and [`yield_point`] / [`cpu_relax`] /
//! [`thread_yield`] compile down to the obvious `std` operations (or
//! nothing at all).
//!
//! When the workspace is compiled with `RUSTFLAGS='--cfg smc_check'`, the
//! same names resolve to instrumented wrappers that call into a
//! process-global *scheduler hook* before every operation. The `smc-check`
//! crate installs a hook that suspends the calling virtual thread at each
//! such point, which is what lets its bounded model checker exhaustively
//! enumerate interleavings of the real protocol code, not a hand-written
//! model of it. Threads not managed by a checker (e.g. the test's main
//! thread) pass through the hook untouched.
//!
//! The instrumented locks and the parker never block the OS thread: they
//! spin, reporting [`hook::HookEvent::Spin`] between attempts, so the
//! checker can deschedule the waiter until the holder releases (or a peer
//! unparks) — a blocking call would deadlock the checker's
//! one-runnable-thread-at-a-time world.
//!
//! Lock poisoning is deliberately ignored in both builds: the locks guard
//! plain bookkeeping data whose invariants are re-established on every
//! acquisition, and a panicking test thread must not cascade poison errors
//! through unrelated tests. `lock()`/`read()`/`write()` therefore return the
//! guard directly, recovering the inner data from a poisoned lock.

#[cfg(smc_check)]
pub use self::instrumented::*;
#[cfg(not(smc_check))]
pub use self::passthrough::*;

/// Scheduler hook registry (only meaningful under `cfg(smc_check)`, but the
/// types exist in both builds so callers can name them unconditionally).
pub mod hook {
    /// What kind of progress point the instrumented site is reporting.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum HookEvent {
        /// A shared-memory operation is about to execute; the scheduler may
        /// switch virtual threads here.
        Op,
        /// The calling thread cannot make progress right now (spin loop,
        /// contended lock, park); the scheduler should run someone else.
        Spin,
    }

    #[cfg(smc_check)]
    static HOOK: std::sync::OnceLock<fn(HookEvent)> = std::sync::OnceLock::new();

    /// Installs the process-global scheduler hook. Idempotent; the first
    /// installation wins. A no-op in non-checker builds.
    pub fn install(f: fn(HookEvent)) {
        #[cfg(smc_check)]
        let _ = HOOK.set(f);
        #[cfg(not(smc_check))]
        let _ = f;
    }

    /// Reports `event` to the installed hook, if any.
    #[inline]
    pub fn emit(event: HookEvent) {
        #[cfg(smc_check)]
        if let Some(f) = HOOK.get() {
            f(event);
        }
        #[cfg(not(smc_check))]
        let _ = event;
    }
}

/// Guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;
/// Guard returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// Guard returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

/// A mutual-exclusion lock that never surfaces poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available (under the checker:
    /// spinning, without ever blocking the OS thread).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(not(smc_check))]
        {
            self.0.lock().unwrap_or_else(|e| e.into_inner())
        }
        #[cfg(smc_check)]
        {
            instrumented::acquire(|| self.0.try_lock())
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// A reader-writer lock that never surfaces poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a new unlocked rwlock.
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Consumes the rwlock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read lock (under the checker: without blocking the
    /// OS thread).
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(not(smc_check))]
        {
            self.0.read().unwrap_or_else(|e| e.into_inner())
        }
        #[cfg(smc_check)]
        {
            instrumented::acquire(|| self.0.try_read())
        }
    }

    /// Acquires the exclusive write lock (under the checker: without
    /// blocking the OS thread).
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(not(smc_check))]
        {
            self.0.write().unwrap_or_else(|e| e.into_inner())
        }
        #[cfg(smc_check)]
        {
            instrumented::acquire(|| self.0.try_write())
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// The parker: `std::thread`'s `current`/`park`/`park_timeout`/`Thread`
/// normally. Under the checker each thread's parker is an unpark token the
/// parked thread spins on, reporting `Spin`, so a park never blocks the OS
/// thread; a park nobody answers spins until the checker's step budget
/// reports it. Time is virtual there, so `park_timeout` waits untimed.
pub mod thread {
    #[cfg(not(smc_check))]
    pub use std::thread::{current, park, park_timeout, Thread};

    #[cfg(smc_check)]
    pub use self::token::*;

    #[cfg(smc_check)]
    mod token {
        use crate::sync::hook::{emit, HookEvent};
        use crate::sync::AtomicBool;
        use std::sync::atomic::Ordering;
        use std::sync::Arc;

        thread_local! {
            static TOKEN: Arc<AtomicBool> = Arc::new(AtomicBool::new(false));
        }

        /// A handle to a thread's parker.
        #[derive(Debug, Clone)]
        pub struct Thread {
            id: std::thread::ThreadId,
            token: Arc<AtomicBool>,
        }

        impl Thread {
            /// The thread's `std` identifier.
            pub fn id(&self) -> std::thread::ThreadId {
                self.id
            }

            /// Hands the thread its unpark token: its next (or current)
            /// [`park`] returns.
            pub fn unpark(&self) {
                self.token.store(true, Ordering::SeqCst);
            }
        }

        /// A handle to the calling thread's parker.
        pub fn current() -> Thread {
            Thread {
                id: std::thread::current().id(),
                token: TOKEN.with(Arc::clone),
            }
        }

        /// Spins, reporting `Spin`, until the calling thread's unpark token
        /// is set, and consumes it.
        pub fn park() {
            let token = TOKEN.with(Arc::clone);
            while !token.swap(false, Ordering::SeqCst) {
                emit(HookEvent::Spin);
                std::hint::spin_loop();
            }
        }

        /// [`park`]: time is virtual under the checker, so the wait is
        /// untimed.
        pub fn park_timeout(_: std::time::Duration) {
            park();
        }
    }
}

#[cfg(not(smc_check))]
mod passthrough {
    //! Normal-build shims: direct re-exports plus inlined no-op yield points.

    pub use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize};

    /// Interleaving point for the model checker; nothing in normal builds.
    #[inline(always)]
    pub fn yield_point() {}

    /// One spin-loop pause (`std::hint::spin_loop` in normal builds).
    #[inline(always)]
    pub fn cpu_relax() {
        std::hint::spin_loop();
    }

    /// Cooperative OS-thread yield (`std::thread::yield_now` normally).
    #[inline(always)]
    pub fn thread_yield() {
        std::thread::yield_now();
    }
}

#[cfg(smc_check)]
mod instrumented {
    //! Checker-build shims: every operation reports to the scheduler hook
    //! *before* executing, so the operation itself is atomic with respect to
    //! the checker's one-thread-at-a-time scheduling — which is exactly the
    //! sequentially-consistent interleaving semantics the checker explores.

    use super::hook::{emit, HookEvent};
    use std::sync::atomic::Ordering;
    use std::sync::{TryLockError, TryLockResult};

    /// The checker's body of `lock`/`read`/`write`: retries `try_once`,
    /// reporting `Spin` while the lock is held elsewhere.
    pub(super) fn acquire<G>(try_once: impl Fn() -> TryLockResult<G>) -> G {
        loop {
            emit(HookEvent::Op);
            match try_once() {
                Ok(g) => return g,
                Err(TryLockError::Poisoned(e)) => return e.into_inner(),
                Err(TryLockError::WouldBlock) => emit(HookEvent::Spin),
            }
        }
    }

    /// Interleaving point for the model checker.
    #[inline]
    pub fn yield_point() {
        emit(HookEvent::Op);
    }

    /// One spin-loop pause: tells the checker to run another thread.
    #[inline]
    pub fn cpu_relax() {
        emit(HookEvent::Spin);
    }

    /// Cooperative yield: same as [`cpu_relax`] under the checker.
    #[inline]
    pub fn thread_yield() {
        emit(HookEvent::Spin);
    }

    /// Instrumented memory fence.
    #[inline]
    pub fn fence(order: Ordering) {
        emit(HookEvent::Op);
        std::sync::atomic::fence(order);
    }

    macro_rules! instrumented_uint {
        ($name:ident, $std:ty, $ty:ty) => {
            /// Checker-instrumented drop-in for the `std` atomic of the same
            /// name: every access is an interleaving point.
            #[derive(Debug, Default)]
            #[repr(transparent)]
            pub struct $name($std);

            impl $name {
                /// A new atomic with the given initial value.
                pub const fn new(v: $ty) -> Self {
                    Self(<$std>::new(v))
                }

                /// Instrumented `load`.
                #[inline]
                pub fn load(&self, order: Ordering) -> $ty {
                    emit(HookEvent::Op);
                    self.0.load(order)
                }

                /// Instrumented `store`.
                #[inline]
                pub fn store(&self, v: $ty, order: Ordering) {
                    emit(HookEvent::Op);
                    self.0.store(v, order)
                }

                /// Instrumented `swap`.
                #[inline]
                pub fn swap(&self, v: $ty, order: Ordering) -> $ty {
                    emit(HookEvent::Op);
                    self.0.swap(v, order)
                }

                /// Instrumented `compare_exchange`.
                #[inline]
                pub fn compare_exchange(
                    &self,
                    cur: $ty,
                    new: $ty,
                    ok: Ordering,
                    err: Ordering,
                ) -> Result<$ty, $ty> {
                    emit(HookEvent::Op);
                    self.0.compare_exchange(cur, new, ok, err)
                }

                /// Instrumented `compare_exchange_weak` (never spuriously
                /// fails under the checker — spurious failures would make
                /// schedules non-deterministic).
                #[inline]
                pub fn compare_exchange_weak(
                    &self,
                    cur: $ty,
                    new: $ty,
                    ok: Ordering,
                    err: Ordering,
                ) -> Result<$ty, $ty> {
                    emit(HookEvent::Op);
                    self.0.compare_exchange(cur, new, ok, err)
                }

                /// Instrumented `fetch_add`.
                #[inline]
                pub fn fetch_add(&self, v: $ty, order: Ordering) -> $ty {
                    emit(HookEvent::Op);
                    self.0.fetch_add(v, order)
                }

                /// Instrumented `fetch_sub`.
                #[inline]
                pub fn fetch_sub(&self, v: $ty, order: Ordering) -> $ty {
                    emit(HookEvent::Op);
                    self.0.fetch_sub(v, order)
                }

                /// Instrumented `fetch_or`.
                #[inline]
                pub fn fetch_or(&self, v: $ty, order: Ordering) -> $ty {
                    emit(HookEvent::Op);
                    self.0.fetch_or(v, order)
                }

                /// Instrumented `fetch_and`.
                #[inline]
                pub fn fetch_and(&self, v: $ty, order: Ordering) -> $ty {
                    emit(HookEvent::Op);
                    self.0.fetch_and(v, order)
                }

                /// Instrumented `fetch_max`.
                #[inline]
                pub fn fetch_max(&self, v: $ty, order: Ordering) -> $ty {
                    emit(HookEvent::Op);
                    self.0.fetch_max(v, order)
                }

                /// Instrumented `fetch_min`.
                #[inline]
                pub fn fetch_min(&self, v: $ty, order: Ordering) -> $ty {
                    emit(HookEvent::Op);
                    self.0.fetch_min(v, order)
                }
            }
        };
    }

    instrumented_uint!(AtomicU32, std::sync::atomic::AtomicU32, u32);
    instrumented_uint!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    instrumented_uint!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

    /// Checker-instrumented `AtomicBool`.
    #[derive(Debug, Default)]
    #[repr(transparent)]
    pub struct AtomicBool(std::sync::atomic::AtomicBool);

    impl AtomicBool {
        /// A new atomic with the given initial value.
        pub const fn new(v: bool) -> Self {
            Self(std::sync::atomic::AtomicBool::new(v))
        }

        /// Instrumented `load`.
        #[inline]
        pub fn load(&self, order: Ordering) -> bool {
            emit(HookEvent::Op);
            self.0.load(order)
        }

        /// Instrumented `store`.
        #[inline]
        pub fn store(&self, v: bool, order: Ordering) {
            emit(HookEvent::Op);
            self.0.store(v, order)
        }

        /// Instrumented `swap`.
        #[inline]
        pub fn swap(&self, v: bool, order: Ordering) -> bool {
            emit(HookEvent::Op);
            self.0.swap(v, order)
        }
    }

    /// Checker-instrumented `AtomicPtr<T>`.
    #[derive(Debug)]
    #[repr(transparent)]
    pub struct AtomicPtr<T>(std::sync::atomic::AtomicPtr<T>);

    impl<T> AtomicPtr<T> {
        /// A new atomic with the given initial pointer.
        pub const fn new(p: *mut T) -> Self {
            Self(std::sync::atomic::AtomicPtr::new(p))
        }

        /// Instrumented `load`.
        #[inline]
        pub fn load(&self, order: Ordering) -> *mut T {
            emit(HookEvent::Op);
            self.0.load(order)
        }

        /// Instrumented `store`.
        #[inline]
        pub fn store(&self, p: *mut T, order: Ordering) {
            emit(HookEvent::Op);
            self.0.store(p, order)
        }

        /// Instrumented `swap`.
        #[inline]
        pub fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
            emit(HookEvent::Op);
            self.0.swap(p, order)
        }

        /// Instrumented `compare_exchange`.
        #[inline]
        pub fn compare_exchange(
            &self,
            cur: *mut T,
            new: *mut T,
            ok: Ordering,
            err: Ordering,
        ) -> Result<*mut T, *mut T> {
            emit(HookEvent::Op);
            self.0.compare_exchange(cur, new, ok, err)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn shims_behave_like_std() {
        let a = AtomicU64::new(5);
        assert_eq!(a.load(Ordering::SeqCst), 5);
        a.store(7, Ordering::SeqCst);
        assert_eq!(a.fetch_add(1, Ordering::SeqCst), 7);
        assert_eq!(
            a.compare_exchange(8, 9, Ordering::SeqCst, Ordering::SeqCst),
            Ok(8)
        );
        yield_point();
        cpu_relax();
        fence(Ordering::SeqCst);
    }

    #[test]
    fn hook_emit_without_install_is_noop() {
        hook::emit(hook::HookEvent::Op);
        hook::emit(hook::HookEvent::Spin);
    }

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_basic() {
        let mut l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
        l.get_mut().push(3);
        assert_eq!(l.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn poisoned_mutex_still_locks() {
        let m = Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn poisoned_rwlock_still_reads() {
        let l = Arc::new(RwLock::new(7));
        let l2 = l.clone();
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison it");
        })
        .join();
        assert_eq!(*l.read(), 7);
    }
}
