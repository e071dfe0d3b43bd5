//! Synchronization-primitive shims: `std` types normally, checker-instrumented
//! types under `cfg(smc_check)`.
//!
//! Every atomic, lock, fence, and spin/yield site of the concurrent
//! compaction protocol (§5.1/§5.2) routes through this module instead of
//! touching `std::sync` directly. In a normal build the module is a zero-cost
//! pass-through: the atomic types are re-exports of `std::sync::atomic`, the
//! locks are re-exports of [`smc_util::sync`], and [`yield_point`] /
//! [`cpu_relax`] / [`thread_yield`] compile down to the obvious
//! `std` operations (or nothing at all).
//!
//! When the crate is compiled with `RUSTFLAGS='--cfg smc_check'`, the same
//! names resolve to instrumented wrappers that call into a process-global
//! *scheduler hook* before every operation. The `smc-check` crate installs a
//! hook that suspends the calling virtual thread at each such point, which is
//! what lets its bounded model checker exhaustively enumerate interleavings
//! of the pin/epoch/relocation/forwarding state machines over the *real*
//! protocol code, not a hand-written model of it. Threads not managed by a
//! checker (e.g. the test driver) pass through the hook untouched.
//!
//! The instrumented locks never block the OS thread: they spin on `try_lock`
//! and report [`hook::HookEvent::Spin`] between attempts, so the checker can
//! deschedule the waiter until the holder releases — a blocking `lock()`
//! would deadlock the checker's one-runnable-thread-at-a-time world.

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
        /// contended lock); the scheduler should run someone else.
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

#[cfg(not(smc_check))]
mod passthrough {
    //! Normal-build shims: direct re-exports plus inlined no-op yield points.

    pub use smc_util::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
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

    /// Guard returned by [`Mutex::lock`].
    pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;
    /// Guard returned by [`RwLock::read`].
    pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
    /// Guard returned by [`RwLock::write`].
    pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

    /// Checker-instrumented mutex: spins on `try_lock` (reporting `Spin` so
    /// the scheduler runs the holder) instead of blocking the OS thread.
    /// Poisoning is ignored, matching [`smc_util::sync::Mutex`].
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
        /// Acquires the lock without ever blocking the OS thread.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            loop {
                emit(HookEvent::Op);
                match self.0.try_lock() {
                    Ok(g) => return g,
                    Err(std::sync::TryLockError::Poisoned(e)) => return e.into_inner(),
                    Err(std::sync::TryLockError::WouldBlock) => emit(HookEvent::Spin),
                }
            }
        }

        /// Mutable access without locking (requires exclusive ownership).
        pub fn get_mut(&mut self) -> &mut T {
            self.0.get_mut().unwrap_or_else(|e| e.into_inner())
        }
    }

    /// Checker-instrumented reader-writer lock; see [`Mutex`].
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
        /// Acquires a shared read lock without blocking the OS thread.
        pub fn read(&self) -> RwLockReadGuard<'_, T> {
            loop {
                emit(HookEvent::Op);
                match self.0.try_read() {
                    Ok(g) => return g,
                    Err(std::sync::TryLockError::Poisoned(e)) => return e.into_inner(),
                    Err(std::sync::TryLockError::WouldBlock) => emit(HookEvent::Spin),
                }
            }
        }

        /// Acquires the exclusive write lock without blocking the OS thread.
        pub fn write(&self) -> RwLockWriteGuard<'_, T> {
            loop {
                emit(HookEvent::Op);
                match self.0.try_write() {
                    Ok(g) => return g,
                    Err(std::sync::TryLockError::Poisoned(e)) => return e.into_inner(),
                    Err(std::sync::TryLockError::WouldBlock) => emit(HookEvent::Spin),
                }
            }
        }

        /// Mutable access without locking (requires exclusive ownership).
        pub fn get_mut(&mut self) -> &mut T {
            self.0.get_mut().unwrap_or_else(|e| e.into_inner())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

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
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 2);
        yield_point();
        cpu_relax();
        fence(Ordering::SeqCst);
    }

    #[test]
    fn hook_emit_without_install_is_noop() {
        hook::emit(hook::HookEvent::Op);
        hook::emit(hook::HookEvent::Spin);
    }
}
