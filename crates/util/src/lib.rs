//! # smc-util — zero-dependency workspace utilities
//!
//! The workspace builds fully offline: no crates.io dependencies. This crate
//! supplies the two things third-party crates used to provide:
//!
//! * [`sync`] — `Mutex`/`RwLock` wrappers over `std::sync` with a
//!   `parking_lot`-style API (no poison `Result`s at every call site);
//! * [`rng`] — a small, seeded PCG pseudo-random generator standing in for
//!   `rand::StdRng` in the TPC-H generator, workloads, and tests.
//!
//! Plus [`backoff`] — bounded exponential retry backoff with deterministic
//! seeded jitter for the maintenance coordinator's pass retries — [`spsc`], the
//! bounded lock-free single-producer/single-consumer ring the serve layer
//! uses to route requests from connection threads to shard threads and
//! replies back, and [`waiter`], the spin-then-park wait both ends of those
//! rings share.

#![warn(missing_docs)]

pub mod backoff;
pub mod rng;
pub mod spsc;
pub mod sync;
pub mod waiter;

pub use backoff::Backoff;
pub use rng::Pcg32;
pub use sync::{Mutex, RwLock};
