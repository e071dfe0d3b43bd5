//! # smc-util — zero-dependency workspace utilities
//!
//! The workspace builds fully offline: no crates.io dependencies. This crate
//! sits under every other one and supplies:
//!
//! * [`sync`] — the workspace's one synchronisation layer: `Mutex`/`RwLock`
//!   with a `parking_lot`-style API (no poison `Result`s at every call
//!   site), the atomics, fences, spin/yield points and the parker, all
//!   plain `std` normally and instrumented for the `smc-check` model checker
//!   under `--cfg smc_check`;
//! * [`mutation`] — the checker's switchboard of re-introducible protocol
//!   bugs (compiled out in normal builds);
//! * [`rng`] — a small, seeded PCG pseudo-random generator standing in for
//!   `rand::StdRng` in the TPC-H generator, workloads, and tests.
//!
//! Plus [`spsc`], the bounded lock-free single-producer/single-consumer ring
//! the serve layer uses to route requests from connection threads to shard
//! threads and replies back, and [`waiter`], the spin-then-park wait both
//! ends of those rings share. The rings and the waiter go through [`sync`],
//! so the checker explores them too.

#![warn(missing_docs)]

pub mod mutation;
pub mod rng;
pub mod spsc;
pub mod sync;
pub mod waiter;

pub use rng::Pcg32;
pub use sync::{Mutex, RwLock};
