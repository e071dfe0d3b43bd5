//! # smc-check — deterministic bounded model checking for the SMC protocol
//!
//! A loom-style checker that runs small protocol scenarios over *virtual
//! threads* and explores their interleavings systematically, instead of
//! sampling a vanishing fraction of them the way stress tests do.
//!
//! ## How it works
//!
//! Every virtual thread is a real OS thread, but a token-passing scheduler
//! ([`sched`]) guarantees that exactly one of them runs at a time. The
//! thread holding the token reports a *switch point* before every shared
//! operation ([`switch_point`], wired to every atomic/lock/spin site of
//! `smc-memory` through its `sync` shim layer when that crate is compiled
//! with `--cfg smc_check`); at each switch point a pluggable *chooser*
//! decides which thread runs next. An execution is therefore a pure function
//! of its *schedule* — the sequence of thread choices — which makes every
//! run replayable from that schedule alone. Scheduling happens in virtual
//! time: the checker never sleeps, and spin loops immediately deschedule
//! the spinning thread instead of burning host cycles.
//!
//! The explorer ([`Checker`]) enumerates schedules with bounded-preemption
//! depth-first search: every schedule using at most
//! [`Checker::preemption_bound`] *preemptions* (switching away from a thread
//! that could have continued; forced switches are free) is visited
//! exhaustively, which empirically catches the overwhelming majority of
//! concurrency bugs at bound 2 (Musuvathi & Qadeer, CHESS). Beyond the
//! bound, seeded random sampling covers deeper schedules.
//!
//! Scenarios encode *shadow-state oracles* — assertions such as "every live
//! reference resolves to exactly one incarnation" or "a scanner visits each
//! object exactly once under concurrent compaction" — and a failing schedule
//! is printed as a replayable seed string:
//!
//! ```text
//! violation: reader pinned at 0 observed global 2 ...
//! replayable schedule seed: 0.1.1.1.0
//! ```
//!
//! Re-running the scenario through [`Checker::replay`] with that seed
//! reproduces the failure deterministically.
//!
//! ## Protocol scenarios and mutation testing
//!
//! The protocol scenario suite (`scenarios`, compiled only under
//! `--cfg smc_check`) drives the *real* `smc-memory` code — epoch
//! pin/unpin/advance, relocation, forwarding, bail-out, a context's budget
//! gate and the allocator's remote frees. `smc-memory`'s `mutation` module can re-introduce known, fixed
//! bugs (e.g. the slot-vs-entry incarnation confusion found in PR 1) at
//! runtime; `tests/protocol.rs` asserts that the checker finds every one of
//! them within its interleaving budget.
//!
//! Run the checker's own tests with `cargo test -p smc-check`; run the
//! protocol suite with `RUSTFLAGS='--cfg smc_check' cargo test -p smc-check`.

#![warn(missing_docs)]

pub mod explore;
#[cfg(smc_check)]
pub mod scenarios;
pub mod sched;

pub use explore::{Checker, ExploreStats, Schedule, Violation};
pub use sched::{switch_point, Scenario};

/// Routes `smc-memory`'s instrumented sync shims into the scheduler.
/// Idempotent; called automatically by [`Checker::check`].
pub fn install_memory_hook() {
    smc_memory::sync::hook::install(memory_hook);
}

fn memory_hook(event: smc_memory::sync::hook::HookEvent) {
    switch_point(matches!(event, smc_memory::sync::hook::HookEvent::Spin));
}
