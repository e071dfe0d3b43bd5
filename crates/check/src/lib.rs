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
//! operation ([`switch_point`], wired by [`install_hook`] to every
//! atomic/lock/spin/park site that goes through `smc_util::sync`, the
//! workspace's one sync shim, when the workspace is compiled with
//! `--cfg smc_check` — `smc-memory`'s protocols, `smc-util`'s SPSC rings
//! and waiter, and `smc-obs`'s trace ring); at each switch point a
//! pluggable *chooser* decides which thread runs next. An execution is therefore a pure function
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
//! `--cfg smc_check`) drives the *real* code — `smc-memory`'s epoch
//! pin/unpin/advance, relocation, forwarding, bail-out, a context's budget
//! gate and the allocator's remote frees, a reply ring's drain, the
//! waiter's park-vs-wake handshake and the trace ring's seqlock.
//! `smc_util::mutation` can re-introduce known, fixed bugs (e.g. the
//! slot-vs-entry incarnation confusion, the first relocation bug fixed)
//! at runtime; `tests/protocol.rs` asserts that the checker finds every
//! one of them within its interleaving budget.
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

use smc_util::sync::hook;

/// Routes the instrumented `smc_util::sync` shim into the scheduler.
/// Idempotent; called automatically by [`Checker::check`].
pub fn install_hook() {
    hook::install(|event| switch_point(event == hook::HookEvent::Spin));
}
