//! # smc-obs — observability substrate for the self-managed-collections workspace
//!
//! The paper's argument (Nagel et al., EDBT 2017) rests on *measured*
//! runtime behaviour: GC pause distributions, reclamation cost, enumeration
//! throughput (§7, Figs 6–13). This crate is the measurement substrate the
//! rest of the workspace reports through. It has **zero external
//! dependencies** and these parts:
//!
//! - [`clock`] — the process clock every library time read goes through:
//!   nanoseconds since one origin, which a test can freeze and step.
//! - [`trace`] — a lock-free, thread-local structured event tracer with a
//!   typed taxonomy (GC pauses, epoch advances, the compaction-group
//!   select → relocate → retire lifecycle, spills and fault-ins, failpoint
//!   trips, morsel dispatch). Disabled by default; the disabled emit path
//!   is one relaxed load + branch (≤ 2 ns/op, asserted in
//!   `tests/overhead.rs`) and allocates nothing (`tests/no_alloc.rs`).
//! - [`hist`] — HDR-style log2-bucketed [`Histogram`]s: fixed-size atomic
//!   arrays, lock-free recording, mergeable across threads, with
//!   p50/p95/p99/max accessors and ≤ 1/16 relative quantile error.
//! - [`report`] — a dependency-free JSON emitter producing the
//!   `BENCH_fig<N>.json` files every `crates/bench` figure binary writes
//!   (schema documented in EXPERIMENTS.md).
//! - [`chrome`] — a Chrome `trace_event` exporter draining the [`trace`]
//!   rings into Perfetto-loadable JSON (spans from paired begin/end
//!   events, counter tracks, per-thread tracks).
//! - [`flight`] — the flight recorder: a dump of the [`trace`] rings (the
//!   last events of every thread) to `SMC_FLIGHT_OUT` on panic, SLO
//!   breach, failed drain verify, or SIGUSR1, for crash forensics.
//!
//! [`trace`] also carries the request-causality layer: a [`RequestId`]
//! minted at the `smc-serve` wire boundary travels with the request across
//! threads (thread-local [`trace::RequestScope`]s), and every
//! [`Event::ReqStage`] emitted on the path renders
//! as a per-request `X` span in the Chrome export.
//!
//! Recording a latency distribution and reading its tail:
//!
//! ```
//! use smc_obs::Histogram;
//!
//! static LATENCY: Histogram = Histogram::new(); // const-constructible
//! for micros in [120u64, 450, 900, 15_000] {
//!     LATENCY.record(micros * 1_000); // nanoseconds
//! }
//! assert_eq!(LATENCY.count(), 4);
//! assert_eq!(LATENCY.max(), 15_000_000);
//! assert!(LATENCY.p99() >= 15_000_000 * 15 / 16); // ≤ 1/16 relative error
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_op_in_unsafe_fn)]

pub mod chrome;
pub mod clock;
pub mod flight;
pub mod hist;
pub mod report;
pub mod trace;

pub use chrome::ChromeTrace;
pub use hist::{Histogram, Summary};
pub use report::{JsonValue, Report, SeriesId};
pub use trace::{Event, Label, RequestId, RequestScope, ShortLabel, Span, TracedEvent};
