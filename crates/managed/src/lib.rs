//! # managed-heap — a simulated managed runtime with a tracing GC
//!
//! The paper's baselines are ordinary .NET collections whose objects live on
//! a garbage-collected heap. Rust has no GC, so this crate builds one: a
//! stop-the-world (or incremental) tracing collector over typed arenas, with
//! handle-based object access, generation tags, safepoints, and pause
//! accounting. The `Gc*` collection types in [`collections`] are the
//! stand-ins for `List<T>`, `ConcurrentBag<T>` and
//! `ConcurrentDictionary<K,V>` that the evaluation compares against
//! (Figs 7–11).
//!
//! ## What the simulation preserves (and why it is a fair baseline)
//!
//! The paper's measurements depend on four properties of a managed runtime,
//! all reproduced here:
//!
//! 1. **Allocation triggers collections whose cost scales with live data.**
//!    Allocation debits a nursery budget; exhausting it runs a minor
//!    collection that must trace the live object graph from the registered
//!    roots (the collections themselves). With all objects reachable — the
//!    Fig 7 workload — every collection pays for the whole live set, exactly
//!    the behaviour the paper attributes to its managed baselines.
//! 2. **Pauses grow with the managed heap.** `batch` mode runs each
//!    collection fully stop-the-world (a heap-wide write lock all mutators
//!    block on at safepoints), so the maximum observed pause grows with the
//!    number of live objects (Fig 9). `interactive` mode splits the mark
//!    phase into bounded increments interleaved with mutator work: shorter
//!    pauses, lower throughput — the same trade the paper reports.
//! 3. **Enumeration chases pointers.** Objects are reached through a handle
//!    table into segmented slabs. Freshly-loaded collections enumerate in
//!    allocation order (sequential memory); after churn, slot reuse
//!    scatters objects, and enumeration degrades — the fresh/worn contrast
//!    of Fig 10.
//! 4. **No object may be reclaimed while reachable.** The collector really
//!    traces: objects referencing other objects implement [`Trace`] and
//!    their referents survive; unreachable objects are swept and their
//!    slots recycled.
//!
//! The collector is mark-sweep with generation tags rather than a copying
//! collector; DESIGN.md discusses why this preserves the measured
//! behaviours (pause scaling, allocation-triggered work, locality wear).

#![warn(missing_docs)]

pub mod arena;
pub mod collections;
pub mod heap;
pub mod pause;

pub use arena::{Arena, Handle, Marker, Trace};
pub use collections::{GcConcurrentBag, GcConcurrentDictionary, GcList};
pub use heap::{GcMode, HeapConfig, HeapGuard, ManagedHeap};
pub use pause::{PauseReport, PauseStats};
