//! # smc-exec — morsel-driven parallel query execution over SMC blocks
//!
//! The paper's enumeration protocol (§5) is explicitly multi-reader: any
//! number of queries may scan a collection while compaction relocates
//! objects. This crate turns that property into intra-query parallelism,
//! in the style of morsel-driven execution engines: the units of the
//! collection's membership snapshot (its memory blocks, the columnar
//! store's row groups, and whole in-flight compaction groups) become
//! *morsels* handed out to a reusable pool of worker threads through an
//! atomic cursor, each worker pins its own epoch [`Guard`](smc::Guard) and
//! runs the same fused scan→filter→fold loop `Smc::for_each` compiles to,
//! and thread-local accumulators are merged in a final reduce step.
//!
//! Three layers:
//!
//! * [`WorkerPool`] — persistent scoped workers, pre-registered with the
//!   runtime's epoch manager so thread-registry exhaustion is a
//!   constructor error, never a mid-query panic;
//! * [`ParScan`] / [`ParColumnarScan`] — parallel scans over an
//!   [`Smc`](smc::Smc) of the row and of the [`Columns`](smc::Columns)
//!   layout (`filter_count`, `filter_fold`, `fold_blocks`);
//! * [`par_fold_chunks`] — the same morsel loop over plain slices, for the
//!   baseline backends (managed handle lists, columnstore row ranges).
//!
//! Scans are linearizable with concurrent compaction: in-flight §5.2
//! compaction groups travel as single morsels, so exactly one worker makes
//! the pre-state/post-state decision per group, and every live object is
//! visited exactly once (see the safety argument in [`par`]).

#![warn(missing_docs)]

pub mod par;
pub mod pool;

pub use par::{par_fold_chunks, ParColumnarScan, ParScan};
pub use pool::WorkerPool;
