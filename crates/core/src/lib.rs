//! # smc — self-managed collections
//!
//! A Rust implementation of *self-managed collections* from Nagel et al.,
//! "Self-managed collections: Off-heap memory management for scalable
//! query-dominated collections" (EDBT 2017).
//!
//! A self-managed collection ([`Smc`]) owns the memory of its contained
//! objects: objects live in private, off-heap, type-homogeneous memory
//! blocks managed by the [`smc_memory`] crate, excluded from any garbage
//! collector. The collection's semantics are those of a database table —
//! objects are created by insertion and destroyed by removal, and every
//! outstanding reference to a removed object dereferences to `None` (§2).
//!
//! What this buys, per the paper's evaluation:
//!
//! * **Enumeration speed** — objects sit densely in blocks in insertion
//!   order, so query scans run at memory bandwidth instead of chasing
//!   pointers across a fragmented heap (Fig 10);
//! * **Allocation throughput** — thread-local block allocation costs ~one
//!   atomic per ten thousand objects (Fig 7);
//! * **No GC pauses** — collection data never stresses a garbage collector
//!   (Fig 9);
//! * **Compiled-query access** — query code operates directly on the
//!   collection's memory blocks ([`Smc::for_each`], and per column for a
//!   collection of the [`Columns`] layout), with
//!   [`DirectRef`] skipping even the indirection hop for inter-collection
//!   joins (Figs 11–12).
//!
//! ## Quick start
//!
//! ```
//! use smc::{Smc, Tabular};
//! use smc_memory::{InlineStr, Runtime};
//!
//! #[derive(Clone, Copy)]
//! struct Person {
//!     name: InlineStr<16>,
//!     age: u32,
//! }
//! // SAFETY: only primitives and inline strings — no heap references.
//! unsafe impl Tabular for Person {}
//!
//! let runtime = Runtime::new();
//! let persons: Smc<Person> = Smc::new(&runtime);
//! let adam = persons.add(Person { name: "Adam".into(), age: 27 });
//!
//! {
//!     let guard = runtime.pin();
//!     assert_eq!(adam.get(&guard).unwrap().age, 27);
//!     // Enumerate like a compiled query: straight over the blocks.
//!     let mut adults = 0;
//!     persons.for_each(&guard, |p| if p.age > 17 { adults += 1 });
//!     assert_eq!(adults, 1);
//! }
//!
//! persons.remove(adam);
//! let guard = runtime.pin();
//! assert!(adam.get(&guard).is_none(), "references go null on removal");
//! ```

#![warn(missing_docs)]

pub mod collection;
pub mod columnar;
pub mod refs;

pub use collection::{Iter, Layout, Rows, Smc};
pub use columnar::{ColumnArrays, Columnar, Columns};
pub use refs::{DirectRef, OptDirectRef, Ref};
pub use smc_memory::block::MAX_COLUMNS;

// Re-export the memory runtime surface users need.
pub use smc_memory::context::{CompactionReport, ContextConfig};
pub use smc_memory::Guard;
pub use smc_memory::{Decimal, InlineStr, Runtime, Tabular};
pub use smc_memory::{HeapSnapshot, Watermark};
