//! # smc-memory — type-safe manual memory management
//!
//! This crate implements the manual memory management system of §3 of
//! *Self-managed collections: Off-heap memory management for scalable
//! query-dominated collections* (Nagel et al., EDBT 2017).
//!
//! The design, mirroring the paper:
//!
//! * **Typed memory blocks** ([`block`]): objects are allocated from
//!   unmanaged, block-size-aligned memory blocks; each block serves objects of
//!   exactly one type, so slot positions are stable for the lifetime of the
//!   block and the block header can be recovered from any interior pointer
//!   with one mask operation.
//! * **Slot directory** ([`slot`]): per-slot state (`Free`/`Valid`/`Limbo`)
//!   plus the removal epoch, packed into 32 bits, stored densely so
//!   enumeration can skip dead slots without touching object data.
//! * **Incarnation numbers** ([`incarnation`]): a 32-bit word per object slot
//!   and per indirection entry that detects use-after-free; its top bits carry
//!   the `FROZEN`, `LOCK` and `FORWARD` flags used by concurrent compaction
//!   (§5) and direct pointers (§6).
//! * **Indirection table** (`indirection`): references point at a stable
//!   table entry which in turn points at the object's current slot, allowing
//!   objects to be relocated by a single atomic pointer store.
//! * **Dereference** ([`EntryRef::resolve`], [`DirectPtr`]): the paper's
//!   `dereference_object` (§5.1) and the §6 direct-pointer walk, once each,
//!   beside the relocation protocol they negotiate with; the `smc` crate's
//!   references are typed wrappers of them.
//! * **Epoch-based reclamation** (`epoch`, [`Guard`], [`Slot`]): readers enter *critical
//!   sections* (grace periods); memory freed in global epoch `e` is reused no
//!   earlier than epoch `e + 2`, when no thread can still observe it.
//! * **Memory contexts** ([`context`]): per-collection groups of blocks that
//!   give collections control over object placement and enumeration order.
//! * **Heap introspection** ([`inspect`]): lock-free, epoch-consistent
//!   [`HeapSnapshot`]s of live contexts — per-block occupancy, limbo dead
//!   space, holes, incarnation churn, indirection-table load and epoch lag —
//!   taken without stopping writers (the observatory behind `smc-top`).
//!
//! The self-managed collection type itself lives in the `smc` crate, layered
//! on top of this one.
//!
//! ## Safety model
//!
//! The crate reproduces the paper's guarantee: a reference always refers to
//! an instance of the same type, and that instance is either the one assigned
//! to the reference or, once the instance was removed from its collection,
//! *null* (rendered as `None` in Rust). Dereferencing requires an epoch
//! [`Guard`]; the incarnation check at dereference time is the
//! point at which the guarantee is anchored (§3.4).
//!
//! ## Example: a runtime and an epoch critical section
//!
//! ```
//! use smc_memory::Runtime;
//!
//! let rt = Runtime::new();
//! let before = rt.global_epoch();
//! {
//!     let guard = rt.pin(); // enter a critical section (§3.4)
//!     assert!(guard.epoch() >= before);
//! } // leaving the section lets the global epoch advance past it
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod block;
mod compact;
pub mod context;
pub mod decimal;
mod epoch;
pub mod error;
pub mod fault;
pub mod incarnation;
mod indirection;
pub mod inline_str;
pub mod inspect;
pub mod page;
#[cfg(smc_check)]
pub mod reloc;
#[cfg(not(smc_check))]
mod reloc;
pub mod runtime;
pub mod slot;
pub mod spill;
pub mod stats;
pub mod tabular;
pub mod verify;

pub use alloc::{AllocSnapshot, ALLOC_BATCH, MAX_SHARD_CACHE};
pub use block::{BlockHeader, BlockLayout, BLOCK_ALIGN, BLOCK_SIZE};
pub use context::{ContextConfig, MemoryContext};
pub use decimal::Decimal;
#[cfg(smc_check)]
pub use epoch::EpochManager;
pub use epoch::{Guard, Slot, MAX_THREADS};
pub use error::{MemError, NullReference};
pub use fault::{FaultInjector, FaultSite};
pub use incarnation::{IncWord, FLAG_FORWARD, FLAG_FROZEN, FLAG_LOCK, INC_MASK};
#[cfg(smc_check)]
pub use indirection::IndirectionTable;
pub use indirection::{EntryRef, IndirEntry};
pub use inline_str::InlineStr;
pub use inspect::{BlockSnapshot, CollectionSnapshot, HeapSnapshot, IndirectionLoad, Watermark};
pub use reloc::{DirectField, DirectPtr};
pub use runtime::Runtime;
pub use slot::{SlotId, SlotState};
pub use spill::{MemoryPageStore, PageStore, SpillIoError};
pub use stats::MemoryStats;
pub use tabular::Tabular;
pub use verify::VerifyReport;
