//! # smc-query — the interpreted query engine
//!
//! The paper assumes two ways of evaluating a language-integrated query:
//!
//! 1. **The interpreted engine** (LINQ-to-objects): a tree of composable
//!    operators connected by virtual calls, propagating intermediate result
//!    objects one at a time. This is the baseline whose inefficiencies —
//!    virtual dispatch per element, per-operator intermediate allocation —
//!    motivated query compilation in the first place ([12, 13] in the
//!    paper; §7 reports it 40–400 % slower than compiled code). The
//!    [`linq`] module implements it with boxed-`dyn` iterators, which have
//!    exactly the paper's cost structure. This crate is that engine.
//! 2. **Compiled queries**: the C# compiler expands LINQ expressions into
//!    imperative functions that loop directly over the collection's memory
//!    blocks. Rust's monomorphization *is* this compiler, and the compiled
//!    path needs no library of its own: the hand-specialised
//!    `tpch::queries` call `Smc::for_each` (and its columnar and parallel
//!    siblings) with closures that inline into tight loops
//!    indistinguishable from the paper's generated code. See DESIGN.md §1
//!    for why runtime codegen (cranelift) was not used: the paper never
//!    measures compilation latency, only generated-code quality.
//!
//! The TPC-H queries in the `tpch` crate exist in both forms: interpreted
//! (the "LINQ" series, Q1 and Q6) and compiled (everything else in
//! Figs 11–13).

#![warn(missing_docs)]

pub mod linq;

pub use linq::{LinqExt, LinqIter};
