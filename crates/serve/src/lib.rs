//! `smc-serve`: a shard-per-core multi-tenant server over self-managed
//! collections.
//!
//! The paper's thesis is that query-dominated collections want off-heap,
//! self-managed memory; this crate is the service-shaped proof. A
//! [`Server`] runs N *shards* — each with its own [`smc::Runtime`],
//! `smc-exec` worker set, and `smc-maint` coordinator, and therefore no
//! cross-shard locks anywhere in the data path. A thread-per-connection
//! acceptor speaks a length-prefixed binary protocol ([`wire`]) and routes
//! requests to shards by key hash over SPSC rings ([`smc_util::spsc`]):
//! ingest batches fan out only to owning shards, queries scatter-gather
//! across all of them and run morsel-parallel inside each.
//!
//! Tenancy is memory-first: each tenant gets one `MemoryContext` per shard
//! whose [`smc_memory::ContextConfig::budget_bytes`] slice is the memory
//! system's one budget — a tenant over budget gets a clean
//! [`wire::ErrorCode::TenantOverBudget`] wire error while every other
//! tenant keeps answering. Shutdown is a verified drain: stop the
//! acceptor, finish in-flight requests, quiesce each shard's maintenance
//! coordinator, then `Smc::verify` + `Runtime::verify` every shard
//! ([`DrainReport::clean`]).
//!
//! The server is observable end to end: clients may stamp requests with a
//! [`smc_obs::trace::RequestId`] in a fixed wire field (flagged by
//! [`wire::TRACE_FLAG`]) that propagates across rings into shard and
//! morsel execution, requests over
//! [`ServerConfig::slow_request_threshold`] fold a structured breakdown
//! into per-op-class histograms ([`attr`]), and the read-only
//! [`wire::Op::Scrape`] op — the server's one introspection op — exports
//! shard and tenant stats, attribution, tracer state (its rings are what a
//! flight dump writes), and per shard its heap snapshot and maintenance
//! coordinator, as one JSON document (schema `smc-scrape/v1`).
//! [`Server::stats`] reads the same counters in process.

#![warn(missing_docs)]

pub mod attr;
pub mod client;
pub mod server;
pub mod shard;
pub mod wire;

pub use attr::{Attribution, ClassAttribution, OpClass, SlowBreakdown};
pub use client::{Client, ClientError};
pub use server::{DrainReport, Server, ServerConfig, TenantConfig};
pub use shard::{shard_of, Row, ShardDrain};
