//! End-to-end request tracing: a `RequestId` minted at the client crosses
//! the wire, the connection thread, every shard's SPSC ring, and
//! the morsel workers — and every span on that path carries the id.
//!
//! One test function on purpose: the tracer is process-global, and a
//! single linear scenario keeps the ring contents deterministic.

use std::collections::HashSet;
use std::time::Duration;

use smc_obs::chrome::{validate, ChromeTrace};
use smc_obs::trace::{self, Event, RequestId};
use smc_serve::{Client, Server, ServerConfig, TenantConfig};

const TRACED_QUERY_ID: u64 = 0xbeef_0001;
const TRACED_INGEST_ID: u64 = 0xbeef_0002;

#[test]
fn request_id_propagates_across_shards_and_exec_workers() {
    let shards = 4;
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards,
        workers_per_shard: 2,
        tenants: vec![TenantConfig {
            name: "alpha".to_string(),
            budget_bytes: None,
        }],
        ..ServerConfig::default()
    })
    .expect("server binds");
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();

    // Enough rows that every shard owns blocks and every worker claims at
    // least one morsel during the traced scan.
    let rows: Vec<(u64, u64)> = (0..20_000u64).map(|k| (k, k % 1000)).collect();
    client.upsert(0, rows).unwrap();

    trace::enable();
    client.trace_next(RequestId::new(TRACED_INGEST_ID));
    client
        .upsert(0, (20_000..20_128u64).map(|k| (k, 7)).collect())
        .unwrap();
    client.trace_next(RequestId::new(TRACED_QUERY_ID));
    let n = client.count(0, 0, 1000).unwrap();
    assert_eq!(n, 20_128); // 20k seeded rows + the 128 traced-ingest rows
    trace::disable();

    let events = trace::snapshot();
    let report = server.shutdown();
    assert!(report.clean(), "{:?}", report.verify_errors());

    // Every shard-side span of the traced query carries the originating
    // id: a COUNT scatters to all shards, so there must be exactly one
    // `shard` stage per shard, each tagged with the query's id.
    let mut stages_by_label: Vec<(u64, String, u64)> = Vec::new(); // (req, stage, thread)
    for t in &events {
        if let Event::ReqStage { req, stage, .. } = &t.event {
            stages_by_label.push((*req, stage.as_str().to_string(), t.thread));
        }
    }
    let query_stages: Vec<_> = stages_by_label
        .iter()
        .filter(|(req, _, _)| *req == TRACED_QUERY_ID)
        .collect();
    let shard_spans = query_stages.iter().filter(|(_, s, _)| s == "shard").count();
    assert_eq!(
        shard_spans, shards,
        "one shard-side span per scattered shard, all tagged with the id: {query_stages:?}"
    );
    let ring_spans = query_stages.iter().filter(|(_, s, _)| s == "ring").count();
    assert_eq!(ring_spans, shards, "one ring-wait span per shard");
    assert!(
        query_stages.iter().any(|(_, s, _)| s == "conn"),
        "the connection thread's span carries the id"
    );
    assert!(
        query_stages.iter().any(|(_, s, _)| s == "exec"),
        "at least one morsel worker's span carries the id"
    );

    // The traced ingest got its own spans under its own id (fanned out to
    // the shards owning its keys — at least one).
    assert!(
        stages_by_label
            .iter()
            .any(|(req, s, _)| *req == TRACED_INGEST_ID && s == "shard"),
        "the traced ingest's shard execution is tagged too"
    );

    // The per-request flow is linkable across at least three distinct
    // thread tracks: connection, shard, and exec worker.
    let query_threads: HashSet<u64> = query_stages.iter().map(|(_, _, t)| *t).collect();
    assert!(
        query_threads.len() >= 3,
        "expected conn + shard + worker tracks, got {} threads",
        query_threads.len()
    );

    // And the export — what the drain trace and a flight dump both
    // write — renders them as `req.*` spans carrying the id across those
    // tracks.
    let mut export = ChromeTrace::new();
    export.add_events(&events);
    let shape = validate(&export.to_json()).unwrap_or_else(|e| panic!("{e}"));
    assert!(shape.widest_flow >= 3, "{shape:?}");
}
