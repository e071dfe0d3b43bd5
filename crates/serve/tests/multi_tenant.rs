//! Multi-tenant isolation and scatter-gather correctness.
//!
//! The headline acceptance test lives here: a tenant that blows through its
//! memory budget gets a clean `TenantOverBudget` wire error while the other
//! tenant keeps ingesting and querying, and the server still drains and
//! verifies clean afterwards.

use std::time::Duration;

use smc_memory::BLOCK_SIZE;
use smc_obs::JsonValue;
use smc_serve::wire::ErrorCode;
use smc_serve::{Client, ClientError, Server, ServerConfig, TenantConfig};

const SHARDS: usize = 2;

fn budgeted_server() -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: SHARDS,
        workers_per_shard: 2,
        tenants: vec![
            TenantConfig {
                name: "capped".to_string(),
                // One block per shard: a few thousand 16-byte rows, then
                // the budget gate answers.
                budget_bytes: Some((SHARDS * BLOCK_SIZE) as u64),
            },
            TenantConfig {
                name: "roomy".to_string(),
                budget_bytes: None,
            },
        ],
        ..ServerConfig::default()
    })
    .expect("server binds an ephemeral port")
}

/// The `rows` array of the scrape document's `stats` section, over the
/// wire.
fn scraped_stats(client: &mut Client, rows: &str) -> Vec<JsonValue> {
    let doc = client.scrape().expect("scrape answers");
    let stats = doc.get("stats").and_then(|s| s.get(rows));
    stats
        .and_then(JsonValue::as_arr)
        .expect("stats section")
        .to_vec()
}

/// The integer at `key` of one stats row.
fn field(row: &JsonValue, key: &str) -> u64 {
    let v = row.get(key).and_then(JsonValue::as_u64);
    v.unwrap_or_else(|| panic!("stats row {} has no {key}", row.to_json()))
}

fn connect(server: &Server) -> Client {
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.set_timeout(Some(Duration::from_secs(30))).unwrap();
    c
}

#[test]
fn over_budget_tenant_errors_while_others_keep_answering() {
    let mut server = budgeted_server();
    let mut client = connect(&server);

    // Tenant 0: ingest until its budget rejects. One block holds at most
    // BLOCK_SIZE/16 rows, so 4 blocks' worth of distinct keys must trip it.
    let mut over_budget_seen = false;
    let mut applied_before_error = 0u64;
    let limit = (SHARDS * 4 * BLOCK_SIZE / 16) as u64;
    let mut key = 0u64;
    while key < limit {
        let batch: Vec<(u64, u64)> = (key..key + 512).map(|k| (k, k * 3)).collect();
        key += 512;
        match client.upsert(0, batch) {
            Ok(n) => applied_before_error += n,
            Err(ClientError::Server(ErrorCode::TenantOverBudget, msg)) => {
                over_budget_seen = true;
                assert!(
                    msg.contains("over memory budget"),
                    "budget error should say so: {msg}"
                );
                break;
            }
            Err(other) => panic!("expected a budget error, got {other:?}"),
        }
    }
    assert!(
        over_budget_seen,
        "tenant 0 ingested {applied_before_error} rows without tripping its \
         {}-byte budget",
        SHARDS * BLOCK_SIZE
    );
    assert!(
        applied_before_error > 0,
        "some rows must land before the cap"
    );

    // Tenant 1 is unaffected: ingest and query straddle the same shards.
    let rows: Vec<(u64, u64)> = (0..1000u64).map(|k| (k, k)).collect();
    assert_eq!(client.upsert(1, rows).unwrap(), 1000);
    assert_eq!(client.count(1, 0, 1000).unwrap(), 1000);
    let (n, total) = client.sum(1, 0, 500).unwrap();
    assert_eq!(n, 500);
    assert_eq!(total, (0..500u64).sum::<u64>());

    // Tenant 0 still answers queries over what it managed to ingest. The
    // erroring batch applies partially (the wire error reports how far it
    // got), so the live count may exceed the fully-acked rows by up to one
    // batch.
    let counted = client.count(0, 0, u64::MAX).unwrap();
    assert!(
        counted >= applied_before_error && counted <= applied_before_error + 512,
        "live count {counted} inconsistent with {applied_before_error} acked rows"
    );

    // The scrape's stats section reports the rejection and the budget.
    assert_eq!(scraped_stats(&mut client, "shards").len(), SHARDS);
    let tenants = scraped_stats(&mut client, "tenants");
    assert_eq!(tenants.len(), 2);
    let capped = &tenants[0];
    assert_eq!(field(capped, "budget_bytes"), (SHARDS * BLOCK_SIZE) as u64);
    assert!(field(capped, "over_budget_errors") >= 1);
    assert!(field(capped, "used_bytes") > 0);
    assert_eq!(field(&tenants[1], "budget_bytes"), u64::MAX);

    let report = server.shutdown();
    assert!(
        report.clean(),
        "drain failures: {:?}",
        report.verify_errors()
    );
}

#[test]
fn scatter_gather_aggregates_match_a_local_model() {
    let mut server = budgeted_server();
    let mut client = connect(&server);

    // Ingest into the unlimited tenant with values we can model exactly.
    let rows: Vec<(u64, u64)> = (0..5000u64).map(|k| (k, k % 97)).collect();
    assert_eq!(client.upsert(1, rows.clone()).unwrap(), 5000);

    // Overwrite a slice of them (upsert semantics).
    let rewrites: Vec<(u64, u64)> = (100..200u64).map(|k| (k, 1_000_000)).collect();
    assert_eq!(client.upsert(1, rewrites).unwrap(), 100);

    // Delete another slice (including keys never inserted).
    let mut doomed: Vec<u64> = (300..400u64).collect();
    doomed.extend(9_000_000..9_000_010);
    assert_eq!(client.delete(1, doomed).unwrap(), 100);

    // Local model of the same operations.
    let mut model: std::collections::HashMap<u64, u64> = rows.into_iter().collect();
    for k in 100..200u64 {
        model.insert(k, 1_000_000);
    }
    for k in 300..400u64 {
        model.remove(&k);
    }

    for (lo, hi) in [
        (0u64, 97u64),
        (10, 50),
        (0, u64::MAX),
        (1_000_000, 1_000_001),
    ] {
        let expect_count = model.values().filter(|&&v| v >= lo && v < hi).count() as u64;
        let expect_sum: u64 = model.values().filter(|&&v| v >= lo && v < hi).sum();
        assert_eq!(
            client.count(1, lo, hi).unwrap(),
            expect_count,
            "count [{lo}, {hi})"
        );
        let (n, s) = client.sum(1, lo, hi).unwrap();
        assert_eq!(n, expect_count, "sum count [{lo}, {hi})");
        assert_eq!(s, expect_sum, "sum total [{lo}, {hi})");
    }

    // Both shards did real work (the hash spreads 5000 sequential keys),
    // and the aggregates above went through pinned, morsel-driven scans.
    for (i, s) in scraped_stats(&mut client, "shards").iter().enumerate() {
        assert!(field(s, "requests") > 0, "shard {i} served nothing");
        let scanned = ["pins_taken", "blocks_scanned", "morsels_dispatched"]
            .iter()
            .all(|&k| field(s, k) > 0);
        assert!(
            scanned,
            "shard {i} answered queries without scanning: {}",
            s.to_json()
        );
    }

    let report = server.shutdown();
    assert!(
        report.clean(),
        "drain failures: {:?}",
        report.verify_errors()
    );
}

#[test]
fn concurrent_clients_see_consistent_totals() {
    let mut server = budgeted_server();
    let addr = server.local_addr();

    // Four writers, disjoint key ranges, same tenant.
    let mut joins = Vec::new();
    for w in 0..4u64 {
        joins.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            c.set_timeout(Some(Duration::from_secs(30))).unwrap();
            let base = w * 10_000;
            let rows: Vec<(u64, u64)> = (base..base + 2500).map(|k| (k, 1)).collect();
            c.upsert(1, rows).unwrap()
        }));
    }
    let applied: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
    assert_eq!(applied, 10_000);

    let mut client = connect(&server);
    assert_eq!(client.count(1, 0, u64::MAX).unwrap(), 10_000);
    let (n, s) = client.sum(1, 1, 2).unwrap();
    assert_eq!((n, s), (10_000, 10_000));

    let report = server.shutdown();
    assert!(
        report.clean(),
        "drain failures: {:?}",
        report.verify_errors()
    );
    assert_eq!(report.shards.len(), SHARDS);
    for d in &report.shards {
        assert_eq!(d.tenants_verified, 2);
    }
}

/// A tenant filled to its budget and then shed takes the very next upsert.
/// The deleted rows' block ripens two epochs after it was queued for reuse,
/// and the context's budget gate advances the epoch again before it
/// refuses, so the first insert after the deletes already finds room.
#[test]
fn first_upsert_after_deletes_lands_in_a_full_tenant() {
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 1,
        tenants: vec![TenantConfig {
            name: "one-block".to_string(),
            budget_bytes: Some(BLOCK_SIZE as u64),
        }],
        ..ServerConfig::default()
    })
    .expect("server binds an ephemeral port");
    let mut client = connect(&server);
    let mut rows = 0u64;
    loop {
        match client.upsert(0, vec![(rows, rows)]) {
            Ok(1) => rows += 1,
            Err(ClientError::Server(ErrorCode::TenantOverBudget, _)) => break,
            other => panic!("row {rows}: expected Ok(1) or a budget error, got {other:?}"),
        }
        assert!(rows < BLOCK_SIZE as u64, "the budget never refused");
    }
    let shed: Vec<u64> = (0..rows / 2).collect();
    assert_eq!(client.delete(0, shed).unwrap(), rows / 2);
    for i in 0..4 {
        let key = rows + i;
        let answer = client.upsert(0, vec![(key, key)]);
        assert!(
            matches!(answer, Ok(1)),
            "upsert {i} after shedding {} of {rows} rows: {answer:?}",
            rows / 2
        );
    }
    assert_eq!(client.count(0, 0, u64::MAX).unwrap(), rows - rows / 2 + 4);
    let report = server.shutdown();
    assert!(
        report.clean(),
        "drain failures: {:?}",
        report.verify_errors()
    );
}
