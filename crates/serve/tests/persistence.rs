//! The persistence tier end-to-end: drain writes snapshots, a cold start
//! recovers them (including the rebuilt key index, exercised by updating
//! recovered keys), and a tenant budget smaller than the dataset completes
//! ingest and full scans by spilling to the per-tenant page file instead
//! of answering `TenantOverBudget`.

use std::path::PathBuf;
use std::time::Duration;

use smc_memory::BLOCK_SIZE;
use smc_serve::{Client, Server, ServerConfig, TenantConfig};

const SHARDS: usize = 2;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smc-serve-persist-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn server_at(dir: &std::path::Path, budget_bytes: Option<u64>) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: SHARDS,
        workers_per_shard: 2,
        tenants: vec![TenantConfig {
            name: "persisted".to_string(),
            budget_bytes,
        }],
        persist_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    })
    .expect("server binds an ephemeral port")
}

fn connect(server: &Server) -> Client {
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.set_timeout(Some(Duration::from_secs(30))).unwrap();
    c
}

#[test]
fn drain_snapshots_and_cold_start_recovers_exactly() {
    let dir = tmpdir("roundtrip");
    const N: u64 = 10_000;

    // Generation 1: ingest, remember the aggregates, drain.
    let (count1, sum1) = {
        let mut server = server_at(&dir, None);
        let mut client = connect(&server);
        let rows: Vec<(u64, u64)> = (0..N).map(|k| (k, k * 7)).collect();
        for batch in rows.chunks(512) {
            assert_eq!(
                client.upsert(0, batch.to_vec()).unwrap(),
                batch.len() as u64
            );
        }
        let agg = client.sum(0, 0, u64::MAX).unwrap();
        drop(client);
        let report = server.shutdown();
        assert!(report.clean(), "drain errors: {:?}", report.verify_errors());
        assert_eq!(
            report.snapshots_written(),
            SHARDS,
            "one snapshot per shard-tenant pair"
        );
        agg
    };
    assert_eq!(count1, N);

    // Cold start: the aggregates come back bit-exact.
    let mut server = server_at(&dir, None);
    let mut client = connect(&server);
    assert_eq!(client.count(0, 0, u64::MAX).unwrap(), count1);
    assert_eq!(client.sum(0, 0, u64::MAX).unwrap(), (count1, sum1));

    // The key index was rebuilt, not just the rows: updating a recovered
    // key must overwrite in place (same count, shifted sum), not insert.
    assert_eq!(client.upsert(0, vec![(0, 1_000_000)]).unwrap(), 1);
    assert_eq!(
        client.sum(0, 0, u64::MAX).unwrap(),
        (count1, sum1.wrapping_add(1_000_000)),
        "recovered key 0 must be updated, not duplicated"
    );
    // And deletes through the recovered index work too.
    assert_eq!(client.delete(0, vec![1, 2, 3]).unwrap(), 3);
    assert_eq!(client.count(0, 0, u64::MAX).unwrap(), count1 - 3);

    drop(client);
    let report = server.shutdown();
    assert!(report.clean(), "drain errors: {:?}", report.verify_errors());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn budget_smaller_than_dataset_spills_instead_of_rejecting() {
    let dir = tmpdir("spill");
    // One block per shard; without the spill rung this dataset trips
    // TenantOverBudget (that path is pinned by the multi_tenant test).
    let budget = Some((SHARDS * BLOCK_SIZE) as u64);
    let n = (SHARDS * 4 * BLOCK_SIZE / 16) as u64;

    let mut server = server_at(&dir, budget);
    let mut client = connect(&server);
    let mut expected_sum = 0u64;
    for start in (0..n).step_by(512) {
        let batch: Vec<(u64, u64)> = (start..(start + 512).min(n)).map(|k| (k, k * 3)).collect();
        for (_, v) in &batch {
            expected_sum = expected_sum.wrapping_add(*v);
        }
        assert_eq!(
            client.upsert(0, batch.to_vec()).unwrap(),
            batch.len() as u64,
            "with a spill store attached the budget must evict, not reject"
        );
    }
    // A full scan faults spilled pages back in transparently.
    assert_eq!(client.sum(0, 0, u64::MAX).unwrap(), (n, expected_sum));

    drop(client);
    let report = server.shutdown();
    assert!(report.clean(), "drain errors: {:?}", report.verify_errors());

    // And the whole larger-than-memory state survives a cold restart.
    let mut server = server_at(&dir, budget);
    let mut client = connect(&server);
    assert_eq!(client.sum(0, 0, u64::MAX).unwrap(), (n, expected_sum));
    drop(client);
    assert!(server.shutdown().clean());
    std::fs::remove_dir_all(&dir).ok();
}

/// A server whose tenant holds the keys `0..n` under a budget that spills
/// most of them, with every spilled page then made unreadable: the spill
/// files are zero-filled under the running server, so each page fails its
/// checksum. Returns the directory, the server, a client and `n`.
fn unreadable_spill(tag: &str) -> (PathBuf, Server, Client, u64) {
    let dir = tmpdir(tag);
    let budget = Some((SHARDS * BLOCK_SIZE) as u64);
    let n = (SHARDS * 3 * BLOCK_SIZE / 16) as u64;
    let server = server_at(&dir, budget);
    let mut client = connect(&server);
    let rows: Vec<(u64, u64)> = (0..n).map(|k| (k, k)).collect();
    for batch in rows.chunks(512) {
        assert_eq!(
            client.upsert(0, batch.to_vec()).unwrap(),
            batch.len() as u64
        );
    }
    let mut zeroed = 0;
    for shard in 0..SHARDS {
        let path = dir.join(format!("shard-{shard}/tenant-0/spill.dat"));
        let len = std::fs::metadata(&path).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        std::os::unix::fs::FileExt::write_all_at(&file, &vec![0; len as usize], 0).unwrap();
        zeroed += len;
    }
    assert!(zeroed > 0, "the budget spilled nothing");
    (dir, server, client, n)
}

/// `answer` is the error frame of a spill fault.
fn refused<T: std::fmt::Debug>(answer: Result<T, smc_serve::ClientError>) {
    match answer {
        Err(smc_serve::ClientError::Server(code, msg)) => {
            assert_eq!(code, smc_serve::wire::ErrorCode::Internal, "{msg}");
            assert!(msg.contains("spilled page"), "{msg}");
        }
        other => panic!("an operation over unreadable pages answered {other:?}"),
    }
}

/// The shards are still serving: a ping, and fresh keys on both shards.
/// Stops the server.
fn still_serving(dir: PathBuf, server: Server, mut client: Client, n: u64) {
    client.ping().unwrap();
    let fresh: Vec<(u64, u64)> = (n..n + 64).map(|k| (k, k)).collect();
    assert_eq!(client.upsert(0, fresh).unwrap(), 64);
    drop(client);
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// An upsert that lands on a key whose spilled page cannot be read back is
/// answered with an error frame naming the spill fault, and the shard keeps
/// serving.
#[test]
fn an_unreadable_spilled_page_fails_the_upsert_not_the_shard() {
    let (dir, server, mut client, n) = unreadable_spill("unreadable");
    // Every key once: the ones in spilled pages cannot be updated.
    let rewrite: Vec<(u64, u64)> = (0..n).map(|k| (k, k + 1)).collect();
    refused(client.upsert(0, rewrite));
    still_serving(dir, server, client, n);
}

/// A `COUNT` or `SUM` over a tenant whose spilled pages cannot be read back
/// is answered with an error frame naming the spill fault, and the shard
/// keeps serving, as an upsert over such pages is.
#[test]
fn an_unreadable_spilled_page_fails_the_count_not_the_shard() {
    let (dir, server, mut client, n) = unreadable_spill("unreadable-count");
    refused(client.count(0, 0, u64::MAX));
    refused(client.sum(0, 0, u64::MAX));
    still_serving(dir, server, client, n);
}

/// A `DELETE` of a key whose spilled page cannot be read back is answered
/// with an error frame naming the spill fault, and the row keeps its key: a
/// second delete meets the same page and fails the same way. The shard
/// keeps serving.
#[test]
fn an_unreadable_spilled_page_fails_the_delete_not_the_shard() {
    let (dir, server, mut client, n) = unreadable_spill("unreadable-delete");
    let every_key: Vec<u64> = (0..n).collect();
    refused(client.delete(0, every_key.clone()));
    refused(client.delete(0, every_key));
    still_serving(dir, server, client, n);
}
