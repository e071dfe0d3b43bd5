//! Fuzz-ish wire-protocol abuse: broken frames, bogus prefixes, unknown
//! opcodes, and mid-frame disconnects must come back as typed protocol
//! errors (or a clean close) — never a panic — and the server must still
//! drain and verify clean afterwards (no leaked contexts, no stuck epochs).

use std::time::Duration;

use smc_serve::wire::ErrorCode;
use smc_serve::{Client, Server, ServerConfig, TenantConfig};

fn test_server(shards: usize) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards,
        workers_per_shard: 2,
        tenants: vec![
            TenantConfig {
                name: "alpha".to_string(),
                budget_bytes: None,
            },
            TenantConfig {
                name: "beta".to_string(),
                budget_bytes: None,
            },
        ],
        ..ServerConfig::default()
    })
    .expect("server binds an ephemeral port")
}

fn expect_err(client: &mut Client, code: ErrorCode) {
    match client.read_response().expect("server answers with a frame") {
        smc_serve::wire::Response::Err(c, msg) => {
            assert_eq!(c, code, "unexpected error class: {msg}");
        }
        smc_serve::wire::Response::Ok(_) => panic!("expected {code:?}, got OK"),
    }
}

#[test]
fn unknown_opcode_answers_and_keeps_the_connection() {
    let mut server = test_server(2);
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();

    // Properly framed, structurally plausible, unassigned opcodes: 0x06
    // is the retired stats op, which must stay unassigned.
    for op in [0x06, 0x7f] {
        client.send_raw(&[op, 0, 0]).unwrap();
        expect_err(&mut client, ErrorCode::UnknownOp);
    }

    // The connection survives and serves real work afterwards.
    client.ping().expect("connection still usable");

    let report = server.shutdown();
    assert!(
        report.clean(),
        "drain failures: {:?}",
        report.verify_errors()
    );
}

#[test]
fn malformed_bodies_answer_bad_frame_without_panicking() {
    let mut server = test_server(2);
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();

    // Empty payload: not even an opcode.
    client.send_raw(&[]).unwrap();
    expect_err(&mut client, ErrorCode::BadFrame);

    // Upsert whose count field promises 4 billion rows the body never
    // carries — must be rejected without allocating for the claim.
    let mut p = vec![0x02, 0, 0];
    p.extend_from_slice(&u32::MAX.to_le_bytes());
    client.send_raw(&p).unwrap();
    expect_err(&mut client, ErrorCode::BadFrame);

    // A complete request followed by trailing garbage.
    let mut p = smc_serve::wire::Request::Ping.encode();
    p.push(0xee);
    client.send_raw(&p).unwrap();
    expect_err(&mut client, ErrorCode::BadFrame);

    client.ping().expect("connection still usable after abuse");

    let report = server.shutdown();
    assert!(
        report.clean(),
        "drain failures: {:?}",
        report.verify_errors()
    );
}

#[test]
fn oversized_length_prefix_is_refused_then_the_connection_closes() {
    let mut server = test_server(2);
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();

    // A prefix claiming 512 MiB: the server must answer BadFrame without
    // buffering and hang up (the stream cannot be resynchronized).
    client.send_bytes(&((512u32 << 20).to_le_bytes())).unwrap();
    expect_err(&mut client, ErrorCode::BadFrame);

    // The server closed this connection; fresh connections still work.
    let mut fresh = Client::connect(server.local_addr()).unwrap();
    fresh.set_timeout(Some(Duration::from_secs(10))).unwrap();
    fresh.ping().expect("server accepts new connections");

    let report = server.shutdown();
    assert!(
        report.clean(),
        "drain failures: {:?}",
        report.verify_errors()
    );
}

#[test]
fn mid_frame_disconnects_leave_the_server_healthy() {
    let mut server = test_server(2);

    // Ten connections, each dying at a different point mid-frame.
    for i in 0..10u32 {
        let mut client = Client::connect(server.local_addr()).unwrap();
        // A frame header promising 100 bytes, then only `i` of them.
        client.send_bytes(&100u32.to_le_bytes()).unwrap();
        client.send_bytes(&vec![0xab; i as usize]).unwrap();
        drop(client);
    }

    // Interleave a disconnect with real traffic on another connection.
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    client.upsert(0, vec![(1, 10), (2, 20)]).unwrap();
    assert_eq!(client.count(0, 0, u64::MAX).unwrap(), 2);

    let report = server.shutdown();
    assert!(
        report.clean(),
        "drain failures: {:?}",
        report.verify_errors()
    );
    assert!(report.requests() >= 2);
}

#[test]
fn malformed_request_ids_answer_bad_frame_and_keep_the_connection() {
    let mut server = test_server(2);
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();

    let ping = 0x01 | smc_serve::wire::TRACE_FLAG;
    // A flagged PING whose request id is zero, the untraced value.
    let mut zero = vec![ping];
    zero.extend_from_slice(&0u64.to_le_bytes());
    zero.extend_from_slice(&0u16.to_le_bytes());
    // A flagged PING that ends after 3 of its 8 id bytes.
    let short = [ping, 0xaa, 0xbb, 0xcc];
    for frame in [&zero[..], &short[..]] {
        client.send_raw(frame).unwrap();
        expect_err(&mut client, ErrorCode::BadFrame);
        client.ping().expect("connection still usable");
    }

    let report = server.shutdown();
    assert!(
        report.clean(),
        "drain failures: {:?}",
        report.verify_errors()
    );
}

#[test]
fn scrape_answers_a_live_observability_document() {
    let mut server = test_server(2);
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();

    client
        .upsert(0, (0..64).map(|k| (k, k * 2)).collect())
        .unwrap();
    client.count(0, 0, u64::MAX).unwrap();

    let doc = client.scrape().expect("scrape parses");
    let shards = doc
        .get("stats")
        .and_then(|s| s.get("shards"))
        .and_then(|s| s.as_arr())
        .expect("scrape carries per-shard stats");
    assert_eq!(shards.len(), 2);
    let maint = doc
        .get("maint")
        .and_then(|m| m.as_arr())
        .expect("scrape carries per-shard maintenance");
    assert_eq!(maint.len(), 2);
    for (i, m) in maint.iter().enumerate() {
        assert_eq!(m.get("shard").and_then(|s| s.as_u64()), Some(i as u64));
        assert_eq!(m.get("registered").and_then(|r| r.as_u64()), Some(2));
        assert!(m.get("passes_planned").and_then(|p| p.as_u64()).is_some());
        assert!(m.get("slo_breached").and_then(|b| b.as_bool()).is_some());
        for hist in ["compaction_pass_ns", "compaction_pause_ns"] {
            assert!(m.get(hist).and_then(|h| h.get("p99_ns")).is_some());
        }
    }
    assert!(doc.get("attribution").is_some());
    assert!(doc.get("tracer").is_some());
    assert!(doc.get("flight").is_some());

    let report = server.shutdown();
    assert!(report.clean());
}

#[test]
fn unknown_tenants_are_rejected_per_request() {
    let mut server = test_server(2);
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();

    match client.upsert(999, vec![(1, 1)]) {
        Err(smc_serve::ClientError::Server(ErrorCode::UnknownTenant, _)) => {}
        other => panic!("expected UnknownTenant, got {other:?}"),
    }
    match client.count(999, 0, 10) {
        Err(smc_serve::ClientError::Server(ErrorCode::UnknownTenant, _)) => {}
        other => panic!("expected UnknownTenant, got {other:?}"),
    }
    client.ping().unwrap();

    let report = server.shutdown();
    assert!(
        report.clean(),
        "drain failures: {:?}",
        report.verify_errors()
    );
}
