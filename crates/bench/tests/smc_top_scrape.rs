//! `smc-top` against an embedded server: the dashboard, the raw scrape
//! document, and the two failure exits (usage, unreachable server).

use std::process::{Command, Output};
use std::time::Duration;

use smc_obs::JsonValue;
use smc_serve::{Client, Server, ServerConfig, TenantConfig};

const SHARDS: usize = 2;

fn smc_top(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_smc-top"))
        .args(args)
        .output()
        .expect("smc-top runs")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "smc-top exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("UTF-8 output")
}

#[test]
fn smc_top_renders_and_dumps_a_live_server() {
    let tenant = |name: &str| TenantConfig {
        name: name.to_string(),
        budget_bytes: None,
    };
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: SHARDS,
        workers_per_shard: 1,
        tenants: vec![tenant("alpha"), tenant("beta")],
        ..ServerConfig::default()
    })
    .expect("server binds an ephemeral port");
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    for tenant in 0..2u16 {
        for batch in 0..10u64 {
            let rows = (0..200).map(|k| (batch * 200 + k, k)).collect();
            assert_eq!(client.upsert(tenant, rows).unwrap(), 200);
        }
    }

    let text = stdout(&smc_top(&["--addr", &addr, "--once"]));
    let count = |needle: &str| text.lines().filter(|l| l.contains(needle)).count();
    assert_eq!(count(" maint: active "), SHARDS, "{text}");
    assert_eq!(count(" heap — epoch "), SHARDS, "{text}");
    assert_eq!(count("    tenants: ctx#"), 2 * SHARDS, "{text}");

    let json = stdout(&smc_top(&["--addr", &addr, "--json", "--once"]));
    let doc = JsonValue::parse(json.trim()).expect("one JSON document");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("smc-scrape/v1")
    );
    let maint = doc
        .get("maint")
        .and_then(JsonValue::as_arr)
        .expect("per-shard maint");
    assert_eq!(maint.len(), SHARDS);
    for m in maint {
        assert!(m
            .get("passes_planned")
            .and_then(JsonValue::as_u64)
            .is_some());
        assert!(m
            .get("compaction_pause_ns")
            .and_then(|h| h.get("count"))
            .is_some());
    }

    assert_eq!(
        smc_top(&[]).status.code(),
        Some(2),
        "no mode is a usage error"
    );

    drop(client);
    let report = server.shutdown();
    assert!(report.clean(), "{:?}", report.verify_errors());
    // The drained server's port is closed now.
    let out = smc_top(&["--addr", &addr, "--once"]);
    assert_eq!(out.status.code(), Some(1), "an unreachable server fails");
}
