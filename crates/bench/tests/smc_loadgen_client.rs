//! `smc-loadgen` against an embedded server: the run takes its shard and
//! tenant counts from the server's scrape, not from flags, and an
//! unreachable server fails before any load.

use std::path::Path;
use std::process::{Command, Output};

use smc_obs::JsonValue;
use smc_serve::{Server, ServerConfig, TenantConfig};

/// Neither is the server's or the loadgen's old default of 2, so the
/// report can only have learned them from the scrape.
const SHARDS: usize = 3;
const TENANTS: usize = 3;

fn smc_loadgen(addr: &str, bench_dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_smc-loadgen"))
        .args(["--addr", addr, "--duration", "1s", "--rate", "300"])
        .args(["--connections", "3"])
        .env("SMC_BENCH_DIR", bench_dir)
        .output()
        .expect("smc-loadgen runs")
}

/// The `passed` field of the report check `name`.
fn check(report: &JsonValue, name: &str) -> Option<bool> {
    let checks = report.get("checks").and_then(JsonValue::as_arr).unwrap();
    let c = checks
        .iter()
        .find(|c| c.get("name").and_then(JsonValue::as_str) == Some(name))
        .unwrap_or_else(|| panic!("no check {name}"));
    c.get("passed").and_then(JsonValue::as_bool)
}

#[test]
fn smc_loadgen_reads_the_server_layout_from_its_scrape() {
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: SHARDS,
        workers_per_shard: 1,
        tenants: (0..TENANTS)
            .map(|i| TenantConfig {
                name: format!("t{i}"),
                budget_bytes: None,
            })
            .collect(),
        slow_request_threshold: std::time::Duration::ZERO,
        ..ServerConfig::default()
    })
    .expect("server binds an ephemeral port");
    let addr = server.local_addr().to_string();
    let dir = std::env::temp_dir().join(format!("smc-loadgen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Exit 0 or 1 (a timed check may miss on a loaded host); 2 would mean
    // no report was written.
    let out = smc_loadgen(&addr, &dir);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(matches!(out.status.code(), Some(0 | 1)), "{stderr}");
    let text = std::fs::read_to_string(dir.join("BENCH_fig16.json")).expect("report written");
    let report = JsonValue::parse(&text).expect("report is JSON");
    let params = report.get("params").unwrap();
    let param = |k: &str| params.get(k).and_then(JsonValue::as_u64);
    assert_eq!(param("shards"), Some(SHARDS as u64), "{text}");
    assert_eq!(param("tenants"), Some(TENANTS as u64), "{text}");
    let series = report.get("series").and_then(JsonValue::as_arr).unwrap();
    let rows = |name: &str| {
        let s = series
            .iter()
            .find(|s| s.get("name").and_then(JsonValue::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no series {name}"));
        s.get("rows").and_then(JsonValue::as_arr).unwrap().len()
    };
    assert_eq!(rows("shard_requests"), SHARDS, "{text}");
    assert_eq!(rows("tenant_stats"), TENANTS, "{text}");
    for name in [
        "no_internal_errors",
        "shard_requests_nonzero",
        "no_dropped_tenants",
        "attribution_scraped",
    ] {
        assert_eq!(check(&report, name), Some(true), "{name}: {text}");
    }
    std::fs::remove_dir_all(&dir).unwrap();

    let drain = server.shutdown();
    assert!(drain.clean(), "{:?}", drain.verify_errors());
    // The drained server's port is closed: the first scrape fails, exit 1.
    let out = smc_loadgen(&addr, &dir);
    assert_eq!(out.status.code(), Some(1), "an unreachable server fails");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("scrape of"), "{stderr}");
}
