//! `smc-serve` — the standalone shard-per-core multi-tenant SMC server.
//!
//! Binds a TCP listener and runs [`smc_serve::Server`] until SIGINT or
//! SIGTERM, then winds down through the verified drain: stop the acceptor,
//! finish in-flight requests, quiesce every shard's maintenance
//! coordinator, and `Smc::verify` + `Runtime::verify` each shard. The exit
//! code reports the drain: 0 when every shard reconciled clean, 1 when any
//! validator complained.
//!
//! ```text
//! smc-serve [--addr HOST:PORT] [--shards N] [--workers N]
//!           [--tenants N] [--budget-mb M] [--persist-dir PATH]
//!           [--slow-us U]
//! ```
//!
//! `--budget-mb M` (when nonzero) caps **tenant 0** at M MiB across all
//! shards — the canonical multi-tenant demo: hammer tenant 0 past its
//! budget and watch it get clean `TenantOverBudget` errors while the other
//! tenants keep answering. Remaining tenants are unlimited.
//!
//! `--persist-dir PATH` turns on the persistence tier: every tenant is
//! recovered from its last snapshot at start, budgets smaller than the
//! dataset spill to a per-tenant page file instead of rejecting, and the
//! SIGTERM drain writes a fresh snapshot of the verified state before
//! exit. The shard/tenant layout under PATH is
//! `shard-<i>/tenant-<id>/{snapshot/,spill.dat}`.
//!
//! `--slow-us U` sets the tail-latency attribution threshold (default
//! 1000 µs): requests slower than U microseconds record a structured
//! breakdown into the per-op-class histograms the `SCRAPE` wire op (and
//! `smc-top`) report.
//!
//! The flight recorder is always armed. When `SMC_FLIGHT_OUT` names a
//! destination path, the last-seconds event ring is dumped there on panic,
//! SLO breach, failed drain verify — or on demand via `kill -USR1 <pid>`.

use std::time::Duration;

use smc_bench::{
    arg_string, arg_usize, init_tracing, install_signal_handler, install_usr1_handler, interrupted,
    trace_lost, usr1_requested,
};
use smc_serve::{Server, ServerConfig, TenantConfig};

fn main() {
    let addr = arg_string("--addr").unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let shards = arg_usize("--shards", 2).max(1);
    let workers = arg_usize("--workers", 2).max(1);
    let ntenants = arg_usize("--tenants", 2).max(1);
    let budget_mb = arg_usize("--budget-mb", 0);
    let slow_us = arg_usize("--slow-us", 1000);
    let persist_dir = arg_string("--persist-dir").map(std::path::PathBuf::from);

    let tenants = (0..ntenants)
        .map(|i| TenantConfig {
            name: format!("tenant{i}"),
            budget_bytes: if i == 0 && budget_mb > 0 {
                Some((budget_mb as u64) << 20)
            } else {
                None
            },
        })
        .collect();

    install_signal_handler();
    install_usr1_handler();
    // Spans live in *this* process: with SMC_TRACE_OUT set, the SIGTERM
    // drain writes the Chrome trace — including the per-request `req.*`
    // spans of requests whose clients sent a request id.
    init_tracing();
    // The flight recorder is always on: a fixed-budget ring of the last
    // events, dumped to SMC_FLIGHT_OUT on panic / SLO breach / failed
    // drain verify / SIGUSR1. Zero steady-state allocation.
    smc_obs::flight::enable();
    smc_obs::flight::install_panic_hook();
    if let Some(dir) = &persist_dir {
        println!("smc-serve: persistence at {}", dir.display());
    }
    let mut server = match Server::start(ServerConfig {
        addr,
        shards,
        workers_per_shard: workers,
        tenants,
        persist_dir,
        slow_request_threshold: Duration::from_micros(slow_us as u64),
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("smc-serve: bind failed: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "smc-serve: listening on {} ({shards} shards x {workers} workers, {ntenants} tenants)",
        server.local_addr()
    );

    while !interrupted() {
        if usr1_requested() {
            match smc_obs::flight::dump("sigusr1") {
                Some(path) => println!("smc-serve: flight dump at {}", path.display()),
                None => eprintln!(
                    "smc-serve: SIGUSR1 received but SMC_FLIGHT_OUT is unset; no dump written"
                ),
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    println!("smc-serve: signal received, draining");
    let report = server.shutdown();
    let trace_lost = trace_lost();
    for d in &report.shards {
        println!(
            "smc-serve: shard {} drained: {} requests, {} tenants verified, \
             {} snapshots written",
            d.shard, d.requests, d.tenants_verified, d.snapshots_written
        );
    }
    let errors = report.verify_errors();
    if errors.is_empty() && !trace_lost {
        println!(
            "smc-serve: drain verified clean ({} requests total)",
            report.requests()
        );
        std::process::exit(0);
    }
    for e in errors {
        eprintln!("smc-serve: VERIFY FAILED: {e}");
    }
    std::process::exit(1);
}
