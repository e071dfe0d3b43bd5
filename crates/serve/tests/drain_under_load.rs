//! Drain under load: `Server::shutdown` must finish while clients keep
//! their connections busy.
//!
//! A closed-loop client always has its next frame on the wire by the time
//! the server has answered the previous one, so the connection thread's
//! read never times out. The drain therefore has to notice `stop` between
//! requests, answer the next one with `Shutdown`, and hang up — within a
//! bound, with every request it *did* acknowledge applied and verified.

use std::sync::mpsc;
use std::time::Duration;

use smc_serve::wire::ErrorCode;
use smc_serve::{Client, ClientError, DrainReport, Server, ServerConfig, TenantConfig};

/// How long a drain may take with busy connections. The mechanism needs one
/// request round trip per connection; the slack is for a loaded test host.
const DRAIN_BOUND: Duration = Duration::from_secs(5);

/// Starts a server, runs `op` in a closed loop on each of `clients`
/// connections until the server hangs up, shuts down once every loop has
/// completed `warm` requests, and returns the drain report together with
/// the number of requests each loop had acknowledged.
fn drain_under(
    clients: usize,
    warm: u64,
    op: fn(&mut Client, u64) -> Result<(), ClientError>,
) -> (DrainReport, Vec<u64>) {
    let mut server = Server::start(ServerConfig {
        shards: 2,
        workers_per_shard: 1,
        tenants: vec![TenantConfig {
            name: "t".to_string(),
            budget_bytes: None,
        }],
        ..ServerConfig::default()
    })
    .expect("server binds an ephemeral port");
    let addr = server.local_addr();
    let (warmed_tx, warmed_rx) = mpsc::channel();
    let loops: Vec<_> = (0..clients)
        .map(|_| {
            let warmed = warmed_tx.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("loopback connect");
                client
                    .set_timeout(Some(Duration::from_secs(30)))
                    .expect("socket option");
                let mut acked = 0u64;
                loop {
                    match op(&mut client, acked) {
                        Ok(()) => acked += 1,
                        // The drain's goodbye, or the close right behind it.
                        Err(ClientError::Server(ErrorCode::Shutdown, _))
                        | Err(ClientError::Io(_)) => return acked,
                        Err(other) => panic!("request {acked} failed with {other:?}"),
                    }
                    if acked == warm {
                        warmed.send(()).expect("main thread listens");
                    }
                }
            })
        })
        .collect();
    for _ in 0..clients {
        warmed_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("every loop reaches its warm-up count");
    }

    // The bound is enforced from a watchdog so that a hung drain fails the
    // test instead of hanging the run.
    let (done_tx, done_rx) = mpsc::channel();
    let drain = std::thread::spawn(move || {
        let report = server.shutdown();
        done_tx.send(()).expect("main thread listens");
        report
    });
    done_rx
        .recv_timeout(DRAIN_BOUND)
        .expect("shutdown did not return within the bound under a busy connection");
    let report = drain.join().expect("drain thread");
    let acked = loops
        .into_iter()
        .map(|l| l.join().expect("client loop"))
        .collect();
    (report, acked)
}

#[test]
fn shutdown_returns_under_a_live_ping_loop() {
    let (report, acked) = drain_under(1, 1_000, |client, _| client.ping());
    assert!(report.clean(), "{:?}", report.verify_errors());
    assert!(acked[0] >= 1_000);
    assert_eq!(report.requests(), 0, "pings never reach a shard");
}

#[test]
fn shutdown_returns_under_live_upsert_loops_and_keeps_every_acked_batch() {
    // Eight consecutive keys per request, so both shards see work from both
    // connections while the drain starts.
    let (report, acked) = drain_under(2, 200, |client, i| {
        let rows = (0..8).map(|j| (i * 8 + j, i)).collect();
        client.upsert(0, rows).map(|applied| assert_eq!(applied, 8))
    });
    assert!(report.clean(), "{:?}", report.verify_errors());
    assert_eq!(report.shards.len(), 2);
    // Every acknowledged request reached at least one shard; one that was
    // executing when its connection saw `stop` may have been served without
    // the client reading the ack, never the other way round.
    let acked: u64 = acked.iter().sum();
    assert!(acked >= 400);
    assert!(
        report.requests() >= acked,
        "shards served {} jobs for {acked} acknowledged requests",
        report.requests()
    );
}
