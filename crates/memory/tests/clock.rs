//! The §5.2 patience bail, on a held clock: "the compaction thread bails out
//! of compacting a certain group after waiting for a predefined amount of
//! time". A reader pinned one epoch behind the global epoch stalls the
//! pass's first epoch advance; the pass must keep waiting while the process
//! clock stands still or has moved less than `compaction_patience`, and
//! give up — `aborted`, context unchanged — the moment it has moved that
//! far. Real time plays no part in the decision.
//!
//! The manual clock is process-wide, so this file holds one test and is
//! its own binary.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use smc::{ContextConfig, Ref, Smc};
use smc_memory::Runtime;
use smc_obs::clock::Manual;

type Row = [u64; 8];

#[test]
fn compaction_waits_while_the_clock_is_held_and_bails_once_patience_passes() {
    let clock = Manual::install();
    let patience = ContextConfig::default().compaction_patience;
    assert_eq!(patience, Duration::from_millis(100));

    let rt = Runtime::new();
    let c: Arc<Smc<Row>> = Arc::new(Smc::new(&rt));
    let all: Vec<Ref<Row>> = (0..20_000).map(|k| c.add([k; 8])).collect();
    let mut kept = Vec::new();
    for (k, r) in all.into_iter().enumerate() {
        if k % 10 == 0 {
            kept.push((r, k as u64));
        } else {
            assert!(c.remove(r));
        }
    }

    // A reader pinned at epoch e, then the global epoch moved to e + 1: the
    // pass (pinned at e + 1) cannot advance to e + 2 until the reader goes.
    let (pinned_tx, pinned_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let reader = {
        let rt = rt.clone();
        std::thread::spawn(move || {
            let _guard = rt.pin();
            pinned_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        })
    };
    pinned_rx.recv().unwrap();
    assert!(rt.try_advance_epoch().is_some(), "reader pinned at e");

    let (done_tx, done_rx) = mpsc::channel();
    let pass = {
        let c = c.clone();
        std::thread::spawn(move || done_tx.send(c.compact()).unwrap())
    };
    // The pass has claimed its candidates (and is about to wait on the
    // reader) once the snapshot shows them compacting.
    for _ in 0..10_000 {
        let snap = c.heap_snapshot();
        if snap.collections[0].blocks.iter().any(|b| b.compacting) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let still_waiting = |what: &str| {
        let got = done_rx.recv_timeout(Duration::from_millis(50));
        assert!(
            matches!(got, Err(RecvTimeoutError::Timeout)),
            "the pass returned {what}: {got:?}"
        );
    };
    still_waiting("while the clock was held");
    clock.advance(patience - Duration::from_millis(1));
    still_waiting("before its patience had passed");
    clock.advance(Duration::from_millis(1));
    let report = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the pass bails once its patience has passed");
    pass.join().unwrap();
    assert!(report.aborted, "{report:?}");
    assert_eq!((report.groups, report.moved), (0, 0), "{report:?}");
    c.verify()
        .expect("an aborted pass leaves the context valid");

    // With the reader gone the same pass, on the same held clock, moves.
    release_tx.send(()).unwrap();
    reader.join().unwrap();
    let report = c.compact();
    assert!(!report.aborted, "{report:?}");
    assert!(report.moved > 0, "{report:?}");
    c.release_retired();
    rt.drain_graveyard_blocking();
    c.verify().expect("verify after the second pass");
    let guard = rt.pin();
    for (r, k) in kept {
        assert_eq!(c.read(r, &guard), Some([k; 8]));
    }
}
