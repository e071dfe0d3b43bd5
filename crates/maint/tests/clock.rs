//! Idle means idle, on a held clock: a context whose blocks are all half
//! full has plenty of dead and hole bytes, but no block a pass would claim,
//! so the coordinator starts nothing however many periods go by. Once two
//! blocks fall under the occupancy cutoff, the next period starts exactly
//! one pass, and that pass moves rows. Real time only paces the
//! coordinator's wake-ups; each period is one of the process clock.
//!
//! The manual clock is process-wide, so this file holds one test and is
//! its own binary.

use std::time::Duration;

use smc::{ContextConfig, Smc};
use smc_maint::{Coordinator, MaintConfig, MaintPolicy};
use smc_memory::Runtime;
use smc_obs::clock::Manual;

/// The coordinator's period (`coordinator::PERIOD`).
const PERIOD: Duration = Duration::from_millis(125);

/// Polls `done` in real time for up to ten seconds.
fn eventually(mut done: impl FnMut() -> bool) -> bool {
    for _ in 0..5_000 {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    done()
}

#[test]
fn half_full_blocks_get_no_pass_and_two_sparse_blocks_get_one() {
    let clock = Manual::install();
    let rt = Runtime::new();
    let c: Smc<[u64; 8]> = Smc::with_config(&rt, ContextConfig::default());
    let refs: Vec<_> = (0..20_000u64).map(|k| c.add([k; 8])).collect();
    // Every other row: each block is 50 % occupied, above the 30 % cutoff,
    // while (dead + hole) / footprint is about a half.
    let mut survivors = Vec::new();
    for (i, r) in refs.into_iter().enumerate() {
        if i % 2 == 1 {
            assert!(c.remove(r));
        } else {
            survivors.push(r);
        }
    }
    assert_eq!(c.context().compaction_candidates(), 0);

    let coord = Coordinator::new(MaintConfig::default());
    c.register_maintenance(&coord, MaintPolicy);
    for _ in 0..40 {
        clock.advance(PERIOD);
        std::thread::sleep(PERIOD / 4);
    }
    // Let the coordinator look at the last period before freeing more.
    std::thread::sleep(2 * PERIOD);
    assert_eq!(
        coord.snapshot().passes_planned,
        0,
        "no pass for a context no pass would claim a block of: {:?}",
        coord.snapshot()
    );

    // Seven of every eight survivors in the first half: those blocks drop
    // to about 6 % occupancy. The allocating thread's block is at the end.
    let half = survivors.len() / 2;
    for (i, r) in survivors.drain(..half).enumerate() {
        if i % 8 != 0 {
            assert!(c.remove(r));
        }
    }
    assert!(c.context().compaction_candidates() >= 2);
    std::thread::sleep(2 * PERIOD);
    assert_eq!(
        coord.snapshot().passes_planned,
        0,
        "no period begins while the clock is held"
    );

    clock.advance(PERIOD);
    assert!(
        eventually(|| coord.snapshot().passes_completed == 1),
        "the next period starts the due pass: {:?}",
        coord.snapshot()
    );
    std::thread::sleep(2 * PERIOD);
    coord.quiesce();
    let snap = coord.snapshot();
    assert_eq!(snap.passes_planned, 1, "exactly one pass: {snap:?}");
    assert!(
        snap.last_pass.is_some_and(|lp| lp.moved > 0),
        "the pass moved rows: {snap:?}"
    );
    c.verify().expect("verify after quiesce");
}
