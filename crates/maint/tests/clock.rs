//! Idle means idle, on a held clock: a context whose blocks are all half
//! full has plenty of dead and hole bytes, but no block a pass would claim,
//! so the coordinator starts nothing however many periods go by. Once two
//! blocks fall under the occupancy cutoff, the next period starts exactly
//! one pass, and that pass moves rows. Blocks a pass would claim but could
//! not pair into one fresh block get no pass either. Real time only paces
//! the coordinator's wake-ups; each period is one of the process clock.
//!
//! The manual clock is process-wide, so this file is its own binary and
//! its tests take turns holding the clock.

use std::time::Duration;

use smc::{ContextConfig, Smc};
use smc_maint::{Coordinator, MaintConfig, MaintPolicy};
use smc_memory::Runtime;
use smc_obs::clock::Manual;

/// The coordinator's period (`coordinator::PERIOD`).
const PERIOD: Duration = Duration::from_millis(125);

/// Moves the held clock through `n` periods, a quarter period of real time
/// apart, then gives the coordinator real time to look at the last one.
fn hold_periods(clock: &Manual, n: usize) {
    for _ in 0..n {
        clock.advance(PERIOD);
        std::thread::sleep(PERIOD / 4);
    }
    std::thread::sleep(2 * PERIOD);
}

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
    assert!(!c.context().compaction_due());

    let coord = Coordinator::new(MaintConfig::default());
    c.register_maintenance(&coord, MaintPolicy);
    hold_periods(&clock, 40);
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
    assert!(c.context().compaction_due());
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

#[test]
fn candidates_no_group_can_take_get_no_pass() {
    let clock = Manual::install();
    let rt = Runtime::new();
    let config = ContextConfig {
        compaction_occupancy: 0.85,
        ..ContextConfig::default()
    };
    let c: Smc<[u64; 8]> = Smc::with_config(&rt, config);
    let refs: Vec<_> = (0..20_000u64).map(|k| c.add([k; 8])).collect();
    // Two of every five rows: each block is 60 % occupied, under the 85 %
    // cutoff, and no two of them fit one fresh block.
    for (i, r) in refs.into_iter().enumerate() {
        if i % 5 == 1 || i % 5 == 3 {
            assert!(c.remove(r));
        }
    }
    let snap = c.heap_snapshot();
    let blocks = &snap.collections[0].blocks;
    let sparse = blocks.iter().filter(|b| b.occupancy() < 0.85).count();
    assert!(sparse >= 2, "{blocks:?}");
    assert!(!c.context().compaction_due());

    let coord = Coordinator::new(MaintConfig::default());
    c.register_maintenance(&coord, MaintPolicy);
    hold_periods(&clock, 40);
    coord.quiesce();
    let snap = coord.snapshot();
    assert_eq!(
        snap.passes_planned, 0,
        "no pass for candidates no group can take: {snap:?}"
    );
    c.verify().expect("verify after quiesce");
}
