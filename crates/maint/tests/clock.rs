//! `MaintPolicy::min_interval` on a held clock: a context that stays due
//! gets one pass, no second one however many planner cycles of real time go
//! by while the process clock stands still, and its second pass as soon as
//! the clock has moved `min_interval`. Real time paces the planner's cycles
//! but decides nothing.
//!
//! The manual clock is process-wide, so this file holds one test and is
//! its own binary.

use std::time::Duration;

use smc::{ContextConfig, Smc};
use smc_maint::{Coordinator, MaintConfig, MaintPolicy};
use smc_memory::Runtime;
use smc_obs::clock::Manual;

/// The planner's cycle period (`coordinator::POLL_INTERVAL`).
const PLANNER_CYCLE: Duration = Duration::from_millis(10);

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
fn a_due_context_waits_min_interval_of_process_clock_between_passes() {
    let clock = Manual::install();
    let rt = Runtime::new();
    // Fragmented past the 30 % ceiling, and kept that way: with no block
    // below a zero occupancy cutoff, a pass claims nothing and the context
    // is due again the moment `min_interval` allows.
    let config = ContextConfig {
        compaction_occupancy: 0.0,
        ..ContextConfig::default()
    };
    let c: Smc<[u64; 8]> = Smc::with_config(&rt, config);
    let refs: Vec<_> = (0..20_000u64).map(|k| c.add([k; 8])).collect();
    for r in refs.into_iter().skip(1).step_by(2) {
        assert!(c.remove(r));
    }

    let coord = Coordinator::new(MaintConfig::default());
    let policy = MaintPolicy::default();
    c.register_maintenance(&coord, policy);
    assert!(
        eventually(|| coord.snapshot().passes_completed == 1),
        "a due context gets its first pass: {:?}",
        coord.snapshot()
    );
    std::thread::sleep(15 * PLANNER_CYCLE);
    assert_eq!(
        coord.snapshot().passes_planned,
        1,
        "no second pass while the clock is held"
    );
    clock.advance(policy.min_interval - Duration::from_nanos(1));
    std::thread::sleep(15 * PLANNER_CYCLE);
    assert_eq!(
        coord.snapshot().passes_planned,
        1,
        "no second pass before min_interval"
    );
    clock.advance(Duration::from_nanos(1));
    assert!(
        eventually(|| coord.snapshot().passes_completed == 2),
        "the second pass follows min_interval: {:?}",
        coord.snapshot()
    );
    coord.quiesce();
    assert_eq!(
        coord.snapshot().passes_throttled,
        0,
        "the pacer never refused"
    );
    c.verify().expect("verify after quiesce");
}
