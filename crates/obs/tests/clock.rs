//! The process clock under a manual guard: readings hold still on every
//! thread, step by exactly what `advance` adds, never go backwards across
//! install, advance and drop, and are what the tracer stamps events with.
//!
//! The manual clock is process-wide, so this file holds one test and is
//! its own binary.

use std::time::Duration;

use smc_obs::clock::{self, Manual};
use smc_obs::trace::{self, Event};

#[test]
fn a_held_clock_stands_still_steps_exactly_and_never_goes_back() {
    let before = clock::now();
    let manual = Manual::install();
    let frozen = clock::now();
    assert!(frozen >= before);
    std::thread::sleep(Duration::from_millis(5));
    let elsewhere = std::thread::spawn(clock::now).join().unwrap();
    assert_eq!(
        (clock::now(), elsewhere),
        (frozen, frozen),
        "held on every thread"
    );

    // Tracer timestamps are clock readings.
    trace::enable();
    trace::emit(Event::EpochAdvance { epoch: 7 });
    manual.advance(Duration::from_secs(3600));
    assert_eq!(clock::now(), frozen + 3_600_000_000_000);
    trace::emit(Event::EpochAdvance { epoch: 8 });
    trace::disable();
    let stamps: Vec<(u64, u64)> = trace::snapshot()
        .iter()
        .filter_map(|t| match t.event {
            Event::EpochAdvance { epoch } => Some((epoch, t.nanos)),
            _ => None,
        })
        .collect();
    assert_eq!(stamps, [(7, frozen), (8, frozen + 3_600_000_000_000)]);

    // Dropping the guard resumes real time past the advanced reading, and
    // the next install freezes no earlier.
    drop(manual);
    let resumed = clock::now();
    assert!(resumed >= frozen + 3_600_000_000_000);
    std::thread::sleep(Duration::from_millis(2));
    assert!(clock::now() > resumed, "running again");
    let again = Manual::install();
    assert!(clock::now() >= resumed);
    drop(again);
}
