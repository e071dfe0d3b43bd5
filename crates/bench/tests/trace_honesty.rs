//! The tracer-honesty rule can fire: rings that wrapped and were then
//! cleared keep their drop counts but export an empty timeline. This file
//! is its own process because it sets `SMC_TRACE_OUT`.

use smc_obs::trace::{self, Event, RING_CAPACITY};

#[test]
fn a_cleared_ring_that_dropped_events_is_a_lost_trace() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cleared_trace.json");
    std::env::set_var("SMC_TRACE_OUT", &out);
    trace::enable();
    for epoch in 0..=RING_CAPACITY as u64 {
        trace::emit(Event::EpochAdvance { epoch });
    }
    trace::clear();
    assert_eq!(trace::dropped(), 1);
    assert!(smc_bench::trace_lost(), "an empty timeline beside 1 drop");
}
