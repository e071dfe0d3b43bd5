//! Self-tests for the deterministic scheduler and bounded explorer, using
//! hand-instrumented toy models (direct `switch_point` calls), plus the
//! shim's parker. These run in every build — they do not require
//! `--cfg smc_check` — except the one that needs the checker's parker.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use smc_check::{switch_point, Checker, Scenario, Schedule};
use smc_util::sync::thread;

/// Classic lost update: two threads do a non-atomic read-modify-write.
fn racy_counter() -> Scenario {
    let counter = Arc::new(AtomicU32::new(0));
    let mut scenario = Scenario::new();
    for _ in 0..2 {
        let counter = counter.clone();
        scenario = scenario.thread(move || {
            switch_point(false);
            let v = counter.load(Ordering::SeqCst);
            switch_point(false);
            counter.store(v + 1, Ordering::SeqCst);
        });
    }
    scenario.finally(move || {
        let v = counter.load(Ordering::SeqCst);
        assert_eq!(v, 2, "lost update: counter ended at {v}");
    })
}

/// The fixed version: a single atomic RMW per thread.
fn atomic_counter() -> Scenario {
    let counter = Arc::new(AtomicU32::new(0));
    let mut scenario = Scenario::new();
    for _ in 0..2 {
        let counter = counter.clone();
        scenario = scenario.thread(move || {
            switch_point(false);
            counter.fetch_add(1, Ordering::SeqCst);
        });
    }
    scenario.finally(move || {
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    })
}

#[test]
fn finds_lost_update_and_replays_it() {
    let checker = Checker::new();
    let violation = *checker
        .check(racy_counter)
        .expect_err("the race must be found within preemption bound 2");
    assert!(
        violation.message.contains("lost update"),
        "unexpected failure: {}",
        violation.message
    );
    // The printed seed must reproduce the violation deterministically.
    let rendered = violation.to_string();
    assert!(rendered.contains("replayable schedule seed:"), "{rendered}");
    let reproduced = checker.replay(&violation.schedule, racy_counter);
    assert_eq!(
        reproduced.as_deref(),
        Some(violation.message.as_str()),
        "replaying the reported schedule must reproduce the same failure"
    );
    // And the seed string round-trips into the same schedule.
    let parsed: Schedule = violation.schedule.to_string().parse().unwrap();
    assert_eq!(parsed, violation.schedule);
}

#[test]
fn atomic_counter_passes_exhaustively() {
    let stats = Checker::new()
        .check(atomic_counter)
        .expect("atomic increments cannot lose updates");
    assert!(stats.exhausted, "bounded tree should be fully explored");
    assert!(
        stats.executions > 1,
        "exploration must try more than the default schedule"
    );
}

#[test]
fn exploration_is_deterministic() {
    let run = || match Checker::new().check(racy_counter) {
        Err(v) => (v.message.clone(), v.schedule.clone(), v.executions),
        Ok(_) => panic!("race must be found"),
    };
    assert_eq!(run(), run(), "same scenario, same checker, same outcome");
}

#[test]
fn preemption_bound_zero_misses_the_race_dfs_only() {
    let mut checker = Checker::new();
    checker.preemption_bound = 0;
    checker.random_iterations = 0;
    let stats = checker
        .check(racy_counter)
        .expect("serial schedules cannot lose an update");
    assert!(stats.exhausted);
    // One preemption suffices; the bound-1 tree must find it.
    checker.preemption_bound = 1;
    checker.check(racy_counter).expect_err("bound 1 finds it");
}

#[test]
fn random_phase_finds_races_beyond_the_dfs_bound() {
    let mut checker = Checker::new();
    checker.preemption_bound = 0; // cripple the DFS on purpose
    checker.random_iterations = 500;
    checker
        .check(racy_counter)
        .expect_err("seeded random sampling must catch the race");
}

#[test]
fn step_budget_flags_livelock() {
    let mut checker = Checker::new();
    checker.max_steps = 300;
    checker.random_iterations = 0;
    let violation = checker
        .check(|| {
            Scenario::new().thread(|| loop {
                // Spin on a condition nobody will ever satisfy.
                switch_point(true);
            })
        })
        .expect_err("an unsatisfiable spin loop must trip the step budget");
    assert!(
        violation.message.contains("step budget"),
        "unexpected failure: {}",
        violation.message
    );
}

#[test]
fn store_buffer_litmus_is_sequentially_consistent() {
    // Dekker store-buffer litmus: under SC, (r0, r1) = (0, 0) is impossible;
    // the checker executes real atomics one thread at a time, so it explores
    // exactly the SC interleavings. The finale snapshots each execution's
    // (r0, r1) pair into a set shared across executions.
    let pairs: Arc<Mutex<HashSet<(u32, u32)>>> = Arc::new(Mutex::new(HashSet::new()));
    let sink = pairs.clone();
    let make_pairs = move || {
        let x = Arc::new(AtomicU32::new(0));
        let y = Arc::new(AtomicU32::new(0));
        let r0 = Arc::new(AtomicU32::new(u32::MAX));
        let r1 = Arc::new(AtomicU32::new(u32::MAX));
        let (x0, y0, rec0) = (x.clone(), y.clone(), r0.clone());
        let (x1, y1, rec1) = (x.clone(), y.clone(), r1.clone());
        let sink = sink.clone();
        Scenario::new()
            .thread(move || {
                switch_point(false);
                x0.store(1, Ordering::SeqCst);
                switch_point(false);
                rec0.store(y0.load(Ordering::SeqCst), Ordering::SeqCst);
            })
            .thread(move || {
                switch_point(false);
                y1.store(1, Ordering::SeqCst);
                switch_point(false);
                rec1.store(x1.load(Ordering::SeqCst), Ordering::SeqCst);
            })
            .finally(move || {
                sink.lock()
                    .unwrap()
                    .insert((r0.load(Ordering::SeqCst), r1.load(Ordering::SeqCst)));
            })
    };
    Checker::new()
        .check(make_pairs)
        .expect("litmus has no assertions to fail");
    let pairs = pairs.lock().unwrap();
    assert!(
        !pairs.contains(&(0, 0)),
        "(0,0) is not an SC outcome; the scheduler leaked a non-atomic step: {pairs:?}"
    );
    assert!(
        pairs.len() >= 3,
        "bound-2 exploration must reach all three SC outcomes, got {pairs:?}"
    );
}

#[test]
fn three_threads_interleave_and_finish() {
    // Smoke: more threads than two, with spins, still terminates and counts.
    let make = || {
        let counter = Arc::new(AtomicU32::new(0));
        let mut scenario = Scenario::new();
        for _ in 0..3 {
            let counter = counter.clone();
            scenario = scenario.thread(move || {
                switch_point(false);
                counter.fetch_add(1, Ordering::SeqCst);
                switch_point(true); // pretend to wait once
                switch_point(false);
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        scenario.finally(move || {
            assert_eq!(counter.load(Ordering::SeqCst), 6);
        })
    };
    let mut checker = Checker::new();
    checker.max_executions = 3_000; // keep the 3-thread tree affordable
    let stats = checker.check(make).expect("no race to find");
    assert!(stats.executions > 10);
}

#[test]
fn an_unpark_before_park_returns_at_once() {
    let stats = Checker::new()
        .check(|| {
            Scenario::new().thread(|| {
                thread::current().unpark();
                thread::park();
            })
        })
        .expect("a park whose token is already set returns");
    assert!(stats.exhausted);
}

/// Under the checker a park never blocks the OS thread (that would
/// deadlock the token-passing scheduler): it spins, reporting `Spin`, so a
/// park nobody answers is a livelock the step budget reports.
#[cfg(smc_check)]
#[test]
fn a_park_nobody_unparks_trips_the_step_budget_and_replays() {
    let make = || {
        let flag = Arc::new(AtomicU32::new(0));
        let peer = flag.clone();
        Scenario::new().thread(thread::park).thread(move || {
            switch_point(false);
            peer.store(1, Ordering::SeqCst);
        })
    };
    let mut checker = Checker::new();
    checker.max_steps = 300;
    checker.random_iterations = 0;
    let violation = checker
        .check(make)
        .expect_err("a park nobody unparks must trip the step budget");
    assert!(
        violation.message.contains("step budget"),
        "unexpected failure: {}",
        violation.message
    );
    for _ in 0..2 {
        let replayed = checker.replay(&violation.schedule, make);
        assert_eq!(replayed.as_deref(), Some(violation.message.as_str()));
    }
}
