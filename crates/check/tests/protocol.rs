//! Protocol checking + mutation testing for the SMC concurrency protocol.
//!
//! Only built under `RUSTFLAGS='--cfg smc_check'` (the scenarios drive
//! instrumented `smc-memory`, `smc-util` and `smc-obs` code). Two layers:
//!
//! 1. every protocol scenario passes an exhaustive bounded-preemption sweep
//!    (no false positives), and
//! 2. every re-introducible known bug (`smc_util::mutation`) is *found* by
//!    the checker within its budget, with the failing schedule printed as a
//!    replayable seed that reproduces the violation deterministically.
//!
//! Mutations are process-global switches, so every test here serializes on
//! one mutex and restores the clean state before releasing it.

#![cfg(smc_check)]

use std::sync::{Mutex, MutexGuard};

use smc_check::sched::Scenario;
use smc_check::{scenarios, Checker};
use smc_util::mutation::{self, Mutation};

/// Serializes tests because `smc_util::mutation` switches are process-wide.
fn serialized() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn all_protocol_scenarios_pass_unmutated() {
    let _serial = serialized();
    mutation::clear_all();
    for (name, make) in scenarios::all() {
        let stats = Checker::new()
            .check(make)
            .unwrap_or_else(|violation| panic!("{name} violated the oracle:\n{violation}"));
        assert!(
            stats.exhausted,
            "{name}: preemption-bound-2 tree not exhausted \
             ({} executions; raise max_executions)",
            stats.executions
        );
        println!(
            "{name}: exhaustive at bound 2 — {} executions, max depth {}",
            stats.executions, stats.max_depth
        );
    }
}

/// Runs `make` under mutation `m`, expects the checker to catch it, prints
/// the replayable seed, and proves the seed reproduces deterministically.
fn assert_mutation_caught(m: Mutation, name: &str, make: fn() -> Scenario) {
    let _serial = serialized();
    mutation::clear_all();
    mutation::set(m);
    let checker = Checker::new();
    let result = checker.check(make);
    let violation = match result {
        Err(v) => v,
        Ok(stats) => {
            mutation::clear_all();
            panic!(
                "mutation {m:?} survived {} executions of {name}: \
                 the checker's budget does not cover this bug",
                stats.executions
            );
        }
    };
    println!(
        "{name} caught {m:?} after {} executions:",
        violation.executions
    );
    println!("{violation}");
    // The reported schedule must reproduce the same failure, twice.
    let first = checker.replay(&violation.schedule, make);
    let second = checker.replay(&violation.schedule, make);
    mutation::clear_all();
    assert_eq!(
        first.as_deref(),
        Some(violation.message.as_str()),
        "replaying the printed seed must reproduce the reported violation"
    );
    assert_eq!(first, second, "replay must be deterministic");
    // Sanity: with the mutation cleared, the same schedule passes.
    let clean = checker.replay(&violation.schedule, make);
    assert_eq!(
        clean, None,
        "the failing schedule must pass once the bug is fixed again"
    );
}

#[test]
fn catches_no_publish_recheck() {
    assert_mutation_caught(
        Mutation::NoPublishRecheck,
        "pin_vs_advance",
        scenarios::pin_vs_advance,
    );
}

#[test]
fn catches_advance_ignores_pinned() {
    assert_mutation_caught(
        Mutation::AdvanceIgnoresPinned,
        "pin_vs_advance",
        scenarios::pin_vs_advance,
    );
}

#[test]
fn catches_move_skips_lock() {
    assert_mutation_caught(
        Mutation::MoveSkipsLock,
        "double_mover",
        scenarios::double_mover,
    );
}

#[test]
fn catches_bail_keeps_frozen() {
    assert_mutation_caught(
        Mutation::BailKeepsFrozen,
        "move_vs_bail",
        scenarios::move_vs_bail,
    );
}

#[test]
fn catches_cancel_skips_bail_rollback() {
    assert_mutation_caught(
        Mutation::CancelSkipsBailRollback,
        "cancel_vs_inflight_move",
        scenarios::cancel_vs_inflight_move,
    );
}

#[test]
fn catches_drop_remote_drain() {
    assert_mutation_caught(
        Mutation::DropRemoteDrain,
        "remote_free_vs_owner_pop",
        scenarios::remote_free_vs_owner_pop,
    );
}

#[test]
fn catches_pin_skips_started_recheck() {
    assert_mutation_caught(
        Mutation::PinSkipsStartedRecheck,
        "exactly_once_visitation",
        scenarios::exactly_once_visitation,
    );
}

#[test]
fn catches_slot_vs_entry_incarnation() {
    assert_mutation_caught(
        Mutation::SlotVsEntryInc,
        "slot_vs_entry_incarnation",
        scenarios::slot_vs_entry_incarnation,
    );
}

#[test]
fn catches_release_into_foreign_magazine() {
    assert_mutation_caught(
        Mutation::ReleaseIntoForeignMagazine,
        "entry_release_vs_owner_alloc",
        scenarios::entry_release_vs_owner_alloc,
    );
}

#[test]
fn catches_free_ignores_spill_claim() {
    assert_mutation_caught(
        Mutation::FreeIgnoresSpillClaim,
        "spill_vs_free",
        scenarios::spill_vs_free,
    );
}

#[test]
fn catches_pop_releases_slot_before_read() {
    assert_mutation_caught(
        Mutation::PopReleasesSlotBeforeRead,
        "reply_ring_drain_vs_late_producer",
        scenarios::reply_ring_drain_vs_late_producer,
    );
}

#[test]
fn catches_sleep_after_recheck() {
    assert_mutation_caught(
        Mutation::SleepAfterRecheck,
        "waiter_park_vs_wake",
        scenarios::waiter_park_vs_wake,
    );
}

#[test]
fn catches_busy_after_words() {
    assert_mutation_caught(
        Mutation::BusyAfterWords,
        "trace_ring_reader_vs_owner",
        scenarios::trace_ring_reader_vs_owner,
    );
}
