//! # smc-maint — pressure-aware background compaction coordinator
//!
//! Query-dominated collections fragment slowly: decimation deletes punch
//! limbo holes into blocks faster than foreground allocation refills them.
//! The paper's answer is the §5 concurrent compaction pass; this crate
//! decides *when* to run those passes, and makes sure running them never
//! costs the foreground its latency budget.
//!
//! [`Coordinator`] owns maintenance for every registered
//! [`MemoryContext`](smc_memory::MemoryContext):
//!
//! * a context is due when at least two of its blocks pass the test a pass
//!   claims blocks with (occupancy under `compaction_occupancy`, no owning
//!   thread, not already claimed), so a due context always gets a pass that
//!   moves something ([`MaintPolicy`] holds that rule and has no settings);
//! * one thread wakes every 125 ms period of the process clock and starts
//!   at most one pass, for the due context whose last pass is oldest;
//! * while the p99 of the foreground latency histogram a [`MaintConfig`]
//!   names (its only field) is at or over 10 ms, a period starts nothing
//!   and counts its due contexts as deferred;
//! * transient failures (injected failpoints, aborted or interrupted passes)
//!   are retried with seeded backoff ([`smc_util::Backoff`]); every wait
//!   inside a pass gives up at the context's `compaction_patience`, so a
//!   pass needs no deadline of its own;
//! * [`Coordinator::quiesce`] and [`Coordinator::cancel`] stop the world
//!   exactly — drain or roll back, never half-moved state — so `Smc::verify`
//!   reconciles bit-exact afterwards (model-checked by the `smc-check`
//!   cancel scenario; soaked by the root `tests/seeded_churn.rs`).
//!
//! The coordinator compacts; it never evicts. Eviction to a spill store
//! happens on the allocation path, when a budgeted context needs a fresh
//! block and has no room for it.

#![warn(missing_docs)]

pub mod coordinator;
pub mod policy;

pub use coordinator::{Coordinator, LastPass, MaintConfig, MaintSnapshot, PassOutcome};
pub use policy::{MaintPolicy, PassReason};

#[cfg(test)]
mod tests {
    use super::*;
    use smc_memory::{ContextConfig, MemoryContext, Runtime};
    use smc_obs::clock;
    use smc_obs::hist::Histogram;
    use std::sync::Arc;
    use std::time::Duration;

    fn context(rt: &Arc<Runtime>) -> Arc<MemoryContext> {
        Arc::new(
            MemoryContext::new_rows(rt.clone(), 64, 8, 1, ContextConfig::default())
                .expect("layout fits a block"),
        )
    }

    fn alloc(c: &MemoryContext, v: u64) -> smc_memory::context::Allocation {
        c.alloc_with(|block, slot| unsafe { block.obj_ptr(slot).cast::<u64>().write(v) })
            .unwrap()
    }

    /// Fill several blocks, then decimate so most blocks drop under the
    /// compaction occupancy threshold.
    fn decimate(ctx: &MemoryContext, n: u64) {
        let handles: Vec<_> = (0..n).map(|i| alloc(ctx, i)).collect();
        for (i, h) in handles.iter().enumerate() {
            if i % 10 != 0 {
                assert!(ctx.free(h.entry, h.entry_inc));
            }
        }
    }

    fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
        let end = clock::now() + deadline.as_nanos() as u64;
        while clock::now() < end {
            if done() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        done()
    }

    #[test]
    fn coordinator_compacts_fragmented_context_and_quiesces_clean() {
        let rt = Runtime::new();
        let ctx = context(&rt);
        decimate(&ctx, 2048);
        let live = ctx.live_objects();

        let coord = Coordinator::new(MaintConfig::default());
        coord.register(ctx.clone(), MaintPolicy);
        assert!(
            wait_until(Duration::from_secs(10), || coord
                .snapshot()
                .passes_completed
                > 0),
            "a due pass must run: {:?}",
            coord.snapshot()
        );
        coord.quiesce();
        let snap = coord.snapshot();
        assert_eq!(snap.passes_active, 0);
        assert!(snap.last_pass.is_some());
        // Bit-exact after quiesce: every survivor is still there, the
        // runtime's invariants hold.
        ctx.release_retired();
        rt.drain_graveyard_blocking();
        assert_eq!(ctx.live_objects(), live);
        assert!(ctx.verify().is_ok(), "context verify after quiesce");
        assert!(rt.verify().is_ok(), "runtime verify after quiesce");
    }

    #[test]
    fn nudge_forces_a_pass_on_an_idle_context() {
        let rt = Runtime::new();
        // An empty context is never due.
        let ctx = context(&rt);
        let coord = Coordinator::new(MaintConfig::default());
        coord.register(ctx.clone(), MaintPolicy);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(coord.snapshot().passes_planned, 0, "nothing due yet");
        coord.nudge(ctx.id());
        assert!(
            wait_until(Duration::from_secs(10), || coord.snapshot().passes_planned
                > 0),
            "nudge must force a pass: {:?}",
            coord.snapshot()
        );
        coord.quiesce();
    }

    #[test]
    fn slo_breach_defers_and_recovery_resumes() {
        let rt = Runtime::new();
        let ctx = context(&rt);
        decimate(&ctx, 2048);
        let gauge = Arc::new(Histogram::new());
        gauge.record(1_000_000); // 1 ms foreground latency on record
        let coord = Coordinator::new(MaintConfig {
            gauge: Some(gauge.clone()),
        });
        coord.set_slo_ceiling(Duration::ZERO); // everything breaches
        coord.register(ctx.clone(), MaintPolicy);
        assert!(
            wait_until(Duration::from_secs(10), || coord.snapshot().passes_deferred
                > 0),
            "breached SLO must defer due passes: {:?}",
            coord.snapshot()
        );
        assert_eq!(
            coord.snapshot().passes_planned,
            0,
            "no pass may start while breached"
        );
        assert!(coord.snapshot().slo_breached);
        // Raise the ceiling: back-pressure releases and the pass runs.
        coord.set_slo_ceiling(Duration::from_secs(3600));
        assert!(
            wait_until(Duration::from_secs(10), || coord
                .snapshot()
                .passes_completed
                > 0),
            "recovery must resume planning: {:?}",
            coord.snapshot()
        );
        coord.quiesce();
        assert!(rt.verify().is_ok());
    }

    #[test]
    fn maint_pass_failpoint_is_retried_transparently() {
        let rt = Runtime::new();
        let ctx = context(&rt);
        decimate(&ctx, 2048);
        // Trip the pre-pass failpoint a bounded number of times.
        rt.faults().set_rate(smc_memory::FaultSite::MaintPass, 1024);
        rt.faults().set_limit(Some(3));
        rt.faults().enable(7);
        let coord = Coordinator::new(MaintConfig::default());
        coord.register(ctx.clone(), MaintPolicy);
        assert!(
            wait_until(Duration::from_secs(10), || coord
                .snapshot()
                .passes_completed
                > 0),
            "pass must complete after transient failures: {:?}",
            coord.snapshot()
        );
        let snap = coord.snapshot();
        assert!(
            snap.passes_retried > 0,
            "injected trips must be counted as retries: {snap:?}"
        );
        coord.quiesce();
        rt.faults().disable();
        assert!(rt.verify().is_ok());
    }

    #[test]
    fn maint_plan_failpoint_skips_periods_then_the_due_pass_runs() {
        let rt = Runtime::new();
        let ctx = context(&rt);
        decimate(&ctx, 2048);
        // Every planning decision fails until the three-fault budget is
        // spent; each failure costs one period.
        rt.faults().set_rate(smc_memory::FaultSite::MaintPlan, 1024);
        rt.faults().set_limit(Some(3));
        rt.faults().enable(7);
        let coord = Coordinator::new(MaintConfig::default());
        coord.register(ctx.clone(), MaintPolicy);
        assert!(
            wait_until(Duration::from_secs(10), || coord
                .snapshot()
                .passes_completed
                > 0),
            "the due pass must complete after the skipped periods: {:?}",
            coord.snapshot()
        );
        coord.quiesce();
        let snap = coord.snapshot();
        assert_eq!(snap.plan_faults, 3, "{snap:?}");
        assert_eq!(snap.passes_planned, 1, "{snap:?}");
        assert!(snap.last_pass.is_some_and(|lp| lp.moved > 0), "{snap:?}");
        rt.faults().disable();
        assert!(rt.verify().is_ok());
    }

    #[test]
    fn cancel_rolls_back_and_verify_reconciles() {
        let rt = Runtime::new();
        let ctx = context(&rt);
        decimate(&ctx, 4096);
        let live = ctx.live_objects();
        // Hold a pass in flight: a reader pinned one epoch behind the global
        // epoch stalls each attempt's first epoch advance for the context's
        // compaction patience, so the pass aborts and retries until the
        // cancel lands between two attempts.
        let (pinned_tx, pinned_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let reader = {
            let rt = rt.clone();
            std::thread::spawn(move || {
                let _guard = rt.pin();
                pinned_tx.send(()).unwrap();
                let _ = release_rx.recv();
            })
        };
        pinned_rx.recv().unwrap();
        assert!(rt.epochs.try_advance().is_some(), "reader pinned at e");
        let coord = Coordinator::new(MaintConfig::default());
        coord.register(ctx.clone(), MaintPolicy);
        assert!(
            wait_until(Duration::from_secs(10), || coord.passes_active() > 0),
            "a due pass must start: {:?}",
            coord.snapshot()
        );
        coord.cancel();
        release_tx.send(()).unwrap();
        reader.join().unwrap();
        let snap = coord.snapshot();
        assert!(
            snap.passes_cancelled >= 1,
            "no pass was cancelled: {snap:?}"
        );
        assert_eq!(snap.passes_active, 0);
        ctx.release_retired();
        rt.drain_graveyard_blocking();
        assert_eq!(ctx.live_objects(), live, "cancel must not lose objects");
        assert!(ctx.verify().is_ok(), "context verify after cancel");
        assert!(rt.verify().is_ok(), "runtime verify after cancel");
    }
}
