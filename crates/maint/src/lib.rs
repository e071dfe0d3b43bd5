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
//! * a context is due when the blocks a pass would claim (occupancy under
//!   `compaction_occupancy`, no owning thread, not already claimed) pack
//!   into at least one group by the pass's own packing rule, so a due
//!   context always gets a pass that moves something ([`MaintPolicy`] holds
//!   that rule and has no settings);
//! * one thread wakes every 125 ms period of the process clock and starts
//!   at most one pass, for the due context whose last pass is oldest. The
//!   period is the only thing that starts a pass or runs one again;
//! * while the p99 of the foreground latency histogram a [`MaintConfig`]
//!   names (its only field) is at or over 10 ms, a period starts nothing
//!   and counts its due contexts as deferred;
//! * a pass that aborts or is interrupted ends as
//!   [`PassOutcome::Aborted`]; its context stays due, so a later period
//!   runs it again. Every wait inside a pass gives up at the context's
//!   `compaction_patience`, so a pass needs no deadline of its own;
//! * [`Coordinator::quiesce`] stops the world exactly — the in-flight pass
//!   drains, never half-moved state — so `Smc::verify` reconciles bit-exact
//!   afterwards (soaked by the root `tests/seeded_churn.rs`).
//!
//! The coordinator compacts; it never evicts. Eviction to a spill store
//! happens on the allocation path, when a budgeted context needs a fresh
//! block and has no room for it.

#![warn(missing_docs)]

pub mod coordinator;
pub mod policy;

pub use coordinator::{Coordinator, LastPass, MaintConfig, MaintSnapshot, PassOutcome};
pub use policy::MaintPolicy;

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
        rt.drain_graveyard_blocking();
        assert_eq!(ctx.live_objects(), live);
        assert!(ctx.verify().is_ok(), "context verify after quiesce");
        assert!(rt.verify().is_ok(), "runtime verify after quiesce");
    }

    #[test]
    fn slo_breach_defers_and_recovery_resumes() {
        let rt = Runtime::new();
        let ctx = context(&rt);
        decimate(&ctx, 2048);
        // A 1 s foreground scan on record: the p99 is far over the ceiling.
        let gauge = Arc::new(Histogram::new());
        gauge.record(1_000_000_000);
        let coord = Coordinator::new(MaintConfig {
            gauge: Some(gauge.clone()),
        });
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
        // An empty gauge reads p99 0: back-pressure releases and the pass runs.
        gauge.reset();
        assert!(
            wait_until(Duration::from_secs(10), || coord
                .snapshot()
                .passes_completed
                > 0),
            "recovery must resume planning: {:?}",
            coord.snapshot()
        );
        assert!(!coord.snapshot().slo_breached);
        coord.quiesce();
        assert!(rt.verify().is_ok());
    }

    #[test]
    fn interrupted_pass_stays_due_and_a_later_period_completes_it() {
        let rt = Runtime::new();
        let ctx = context(&rt);
        decimate(&ctx, 2048);
        let live = ctx.live_objects();
        // The first relocation of the first pass fails, and no other.
        rt.faults()
            .set_rate(smc_memory::FaultSite::Relocation, 1024);
        rt.faults().set_limit(Some(1));
        rt.faults().enable(7);
        let coord = Coordinator::new(MaintConfig::default());
        coord.register(ctx.clone(), MaintPolicy);
        assert!(
            wait_until(Duration::from_secs(10), || coord
                .snapshot()
                .passes_completed
                > 0),
            "a later period must complete the interrupted pass: {:?}",
            coord.snapshot()
        );
        coord.quiesce();
        rt.faults().disable();
        let snap = coord.snapshot();
        let injected = rt.faults().injected(smc_memory::FaultSite::Relocation);
        assert_eq!(injected, 1, "{snap:?}");
        // Only a due context gets a pass: the interrupted one was still due.
        assert!(snap.passes_planned > snap.passes_completed, "{snap:?}");
        assert!(snap.last_pass.is_some_and(|lp| lp.moved > 0), "{snap:?}");
        rt.drain_graveyard_blocking();
        assert_eq!(ctx.live_objects(), live);
        assert!(ctx.verify().is_ok(), "context verify after quiesce");
        assert!(rt.verify().is_ok(), "runtime verify after quiesce");
    }
}
