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
//! * a per-context [`MaintPolicy`] (fragmentation ratio, limbo bytes, spill
//!   watermark, all read from live heap introspection) decides which
//!   contexts are due;
//! * a worker-pool concurrency limit plus a token-bucket pacer
//!   ([`pacer::TokenBucket`]) bound work in flight;
//! * an SLO back-pressure loop watches a foreground scan-latency histogram
//!   and defers due passes while its p99 is past the configured ceiling,
//!   resuming with bounded, seeded-jitter exponential backoff
//!   ([`smc_util::Backoff`]);
//! * transient failures (injected failpoints, aborted or interrupted passes)
//!   are retried with the same seeded backoff; a watchdog cancels passes
//!   stuck past a deadline through the protocol's bail path;
//! * [`Coordinator::quiesce`] and [`Coordinator::cancel`] stop the world
//!   exactly — drain or roll back, never half-moved state — so `Smc::verify`
//!   reconciles bit-exact afterwards (model-checked by the `smc-check`
//!   cancel scenario; soaked end-to-end by `tests/soak.rs`).

#![warn(missing_docs)]

pub mod coordinator;
pub mod pacer;
pub mod policy;

pub use coordinator::{Coordinator, LastPass, MaintConfig, MaintSnapshot, PassOutcome, SloPolicy};
pub use policy::{MaintPolicy, PassReason};

#[cfg(test)]
mod tests {
    use super::*;
    use smc_memory::{ContextConfig, MemoryContext, Runtime};
    use smc_obs::hist::Histogram;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

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
        let end = Instant::now() + deadline;
        while Instant::now() < end {
            if done() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        done()
    }

    fn fast_config() -> MaintConfig {
        MaintConfig {
            poll_interval: Duration::from_millis(2),
            pacer_capacity: 16.0,
            pacer_refill_per_sec: 1000.0,
            ..MaintConfig::default()
        }
    }

    #[test]
    fn coordinator_compacts_fragmented_context_and_quiesces_clean() {
        let rt = Runtime::new();
        let ctx = context(&rt);
        decimate(&ctx, 2048);
        let live = ctx.live_objects();

        let coord = Coordinator::new(fast_config());
        coord.register(
            ctx.clone(),
            MaintPolicy {
                frag_ratio_ceiling: 0.30,
                min_interval: Duration::from_millis(1),
                ..MaintPolicy::default()
            },
        );
        assert!(
            wait_until(Duration::from_secs(10), || coord
                .snapshot()
                .passes_completed
                > 0),
            "a frag-due pass must run: {:?}",
            coord.snapshot()
        );
        coord.quiesce();
        let snap = coord.snapshot();
        assert_eq!(snap.passes_active, 0);
        assert_eq!(snap.queue_depth, 0);
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
        let ctx = context(&rt);
        // A context with nothing to do: policy thresholds never trip.
        let coord = Coordinator::new(fast_config());
        coord.register(
            ctx.clone(),
            MaintPolicy {
                frag_ratio_ceiling: 1.1,
                limbo_bytes_ceiling: u64::MAX,
                ..MaintPolicy::default()
            },
        );
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
            slo: SloPolicy {
                gauge: Some(gauge.clone()),
                p99_ceiling: Duration::ZERO, // everything breaches
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(4),
            },
            ..fast_config()
        });
        coord.register(
            ctx.clone(),
            MaintPolicy {
                frag_ratio_ceiling: 0.30,
                min_interval: Duration::from_millis(1),
                ..MaintPolicy::default()
            },
        );
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
    fn spill_pass_runs_under_budget_pressure_despite_slo_breach() {
        let rt = Runtime::new();
        // Budget of four blocks; fill roughly three with fully-live rows so
        // fragmentation stays near zero — nothing for compaction to reclaim,
        // but the footprint sits above a 50 % spill watermark.
        let ctx = Arc::new(
            MemoryContext::new_rows(
                rt.clone(),
                64,
                8,
                1,
                ContextConfig {
                    budget_bytes: Some(4 * smc_memory::BLOCK_SIZE as u64),
                    ..ContextConfig::default()
                },
            )
            .expect("layout fits a block"),
        );
        let store = Arc::new(smc_memory::MemoryPageStore::new());
        assert!(ctx.enable_spill(store.clone()));
        for i in 0..2800u64 {
            alloc(&ctx, i);
        }
        assert!(ctx.bytes() as u64 > 2 * smc_memory::BLOCK_SIZE as u64);

        // SLO permanently breached: compaction passes would be deferred, but
        // the spill rung must still run — it is the pressure-relief valve.
        let gauge = Arc::new(Histogram::new());
        gauge.record(1_000_000);
        let coord = Coordinator::new(MaintConfig {
            slo: SloPolicy {
                gauge: Some(gauge.clone()),
                p99_ceiling: Duration::ZERO,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(4),
            },
            ..fast_config()
        });
        coord.register(
            ctx.clone(),
            MaintPolicy {
                frag_ratio_ceiling: 1.1,
                limbo_bytes_ceiling: u64::MAX,
                spill_budget_ratio: Some(0.5),
                min_interval: Duration::from_millis(1),
            },
        );
        assert!(
            wait_until(Duration::from_secs(10), || coord
                .snapshot()
                .passes_completed
                > 0
                && ctx.spilled_blocks() > 0),
            "spill pass must run while the SLO is breached: {:?} spilled={}",
            coord.snapshot(),
            ctx.spilled_blocks()
        );
        assert!(coord.snapshot().slo_breached, "breach stays engaged");
        coord.quiesce();
        // Eviction brought the footprint to (or below) the watermark, and
        // every spilled object is still reachable and verifiable.
        assert!(
            ctx.bytes() as u64 <= 2 * smc_memory::BLOCK_SIZE as u64,
            "footprint must drop to the 50% watermark, still {}",
            ctx.bytes()
        );
        assert!(!store.is_empty(), "pages landed in the store");
        assert!(ctx.verify().is_ok(), "context verify after spill pass");
        assert!(rt.verify().is_ok(), "runtime verify after spill pass");
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
        let coord = Coordinator::new(fast_config());
        coord.register(
            ctx.clone(),
            MaintPolicy {
                frag_ratio_ceiling: 0.30,
                min_interval: Duration::from_millis(1),
                ..MaintPolicy::default()
            },
        );
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
    fn cancel_rolls_back_and_verify_reconciles() {
        let rt = Runtime::new();
        let ctx = context(&rt);
        decimate(&ctx, 4096);
        let live = ctx.live_objects();
        let coord = Coordinator::new(fast_config());
        coord.register(
            ctx.clone(),
            MaintPolicy {
                frag_ratio_ceiling: 0.30,
                min_interval: Duration::from_millis(1),
                ..MaintPolicy::default()
            },
        );
        // Cancel early: whatever was in flight rolls back via the bail path.
        std::thread::sleep(Duration::from_millis(5));
        coord.cancel();
        let snap = coord.snapshot();
        assert_eq!(snap.passes_active, 0);
        ctx.release_retired();
        rt.drain_graveyard_blocking();
        assert_eq!(ctx.live_objects(), live, "cancel must not lose objects");
        assert!(ctx.verify().is_ok(), "context verify after cancel");
        assert!(rt.verify().is_ok(), "runtime verify after cancel");
    }
}
