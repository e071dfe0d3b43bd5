//! Per-context maintenance policies: when is a compaction pass worth it?
//!
//! The planner evaluates each registered context against its policy once per
//! planning cycle, reading a [`CollectionSnapshot`] (the same introspection
//! surface `smc-top` renders). Three pressure signals can make a pass due —
//! fragmentation ratio, limbo (dead-but-unreclaimed) bytes, and a resident
//! footprint past the spill watermark — plus an explicit nudge for tests and
//! benchmarks that need a pass *now*. A `min_interval` floor keeps a context from being compacted
//! in a tight loop when it hovers at a threshold.

use std::time::Duration;

use smc_memory::inspect::CollectionSnapshot;

/// Why the planner scheduled (or would schedule) a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassReason {
    /// Fragmentation ratio exceeded the policy ceiling.
    Frag,
    /// Limbo bytes exceeded the policy ceiling.
    Limbo,
    /// An explicit [`Coordinator::nudge`](crate::Coordinator::nudge).
    Nudge,
    /// Resident footprint exceeded the spill watermark of the context
    /// budget: evict cold blocks to the page store instead of compacting.
    /// The rung below compaction on the OOM ladder — it fires when there
    /// is little fragmentation to reclaim but the budget is hot.
    Spill,
}

impl PassReason {
    /// Short stable token for traces and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            PassReason::Frag => "frag",
            PassReason::Limbo => "limbo",
            PassReason::Nudge => "nudge",
            PassReason::Spill => "spill",
        }
    }
}

/// When to compact one registered context.
#[derive(Debug, Clone, Copy)]
pub struct MaintPolicy {
    /// Pass when `(dead + hole) / footprint` exceeds this ratio.
    pub frag_ratio_ceiling: f64,
    /// Pass when limbo (dead) bytes exceed this many bytes.
    pub limbo_bytes_ceiling: u64,
    /// Never schedule two passes for the same context closer together than
    /// this (nudges are exempt).
    pub min_interval: Duration,
    /// Spill watermark as a fraction of the context budget. When the
    /// resident footprint exceeds `ratio * budget_bytes` — and no other
    /// signal fired, i.e. there is little garbage to compact away — the
    /// planner schedules a [`PassReason::Spill`] pass that evicts cold
    /// blocks to the context's page store instead of compacting. `None`
    /// (the default) disables the rung; it only makes sense for contexts
    /// with both a budget and a spill store attached.
    pub spill_budget_ratio: Option<f64>,
}

impl Default for MaintPolicy {
    fn default() -> MaintPolicy {
        MaintPolicy {
            frag_ratio_ceiling: 0.30,
            limbo_bytes_ceiling: 8 << 20,
            min_interval: Duration::from_millis(50),
            spill_budget_ratio: None,
        }
    }
}

impl MaintPolicy {
    /// Evaluates the policy against a snapshot. Returns the *first*
    /// triggered reason in fixed priority order (frag, limbo, spill) so
    /// reports are deterministic. Spill comes last on purpose: when
    /// fragmentation is high a compaction pass frees budget without touching
    /// disk, so eviction is only chosen when the footprint is hot *and*
    /// mostly live.
    pub fn due(&self, snap: &CollectionSnapshot) -> Option<PassReason> {
        if frag_ratio(snap) > self.frag_ratio_ceiling {
            return Some(PassReason::Frag);
        }
        if snap.dead_bytes() > self.limbo_bytes_ceiling {
            return Some(PassReason::Limbo);
        }
        if let (Some(ratio), Some(budget)) = (self.spill_budget_ratio, snap.budget_bytes) {
            if snap.footprint_bytes() as f64 > ratio * budget as f64 {
                return Some(PassReason::Spill);
            }
        }
        None
    }

    /// Byte target a spill pass evicts toward: the spill watermark itself.
    /// `None` when the rung is disabled or the snapshot has no budget.
    pub fn spill_target_bytes(&self, snap: &CollectionSnapshot) -> Option<u64> {
        let ratio = self.spill_budget_ratio?;
        let budget = snap.budget_bytes?;
        Some((ratio * budget as f64) as u64)
    }
}

/// Fragmentation ratio of a snapshot: dead plus hole bytes over footprint.
/// Zero for an empty context.
fn frag_ratio(snap: &CollectionSnapshot) -> f64 {
    let footprint = snap.footprint_bytes();
    if footprint == 0 {
        return 0.0;
    }
    (snap.dead_bytes() + snap.hole_bytes()) as f64 / footprint as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use smc_memory::inspect::HeapSnapshot;
    use smc_memory::{ContextConfig, MemoryContext, Runtime};

    fn context(rt: &std::sync::Arc<Runtime>) -> MemoryContext {
        MemoryContext::new_rows(rt.clone(), 64, 8, 1, ContextConfig::default())
            .expect("layout fits a block")
    }

    fn alloc(c: &MemoryContext, v: u64) -> smc_memory::context::Allocation {
        c.alloc_with(|block, slot| unsafe { block.obj_ptr(slot).cast::<u64>().write(v) })
            .unwrap()
    }

    fn snapshot_of(ctx: &MemoryContext) -> CollectionSnapshot {
        let heap = HeapSnapshot::capture(ctx.runtime(), &[ctx]);
        heap.collections.into_iter().next().unwrap()
    }

    #[test]
    fn empty_context_is_never_due() {
        let rt = Runtime::new();
        let ctx = context(&rt);
        let snap = snapshot_of(&ctx);
        assert_eq!(frag_ratio(&snap), 0.0);
        assert_eq!(MaintPolicy::default().due(&snap), None);
    }

    #[test]
    fn decimation_raises_frag_ratio_until_due() {
        let rt = Runtime::new();
        let ctx = context(&rt);
        let handles: Vec<_> = (0..512u64).map(|i| alloc(&ctx, i)).collect();
        let before = snapshot_of(&ctx);
        assert!(frag_ratio(&before) < 0.5, "mostly live after fill");
        for (i, h) in handles.iter().enumerate() {
            if i % 10 != 0 {
                assert!(ctx.free(h.entry, h.entry_inc));
            }
        }
        let after = snapshot_of(&ctx);
        let policy = MaintPolicy {
            frag_ratio_ceiling: 0.30,
            ..MaintPolicy::default()
        };
        assert_eq!(
            policy.due(&after),
            Some(PassReason::Frag),
            "90% decimation must trip a 30% frag ceiling (ratio {})",
            frag_ratio(&after)
        );
    }

    #[test]
    fn reason_priority_and_tokens() {
        assert_eq!(PassReason::Frag.as_str(), "frag");
        assert_eq!(PassReason::Limbo.as_str(), "limbo");
        assert_eq!(PassReason::Nudge.as_str(), "nudge");
        assert_eq!(PassReason::Spill.as_str(), "spill");
    }

    #[test]
    fn spill_rung_fires_only_when_budget_hot_and_frag_low() {
        let rt = Runtime::new();
        let ctx = context(&rt);
        for i in 0..512u64 {
            alloc(&ctx, i);
        }
        let mut snap = snapshot_of(&ctx);
        let policy = MaintPolicy {
            spill_budget_ratio: Some(0.5),
            ..MaintPolicy::default()
        };
        // No budget on the context: the rung never fires.
        assert_eq!(policy.due(&snap), None);
        assert_eq!(policy.spill_target_bytes(&snap), None);
        // Budget well above footprint: still quiet.
        snap.budget_bytes = Some(snap.footprint_bytes() * 4);
        assert_eq!(policy.due(&snap), None);
        // Budget hot (footprint > 50% of budget) with low frag: spill.
        snap.budget_bytes = Some(snap.footprint_bytes() + 1);
        assert_eq!(policy.due(&snap), Some(PassReason::Spill));
        assert_eq!(
            policy.spill_target_bytes(&snap),
            Some(((snap.footprint_bytes() + 1) as f64 * 0.5) as u64)
        );
    }
}
