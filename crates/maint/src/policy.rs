//! Per-context maintenance policies: when is a compaction pass worth it?
//!
//! The planner evaluates each registered context once per planning cycle,
//! reading a [`CollectionSnapshot`] (the same introspection surface `smc-top`
//! renders). Two pressure signals can make a pass due — a fragmentation
//! ratio past 30 % (the paper's §5.2 occupancy threshold, seen from the
//! context's side) and more than 8 MiB of limbo (dead-but-unreclaimed)
//! bytes — plus an explicit nudge for tests and benchmarks that need a pass
//! *now*. A per-context `min_interval` floor keeps a context from being
//! compacted in a tight loop when it hovers at a threshold.

use std::time::Duration;

use smc_memory::inspect::CollectionSnapshot;

/// A pass is due when `(dead + hole) / footprint` exceeds this ratio.
const FRAG_RATIO_CEILING: f64 = 0.30;
/// A pass is due when limbo (dead) bytes exceed this many bytes.
const LIMBO_BYTES_CEILING: u64 = 8 << 20;

/// Why the planner scheduled (or would schedule) a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassReason {
    /// Fragmentation ratio exceeded the ceiling.
    Frag,
    /// Limbo bytes exceeded the ceiling.
    Limbo,
    /// An explicit [`Coordinator::nudge`](crate::Coordinator::nudge).
    Nudge,
}

impl PassReason {
    /// Short stable token for traces and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            PassReason::Frag => "frag",
            PassReason::Limbo => "limbo",
            PassReason::Nudge => "nudge",
        }
    }
}

/// When to compact one registered context.
#[derive(Debug, Clone, Copy)]
pub struct MaintPolicy {
    /// Never schedule two passes for the same context closer together than
    /// this (nudges are exempt).
    pub min_interval: Duration,
}

impl Default for MaintPolicy {
    fn default() -> MaintPolicy {
        MaintPolicy {
            min_interval: Duration::from_millis(50),
        }
    }
}

impl MaintPolicy {
    /// Evaluates the policy against a snapshot. Returns the *first*
    /// triggered reason in fixed priority order (frag, limbo) so reports are
    /// deterministic.
    pub fn due(&self, snap: &CollectionSnapshot) -> Option<PassReason> {
        if frag_ratio(snap) > FRAG_RATIO_CEILING {
            return Some(PassReason::Frag);
        }
        if snap.dead_bytes() > LIMBO_BYTES_CEILING {
            return Some(PassReason::Limbo);
        }
        None
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
        assert_eq!(
            MaintPolicy::default().due(&after),
            Some(PassReason::Frag),
            "90% decimation must trip the 30% frag ceiling (ratio {})",
            frag_ratio(&after)
        );
    }

    #[test]
    fn reason_priority_and_tokens() {
        assert_eq!(PassReason::Frag.as_str(), "frag");
        assert_eq!(PassReason::Limbo.as_str(), "limbo");
        assert_eq!(PassReason::Nudge.as_str(), "nudge");
    }
}
