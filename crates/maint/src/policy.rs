//! When is a compaction pass worth running?
//!
//! Exactly when it would move something. A pass empties the blocks whose
//! occupancy is under the context's `compaction_occupancy` (§5.2) and
//! needs two of them to form a group, so a context is due when
//! [`MemoryContext::compaction_candidates`] counts at least two: the same
//! test the pass claims its blocks with, read from block headers. A
//! context whose dead and hole bytes are spread thin over dense blocks is
//! not due, because no pass would claim anything in it. A
//! [nudge](crate::Coordinator::nudge) forces a pass regardless.

use smc_memory::MemoryContext;

/// A group has at least two source blocks (§5.2).
const MIN_CANDIDATES: usize = 2;

/// Why the coordinator started a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassReason {
    /// At least two blocks were under the compaction occupancy cutoff.
    Sparse,
    /// An explicit [`Coordinator::nudge`](crate::Coordinator::nudge).
    Nudge,
}

impl PassReason {
    /// Short stable token for traces and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            PassReason::Sparse => "sparse",
            PassReason::Nudge => "nudge",
        }
    }
}

/// The rule that makes a registered context due. It has no settings: the
/// cutoff it reads is the context's own `compaction_occupancy`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaintPolicy;

impl MaintPolicy {
    /// [`PassReason::Sparse`] when a pass over `ctx` would form a group.
    pub fn due(&self, ctx: &MemoryContext) -> Option<PassReason> {
        (ctx.compaction_candidates() >= MIN_CANDIDATES).then_some(PassReason::Sparse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smc_memory::{ContextConfig, Runtime};

    fn context(rt: &std::sync::Arc<Runtime>) -> MemoryContext {
        MemoryContext::new_rows(rt.clone(), 64, 8, 1, ContextConfig::default())
            .expect("layout fits a block")
    }

    fn alloc(c: &MemoryContext, v: u64) -> smc_memory::context::Allocation {
        c.alloc_with(|block, slot| unsafe { block.obj_ptr(slot).cast::<u64>().write(v) })
            .unwrap()
    }

    /// Fills `n` rows, then frees every row whose index `keep` rejects.
    fn thin(ctx: &MemoryContext, n: u64, keep: impl Fn(usize) -> bool) {
        let handles: Vec<_> = (0..n).map(|i| alloc(ctx, i)).collect();
        for (i, h) in handles.iter().enumerate() {
            if !keep(i) {
                assert!(ctx.free(h.entry, h.entry_inc));
            }
        }
    }

    #[test]
    fn empty_context_is_never_due() {
        let rt = Runtime::new();
        assert_eq!(MaintPolicy.due(&context(&rt)), None);
    }

    #[test]
    fn half_empty_blocks_are_not_due() {
        let rt = Runtime::new();
        let ctx = context(&rt);
        // Half of every block is dead, but every block is above the 30 %
        // cutoff, so a pass would claim nothing.
        thin(&ctx, 4096, |i| i % 2 == 0);
        assert_eq!(ctx.compaction_candidates(), 0);
        assert_eq!(MaintPolicy.due(&ctx), None);
    }

    #[test]
    fn decimated_blocks_are_due() {
        let rt = Runtime::new();
        let ctx = context(&rt);
        thin(&ctx, 4096, |i| i % 10 == 0);
        assert_eq!(MaintPolicy.due(&ctx), Some(PassReason::Sparse));
    }

    #[test]
    fn reason_tokens() {
        assert_eq!(PassReason::Sparse.as_str(), "sparse");
        assert_eq!(PassReason::Nudge.as_str(), "nudge");
    }
}
