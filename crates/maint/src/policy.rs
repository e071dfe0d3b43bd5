//! When is a compaction pass worth running?
//!
//! Exactly when it would move something: when the blocks it would claim
//! (occupancy under the context's `compaction_occupancy`, §5.2) pack into
//! at least one group of two or more sources whose live rows fit one fresh
//! block. [`MemoryContext::compaction_due`] answers with the pass's own
//! packing rule, read from block headers. A context whose dead and hole
//! bytes are spread thin over dense blocks is not due, and neither is one
//! whose candidates are too full for any two to share a block.

use smc_memory::MemoryContext;

/// The rule that makes a registered context due. It has no settings: the
/// cutoff it reads is the context's own `compaction_occupancy`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaintPolicy;

impl MaintPolicy {
    /// Whether a pass over `ctx` would form a group.
    pub fn due(&self, ctx: &MemoryContext) -> bool {
        ctx.compaction_due()
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
        assert!(!MaintPolicy.due(&context(&rt)));
    }

    #[test]
    fn half_empty_blocks_are_not_due() {
        let rt = Runtime::new();
        let ctx = context(&rt);
        // Half of every block is dead, but every block is above the 30 %
        // cutoff, so a pass would claim nothing.
        thin(&ctx, 4096, |i| i % 2 == 0);
        assert!(!MaintPolicy.due(&ctx));
    }

    #[test]
    fn decimated_blocks_are_due() {
        let rt = Runtime::new();
        let ctx = context(&rt);
        thin(&ctx, 4096, |i| i % 10 == 0);
        assert!(MaintPolicy.due(&ctx));
    }
}
