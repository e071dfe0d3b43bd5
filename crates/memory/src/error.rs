//! Error types for the manual memory manager.

use std::fmt;

/// The Rust rendering of the paper's `NullReferenceException`: a reference
/// whose target was removed from its host collection was dereferenced.
///
/// Per §2, all references to a self-managed object implicitly become null
/// after the object is removed from its collection; dereferencing them fails
/// with this error (APIs that prefer `Option` return `None` instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NullReference;

impl fmt::Display for NullReference {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("null reference: object was removed from its collection")
    }
}

impl std::error::Error for NullReference {}

/// Errors surfaced by memory-manager operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Dereference of a removed (or never-valid) object.
    Null(NullReference),
    /// The requested object type does not fit a memory block
    /// (object stride plus per-slot metadata exceeds the block payload).
    ObjectTooLarge {
        /// Size of the object type in bytes.
        size: usize,
        /// Largest supported size for the current block geometry.
        max: usize,
    },
    /// The process ran out of memory while allocating a block.
    OutOfMemory,
    /// The calling thread cannot have an epoch thread slot: more concurrent
    /// threads touched the runtime than [`MAX_THREADS`](crate::MAX_THREADS)
    /// (or an injected `ThreadClaim` failure refused the claim).
    TooManyThreads,
    /// A spilled page could not be brought back to residency: the page store
    /// failed the read, or the page failed its checksum (or, for a
    /// reference, was spilled again under its reader eight times in a row).
    /// The page stays spilled and the heap stays intact — spill I/O always
    /// fails closed.
    SpillFault,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Null(e) => e.fmt(f),
            MemError::ObjectTooLarge { size, max } => {
                write!(
                    f,
                    "object of {size} bytes exceeds block payload of {max} bytes"
                )
            }
            MemError::OutOfMemory => f.write_str("out of memory allocating a block"),
            MemError::TooManyThreads => f.write_str("epoch thread registry is full"),
            MemError::SpillFault => f.write_str("spilled page could not be faulted in"),
        }
    }
}

impl std::error::Error for MemError {}

impl From<NullReference> for MemError {
    fn from(e: NullReference) -> Self {
        MemError::Null(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert!(NullReference.to_string().contains("null reference"));
        assert!(MemError::OutOfMemory.to_string().contains("out of memory"));
        assert!(MemError::ObjectTooLarge { size: 10, max: 5 }
            .to_string()
            .contains("10"));
        assert!(MemError::TooManyThreads.to_string().contains("registry"));
        assert!(MemError::SpillFault.to_string().contains("spilled"));
    }

    #[test]
    fn null_reference_converts() {
        let e: MemError = NullReference.into();
        assert_eq!(e, MemError::Null(NullReference));
    }
}
