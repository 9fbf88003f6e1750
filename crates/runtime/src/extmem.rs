//! A simulated external memory manager ("the Unix `malloc` and `free`
//! procedures or their equivalent", paper Section 1) with leak accounting.
//!
//! Scheme code that wraps external libraries must free external blocks
//! when the Scheme-side header becomes inaccessible; guardians make that
//! reliable. This arena provides the observable: blocks allocated, blocks
//! freed, and blocks leaked.

use std::collections::HashMap;
use std::fmt;

/// An opaque handle to an externally allocated block.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u64);

/// Errors from the external arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtMemError {
    /// `free` of a block that is not allocated (double free or bogus id).
    BadFree(BlockId),
}

impl fmt::Display for ExtMemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtMemError::BadFree(id) => write!(f, "free of unallocated block {}", id.0),
        }
    }
}

impl std::error::Error for ExtMemError {}

/// The simulated `malloc`/`free` arena.
#[derive(Debug, Default)]
pub struct ExtArena {
    live: HashMap<BlockId, usize>,
    next: u64,
    /// Total blocks ever allocated.
    pub total_allocs: u64,
    /// Total blocks freed.
    pub total_frees: u64,
}

impl ExtArena {
    /// An empty arena.
    pub fn new() -> ExtArena {
        ExtArena::default()
    }

    /// Allocates an external block of `size` bytes.
    pub fn malloc(&mut self, size: usize) -> BlockId {
        let id = BlockId(self.next);
        self.next += 1;
        self.total_allocs += 1;
        self.live.insert(id, size);
        id
    }

    /// Frees a block.
    ///
    /// # Errors
    ///
    /// Returns [`ExtMemError::BadFree`] on double free or unknown id.
    pub fn free(&mut self, id: BlockId) -> Result<(), ExtMemError> {
        self.live.remove(&id).ok_or(ExtMemError::BadFree(id))?;
        self.total_frees += 1;
        Ok(())
    }

    /// Whether a block is currently allocated.
    pub fn is_live(&self, id: BlockId) -> bool {
        self.live.contains_key(&id)
    }

    /// Number of live (not yet freed) blocks — the leak metric.
    pub fn live_blocks(&self) -> usize {
        self.live.len()
    }

    /// Total bytes currently allocated.
    pub fn live_bytes(&self) -> usize {
        self.live.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malloc_free_accounting() {
        let mut arena = ExtArena::new();
        let a = arena.malloc(100);
        let b = arena.malloc(50);
        assert_eq!(arena.live_blocks(), 2);
        assert_eq!(arena.live_bytes(), 150);
        arena.free(a).unwrap();
        assert_eq!(arena.live_blocks(), 1);
        assert_eq!(arena.live_bytes(), 50);
        assert!(!arena.is_live(a));
        assert!(arena.is_live(b));
        assert_eq!(arena.total_allocs, 2);
        assert_eq!(arena.total_frees, 1);

        assert_eq!(arena.free(a).unwrap_err(), ExtMemError::BadFree(a));
        assert_eq!(arena.live_bytes(), 50, "a bad free changes nothing");
        arena.free(b).unwrap();
        assert_eq!(arena.live_bytes(), 0);
    }

    #[test]
    fn double_free_is_an_error() {
        let mut arena = ExtArena::new();
        let a = arena.malloc(1);
        arena.free(a).unwrap();
        assert_eq!(arena.free(a).unwrap_err(), ExtMemError::BadFree(a));
    }

    #[test]
    fn ids_are_never_reused() {
        let mut arena = ExtArena::new();
        let a = arena.malloc(1);
        arena.free(a).unwrap();
        let b = arena.malloc(1);
        assert_ne!(a, b);
    }
}
