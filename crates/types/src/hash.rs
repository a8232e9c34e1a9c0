//! A fixed hasher for lookup-only block indexes.
//!
//! The block store's slab index maps [`BlockId`]s through a `HashMap`.
//! [`BlockHasher`] has no per-process seed, and the index is never
//! iterated, so hash order cannot reach any output. Use [`BlockMap`] only
//! for maps that are looked up, never walked.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::BlockId;

/// A fixed multiply-rotate hasher for [`BlockId`] keys.
///
/// # Examples
///
/// ```
/// use nvfs_types::{BlockId, BlockMap, FileId};
///
/// let mut m: BlockMap<u64> = BlockMap::default();
/// m.insert(BlockId::new(FileId(3), 7), 42);
/// assert_eq!(m[&BlockId::new(FileId(3), 7)], 42);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockHasher(u64);

impl Hasher for BlockHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves the low bits weakest; the table indexes by them.
        self.0.rotate_left(26)
    }
}

/// A lookup-only `HashMap` keyed by [`BlockId`] under [`BlockHasher`].
pub type BlockMap<V> = HashMap<BlockId, V, BuildHasherDefault<BlockHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FileId;
    use std::hash::BuildHasher;

    #[test]
    fn hashes_are_pinned() {
        // No per-process seed: the same id hashes the same in every run.
        let h = BuildHasherDefault::<BlockHasher>::default();
        assert_eq!(
            h.hash_one(BlockId::new(FileId(1), 2)),
            0xffe6_3eaf_21a9_2f99
        );
        assert_ne!(
            h.hash_one(BlockId::new(FileId(1), 2)),
            h.hash_one(BlockId::new(FileId(2), 1))
        );
    }
}
