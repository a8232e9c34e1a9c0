//! 4 KB block geometry.
//!
//! Sprite's client caches and LFS both operate on four-kilobyte blocks
//! (§2.1, §3 of the paper). These helpers convert between byte ranges and
//! the block spans that cover them.

use crate::{BlockId, BlockIndex, ByteRange, FileId};

/// Cache and file-system block size in bytes (4 KB, as in Sprite).
pub const BLOCK_SIZE: u64 = 4096;

/// Returns the inclusive-start/exclusive-end block index span covering `r`.
///
/// An empty range covers no blocks.
///
/// # Examples
///
/// ```
/// use nvfs_types::{block::block_span, ByteRange};
///
/// assert_eq!(block_span(ByteRange::new(0, 1)), (0, 1));
/// assert_eq!(block_span(ByteRange::new(4095, 4097)), (0, 2));
/// assert_eq!(block_span(ByteRange::new(8192, 8192)), (2, 2));
/// ```
pub fn block_span(r: ByteRange) -> (BlockIndex, BlockIndex) {
    if r.is_empty() {
        let b = r.start / BLOCK_SIZE;
        return (b, b);
    }
    (r.start / BLOCK_SIZE, (r.end - 1) / BLOCK_SIZE + 1)
}

/// Iterates over the [`BlockId`]s of `file` whose 4 KB blocks intersect `r`.
///
/// # Examples
///
/// ```
/// use nvfs_types::{blocks_of_range, ByteRange, FileId};
///
/// let ids: Vec<_> = blocks_of_range(FileId(1), ByteRange::new(0, 8193)).collect();
/// assert_eq!(ids.len(), 3);
/// assert_eq!(ids[2].index, 2);
/// ```
pub fn blocks_of_range(file: FileId, r: ByteRange) -> impl Iterator<Item = BlockId> {
    let (lo, hi) = block_span(r);
    (lo..hi).map(move |index| BlockId { file, index })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_of_empty_range_is_empty() {
        let (lo, hi) = block_span(ByteRange::new(5000, 5000));
        assert_eq!(lo, hi);
    }

    #[test]
    fn span_covers_partial_blocks() {
        assert_eq!(block_span(ByteRange::new(0, 4096)), (0, 1));
        assert_eq!(block_span(ByteRange::new(1, 2)), (0, 1));
        assert_eq!(block_span(ByteRange::new(4096, 4097)), (1, 2));
        assert_eq!(block_span(ByteRange::new(0, 12288)), (0, 3));
    }

    #[test]
    fn blocks_of_range_yields_ids_in_order() {
        let ids: Vec<_> = blocks_of_range(FileId(7), ByteRange::new(4000, 9000)).collect();
        assert_eq!(
            ids,
            vec![
                BlockId::new(FileId(7), 0),
                BlockId::new(FileId(7), 1),
                BlockId::new(FileId(7), 2)
            ]
        );
    }
}
