//! Page identifiers and sizing, and the hasher for maps keyed by ids.

use std::hash::{BuildHasherDefault, Hasher};

/// Default page size in bytes.
///
/// The paper's experimental setup uses an Oracle block size of 2 KB
/// (Section 6.1); all experiments therefore run with this default.
pub const DEFAULT_PAGE_SIZE: usize = 2048;

/// Identifier of a fixed-size block on a disk.
///
/// Page ids are dense: a device with `n` pages exposes ids `0..n`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PageId(pub u64);

impl PageId {
    /// Sentinel used in on-page link fields meaning "no page".
    pub const INVALID: PageId = PageId(u64::MAX);

    /// Returns `true` if this id is the [`PageId::INVALID`] sentinel.
    #[inline]
    pub fn is_invalid(self) -> bool {
        self == Self::INVALID
    }

    /// The raw 64-bit value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_invalid() {
            write!(f, "P<nil>")
        } else {
            write!(f, "P{}", self.0)
        }
    }
}

/// The hasher of the workspace's maps keyed by integer ids: the buffer
/// pool's page tables and the latch manager's held sets.
/// One add and one multiply per word, where SipHash was most of a probe's
/// time.  Keys that someone chose to collide can slow such a map down;
/// they cannot change what it holds.
pub type IdHash = BuildHasherDefault<IdHasher>;

/// Multiplicative hashing in the Fx style: the product's high bits mix
/// every input bit, so `finish` rotates them down to where the table takes
/// its bucket index.
#[derive(Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(0xF135_7AEA_2E62_A9C5);
    }

    fn write_i64(&mut self, word: i64) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_sentinel() {
        assert!(PageId::INVALID.is_invalid());
        assert!(!PageId(0).is_invalid());
        assert_eq!(PageId(42).raw(), 42);
    }

    #[test]
    fn display() {
        assert_eq!(PageId(7).to_string(), "P7");
        assert_eq!(PageId::INVALID.to_string(), "P<nil>");
    }

    #[test]
    fn id_hash_spreads_strided_page_ids_over_the_low_bits() {
        use std::hash::BuildHasher;
        // Dense ids, one `MemDisk` extent apart, and one virtual-tree level
        // apart: 2^16 of each into 2^16 buckets taken from the low bits.
        for stride in [1u64, 1 << 9, 1 << 11] {
            let mut buckets = vec![0u32; 1 << 16];
            for i in 0..1u64 << 16 {
                let h = IdHash::default().hash_one(PageId(i * stride));
                buckets[(h & 0xFFFF) as usize] += 1;
            }
            let worst = buckets.iter().max().copied().unwrap();
            assert!(worst <= 8, "stride {stride}: {worst} ids in one bucket");
        }
    }
}
