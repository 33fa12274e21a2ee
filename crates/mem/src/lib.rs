//! Main-memory interval structures (paper Section 2.1).
//!
//! The paper's related-work survey starts from the classical main-memory
//! structures; this crate keeps the ones the repository uses — brute
//! force, the *Interval Tree* of Edelsbrunner, and HINT — for three
//! purposes:
//!
//! 1. **Correctness oracles** — every relational access method in this
//!    repository (RI-tree, Tile Index, IST, MAP21, Window-List) is checked
//!    against [`NaiveIntervalSet`] on randomized workloads;
//! 2. **Reference semantics** — [`IntervalTree`] is the very structure the
//!    RI-tree virtualizes, so its three-phase query algorithm documents
//!    what Sections 3–4 of the paper translate into SQL.
//! 3. **A hot-tier engine** — [`HintIndex`] brings the survey up to date
//!    with HINT (Christodoulou, Bouros & Mamoulis; see PAPERS.md), the
//!    hierarchical comparison-free index that `ritree-core`'s read-through
//!    `HotTier` runs in front of the paged RI-tree.
//!
//! All three structures store `(lower, upper, id)` triples of `i64` with closed interval semantics
//! (`lower <= upper`, intersection includes shared endpoints), matching
//! the `Interval` type in `ritree-core`.
//!
//! The workspace's one radix sort lives here too ([`sort`]): HINT's bulk
//! build sorts its block registrations with it, and [`sort::sort_ids`] is
//! how a caller turns an RI-tree answer's plan-order ids into ascending
//! ones (`ritree-core`'s `HotTier` does, on its miss and bypass paths).

pub mod hint;
pub mod interval_tree;
pub mod naive;
pub mod sort;

pub use hint::HintIndex;
pub use interval_tree::IntervalTree;
pub use naive::NaiveIntervalSet;

/// Work counters reported by the `*_with_cost` query variants.
///
/// The counters *simulate* cost in machine-independent units so the
/// `fig23_hot_tier` experiment is byte-stable: no wall clock, just how
/// much work each structure's query algorithm did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryCost {
    /// Interval-endpoint comparisons against stored entries — the
    /// metric HINT's comparison-free design drives to zero.
    pub comparisons: u64,
    /// Stored entries touched (scanned or reported).
    pub entries: u64,
    /// Secondary-structure nodes / partitions visited.
    pub nodes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` xorshift triples `(l, min(l + len, max_upper), i)` with
    /// `l < starts`, `len < lens` — the one generator of this crate's
    /// unit tests.
    pub(crate) fn pseudo_items(
        n: usize,
        seed: u64,
        starts: u64,
        lens: u64,
        max_upper: i64,
    ) -> Vec<(i64, i64, i64)> {
        let mut x = seed;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let l = (x % starts) as i64;
                (l, (l + ((x >> 32) % lens) as i64).min(max_upper), i as i64)
            })
            .collect()
    }

    /// The dynamic structures take the deletes themselves; the interval
    /// tree is static, so it is built from the survivors.
    #[test]
    fn all_structures_agree() {
        let items = pseudo_items(400, 0x1DE8, 1500, 200, 2047);
        let mut naive = NaiveIntervalSet::new();
        let mut hint = HintIndex::new(0, 11); // domain [0, 2048)
        for &(l, u, id) in &items {
            naive.insert(l, u, id);
            hint.insert(l, u, id);
        }
        for &(l, u, id) in items.iter().step_by(3) {
            assert!(naive.delete(l, u, id) && hint.delete(l, u, id));
        }
        assert!(!naive.delete(0, 0, -1) && !hint.delete(0, 0, -1));
        let tree = IntervalTree::build(naive.triples());
        assert_eq!((tree.len(), hint.len()), (naive.len(), naive.len()));
        for (ql, qu) in [(0, 2047), (300, 360), (1000, 1000), (-90, 4), (1700, 5000)] {
            let expect = naive.intersection(ql, qu);
            assert_eq!(tree.intersection(ql, qu), expect, "interval_tree [{ql}, {qu}]");
            assert_eq!(hint.intersection(ql, qu), expect, "hint [{ql}, {qu}]");
        }
        for p in (0..2048).step_by(41) {
            assert_eq!(tree.stab(p), naive.stab(p), "interval_tree stab {p}");
            assert_eq!(hint.stab(p), naive.stab(p), "hint stab {p}");
        }
    }
}
