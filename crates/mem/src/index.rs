//! The shared [`IntervalIndex`] trait over every main-memory structure.
//!
//! The trait gives the naive set, the interval tree and HINT one insert /
//! delete / stab / intersection surface, so experiments and tests can
//! iterate a `&mut dyn IntervalIndex` slice instead of matching on each
//! structure's inherent methods.
//!
//! **Update semantics.**  [`NaiveIntervalSet`] and [`HintIndex`] are
//! natively dynamic.  [`IntervalTree`] is a *static* structure (built
//! once from a snapshot — see its module docs); its trait updates are a
//! full rebuild from the retained input, which is correct but `O(n)` per
//! operation.  The trait exists for uniform *querying*; don't drive a
//! write-heavy workload through the rebuild-based implementation.
//!
//! **Result semantics.**  `stab`/`intersection` return sorted ids, and
//! duplicate `(lower, upper, id)` triples are a multiset.

use crate::hint::HintIndex;
use crate::interval_tree::IntervalTree;
use crate::naive::NaiveIntervalSet;

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

/// A main-memory index over closed `(lower, upper, id)` intervals.
pub trait IntervalIndex {
    /// Short stable name for reports and figures.
    fn index_name(&self) -> &'static str;

    /// Number of stored intervals.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts `(lower, upper, id)`.
    ///
    /// # Panics
    /// Panics if `lower > upper`; [`HintIndex`] additionally panics if
    /// the interval leaves its fixed domain.
    fn insert(&mut self, lower: i64, upper: i64, id: i64);

    /// Removes one exact `(lower, upper, id)` occurrence; `false` if
    /// the triple is not stored.
    fn delete(&mut self, lower: i64, upper: i64, id: i64) -> bool;

    /// Sorted ids of intervals containing `p`.
    fn stab(&self, p: i64) -> Vec<i64>;

    /// Sorted ids of intervals intersecting `[ql, qu]` (closed).
    fn intersection(&self, ql: i64, qu: i64) -> Vec<i64>;
}

impl IntervalIndex for NaiveIntervalSet {
    fn index_name(&self) -> &'static str {
        "naive"
    }
    fn len(&self) -> usize {
        NaiveIntervalSet::len(self)
    }
    fn insert(&mut self, lower: i64, upper: i64, id: i64) {
        NaiveIntervalSet::insert(self, lower, upper, id);
    }
    fn delete(&mut self, lower: i64, upper: i64, id: i64) -> bool {
        NaiveIntervalSet::delete(self, lower, upper, id)
    }
    fn stab(&self, p: i64) -> Vec<i64> {
        NaiveIntervalSet::stab(self, p)
    }
    fn intersection(&self, ql: i64, qu: i64) -> Vec<i64> {
        NaiveIntervalSet::intersection(self, ql, qu)
    }
}

impl IntervalIndex for HintIndex {
    fn index_name(&self) -> &'static str {
        "hint"
    }
    fn len(&self) -> usize {
        HintIndex::len(self)
    }
    fn insert(&mut self, lower: i64, upper: i64, id: i64) {
        HintIndex::insert(self, lower, upper, id);
    }
    fn delete(&mut self, lower: i64, upper: i64, id: i64) -> bool {
        HintIndex::delete(self, lower, upper, id)
    }
    fn stab(&self, p: i64) -> Vec<i64> {
        HintIndex::stab(self, p)
    }
    fn intersection(&self, ql: i64, qu: i64) -> Vec<i64> {
        HintIndex::intersection(self, ql, qu)
    }
}

impl IntervalIndex for IntervalTree {
    fn index_name(&self) -> &'static str {
        "interval_tree"
    }
    fn len(&self) -> usize {
        IntervalTree::len(self)
    }
    fn insert(&mut self, lower: i64, upper: i64, id: i64) {
        assert!(lower <= upper, "invalid interval [{lower}, {upper}]");
        let mut items = self.triples().to_vec();
        items.push((lower, upper, id));
        *self = IntervalTree::build(&items);
    }
    fn delete(&mut self, lower: i64, upper: i64, id: i64) -> bool {
        let mut items = self.triples().to_vec();
        let Some(pos) = items.iter().position(|&t| t == (lower, upper, id)) else {
            return false;
        };
        items.swap_remove(pos);
        *self = IntervalTree::build(&items);
        true
    }
    fn stab(&self, p: i64) -> Vec<i64> {
        IntervalTree::stab(self, p)
    }
    fn intersection(&self, ql: i64, qu: i64) -> Vec<i64> {
        IntervalTree::intersection(self, ql, qu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_items(n: usize, seed: u64) -> Vec<(i64, i64, i64)> {
        let mut x = seed;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let l = (x % 1500) as i64;
                let len = ((x >> 32) % 200) as i64;
                (l, (l + len).min(2047), i as i64)
            })
            .collect()
    }

    fn all_indexes() -> Vec<Box<dyn IntervalIndex>> {
        vec![
            Box::new(NaiveIntervalSet::new()),
            Box::new(IntervalTree::build(&[])),
            Box::new(HintIndex::new(0, 11)), // domain [0, 2048)
        ]
    }

    #[test]
    fn all_implementations_agree_through_the_trait() {
        let items = pseudo_items(400, 0x1DE8);
        let mut indexes = all_indexes();
        for index in &mut indexes {
            for &(l, u, id) in &items {
                index.insert(l, u, id);
            }
            // Delete a third through the trait (rebuild path for the
            // interval tree), including a miss.
            for &(l, u, id) in items.iter().step_by(3) {
                assert!(index.delete(l, u, id), "{}", index.index_name());
            }
            assert!(!index.delete(0, 0, -1), "{}", index.index_name());
        }
        let oracle = &indexes[0];
        for other in &indexes[1..] {
            assert_eq!(oracle.len(), other.len(), "{}", other.index_name());
            for (ql, qu) in [(0, 2047), (300, 360), (1000, 1000), (-90, 4), (1700, 5000)] {
                assert_eq!(
                    oracle.intersection(ql, qu),
                    other.intersection(ql, qu),
                    "{} [{ql}, {qu}]",
                    other.index_name()
                );
            }
            for p in (0..2048).step_by(41) {
                assert_eq!(oracle.stab(p), other.stab(p), "{} stab {p}", other.index_name());
            }
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<&str> = all_indexes().iter().map(|i| i.index_name()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }
}
