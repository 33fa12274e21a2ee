//! HINT: a hierarchical main-memory interval index (Christodoulou,
//! Bouros & Mamoulis; see PAPERS.md).
//!
//! The domain `[offset, offset + 2^m)` is partitioned hierarchically:
//! level `l` (`0 <= l <= m`) divides it into `2^l` equal partitions.
//! Every stored interval is decomposed into its *canonical prefix
//! blocks* — the at-most-two maximal partitions per level that tile it
//! exactly (the iterative segment-tree cover).  Within a partition the
//! intervals split into **originals** (the one block of the tiling that
//! contains the interval's lower bound) and **replicas** (every other
//! block), the paper's `O`/`R` split.
//!
//! The split buys *comparison-free* queries on this discrete domain:
//!
//! * **Stabbing** `p`: walk the one partition per level whose range
//!   contains `p` and report everything in it.  Every interval stored
//!   there covers its whole partition, hence `p` — no endpoint is ever
//!   compared, and the tiling's disjointness means no duplicates.
//! * **Intersection** `[ql, qu]`: per level, report the *first*
//!   relevant partition (the one containing `ql`) in full and only the
//!   originals of the partitions strictly after it up to the one
//!   containing `qu`.  Each result surfaces exactly once (originals are
//!   unique, and at most one tiling block can contain `ql`), again
//!   without a single endpoint comparison.
//!
//! Partitions live in per-level `BTreeMap`s keyed by partition index,
//! so only non-empty partitions cost memory and the per-level range
//! scan visits exactly the relevant non-empty ones.  Updates are O(log)
//! — an insert or delete touches just the interval's own blocks — which
//! is what lets the hot tier in `ritree-core` keep a HINT coherent
//! under concurrent DML.
//!
//! Space: an interval of length `L` owns at most two blocks on each of
//! the bottom `log2(L) + 2` levels, so replication is `O(log L)` per
//! interval (cf. [`HintIndex::replica_count`]), not `O(log domain)`.
//!
//! # Clipped registration
//!
//! [`HintIndex::insert`] requires the interval to lie inside the domain.
//! [`HintIndex::insert_clipped`] (with [`HintIndex::delete_clipped`])
//! accepts any interval that *meets* the domain and registers it under
//! the part inside, while the stored triple keeps its bounds.  Queries
//! are clamped to the domain as well, and inside the domain the clipped
//! part meets a query exactly when the interval does, so every answer is
//! unchanged — and still comparison-free.  It exists for the hot tier,
//! which keeps one small index per resident *block* of its domain: an
//! interval spanning several blocks is registered in each under its part
//! there, instead of once in full in a tier-wide index (or, worse, in
//! full in every block's index over the whole domain).  Both entry points
//! share one registration routine; [`HintIndex::contains`] answers for
//! triples stored through either.
//!
//! # Bulk build
//!
//! [`HintIndex::build_clipped`] (and [`HintIndex::build`], its caller)
//! lays an index out from all of its items at once instead of registering
//! them one by one.  Every item's decomposition emits one `(partition,
//! item)` pair per block; one stable radix sort ([`crate::sort`]) groups
//! the pairs by partition — levels in order, partitions by index,
//! originals before replicas — and each partition's run becomes its two
//! lists at exactly their length, each level's map built in bulk from its
//! sorted partitions.  The result is the index that registering the items
//! one by one, in input order, would have produced, down to the order
//! within each list; only the spare capacity differs.  So the per-item
//! [`HintIndex::insert_clipped`] / [`HintIndex::delete_clipped`] keep
//! working on a bulk-built index unchanged (a list grows again on its next
//! push).  The hot tier builds every block it admits this way.

use crate::QueryCost;
use std::collections::BTreeMap;

/// One partition's interval lists (the paper's `O`/`R` split).
#[derive(Debug, Default)]
struct Partition {
    /// Intervals whose tiling *starts* here (block contains `lower`).
    originals: Vec<(i64, i64, i64)>,
    /// Intervals tiled through here from an earlier block.
    replicas: Vec<(i64, i64, i64)>,
}

impl Partition {
    fn is_empty(&self) -> bool {
        self.originals.is_empty() && self.replicas.is_empty()
    }
}

/// Hierarchical interval index over a fixed discrete domain.
///
/// Stores `(lower, upper, id)` triples of `i64` with closed-interval
/// semantics, like every structure in this crate.  Unlike its static
/// siblings the HINT is dynamic — [`HintIndex::insert`] and
/// [`HintIndex::delete`] are native `O(log)` operations — but the
/// domain is fixed at construction: endpoints must lie inside it (or
/// the interval goes through the `_clipped` entry points; module docs).
#[derive(Debug)]
pub struct HintIndex {
    /// Lowest domain value.
    offset: i64,
    /// Bottom level: the domain spans `2^m` values, level `l` has `2^l`
    /// partitions of width `2^(m-l)`.
    m: u32,
    /// `levels[l]`: partition index → partition, non-empty only.
    levels: Vec<BTreeMap<u64, Partition>>,
    len: usize,
    replicas: usize,
}

impl HintIndex {
    /// An empty index over the domain `[offset, offset + 2^bits)`.
    ///
    /// # Panics
    /// Panics if `bits` is 0 or exceeds 40 (the hierarchy is dense in
    /// levels, not partitions, so 2^40 values cost nothing — but the
    /// guard keeps `offset + 2^bits` comfortably inside `i64`).
    pub fn new(offset: i64, bits: u32) -> HintIndex {
        assert!((1..=40).contains(&bits), "domain bits {bits} out of range 1..=40");
        assert!(
            offset.checked_add(1i64 << bits).is_some(),
            "domain [{offset}, {offset} + 2^{bits}) overflows i64"
        );
        HintIndex {
            offset,
            m: bits,
            levels: (0..=bits).map(|_| BTreeMap::new()).collect(),
            len: 0,
            replicas: 0,
        }
    }

    /// Builds an index from `(lower, upper, id)` triples, sizing the
    /// domain to the data's extent (empty input gets `[0, 2)`), in bulk
    /// ([`HintIndex::build_clipped`]).
    ///
    /// # Panics
    /// Panics if any triple has `lower > upper`, and with "does not fit a
    /// HINT domain" if the data spans more than 2^40 values or the domain
    /// sized to it would reach past `i64::MAX`.
    pub fn build(items: &[(i64, i64, i64)]) -> HintIndex {
        let Some(min) = items.iter().map(|&(l, _, _)| l).min() else {
            return HintIndex::new(0, 1);
        };
        let max = items.iter().map(|&(_, u, _)| u).max().unwrap();
        // The fewest bits whose `2^bits` values from `min` on reach `max`
        // (`abs_diff` is exact for any two `i64`s).
        let bits = (u64::BITS - max.abs_diff(min).leading_zeros()).max(1);
        assert!(
            bits <= 40 && min.checked_add(1i64 << bits).is_some(),
            "data [{min}, {max}] does not fit a HINT domain (at most 2^40 values, below i64::MAX)"
        );
        HintIndex::build_clipped(min, bits, items)
    }

    /// An index over `[offset, offset + 2^bits)` holding `items`, each
    /// registered under its part inside the domain: for every query and
    /// every later update the same index as [`HintIndex::new`] followed by
    /// [`HintIndex::insert_clipped`] of each item in order — down to the
    /// order within each partition — but built in bulk (module docs).
    ///
    /// # Panics
    /// As [`HintIndex::new`], and if any triple has `lower > upper` or
    /// misses the domain.
    pub fn build_clipped(offset: i64, bits: u32, items: &[(i64, i64, i64)]) -> HintIndex {
        let mut index = HintIndex::new(offset, bits);
        // One `(partition, item)` pair per block of every decomposition.
        // A partition is keyed by its heap number `(1 << level) | idx`,
        // shifted up for the replica bit: `m + 2` bits, ascending by level,
        // then index, originals before replicas.
        let mut keyed: Vec<(u64, usize)> = Vec::with_capacity(items.len());
        for (item, &(lower, upper, _)) in items.iter().enumerate() {
            let (a, b) = index.clip(lower, upper).unwrap_or_else(|| {
                panic!("interval [{lower}, {upper}] misses the domain {:?}", index.domain())
            });
            for_each_block(bits, a, b, |level, idx, original| {
                keyed.push(((((1 << level) | idx) << 1) | u64::from(!original), item));
            });
        }
        // Stable (the fallback sorts by item too), so each partition lists
        // its items in input order.
        if !crate::sort::radix_sort_by_key(&mut keyed, bits + 2, |(key, _)| key) {
            keyed.sort_unstable();
        }
        // Each partition's run, cut into two exact-capacity lists; each
        // level's partitions arrive in index order, for `BTreeMap`'s bulk
        // build.
        let triples =
            |run: &[(u64, usize)]| -> Vec<_> { run.iter().map(|&(_, i)| items[i]).collect() };
        let mut levels: Vec<Vec<(u64, Partition)>> = (0..=bits).map(|_| Vec::new()).collect();
        for run in keyed.chunk_by(|x, y| x.0 >> 1 == y.0 >> 1) {
            let heap = run[0].0 >> 1;
            let level = heap.ilog2();
            let (originals, replicas) = run.split_at(run.partition_point(|&(key, _)| key & 1 == 0));
            let partition =
                Partition { originals: triples(originals), replicas: triples(replicas) };
            levels[level as usize].push((heap ^ (1 << level), partition));
        }
        index.levels = levels.into_iter().map(BTreeMap::from_iter).collect();
        index.len = items.len();
        index.replicas = keyed.len() - items.len();
        index
    }

    /// The inclusive domain `[lower, upper]` this index covers.
    pub fn domain(&self) -> (i64, i64) {
        (self.offset, self.offset + (1i64 << self.m) - 1)
    }

    /// Number of hierarchy levels (`m + 1`).
    pub fn level_count(&self) -> usize {
        self.m as usize + 1
    }

    /// Number of stored intervals.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total replica registrations — the space the prefix decomposition
    /// pays over one entry per interval (`O(log length)` each).
    pub fn replica_count(&self) -> usize {
        self.replicas
    }

    /// Inserts `(lower, upper, id)`.
    ///
    /// # Panics
    /// Panics if `lower > upper` or the interval leaves the domain.
    pub fn insert(&mut self, lower: i64, upper: i64, id: i64) {
        let span = self.to_domain(lower, upper);
        self.register(span, (lower, upper, id));
    }

    /// Inserts `(lower, upper, id)` under the part of `[lower, upper]`
    /// that lies inside the domain; the stored triple keeps its bounds.
    /// Equivalent to [`HintIndex::insert`] for every query, since queries
    /// are clamped to the domain too — see the module docs.
    ///
    /// # Panics
    /// Panics if `lower > upper` or the interval misses the domain.
    pub fn insert_clipped(&mut self, lower: i64, upper: i64, id: i64) {
        let span = self.clip(lower, upper).unwrap_or_else(|| {
            panic!("interval [{lower}, {upper}] misses the domain {:?}", self.domain())
        });
        self.register(span, (lower, upper, id));
    }

    /// Removes one exact `(lower, upper, id)` occurrence from every
    /// block of its decomposition; `false` if the triple is not stored.
    ///
    /// # Panics
    /// Panics if `lower > upper` or the interval leaves the domain.
    pub fn delete(&mut self, lower: i64, upper: i64, id: i64) -> bool {
        let span = self.to_domain(lower, upper);
        self.unregister(span, (lower, upper, id))
    }

    /// [`HintIndex::delete`] for a triple stored by
    /// [`HintIndex::insert_clipped`]; `false` if it is not stored (an
    /// interval that misses the domain never is).
    ///
    /// # Panics
    /// Panics if `lower > upper`.
    pub fn delete_clipped(&mut self, lower: i64, upper: i64, id: i64) -> bool {
        self.clip(lower, upper).is_some_and(|span| self.unregister(span, (lower, upper, id)))
    }

    /// Whether the exact triple is stored, by either entry point.
    ///
    /// # Panics
    /// Panics if `lower > upper`.
    pub fn contains(&self, lower: i64, upper: i64, id: i64) -> bool {
        self.clip(lower, upper).is_some_and(|span| self.registered(span, &(lower, upper, id)))
    }

    /// Registers `triple` in every block of `span`'s decomposition.
    fn register(&mut self, (a, b): (u64, u64), triple: (i64, i64, i64)) {
        let mut blocks = 0usize;
        for_each_block(self.m, a, b, |level, idx, original| {
            let p = self.levels[level as usize].entry(idx).or_default();
            if original {
                p.originals.push(triple);
            } else {
                p.replicas.push(triple);
            }
            blocks += 1;
        });
        self.len += 1;
        self.replicas += blocks - 1;
    }

    /// Presence check on the original block alone: every stored copy
    /// registers its original exactly once.
    fn registered(&self, (a, b): (u64, u64), triple: &(i64, i64, i64)) -> bool {
        let mut present = false;
        for_each_block(self.m, a, b, |level, idx, original| {
            if original {
                present = self.levels[level as usize]
                    .get(&idx)
                    .is_some_and(|p| p.originals.contains(triple));
            }
        });
        present
    }

    /// Removes one registration of `triple` under `span`, if there is one.
    fn unregister(&mut self, span: (u64, u64), triple: (i64, i64, i64)) -> bool {
        if !self.registered(span, &triple) {
            return false;
        }
        let mut blocks = 0usize;
        for_each_block(self.m, span.0, span.1, |level, idx, original| {
            let map = &mut self.levels[level as usize];
            let p = map.get_mut(&idx).expect("present triple registers every block");
            let list = if original { &mut p.originals } else { &mut p.replicas };
            let pos = list.iter().position(|&x| x == triple).expect("registered copy");
            list.swap_remove(pos);
            if p.is_empty() {
                map.remove(&idx);
            }
            blocks += 1;
        });
        self.len -= 1;
        self.replicas -= blocks - 1;
        true
    }

    /// Sorted ids of intervals containing `p` — the comparison-free
    /// fast path: one partition per level, reported verbatim.
    pub fn stab(&self, p: i64) -> Vec<i64> {
        let (lo, hi) = self.domain();
        if p < lo || p > hi || self.len == 0 {
            return Vec::new();
        }
        let pa = (p - self.offset) as u64;
        let mut out = Vec::new();
        for (l, map) in self.levels.iter().enumerate() {
            if let Some(part) = map.get(&(pa >> (self.m - l as u32))) {
                out.extend(part.originals.iter().map(|&(_, _, id)| id));
                out.extend(part.replicas.iter().map(|&(_, _, id)| id));
            }
        }
        out.sort_unstable();
        out
    }

    /// Sorted ids of intervals intersecting `[ql, qu]` (closed).
    pub fn intersection(&self, ql: i64, qu: i64) -> Vec<i64> {
        let mut out = Vec::new();
        self.intersection_into(ql, qu, &mut out);
        out.sort_unstable();
        out
    }

    /// Appends the ids of intervals intersecting `[ql, qu]` to `out`, in
    /// traversal order — each exactly once, unsorted.  For a caller that
    /// concatenates several indexes' answers (the hot tier's hits).
    pub fn intersection_into(&self, ql: i64, qu: i64, out: &mut Vec<i64>) {
        self.scan(ql, qu, &mut QueryCost::default(), |&(_, _, id)| out.push(id));
    }

    /// [`HintIndex::intersection`] plus its work counters.  The
    /// `comparisons` counter is always zero — the structural claim the
    /// `fig23_hot_tier` experiment prices against the interval tree.
    pub fn intersection_with_cost(&self, ql: i64, qu: i64) -> (Vec<i64>, QueryCost) {
        let mut cost = QueryCost::default();
        let mut out = Vec::new();
        self.scan(ql, qu, &mut cost, |&(_, _, id)| out.push(id));
        out.sort_unstable();
        (out, cost)
    }

    /// The stored `(lower, upper, id)` triples intersecting `[ql, qu]`,
    /// in traversal order — each exactly once, with the bounds it was
    /// stored with.  The hot tier walks a block's entries with this.
    pub fn intersecting_triples(&self, ql: i64, qu: i64) -> Vec<(i64, i64, i64)> {
        let mut cost = QueryCost::default();
        let mut out = Vec::new();
        self.scan(ql, qu, &mut cost, |&t| out.push(t));
        out
    }

    /// The exactly-once relevant-partition walk shared by the query
    /// paths: per level, the whole first relevant partition plus the
    /// originals of the rest.
    fn scan(&self, ql: i64, qu: i64, cost: &mut QueryCost, mut emit: impl FnMut(&(i64, i64, i64))) {
        assert!(ql <= qu, "invalid query [{ql}, {qu}]");
        let (lo, hi) = self.domain();
        let (ql, qu) = (ql.max(lo), qu.min(hi));
        if ql > qu || self.len == 0 {
            return; // entirely outside the domain, hence the data
        }
        let qa = (ql - self.offset) as u64;
        let qb = (qu - self.offset) as u64;
        for (l, map) in self.levels.iter().enumerate() {
            if map.is_empty() {
                continue;
            }
            let shift = self.m - l as u32;
            let first = qa >> shift;
            let last = qb >> shift;
            if let Some(p) = map.get(&first) {
                cost.nodes += 1;
                cost.entries += (p.originals.len() + p.replicas.len()) as u64;
                p.originals.iter().for_each(&mut emit);
                p.replicas.iter().for_each(&mut emit);
            }
            if last > first {
                for (_, p) in map.range(first + 1..=last) {
                    cost.nodes += 1;
                    cost.entries += p.originals.len() as u64;
                    p.originals.iter().for_each(&mut emit);
                }
            }
        }
    }

    /// Maps a closed interval into domain units, validating bounds.
    fn to_domain(&self, lower: i64, upper: i64) -> (u64, u64) {
        assert!(lower <= upper, "invalid interval [{lower}, {upper}]");
        let (lo, hi) = self.domain();
        assert!(
            lower >= lo && upper <= hi,
            "interval [{lower}, {upper}] outside the domain [{lo}, {hi}]"
        );
        ((lower - self.offset) as u64, (upper - self.offset) as u64)
    }

    /// The part of a closed interval inside the domain, in domain units;
    /// `None` if there is none.
    fn clip(&self, lower: i64, upper: i64) -> Option<(u64, u64)> {
        assert!(lower <= upper, "invalid interval [{lower}, {upper}]");
        let (lo, hi) = self.domain();
        (lower <= hi && upper >= lo)
            .then(|| ((lower.max(lo) - self.offset) as u64, (upper.min(hi) - self.offset) as u64))
    }
}

/// Canonical prefix decomposition of `[lo, hi]` (inclusive, in domain
/// units) over an `m`-level hierarchy: calls `f(level, index, original)`
/// for each maximal block, at most two per level, tiling the interval
/// exactly.  `original` marks the one block containing `lo`.
fn for_each_block(m: u32, lo: u64, hi: u64, mut f: impl FnMut(u32, u64, bool)) {
    let mut a = lo;
    let mut b = hi + 1; // half-open
    let mut level = m;
    while a < b {
        if a & 1 == 1 {
            f(level, a, lo >> (m - level) == a);
            a += 1;
        }
        if b & 1 == 1 {
            b -= 1;
            f(level, b, lo >> (m - level) == b);
        }
        a >>= 1;
        b >>= 1;
        if level == 0 {
            break;
        }
        level -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveIntervalSet;

    fn pseudo_items(n: usize, seed: u64) -> Vec<(i64, i64, i64)> {
        crate::tests::pseudo_items(n, seed, 4000, 400, 4095)
    }

    #[test]
    fn empty_index() {
        let h = HintIndex::build(&[]);
        assert!(h.is_empty());
        assert_eq!(h.stab(0), Vec::<i64>::new());
        assert_eq!(h.intersection(-100, 100), Vec::<i64>::new());
    }

    #[test]
    fn decomposition_tiles_exactly() {
        // Every decomposition must tile the interval: disjoint blocks,
        // exact cover, exactly one original (the block containing lo).
        for (lo, hi) in [(0, 0), (0, 31), (3, 17), (5, 5), (1, 30), (16, 16), (0, 30), (7, 24)] {
            let mut covered = [false; 32];
            let mut originals = 0;
            for_each_block(5, lo, hi, |level, idx, original| {
                let width = 1u64 << (5 - level);
                for v in idx * width..(idx + 1) * width {
                    assert!(!covered[v as usize], "block overlap at {v} for [{lo}, {hi}]");
                    covered[v as usize] = true;
                }
                if original {
                    assert!((idx * width..(idx + 1) * width).contains(&lo));
                    originals += 1;
                }
            });
            for v in 0..32u64 {
                assert_eq!(covered[v as usize], (lo..=hi).contains(&v), "cover at {v}");
            }
            assert_eq!(originals, 1, "[{lo}, {hi}] must have exactly one original block");
        }
    }

    #[test]
    fn matches_naive_on_random_data() {
        let items = pseudo_items(1200, 0x51AB);
        let h = HintIndex::build(&items);
        let naive = NaiveIntervalSet::from_triples(items.iter().copied());
        for (ql, qu) in [(0, 4095), (100, 180), (2000, 2000), (-50, 60), (4000, 9000), (1, 4094)] {
            assert_eq!(h.intersection(ql, qu), naive.intersection(ql, qu), "[{ql}, {qu}]");
        }
        for p in (-5..4200).step_by(31) {
            assert_eq!(h.stab(p), naive.stab(p), "stab {p}");
        }
    }

    #[test]
    fn queries_are_comparison_free() {
        let items = pseudo_items(800, 0xC0);
        let h = HintIndex::build(&items);
        for (ql, qu) in [(0, 4095), (700, 900), (1234, 1234)] {
            let (ids, cost) = h.intersection_with_cost(ql, qu);
            assert_eq!(cost.comparisons, 0, "HINT never compares endpoints");
            assert_eq!(cost.entries, ids.len() as u64, "every touched entry is a result");
        }
    }

    #[test]
    fn dynamic_updates_match_naive() {
        let mut h = HintIndex::new(0, 12);
        let mut naive = NaiveIntervalSet::new();
        let items = pseudo_items(600, 0xDE13);
        for &(l, u, id) in &items {
            h.insert(l, u, id);
            naive.insert(l, u, id);
        }
        for (i, &(l, u, id)) in items.iter().enumerate() {
            if i % 3 == 0 {
                assert!(h.delete(l, u, id));
                assert!(naive.delete(l, u, id));
            }
        }
        assert_eq!(h.len(), naive.len());
        for p in (0..4200).step_by(53) {
            assert_eq!(h.stab(p), naive.stab(p), "stab {p}");
        }
        assert_eq!(h.intersection(0, 4095), naive.intersection(0, 4095));
        assert!(!h.delete(0, 1, -99), "absent triple");
    }

    #[test]
    fn delete_everything_empties_every_partition() {
        let items = pseudo_items(300, 7);
        let mut h = HintIndex::build(&items);
        for &(l, u, id) in &items {
            assert!(h.delete(l, u, id));
        }
        assert!(h.is_empty());
        assert_eq!(h.replica_count(), 0);
        assert!(h.levels.iter().all(BTreeMap::is_empty), "no partition may linger");
    }

    #[test]
    fn duplicates_are_a_multiset() {
        let mut h = HintIndex::new(0, 8);
        h.insert(3, 9, 7);
        h.insert(3, 9, 7);
        assert_eq!(h.stab(5), vec![7, 7]);
        assert!(h.delete(3, 9, 7));
        assert_eq!(h.stab(5), vec![7]);
    }

    #[test]
    fn boundary_touching_and_full_domain() {
        let mut h = HintIndex::new(0, 10);
        h.insert(0, 1023, 1); // full domain
        h.insert(0, 0, 2);
        h.insert(1023, 1023, 3);
        h.insert(100, 200, 4);
        assert_eq!(h.intersection(0, 0), vec![1, 2]);
        assert_eq!(h.intersection(1023, 1023), vec![1, 3]);
        assert_eq!(h.intersection(200, 200), vec![1, 4], "closed upper endpoint");
        assert_eq!(h.intersection(201, 1022), vec![1]);
        assert_eq!(h.intersection(0, 1023), vec![1, 2, 3, 4]);
    }

    #[test]
    fn replication_is_logarithmic_in_length() {
        let items = pseudo_items(2000, 0xACE);
        let h = HintIndex::build(&items);
        let per_interval = h.replica_count() as f64 / items.len() as f64;
        // lengths < 400 ⇒ at most ~2·log2(400) blocks each.
        assert!(per_interval < 2.0 * 9.0, "replicas per interval {per_interval}");
    }

    #[test]
    #[should_panic(expected = "outside the domain")]
    fn rejects_out_of_domain() {
        HintIndex::new(0, 8).insert(-1, 5, 0);
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn rejects_reversed_bounds() {
        HintIndex::new(0, 8).insert(5, 1, 0);
    }

    #[test]
    #[should_panic(expected = "does not fit a HINT domain")]
    fn build_refuses_data_spanning_all_of_i64() {
        HintIndex::build(&[(i64::MIN, i64::MIN + 3, 1), (i64::MAX - 3, i64::MAX, 2)]);
    }

    #[test]
    #[should_panic(expected = "does not fit a HINT domain")]
    fn build_refuses_data_spread_over_more_than_2_pow_40_values() {
        HintIndex::build(&[(0, 5, 1), ((1 << 41) - 5, 1 << 41, 2)]);
    }

    #[test]
    #[should_panic(expected = "does not fit a HINT domain")]
    fn build_refuses_data_whose_domain_would_pass_i64_max() {
        // Five values need a domain of eight, one more than is left.
        HintIndex::build(&[(i64::MAX - 5, i64::MAX - 1, 1)]);
    }

    #[test]
    fn build_takes_data_up_to_the_edges_of_what_fits() {
        let h = HintIndex::build(&[(0, 3, 1), ((1 << 40) - 4, (1 << 40) - 1, 2)]);
        assert_eq!(h.domain(), (0, (1 << 40) - 1), "2^40 values fit exactly");
        assert_eq!(h.intersection(2, 1 << 39), vec![1]);
        // Seven values take eight, the last of them `i64::MAX - 1`.
        let top = i64::MAX - 8;
        let h = HintIndex::build(&[(top, top + 4, 1), (top + 1, top + 6, 2)]);
        assert_eq!(h.domain(), (top, i64::MAX - 1));
        assert_eq!(h.stab(top + 5), vec![2]);
        let h = HintIndex::build(&[(i64::MIN, i64::MIN + 9, 1)]);
        assert_eq!(h.intersection(i64::MIN + 9, 0), vec![1]);
    }

    #[test]
    fn negative_offset_domain() {
        let items = vec![(-100, -50, 1), (-60, 20, 2), (10, 30, 3)];
        let h = HintIndex::build(&items);
        let naive = NaiveIntervalSet::from_triples(items);
        for (ql, qu) in [(-55, -52), (0, 9), (15, 100), (25, 100), (-200, 200)] {
            assert_eq!(h.intersection(ql, qu), naive.intersection(ql, qu), "[{ql}, {qu}]");
        }
    }
}
