//! Property tests: HINT must answer exactly like the naive oracle under
//! arbitrary data, arbitrary queries, boundary-touching queries,
//! duplicate endpoints, point intervals, stabbing, and interleaved
//! deletes — and must do it without a single endpoint comparison.  The
//! same holds for an index over a *sub-domain* filled through the clipped
//! entry point (how the hot tier's blocks use it), against the oracle
//! restricted to that sub-domain.  An index built in bulk
//! ([`HintIndex::build_clipped`], how the hot tier admits a block) must be
//! indistinguishable from one filled item by item, before and after
//! per-item updates.

use proptest::prelude::*;
use ri_mem::{HintIndex, NaiveIntervalSet};

/// Domain used by every test: `HintIndex::new(-1024, 12)` covers
/// `[-1024, 3071]`, and the strategies below stay well inside it.
fn hint() -> HintIndex {
    HintIndex::new(-1024, 12)
}

fn interval_strategy() -> impl Strategy<Value = (i64, i64)> {
    (-1000i64..1000, 0i64..400).prop_map(|(l, len)| (l, l + len))
}

fn data_strategy(max_n: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec(interval_strategy(), 1..max_n)
}

/// Builds both structures over the same `(lower, upper, index-as-id)`
/// triples.
fn build_both(data: &[(i64, i64)]) -> (HintIndex, NaiveIntervalSet) {
    let mut h = hint();
    let mut n = NaiveIntervalSet::new();
    for (id, &(l, u)) in data.iter().enumerate() {
        h.insert(l, u, id as i64);
        n.insert(l, u, id as i64);
    }
    (h, n)
}

/// The sub-domain of the clipped tests, `[-256, 255]`: a third of the
/// intervals `interval_strategy` draws miss it, a third straddle an edge.
const SUB: (i64, i64) = (-256, 255);

/// A sub-domain index filled through [`HintIndex::insert_clipped`] with
/// every interval of `data` that meets [`SUB`], and the oracle over the
/// same triples.
fn build_clipped(data: &[(i64, i64)]) -> (HintIndex, NaiveIntervalSet) {
    let mut h = HintIndex::new(SUB.0, 9);
    assert_eq!(h.domain(), SUB);
    let mut n = NaiveIntervalSet::new();
    for (id, &(l, u)) in data.iter().enumerate() {
        if l <= SUB.1 && u >= SUB.0 {
            h.insert_clipped(l, u, id as i64);
            n.insert(l, u, id as i64);
        }
    }
    (h, n)
}

/// The oracle's answer restricted to [`SUB`]: what meets the part of the
/// query inside it.
fn restricted(n: &NaiveIntervalSet, ql: i64, qu: i64) -> Vec<i64> {
    let (ql, qu) = (ql.max(SUB.0), qu.min(SUB.1));
    if ql > qu {
        return Vec::new();
    }
    n.intersection(ql, qu)
}

/// The two domains of the bulk-build tests as `(offset, bits)`: the whole
/// domain every interval lies in, and [`SUB`], which clips.
const DOMAINS: [(i64, u32); 2] = [(-1024, 12), (SUB.0, 9)];

/// Triples for the bulk-build tests: intervals of every length the
/// strategy draws, ids from a small pool, and some triples repeated
/// verbatim — the index is a multiset.
fn triples_strategy() -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    (
        prop::collection::vec((interval_strategy(), 0i64..50), 0..120),
        prop::collection::vec(0usize..1000, 0..20),
    )
        .prop_map(|(items, repeats)| {
            let mut triples: Vec<_> = items.into_iter().map(|((l, u), id)| (l, u, id)).collect();
            let n = triples.len();
            if n > 0 {
                triples.extend(repeats.iter().map(|&r| triples[r % n]).collect::<Vec<_>>());
            }
            triples
        })
}

/// The triples of `triples` that meet `h`'s domain.
fn meeting(h: &HintIndex, triples: &[(i64, i64, i64)]) -> Vec<(i64, i64, i64)> {
    let (lo, hi) = h.domain();
    triples.iter().copied().filter(|&(l, u, _)| l <= hi && u >= lo).collect()
}

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort_unstable();
    v
}

/// Everything a caller can observe of two indexes agrees: size, replicas,
/// each query's ids and cost, the triples it meets (as multisets), stabs
/// at its ends, the whole domain's triples, and `contains` for `probes`
/// and for the same bounds under an id never stored.
fn assert_same(
    got: &HintIndex,
    want: &HintIndex,
    queries: &[(i64, i64)],
    probes: &[(i64, i64, i64)],
) {
    assert_eq!(got.domain(), want.domain());
    assert_eq!(got.len(), want.len());
    assert_eq!(got.replica_count(), want.replica_count());
    let (lo, hi) = want.domain();
    assert_eq!(sorted(got.intersecting_triples(lo, hi)), sorted(want.intersecting_triples(lo, hi)));
    for &(ql, qu) in queries {
        assert_eq!(got.intersection_with_cost(ql, qu), want.intersection_with_cost(ql, qu));
        assert_eq!(
            sorted(got.intersecting_triples(ql, qu)),
            sorted(want.intersecting_triples(ql, qu))
        );
        assert_eq!(got.stab(ql), want.stab(ql));
        assert_eq!(got.stab(qu), want.stab(qu));
    }
    for &(l, u, id) in probes {
        assert_eq!(got.contains(l, u, id), want.contains(l, u, id));
        assert!(!got.contains(l, u, -1));
    }
}

/// [`HintIndex::build_clipped`] and the per-item path it replaces, over
/// one domain and the items of `triples` that meet it.
fn bulk_and_per_item(
    (offset, bits): (i64, u32),
    triples: &[(i64, i64, i64)],
) -> (HintIndex, HintIndex) {
    let mut per_item = HintIndex::new(offset, bits);
    let items = meeting(&per_item, triples);
    for &(l, u, id) in &items {
        per_item.insert_clipped(l, u, id);
    }
    (HintIndex::build_clipped(offset, bits, &items), per_item)
}

#[test]
fn bulk_build_of_nothing_is_an_empty_index_that_grows() {
    for (offset, bits) in DOMAINS {
        let (mut bulk, mut per_item) = bulk_and_per_item((offset, bits), &[]);
        assert!(bulk.is_empty() && bulk.replica_count() == 0);
        assert_same(&bulk, &per_item, &[(-2000, 4000), (0, 0)], &[]);
        for h in [&mut bulk, &mut per_item] {
            h.insert_clipped(-300, 20, 1);
            h.insert_clipped(7, 7, 2);
        }
        assert_same(&bulk, &per_item, &[(-2000, 4000), (7, 9)], &[(-300, 20, 1)]);
        assert_eq!(bulk.intersection(0, 10), vec![1, 2]);
    }
}

/// Nested aligned blocks all holding the domain's first value put one
/// partition on every level (a point query there visits `level_count`
/// partitions), and unaligned neighbours give every level replicas.
#[test]
fn bulk_build_populates_every_level_like_per_item_insertion() {
    let (offset, bits) = DOMAINS[1];
    let mut items = Vec::new();
    for level in 0..=bits {
        let width = 1i64 << (bits - level);
        items.push((offset, offset + width - 1, level as i64));
        items.push((offset + width / 2 + 1, offset + 2 * width + 2, 100 + level as i64));
    }
    items.extend([(offset - 50, offset + 3, 200), (offset + 3, SUB.1 + 50, 201)]);
    items.extend_from_slice(&items.clone()[..4]); // duplicates
    let (bulk, per_item) = bulk_and_per_item((offset, bits), &items);
    let (_, cost) = bulk.intersection_with_cost(offset, offset);
    assert_eq!(cost.nodes, bulk.level_count() as u64, "a partition on every level");
    let queries: Vec<(i64, i64)> =
        (0..40).map(|i| (offset + i * 13, offset + i * 13 + i * i % 97)).collect();
    assert_same(&bulk, &per_item, &queries, &items);
}

/// The clipped entry point relaxes nothing about the strict one.
#[test]
#[should_panic(expected = "outside the domain")]
fn strict_insert_still_rejects_what_clipped_accepts() {
    let mut h = HintIndex::new(SUB.0, 9);
    h.insert_clipped(-300, 0, 1);
    assert!(h.contains(-300, 0, 1));
    h.insert(-300, 0, 2);
}

#[test]
#[should_panic(expected = "misses the domain")]
fn clipped_insert_rejects_an_interval_with_no_part_inside() {
    HintIndex::new(SUB.0, 9).insert_clipped(256, 300, 1);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// A bulk-built index is the per-item one: on the whole domain and on
    /// a clipped sub-domain, with duplicates, every observable agrees.
    #[test]
    fn bulk_build_equals_per_item_insertion(
        triples in triples_strategy(),
        queries in prop::collection::vec(interval_strategy(), 1..8),
    ) {
        for domain in DOMAINS {
            let (bulk, per_item) = bulk_and_per_item(domain, &triples);
            assert_same(&bulk, &per_item, &queries, &triples);
        }
    }

    /// Per-item updates keep working on a bulk-built index: interleaved
    /// clipped inserts and deletes — of stored triples, of duplicates, of
    /// triples never stored, of intervals that miss a sub-domain — leave it
    /// equal to the per-item index taking the same updates, and its
    /// answers equal to the oracle's, after every step.
    #[test]
    fn bulk_built_index_takes_per_item_updates(
        triples in triples_strategy(),
        steps in prop::collection::vec((any::<bool>(), interval_strategy(), 0i64..60), 1..40),
        query in interval_strategy(),
    ) {
        for domain in DOMAINS {
            let (mut bulk, mut per_item) = bulk_and_per_item(domain, &triples);
            let mut stored = meeting(&bulk, &triples);
            let mut oracle = NaiveIntervalSet::new();
            for &(l, u, id) in &stored {
                oracle.insert(l, u, id);
            }
            let (lo, hi) = bulk.domain();
            for &(insert, (l, u), id) in &steps {
                if insert {
                    if l > hi || u < lo {
                        continue;
                    }
                    bulk.insert_clipped(l, u, id);
                    per_item.insert_clipped(l, u, id);
                    oracle.insert(l, u, id);
                    stored.push((l, u, id));
                } else {
                    // Half the deletes name a stored triple, half a drawn one.
                    let (l, u, id) = if id % 2 == 0 && !stored.is_empty() {
                        stored[id as usize % stored.len()]
                    } else {
                        (l, u, id)
                    };
                    let deleted = bulk.delete_clipped(l, u, id);
                    prop_assert_eq!(deleted, per_item.delete_clipped(l, u, id));
                    prop_assert_eq!(deleted, oracle.delete(l, u, id));
                    if deleted {
                        let pos = stored.iter().position(|&t| t == (l, u, id)).unwrap();
                        stored.swap_remove(pos);
                    }
                }
                assert_same(&bulk, &per_item, &[query, (l, u)], &stored);
                let (ql, qu) = (query.0.max(lo), query.1.min(hi));
                if ql <= qu {
                    prop_assert_eq!(bulk.intersection(ql, qu), oracle.intersection(ql, qu));
                }
            }
        }
    }

    /// Queries against a clipped sub-domain index: ids like the restricted
    /// oracle's, triples with the bounds they were stored with (not the
    /// clipped ones), and still not one endpoint comparison.
    #[test]
    fn clipped_index_matches_naive_on_its_sub_domain(
        data in data_strategy(120),
        query in interval_strategy(),
        p in -400i64..400,
    ) {
        let (h, n) = build_clipped(&data);
        let (ql, qu) = query;
        let want = restricted(&n, ql, qu);
        let (ids, cost) = h.intersection_with_cost(ql, qu);
        prop_assert_eq!(&ids, &want);
        prop_assert_eq!(cost.comparisons, 0);
        prop_assert_eq!(cost.entries, ids.len() as u64);
        prop_assert_eq!(h.intersection(ql, qu), want);
        let mut appended = vec![-7];
        h.intersection_into(ql, qu, &mut appended);
        appended[1..].sort_unstable();
        prop_assert_eq!(&appended[1..], &ids[..]);
        prop_assert_eq!(appended[0], -7);
        prop_assert_eq!(h.stab(p), restricted(&n, p, p));

        let mut got = h.intersecting_triples(ql, qu);
        got.sort_unstable();
        let (cl, cu) = (ql.max(SUB.0), qu.min(SUB.1));
        let mut want: Vec<(i64, i64, i64)> = n
            .triples()
            .iter()
            .copied()
            .filter(|&(l, u, _)| cl <= cu && l <= cu && cl <= u)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        // The whole sub-domain returns every stored triple once.
        prop_assert_eq!(h.intersecting_triples(SUB.0, SUB.1).len(), n.len());
    }

    /// Clipped deletes and `contains` agree with the oracle — for stored
    /// triples, never-stored ones, and intervals that miss the sub-domain —
    /// and queries agree after every delete.
    #[test]
    fn clipped_deletes_and_contains_match_naive(
        data in data_strategy(60),
        victims in prop::collection::vec(0usize..1000, 1..30),
        query in interval_strategy(),
    ) {
        let (mut h, mut n) = build_clipped(&data);
        let (ql, qu) = query;
        for &v in &victims {
            let id = (v % data.len()) as i64;
            let (l, u) = data[id as usize];
            let stored = n.triples().contains(&(l, u, id));
            prop_assert_eq!(h.contains(l, u, id), stored);
            prop_assert!(!h.contains(l, u, -1));
            prop_assert!(!h.delete_clipped(l, u, -1));
            prop_assert_eq!(h.delete_clipped(l, u, id), n.delete(l, u, id));
            prop_assert!(!h.contains(l, u, id));
            prop_assert_eq!(h.intersection(ql, qu), restricted(&n, ql, qu));
            prop_assert_eq!(h.len(), n.len());
        }
    }

    /// Arbitrary data, arbitrary range queries: identical sorted ids.
    #[test]
    fn intersection_matches_naive(
        data in data_strategy(120),
        query in interval_strategy(),
    ) {
        let (h, n) = build_both(&data);
        let (ql, qu) = query;
        prop_assert_eq!(h.intersection(ql, qu), n.intersection(ql, qu));
    }

    /// Queries whose endpoints coincide exactly with stored endpoints —
    /// the closed-interval boundary cases (`q.upper == lower`,
    /// `q.lower == upper`) where an off-by-one in the prefix
    /// decomposition would show first.
    #[test]
    fn boundary_touching_queries_match_naive(
        data in data_strategy(60),
        i in 0usize..1000,
        j in 0usize..1000,
    ) {
        let (h, n) = build_both(&data);
        let a = data[i % data.len()];
        let b = data[j % data.len()];
        for &(ql, qu) in &[
            (a.1.min(b.0), a.1.max(b.0)), // an upper meets a lower
            (a.0, b.0.max(a.0)),          // both ends on stored lowers
            (b.1.min(a.1), a.1.max(b.1)), // both ends on stored uppers
        ] {
            prop_assert_eq!(h.intersection(ql, qu), n.intersection(ql, qu));
        }
    }

    /// Endpoints drawn from a tiny pool, so many intervals share exact
    /// lowers and uppers (and many are duplicates up to id).
    #[test]
    fn duplicate_endpoints_match_naive(
        pairs in prop::collection::vec((0i64..8, 0i64..8), 1..80),
        query in (0i64..8, 0i64..8),
    ) {
        let mut h = hint();
        let mut n = NaiveIntervalSet::new();
        for (id, &(a, b)) in pairs.iter().enumerate() {
            let (l, u) = (a.min(b), a.max(b));
            h.insert(l, u, id as i64);
            n.insert(l, u, id as i64);
        }
        let (ql, qu) = (query.0.min(query.1), query.0.max(query.1));
        prop_assert_eq!(h.intersection(ql, qu), n.intersection(ql, qu));
    }

    /// Interleaved deletes: delete outcomes agree with the oracle (both
    /// for stored and never-stored triples), and queries agree after
    /// every delete.
    #[test]
    fn deletes_match_naive(
        data in data_strategy(60),
        victims in prop::collection::vec(0usize..1000, 1..30),
        query in interval_strategy(),
    ) {
        let (mut h, mut n) = build_both(&data);
        let (ql, qu) = query;
        for &v in &victims {
            let id = (v % data.len()) as i64;
            let (l, u) = data[id as usize];
            prop_assert_eq!(h.delete(l, u, id), n.delete(l, u, id));
            // A triple that was never inserted (wrong id) is refused.
            prop_assert!(!h.delete(l, u, -1));
            prop_assert_eq!(h.intersection(ql, qu), n.intersection(ql, qu));
            prop_assert_eq!(h.len(), n.len());
        }
    }

    /// Degenerate point intervals (`lower == upper`) against point and
    /// range queries.
    #[test]
    fn point_intervals_match_naive(
        points in prop::collection::vec(-1000i64..1000, 1..100),
        query in interval_strategy(),
        stab_at in -1000i64..1000,
    ) {
        let mut h = hint();
        let mut n = NaiveIntervalSet::new();
        for (id, &p) in points.iter().enumerate() {
            h.insert(p, p, id as i64);
            n.insert(p, p, id as i64);
        }
        let (ql, qu) = query;
        prop_assert_eq!(h.intersection(ql, qu), n.intersection(ql, qu));
        prop_assert_eq!(h.stab(stab_at), n.stab(stab_at));
    }

    /// Stabbing queries (the one-partition-per-level fast path),
    /// including points just outside the domain.
    #[test]
    fn stab_matches_naive(
        data in data_strategy(120),
        p in -1500i64..1500,
    ) {
        let (h, n) = build_both(&data);
        prop_assert_eq!(h.stab(p), n.stab(p));
        prop_assert!(h.stab(-2000).is_empty(), "outside the domain");
    }

    /// `intersecting_triples` (the hot tier's admission fetch) returns
    /// exactly the intersecting triples, each once.
    #[test]
    fn intersecting_triples_match_naive(
        data in data_strategy(120),
        query in interval_strategy(),
    ) {
        let (h, n) = build_both(&data);
        let (ql, qu) = query;
        let mut got = h.intersecting_triples(ql, qu);
        got.sort_unstable();
        let mut want: Vec<(i64, i64, i64)> = n
            .triples()
            .iter()
            .copied()
            .filter(|&(l, u, _)| l <= qu && ql <= u)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// The comparison-free property itself: HINT's query cost reports
    /// zero endpoint comparisons and touches exactly one entry per
    /// result, while the oracle pays ~2 comparisons per stored interval.
    #[test]
    fn hint_queries_are_comparison_free(
        data in data_strategy(120),
        query in interval_strategy(),
    ) {
        let (h, n) = build_both(&data);
        let (ql, qu) = query;
        let (ids, cost) = h.intersection_with_cost(ql, qu);
        prop_assert_eq!(cost.comparisons, 0);
        prop_assert_eq!(cost.entries, ids.len() as u64);
        let (nids, ncost) = n.intersection_with_cost(ql, qu);
        prop_assert_eq!(ids, nids);
        prop_assert!(ncost.comparisons >= data.len() as u64);
    }
}
