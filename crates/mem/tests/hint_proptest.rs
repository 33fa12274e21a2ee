//! Property tests: HINT must answer exactly like the naive oracle under
//! arbitrary data, arbitrary queries, boundary-touching queries,
//! duplicate endpoints, point intervals, stabbing, and interleaved
//! deletes — and must do it without a single endpoint comparison.  The
//! same holds for an index over a *sub-domain* filled through the clipped
//! entry point (how the hot tier's blocks use it), against the oracle
//! restricted to that sub-domain.

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
