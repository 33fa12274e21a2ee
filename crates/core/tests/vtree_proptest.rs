//! Property tests for the virtual backbone arithmetic, checked against
//! brute-force enumeration of registered fork nodes, against Figure 6's
//! descent loop, and through the RI-tree: a batch stores the nodes
//! sequential inserts store, and an interval outside the backbone's span
//! is refused.

use proptest::prelude::*;
use ri_pagestore::{BufferPool, BufferPoolConfig, Error, MemDisk, DEFAULT_PAGE_SIZE};
use ri_relstore::Database;
use ritree_core::{BackboneParams, Interval, RiTree};
use std::sync::Arc;

/// An answer in ascending id order, to compare with an ordered
/// expectation: queries return plan order.
fn sorted(mut ids: Vec<i64>) -> Vec<i64> {
    ri_mem::sort::sort_ids(&mut ids);
    ids
}

fn interval_strategy() -> impl Strategy<Value = (i64, i64)> {
    // Mix of magnitudes, including negatives and points.
    (-100_000i64..100_000, 0i64..50_000).prop_map(|(l, len)| (l, l + len))
}

/// Figure 6's fork search, verbatim: the descent from the root on the
/// interval's side of 0 (shifted coordinates).  Returns the fork node and
/// the `minstep2` candidate — `2·step` at the break, 1 at a leaf, and
/// `i64::MAX` at the global root, which never updates minstep.  The
/// reference [`BackboneParams`]' closed form must equal.
fn fork_fig6(left_root: i64, right_root: i64, l: i64, u: i64) -> (i64, i64) {
    let mut node = if u < 0 {
        left_root
    } else if 0 < l {
        right_root
    } else {
        return (0, i64::MAX);
    };
    let mut step = (node / 2).abs();
    while step >= 1 {
        if u < node {
            node -= step;
        } else if node < l {
            node += step;
        } else {
            return (node, 2 * step);
        }
        step /= 2;
    }
    (node, 1)
}

/// Parameters with the offset at 0 and the given roots, nothing
/// registered yet (`minstep2` at infinity).
fn params(left_root: i64, right_root: i64) -> BackboneParams {
    BackboneParams { offset: Some(0), left_root, right_root, minstep2: i64::MAX }
}

/// Checks the closed form against [`fork_fig6`] for `[l, u]` under the
/// roots of `p`: `fork_of` for any interval, including one past the roots
/// (what a delete probes with), and `prepare_insert`'s node and `minstep2`
/// against the loop on the roots it expanded to, when the backbone admits
/// the interval.
fn check_against_fig6(p: BackboneParams, l: i64, u: i64) {
    let (node, _) = fork_fig6(p.left_root, p.right_root, l, u);
    assert_eq!(p.fork_of(l, u), Some(node), "fork_of [{l}, {u}] under {p:?}");
    if p.admits(l, u) {
        let mut q = p;
        let stored = q.prepare_insert(l, u);
        let (node, candidate) = fork_fig6(q.left_root, q.right_root, l, u);
        assert_eq!(stored, node, "prepare_insert [{l}, {u}] from {p:?}");
        assert_eq!(q.minstep2, candidate, "minstep2 of [{l}, {u}] from {p:?}");
    }
}

/// A root as Figure 6 leaves it: 0, or `±2^k` with `k < 62`.
fn root_strategy() -> impl Strategy<Value = i64> {
    prop_oneof![1 => 0i64..1, 4 => (0u32..62).prop_map(|k| 1i64 << k)]
}

/// A bound near a power of two of any magnitude, or anywhere in `i64`.
fn bound_strategy() -> impl Strategy<Value = i64> {
    prop_oneof![
        3 => (0u32..63, -3i64..4, any::<bool>()).prop_map(|(k, d, neg)| {
            let b = (1i64 << k).saturating_add(d);
            if neg { -b } else { b }
        }),
        1 => -300i64..300,
        1 => any::<i64>(),
    ]
}

fn fresh_tree() -> RiTree {
    let pool = Arc::new(BufferPool::new(
        MemDisk::new(DEFAULT_PAGE_SIZE),
        BufferPoolConfig::with_capacity(200),
    ));
    RiTree::create(Arc::new(Database::create(pool).unwrap()), "t").unwrap()
}

/// The node column of the tree's rows, by id, off `lowerIndex`'s
/// entries `(node, lower, id) → upper`.
fn nodes_by_id(tree: &RiTree) -> Vec<(i64, i64)> {
    let table = tree.db().table(tree.table_name()).unwrap();
    let lower = table.index(&format!("{}_LOWER", tree.table_name())).unwrap();
    let mut nodes: Vec<(i64, i64)> = lower
        .scan_all()
        .map(|e| e.map(|e| (e.key.col(2), e.key.col(0))))
        .collect::<ri_pagestore::Result<_>>()
        .unwrap();
    nodes.sort_unstable();
    nodes
}

/// Every root pair up to `2^7` on both sides, every interval whose bounds
/// lie in `[-300, 300)` — inside the roots, straddling 0 and past them.
#[test]
fn closed_form_fork_equals_fig6_exhaustively_for_small_roots() {
    let roots = || std::iter::once(0).chain((0..=7).map(|k| 1i64 << k));
    for left in roots() {
        for right in roots() {
            let p = params(-left, right);
            for l in -300i64..300 {
                for u in l..300 {
                    check_against_fig6(p, l, u);
                }
            }
        }
    }
}

/// The backbone's span, pinned at its edges (module docs of `vtree`):
/// with the offset at 0, a bound on one root's side is accepted at
/// `±(2^62 − 1)` and refused at `±2^62`; an interval containing the
/// origin needs only its shift to fit.
#[test]
fn admits_pins_the_span_edges() {
    const S: i64 = 1 << 62;
    let p = params(0, 0);
    assert!(p.admits(S - 4, S - 1));
    assert!(!p.admits(S - 4, S));
    assert!(p.admits(-S + 1, -S + 4));
    assert!(!p.admits(-S, -S + 4));
    assert!(p.admits(i64::MIN, i64::MAX));
    // No offset yet: the interval fixes it, so its lower bound shifts to
    // 0, and its upper bound must still fit.
    let empty = BackboneParams::new();
    assert!(empty.admits(i64::MIN, i64::MIN + 3));
    assert!(empty.admits(i64::MIN, -1));
    assert!(!empty.admits(i64::MIN, 0));
    // A shift that overflows is refused on either side.
    let high = BackboneParams { offset: Some(S), ..BackboneParams::new() };
    assert!(!high.admits(i64::MIN + 1, i64::MIN + 5));
    assert_eq!(high.fork_of(i64::MIN + 1, i64::MIN + 5), None);
    let low = BackboneParams { offset: Some(-S), ..BackboneParams::new() };
    assert!(!low.admits(i64::MAX - 20, i64::MAX - 10));
    assert_eq!(low.fork_of(i64::MAX - 20, i64::MAX - 10), None);
}

/// The three probes that a wrapped shift or an overflowing root expansion
/// once filed under a node no query visits (or that panicked in a debug
/// build): each is refused by `insert` and by `insert_batch` — into an
/// empty tree and into a loaded one — with nothing written, and a delete
/// of it finds nothing.
#[test]
fn intervals_outside_the_backbone_span_are_refused() {
    const S: i64 = 1 << 62;
    let iv = |l, u| Interval::new(l, u).unwrap();
    let probes = [
        (iv(S, S + 10), iv(i64::MIN + 1, i64::MIN + 5)),
        (iv(-S, -S + 10), iv(i64::MAX - 20, i64::MAX - 10)),
        (iv(0, 0), iv(i64::MIN, i64::MIN + 3)),
    ];
    let everything = iv(i64::MIN, i64::MAX - 2);
    for (first, probe) in probes {
        let refused = |r: ritree_core::Result<()>| {
            assert!(matches!(r, Err(Error::InvalidArgument(_))), "{probe} after {first}: {r:?}");
        };
        // A batch into an empty tree whose first item fixes the offset.
        let tree = fresh_tree();
        refused(tree.insert_batch(&[(first, 1), (probe, 2)], 1));
        assert_eq!(tree.count().unwrap(), 0);
        assert_eq!(tree.load_params().unwrap(), BackboneParams::new());

        tree.insert(first, 1).unwrap();
        let loaded = tree.load_params().unwrap();
        refused(tree.insert(probe, 2));
        refused(tree.insert_batch(&[(first, 3), (probe, 2)], 1));
        assert_eq!(tree.count().unwrap(), 1);
        assert_eq!(tree.load_params().unwrap(), loaded);
        assert!(!tree.delete(probe, 2).unwrap());
        assert_eq!(sorted(tree.stab(probe.lower).unwrap()), Vec::<i64>::new());
        assert_eq!(sorted(tree.intersection(everything).unwrap()), vec![1]);
    }
}

/// Just inside the span's edges everything is stored and answered, one
/// insert at a time and as one batch.
#[test]
fn intervals_just_inside_the_span_are_answered() {
    const S: i64 = 1 << 62;
    let iv = |l, u| Interval::new(l, u).unwrap();
    let items = [
        (iv(0, 0), 0),
        (iv(S - 4, S - 1), 1),
        (iv(-S + 1, -S + 4), 2),
        (iv(i64::MIN, i64::MAX - 2), 3),
    ];
    let sequential = fresh_tree();
    for &(v, id) in &items {
        sequential.insert(v, id).unwrap();
    }
    let batch = fresh_tree();
    batch.insert_batch(&items, 1).unwrap();
    for tree in [&sequential, &batch] {
        assert_eq!(sorted(tree.stab(S - 2).unwrap()), vec![1, 3]);
        assert_eq!(sorted(tree.stab(-S + 2).unwrap()), vec![2, 3]);
        assert_eq!(sorted(tree.stab(0).unwrap()), vec![0, 3]);
        assert_eq!(sorted(tree.stab(i64::MIN).unwrap()), vec![3]);
        assert_eq!(
            sorted(tree.intersection(iv(i64::MIN, i64::MAX - 2)).unwrap()),
            vec![0, 1, 2, 3]
        );
        for &(v, id) in &items {
            assert!(tree.delete(v, id).unwrap(), "{v}");
        }
        assert_eq!(tree.count().unwrap(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The fork node always lies inside its interval (shifted space), and
    /// recomputing it after arbitrary later insertions yields the same
    /// node — the property deletion depends on (Section 3.4).
    #[test]
    fn forks_are_inside_and_stable(data in prop::collection::vec(interval_strategy(), 1..120)) {
        let mut p = BackboneParams::new();
        let mut forks = Vec::new();
        for &(l, u) in &data {
            forks.push(p.prepare_insert(l, u));
        }
        let offset = p.offset.unwrap();
        for (i, &(l, u)) in data.iter().enumerate() {
            let w = forks[i];
            prop_assert!(l - offset <= w && w <= u - offset,
                "fork {w} outside shifted [{}, {}]", l - offset, u - offset);
            prop_assert_eq!(p.fork_of(l, u), Some(w), "fork moved after expansion");
        }
    }

    /// Query traversal soundness: for every stored interval intersecting
    /// the query, its fork node is either covered by the query's node range
    /// or appears in the transient left/right lists — i.e. the generated
    /// scans cannot miss results.
    #[test]
    fn traversal_covers_all_intersecting_forks(
        data in prop::collection::vec(interval_strategy(), 1..120),
        query in interval_strategy(),
    ) {
        let mut p = BackboneParams::new();
        let mut forks = Vec::new();
        for &(l, u) in &data {
            forks.push(p.prepare_insert(l, u));
        }
        let (ql, qu) = query;
        let nodes = p.query_nodes(ql, qu);
        let offset = p.offset.unwrap();
        let (l, u) = (ql - offset, qu - offset);
        for (i, &(dl, du)) in data.iter().enumerate() {
            if dl <= qu && ql <= du {
                let w = forks[i];
                let covered = nodes.left.iter().any(|&(a, b)| a <= w && w <= b);
                let in_right = nodes.right.contains(&w);
                prop_assert!(covered || in_right,
                    "intersecting interval [{dl}, {du}] fork {w} not reachable \
                     (query [{l}, {u}] shifted, lists {nodes:?})");
                // And the corresponding scan condition actually finds it:
                // left scans test upper >= ql, right scans test lower <= qu.
                if in_right && !covered {
                    prop_assert!(dl <= qu);
                } else {
                    prop_assert!(du >= ql);
                }
            }
        }
    }

    /// Traversal parsimony: side nodes are strictly outside the query range
    /// and there are at most O(height) of them.
    #[test]
    fn traversal_lists_are_small_and_strict(
        data in prop::collection::vec(interval_strategy(), 1..120),
        query in interval_strategy(),
    ) {
        let mut p = BackboneParams::new();
        for &(l, u) in &data {
            p.prepare_insert(l, u);
        }
        let (ql, qu) = query;
        let nodes = p.query_nodes(ql, qu);
        let offset = p.offset.unwrap();
        let (l, u) = (ql - offset, qu - offset);
        let h = p.height() as usize;
        prop_assert!(nodes.left.len() + nodes.right.len() <= 2 * h + 4,
            "lists too long: {} + {} for height {h}",
            nodes.left.len(), nodes.right.len());
        for &(a, b) in &nodes.left[..nodes.left.len() - 1] {
            prop_assert_eq!(a, b);
            prop_assert!(a < l);
        }
        for &w in &nodes.right {
            prop_assert!(w > u);
        }
        // The BETWEEN pair is exactly the shifted query range.
        prop_assert_eq!(*nodes.left.last().unwrap(), (l, u));
    }

    /// The Figure 4 static fork procedure agrees with the dynamic search
    /// whenever the static tree is big enough to contain the interval.
    #[test]
    fn fig4_agrees_with_dynamic_on_positive_space(
        pairs in prop::collection::vec((1i64..(1 << 16), 0i64..1000), 1..60),
    ) {
        let mut p = BackboneParams::new();
        // Anchor the offset at 0 and the space beyond 2^16 so the dynamic
        // right subtree matches a static tree rooted at 2^16.
        p.prepare_insert(0, 0);
        p.prepare_insert(1 << 16, 1 << 16);
        for &(l, len) in &pairs {
            let u = (l + len).min((1 << 17) - 1);
            let stat = ritree_core::fork_node_fig4(1 << 16, l, u);
            let dyn_fork = p.fork_of(l, u).unwrap();
            prop_assert_eq!(stat, dyn_fork, "interval [{}, {}]", l, u);
        }
    }

    /// The closed-form fork equals Figure 6's loop for arbitrary roots on
    /// both sides (0 included) and intervals inside the roots, straddling
    /// 0 and past the roots — node and `minstep2` candidate alike.
    #[test]
    fn closed_form_fork_equals_fig6(
        left in root_strategy(),
        right in root_strategy(),
        bounds in prop::collection::vec((bound_strategy(), bound_strategy()), 1..64),
    ) {
        let p = params(-left, right);
        for (a, b) in bounds {
            check_against_fig6(p, a.min(b), a.max(b));
        }
    }

    /// A batch into an empty tree stores, row for row, the node column
    /// that sequential inserts of the same items store.
    #[test]
    fn insert_batch_stores_the_nodes_sequential_inserts_store(
        data in prop::collection::vec(interval_strategy(), 1..200),
    ) {
        let items: Vec<(Interval, i64)> =
            (0..).zip(&data).map(|(id, &(l, u))| (Interval::new(l, u).unwrap(), id)).collect();
        let sequential = fresh_tree();
        for &(iv, id) in &items {
            sequential.insert(iv, id).unwrap();
        }
        let batch = fresh_tree();
        batch.insert_batch(&items, 1).unwrap();
        prop_assert_eq!(nodes_by_id(&batch), nodes_by_id(&sequential));
    }
}
