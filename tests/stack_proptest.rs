//! Property tests across the whole stack: the RI-tree (and its Allen
//! queries) must agree with the naive oracle for arbitrary data and
//! queries, including after interleaved deletions.

mod common;

use common::sorted;
use proptest::prelude::*;
use ri_tree::mem::NaiveIntervalSet;
use ri_tree::pagestore::{BufferPool, BufferPoolConfig};
use ri_tree::prelude::*;

fn tree_env(frames: usize) -> RiTree {
    let pool = Arc::new(BufferPool::new(
        MemDisk::new(DEFAULT_PAGE_SIZE),
        BufferPoolConfig::with_capacity(frames),
    ));
    let db = Arc::new(Database::create(pool).unwrap());
    RiTree::create(db, "p").unwrap()
}

fn interval_strategy() -> impl Strategy<Value = (i64, i64)> {
    (-2000i64..2000, 0i64..500).prop_map(|(l, len)| (l, l + len))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn intersection_matches_oracle(
        data in prop::collection::vec(interval_strategy(), 0..200),
        queries in prop::collection::vec(interval_strategy(), 1..20),
    ) {
        let tree = tree_env(16);
        let mut naive = NaiveIntervalSet::new();
        for (id, &(l, u)) in data.iter().enumerate() {
            tree.insert(Interval::new(l, u).unwrap(), id as i64).unwrap();
            naive.insert(l, u, id as i64);
        }
        for &(ql, qu) in &queries {
            let got = sorted(tree.intersection(Interval::new(ql, qu).unwrap()).unwrap());
            prop_assert_eq!(got, naive.intersection(ql, qu));
        }
    }

    #[test]
    fn deletions_keep_agreement(
        data in prop::collection::vec(interval_strategy(), 1..150),
        delete_mask in prop::collection::vec(any::<bool>(), 1..150),
        query in interval_strategy(),
    ) {
        let tree = tree_env(16);
        let mut naive = NaiveIntervalSet::new();
        for (id, &(l, u)) in data.iter().enumerate() {
            tree.insert(Interval::new(l, u).unwrap(), id as i64).unwrap();
            naive.insert(l, u, id as i64);
        }
        for (id, &(l, u)) in data.iter().enumerate() {
            if *delete_mask.get(id).unwrap_or(&false) {
                prop_assert!(tree.delete(Interval::new(l, u).unwrap(), id as i64).unwrap());
                naive.delete(l, u, id as i64);
            }
        }
        let (ql, qu) = query;
        let got = sorted(tree.intersection(Interval::new(ql, qu).unwrap()).unwrap());
        prop_assert_eq!(got, naive.intersection(ql, qu));
        prop_assert_eq!(tree.count().unwrap(), naive.len() as u64);
    }

    #[test]
    fn allen_relations_match_oracle(
        data in prop::collection::vec(interval_strategy(), 0..120),
        query in interval_strategy(),
    ) {
        let tree = tree_env(32);
        let mut naive = NaiveIntervalSet::new();
        for (id, &(l, u)) in data.iter().enumerate() {
            tree.insert(Interval::new(l, u).unwrap(), id as i64).unwrap();
            naive.insert(l, u, id as i64);
        }
        let q = Interval::new(query.0, query.1).unwrap();
        for rel in AllenRelation::ALL {
            let got = tree.allen(rel, q).unwrap();
            let want = naive.filter(|l, u| rel.matches(&Interval::new(l, u).unwrap(), &q));
            prop_assert_eq!(got, want, "{:?} on {}", rel, q);
        }
    }

    #[test]
    fn fork_level_lemma_via_public_api(
        data in prop::collection::vec(interval_strategy(), 1..100),
    ) {
        // Section 3.4 Lemma, checked through the stored rows: every
        // interval's fork node w satisfies l <= w + offset <= u.
        let tree = tree_env(32);
        for (id, &(l, u)) in data.iter().enumerate() {
            tree.insert(Interval::new(l, u).unwrap(), id as i64).unwrap();
        }
        let p = tree.load_params().unwrap();
        let offset = p.offset.unwrap();
        for &(l, u) in &data {
            let w = p.fork_of(l, u).unwrap();
            prop_assert!(l <= w + offset && w + offset <= u,
                "fork {} outside [{}, {}]", w + offset, l, u);
        }
    }
}
