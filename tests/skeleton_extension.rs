//! The Skeleton Index extension (paper Section 7) must change costs, never
//! answers.

mod common;

use common::sorted;
use ri_tree::core::RiOptions;
use ri_tree::mem::NaiveIntervalSet;
use ri_tree::prelude::*;

fn envs() -> (Arc<Database>, Arc<Database>) {
    let mk = || {
        let pool = Arc::new(BufferPool::with_defaults(MemDisk::new(DEFAULT_PAGE_SIZE)));
        Arc::new(Database::create(pool).unwrap())
    };
    (mk(), mk())
}

/// Clustered data: intervals concentrated in a narrow band of a huge data
/// space, so most backbone nodes on a random query's descent are empty —
/// the situation the skeleton is designed for.
fn clustered_data() -> Vec<(i64, i64)> {
    let mut out = Vec::new();
    let mut x = 0x5EEDu64;
    // One far-away interval expands the space to ~2^30.
    out.push((1 << 30, (1 << 30) + 10));
    for _ in 0..3000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let l = 500_000 + (x % 20_000) as i64;
        out.push((l, l + (x >> 40) as i64 % 200));
    }
    out
}

#[test]
fn skeleton_results_identical_to_plain() {
    let (db_a, db_b) = envs();
    let plain = RiTree::create(db_a, "t").unwrap();
    let skel = RiTree::create_with_options(db_b, "t", RiOptions { skeleton: true }).unwrap();
    let data = clustered_data();
    let mut naive = NaiveIntervalSet::new();
    for (id, &(l, u)) in data.iter().enumerate() {
        plain.insert(Interval::new(l, u).unwrap(), id as i64).unwrap();
        skel.insert(Interval::new(l, u).unwrap(), id as i64).unwrap();
        naive.insert(l, u, id as i64);
    }
    let queries = [
        (0i64, 1_000_000i64),
        (505_000, 505_500),
        (100, 400_000),
        (600_000, 1 << 29),
        ((1 << 30) - 5, (1 << 30) + 100),
        (42, 42),
    ];
    for &(ql, qu) in &queries {
        let want = naive.intersection(ql, qu);
        assert_eq!(sorted(plain.intersection(Interval::new(ql, qu).unwrap()).unwrap()), want);
        assert_eq!(
            sorted(skel.intersection(Interval::new(ql, qu).unwrap()).unwrap()),
            want,
            "skeleton changed results on [{ql}, {qu}]"
        );
    }
}

#[test]
fn skeleton_prunes_empty_node_probes() {
    let (db_a, db_b) = envs();
    let plain = RiTree::create(db_a, "t").unwrap();
    let skel = RiTree::create_with_options(db_b, "t", RiOptions { skeleton: true }).unwrap();
    for (id, &(l, u)) in clustered_data().iter().enumerate() {
        plain.insert(Interval::new(l, u).unwrap(), id as i64).unwrap();
        skel.insert(Interval::new(l, u).unwrap(), id as i64).unwrap();
    }
    // A query far from the data cluster in a deep (2^30) space: the plain
    // tree probes ~2·30 nodes, nearly all empty.
    let q = Interval::new(100_000_000, 100_002_000).unwrap();
    let (_, s_plain) =
        plain.execute_id_plan(&plain.intersection_plan(q, i64::MAX - 2).unwrap()).unwrap();
    let (_, s_skel) =
        skel.execute_id_plan(&skel.intersection_plan(q, i64::MAX - 2).unwrap()).unwrap();
    assert!(
        s_skel.index_searches * 2 <= s_plain.index_searches,
        "skeleton should at least halve probes on sparse paths: {} vs {}",
        s_skel.index_searches,
        s_plain.index_searches
    );
}

#[test]
fn skeleton_survives_delete_and_reopen() {
    let pool = Arc::new(BufferPool::with_defaults(MemDisk::new(DEFAULT_PAGE_SIZE)));
    let db = Arc::new(Database::create(pool).unwrap());
    {
        let tree = RiTree::create_with_options(Arc::clone(&db), "t", RiOptions { skeleton: true })
            .unwrap();
        for i in 0..200i64 {
            tree.insert(Interval::new(i * 100, i * 100 + 50).unwrap(), i).unwrap();
        }
        for i in 0..100i64 {
            assert!(tree.delete(Interval::new(i * 100, i * 100 + 50).unwrap(), i).unwrap());
        }
    }
    let tree = RiTree::open(db, "t").unwrap();
    assert_eq!(tree.count().unwrap(), 100);
    let hits = sorted(tree.intersection(Interval::new(0, 50_000).unwrap()).unwrap());
    assert_eq!(hits, (100..200).collect::<Vec<i64>>());
    // Deleting everything leaves an empty but functional skeleton tree.
    for i in 100..200i64 {
        assert!(tree.delete(Interval::new(i * 100, i * 100 + 50).unwrap(), i).unwrap());
    }
    assert_eq!(
        sorted(tree.intersection(Interval::new(0, 1 << 20).unwrap()).unwrap()),
        Vec::<i64>::new()
    );
}
