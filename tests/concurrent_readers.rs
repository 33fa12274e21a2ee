//! Concurrent read scalability: the buffer pool and B+-trees are fully
//! thread-safe for readers, so a loaded RI-tree can serve intersection
//! queries from many threads at once (writers are serialized by the
//! application, as in the paper's host-DBMS setting).

mod common;

use common::sorted;
use crossbeam::thread;
use ri_tree::mem::NaiveIntervalSet;
use ri_tree::prelude::*;

#[test]
fn parallel_readers_get_identical_answers() {
    let pool = Arc::new(BufferPool::with_defaults(MemDisk::new(DEFAULT_PAGE_SIZE)));
    let db = Arc::new(Database::create(pool).unwrap());
    let tree = Arc::new(RiTree::create(Arc::clone(&db), "t").unwrap());
    let mut naive = NaiveIntervalSet::new();
    let mut x = 0xC0FFEEu64;
    for id in 0..5000i64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let l = (x % 500_000) as i64;
        let len = ((x >> 36) % 2000) as i64;
        tree.insert(Interval::new(l, l + len).unwrap(), id).unwrap();
        naive.insert(l, l + len, id);
    }
    let queries: Vec<(i64, i64)> = (0..40).map(|i| (i * 12_000, i * 12_000 + 4000)).collect();
    let expected: Vec<Vec<i64>> =
        queries.iter().map(|&(ql, qu)| naive.intersection(ql, qu)).collect();

    thread::scope(|s| {
        for t in 0..4 {
            let tree = Arc::clone(&tree);
            let queries = &queries;
            let expected = &expected;
            s.spawn(move |_| {
                for round in 0..5 {
                    for (i, &(ql, qu)) in queries.iter().enumerate() {
                        let got =
                            sorted(tree.intersection(Interval::new(ql, qu).unwrap()).unwrap());
                        assert_eq!(
                            got, expected[i],
                            "thread {t}, round {round}, query {i} diverged"
                        );
                    }
                }
            });
        }
    })
    .unwrap();
}

#[test]
fn readers_race_against_cache_pressure() {
    // A pool far smaller than the working set: readers constantly evict
    // each other's pages; answers must stay exact.
    let pool = Arc::new(BufferPool::new(
        MemDisk::new(DEFAULT_PAGE_SIZE),
        ri_tree::pagestore::BufferPoolConfig::with_capacity(8),
    ));
    let db = Arc::new(Database::create(pool).unwrap());
    let tree = Arc::new(RiTree::create(db, "t").unwrap());
    for id in 0..3000i64 {
        tree.insert(Interval::new(id * 7, id * 7 + 100).unwrap(), id).unwrap();
    }
    let expected = tree.intersection(Interval::new(10_000, 10_400).unwrap()).unwrap();
    assert!(!expected.is_empty());
    thread::scope(|s| {
        for _ in 0..6 {
            let tree = Arc::clone(&tree);
            let expected = expected.clone();
            s.spawn(move |_| {
                for _ in 0..50 {
                    let got = tree.intersection(Interval::new(10_000, 10_400).unwrap()).unwrap();
                    assert_eq!(got, expected);
                }
            });
        }
    })
    .unwrap();
}
