//! Stress under pathological buffer-pool configurations: correctness must
//! not depend on the cache being large enough.

mod common;

use common::sorted;
use ri_tree::baselines::{Ist, IstOrder, TileIndex};
use ri_tree::mem::NaiveIntervalSet;
use ri_tree::pagestore::{BufferPool, BufferPoolConfig};
use ri_tree::prelude::*;

fn env(frames: usize) -> Arc<Database> {
    let pool = Arc::new(BufferPool::new(
        MemDisk::new(DEFAULT_PAGE_SIZE),
        BufferPoolConfig::with_capacity(frames),
    ));
    Arc::new(Database::create(pool).unwrap())
}

#[test]
fn single_frame_pool_ritree() {
    let db = env(1); // every access evicts
    let tree = RiTree::create(db, "t").unwrap();
    let mut naive = NaiveIntervalSet::new();
    let mut x = 0xACDCu64;
    for id in 0..800i64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let l = (x % 20_000) as i64;
        let len = ((x >> 33) % 900) as i64;
        tree.insert(Interval::new(l, l + len).unwrap(), id).unwrap();
        naive.insert(l, l + len, id);
    }
    for q in [(0, 25_000), (5000, 5100), (12_345, 12_345)] {
        assert_eq!(
            sorted(tree.intersection(Interval::new(q.0, q.1).unwrap()).unwrap()),
            naive.intersection(q.0, q.1)
        );
    }
}

#[test]
fn four_frame_pool_mixed_updates() {
    let db = env(4);
    let tree = RiTree::create(db, "t").unwrap();
    let mut naive = NaiveIntervalSet::new();
    let mut x = 0xBEEF5u64;
    for step in 0..1500i64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let l = (x % 10_000) as i64;
        let len = ((x >> 40) % 300) as i64;
        if x.is_multiple_of(4) && !naive.is_empty() {
            // Delete a known interval.
            let victims = naive.triples().to_vec();
            let (dl, du, did) = victims[(x >> 20) as usize % victims.len()];
            assert!(tree.delete(Interval::new(dl, du).unwrap(), did).unwrap(), "step {step}");
            naive.delete(dl, du, did);
        } else {
            tree.insert(Interval::new(l, l + len).unwrap(), step).unwrap();
            naive.insert(l, l + len, step);
        }
    }
    assert_eq!(tree.count().unwrap(), naive.len() as u64);
    for q in [(0, 11_000), (2500, 2600), (9999, 9999)] {
        assert_eq!(
            sorted(tree.intersection(Interval::new(q.0, q.1).unwrap()).unwrap()),
            naive.intersection(q.0, q.1),
            "query {q:?}"
        );
    }
}

#[test]
fn small_pool_baselines_agree() {
    let data: Vec<(i64, i64)> = (0..600)
        .map(|i| {
            let l = (i * 131) % 30_000;
            (l, l + (i * 7) % 2000)
        })
        .collect();
    let naive = NaiveIntervalSet::from_triples(
        data.iter().enumerate().map(|(id, &(l, u))| (l, u, id as i64)),
    );
    let ti = TileIndex::build_bulk(env(3), "x", 8, &data).unwrap();
    let ist = Ist::build_bulk(env(3), "x", IstOrder::D, &data).unwrap();
    for q in [(0, 35_000), (15_000, 15_500), (29_000, 40_000)] {
        assert_eq!(ti.am_intersection(q.0, q.1).unwrap(), naive.intersection(q.0, q.1));
        assert_eq!(ist.am_intersection(q.0, q.1).unwrap(), naive.intersection(q.0, q.1));
    }
}

#[test]
fn cache_size_changes_io_but_not_results() {
    let data: Vec<(i64, i64)> =
        (0..3000).map(|i| (i * 17 % 50_000, i * 17 % 50_000 + 800)).collect();
    let mut io_by_cache = Vec::new();
    let mut results = Vec::new();
    for frames in [4, 40, 400] {
        let pool = Arc::new(BufferPool::new(
            MemDisk::new(DEFAULT_PAGE_SIZE),
            BufferPoolConfig::with_capacity(frames),
        ));
        let db = Arc::new(Database::create(Arc::clone(&pool)).unwrap());
        let tree = RiTree::create(db, "t").unwrap();
        for (id, &(l, u)) in data.iter().enumerate() {
            tree.insert(Interval::new(l, u).unwrap(), id as i64).unwrap();
        }
        pool.clear_cache().unwrap();
        let before = pool.stats().snapshot();
        let mut total = 0;
        for q in (0..50_000).step_by(5000) {
            total += tree.intersection(Interval::new(q, q + 200).unwrap()).unwrap().len();
        }
        io_by_cache.push(pool.stats().snapshot().since(&before).physical_reads);
        results.push(total);
    }
    assert!(results.windows(2).all(|w| w[0] == w[1]), "results vary with cache size");
    assert!(
        io_by_cache[0] >= io_by_cache[2],
        "smaller cache should not do fewer reads: {io_by_cache:?}"
    );
}
