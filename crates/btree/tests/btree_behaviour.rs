//! Behavioural and stress tests for the B+-tree, including comparisons
//! against `std::collections::BTreeSet` as a model.

use ri_btree::{BTree, Entry};
use ri_pagestore::{BufferPool, BufferPoolConfig, FileDisk, MemDisk, PageId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn pool_with(page_size: usize, frames: usize) -> Arc<BufferPool> {
    Arc::new(BufferPool::new(MemDisk::new(page_size), BufferPoolConfig::with_capacity(frames)))
}

#[test]
fn thousand_inserts_then_full_order() {
    let pool = pool_with(2048, 200);
    let tree = BTree::create(Arc::clone(&pool), 2).unwrap();
    // Insert in a scrambled deterministic order.
    let mut keys: Vec<(i64, i64)> = (0..1000).map(|i| ((i * 37) % 100, i)).collect();
    keys.sort_by_key(|&(a, b)| (b * 7919) % 1000 + a);
    for (i, &(a, b)) in keys.iter().enumerate() {
        tree.insert(&[a, b], i as u64).unwrap();
    }
    tree.check_invariants().unwrap();
    let all: Vec<Entry> = tree.scan_all().map(|r| r.unwrap()).collect();
    assert_eq!(all.len(), 1000);
    assert!(all.windows(2).all(|w| w[0] < w[1]), "full scan must be ordered");
}

#[test]
fn duplicates_with_distinct_payloads() {
    let pool = pool_with(512, 50);
    let tree = BTree::create(pool, 1).unwrap();
    for p in 0..300u64 {
        tree.insert(&[42], p).unwrap();
    }
    tree.check_invariants().unwrap();
    let payloads: Vec<u64> = tree.scan_range(&[42], &[42]).map(|r| r.unwrap().payload).collect();
    assert_eq!(payloads, (0..300).collect::<Vec<_>>());
    // Delete a middle duplicate only.
    assert!(tree.delete(&[42], 150).unwrap());
    assert!(!tree.delete(&[42], 150).unwrap());
    assert_eq!(tree.entry_count().unwrap(), 299);
    tree.check_invariants().unwrap();
}

/// An entry is stored at most once: inserting a stored `(key, payload)`
/// returns `false` and writes nothing, across leaf splits too, and the bulk
/// builder refuses an input that repeats an entry.
#[test]
fn an_entry_is_stored_at_most_once() {
    let pool = pool_with(512, 50);
    let tree = BTree::create(Arc::clone(&pool), 1).unwrap();
    for p in 0..300u64 {
        assert!(tree.insert(&[42], p).unwrap());
    }
    let writes = pool.stats().snapshot().logical_writes;
    for p in 0..300u64 {
        assert!(!tree.insert(&[42], p).unwrap(), "payload {p} stored twice");
    }
    assert_eq!(pool.stats().snapshot().logical_writes, writes, "a refused insert writes nothing");
    assert_eq!(tree.entry_count().unwrap(), 300);
    tree.check_invariants().unwrap();
    assert!(tree.delete(&[42], 7).unwrap());
    assert!(tree.insert(&[42], 7).unwrap(), "a deleted entry goes back in");

    let bulk = BTree::create(pool, 1).unwrap();
    let repeated = [Entry::new(&[1], 0), Entry::new(&[1], 1), Entry::new(&[1], 1)];
    assert!(matches!(
        bulk.bulk_build_into(repeated, 1.0),
        Err(ri_pagestore::Error::InvalidArgument(_))
    ));
}

#[test]
fn delete_everything_empties_the_tree() {
    let pool = pool_with(512, 50);
    let tree = BTree::create(pool, 1).unwrap();
    let n = 500i64;
    for i in 0..n {
        tree.insert(&[i], i as u64).unwrap();
    }
    // Delete in an interleaved order to exercise chain unlinking.
    for i in (0..n).step_by(2).chain((0..n).skip(1).step_by(2)) {
        assert!(tree.delete(&[i], i as u64).unwrap(), "delete {i}");
        tree.check_invariants().unwrap();
    }
    assert_eq!(tree.entry_count().unwrap(), 0);
    assert_eq!(tree.scan_all().count(), 0);
    // The tree remains usable after being emptied.
    tree.insert(&[7], 7).unwrap();
    assert!(tree.contains(&[7], 7).unwrap());
    tree.check_invariants().unwrap();
}

#[test]
fn emptied_pages_are_refilled_in_place() {
    let pool = pool_with(512, 50);
    let tree = BTree::create(Arc::clone(&pool), 1).unwrap();
    for i in 0..2000i64 {
        tree.insert(&[i], i as u64).unwrap();
    }
    let pages_full = pool.num_pages();
    for i in 0..2000i64 {
        tree.delete(&[i], i as u64).unwrap();
    }
    for i in 0..2000i64 {
        tree.insert(&[i], i as u64).unwrap();
    }
    tree.check_invariants().unwrap();
    // The B-link tree never frees pages: the drained leaves stay in the
    // tree with their high keys, so refilling the same keys routes back
    // into them and the file must not grow (a couple of extra
    // allocations are tolerated for boundary splits).
    assert!(
        pool.num_pages() <= pages_full + 2,
        "file grew from {pages_full} to {} pages despite in-place refill",
        pool.num_pages()
    );
}

#[test]
fn mirror_btreeset_under_mixed_ops() {
    let pool = pool_with(256, 20); // tiny pages: splits everywhere
    let tree = BTree::create(pool, 2).unwrap();
    let mut model: BTreeSet<(i64, i64, u64)> = BTreeSet::new();
    // Deterministic pseudo-random op stream.
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for step in 0..4000 {
        let a = (next() % 50) as i64;
        let b = (next() % 50) as i64;
        let p = next() % 8;
        if next() % 3 != 0 {
            if model.insert((a, b, p)) {
                tree.insert(&[a, b], p).unwrap();
            }
        } else {
            let existed = model.remove(&(a, b, p));
            assert_eq!(tree.delete(&[a, b], p).unwrap(), existed, "step {step}");
        }
    }
    tree.check_invariants().unwrap();
    let got: Vec<(i64, i64, u64)> = tree
        .scan_all()
        .map(|r| r.unwrap())
        .map(|e| (e.key.col(0), e.key.col(1), e.payload))
        .collect();
    let want: Vec<(i64, i64, u64)> = model.into_iter().collect();
    assert_eq!(got, want);
}

#[test]
fn range_scan_matches_model_on_random_data() {
    let pool = pool_with(256, 20);
    let tree = BTree::create(pool, 1).unwrap();
    let mut model = BTreeSet::new();
    let mut x = 1u64;
    for i in 0..3000u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let k = (x % 1000) as i64;
        tree.insert(&[k], i).unwrap();
        model.insert((k, i));
    }
    for (lo, hi) in [(0, 999), (100, 100), (250, 260), (-5, 3), (990, 2000), (500, 499)] {
        let got: Vec<(i64, u64)> = tree
            .scan_range(&[lo], &[hi])
            .map(|r| r.unwrap())
            .map(|e| (e.key.col(0), e.payload))
            .collect();
        let want: Vec<(i64, u64)> =
            model.iter().copied().filter(|&(k, _)| k >= lo && k <= hi).collect();
        assert_eq!(got, want, "range [{lo}, {hi}]");
    }
}

#[test]
fn bulk_load_equals_incremental_build() {
    let pool = pool_with(512, 64);
    let entries: Vec<(Vec<i64>, u64)> = (0..5000i64).map(|i| (vec![i / 3, i], i as u64)).collect();
    let bulk = BTree::bulk_load(Arc::clone(&pool), 2, entries.iter().cloned(), 0.9).unwrap();
    bulk.check_invariants().unwrap();
    let incr = BTree::create(pool, 2).unwrap();
    for (cols, p) in &entries {
        incr.insert(cols, *p).unwrap();
    }
    let a: Vec<Entry> = bulk.scan_all().map(|r| r.unwrap()).collect();
    let b: Vec<Entry> = incr.scan_all().map(|r| r.unwrap()).collect();
    assert_eq!(a, b);
    assert_eq!(bulk.entry_count().unwrap(), 5000);
}

#[test]
fn bulk_load_rejects_unsorted_input() {
    let pool = pool_with(512, 64);
    let entries = vec![(vec![5i64], 0u64), (vec![3], 1)];
    assert!(BTree::bulk_load(pool, 1, entries, 0.9).is_err());
}

#[test]
fn bulk_load_is_denser_than_incremental() {
    let entries: Vec<(Vec<i64>, u64)> = (0..20000i64).map(|i| (vec![i], i as u64)).collect();
    let pool_a = pool_with(2048, 100);
    let bulk = BTree::bulk_load(Arc::clone(&pool_a), 1, entries.iter().cloned(), 1.0).unwrap();
    let pool_b = pool_with(2048, 100);
    let incr = BTree::create(Arc::clone(&pool_b), 1).unwrap();
    for (cols, p) in &entries {
        incr.insert(cols, *p).unwrap();
    }
    let (bp, ip) = (bulk.stats().unwrap().pages, incr.stats().unwrap().pages);
    assert!(bp < ip, "bulk-loaded tree ({bp} pages) should be denser than incremental ({ip})");
}

#[test]
fn open_existing_tree_from_meta_page() {
    let pool = pool_with(512, 32);
    let meta: PageId;
    {
        let tree = BTree::create(Arc::clone(&pool), 2).unwrap();
        meta = tree.meta_page();
        for i in 0..100i64 {
            tree.insert(&[i, -i], i as u64).unwrap();
        }
    }
    let tree = BTree::open(Arc::clone(&pool), meta).unwrap();
    assert_eq!(tree.arity(), 2);
    assert_eq!(tree.entry_count().unwrap(), 100);
    assert!(tree.contains(&[99, -99], 99).unwrap());
}

#[test]
fn open_rejects_non_meta_page() {
    let pool = pool_with(512, 32);
    let junk = pool.allocate_page().unwrap();
    pool.with_page_mut(junk, |b| b[0] = 0xFF).unwrap();
    assert!(BTree::open(Arc::clone(&pool), junk).is_err());
    // A real meta page whose arity byte rotted: an error, not a tree
    // that panics building its first key.
    let meta = BTree::create(Arc::clone(&pool), 2).unwrap().meta_page();
    for arity in [0u8, 5, 0xFF] {
        pool.with_page_mut(meta, |b| b[4] = arity).unwrap();
        assert!(BTree::open(Arc::clone(&pool), meta).is_err(), "arity {arity}");
    }
}

#[test]
fn persists_across_file_reopen() {
    let dir = std::env::temp_dir().join(format!("ri-btree-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tree.db");
    let _ = std::fs::remove_file(&path);
    let meta: PageId;
    {
        let disk = FileDisk::open(&path, 512).unwrap();
        let pool = Arc::new(BufferPool::new(disk, BufferPoolConfig::with_capacity(16)));
        let tree = BTree::create(Arc::clone(&pool), 1).unwrap();
        meta = tree.meta_page();
        for i in 0..500i64 {
            tree.insert(&[i], i as u64).unwrap();
        }
        pool.flush_all().unwrap();
    }
    let disk = FileDisk::open(&path, 512).unwrap();
    let pool = Arc::new(BufferPool::new(disk, BufferPoolConfig::with_capacity(16)));
    let tree = BTree::open(pool, meta).unwrap();
    assert_eq!(tree.entry_count().unwrap(), 500);
    tree.check_invariants().unwrap();
    let got: Vec<u64> = tree.scan_range(&[100], &[110]).map(|r| r.unwrap().payload).collect();
    assert_eq!(got, (100..=110).collect::<Vec<_>>());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn logarithmic_io_for_point_lookup() {
    // With 200k entries and ~85-entry leaves the tree has height 3; a point
    // lookup from a cold cache must touch only root + internal + leaf (+
    // meta), i.e. far fewer pages than a scan would.
    let pool = pool_with(2048, 400);
    let entries: Vec<(Vec<i64>, u64)> = (0..200_000i64).map(|i| (vec![i], i as u64)).collect();
    let tree = BTree::bulk_load(Arc::clone(&pool), 1, entries, 1.0).unwrap();
    pool.clear_cache().unwrap();
    let before = pool.stats().snapshot();
    assert!(tree.contains(&[123_456], 123_456).unwrap());
    let delta = pool.stats().snapshot().since(&before);
    assert!(
        delta.physical_reads <= 5,
        "point lookup took {} physical reads; expected O(log_b n) ~ 4",
        delta.physical_reads
    );
}

#[test]
fn arity_mismatch_errors() {
    let pool = pool_with(512, 16);
    let tree = BTree::create(pool, 2).unwrap();
    assert!(tree.insert(&[1], 0).is_err());
    assert!(tree.delete(&[1, 2, 3], 0).is_err());
    assert!(tree.contains(&[1], 0).is_err());
}

#[test]
fn extreme_key_values() {
    let pool = pool_with(512, 16);
    let tree = BTree::create(pool, 2).unwrap();
    let keys = [
        [i64::MIN, i64::MIN],
        [i64::MIN, i64::MAX],
        [-1, 0],
        [0, 0],
        [i64::MAX, i64::MIN],
        [i64::MAX, i64::MAX],
    ];
    for (p, k) in keys.iter().enumerate() {
        tree.insert(k, p as u64).unwrap();
    }
    tree.check_invariants().unwrap();
    let all: Vec<Entry> = tree.scan_all().map(|r| r.unwrap()).collect();
    assert_eq!(all.len(), keys.len());
    assert!(all.windows(2).all(|w| w[0] < w[1]));
    for (p, k) in keys.iter().enumerate() {
        assert!(tree.contains(k, p as u64).unwrap());
    }
}

/// A write that does not split is leaf-local: it takes one exclusive latch
/// (its leaf's) and logs one record (its leaf's edit).  The meta page is
/// neither latched nor written — the tree keeps no entry count.
#[test]
fn writes_that_do_not_split_are_leaf_local() {
    let pool = Arc::new(
        BufferPool::new_durable(
            MemDisk::new(2048),
            BufferPoolConfig::with_capacity(64),
            MemDisk::new(2048),
        )
        .unwrap(),
    );
    let tree = BTree::create(Arc::clone(&pool), 1).unwrap();
    // Ascending inserts leave every split leaf half full: room for more.
    for i in 0..1000i64 {
        tree.insert(&[i * 2], i as u64).unwrap();
    }
    pool.wal().unwrap().commit().unwrap();
    let write = |op: &dyn Fn()| {
        let (latches, wal) = (pool.latches().stats(), pool.wal().unwrap().stats());
        op();
        let latched = pool.latches().stats().since(&latches);
        let logged = pool.wal().unwrap().stats().records - wal.records;
        assert_eq!(latched.splits, 0, "the write must not split");
        (latched.page_exclusive, logged)
    };
    let insert = write(&|| assert!(tree.insert(&[1], 1).unwrap()));
    assert_eq!(insert, (1, 1), "insert: (exclusive latches, log records)");
    let delete = write(&|| assert!(tree.delete(&[4], 2).unwrap()));
    assert_eq!(delete, (1, 1), "delete: (exclusive latches, log records)");
    let absent = write(&|| assert!(!tree.delete(&[3], 3).unwrap()));
    assert_eq!(absent, (1, 0), "a delete that finds nothing writes nothing");
    assert_eq!(tree.entry_count().unwrap(), 1000);
    tree.check_invariants().unwrap();
}

/// `entry_count` walks the leaf runs, so it equals the oracle's size after
/// inserts and deletes — deletes that empty whole leaves included: an
/// emptied leaf stays linked (the page count does not move) and counts 0.
#[test]
fn entry_count_matches_an_oracle_across_emptied_leaves() {
    let pool = pool_with(256, 32); // about a dozen entries per leaf
    let tree = BTree::create(pool, 1).unwrap();
    let mut oracle: BTreeMap<i64, u64> = BTreeMap::new();
    let check = |tree: &BTree, oracle: &BTreeMap<i64, u64>| {
        assert_eq!(tree.entry_count().unwrap(), oracle.len() as u64);
        tree.check_invariants().unwrap();
    };
    for k in 0..1500i64 {
        tree.insert(&[k], k as u64).unwrap();
        oracle.insert(k, k as u64);
    }
    check(&tree, &oracle);
    let pages = tree.stats().unwrap().pages;
    // A run of 600 keys spans dozens of whole leaves.
    for k in 300..900i64 {
        assert!(tree.delete(&[k], k as u64).unwrap());
        oracle.remove(&k);
    }
    check(&tree, &oracle);
    assert_eq!(tree.stats().unwrap().pages, pages, "emptied leaves stay in the tree");
    for k in (0..1500i64).step_by(3) {
        assert_eq!(tree.delete(&[k], k as u64).unwrap(), oracle.remove(&k).is_some());
    }
    check(&tree, &oracle);
    // Refill part of the emptied run, then drain everything.
    for k in (301..900i64).step_by(7) {
        tree.insert(&[k], k as u64).unwrap();
        oracle.insert(k, k as u64);
    }
    check(&tree, &oracle);
    for (&k, &p) in &oracle {
        assert!(tree.delete(&[k], p).unwrap());
    }
    oracle.clear();
    check(&tree, &oracle);
}
