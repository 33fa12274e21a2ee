//! Full-stack persistence: an RI-tree database on a file-backed pool
//! survives close/reopen, including the backbone parameter dictionary
//! and — with a WAL attached — committed work that was never
//! checkpointed.

mod common;

use common::crash::{Op, Oracle, Rig};
use common::TempDir;
use ri_tree::pagestore::{CrashPlan, WalConfig};
use ri_tree::prelude::*;

#[test]
fn ritree_survives_reopen() {
    let dir = TempDir::new("reopen");
    let path = dir.file("db");
    let expected_params;
    {
        let disk = FileDisk::open(&path, DEFAULT_PAGE_SIZE).unwrap();
        let pool = Arc::new(BufferPool::with_defaults(disk));
        let db = Arc::new(Database::create(Arc::clone(&pool)).unwrap());
        let tree = RiTree::create(Arc::clone(&db), "t").unwrap();
        for i in 0..2000i64 {
            let l = (i * 37) % 100_000;
            tree.insert(Interval::new(l, l + (i % 500)).unwrap(), i).unwrap();
        }
        tree.insert_open(99_000, OpenEnd::Infinity, 777_777).unwrap();
        expected_params = tree.load_params().unwrap();
        db.checkpoint().unwrap();
    } // everything dropped: the only durable state is the file

    let disk = FileDisk::open(&path, DEFAULT_PAGE_SIZE).unwrap();
    let pool = Arc::new(BufferPool::with_defaults(disk));
    let db = Arc::new(Database::open(pool).unwrap());
    let tree = RiTree::open(Arc::clone(&db), "t").unwrap();

    assert_eq!(tree.count().unwrap(), 2001);
    assert_eq!(tree.load_params().unwrap(), expected_params, "dictionary must persist");

    // Queries behave identically after reopen.
    let hits = tree.intersection(Interval::new(50_000, 50_100).unwrap()).unwrap();
    assert!(!hits.is_empty());
    // The open-ended interval still answers far-future queries.
    assert!(tree
        .intersection(Interval::new(10_000_000, 10_000_001).unwrap())
        .unwrap()
        .contains(&777_777));

    // And the tree is still writable.
    tree.insert(Interval::new(1, 2).unwrap(), 999_999).unwrap();
    assert!(tree.stab(1).unwrap().contains(&999_999));
    db.checkpoint().unwrap();
}

#[test]
fn unflushed_changes_are_lost_but_db_stays_consistent() {
    let dir = TempDir::new("crash");
    let path = dir.file("db");
    {
        let disk = FileDisk::open(&path, DEFAULT_PAGE_SIZE).unwrap();
        let pool = Arc::new(BufferPool::with_defaults(disk));
        let db = Arc::new(Database::create(Arc::clone(&pool)).unwrap());
        let tree = RiTree::create(db, "t").unwrap();
        for i in 0..500i64 {
            tree.insert(Interval::new(i, i + 10).unwrap(), i).unwrap();
        }
        // BufferPool::drop flushes best-effort; emulate the checkpointed
        // state explicitly for determinism.
        tree.db().checkpoint().unwrap();
    }
    let disk = FileDisk::open(&path, DEFAULT_PAGE_SIZE).unwrap();
    let pool = Arc::new(BufferPool::with_defaults(disk));
    let db = Arc::new(Database::open(pool).unwrap());
    let tree = RiTree::open(db, "t").unwrap();
    assert_eq!(tree.count().unwrap(), 500);
    // Structure passes the engine's own consistency checks: all 500 rows
    // reachable via queries.
    assert_eq!(tree.intersection(Interval::new(0, 1000).unwrap()).unwrap().len(), 500);
}

/// The WAL counterpart of `unflushed_changes_are_lost...`: with a log
/// device attached, committed-but-never-checkpointed work *survives* an
/// abrupt stop.  The writing process dies mid-flight (simulated power
/// cut, unsynced device writes discarded), and reopening the two files
/// replays the WAL tail.
#[test]
fn reopen_without_checkpoint_recovers_from_wal_tail() {
    let rig = Rig::files("waltail");
    // Armed with no scheduled crash point: device writes stay in the
    // volatile cache until a sync destages them, like a real disk's
    // write cache.  The explicit crash below drops whatever was not yet
    // synced.
    rig.arm(CrashPlan::default());
    let tree = rig.create(WalConfig::default()).unwrap();
    let rows: Vec<Op> = (0..300i64)
        .map(|i| {
            let l = (i * 53) % 80_000;
            Op::Insert(i, Interval::new(l, l + 100 + i % 40).unwrap())
        })
        .collect();
    // One transaction; NO checkpoint: the data file never sees the
    // committed pages.
    let mut oracle = Oracle::default();
    oracle.run_txn(&tree, &rows).unwrap();
    rig.crash_now();
    drop(tree);

    oracle.verify(&rig.reopen().unwrap(), "replayed WAL tail");
    // Recovery checkpointed; a plain second reopen sees the same state.
    let tree = rig.reopen().unwrap();
    oracle.verify(&tree, "second reopen");
    // And it is still writable + durable going forward.
    tree.insert(Interval::new(5, 6).unwrap(), 999_999).unwrap();
    tree.db().commit().unwrap();
}
