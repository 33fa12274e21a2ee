//! Size-bounded log segments and the background flusher, end to end on
//! file-backed devices: a database whose WAL rolls over many tiny
//! segments survives close/reopen, checkpoints retire segments without
//! growing the log file forever, and a `FlushPolicy::Background` pool
//! round-trips through `Database::close` (flusher joined, log
//! truncated) with nothing lost.  And a pin on how much log a bulk load
//! produces, since the segment map bounds what a load can log between
//! two checkpoints.

mod common;

use common::{durable_file_pool_with, TempDir};
use ri_tree::pagestore::{FlushPolicy, WalConfig};
use ri_tree::prelude::*;

/// Deterministic interval for row `id`.
fn iv(id: i64) -> Interval {
    let lo = (id * 131) % 60_000;
    Interval::new(lo, lo + 200 + id % 97).unwrap()
}

/// Tiny segments (4 pages = 3 payload pages per segment at the default
/// 2 KB page size) force rollovers on every few inserts; committed work
/// must survive a plain close/reopen across many segment boundaries.
#[test]
fn tiny_segments_survive_reopen_across_many_rollovers() {
    const ROWS: i64 = 300;
    let dir = TempDir::new("wal-seg-reopen");
    let (data, wal) = (dir.file("data"), dir.file("wal"));
    let config = WalConfig { segment_pages: 4, ..WalConfig::default() };
    {
        let pool = durable_file_pool_with(&data, &wal, config);
        let db = Arc::new(Database::create(Arc::clone(&pool)).unwrap());
        let tree = RiTree::create(Arc::clone(&db), "t").unwrap();
        for id in 0..ROWS {
            tree.insert(iv(id), id).unwrap();
            if id % 7 == 0 {
                db.commit().unwrap();
            }
        }
        db.commit().unwrap();
        let s = pool.wal().unwrap().stats();
        assert!(s.segments_created >= 10, "3 KB segments must roll over constantly: {s:?}");
        // No checkpoint before the drop: reopen replays the whole
        // segmented tail.
    }
    let pool = durable_file_pool_with(&data, &wal, config);
    let db = Arc::new(Database::open(Arc::clone(&pool)).unwrap());
    let tree = RiTree::open(Arc::clone(&db), "t").unwrap();
    assert_eq!(tree.count().unwrap(), ROWS as u64, "no committed insert may be lost");
    for id in 0..ROWS {
        assert!(tree.stab(iv(id).lower).unwrap().contains(&id), "row {id} lost");
    }
}

/// Checkpoints retire whole segments and recycle their device slots:
/// under a steady write/checkpoint cadence the log *file* stops
/// growing, instead of accreting one segment per rollover forever.
#[test]
fn checkpoints_bound_the_log_file_size() {
    let dir = TempDir::new("wal-seg-bound");
    let (data, wal) = (dir.file("data"), dir.file("wal"));
    let config = WalConfig { segment_pages: 4, ..WalConfig::default() };
    let pool = durable_file_pool_with(&data, &wal, config);
    let db = Arc::new(Database::create(Arc::clone(&pool)).unwrap());
    let tree = RiTree::create(Arc::clone(&db), "t").unwrap();
    // Warm-up rounds so the slot pool reaches its steady-state size.
    let mut id = 0i64;
    let round = |id: &mut i64| {
        for _ in 0..20 {
            tree.insert(iv(*id), *id).unwrap();
            *id += 1;
        }
        db.commit().unwrap();
        db.checkpoint().unwrap();
    };
    for _ in 0..5 {
        round(&mut id);
    }
    let wal_handle = pool.wal().unwrap();
    let pages_at_steady_state = wal_handle.stats();
    let file_pages = std::fs::metadata(&wal).unwrap().len() / DEFAULT_PAGE_SIZE as u64;
    for _ in 0..10 {
        round(&mut id);
    }
    let s = wal_handle.stats();
    assert!(
        s.segments_retired > pages_at_steady_state.segments_retired,
        "checkpoints must keep retiring segments: {s:?}"
    );
    // Without slot recycling every segment created after the warm-up
    // would be a fresh 4-page carve; with it the file grows at most
    // marginally (the per-round record volume still creeps up as the
    // tree gains pages, so allow a couple of late carves).
    let created = s.segments_created - pages_at_steady_state.segments_created;
    let file_pages_after = std::fs::metadata(&wal).unwrap().len() / DEFAULT_PAGE_SIZE as u64;
    let grown_pages = file_pages_after - file_pages;
    assert!(created >= 10, "ten more rounds must keep rolling over: {s:?}");
    assert!(
        grown_pages <= 2 * 4,
        "recycling must reuse retired slots: {created} segments created after warm-up \
         but the file grew {grown_pages} pages (no-recycling growth would be {})",
        created * 4
    );
    assert_eq!(tree.count().unwrap(), id as u64);
}

/// A `FlushPolicy::Background` database: the flusher drains large
/// transactions ahead of their commits, `Database::close` joins the
/// thread and truncates the log, and a reopen finds everything.
#[test]
fn background_flusher_roundtrips_through_close() {
    const ROWS: i64 = 400;
    let dir = TempDir::new("wal-flusher-close");
    let (data, wal) = (dir.file("data"), dir.file("wal"));
    let config = WalConfig {
        flush_policy: FlushPolicy::Background { watermark_bytes: 1024 },
        ..WalConfig::default()
    };
    {
        let pool = durable_file_pool_with(&data, &wal, config);
        let db = Arc::new(Database::create(Arc::clone(&pool)).unwrap());
        let tree = RiTree::create(Arc::clone(&db), "t").unwrap();
        // Two large transactions: plenty of buffered bytes between
        // commits for the watermark to wake the flusher on.
        for id in 0..ROWS {
            tree.insert(iv(id), id).unwrap();
            if id == ROWS / 2 {
                db.commit().unwrap();
            }
        }
        db.commit().unwrap();
        let s = pool.wal().unwrap().stats();
        assert_eq!(
            s.syncs,
            s.commit_syncs + s.forced_syncs + s.checkpoint_syncs,
            "sync identity must hold with the flusher running: {s:?}"
        );
        db.close().unwrap();
        let s = pool.wal().unwrap().stats();
        assert_eq!(s.checkpoints, 1, "close takes the final checkpoint");
    }
    // Reopen under FlushPolicy::Off: policies interoperate on the same
    // log device (the policy is a pool property, not an on-disk one).
    let pool = durable_file_pool_with(&data, &wal, WalConfig::default());
    let db = Arc::new(Database::open(Arc::clone(&pool)).unwrap());
    let tree = RiTree::open(Arc::clone(&db), "t").unwrap();
    assert_eq!(tree.count().unwrap(), ROWS as u64, "no committed insert may be lost");
    for id in (0..ROWS).step_by(17) {
        assert!(tree.stab(iv(id).lower).unwrap().contains(&id), "row {id} lost");
    }
}

/// A durable bulk load stays far inside the log.  20,000 rows logged
/// 1,294 record bytes per row over 50 segments while update records
/// carried one span each, and 315 over 13 with byte runs, when every
/// packed page and every row's own page write was logged.  Since the
/// build logs only the meta writes that publish its pages it is a few
/// hundred bytes in all (`tests/bulk_load.rs` pins that at a million
/// rows); the bounds below are the byte-run era's.
#[test]
fn bulk_load_log_volume_stays_near_the_bytes_changed() {
    const ROWS: i64 = 20_000;
    let pool = Arc::new(
        BufferPool::new_durable_with(
            MemDisk::new(DEFAULT_PAGE_SIZE),
            BufferPoolConfig::with_capacity(64),
            MemDisk::new(DEFAULT_PAGE_SIZE),
            WalConfig::default(),
        )
        .unwrap(),
    );
    let db = Arc::new(Database::create(Arc::clone(&pool)).unwrap());
    let tree = RiTree::create(Arc::clone(&db), "t").unwrap();
    let items: Vec<(Interval, i64)> = (0..ROWS).map(|id| (iv(id), id)).collect();
    let before = pool.wal().unwrap().stats();
    tree.insert_batch(&items, 1).unwrap();
    db.commit().unwrap();
    let s = pool.wal().unwrap().stats();
    let per_row = (s.record_bytes - before.record_bytes) / ROWS as u64;
    assert!(per_row < 400, "{per_row} log bytes per bulk-loaded row: {s:?}");
    assert!(s.segments_created <= 16, "the load must fit 16 default segments: {s:?}");
    assert_eq!(tree.count().unwrap(), ROWS as u64);
}
