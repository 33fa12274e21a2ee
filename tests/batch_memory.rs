//! `RiTree::insert_batch` into an empty tree keeps no copy of its rows:
//! it computes each `(node, lower, upper, id)` row from the caller's items
//! whenever the bulk load walks them, so the batch peaks at the 16 B a row
//! of the packed sort buffer beyond the items, plus the fixed slack of
//! `tests/bulk_memory.rs` (the pool's frames, the builder's page images).
//! A counting global allocator measures the peak, so this binary holds one
//! test and nothing else allocates while it measures.

mod common;

use common::alloc::{measure, Counting};
use common::TempDir;
use ri_tree::prelude::*;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_batch_into_an_empty_tree_holds_sixteen_bytes_a_row_beyond_its_items() {
    const ROWS: usize = 100_000;
    const FRAMES: usize = 64;
    let dir = TempDir::new("batch-memory");
    let disk = FileDisk::open(&dir.file("db"), DEFAULT_PAGE_SIZE).unwrap();
    let pool = Arc::new(BufferPool::new(disk, BufferPoolConfig::with_capacity(FRAMES)));
    let db = Arc::new(Database::create(pool).unwrap());
    let tree = RiTree::create(db, "t").unwrap();
    let items: Vec<(Interval, i64)> = (0..ROWS as i64)
        .map(|id| {
            let lower = id * 7919 % 1_000_000;
            (Interval::new(lower, lower + id % 2000).unwrap(), id)
        })
        .collect();

    let ((), peak) = measure(|| tree.insert_batch(&items, 1).unwrap());
    println!(
        "insert_batch of {ROWS} rows peaked at {peak} heap bytes beyond its items ({:.1} a row)",
        peak as f64 / ROWS as f64
    );

    assert_eq!(tree.count().unwrap(), ROWS as u64);
    // Every frame of the pool, twice over, and the builder's images.
    let slack = 2 * FRAMES * DEFAULT_PAGE_SIZE + 64 * 1024;
    assert!(
        peak <= 16 * ROWS + slack,
        "insert_batch of {ROWS} rows peaked at {peak} heap bytes: more than 16 a row and {slack}"
    );
}
