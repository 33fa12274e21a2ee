//! A bulk load sorts each index as 16-byte packed keys: loading an empty
//! covered table peaks at 16 heap bytes a row beyond its input rows, plus
//! a fixed slack (the pool's frames, the builder's page images).  The
//! pages it builds go to a file, so they hold no heap.  A counting global
//! allocator measures the peak, so this binary holds one test and nothing
//! else allocates while it measures.

mod common;

use common::alloc::{measure, Counting};
use common::TempDir;
use ri_tree::pagestore::{BufferPool, BufferPoolConfig, FileDisk, DEFAULT_PAGE_SIZE};
use ri_tree::relstore::{Database, IndexDef, TableDef};
use std::sync::Arc;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_bulk_load_holds_sixteen_bytes_a_row_beyond_its_rows() {
    const ROWS: usize = 100_000;
    const FRAMES: usize = 64;
    let dir = TempDir::new("bulk-memory");
    let disk = FileDisk::open(&dir.file("db"), DEFAULT_PAGE_SIZE).unwrap();
    let pool = Arc::new(BufferPool::new(disk, BufferPoolConfig::with_capacity(FRAMES)));
    let db = Database::create(pool).unwrap();
    // The RI-tree's table: `lowerIndex (node, lower, id) → upper` and
    // `upperIndex (node, upper, id) → lower` cover it.
    let columns = ["node", "lower", "upper", "id"].map(String::from).to_vec();
    let indexes = vec![
        IndexDef { name: "lower".into(), key_cols: vec![0, 1, 3] },
        IndexDef { name: "upper".into(), key_cols: vec![0, 2, 3] },
    ];
    db.create_table(TableDef { name: "T".into(), columns, indexes }).unwrap();
    let table = db.table("T").unwrap();
    let rows: Vec<[i64; 4]> = (0..ROWS as i64)
        .map(|id| {
            let lower = id * 7919 % 1_000_000;
            [lower >> 11, lower, lower + id % 2000, id]
        })
        .collect();

    let ((), peak) = measure(|| table.bulk_insert(&rows).unwrap());
    println!("bulk-loading {ROWS} rows peaked at {peak} heap bytes beyond the rows");

    assert_eq!(table.row_count().unwrap(), ROWS as u64);
    // Every frame of the pool, twice over, and the builder's images.
    let slack = 2 * FRAMES * DEFAULT_PAGE_SIZE + 64 * 1024;
    assert!(
        peak <= 16 * ROWS + slack,
        "bulk-loading {ROWS} rows peaked at {peak} heap bytes: more than 16 a row and {slack}"
    );
}
