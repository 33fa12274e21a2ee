//! Quickstart: create an RI-tree, insert intervals, run queries.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ri_tree::mem::sort::sort_ids;
use ri_tree::prelude::*;

fn main() {
    // A fresh in-memory database configured like the paper's server:
    // 2 KB blocks, 200-block cache.
    let pool = Arc::new(BufferPool::with_defaults(MemDisk::new(DEFAULT_PAGE_SIZE)));
    let db = Arc::new(Database::create(Arc::clone(&pool)).unwrap());

    // This performs the DDL of the paper's Figure 2:
    //   CREATE TABLE RI_demo (node int, lower int, upper int, id int);
    //   CREATE INDEX RI_demo_LOWER ON RI_demo (node, lower, id);
    //   CREATE INDEX RI_demo_UPPER ON RI_demo (node, upper, id);
    let tree = RiTree::create(Arc::clone(&db), "demo").unwrap();
    println!("created RI-tree schema: table RI_demo + lowerIndex + upperIndex\n");

    // Insert a few validity periods (think: versions of a record).
    let periods = [(1995, 1999), (1998, 2003), (2001, 2004), (2002, 2009), (2007, 2011)];
    for (id, &(from, to)) in periods.iter().enumerate() {
        tree.insert(Interval::new(from, to).unwrap(), id as i64).unwrap();
    }
    println!(
        "inserted {} intervals; backbone height = {}",
        tree.count().unwrap(),
        tree.height().unwrap()
    );

    // Intersection query: which versions were valid during [2000, 2002]?
    // The ids come in plan order (Figure 9 has no ORDER BY); sort them
    // for display.
    let q = Interval::new(2000, 2002).unwrap();
    let mut hits = tree.intersection(q).unwrap();
    sort_ids(&mut hits);
    println!("\nintersection {q} -> ids {hits:?}");

    // Stabbing (point) query: which versions were valid in 2003?
    let mut hits = tree.stab(2003).unwrap();
    sort_ids(&mut hits);
    println!("stab 2003        -> ids {hits:?}");

    // The query plan the engine executes (the paper's Figure 10):
    println!("\nEXPLAIN for {q}:\n{}", tree.explain(q).unwrap());

    // I/O accounting, the paper's primary metric.
    let stats = pool.stats().snapshot();
    println!(
        "physical I/O so far: {} block reads, {} block writes",
        stats.physical_reads, stats.physical_writes
    );

    // Deletion is symmetric to insertion.
    assert!(tree.delete(Interval::new(1995, 1999).unwrap(), 0).unwrap());
    let mut hits = tree.stab(1996).unwrap();
    sort_ids(&mut hits);
    println!("\ndeleted id 0; stab 1996 -> {hits:?}");
}
