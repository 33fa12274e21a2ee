//! Shows the relational machinery under the hood: execution plans
//! (the paper's Figure 10), transient node tables, the Figure 8 → Figure 9
//! plan transformation, and I/O accounting.
//!
//! ```sh
//! cargo run --example explain_plan
//! ```

use ri_tree::mem::sort::sort_ids;
use ri_tree::prelude::*;
use ri_tree::relstore::explain::explain;

fn main() {
    let pool = Arc::new(BufferPool::with_defaults(MemDisk::new(DEFAULT_PAGE_SIZE)));
    let db = Arc::new(Database::create(Arc::clone(&pool)).unwrap());
    let tree = RiTree::create(db, "plans").unwrap();

    // A spread of intervals so the traversal produces interesting node lists.
    for i in 0..20_000i64 {
        let l = (i * 53) % 1_000_000;
        tree.insert(Interval::new(l, l + (i % 977)).unwrap(), i).unwrap();
    }
    let q = Interval::new(400_000, 420_000).unwrap();

    // The two-fold plan of Figure 9 / Figure 10.
    println!("--- two-fold plan (paper Figure 9/10) ---");
    println!("{}", tree.explain(q).unwrap());

    // The preliminary three-fold plan of Figure 8.
    let fig8 = tree.intersection_plan_fig8(q, i64::MAX - 2).unwrap();
    println!("--- preliminary three-fold plan (paper Figure 8) ---");
    println!("{}", explain(&fig8));

    // Both return identical results (Section 4.3's Lemma justifies the
    // merge); the two-fold version has one plan branch less, which is what
    // the paper means by "reduce the cost for internal query management".
    // Each plan returns its ids in its own plan order.
    let mut two = tree.intersection(q).unwrap();
    let (mut three, stats8) = tree.execute_id_plan(&fig8).unwrap();
    sort_ids(&mut two);
    sort_ids(&mut three);
    assert_eq!(two, three);
    println!("both plans return {} intervals", two.len());

    let plan9 = tree.intersection_plan(q, i64::MAX - 2).unwrap();
    let (_, stats9) = tree.execute_id_plan(&plan9).unwrap();
    println!(
        "index searches: two-fold = {}, three-fold = {} (2 vs 3 UNION branches)",
        stats9.index_searches, stats8.index_searches
    );
    assert!(stats9.index_searches <= stats8.index_searches);

    // The backbone parameters driving the traversal (Section 3.4).
    let p = tree.load_params().unwrap();
    println!(
        "\nbackbone parameters: offset = {:?}, leftRoot = {}, rightRoot = {}, minstep2 = {}",
        p.offset, p.left_root, p.right_root, p.minstep2
    );
    println!("tree height (Section 3.5): {}", p.height());

    // Physical I/O of one cold-cache query.
    pool.clear_cache().unwrap();
    let before = pool.stats().snapshot();
    let hits = tree.intersection(q).unwrap();
    let delta = pool.stats().snapshot().since(&before);
    println!(
        "\ncold-cache query: {} results, {} physical block reads",
        hits.len(),
        delta.physical_reads
    );
}
