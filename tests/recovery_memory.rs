//! Recovery holds page images, not the log: attaching a durable pool and
//! recovering a long log whose records touch a few pages peaks at a few
//! page images' worth of heap, however many records the log holds.  A
//! counting global allocator measures the peak, so this binary holds one
//! test and nothing else allocates while it measures.

mod common;

use common::alloc::{measure, Counting};
use ri_tree::pagestore::{
    BufferPool, BufferPoolConfig, DiskManager, MemDisk, PageId, DEFAULT_PAGE_SIZE,
};
use std::sync::Arc;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn recovering_a_long_log_over_few_pages_holds_only_their_images() {
    const PAGES: u64 = 8;
    const UPDATES: usize = 20_000;
    let ps = DEFAULT_PAGE_SIZE;
    let (data, log) = (Arc::new(MemDisk::new(ps)), Arc::new(MemDisk::new(ps)));
    {
        // One-byte updates round-robin over the pages, four per commit,
        // and no checkpoint: every record stays in the log.
        let pool = BufferPool::new_durable(
            Arc::clone(&data),
            BufferPoolConfig::with_capacity(16),
            Arc::clone(&log),
        )
        .unwrap();
        let pages: Vec<PageId> = (0..PAGES).map(|_| pool.allocate_page().unwrap()).collect();
        for i in 0..UPDATES {
            let page = pages[i % pages.len()];
            pool.with_page_mut(page, |b| b[i / pages.len() % ps] ^= 0x5A).unwrap();
            if i % 4 == 3 {
                pool.wal().unwrap().commit().unwrap();
            }
        }
    }
    let log_bytes = log.num_pages() as usize * ps;

    let ((_pool, report), peak) = measure(|| {
        let pool =
            BufferPool::new_durable(data, BufferPoolConfig::with_capacity(16), Arc::clone(&log))
                .unwrap();
        let report = pool.recover().unwrap().expect("the log holds records");
        (pool, report)
    });
    println!("recovering a {log_bytes}-byte log over {PAGES} pages peaked at {peak} heap bytes");

    assert_eq!(report.records_scanned, UPDATES + UPDATES / 4);
    assert_eq!(report.pages_redone, PAGES as usize);
    // The pages' images, the images a rollback would restore, and the
    // scan's buffers: a few dozen pages, against a log of hundreds.
    assert!(log_bytes > 400 * ps, "the log is {log_bytes} bytes");
    assert!(
        peak < 32 * ps,
        "recovering a {log_bytes}-byte log over {PAGES} pages peaked at {peak} heap bytes"
    );
}
