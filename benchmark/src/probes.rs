//! Stand-alone probes of single layers, run after a traced run's measured
//! phases on the workload's own pool: they time calls into public
//! functions of `pagestore::buffer`, `btree` and `mem` directly, so a
//! change to one of those layers shows here before it shows end to end.

use crate::inputs::{sub_seed, Item, QuerySet};
use crate::metrics::Metrics;
use crate::workloads::PAGE;
use ri_tree::btree::BTree;
use ri_tree::mem::HintIndex;
use ri_tree::pagestore::{BufferPool, PageId, Result};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Page accesses timed by each pool probe.
const POOL_ACCESSES: u64 = 100_000;
/// Inserts timed by the B-tree insert probe.
const BTREE_INSERTS: u64 = 5_000;
/// Entries bulk-loaded by the B-tree build probe.
const BTREE_BUILD_ROWS: u64 = 100_000;
/// Queries timed by the HINT probe.
const HINT_QUERIES: usize = 1000;

/// `pool.hit_ns`: `BufferPool::with_page` over a handful of resident pages.
fn pool_hit_ns(pool: &BufferPool) -> Result<f64> {
    let pages = pool.num_pages().min(pool.capacity() as u64 / 2).clamp(1, 64);
    for id in 0..pages {
        pool.with_page(PageId(id), |_| ())?;
    }
    let start = Instant::now();
    for i in 0..POOL_ACCESSES {
        black_box(pool.with_page(PageId(i % pages), |data| data[0])?);
    }
    Ok(start.elapsed().as_nanos() as f64 / POOL_ACCESSES as f64)
}

/// `pool.miss_ns`: `with_page` cycling over four times more pages than
/// the pool has frames, so under LRU every access evicts and fetches.
/// `None` when the device is too small to defeat the cache (`read_hot`).
fn pool_miss_ns(pool: &BufferPool) -> Result<Option<f64>> {
    let span = 4 * pool.capacity() as u64;
    if pool.num_pages() < span {
        return Ok(None);
    }
    // Clean frames first: the probe times fetches, not write-backs.
    pool.flush_all()?;
    let accesses = POOL_ACCESSES / 4;
    let start = Instant::now();
    for i in 0..accesses {
        black_box(pool.with_page(PageId(i % span), |data| data[0])?);
    }
    Ok(Some(start.elapsed().as_nanos() as f64 / accesses as f64))
}

/// `btree.insert_us`: `BTree::insert` of scattered keys into a scratch
/// tree in the workload's pool (logged, when the pool is durable).
fn btree_insert_us(pool: &Arc<BufferPool>, seed: u64) -> Result<f64> {
    let tree = BTree::create(Arc::clone(pool), 3)?;
    let start = Instant::now();
    for i in 0..BTREE_INSERTS {
        let key = sub_seed(seed, i) as i64;
        tree.insert(&[key >> 44, key >> 20, i as i64], i)?;
    }
    Ok(start.elapsed().as_nanos() as f64 / BTREE_INSERTS as f64 / 1e3)
}

/// `btree.build_rows_per_s`: `BTree::bulk_load` of sorted entries.
fn btree_build_rows_per_s(pool: &Arc<BufferPool>) -> Result<f64> {
    let entries = (0..BTREE_BUILD_ROWS).map(|i| (vec![(i / 64) as i64, i as i64, i as i64], i));
    let start = Instant::now();
    let tree = BTree::bulk_load(Arc::clone(pool), 3, entries, 1.0)?;
    let elapsed = start.elapsed().as_secs_f64();
    black_box(tree.meta_page());
    Ok(BTREE_BUILD_ROWS as f64 / elapsed)
}

/// The pool and B-tree probes, on the pool a workload just used.
pub fn storage_layers(m: &mut Metrics, pool: &Arc<BufferPool>, seed: u64) -> Result<()> {
    debug_assert_eq!(pool.page_size(), PAGE);
    m.set("pool.hit_ns", pool_hit_ns(pool)?);
    if let Some(ns) = pool_miss_ns(pool)? {
        m.set("pool.miss_ns", ns);
    }
    m.set("btree.insert_us", btree_insert_us(pool, seed)?);
    m.set("btree.build_rows_per_s", btree_build_rows_per_s(pool)?);
    Ok(())
}

/// `mem.hint_insert_ns` / `mem.hint_query_us`: a stand-alone `HintIndex`
/// over the workload's data, asked the workload's queries — what a tier
/// admission costs per interval, and what a tier hit costs at best.
pub fn hint(m: &mut Metrics, data: &[Item], queries: &QuerySet) {
    let mut index = HintIndex::new(0, 20);
    let start = Instant::now();
    for &(iv, id) in data {
        index.insert(iv.lower, iv.upper, id);
    }
    m.set("mem.hint_insert_ns", start.elapsed().as_nanos() as f64 / data.len().max(1) as f64);
    let start = Instant::now();
    for i in 0..HINT_QUERIES {
        let q = queries.query(i);
        black_box(index.intersection(q.lower, q.upper));
    }
    m.set("mem.hint_query_us", start.elapsed().as_nanos() as f64 / HINT_QUERIES as f64 / 1e3);
}
