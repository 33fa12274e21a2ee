//! Shared experiment machinery.

use ri_baselines::{Ist, IstOrder, TileIndex};
use ri_pagestore::{
    BufferPool, BufferPoolConfig, IoSnapshot, LatencyModel, MemDisk, DEFAULT_PAGE_SIZE,
};
use ri_relstore::{Database, IntervalAccessMethod};
use ritree_core::{Interval, RiTree};
use std::sync::Arc;

/// The fixed level the figure experiments pin for the T-index: the paper's
/// sample-based tuning found "the optimum ... at the level 7, 8 or 9"
/// (Section 6.1); 8 is the midpoint.
pub const PAPER_TINDEX_LEVEL: u32 = 8;

/// A database environment configured like the paper's server: 2 KB blocks,
/// 200-block cache.
pub struct Env {
    /// The shared buffer pool (for I/O statistics).
    pub pool: Arc<BufferPool>,
    /// The database.
    pub db: Arc<Database>,
}

/// Creates a fresh environment with the paper's cache configuration.
pub fn fresh_env() -> Env {
    fresh_env_with_cache(200)
}

/// Creates a fresh environment with a custom cache size (in frames).
pub fn fresh_env_with_cache(frames: usize) -> Env {
    fresh_env_sharded(frames, 1)
}

/// Creates a fresh environment with a lock-striped buffer pool: `frames`
/// total cache frames over `shards` shards (1 = the paper's global cache).
pub fn fresh_env_sharded(frames: usize, shards: usize) -> Env {
    let pool = Arc::new(BufferPool::new(
        MemDisk::new(DEFAULT_PAGE_SIZE),
        BufferPoolConfig::sharded(frames, shards),
    ));
    let db = Arc::new(Database::create(Arc::clone(&pool)).expect("fresh database"));
    Env { pool, db }
}

/// Builds a dynamically loaded RI-tree over `data` (the RI-tree is the
/// *dynamic* method in the comparison; it is never bulk-loaded).
pub fn build_ritree(env: &Env, data: &[(i64, i64)]) -> RiTree {
    let tree = RiTree::create(Arc::clone(&env.db), "bench").expect("create RI-tree");
    for (id, &(l, u)) in data.iter().enumerate() {
        tree.insert(Interval::new(l, u).expect("valid interval"), id as i64).expect("insert");
    }
    tree
}

/// Builds a bulk-loaded T-index at the paper's tuned level.
pub fn build_tindex(env: &Env, data: &[(i64, i64)]) -> TileIndex {
    TileIndex::build_bulk(Arc::clone(&env.db), "bench", PAPER_TINDEX_LEVEL, data)
        .expect("build T-index")
}

/// Builds a bulk-loaded IST with D-ordering (the paper's variant).
pub fn build_ist(env: &Env, data: &[(i64, i64)]) -> Ist {
    Ist::build_bulk(Arc::clone(&env.db), "bench", IstOrder::D, data).expect("build IST")
}

/// Aggregate measurements over a query batch (per-query averages).
#[derive(Clone, Copy, Debug, Default)]
pub struct Measured {
    /// Average physical block reads per query (the paper's "physical I/O").
    pub phys_reads: f64,
    /// Average simulated response time in seconds (latency model).
    pub sim_seconds: f64,
    /// Average result cardinality.
    pub results: f64,
}

impl Measured {
    /// Measured selectivity given the database cardinality.
    pub fn selectivity(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.results / n as f64
        }
    }
}

/// Runs `queries` against `method` from a cold cache, returning per-query
/// averages.  Mirrors the paper's methodology: a batch of N queries is
/// timed as a whole, with the (small) cache warm across the batch.
pub fn run_queries(
    env: &Env,
    method: &dyn IntervalAccessMethod,
    queries: &[(i64, i64)],
) -> Measured {
    env.pool.clear_cache().expect("cache clear");
    let model = LatencyModel::default();
    let before: IoSnapshot = env.pool.stats().snapshot();
    let mut results = 0u64;
    let mut rows = 0u64;
    for &(ql, qu) in queries {
        let (ids, stats) = method.am_intersection_with_stats(ql, qu).expect("query");
        results += ids.len() as u64;
        rows += stats.rows_examined;
    }
    let delta = env.pool.stats().snapshot().since(&before);
    let nq = queries.len().max(1) as f64;
    Measured {
        phys_reads: delta.physical_reads as f64 / nq,
        sim_seconds: model.simulate(&delta, rows) / nq,
        results: results as f64 / nq,
    }
}

/// A query answer in ascending id order, to compare answers across
/// methods or trees: an RI-tree query returns its ids in plan order.
pub fn sorted(mut ids: Vec<i64>) -> Vec<i64> {
    ri_mem::sort::sort_ids(&mut ids);
    ids
}

/// Core count of the machine regenerating the figures, printed by
/// `run_all` on a `#` line.  The modelled columns are
/// machine-independent; the wall-clock commentary can only ever be
/// compared across equal core counts.
pub fn runner_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Prints a CSV header followed by a blank-line-separated block marker so
/// figures can be extracted from `run_all` output.
pub fn section(title: &str) {
    println!();
    println!("== {title} ==");
}

/// Formats a float tersely for tables.
pub fn f(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ri_workloads::{d1, queries_for_selectivity};

    #[test]
    fn harness_smoke_all_methods_agree() {
        let spec = d1(2000, 2000);
        let data = spec.generate(1);
        let queries = queries_for_selectivity(&spec, 0.01, 5, 2);

        let env_ri = fresh_env();
        let ri = build_ritree(&env_ri, &data);
        let env_ti = fresh_env();
        let ti = build_tindex(&env_ti, &data);
        let env_ist = fresh_env();
        let ist = build_ist(&env_ist, &data);

        for &(ql, qu) in &queries {
            let a = sorted(ri.am_intersection(ql, qu).unwrap());
            let b = sorted(ti.am_intersection(ql, qu).unwrap());
            let c = sorted(ist.am_intersection(ql, qu).unwrap());
            assert_eq!(a, b);
            assert_eq!(a, c);
        }
        let m = run_queries(&env_ri, &ri, &queries);
        assert!(m.phys_reads > 0.0, "cold-cache queries must read blocks");
        assert!(m.results > 0.0);
    }
}
