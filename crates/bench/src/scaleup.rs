//! The beyond-paper scale-up experiment (ours, not the paper's):
//! building an RI-tree from 1–10 million intervals, bottom-up bulk load
//! versus the repeated-descent build it replaces.
//!
//! # Methodology
//!
//! The paper's own scale-up figure (Figure 14, `fig14`) stops at
//! n = 100,000 — a dataset its 1999-era server could rebuild by
//! per-row insertion.  This experiment extends the axis two orders of
//! magnitude with the bulk-load machinery: a *streamed* D1 workload
//! ([`ri_workloads::WorkloadSpec::stream`], `O(1)` generator memory)
//! feeding [`ritree_core::RiTree::insert_batch`], whose empty-tree bulk
//! route builds both composite indexes bottom-up at fill 1.0.  D1's
//! uniform starting points arrive in *random* key order — the
//! adversarial case for per-row descents (every insert may fault a
//! different leaf) and a matter of indifference to the bulk route,
//! which sorts its run before packing.
//!
//! Two build strategies are priced over identical data:
//!
//! * **bulk (this PR)** — the smaller sizes are *actually built*,
//!   single-threaded on a `MemDisk`, and their exact physical I/O
//!   counters are the figure's data; each run also asserts the built
//!   indexes land on exactly [`ri_btree::predicted_pages`] pages per
//!   index, so the analytic page model is verified, not assumed.  The
//!   largest sizes are then priced from that verified model (each
//!   device page writes back once, and the reads are the anchor's: a
//!   build installs the pages it packs without reading them, so it
//!   reads only the schema's pages; the two indexes are the whole
//!   table, so they are all the pages a build adds).
//! * **descent** — one interval at a time through the ordinary insert
//!   path.  A real run at a calibration size traces the per-insert
//!   physical I/O; larger sizes scale it by `n` and by the half-fill
//!   tree height ratio (descent-built nodes average ~50% fill, so
//!   their trees are taller than the packed ones).  Running ten
//!   million real descents would take hours — which is the point of
//!   the figure.
//!
//! Response times come from [`ri_pagestore::LatencyModel`] (the paper's
//! late-1990s disk) over the physical counters plus one executor-row
//! charge per interval.  Everything the figure prints derives from
//! deterministic counters and integer arithmetic — byte-stable across
//! runs and machines, like the fig18/fig19/fig20 tables.

use crate::harness::section;
use ri_btree::layout::{internal_capacity, leaf_capacity};
use ri_btree::predicted_pages;
use ri_pagestore::{
    BufferPool, BufferPoolConfig, IoSnapshot, LatencyModel, MemDisk, DEFAULT_PAGE_SIZE,
};
use ri_relstore::Database;
use ri_workloads::d1;
use ritree_core::{Interval, RiTree};
use std::sync::Arc;

/// Workload seed: every size draws from the same D1 stream family.
pub const SEED: u64 = 42;

/// Mean interval duration (the paper's d = 2000).
pub const MEAN_DURATION: i64 = 2000;

/// Both composite indexes are arity 3: `(node, lower, id)` / `(node,
/// upper, id)`.
pub const INDEX_ARITY: usize = 3;

/// Experiment shape: which sizes are actually built and which are
/// priced from the verified model.
#[derive(Clone, Debug)]
pub struct Config {
    /// Sizes built for real (ascending; the largest is the model anchor).
    pub measured: Vec<u64>,
    /// Sizes priced from the model (ascending, larger than the anchor).
    pub modeled: Vec<u64>,
    /// Per-row inserts traced to calibrate the descent strategy.
    pub calibration_inserts: u64,
}

impl Config {
    /// Full mode: build 1M and 2M for real, extrapolate to 5M and 10M.
    pub fn full() -> Config {
        Config {
            measured: vec![1_000_000, 2_000_000],
            modeled: vec![5_000_000, 10_000_000],
            calibration_inserts: 50_000,
        }
    }

    /// Quick mode: smaller anchors, same modeled axis to 10M.
    pub fn quick() -> Config {
        Config {
            measured: vec![200_000, 500_000],
            modeled: vec![1_000_000, 2_000_000, 5_000_000, 10_000_000],
            calibration_inserts: 15_000,
        }
    }
}

/// The traced facts of one real bulk build.
#[derive(Clone, Copy, Debug)]
pub struct Anchor {
    /// Intervals built.
    pub n: u64,
    /// Device pages the empty schema occupied before the batch.
    pub base_pages: u64,
    /// Pages of ONE index (asserted equal to [`predicted_pages`]; the
    /// batch adds exactly two such runs to the device).
    pub per_index_pages: u64,
    /// Physical I/O of the batch, flush included.
    pub io: IoSnapshot,
}

/// The traced facts of the real per-row-descent calibration run.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Intervals inserted one at a time.
    pub inserts: u64,
    /// Physical I/O of the run, flush included.
    pub io: IoSnapshot,
    /// Half-fill height of one index at the calibration size.
    pub height: u32,
}

/// One figure row: both strategies at one dataset size.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Dataset size.
    pub n: u64,
    /// Whether the bulk column is a real measurement or model-priced.
    pub measured: bool,
    /// Model (and, when measured, also actual) pages per index.
    pub per_index_pages: u64,
    /// Bulk build physical reads / writes.
    pub bulk_reads: u64,
    /// Bulk build physical writes.
    pub bulk_writes: u64,
    /// Descent build physical reads (calibrated model).
    pub descent_reads: u64,
    /// Descent build physical writes (calibrated model).
    pub descent_writes: u64,
}

impl Row {
    /// Modelled seconds for the bulk build.
    fn bulk_seconds(&self, m: &LatencyModel) -> f64 {
        m.simulate(&io(self.bulk_reads, self.bulk_writes), self.n)
    }

    /// Modelled seconds for the descent build.
    fn descent_seconds(&self, m: &LatencyModel) -> f64 {
        m.simulate(&io(self.descent_reads, self.descent_writes), self.n)
    }

    /// Descent time over bulk time — the figure's headline.
    pub fn speedup(&self, m: &LatencyModel) -> f64 {
        self.descent_seconds(m) / self.bulk_seconds(m)
    }
}

fn io(reads: u64, writes: u64) -> IoSnapshot {
    IoSnapshot { physical_reads: reads, physical_writes: writes, ..IoSnapshot::default() }
}

/// Everything the experiment produced.
pub struct Report {
    /// One entry per dataset size, measured anchors first.
    pub rows: Vec<Row>,
}

fn fresh_tree() -> (Arc<BufferPool>, Arc<Database>, RiTree) {
    let pool = Arc::new(BufferPool::new(
        MemDisk::new(DEFAULT_PAGE_SIZE),
        BufferPoolConfig::with_capacity(256),
    ));
    let db = Arc::new(Database::create(Arc::clone(&pool)).unwrap());
    let tree = RiTree::create(Arc::clone(&db), "scale").unwrap();
    (pool, db, tree)
}

fn workload(n: u64) -> Vec<(Interval, i64)> {
    d1(n as usize, MEAN_DURATION)
        .stream(SEED)
        .enumerate()
        .map(|(i, (l, u))| (Interval::new(l, u).unwrap(), i as i64))
        .collect()
}

/// Actually bulk-builds `n` intervals and returns the traced anchor.
/// Panics if the built indexes miss the predicted page count — the
/// model the larger rows are priced from must be *verified* here.
fn measure_bulk(n: u64) -> Anchor {
    let (pool, _db, tree) = fresh_tree();
    let items = workload(n);
    let base_pages = pool.num_pages();
    let before = pool.stats().snapshot();
    tree.insert_batch(&items, 1).unwrap();
    pool.flush_all().unwrap();
    let io = pool.stats().snapshot().since(&before);
    let per_index = predicted_pages(
        n,
        leaf_capacity(DEFAULT_PAGE_SIZE, INDEX_ARITY),
        internal_capacity(DEFAULT_PAGE_SIZE, INDEX_ARITY),
    );
    let storage = tree.storage().unwrap();
    assert_eq!(
        storage.index_pages,
        2 * per_index,
        "bulk build must land on the predicted page count at n = {n}"
    );
    assert_eq!(
        pool.num_pages(),
        base_pages + 2 * per_index,
        "the two indexes are every page the build adds at n = {n}"
    );
    Anchor { n, base_pages, per_index_pages: per_index, io }
}

/// Traces `inserts` ordinary per-row descents on a fresh tree.
fn calibrate_descent(inserts: u64) -> Calibration {
    let (pool, _db, tree) = fresh_tree();
    let items = workload(inserts);
    let before = pool.stats().snapshot();
    for &(iv, id) in &items {
        tree.insert(iv, id).unwrap();
    }
    pool.flush_all().unwrap();
    let io = pool.stats().snapshot().since(&before);
    Calibration { inserts, io, height: descent_height(inserts) }
}

/// Height of a descent-built (≈half-full) index over `n` entries —
/// taller than the packed tree of the same data, and the factor by
/// which per-insert I/O grows with scale.
fn descent_height(n: u64) -> u32 {
    let lc = (leaf_capacity(DEFAULT_PAGE_SIZE, INDEX_ARITY) as u64 / 2).max(1);
    let ic = (internal_capacity(DEFAULT_PAGE_SIZE, INDEX_ARITY) as u64 / 2).max(1);
    if n == 0 {
        return 0;
    }
    let mut nodes = n.div_ceil(lc);
    let mut height = 1u32;
    while nodes > 1 {
        nodes = nodes.div_ceil(ic + 1);
        height += 1;
    }
    height
}

/// Scales one traced per-insert counter to `n` inserts: linear in `n`,
/// times the height ratio (integer arithmetic, exact and stable).
fn scale_descent(calib_count: u64, calib: &Calibration, n: u64) -> u64 {
    let num = calib_count as u128 * n as u128 * descent_height(n) as u128;
    let den = calib.inserts as u128 * calib.height as u128;
    (num / den) as u64
}

/// Prices a bulk build at `n` from the verified page model and the
/// largest measured anchor: every device page writes back once, and the
/// build reads what the anchor read — the schema's pages, never a page
/// it packs, whatever `n` is.
fn model_bulk(anchor: &Anchor, n: u64) -> (u64, u64, u64) {
    let per_index = predicted_pages(
        n,
        leaf_capacity(DEFAULT_PAGE_SIZE, INDEX_ARITY),
        internal_capacity(DEFAULT_PAGE_SIZE, INDEX_ARITY),
    );
    (per_index, anchor.io.physical_reads, anchor.base_pages + 2 * per_index)
}

/// Runs the experiment and prints its tables.
pub fn run(quick: bool) -> Report {
    run_with(if quick { Config::quick() } else { Config::full() })
}

/// [`run`] with an explicit shape — the determinism test uses tiny sizes.
fn run_with(config: Config) -> Report {
    section("Figure 21: scale-up to 10M intervals — bottom-up bulk load vs repeated-descent build");
    let model = LatencyModel::default();
    let calibration = calibrate_descent(config.calibration_inserts);
    println!("calibration: inserts,physical_reads,physical_writes,height");
    println!(
        "{},{},{},{}",
        calibration.inserts,
        calibration.io.physical_reads,
        calibration.io.physical_writes,
        calibration.height
    );

    let mut rows = Vec::new();
    let mut anchor: Option<Anchor> = None;
    println!(
        "n,measured,pages_per_index,bulk_reads,bulk_writes,bulk_seconds,descent_reads,descent_writes,descent_seconds,speedup"
    );
    for &n in &config.measured {
        let a = measure_bulk(n);
        rows.push(Row {
            n,
            measured: true,
            per_index_pages: a.per_index_pages,
            bulk_reads: a.io.physical_reads,
            bulk_writes: a.io.physical_writes,
            descent_reads: scale_descent(calibration.io.physical_reads, &calibration, n),
            descent_writes: scale_descent(calibration.io.physical_writes, &calibration, n),
        });
        anchor = Some(a);
    }
    let anchor = anchor.expect("at least one measured size");
    for &n in &config.modeled {
        let (per_index, reads, writes) = model_bulk(&anchor, n);
        rows.push(Row {
            n,
            measured: false,
            per_index_pages: per_index,
            bulk_reads: reads,
            bulk_writes: writes,
            descent_reads: scale_descent(calibration.io.physical_reads, &calibration, n),
            descent_writes: scale_descent(calibration.io.physical_writes, &calibration, n),
        });
    }
    for r in &rows {
        println!(
            "{},{},{},{},{},{:.3},{},{},{:.3},{:.3}",
            r.n,
            r.measured,
            r.per_index_pages,
            r.bulk_reads,
            r.bulk_writes,
            r.bulk_seconds(&model),
            r.descent_reads,
            r.descent_writes,
            r.descent_seconds(&model),
            r.speedup(&model)
        );
    }
    println!("# model: bulk writes each packed page once and reads none of them (fill 1.0,");
    println!("# predicted_pages verified on the measured anchors); descent pays per-insert");
    println!("# leaf faults that grow with the half-fill tree height — the gap widens as n grows");
    Report { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Config {
        Config { measured: vec![15_000], modeled: vec![60_000], calibration_inserts: 3_000 }
    }

    #[test]
    fn descent_height_grows_and_never_shrinks() {
        let mut last = 0;
        for n in [1u64, 100, 10_000, 1_000_000, 10_000_000] {
            let h = descent_height(n);
            assert!(h >= last, "height must be monotone in n");
            last = h;
        }
        assert!(descent_height(10_000_000) > descent_height(15_000));
    }

    #[test]
    fn measured_anchor_is_deterministic_and_verified() {
        let a = measure_bulk(20_000);
        let b = measure_bulk(20_000);
        assert_eq!(a.io, b.io, "bulk build I/O must be exactly repeatable");
        assert_eq!((a.base_pages, a.per_index_pages), (b.base_pages, b.per_index_pages));
    }

    #[test]
    fn tiny_run_is_deterministic_and_bulk_wins() {
        let model = LatencyModel::default();
        let a = run_with(tiny());
        let b = run_with(tiny());
        assert_eq!(a.rows.len(), b.rows.len());
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.bulk_reads, rb.bulk_reads, "n = {}", ra.n);
            assert_eq!(ra.bulk_writes, rb.bulk_writes, "n = {}", ra.n);
            assert_eq!(ra.descent_reads, rb.descent_reads, "n = {}", ra.n);
            assert_eq!(ra.per_index_pages, rb.per_index_pages, "n = {}", ra.n);
        }
        // Bulk wins at every size, and the gap widens with n (at tiny
        // calibration sizes much of the tree is cache-resident, so the
        // ratio starts modest and grows as descents start faulting).
        let mut last = 1.0f64;
        for r in &a.rows {
            let s = r.speedup(&model);
            assert!(s > last, "speedup must exceed 1 and grow with n; n = {}, got {s:.2}x", r.n);
            last = s;
        }
        // The modeled row extrapolates the measured anchor upward.
        assert!(a.rows[1].bulk_writes > a.rows[0].bulk_writes);
        assert!(a.rows[1].descent_reads > 4 * a.rows[0].descent_reads, "superlinear descents");
    }
}
