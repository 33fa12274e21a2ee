//! The write-concurrency experiment (ours, not the paper's): modelled
//! insert throughput versus writer threads — the B-link protocol against
//! a global-writer baseline.
//!
//! # Methodology
//!
//! Like `fig18` (`crate::concurrency`), this experiment prices concurrency
//! *deterministically*: the insert workload runs once, single-threaded,
//! and every insert's page accesses are read off the pool's per-shard
//! counters, with the latch manager's `splits` counter flagging which
//! inserts performed a structure modification.  fig18's
//! [`ContentionModel`] prices each insert's work
//! ([`ContentionModel::work_seconds`]), and two writer protocols are then
//! priced over the identical trace:
//!
//! * **global writer** — one tree-wide writer slot: every insert holds
//!   it, so the batch's makespan is the *sum* of all
//!   per-insert costs no matter how many threads submit work;
//! * **B-link (what the engine runs)** — splits hold only the splitting node's
//!   latch and post the separator in a separate latched step, so
//!   structure modifications on different nodes overlap like any other
//!   writes.  There is no tree-wide SMO timeline; what remains serial
//!   is the per-shard lock-hold timeline and the meta-page latch, which
//!   only structure changes take (one allocation hold per split; an
//!   insert that does not split never touches the meta page).
//!
//! Charging identical total work to both protocols isolates exactly the
//! effect under study — which serial floor binds.  Two workloads are
//! traced: the paper-sized configuration (2 KB pages, where splits are
//! rare) and an **SMO-heavy** configuration (256-byte pages, leaf
//! capacity 6, where roughly every third insert splits) whose trace
//! summary reports how much of the work is structure modification.
//! Wall-clock numbers are printed for reference on `#` lines; every
//! other line must stay byte-stable across runs and machines.
//!
//! Alongside the model, the experiment *actually runs* concurrent
//! writers: disjoint insert batches through raw [`ri_btree::BTree`]
//! handles (fanned out by `ri_relstore::fan_out`, the workspace's one
//! thread fan-out scaffold) and [`RiTree::insert_batch`] at every thread
//! count, asserting the final trees are identical to their sequentially
//! built twins — the B-link protocol's correctness is exercised even
//! where its speed cannot be observed on a 1-CPU runner.

use crate::concurrency::ContentionModel;
use crate::harness::{f, section, sorted};
use ri_btree::BTree;
use ri_pagestore::{BufferPool, BufferPoolConfig, IoSnapshot, MemDisk, DEFAULT_PAGE_SIZE};
use ritree_core::{Interval, RiTree};
use std::sync::Arc;
use std::time::Instant;

/// Pool shard counts compared by the experiment.
pub const SHARD_COUNTS: [usize; 2] = [1, 16];
/// Writer thread counts evaluated per shard count.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One traced pool configuration.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Snapshot-stable name.
    pub name: &'static str,
    /// Page size of the traced pool.
    pub page_size: usize,
    /// Frames in the traced pool (deliberately undersized: it is the
    /// per-insert leaf *misses* that writer concurrency must overlap).
    pub frames: usize,
}

/// The two traced workloads: the paper's block size (splits are rare)
/// and a small-block configuration where splits dominate — the regime
/// where a serialized SMO timeline would bind and the B-link floor does
/// not.
pub const WORKLOADS: [Workload; 2] = [
    Workload { name: "paper-blocks", page_size: DEFAULT_PAGE_SIZE, frames: 64 },
    Workload { name: "smo-heavy", page_size: 256, frames: 64 },
];

/// The single-threaded insert trace the model prices.
pub struct WriteTrace {
    /// Number of inserts.
    pub inserts: usize,
    /// Simulated seconds of every insert summed (I/O + latch + CPU).
    pub total_work: f64,
    /// Simulated seconds of the structure-modifying inserts only.
    pub smo_work: f64,
    /// Inserts that split at least one node.
    pub smo_count: u64,
    /// Total node splits (leaf + internal; each costs one meta-latch
    /// allocation hold under the B-link protocol).
    pub splits: u64,
    /// Right-link chases observed (always 0 single-threaded).
    pub right_link_chases: u64,
    /// Aggregate per-shard access counts over the whole batch.
    pub per_shard: Vec<IoSnapshot>,
    /// Total physical block accesses.
    pub phys_total: u64,
}

impl WriteTrace {
    /// Makespan under the global-writer protocol: all inserts serialize,
    /// regardless of the submitting thread count.
    fn makespan_global(&self) -> f64 {
        self.total_work
    }

    /// The per-shard lock-hold floor.
    fn shard_floor(&self, model: &ContentionModel) -> f64 {
        self.per_shard.iter().map(|s| model.shard_serial_seconds(s)).fold(0.0f64, f64::max)
    }

    /// Makespan under the B-link protocol: splits overlap like any other
    /// writes, so there is no global SMO timeline term.  The meta latch
    /// admits one hold at a time, and only a split takes it: one
    /// allocation hold per split.
    fn makespan_blink(&self, model: &ContentionModel, threads: usize) -> f64 {
        let meta_floor = self.splits as f64 * model.seconds_per_latch;
        (self.total_work / threads.max(1) as f64).max(self.shard_floor(model)).max(meta_floor)
    }
}

/// One measured configuration.
#[derive(Clone, Copy, Debug)]
pub struct WriteThroughput {
    /// Traced workload name.
    pub workload: &'static str,
    /// Buffer pool shard count.
    pub shards: usize,
    /// Writer thread count.
    pub threads: usize,
    /// Modelled inserts/second under the global-writer baseline.
    pub inserts_per_sec_global: f64,
    /// Modelled inserts/second under the B-link protocol (current).
    pub inserts_per_sec_blink: f64,
    /// B-link over the global-writer baseline.
    pub speedup_vs_global: f64,
}

/// Everything the experiment produced.
pub struct WriteReport {
    /// One entry per (workload, shards, threads) triple.
    pub rows: Vec<WriteThroughput>,
}

/// The insert workload: pseudorandom 3-column keys shaped like the
/// RI-tree's `lowerIndex` entries `(node, lower, id)`.
fn workload_keys(n: usize) -> Vec<[i64; 3]> {
    let mut x = 0x0F19_5EEDu64;
    (0..n)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            [(x % 512) as i64, (x >> 20) as i64 % 100_000, i as i64]
        })
        .collect()
}

/// Runs the insert batch once, single-threaded, recording per-insert
/// access counts and SMO flags.
///
/// The pool is deliberately undersized relative to the tree the batch
/// builds: an append-heavy index in production outgrows RAM, and it is
/// exactly the per-insert leaf *misses* that writer concurrency must
/// overlap.  With a fully cached tree the only physical I/O left is the
/// page allocations of splits, and the model would (correctly, but
/// uninterestingly) report that nothing scales.
fn trace_inserts(
    cfg: &Workload,
    shards: usize,
    keys: &[[i64; 3]],
    model: &ContentionModel,
) -> WriteTrace {
    let pool = Arc::new(BufferPool::new(
        MemDisk::new(cfg.page_size),
        BufferPoolConfig::sharded(cfg.frames, shards),
    ));
    let tree = BTree::create(Arc::clone(&pool), 3).expect("create tree");
    let stats = pool.stats();
    let latches = pool.latches();

    let mut total_work = 0.0f64;
    let mut smo_work = 0.0f64;
    let mut smo_count = 0u64;
    let mut before_shards = stats.per_shard();
    let mut before_latches = latches.stats();
    for key in keys {
        tree.insert(&key[..], key[2] as u64).expect("insert");
        let after_shards = stats.per_shard();
        let after_latches = latches.stats();
        let mut io = IoSnapshot::default();
        for (a, b) in after_shards.iter().zip(&before_shards) {
            io.accumulate(&a.since(b));
        }
        let work = model.work_seconds(&io, 0);
        total_work += work;
        if after_latches.since(&before_latches).splits > 0 {
            smo_work += work;
            smo_count += 1;
        }
        before_shards = after_shards;
        before_latches = after_latches;
    }
    let per_shard = stats.per_shard();
    let phys_total = per_shard.iter().map(IoSnapshot::physical_total).sum();
    let latch_stats = latches.stats();
    WriteTrace {
        inserts: keys.len(),
        total_work,
        smo_work,
        smo_count,
        splits: latch_stats.splits,
        right_link_chases: latch_stats.right_link_chases,
        per_shard,
        phys_total,
    }
}

/// Real concurrent writers through raw B-link tree handles: every thread
/// inserts a disjoint slice (via the workspace's one fan-out scaffold,
/// `ri_relstore::fan_out`); the result must equal the sequentially built
/// tree entry for entry.
fn verify_concurrent_btree(keys: &[[i64; 3]], threads: usize) -> f64 {
    let pool = Arc::new(BufferPool::new(
        MemDisk::new(DEFAULT_PAGE_SIZE),
        BufferPoolConfig::sharded(200, 16),
    ));
    let tree = BTree::create(Arc::clone(&pool), 3).expect("create tree");
    let wall = Instant::now();
    ri_relstore::fan_out(keys, threads, |key| tree.insert(&key[..], key[2] as u64))
        .into_iter()
        .collect::<ri_pagestore::Result<Vec<bool>>>()
        .expect("insert")
        .into_iter()
        .for_each(|inserted| assert!(inserted, "keys are distinct"));
    let elapsed = wall.elapsed().as_secs_f64() * 1000.0;
    tree.check_invariants().expect("invariants after concurrent inserts");
    let mut expected: Vec<([i64; 3], u64)> = keys.iter().map(|&k| (k, k[2] as u64)).collect();
    expected.sort();
    let got: Vec<([i64; 3], u64)> = tree
        .scan_all()
        .map(|e| e.expect("scan"))
        .map(|e| ([e.key.col(0), e.key.col(1), e.key.col(2)], e.payload))
        .collect();
    assert_eq!(got, expected, "concurrent insert batch diverged at {threads} threads");
    elapsed
}

/// Runs the experiment and prints its tables.
pub fn run(quick: bool) -> WriteReport {
    section("Figure 19: insert throughput vs writer threads, B-link vs global writer");
    let n = if quick { 20_000 } else { 100_000 };
    let keys = workload_keys(n);
    let model = ContentionModel::default();
    println!("model: inserts,seconds_per_read,seconds_per_write,seconds_per_latch,seconds_per_access_cpu");
    println!(
        "{n},{},{},{},{}",
        model.latency.seconds_per_read,
        model.latency.seconds_per_write,
        model.seconds_per_latch,
        model.seconds_per_access_cpu
    );

    let mut rows: Vec<WriteThroughput> = Vec::new();
    println!("traces: workload,shards,smo_fraction,smo_work_fraction,phys_io_per_insert");
    for cfg in &WORKLOADS {
        for &shards in &SHARD_COUNTS {
            let trace = trace_inserts(cfg, shards, &keys, &model);
            assert_eq!(trace.right_link_chases, 0, "single-threaded traces never chase");
            println!(
                "{},{shards},{:.5},{:.5},{:.3}",
                cfg.name,
                trace.smo_count as f64 / trace.inserts as f64,
                trace.smo_work / trace.total_work,
                trace.phys_total as f64 / trace.inserts as f64
            );
            for &threads in &THREAD_COUNTS {
                let global = n as f64 / trace.makespan_global();
                let blink = n as f64 / trace.makespan_blink(&model, threads);
                rows.push(WriteThroughput {
                    workload: cfg.name,
                    shards,
                    threads,
                    inserts_per_sec_global: global,
                    inserts_per_sec_blink: blink,
                    speedup_vs_global: blink / global,
                });
            }
        }
    }
    println!(
        "workload,shards,threads,inserts_per_sec_global,inserts_per_sec_blink,blink_vs_global"
    );
    for r in &rows {
        println!(
            "{},{},{},{:.3},{:.3},{:.3}",
            r.workload,
            r.shards,
            r.threads,
            r.inserts_per_sec_global,
            r.inserts_per_sec_blink,
            r.speedup_vs_global
        );
    }

    // Correctness of the real concurrent write paths (wall-clock numbers
    // are informational; scaling is unobservable on 1-CPU runners).
    for &threads in &THREAD_COUNTS {
        let wall_ms = verify_concurrent_btree(&keys, threads);
        println!(
            "# btree: {threads}-thread concurrent batch equals sequential ({} ms)",
            f(wall_ms)
        );
    }
    verify_ritree_batch(quick);

    println!("# model: the global writer serializes every insert; B-link splits hold");
    println!("# only the splitting node's latch, so there is no serial SMO timeline and");
    println!("# the floor is max(shard lock holds, meta-latch holds)");
    WriteReport { rows }
}

/// `RiTree::insert_batch` against per-interval inserts: identical query
/// answers at every thread count.  Each tree is seeded with the first
/// interval before the batch, because a batch into an *empty* tree is a
/// sequential bulk load that never consults `threads` — that first row
/// puts the rest on the per-row fan-out route this check is about.
fn verify_ritree_batch(quick: bool) {
    use crate::harness::fresh_env_sharded;
    let n = if quick { 3_000 } else { 20_000 };
    let data: Vec<(Interval, i64)> = (0..n as i64)
        .map(|id| {
            let l = (id * 37) % 40_000;
            (Interval::new(l, l + 600).unwrap(), id)
        })
        .collect();
    let env = fresh_env_sharded(200, 16);
    let sequential = RiTree::create(Arc::clone(&env.db), "seq").expect("create");
    for &(iv, id) in &data {
        sequential.insert(iv, id).expect("insert");
    }
    let queries: Vec<Interval> =
        (0..16).map(|i| Interval::new(i * 2500, i * 2500 + 900).unwrap()).collect();
    let answers: Vec<Vec<i64>> =
        queries.iter().map(|&q| sorted(sequential.intersection(q).expect("query"))).collect();
    let (&(seed_iv, seed_id), batch) = data.split_first().expect("non-empty data");
    for &threads in &THREAD_COUNTS {
        let env = fresh_env_sharded(200, 16);
        let tree = RiTree::create(Arc::clone(&env.db), "batch").expect("create");
        tree.insert(seed_iv, seed_id).expect("seed insert");
        let wall = Instant::now();
        tree.insert_batch(batch, threads).expect("insert_batch");
        let wall_ms = wall.elapsed().as_secs_f64() * 1000.0;
        for (q, want) in queries.iter().zip(&answers) {
            assert_eq!(
                &sorted(tree.intersection(*q).expect("query")),
                want,
                "insert_batch diverged at {threads} threads"
            );
        }
        println!("# ritree: insert_batch({threads}) equals sequential inserts ({} ms)", f(wall_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_trace() -> WriteTrace {
        let shard = IoSnapshot {
            logical_reads: 1000,
            logical_writes: 500,
            physical_reads: 100,
            physical_writes: 0,
        };
        WriteTrace {
            inserts: 250,
            total_work: 2.0,
            smo_work: 0.9,
            smo_count: 80,
            splits: 90,
            right_link_chases: 0,
            per_shard: vec![shard; 16],
            phys_total: 1600,
        }
    }

    #[test]
    fn global_writer_never_scales() {
        let t = toy_trace();
        assert!(
            (t.makespan_global() - t.total_work).abs() < 1e-12,
            "the global writer pays the full serial sum"
        );
    }

    #[test]
    fn blink_drops_the_smo_timeline_term() {
        let m = ContentionModel::default();
        let t = toy_trace();
        let shard_floor =
            t.per_shard.iter().map(|s| m.shard_serial_seconds(s)).fold(0.0f64, f64::max);
        let meta_floor = t.splits as f64 * m.seconds_per_latch;
        let floor = shard_floor.max(meta_floor);
        assert!(floor < t.smo_work, "a serial SMO timeline would bind on the toy trace");
        let saturated = t.makespan_blink(&m, 1_000_000);
        assert!((saturated - floor).abs() < 1e-12, "B-link bottoms out below the SMO timeline");
    }

    #[test]
    fn quick_run_meets_the_scaling_bar() {
        let report = run(true);
        let row = |workload: &str, shards: usize, threads: usize| {
            *report
                .rows
                .iter()
                .find(|r| r.workload == workload && r.shards == shards && r.threads == threads)
                .expect("configuration measured")
        };
        for cfg in &WORKLOADS {
            for shards in SHARD_COUNTS {
                // The bar the B-link protocol must clear against the
                // global writer.
                assert!(
                    row(cfg.name, shards, 4).speedup_vs_global >= 2.0,
                    "{}: expected >= 2x vs global at 4 threads on {shards} shard(s)",
                    cfg.name
                );
            }
        }
        // More threads never model slower.
        let r8 = row("smo-heavy", 16, 8);
        let r4 = row("smo-heavy", 16, 4);
        assert!(r8.inserts_per_sec_blink >= r4.inserts_per_sec_blink);
        // The baseline is thread-count-invariant by construction.
        let g1 = row("paper-blocks", 16, 1).inserts_per_sec_global;
        let g8 = row("paper-blocks", 16, 8).inserts_per_sec_global;
        assert!((g1 - g8).abs() < 1e-9);
    }
}
