//! The concurrency experiment (ours, not the paper's): query throughput
//! versus reader threads for buffer pools of 1, 4 and 16 shards.
//!
//! # Methodology
//!
//! The paper's figures report *simulated* response times: deterministic
//! physical block counts priced by [`LatencyModel`], so results do not
//! depend on the machine regenerating them.  This experiment extends the
//! same discipline to concurrency, which matters doubly here because CI
//! runners (and this development container) may expose a single CPU —
//! wall-clock multi-thread scaling is unmeasurable there, while the
//! *structural* contention of a global-lock cache is not.
//!
//! [`ContentionModel`] prices a batch of queries executed by `T` reader
//! threads over an `S`-shard pool from two deterministic ingredients,
//! both read off the sharded pool's per-shard counters
//! ([`ri_pagestore::PoolStats::per_shard`]):
//!
//! 1. **Per-shard serial floor** — a shard's lock admits one *lock hold*
//!    at a time.  With miss promotion, a miss holds the lock only
//!    to reserve a frame and again to publish the fetched page; the
//!    device read itself runs **outside** the lock (see
//!    `ri_pagestore::buffer`, "Miss promotion").  So shard `s`
//!    contributes a serial timeline of
//!    `(logical(s) + phys_reads(s) + phys_writes(s))·t_latch` — one
//!    bookkeeping hold per access plus one publish hold per device op —
//!    and *no* device latency.  (A pool that fetched under the lock
//!    would add `phys·t_read/t_write` to the floor, one cold page
//!    stalling every hot hit on its shard; promotion removes exactly
//!    that term, from the implementation and therefore from the model.)
//! 2. **Aggregate work spread over `T` threads** — simulated I/O plus
//!    per-access CPU (latch + search) plus the executor's per-row cost,
//!    divided evenly among threads.
//!
//! Simulated makespan is the larger of the two; throughput is
//! `queries / makespan`.  The model charges the same total work to every
//! configuration — sharding only relaxes the serial floor, which is
//! precisely the effect under study.  (Approximations: the access trace
//! is recorded single-threaded, so cache interference between concurrent
//! readers is not modeled, and single-flight coalescing of same-page
//! faults is treated as full overlap — distinct-page fetches in one
//! shard really do overlap, same-page fetches collapse to one read and
//! are priced once.  Shard counts leave hit ratios essentially
//! unchanged, so the comparison across shard counts is fair.)
//!
//! The headline consequence: a **1-shard pool now scales with reader
//! threads on miss-heavy workloads** — its floor is latch bookkeeping,
//! not I/O — and sharding matters only once aggregate latch traffic,
//! not device latency, becomes the bottleneck.
//!
//! Alongside the model, the experiment *actually runs* the batch on real
//! threads through [`RiTree::intersection_batch`] at every configuration
//! and asserts the answers are identical to the sequential run — the
//! façade's correctness is exercised even where its speed cannot be
//! observed.  Wall-clock numbers are printed for reference on `#` lines;
//! every other line must stay byte-stable across runs.

use crate::harness::{build_ritree, f, fresh_env_sharded, section, Env};
use ri_pagestore::{IoSnapshot, LatencyModel};
use ri_workloads::{d1, queries_for_selectivity};
use ritree_core::{Interval, RiTree, UPPER_NOW};
use std::time::Instant;

/// Shard counts compared by the experiment.
pub const SHARD_COUNTS: [usize; 3] = [1, 4, 16];
/// Reader thread counts evaluated per shard count.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Deterministic cost model for concurrent query batches (see the module
/// docs for the derivation).
#[derive(Clone, Copy, Debug)]
pub struct ContentionModel {
    /// Prices physical reads/writes and per-row executor CPU.
    pub latency: LatencyModel,
    /// Seconds a page access holds its shard lock for bookkeeping and the
    /// frame memcpy (the simulated late-90s host, like
    /// [`LatencyModel`]'s defaults).
    pub seconds_per_latch: f64,
    /// Seconds of per-access CPU outside the lock (node decode, binary
    /// search).
    pub seconds_per_access_cpu: f64,
}

impl Default for ContentionModel {
    fn default() -> Self {
        ContentionModel {
            latency: LatencyModel::default(),
            seconds_per_latch: 2.0e-6,
            seconds_per_access_cpu: 5.0e-6,
        }
    }
}

impl ContentionModel {
    /// The serial timeline of one shard: its lock admits one hold at a
    /// time — one bookkeeping hold per logical access (hit or reserve)
    /// plus one publish hold per device operation.  Device reads and
    /// writes run *outside* the lock (miss promotion) and therefore do
    /// not appear here; they are charged to the aggregate work instead.
    pub fn shard_serial_seconds(&self, shard: &IoSnapshot) -> f64 {
        (shard.logical_reads + shard.logical_writes + shard.physical_reads + shard.physical_writes)
            as f64
            * self.seconds_per_latch
    }

    /// Simulated seconds of work behind the access counts `io` and `rows`
    /// executor rows: device I/O and per-row CPU, plus per-access latch
    /// and CPU time.
    pub fn work_seconds(&self, io: &IoSnapshot, rows: u64) -> f64 {
        let accesses = (io.logical_reads + io.logical_writes) as f64;
        self.latency.simulate(io, rows)
            + accesses * (self.seconds_per_latch + self.seconds_per_access_cpu)
    }

    /// Simulated seconds for `threads` readers to drain a batch whose
    /// per-shard access counts are `per_shard` and whose executor touched
    /// `rows` rows.
    fn makespan_seconds(&self, per_shard: &[IoSnapshot], rows: u64, threads: usize) -> f64 {
        let mut total = IoSnapshot::default();
        let mut floor = 0.0f64;
        for s in per_shard {
            total.accumulate(s);
            floor = floor.max(self.shard_serial_seconds(s));
        }
        (self.work_seconds(&total, rows) / threads.max(1) as f64).max(floor)
    }
}

/// One measured configuration.
#[derive(Clone, Copy, Debug)]
pub struct Throughput {
    /// Buffer pool shard count.
    pub shards: usize,
    /// Reader thread count.
    pub threads: usize,
    /// Modeled queries per second.
    pub queries_per_sec: f64,
    /// Modeled speedup over the 1-shard pool at the same thread count.
    pub speedup_vs_global_lock: f64,
    /// Average physical block accesses per query (deterministic).
    pub phys_io_per_query: f64,
    /// Largest single shard's share of the serial floor, in seconds.
    pub max_shard_serial_sec: f64,
}

/// Everything the experiment produced.
pub struct ConcurrencyReport {
    /// One entry per (shards, threads) pair, shards-major.
    pub rows: Vec<Throughput>,
}

struct BatchTrace {
    per_shard: Vec<IoSnapshot>,
    rows_examined: u64,
    wall_seq_ms: f64,
}

/// Runs the query batch once, single-threaded, from a cold cache, and
/// records the deterministic per-shard access trace.
fn trace_batch(env: &Env, tree: &RiTree, queries: &[Interval]) -> BatchTrace {
    env.pool.clear_cache().expect("cache clear");
    let stats = env.pool.stats();
    let before = stats.per_shard();
    let mut rows_examined = 0u64;
    let wall = Instant::now();
    for &q in queries {
        let (_, es) = tree.intersection_with_stats(q, UPPER_NOW - 1).expect("query");
        rows_examined += es.rows_examined;
    }
    let wall_seq_ms = wall.elapsed().as_secs_f64() * 1000.0;
    let per_shard: Vec<IoSnapshot> =
        stats.per_shard().iter().zip(&before).map(|(a, b)| a.since(b)).collect();
    BatchTrace { per_shard, rows_examined, wall_seq_ms }
}

/// Runs the experiment and prints its tables.
pub fn run(quick: bool) -> ConcurrencyReport {
    section("Figure 18: query throughput vs reader threads, pool shards 1/4/16");
    let n = if quick { 10_000 } else { 100_000 };
    let nq = if quick { 50 } else { 200 };
    let spec = d1(n, 2000);
    let data = spec.generate(18);
    let intervals = queries_for_selectivity(&spec, 0.01, nq, 1800);
    let queries: Vec<Interval> =
        intervals.iter().map(|&(l, u)| Interval::new(l, u).expect("valid query")).collect();

    let model = ContentionModel::default();
    let mut rows: Vec<Throughput> = Vec::new();
    // Every configuration's speedup is reported relative to the 1-shard
    // (global-lock) pool at the same thread count, so that baseline must
    // be measured first.
    assert_eq!(SHARD_COUNTS[0], 1, "the global-lock baseline must come first");
    let mut global_lock_qps = vec![0.0f64; THREAD_COUNTS.len()];

    println!("workload: intervals,queries");
    println!("{n},{}", queries.len());
    println!(
        "model: seconds_per_read,seconds_per_write,seconds_per_row,seconds_per_latch,\
         seconds_per_access_cpu"
    );
    println!(
        "{},{},{},{},{}",
        model.latency.seconds_per_read,
        model.latency.seconds_per_write,
        model.latency.seconds_per_row,
        model.seconds_per_latch,
        model.seconds_per_access_cpu
    );
    println!(
        "shards,threads,queries_per_sec,speedup_vs_1shard,phys_io_per_query,max_shard_serial_sec"
    );
    for &shards in &SHARD_COUNTS {
        let env = fresh_env_sharded(200, shards);
        let tree = build_ritree(&env, &data);
        let trace = trace_batch(&env, &tree, &queries);
        let phys_total: u64 = trace.per_shard.iter().map(IoSnapshot::physical_total).sum();

        // Correctness of the concurrent façade at every thread count: the
        // threaded batch must reproduce the sequential answers exactly.
        let sequential: Vec<Vec<i64>> =
            queries.iter().map(|&q| tree.intersection(q).expect("query")).collect();
        let mut wall_par_ms = f64::NAN;
        for &threads in &THREAD_COUNTS {
            let wall = Instant::now();
            let batched = tree.intersection_batch(&queries, threads).expect("batch");
            let elapsed_ms = wall.elapsed().as_secs_f64() * 1000.0;
            assert_eq!(batched, sequential, "parallel batch diverged at {threads} threads");
            if threads == 4 {
                wall_par_ms = elapsed_ms;
            }
        }

        for (ti, &threads) in THREAD_COUNTS.iter().enumerate() {
            let makespan = model.makespan_seconds(&trace.per_shard, trace.rows_examined, threads);
            let qps = queries.len() as f64 / makespan;
            if shards == 1 {
                global_lock_qps[ti] = qps;
            }
            let speedup = qps / global_lock_qps[ti];
            let max_floor = trace
                .per_shard
                .iter()
                .map(|s| model.shard_serial_seconds(s))
                .fold(0.0f64, f64::max);
            let phys_io = phys_total as f64 / queries.len() as f64;
            println!("{shards},{threads},{qps:.3},{speedup:.3},{phys_io:.3},{max_floor:.6}");
            rows.push(Throughput {
                shards,
                threads,
                queries_per_sec: qps,
                speedup_vs_global_lock: speedup,
                phys_io_per_query: phys_io,
                max_shard_serial_sec: max_floor,
            });
        }
        println!(
            "# shards={shards}: wall sequential {} ms, wall 4-thread batch {} ms (informational, machine-dependent)",
            f(trace.wall_seq_ms),
            f(wall_par_ms)
        );
    }
    println!("# pages route to shards by `id & mask`, so the 4- and 16-shard rows'");
    println!("# phys_io_per_query and speed-ups move by about ±1 % whenever page ids shift");
    println!("# model: device reads run outside the shard lock (miss promotion), so");
    println!("# even the 1-shard pool scales with reader threads on miss-heavy work;");
    println!("# the residual per-shard floor is latch bookkeeping (reserve/hit + publish)");

    ConcurrencyReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_has_a_hard_serial_floor() {
        let m = ContentionModel::default();
        // One shard holding all the latch traffic: threads cannot push
        // makespan below the shard's lock-hold timeline.
        let shard = IoSnapshot {
            logical_reads: 1000,
            logical_writes: 0,
            physical_reads: 400,
            physical_writes: 0,
        };
        let floor = m.shard_serial_seconds(&shard);
        let m1 = m.makespan_seconds(&[shard], 0, 1);
        let m10k = m.makespan_seconds(&[shard], 0, 10_000);
        assert!(m1 >= m10k);
        assert!((m10k - floor).abs() < 1e-12, "many threads bottom out at the serial floor");
    }

    #[test]
    fn device_latency_no_longer_charges_the_floor() {
        // Same latch traffic, wildly different miss counts: the serial
        // floor must move only by the publish holds (t_latch per miss),
        // never by device read latency — misses are promoted.
        let m = ContentionModel::default();
        let cold = IoSnapshot {
            logical_reads: 1000,
            logical_writes: 0,
            physical_reads: 900,
            physical_writes: 0,
        };
        let warm = IoSnapshot { physical_reads: 0, ..cold };
        let delta = m.shard_serial_seconds(&cold) - m.shard_serial_seconds(&warm);
        assert!((delta - 900.0 * m.seconds_per_latch).abs() < 1e-12);
        assert!(
            delta < 900.0 * m.latency.seconds_per_read / 100.0,
            "900 cold fetches must cost the floor far less than their device time"
        );
    }

    #[test]
    fn spreading_latch_traffic_over_shards_lifts_the_floor() {
        let m = ContentionModel::default();
        // A hit-heavy trace: aggregate work is small, so the latch floor
        // binds and sharding it is what scales.
        let one = IoSnapshot {
            logical_reads: 1_600_000,
            logical_writes: 0,
            physical_reads: 0,
            physical_writes: 0,
        };
        let sixteenth = IoSnapshot { logical_reads: 100_000, ..one };
        let spread = vec![sixteenth; 16];
        let at64_global = m.makespan_seconds(&[one], 0, 64);
        let at64_sharded = m.makespan_seconds(&spread, 0, 64);
        assert!(
            at64_global >= 2.0 * at64_sharded,
            "expected >= 2x: global {at64_global}, sharded {at64_sharded}"
        );
    }

    #[test]
    fn quick_run_meets_the_scaling_bar() {
        let report = run(true);
        let qps = |shards: usize, threads: usize| {
            report
                .rows
                .iter()
                .find(|r| r.shards == shards && r.threads == threads)
                .map(|r| r.queries_per_sec)
                .expect("configuration measured")
        };
        // The bar miss promotion must clear: the 1-shard pool scales with
        // reader threads on this miss-heavy workload, because misses no longer
        // serialize on the shard lock.
        for threads in [4, 8] {
            assert!(
                qps(1, threads) >= 2.0 * qps(1, 1),
                "1-shard pool must scale at {threads} threads once misses are promoted"
            );
        }
        // Sharding can no longer be *worse* than the global pool in any
        // meaningful way (traces differ slightly per shard layout), and
        // more threads never model slower.
        for threads in THREAD_COUNTS {
            assert!(
                qps(16, threads) >= 0.9 * qps(1, threads),
                "16 shards must stay within noise of 1 shard at {threads} threads"
            );
        }
        assert!(qps(16, 8) >= qps(16, 4));
    }
}
