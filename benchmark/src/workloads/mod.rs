//! The five workloads and what they share.
//!
//! Every workload is a closed loop with one client thread: the next
//! operation starts when the previous one returned.  A run is a few
//! rounds of [set the database up, measure for a share of `--seconds`];
//! then it checks every answer it got against the oracle.  Timings are
//! corrected for the machine's speed ([`slowdown`]) and every operation
//! counts in them.  Exact counts (pages read, bytes logged) are taken
//! over a *counted prefix* — a fixed number of operations at the start of
//! the first measured phase, run to the end however short `--seconds` is
//! — so they repeat exactly for a seed on any machine.

mod ingest_recover;
mod read;
mod tier;
mod write_commit;

use crate::disk::{DiskSnapshot, Scratch};
use crate::inputs::{Item, Scale, ROW_BYTES};
use crate::metrics::Metrics;
use crate::stats::{median, percentile_sorted, slowdown};
use crate::trace::TraceReport;
use ri_tree::core::RiTree;
use ri_tree::pagestore::{
    BufferPool, Error, IoSnapshot, LatchSnapshot, MissSnapshot, Result, WalSnapshot,
    DEFAULT_PAGE_SIZE,
};
use ri_tree::relstore::Database;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Page size of every device: the paper's 2 KB blocks.
pub const PAGE: usize = DEFAULT_PAGE_SIZE;
/// The paper's database block cache: 200 frames.
pub const PAPER_FRAMES: usize = 200;
/// Name the RI-tree is created under.
pub const TREE: &str = "bench";

/// The workloads; their names are permanent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ReadCold,
    ReadHot,
    ReadZipfTier,
    WriteCommit,
    IngestRecover,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ReadCold,
        Workload::ReadHot,
        Workload::ReadZipfTier,
        Workload::WriteCommit,
        Workload::IngestRecover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadCold => "read_cold",
            Workload::ReadHot => "read_hot",
            Workload::ReadZipfTier => "read_zipf_tier",
            Workload::WriteCommit => "write_commit",
            Workload::IngestRecover => "ingest_recover",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's parameters.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: spans and device wrappers on, per-layer metrics out.
    pub trace: bool,
    pub scale: Scale,
    /// Scratch files and trace files go here.
    pub out_dir: PathBuf,
}

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Operations issued plus answers checked.
    pub attempted: u64,
    /// Operations that returned an error plus answers that were wrong.
    pub failed: u64,
    pub metrics: Metrics,
    /// Digest of the run's inputs (same seed, same digest).
    pub digest: u64,
}

/// Runs `cfg.workload` once.
pub fn run(cfg: &RunConfig) -> Result<Outcome> {
    std::fs::create_dir_all(&cfg.out_dir)?;
    match cfg.workload {
        Workload::ReadCold => read::run(cfg, false),
        Workload::ReadHot => read::run(cfg, true),
        Workload::ReadZipfTier => tier::run(cfg),
        Workload::WriteCommit => write_commit::run(cfg),
        Workload::IngestRecover => ingest_recover::run(cfg),
    }
}

/// Runs `cfg.scale.setup_repeats` rounds of `setup()` followed by
/// `measure(&mut env, seconds)` with an equal share of `cfg.seconds`,
/// dropping each environment before the next is set up.  A traced run sets
/// up once and measures nothing here: its phases run on the environment
/// this returns.  Returns the last environment and every set-up's time in
/// seconds; [`OpLog::report_end_to_end`] makes `setup_s` of them.
///
/// The contract asks for several set-ups per run, so that `setup_s` is a
/// median.  Measuring a share of `--seconds` after *each* of them, rather
/// than all of it after the last, costs nothing more and spreads the
/// measured operations over the whole run, which halves the run-to-run
/// spread of the timings (see the README): the machine's best, which
/// [`slowdown`] measures against, is likelier to show in 20 s than in 12.
fn rounds<T>(
    cfg: &RunConfig,
    mut setup: impl FnMut() -> Result<T>,
    mut measure: impl FnMut(&mut T, f64) -> Result<()>,
) -> Result<(T, Vec<f64>)> {
    let repeats = if cfg.trace { 1 } else { cfg.scale.setup_repeats.max(1) };
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let start = Instant::now();
        let mut env = setup()?;
        times.push(start.elapsed().as_secs_f64());
        if !cfg.trace {
            measure(&mut env, cfg.seconds / repeats as f64)?;
        }
        last = Some(env);
    }
    eprintln!("# set-up times: {times:.3?} s");
    Ok((last.expect("at least one round ran"), times))
}

/// Share of the untraced throughput that tracing cost, in percent.
fn overhead_pct(untraced_ops_per_s: f64, traced_ops_per_s: f64) -> f64 {
    if untraced_ops_per_s == 0.0 {
        return 0.0;
    }
    (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s * 100.0
}

/// Writes a traced phase's aggregates and kept span trees to
/// `trace-<workload>.json` in the output directory.
fn write_trace(cfg: &RunConfig, report: &TraceReport) -> Result<()> {
    let name = cfg.workload.name();
    let path = cfg.out_dir.join(format!("trace-{name}.json"));
    Ok(std::fs::write(path, report.to_json(name, cfg.seed).pretty())?)
}

/// A database with one empty RI-tree on `pool`.
fn create_tree(pool: &Arc<BufferPool>) -> Result<RiTree> {
    let db = Arc::new(Database::create(Arc::clone(pool))?);
    RiTree::create(db, TREE)
}

/// Peak resident set of this process (`VmHWM`) less the bytes its
/// in-memory devices hold, in MB.  Call it straight after the measured
/// phase: verification builds an oracle of its own.
///
/// A `MemDisk` stands in for storage — the 200 k-row durable load alone
/// leaves 259 MB of log on one — so with the devices in, the number would
/// follow the bytes written and hide the engine's own memory (the pool,
/// the hot tier, the bulk loader's buffers) behind them.
fn peak_rss_mb(scratch: &Scratch) -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let peak_kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .ok_or_else(|| Error::InvalidArgument("no VmHWM in /proc/self/status".into()))?;
    Ok((peak_kb * 1024.0 - scratch.mem_device_bytes() as f64) / (1 << 20) as f64)
}

/// Runs `step(i)` for `i = 0, 1, …` until at least `min_steps` ran and
/// `seconds` passed; returns the number of steps.
fn drive(seconds: f64, min_steps: usize, mut step: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut i = 0;
    while i < min_steps || start.elapsed().as_secs_f64() < seconds {
        step(i);
        i += 1;
    }
    i
}

/// Times one call, in nanoseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

/// Latencies of the operations of one measured phase, in issue order.
///
/// `latency_ns[i]` is what the user waited for operation `i`; `busy_ns[i]`
/// adds what the client did before it could issue the next one (the tier
/// workload's maintenance DML, `ingest_recover`'s recovery), so that
/// operations ÷ Σ busy is the throughput the client saw.
#[derive(Clone, Debug, Default)]
struct OpLog {
    latency_ns: Vec<u64>,
    busy_ns: Vec<u64>,
    /// Where each appended phase (one per round) starts.
    phases: Vec<usize>,
}

impl OpLog {
    fn push(&mut self, latency_ns: u64) {
        self.latency_ns.push(latency_ns);
        self.busy_ns.push(latency_ns);
    }

    /// Charges `ns` of client time to the latest operation's busy time.
    fn add_busy(&mut self, ns: u64) {
        if let Some(last) = self.busy_ns.last_mut() {
            *last += ns;
        }
    }

    fn len(&self) -> usize {
        self.latency_ns.len()
    }

    /// Appends the operations of a later phase.
    fn append(&mut self, mut later: OpLog) {
        self.phases.push(self.len());
        self.latency_ns.append(&mut later.latency_ns);
        self.busy_ns.append(&mut later.busy_ns);
    }

    /// Operations per second, every operation and all the client's busy
    /// time counted, each at the machine's best speed: its time divided
    /// by its factor of `slowdown` (see [`slowdown`]).
    fn rate(&self, slowdown: &[f64]) -> f64 {
        let busy: f64 = self.busy_ns.iter().zip(slowdown).map(|(&ns, s)| ns as f64 / s).sum();
        self.len() as f64 * 1e9 / busy.max(1.0)
    }

    fn ops_per_s(&self) -> f64 {
        self.rate(&slowdown(&self.latency_ns))
    }

    /// The `pct`-th percentile of the latencies, steadied, in microseconds.
    fn percentile_us(&self, pct: f64) -> f64 {
        steady_us(&self.latency_ns, &slowdown(&self.latency_ns), pct)
    }

    /// `setup_s`: the median of the rounds' set-up times, each divided by
    /// the mean factor of `slowdown` over the operations measured right
    /// after it — the nearest reading of the machine's speed a set-up has,
    /// being one long operation with no windows of its own.  Uncorrected,
    /// the medians of two ten-seed sets hours apart differed by up to 27 %
    /// (the bound, at the contract's maximum, is 25 %); corrected, by 16 %.
    fn steady_setup_s(&self, setup_s: &[f64], slowdown: &[f64]) -> f64 {
        let ends = self.phases.iter().skip(1).copied().chain([self.len()]);
        let phases: Vec<_> = self.phases.iter().copied().zip(ends).collect();
        if phases.len() != setup_s.len() {
            return median(setup_s).unwrap_or(0.0);
        }
        let steady: Vec<f64> = setup_s
            .iter()
            .zip(phases)
            .map(|(&s, (start, end))| {
                let factors = &slowdown[start..end];
                s * factors.len().max(1) as f64 / factors.iter().sum::<f64>().max(1.0)
            })
            .collect();
        median(&steady).unwrap_or(0.0)
    }

    /// The end-to-end latency and throughput metrics every workload
    /// reports, and throughput in operations per second, corrected and as
    /// the clock read it, for the eye.
    ///
    /// Only the median carries a scale.  The tail and the throughput —
    /// all the client's busy time per operation — are gated as ratios to
    /// it, because a scale carries the machine's mood: between runs
    /// minutes apart even the best windows differ (8 % on the
    /// memory-bound `read_zipf_tier`, whose `ops_per_s` then differs
    /// 20 %), and what reads the same in both is the shape (see the
    /// README).  `ops_per_s = 1e6 / (op_p50_us * op_mean_over_p50)`.
    fn report_end_to_end(&self, m: &mut Metrics, setup_s: &[f64]) {
        let slowdown = slowdown(&self.latency_ns);
        m.set("setup_s", self.steady_setup_s(setup_s, &slowdown));
        let p50_us = steady_us(&self.latency_ns, &slowdown, 50.0);
        let p95_us = steady_us(&self.latency_ns, &slowdown, 95.0);
        let mean_us = 1e6 / self.rate(&slowdown);
        m.set("op_p50_us", p50_us);
        m.set("op_mean_over_p50", mean_us / p50_us.max(1e-9));
        m.set("op_p95_over_p50", p95_us / p50_us.max(1e-9));
        let as_read = vec![1.0; self.len()];
        eprintln!(
            "# {:.1} ops/s; as the clock read it {:.1} ops/s, p50 {:.1} us, p95 {:.1} us; \
             mean slowdown {:.3}",
            self.rate(&slowdown),
            self.rate(&as_read),
            steady_us(&self.latency_ns, &as_read, 50.0),
            steady_us(&self.latency_ns, &as_read, 95.0),
            slowdown.iter().sum::<f64>() / slowdown.len().max(1) as f64,
        );
    }
}

/// The `pct`-th percentile of `samples_ns`, each divided by its operation's
/// factor of `slowdown`, in microseconds (0 if there is no sample).
/// `samples_ns` may be shorter than `slowdown` (a trailing half-finished
/// pair); the overhang is ignored.
fn steady_us(samples_ns: &[u64], slowdown: &[f64], pct: f64) -> f64 {
    let mut steady: Vec<f64> =
        samples_ns.iter().zip(slowdown).map(|(&ns, s)| ns as f64 / s).collect();
    if steady.is_empty() {
        return 0.0;
    }
    steady.sort_by(f64::total_cmp);
    percentile_sorted(&steady, pct) / 1e3
}

/// Percentile of `samples_ns` as the clock read them, in microseconds (0
/// if empty): for the ungated `tail.*` metrics, whose point is the worst
/// the client saw.
fn tail_us(samples_ns: &[u64], pct: f64) -> f64 {
    if samples_ns.is_empty() {
        return 0.0;
    }
    let mut sorted = samples_ns.to_vec();
    sorted.sort_unstable();
    percentile_sorted(&sorted, pct) as f64 / 1e3
}

/// Mean of nanosecond samples, in microseconds (0 if empty).
fn mean_us(samples_ns: &[u64]) -> f64 {
    if samples_ns.is_empty() {
        return 0.0;
    }
    samples_ns.iter().sum::<u64>() as f64 / samples_ns.len() as f64 / 1e3
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Every counter the engine exposes, read at one instant.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    io: IoSnapshot,
    miss: MissSnapshot,
    latch: LatchSnapshot,
    wal: WalSnapshot,
    data_disk: DiskSnapshot,
    log_disk: DiskSnapshot,
}

impl Counters {
    fn read(pool: &BufferPool) -> Counters {
        Counters {
            io: pool.stats().snapshot(),
            miss: pool.stats().miss_snapshot(),
            latch: pool.latches().stats(),
            wal: pool.wal().map(|w| w.stats()).unwrap_or_default(),
            ..Counters::default()
        }
    }

    fn since(&self, earlier: &Counters) -> Counters {
        let (w, e) = (&self.wal, &earlier.wal);
        Counters {
            io: self.io.since(&earlier.io),
            miss: self.miss.since(&earlier.miss),
            latch: self.latch.since(&earlier.latch),
            wal: WalSnapshot {
                records: w.records - e.records,
                record_bytes: w.record_bytes - e.record_bytes,
                commits: w.commits - e.commits,
                commit_syncs: w.commit_syncs - e.commit_syncs,
                group_commits: w.group_commits - e.group_commits,
                forced_syncs: w.forced_syncs - e.forced_syncs,
                checkpoint_syncs: w.checkpoint_syncs - e.checkpoint_syncs,
                syncs: w.syncs - e.syncs,
                checkpoints: w.checkpoints - e.checkpoints,
                log_page_writes: w.log_page_writes - e.log_page_writes,
                flusher_writes: w.flusher_writes - e.flusher_writes,
                flusher_bytes: w.flusher_bytes - e.flusher_bytes,
                segments_created: w.segments_created - e.segments_created,
                segments_retired: w.segments_retired - e.segments_retired,
            },
            data_disk: self.data_disk.since(&earlier.data_disk),
            log_disk: self.log_disk.since(&earlier.log_disk),
        }
    }

    /// `pool.*` per-layer metrics over `ops` operations.
    fn report_pool(&self, m: &mut Metrics, ops: u64) {
        m.set("phys_reads_per_op", ratio(self.io.physical_reads, ops));
        m.set("pool.logical_reads_per_op", ratio(self.io.logical_reads, ops));
        m.set("pool.physical_writes_per_op", ratio(self.io.physical_writes, ops));
        m.set("pool.hit_ratio", self.io.hit_ratio());
        m.set("pool.coalesced_faults", self.miss.coalesced_faults as f64);
        m.set("pool.latch_acquisitions_per_op", ratio(self.latch.total_acquisitions(), ops));
        m.set("btree.splits", self.latch.splits as f64);
        m.set("btree.right_link_chases", self.latch.right_link_chases as f64);
    }

    /// `wal.*` per-layer metrics over `txns` transactions that changed
    /// `rows` user rows.
    fn report_wal(&self, m: &mut Metrics, txns: u64, rows: u64) {
        let w = &self.wal;
        m.set("wal_bytes_per_user_byte", ratio(w.record_bytes, rows * ROW_BYTES));
        m.set("wal.record_bytes_per_txn", ratio(w.record_bytes, txns));
        m.set("wal.records_per_txn", ratio(w.records, txns));
        m.set("wal.syncs_per_txn", ratio(w.syncs, txns));
        m.set("wal.log_page_writes_per_txn", ratio(w.log_page_writes, txns));
        m.set("wal.flusher_bytes_share", ratio(w.flusher_bytes, w.record_bytes));
        m.set("wal.segments_created", w.segments_created as f64);
        m.set("wal.segments_retired", w.segments_retired as f64);
    }

    /// `disk.*` per-layer metrics (traced runs only: the counts come from
    /// the `TracedDisk` wrappers).
    fn report_disks(&self, m: &mut Metrics) {
        m.set("disk.data_reads", self.data_disk.reads as f64);
        m.set("disk.data_writes", self.data_disk.writes as f64);
        m.set("disk.data_syncs", self.data_disk.syncs as f64);
        m.set("disk.data_busy_us", self.data_disk.busy_ns as f64 / 1e3);
        m.set("disk.log_writes", self.log_disk.writes as f64);
        m.set("disk.log_syncs", self.log_disk.syncs as f64);
        m.set("disk.log_bytes", (self.log_disk.writes * PAGE as u64) as f64);
        m.set("disk.log_busy_us", self.log_disk.busy_ns as f64 / 1e3);
    }
}

/// The two storage-cost metrics every workload reports, from the empty
/// database to the moment they are read: bytes the data device holds, and
/// bytes written (data pages plus WAL records), each per byte of live
/// user data.  Read at the end of the counted prefix, they are exact.
#[derive(Clone, Copy, Debug, Default)]
struct StorageCost {
    space_bytes_per_user_byte: f64,
    written_bytes_per_user_byte: f64,
}

impl StorageCost {
    fn read(pool: &BufferPool, live_rows: u64) -> StorageCost {
        let user_bytes = (live_rows * ROW_BYTES) as f64;
        let counters = Counters::read(pool);
        let written = counters.io.physical_writes * PAGE as u64 + counters.wal.record_bytes;
        StorageCost {
            space_bytes_per_user_byte: (pool.num_pages() * PAGE as u64) as f64 / user_bytes,
            written_bytes_per_user_byte: written as f64 / user_bytes,
        }
    }

    fn report(&self, m: &mut Metrics) {
        m.set("space_bytes_per_user_byte", self.space_bytes_per_user_byte);
        m.set("written_bytes_per_user_byte", self.written_bytes_per_user_byte);
    }
}

/// `btree.height` / `btree.pages` of the tree's two indexes.
fn report_index_shape(m: &mut Metrics, tree: &RiTree) -> Result<()> {
    let db = tree.db();
    let table = tree.table_name();
    let lower = db.index_stats(table, &format!("{table}_LOWER"))?;
    let upper = db.index_stats(table, &format!("{table}_UPPER"))?;
    m.set("btree.height", f64::from(lower.height.max(upper.height)));
    m.set("btree.pages", (lower.pages + upper.pages) as f64);
    Ok(())
}

/// Checks a write workload's final state: the row count, then stabbing
/// queries against an oracle over `live`.  Returns `(checked, wrong)`.
fn verify_final_state(tree: &RiTree, live: &[Item], stabs: &[i64]) -> (u64, u64) {
    let expected_rows = live.len() as u64;
    let oracle = crate::oracle::Oracle::build(live.iter().copied());
    let mut wrong = u64::from(tree.count().ok() != Some(expected_rows));
    for &p in stabs {
        let expected = oracle.answer(ri_tree::core::Interval::point(p));
        let got = tree.stab(p).map(|ids| crate::oracle::Answer::of(&ids));
        wrong += u64::from(got.ok() != Some(expected));
    }
    (1 + stabs.len() as u64, wrong)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn drive_runs_the_counted_prefix_even_with_no_time() {
        let mut seen = Vec::new();
        assert_eq!(drive(0.0, 5, |i| seen.push(i)), 5);
        assert_eq!(seen, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn rounds_measure_after_every_set_up_and_keep_the_last() {
        let mut cfg = RunConfig {
            workload: Workload::ReadHot,
            seed: 1,
            seconds: 6.0,
            trace: false,
            scale: Scale { setup_repeats: 3, ..Scale::smoke() },
            out_dir: PathBuf::new(),
        };
        let (mut set_ups, mut measured) = (0, Vec::new());
        let mut run = |cfg: &RunConfig| {
            rounds(
                cfg,
                || {
                    set_ups += 1;
                    Ok(set_ups)
                },
                |env, share| {
                    measured.push((*env, share));
                    Ok(())
                },
            )
            .unwrap()
        };
        let (value, times) = run(&cfg);
        assert_eq!(value, 3);
        assert_eq!(times.len(), 3);
        // A traced run sets up once and leaves measuring to its caller.
        cfg.trace = true;
        assert_eq!(run(&cfg).0, 4);
        assert_eq!(measured, [(1, 2.0), (2, 2.0), (3, 2.0)]);
    }

    #[test]
    fn rates_and_percentiles_count_every_operation_at_the_machines_best() {
        // 64 windows of 16 ops at 1 ms; all but the last five run 30 % slow.
        let mut log = OpLog::default();
        for i in 0..1024 {
            log.push(if i < 944 { 1_300_000 } else { 1_000_000 });
        }
        let mut m = Metrics::default();
        log.report_end_to_end(&mut m, &[2.0]);
        assert!((log.ops_per_s() - 1000.0).abs() < 1e-6);
        assert!((m.get("op_p50_us").unwrap() - 1000.0).abs() < 1e-6);
        assert!((m.get("op_mean_over_p50").unwrap() - 1.0).abs() < 1e-9);
        assert!((m.get("op_p95_over_p50").unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(tail_us(&log.latency_ns, 50.0), 1300.0);
        // One operation in ten takes thirty times as long, in the slow
        // spell and out of it: it is the 95th percentile, and it takes 30
        // of every 39 ms: the mean operation is about 3.9 median ones.
        for slot in (5..1024).step_by(10) {
            log.latency_ns[slot] *= 30;
            log.busy_ns[slot] *= 30;
        }
        log.report_end_to_end(&mut m, &[2.0]);
        assert!((m.get("op_p50_us").unwrap() - 1000.0).abs() < 1e-6);
        assert!((m.get("op_p95_over_p50").unwrap() - 30.0).abs() < 1e-6);
        let mean_ms = (1024.0 - 102.0 + 102.0 * 30.0) / 1024.0;
        assert!((m.get("op_mean_over_p50").unwrap() - mean_ms).abs() < 1e-9);
        assert!((log.ops_per_s() - 1000.0 / mean_ms).abs() < 1e-6);
        // Client time between operations lowers the rate, not the latency.
        let mut stalled = OpLog::default();
        for _ in 0..10 {
            stalled.push(1_000_000);
            stalled.add_busy(1_000_000);
        }
        stalled.report_end_to_end(&mut m, &[2.0]);
        assert!((stalled.ops_per_s() - 500.0).abs() < 1e-6);
        assert!((m.get("op_mean_over_p50").unwrap() - 2.0).abs() < 1e-9);
        assert!((m.get("op_p50_us").unwrap() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn set_up_times_are_read_at_the_speed_of_the_phase_after_them() {
        // Two rounds of 320 operations: the first measured on a quiet
        // machine, the second on one running 30 % slow.
        let mut log = OpLog::default();
        for ns in [1_000_000, 1_300_000] {
            let mut phase = OpLog::default();
            for _ in 0..320 {
                phase.push(ns);
            }
            log.append(phase);
        }
        let mut m = Metrics::default();
        log.report_end_to_end(&mut m, &[2.0, 2.6]);
        assert!((m.get("setup_s").unwrap() - 2.0).abs() < 1e-9);
        assert!((m.get("op_p50_us").unwrap() - 1000.0).abs() < 1e-6);
        // Set-ups that match no phase are taken as the clock read them.
        log.report_end_to_end(&mut m, &[2.0, 2.6, 5.0]);
        assert_eq!(m.get("setup_s"), Some(2.6));
    }

    #[test]
    fn tails_use_every_sample() {
        assert_eq!(tail_us(&[1000, 9000, 2000], 100.0), 9.0);
        assert_eq!(tail_us(&[], 99.0), 0.0);
    }

    #[test]
    fn peak_rss_leaves_the_memory_devices_out() {
        let scratch = Scratch::new(&crate::cli::out_dir(), "peak-rss-test").unwrap();
        assert!(peak_rss_mb(&scratch).unwrap() > 1.0);
        let disk = scratch.device(crate::disk::DeviceKind::Mem, "data.db", PAGE).unwrap();
        for _ in 0..512 {
            disk.allocate_page().unwrap();
        }
        assert_eq!(scratch.mem_device_bytes(), 512 * PAGE as u64);
        drop(disk);
        assert_eq!(scratch.mem_device_bytes(), 0);
    }
}
