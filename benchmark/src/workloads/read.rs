//! `read_cold` and `read_hot`: the paper's query experiment, timed.
//!
//! D1(n, 2000) is bulk-loaded, then a closed loop alternates a stabbing
//! query and a 0.5 %-selectivity intersection query at uniform positions.
//! `read_cold` keeps the paper's 200-frame pool over a file device — the
//! database is ≈250× the cache, so the pool's miss path, device reads and
//! leaf scans carry the load.  `read_hot` gives the pool room for the
//! whole database and touches every page first, so not one device read
//! happens and only the CPU path (plan, executor, B-tree, pool hit path)
//! is left.  One *operation* is a query pair: a stab, then a range.

use super::{
    create_tree, drive, overhead_pct, peak_rss_mb, report_index_shape, rounds, steady_us, tail_us,
    timed, write_trace, Counters, OpLog, Outcome, RunConfig, StorageCost, PAGE, PAPER_FRAMES,
};
use crate::disk::{DeviceKind, DiskCounters, Scratch, TracedDisk, DATA};
use crate::inputs::{items, stream, Digest, Item, QuerySet, MEAN_DURATION};
use crate::metrics::Metrics;
use crate::oracle::{Answer, Oracle};
use crate::stats::slowdown;
use crate::{probes, trace};
use ri_tree::core::{Interval, RiTree, UPPER_NOW};
use ri_tree::pagestore::{BufferPool, BufferPoolConfig, PageId, Result};
use ri_tree::relstore::{BoundExpr, ExecStats, Plan, Row, Table};
use ri_tree::workloads;
use std::sync::Arc;
use std::time::Instant;

/// Queries run (and discarded) before measuring, so the pool's LRU order
/// and the allocator are in steady state.
const WARM_QUERIES: usize = 256;
/// In the traced phase, one query pair in this many is replayed through
/// `BTree::scan_range` directly to split B-tree time from executor time.
const REPLAY_EVERY_PAIRS: usize = 4;
/// "Now" for now-relative intervals; the data holds none.
const NOW: i64 = UPPER_NOW - 1;

/// A loaded, warmed database and the inputs that made it.
pub(super) struct ReadEnv {
    pub pool: Arc<BufferPool>,
    pub tree: RiTree,
    pub data: Vec<Item>,
    pub queries: QuerySet,
    pub generate_s: f64,
    /// Device counters, in traced runs.
    pub disk: Option<Arc<DiskCounters>>,
}

impl ReadEnv {
    /// Generates D1(`query_spec.n`) and the query set from `query_spec`'s
    /// start distribution, bulk-loads the data into a `frames`-frame pool
    /// and checkpoints.
    pub fn load(
        cfg: &RunConfig,
        scratch: &Scratch,
        kind: DeviceKind,
        frames: usize,
        query_spec: &workloads::WorkloadSpec,
    ) -> Result<ReadEnv> {
        let start = Instant::now();
        let data = items(query_spec.n, cfg.seed, stream::BASE, 0);
        let queries = QuerySet::generate(query_spec, cfg.scale.query_pairs, cfg.seed);
        let generate_s = start.elapsed().as_secs_f64();

        let mut device = scratch.device(kind, "data.db", PAGE)?;
        let mut disk = None;
        if cfg.trace {
            let (traced, counters) = TracedDisk::wrap(device, DATA);
            device = traced;
            disk = Some(counters);
        }
        let pool = Arc::new(BufferPool::new(device, BufferPoolConfig::with_capacity(frames)));
        let tree = create_tree(&pool)?;
        tree.insert_batch(&data, 1)?;
        tree.db().checkpoint()?;
        Ok(ReadEnv { pool, tree, data, queries, generate_s, disk })
    }

    pub fn counters(&self) -> Counters {
        let mut c = Counters::read(&self.pool);
        if let Some(disk) = &self.disk {
            c.data_disk = disk.snapshot();
        }
        c
    }

    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        d.items(&self.data);
        d.queries(&self.queries);
        d.finish()
    }
}

pub(super) fn run(cfg: &RunConfig, hot: bool) -> Result<Outcome> {
    let scratch = Scratch::new(&cfg.out_dir, cfg.workload.name())?;
    let kind = if hot { DeviceKind::Mem } else { DeviceKind::File };
    let frames = if hot { cfg.scale.hot_frames } else { PAPER_FRAMES };
    let spec = workloads::d1(cfg.scale.read_rows, MEAN_DURATION);
    let mut failed = 0;
    let mut answers = Vec::new();
    let mut measured = Untraced::default();
    // Round `r` starts `r` shares into the query stream, so that the rounds
    // together ask as many different queries as one long phase would.
    let share = cfg.scale.query_pairs / cfg.scale.setup_repeats.max(1);
    let mut round = 0;
    let (env, setup_s) = rounds(
        cfg,
        || {
            let env = ReadEnv::load(cfg, &scratch, kind, frames, &spec)?;
            if hot {
                for id in 0..env.pool.num_pages() {
                    env.pool.with_page(PageId(id), |_| ())?;
                }
            }
            for i in 0..WARM_QUERIES {
                env.tree.intersection(env.queries.query(i))?;
            }
            Ok(env)
        },
        |env, seconds| {
            let first_pair = round * share;
            round += 1;
            measured.append(untraced_phase(
                env,
                cfg,
                first_pair,
                seconds,
                &mut answers,
                &mut failed,
            ));
            Ok(())
        },
    )?;

    let mut m = Metrics::default();
    m.set("workloads.generate_s", env.generate_s);

    if cfg.trace {
        // The untraced half goes first: it starts from the state set-up
        // left, as an untraced run does, so its counts repeat exactly.
        let untraced = untraced_phase(&env, cfg, 0, cfg.seconds / 2.0, &mut answers, &mut failed);
        let traced = traced_phase(&env, cfg, &mut m, &mut answers, &mut failed)?;
        untraced.counted.report_pool(&mut m, 2 * cfg.scale.counted_ops as u64);
        untraced.counted.report_disks(&mut m);
        report_split_latencies(&mut m, &untraced.log, &untraced.stab_ns, &untraced.range_ns);
        m.set("ops_per_s", untraced.log.ops_per_s());
        m.set("trace.overhead_pct", overhead_pct(untraced.log.ops_per_s(), traced));
        report_index_shape(&mut m, &env.tree)?;
        probes::storage_layers(&mut m, &env.pool, cfg.seed)?;
    } else {
        measured.log.report_end_to_end(&mut m, &setup_s);
        m.set("peak_rss_mb", peak_rss_mb(&scratch)?);
        // Nothing writes after the load, so any moment is the prefix's end.
        StorageCost::read(&env.pool, env.data.len() as u64).report(&mut m);
    }

    // Attempted: every query issued, plus every answer checked.
    let attempted = failed + 2 * answers.len() as u64;
    failed += count_wrong(&env.data, &env.queries, &answers);
    Ok(Outcome { attempted, failed, metrics: m, digest: env.digest() })
}

/// An answer the measured loop got, with the index of the query it is for.
pub(super) type Observed = (usize, Answer);

/// Compares every observed answer with the oracle's; returns how many
/// differ.
fn count_wrong(data: &[Item], queries: &QuerySet, observed: &[Observed]) -> u64 {
    let oracle = Oracle::build(data.iter().copied());
    observed.iter().filter(|&&(i, got)| oracle.answer(queries.query(i)) != got).count() as u64
}

/// The per-class latencies a read workload reports in traced runs (from
/// their untraced half): the issue's `stab_*` / `range_*` / `tail.*`.
/// `stab_ns[i]` and `range_ns[i]` are the two queries of pair `i` of
/// `log`, and are steadied with the pair's factor of [`slowdown`].
pub(super) fn report_split_latencies(
    m: &mut Metrics,
    log: &OpLog,
    stab_ns: &[u64],
    range_ns: &[u64],
) {
    let slowdown = slowdown(&log.latency_ns);
    m.set("stab_p50_us", steady_us(stab_ns, &slowdown, 50.0));
    m.set("stab_p95_us", steady_us(stab_ns, &slowdown, 95.0));
    m.set("range_p50_us", steady_us(range_ns, &slowdown, 50.0));
    m.set("range_p95_us", steady_us(range_ns, &slowdown, 95.0));
    m.set("tail.stab_p99_us", tail_us(stab_ns, 99.0));
    m.set("tail.range_p99_us", tail_us(range_ns, 99.0));
}

#[derive(Default)]
struct Untraced {
    /// One entry per query pair.
    log: OpLog,
    stab_ns: Vec<u64>,
    range_ns: Vec<u64>,
    /// Engine counters over the counted prefix.
    counted: Counters,
}

impl Untraced {
    /// Appends a later round's phase.  The counted prefix stays the first
    /// round's: the one that starts where a traced run's does.
    fn append(&mut self, mut later: Untraced) {
        if self.log.len() == 0 {
            self.counted = later.counted;
        }
        self.log.append(later.log);
        self.stab_ns.append(&mut later.stab_ns);
        self.range_ns.append(&mut later.range_ns);
    }
}

/// The measured loop as a user runs it, from query pair `first_pair` on:
/// `RiTree::stab` and `RiTree::intersection`, nothing wrapped, nothing
/// recorded but time.
fn untraced_phase(
    env: &ReadEnv,
    cfg: &RunConfig,
    first_pair: usize,
    seconds: f64,
    answers: &mut Vec<Observed>,
    failed: &mut u64,
) -> Untraced {
    let mut out = Untraced::default();
    let before = env.counters();
    drive(seconds, cfg.scale.counted_ops, |pair| {
        let (stab_i, range_i) = (2 * (first_pair + pair), 2 * (first_pair + pair) + 1);
        let (stab, stab_ns) = timed(|| env.tree.stab(env.queries.query(stab_i).lower));
        let (range, range_ns) = timed(|| env.tree.intersection(env.queries.query(range_i)));
        out.log.push(stab_ns + range_ns);
        out.stab_ns.push(stab_ns);
        out.range_ns.push(range_ns);
        for (i, result) in [(stab_i, stab), (range_i, range)] {
            match result {
                Ok(ids) => answers.push((i, Answer::of(&ids))),
                Err(_) => *failed += 1,
            }
        }
        if pair + 1 == cfg.scale.counted_ops {
            out.counted = env.counters().since(&before);
        }
    });
    out
}

/// One traced query: the plan and its execution as separate spans, the
/// way `RiTree::intersection` composes them.
fn traced_query(tree: &RiTree, q: Interval) -> Result<(Plan, Vec<i64>, ExecStats)> {
    let plan = {
        let _span = trace::enter("core.plan");
        tree.intersection_plan(q, NOW)?
    };
    let _span = trace::enter("relstore.exec");
    let (ids, stats) = tree.execute_id_plan(&plan)?;
    Ok((plan, ids, stats))
}

/// Index scans a plan will start: one per row of each nested-loops outer.
fn plan_scans(plan: &Plan) -> u64 {
    match plan {
        Plan::UnionAll(inputs) => inputs.iter().map(plan_scans).sum(),
        Plan::NestedLoops { outer, .. } => match outer.as_ref() {
            Plan::CollectionIterator { rows, .. } => rows.len() as u64,
            _ => 0,
        },
        _ => 0,
    }
}

/// Replays the plan's index range scans through `Table::index` and
/// `BTree::scan_range` — the B-tree and pool work of the query without
/// the executor's row building.  Returns the entries scanned.
fn replay_scans(table: &Table, plan: &Plan) -> Result<u64> {
    fn eval(bound: &BoundExpr, outer: &Row) -> i64 {
        match *bound {
            BoundExpr::Const(v) => v,
            BoundExpr::Outer(i) => outer[i],
            BoundExpr::NegInf => i64::MIN,
            BoundExpr::PosInf => i64::MAX,
        }
    }
    let mut entries = 0;
    match plan {
        Plan::UnionAll(inputs) => {
            for input in inputs {
                entries += replay_scans(table, input)?;
            }
        }
        Plan::NestedLoops { outer, inner } => {
            if let (
                Plan::CollectionIterator { rows, .. },
                Plan::IndexRangeScan { index, lo, hi, .. },
            ) = (outer.as_ref(), inner.as_ref())
            {
                let tree = table.index(index)?;
                for row in rows {
                    let lo: Vec<i64> = lo.iter().map(|b| eval(b, row)).collect();
                    let hi: Vec<i64> = hi.iter().map(|b| eval(b, row)).collect();
                    for entry in tree.scan_range(&lo, &hi) {
                        entry?;
                        entries += 1;
                    }
                }
            }
        }
        _ => {}
    }
    Ok(entries)
}

/// The traced half of a traced run.  Returns its throughput in pairs/s.
fn traced_phase(
    env: &ReadEnv,
    cfg: &RunConfig,
    m: &mut Metrics,
    answers: &mut Vec<Observed>,
    failed: &mut u64,
) -> Result<f64> {
    let table = env.tree.db().table(env.tree.table_name())?;
    let counted = cfg.scale.counted_ops;
    let (mut scans, mut rows_examined, mut index_searches) = (0u64, 0u64, 0u64);
    let (mut replayed_entries, mut counted_entries, mut counted_replays) = (0u64, 0u64, 0u64);
    let mut log = OpLog::default();
    trace::install();
    drive(cfg.seconds / 2.0, counted, |pair| {
        let mut pair_ns = 0;
        for i in [2 * pair, 2 * pair + 1] {
            trace::begin_op(i as u64);
            let (result, ns) = timed(|| {
                let _op = trace::enter("op");
                traced_query(&env.tree, env.queries.query(i))
            });
            trace::end_op();
            pair_ns += ns;
            let Ok((plan, ids, stats)) = result else {
                *failed += 1;
                continue;
            };
            answers.push((i, Answer::of(&ids)));
            if pair < counted {
                scans += plan_scans(&plan);
                rows_examined += stats.rows_examined;
                index_searches += stats.index_searches;
            }
            if pair % REPLAY_EVERY_PAIRS == 0 {
                trace::begin_op(i as u64);
                let replay = {
                    let _span = trace::enter("btree.scan");
                    replay_scans(&table, &plan)
                };
                trace::end_op();
                match replay {
                    Ok(entries) => {
                        replayed_entries += entries;
                        if pair < counted {
                            counted_entries += entries;
                            counted_replays += 1;
                        }
                    }
                    Err(_) => *failed += 1,
                }
            }
        }
        log.push(pair_ns);
    });
    let report = trace::finish();

    let counted_queries = 2 * counted as u64;
    m.set("core.plan_us", report.get("core.plan").mean_us());
    m.set("core.scans_per_op", scans as f64 / counted_queries as f64);
    m.set("relstore.exec_us", report.get("relstore.exec").mean_us());
    m.set("relstore.rows_examined_per_op", rows_examined as f64 / counted_queries as f64);
    m.set("relstore.index_searches_per_op", index_searches as f64 / counted_queries as f64);
    // Self times exclude the device spans under them, so on `read_cold`
    // both sides of the subtraction are CPU time.
    let exec = report.get("relstore.exec");
    let scan = report.get("btree.scan");
    let exec_self_us = exec.self_ns as f64 / exec.count.max(1) as f64 / 1e3;
    let scan_self_us = scan.self_ns as f64 / scan.count.max(1) as f64 / 1e3;
    m.set("btree.scan_us", scan_self_us);
    m.set("relstore.exec_self_us", exec_self_us - scan_self_us);
    m.set("btree.entries_per_op", counted_entries as f64 / counted_replays.max(1) as f64);
    m.set("btree.scan_ns_per_entry", scan.self_ns as f64 / replayed_entries.max(1) as f64);

    write_trace(cfg, &report)?;
    Ok(log.ops_per_s())
}
