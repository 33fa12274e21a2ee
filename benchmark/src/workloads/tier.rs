//! `read_zipf_tier`: skewed reads through the HINT hot tier, with DML.
//!
//! Same data and pool as `read_cold` (on `MemDisk`), but the query
//! positions are Zipf(s = 1.0) over 64 domain slices and every call goes
//! through a `HotTier` with room for three quarters of the intervals.
//! Hits never reach `relstore` or `btree`, so the workload isolates
//! `core::hot_tier` and `mem::HintIndex`; one `HotTier::insert` and one
//! `HotTier::delete` ride beside every ten query pairs, so a faster hit
//! path that pays in coherence or admission cost shows here too.
//!
//! The client's steps repeat in cycles of [`CYCLE`]: twenty queries (ten
//! stab/range pairs), one insert, one delete.  Cycle `c` inserts extra
//! `c + LAG` and deletes extra `c`, so exactly [`LAG`] extras are live at
//! every query, and which ones is a function of the step alone — the
//! verifier needs no replay.
//!
//! One *operation* is a query pair, as in `read_cold` and `read_hot`.  A
//! pair costs 0.3 ms when both queries hit, 1.5 ms more per miss (one pair
//! in six has one), and 100–150 ms when a miss admits a block (0.7 % of
//! pairs — and over half of the client's time).  So `op_p50_us` prices the
//! hit path, `op_p95_over_p50` a miss, and `op_mean_over_p50`, which counts
//! every pair and the DML between them, mostly admissions.

use super::read::{report_split_latencies, Observed, ReadEnv};
use super::{
    drive, overhead_pct, peak_rss_mb, ratio, rounds, timed, write_trace, Counters, OpLog, Outcome,
    RunConfig, StorageCost, PAPER_FRAMES, TREE,
};
use crate::disk::{DeviceKind, Scratch};
use crate::inputs::{items, stream, Digest, Item, MEAN_DURATION, ZIPF_S};
use crate::metrics::Metrics;
use crate::oracle::{Answer, Oracle};
use crate::{probes, trace};
use ri_tree::core::{HotTier, HotTierConfig, HotTierStats, Interval, RiTree};
use ri_tree::pagestore::Result;
use ri_tree::workloads;

/// Query steps, then one insert and one delete, per client cycle.
const PAIRS_PER_CYCLE: usize = 10;
const QUERIES_PER_CYCLE: usize = 2 * PAIRS_PER_CYCLE;
const CYCLE: usize = QUERIES_PER_CYCLE + 2;
/// Extras live at any moment.
const LAG: usize = 8;
/// Distinct extras; cycle `c` reuses extra `c % EXTRAS` (long deleted).
const EXTRAS: usize = 4096;
/// Query pairs sent straight at the tree for `core.tier_direct_ops_per_s`.
const DIRECT_PAIRS: usize = 500;

enum Step {
    /// Query number `i` of the query stream.
    Query(usize),
    Insert(Item),
    Delete(Item),
}

struct TierEnv {
    base: ReadEnv,
    tier: HotTier,
    extras: Vec<Item>,
    /// The client cycle this environment's warm-up started at.
    first_cycle: usize,
    /// Throughput of the same queries at the bare tree, before the tier
    /// existed (traced runs only).
    direct_pairs_per_s: f64,
}

impl TierEnv {
    fn extra(&self, k: usize) -> Item {
        self.extras[k % EXTRAS]
    }

    fn step(&self, s: usize) -> Step {
        let (cycle, at) = (s / CYCLE, s % CYCLE);
        match at {
            QUERIES_PER_CYCLE => Step::Insert(self.extra(cycle + LAG)),
            at if at > QUERIES_PER_CYCLE => Step::Delete(self.extra(cycle)),
            at => Step::Query(cycle * QUERIES_PER_CYCLE + at),
        }
    }

    /// The extras live while query number `i` runs.
    fn live_extras(&self, query: usize) -> impl Iterator<Item = Item> + '_ {
        let cycle = query / QUERIES_PER_CYCLE;
        (cycle..cycle + LAG).map(|k| self.extra(k))
    }
}

pub(super) fn run(cfg: &RunConfig) -> Result<Outcome> {
    let scratch = Scratch::new(&cfg.out_dir, cfg.workload.name())?;
    let n = cfg.scale.read_rows;
    let spec = workloads::zipf(n, MEAN_DURATION, ZIPF_S);
    let warm_cycles = cfg.scale.tier_warm_pairs / PAIRS_PER_CYCLE;
    let counted_cycles = cfg.scale.counted_ops / PAIRS_PER_CYCLE;
    let (mut issued, mut failed) = (0, 0);
    let mut answers = Vec::new();
    let mut measured = Phase::default();
    // Round `r` starts `r` shares into the client's stream: every round
    // sets up the same database, and from the same point they would all
    // measure the same few admissions.
    let share = cfg.scale.query_pairs / cfg.scale.setup_repeats.max(1) / PAIRS_PER_CYCLE;
    let mut round = 0;
    let setup = || {
        let first_cycle = round * share;
        round += 1;
        let base = ReadEnv::load(cfg, &scratch, DeviceKind::Mem, PAPER_FRAMES, &spec)?;
        let extras = items(EXTRAS, cfg.seed, stream::EXTRAS, n as i64);
        let mut direct_pairs_per_s = 0.0;
        if cfg.trace {
            let ((), ns) = timed(|| {
                for i in 0..2 * DIRECT_PAIRS {
                    let _ = base.tree.intersection(base.queries.query(i));
                }
            });
            direct_pairs_per_s = DIRECT_PAIRS as f64 * 1e9 / ns as f64;
        }
        // The tier owns its tree handle; `base.tree` stays a second handle
        // on the same tables for the direct run above.
        let handle = RiTree::open(std::sync::Arc::clone(base.tree.db()), TREE)?;
        let tier = HotTier::new(handle, HotTierConfig::with_capacity(n / 4 * 3));
        let env = TierEnv { base, tier, extras, first_cycle, direct_pairs_per_s };
        for k in first_cycle..first_cycle + LAG {
            let (iv, id) = env.extra(k);
            env.tier.insert(iv, id)?;
        }
        // Warm-up: the cycles of the very stream that is measured next.
        for s in first_cycle * CYCLE..(first_cycle + warm_cycles) * CYCLE {
            match env.step(s) {
                Step::Query(i) => drop(env.tier.intersection(env.base.queries.query(i))?),
                Step::Insert((iv, id)) => env.tier.insert(iv, id)?,
                Step::Delete((iv, id)) => drop(env.tier.delete(iv, id)?),
            }
        }
        Ok(env)
    };
    let (env, setup_s) = rounds(cfg, setup, |env, seconds| {
        let first = env.first_cycle + warm_cycles;
        measured.append(phase(env, first, counted_cycles, seconds, false, &mut answers));
        Ok(())
    })?;

    let mut m = Metrics::default();
    m.set("workloads.generate_s", env.base.generate_s);

    if cfg.trace {
        let half = cfg.seconds / 2.0;
        // The untraced half goes first: it continues the stream where the
        // warm-up stopped, as an untraced run does, so its counts repeat
        // exactly.
        let untraced = phase(&env, warm_cycles, counted_cycles, half, false, &mut answers);
        let next = warm_cycles + untraced.log.len() / PAIRS_PER_CYCLE;
        let traced = phase(&env, next, counted_cycles, half, true, &mut answers);
        let report = trace::finish();
        failed += traced.failed + untraced.failed;
        issued += traced.issued + untraced.issued;

        m.set("core.tier_hit_us", report.get("core.tier_hit").mean_us());
        m.set("core.tier_miss_us", report.get("core.tier_miss").mean_us());
        m.set("core.tier_dml_us", report.get("core.tier_dml").mean_us());
        m.set("core.tier_direct_ops_per_s", env.direct_pairs_per_s);
        let tier = untraced.counted_tier;
        m.set("core.tier_hit_ratio", ratio(tier.hits, tier.hits + tier.misses));
        m.set("core.tier_admissions", tier.admissions as f64);
        m.set("core.tier_evicted_blocks", tier.evicted_blocks as f64);
        m.set("core.tier_aborted_admissions", tier.aborted_admissions as f64);
        untraced.counted.report_pool(&mut m, (counted_cycles * QUERIES_PER_CYCLE) as u64);
        untraced.counted.report_disks(&mut m);
        report_split_latencies(&mut m, &untraced.log, &untraced.stab_ns, &untraced.range_ns);
        m.set("ops_per_s", untraced.log.ops_per_s());
        m.set("trace.overhead_pct", overhead_pct(untraced.log.ops_per_s(), traced.log.ops_per_s()));
        probes::storage_layers(&mut m, &env.base.pool, cfg.seed)?;
        probes::hint(&mut m, &env.base.data, &env.base.queries);
        write_trace(cfg, &report)?;
    } else {
        failed += measured.failed;
        issued += measured.issued;
        measured.log.report_end_to_end(&mut m, &setup_s);
        m.set("peak_rss_mb", peak_rss_mb(&scratch)?);
        measured.storage.report(&mut m);
    }

    // Attempted: every call issued, plus every answer checked.
    let attempted = issued + answers.len() as u64;
    failed += count_wrong(&env, &answers);
    let mut digest = Digest::default();
    digest.word(env.base.digest());
    digest.items(&env.extras);
    Ok(Outcome { attempted, failed, metrics: m, digest: digest.finish() })
}

#[derive(Default)]
struct Phase {
    /// One entry per query pair; the DML after a cycle's last pair is
    /// that pair's busy time.
    log: OpLog,
    stab_ns: Vec<u64>,
    range_ns: Vec<u64>,
    counted: Counters,
    counted_tier: HotTierStats,
    storage: StorageCost,
    /// Calls made, queries and DML alike.
    issued: u64,
    /// Calls that returned an error, and deletes that found nothing.
    failed: u64,
}

impl Phase {
    /// Appends a later round's phase.  The counted prefix stays the first
    /// round's: the one that starts where a traced run's does.
    fn append(&mut self, mut later: Phase) {
        if self.log.len() == 0 {
            (self.counted, self.counted_tier, self.storage) =
                (later.counted, later.counted_tier, later.storage);
        }
        self.log.append(later.log);
        self.stab_ns.append(&mut later.stab_ns);
        self.range_ns.append(&mut later.range_ns);
        self.issued += later.issued;
        self.failed += later.failed;
    }
}

fn tier_since(now: HotTierStats, earlier: HotTierStats) -> HotTierStats {
    HotTierStats {
        hits: now.hits - earlier.hits,
        misses: now.misses - earlier.misses,
        bypasses: now.bypasses - earlier.bypasses,
        admissions: now.admissions - earlier.admissions,
        aborted_admissions: now.aborted_admissions - earlier.aborted_admissions,
        evicted_blocks: now.evicted_blocks - earlier.evicted_blocks,
        invalidations: now.invalidations - earlier.invalidations,
        ..now
    }
}

/// Runs the client's cycles from `first_cycle` for `seconds`, at least
/// `counted_cycles`.  Traced, every query is an `op` span over a
/// `core.tier_*` span, named hit or miss by what the call did to
/// `HotTierStats`.
fn phase(
    env: &TierEnv,
    first_cycle: usize,
    counted_cycles: usize,
    seconds: f64,
    traced: bool,
    answers: &mut Vec<Observed>,
) -> Phase {
    let mut out = Phase::default();
    if traced {
        trace::install();
    }
    let before = env.base.counters();
    let tier_before = env.tier.stats();
    drive(seconds, counted_cycles, |offset| {
        let cycle = first_cycle + offset;
        for s in cycle * CYCLE..(cycle + 1) * CYCLE {
            out.issued += 1;
            trace::begin_op(s as u64);
            match env.step(s) {
                Step::Query(i) => {
                    let q = env.base.queries.query(i);
                    let (result, ns) = timed(|| {
                        let _op = trace::enter("op");
                        let span = trace::enter("core.tier_miss");
                        let hits_before = if traced { env.tier.stats().hits } else { 0 };
                        let result = env.tier.intersection(q);
                        if traced && env.tier.stats().hits > hits_before {
                            span.rename("core.tier_hit");
                        }
                        result
                    });
                    match result {
                        Ok(ids) => answers.push((i, Answer::of(&ids))),
                        Err(_) => out.failed += 1,
                    }
                    if i % 2 == 0 {
                        out.stab_ns.push(ns);
                    } else {
                        out.range_ns.push(ns);
                        out.log.push(out.stab_ns[out.stab_ns.len() - 1] + ns);
                    }
                }
                Step::Insert((iv, id)) => {
                    let (result, ns) = timed(|| {
                        let _span = trace::enter("core.tier_dml");
                        env.tier.insert(iv, id)
                    });
                    out.failed += u64::from(result.is_err());
                    out.log.add_busy(ns);
                }
                Step::Delete((iv, id)) => {
                    let (result, ns) = timed(|| {
                        let _span = trace::enter("core.tier_dml");
                        env.tier.delete(iv, id)
                    });
                    out.failed += u64::from(!matches!(result, Ok(true)));
                    out.log.add_busy(ns);
                }
            }
            trace::end_op();
        }
        if offset + 1 == counted_cycles {
            out.counted = env.base.counters().since(&before);
            out.counted_tier = tier_since(env.tier.stats(), tier_before);
            out.storage = StorageCost::read(&env.base.pool, (env.base.data.len() + LAG) as u64);
        }
    });
    out
}

/// Compares every observed answer with the oracle's: the base data's
/// answer plus the terms of the extras live at that step.
fn count_wrong(env: &TierEnv, observed: &[Observed]) -> u64 {
    let oracle = Oracle::build(env.base.data.iter().copied());
    observed
        .iter()
        .filter(|&&(i, got)| {
            let q: Interval = env.base.queries.query(i);
            let mut expected = oracle.answer(q);
            for (iv, id) in env.live_extras(i) {
                if iv.intersects(&q) {
                    expected.add(id);
                }
            }
            expected != got
        })
        .count() as u64
}
