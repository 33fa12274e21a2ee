//! Figure 23: the HINT hot tier — comparison-free in-memory queries,
//! and a read-through cache over the paged RI-tree under skew.
//!
//! Two deterministic parts:
//!
//! **Part A (in-memory):** naive scan vs Edelsbrunner interval tree vs
//! HINT over the same D1 dataset, priced in *simulated endpoint
//! comparisons* (each structure's `*_with_cost` query path; see
//! `ri_mem::QueryCost`).  No wall clock — the counts are exact and
//! machine-independent, like every table in this suite.  The claim
//! being priced: HINT answers intersection queries with **zero**
//! endpoint comparisons where the interval tree pays one per secondary-
//! list entry it examines, and the scan pays ~2n.
//!
//! **Part B (read-through tier):** a `HotTier` (64 × 16384-value
//! blocks, 2Q + frequency-gated admission, lowest-frequency-first
//! eviction) in front of an RI-tree on the paper's small-pool
//! configuration, swept over Zipf skew × interval budget at fixed 0.5%
//! selectivity.  Queries draw from the `ri_workloads` Zipf generator;
//! the first half of each stream warms the caches and the second half
//! is measured.  The metric is
//! *physical buffer-pool reads* saved against running the identical
//! stream straight at the tree — the tier's wins come from holding hot
//! blocks as compact triples where the pool holds pages, and from 2Q
//! keeping one-off tail probes from thrashing the budget.
//!
//! Every tier answer is asserted equal to the tree's as a set (both
//! answer in their own order, neither sorted), so the figure doubles as
//! an end-to-end coherence check.  The wall-clock per measured query,
//! through the tier and straight at the tree, goes on a `#` line beside
//! each row: it depends on the machine, so it stays out of the snapshot.

use crate::harness::{f, fresh_env_with_cache, section, sorted};
use ri_mem::{HintIndex, IntervalTree, NaiveIntervalSet, QueryCost};
use ritree_core::{HotTier, HotTierConfig, Interval, RiTree};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Part A selectivities.
pub const MEM_SELECTIVITIES: [f64; 3] = [0.002, 0.01, 0.05];
/// Part B skew exponents.
pub const TIER_SKEWS: [f64; 4] = [0.0, 0.5, 1.0, 1.5];
/// Part B interval budgets, as numerator of `n * num / 4`.
pub const TIER_BUDGET_QUARTERS: [usize; 3] = [1, 2, 3];
/// Part B query selectivity (≈3.2k-value queries: at most two blocks).
pub const TIER_SELECTIVITY: f64 = 0.005;

/// One structure's aggregate Part A cost at one selectivity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemRow {
    /// `"naive"`, `"interval_tree"`, or `"hint"`.
    pub structure: &'static str,
    /// Summed work counters over the query batch.
    pub cost: QueryCost,
    /// Summed result cardinality (identical across structures).
    pub results: u64,
}

/// Part A at one selectivity.
#[derive(Clone, Debug, PartialEq)]
pub struct MemSel {
    /// Target selectivity.
    pub selectivity: f64,
    /// One row per structure.
    pub rows: Vec<MemRow>,
}

/// Part B measurements for one interval budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TierBudget {
    /// Tier capacity in cached intervals.
    pub capacity: usize,
    /// Hit fraction over the measured window.
    pub hit_rate: f64,
    /// Physical pool reads over the measured window, through the tier.
    pub tier_phys: u64,
    /// `baseline_phys / max(tier_phys, 1)`.
    pub saved_ratio: f64,
    /// Blocks admitted (whole run).
    pub admissions: u64,
    /// Blocks evicted (whole run).
    pub evicted_blocks: u64,
}

/// Part B at one skew.
#[derive(Clone, Debug, PartialEq)]
pub struct TierSkew {
    /// Zipf exponent of the query stream.
    pub s: f64,
    /// Physical pool reads over the measured window, straight at the tree.
    pub baseline_phys: u64,
    /// One entry per budget.
    pub budgets: Vec<TierBudget>,
}

/// Everything the experiment produced.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Part A results.
    pub mem: Vec<MemSel>,
    /// Part B results.
    pub skews: Vec<TierSkew>,
}

/// Runs the experiment and prints its tables.
pub fn run(quick: bool) -> Report {
    section("Figure 23: HINT hot tier — comparisons in memory, saved physical reads under skew");
    let mem_n = if quick { 100_000 } else { 1_000_000 };
    let mem_queries = if quick { 10 } else { 20 };
    let tier_n = if quick { 20_000 } else { 100_000 };
    let tier_queries = if quick { 1_000 } else { 3_000 };
    let tier_warmup = tier_queries / 2;
    // Full mode uses the paper's 200-frame pool; quick scales it with
    // the 5x smaller dataset so the pool stays pressured.
    let pool_frames = if quick { 50 } else { 200 };

    let mem = run_mem_part(mem_n, mem_queries);
    let skews = run_tier_part(tier_n, tier_queries, tier_warmup, pool_frames);

    println!("# part A: simulated endpoint comparisons; every touched HINT entry is a");
    println!("# result, so its comparison count is structurally zero.");
    println!("# part B: physical reads over the measured window (second half of each");
    println!("# stream); every tier answer asserted equal to the tree's as a set.");
    Report { mem, skews }
}

fn run_mem_part(n: usize, queries_per_sel: usize) -> Vec<MemSel> {
    let spec = ri_workloads::d1(n, 2000);
    let data = spec.generate(31);
    let triples: Vec<(i64, i64, i64)> =
        data.iter().enumerate().map(|(id, &(l, u))| (l, u, id as i64)).collect();
    let naive = NaiveIntervalSet::from_triples(triples.iter().copied());
    let tree = IntervalTree::build(&triples);
    let mut hint = HintIndex::new(0, 20);
    for &(l, u, id) in &triples {
        hint.insert(l, u, id);
    }
    println!("memory: n,queries_per_selectivity,hint_levels,hint_replicas");
    println!("{n},{queries_per_sel},{},{}", hint.level_count(), hint.replica_count());
    println!("selectivity,structure,comparisons,entries,nodes,results");
    let mut out = Vec::new();
    for (si, &sel) in MEM_SELECTIVITIES.iter().enumerate() {
        let queries =
            ri_workloads::queries_for_selectivity(&spec, sel, queries_per_sel, 40 + si as u64);
        let mut rows: Vec<MemRow> = ["naive", "interval_tree", "hint"]
            .into_iter()
            .map(|structure| MemRow { structure, cost: QueryCost::default(), results: 0 })
            .collect();
        for &(ql, qu) in &queries {
            let (ids_n, c_n) = naive.intersection_with_cost(ql, qu);
            let (ids_t, c_t) = tree.intersection_with_cost(ql, qu);
            let (ids_h, c_h) = hint.intersection_with_cost(ql, qu);
            assert_eq!(ids_n, ids_t, "interval tree diverges at [{ql}, {qu}]");
            assert_eq!(ids_n, ids_h, "hint diverges at [{ql}, {qu}]");
            for (row, (ids, c)) in
                rows.iter_mut().zip([(&ids_n, c_n), (&ids_t, c_t), (&ids_h, c_h)])
            {
                row.cost.comparisons += c.comparisons;
                row.cost.entries += c.entries;
                row.cost.nodes += c.nodes;
                row.results += ids.len() as u64;
            }
        }
        for row in &rows {
            println!(
                "{sel},{},{},{},{},{}",
                row.structure, row.cost.comparisons, row.cost.entries, row.cost.nodes, row.results
            );
        }
        out.push(MemSel { selectivity: sel, rows });
    }
    out
}

fn run_tier_part(n: usize, nq: usize, warmup: usize, pool_frames: usize) -> Vec<TierSkew> {
    let data_spec = ri_workloads::d1(n, 2000);
    let data = data_spec.generate(17);
    let env = fresh_env_with_cache(pool_frames);
    let tree = RiTree::create(Arc::clone(&env.db), "fig23").expect("create RI-tree");
    for (id, &(l, u)) in data.iter().enumerate() {
        tree.insert(Interval::new(l, u).expect("valid interval"), id as i64).expect("insert");
    }
    let mut tree = Some(tree);
    println!("tier: n,queries_per_skew,warmup,pool_frames,selectivity");
    println!("{n},{nq},{warmup},{pool_frames},{TIER_SELECTIVITY}");
    println!(
        "s,capacity,hit_rate,baseline_phys_reads,tier_phys_reads,saved_ratio,admissions,\
         evicted_blocks"
    );
    let mut out = Vec::new();
    for (ki, &s) in TIER_SKEWS.iter().enumerate() {
        let qspec = ri_workloads::zipf(n, 2000, s);
        let queries: Vec<Interval> =
            ri_workloads::queries_for_selectivity(&qspec, TIER_SELECTIVITY, nq, 100 + ki as u64)
                .into_iter()
                .map(|(l, u)| Interval::new(l, u).expect("valid query"))
                .collect();

        // Baseline: the identical stream straight at the tree.
        let t = tree.take().expect("tree rotates through the tiers");
        env.pool.clear_cache().expect("cache clear");
        let mut answers = Vec::with_capacity(nq);
        let mut baseline_phys = 0u64;
        let mut baseline_wall = Duration::ZERO;
        let mut before = env.pool.stats().snapshot();
        for (qi, &q) in queries.iter().enumerate() {
            if qi == warmup {
                before = env.pool.stats().snapshot();
            }
            let start = Instant::now();
            let ids = t.intersection(q).expect("baseline query");
            if qi >= warmup {
                baseline_wall += start.elapsed();
            }
            // Ascending, so the tier's answer compares as a set.
            answers.push(sorted(ids));
        }
        baseline_phys += env.pool.stats().snapshot().since(&before).physical_reads;
        tree = Some(t);

        let mut budgets = Vec::new();
        for &quarters in &TIER_BUDGET_QUARTERS {
            let capacity = n * quarters / 4;
            let tier = HotTier::new(
                tree.take().expect("tree rotates through the tiers"),
                HotTierConfig::with_capacity(capacity),
            );
            env.pool.clear_cache().expect("cache clear");
            let mut before = env.pool.stats().snapshot();
            let mut stats_before = tier.stats();
            let mut tier_wall = Duration::ZERO;
            for (qi, &q) in queries.iter().enumerate() {
                if qi == warmup {
                    before = env.pool.stats().snapshot();
                    stats_before = tier.stats();
                }
                let start = Instant::now();
                let got = tier.intersection(q).expect("tier query");
                if qi >= warmup {
                    tier_wall += start.elapsed();
                }
                assert_eq!(sorted(got), answers[qi], "tier diverges at query {qi} (s = {s})");
            }
            let tier_phys = env.pool.stats().snapshot().since(&before).physical_reads;
            let stats = tier.stats();
            let measured = (nq - warmup) as f64;
            let row = TierBudget {
                capacity,
                hit_rate: (stats.hits - stats_before.hits) as f64 / measured,
                tier_phys,
                saved_ratio: baseline_phys as f64 / tier_phys.max(1) as f64,
                admissions: stats.admissions,
                evicted_blocks: stats.evicted_blocks,
            };
            println!(
                "{s:.1},{capacity},{:.4},{baseline_phys},{tier_phys},{:.2},{},{}",
                row.hit_rate, row.saved_ratio, row.admissions, row.evicted_blocks
            );
            let per_query_us = |wall: Duration| f(wall.as_secs_f64() * 1e6 / measured);
            println!(
                "# s={s:.1},capacity={capacity}: wall-clock per measured query: tier {} us, \
                 bare tree {} us",
                per_query_us(tier_wall),
                per_query_us(baseline_wall)
            );
            budgets.push(row);
            tree = Some(tier.into_tree());
        }
        out.push(TierSkew { s, baseline_phys, budgets });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_is_deterministic_and_meets_the_bars() {
        let a = run(true);
        let b = run(true);
        assert_eq!(a, b, "fig23 must be run-to-run deterministic");

        // Part A bar: HINT is comparison-free and beats the interval
        // tree on simulated comparisons at every selectivity.
        for sel in &a.mem {
            let tree = sel.rows.iter().find(|r| r.structure == "interval_tree").unwrap();
            let hint = sel.rows.iter().find(|r| r.structure == "hint").unwrap();
            assert_eq!(hint.cost.comparisons, 0, "HINT compares endpoints at {}", sel.selectivity);
            assert!(
                tree.cost.comparisons > 0,
                "interval tree must pay comparisons at {}",
                sel.selectivity
            );
            assert_eq!(hint.results, tree.results, "must report identical results");
        }

        // Part B bar: at classic Zipf skew (s = 1.0) and the largest
        // budget, the tier cuts physical reads at least 5x.
        let zipf1 = a.skews.iter().find(|sk| sk.s == 1.0).unwrap();
        let best = zipf1.budgets.last().unwrap();
        assert!(
            best.saved_ratio >= 5.0,
            "s=1.0 top-budget saved_ratio {:.2} below the 5x bar (baseline {} vs tier {})",
            best.saved_ratio,
            zipf1.baseline_phys,
            best.tier_phys
        );
        // Skew must matter: uniform traffic saves less than hot traffic.
        let uniform = a.skews.iter().find(|sk| sk.s == 0.0).unwrap();
        assert!(
            uniform.budgets.last().unwrap().hit_rate < best.hit_rate,
            "hit rate should grow with skew"
        );
    }
}
