//! What a hot-tier admission costs, beside a plain miss and a hit, and how
//! long it keeps other callers of the tier waiting: the three prices the
//! repo benchmark's `read_zipf_tier` workload folds into
//! `op_mean_over_p50`, from `cargo bench`, in seconds.
//!
//! D1(200 k, 2000) behind a tier with room for three quarters of it, under
//! Zipf(1.0) queries, warmed until the budget has evicted — so every
//! admission measured pays for an eviction too.  Each call is classified by
//! which `HotTierStats` counter it moved.  The second pass runs a fresh
//! stream while another thread polls [`HotTier::stats`], which takes the
//! tier's lock: the worst latency it sees is the longest the lock was held
//! (plus whatever the scheduler added — on a one-core runner a quantum;
//! read it against the mean).  The Zipf hot set never moves and the
//! at-budget gate admits a candidate only at twice the weakest resident's
//! touches, so once warm pass 1 sees about a dozen admitting misses and
//! pass 2 a handful: both price an admission from a small sample.  The
//! per-phase admission figures in `ritree_core::hot_tier`'s module doc
//! come from instrumented `read_zipf_tier` runs instead.
//!
//! Uses only calls that predate blocks owning their entries
//! (`HotTier::{new, insert, intersection, stats}`), so the same file runs
//! on an older checkout and the two printouts are the before and after.

use criterion::{criterion_group, criterion_main, Criterion};
use ri_bench::{fresh_env_with_cache, runner_cores};
use ri_workloads::{d1, queries_for_selectivity, zipf};
use ritree_core::{HotTier, HotTierConfig, Interval, RiTree};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: usize = 200_000;
/// Calls per pass: at ≈ 0.15 % admitting misses, about a dozen admissions
/// in pass 1.
const QUERIES: usize = 8_000;

fn median_us(samples: &mut [Duration]) -> f64 {
    samples.sort();
    samples.get(samples.len() / 2).map_or(f64::NAN, |d| d.as_secs_f64() * 1e6)
}

fn bench_tier_admission(c: &mut Criterion) {
    let env = fresh_env_with_cache(200);
    let tree = RiTree::create(Arc::clone(&env.db), "bench").unwrap();
    let tier = HotTier::new(tree, HotTierConfig::with_capacity(ROWS / 4 * 3));
    for (id, &(l, u)) in d1(ROWS, 2000).generate(11).iter().enumerate() {
        tier.insert(Interval::new(l, u).unwrap(), id as i64).unwrap();
    }
    // Stab / range pairs like the repo benchmark's: 0.5 % selectivity
    // ranges are a third of a block long, so one query in three spans two.
    let spec = zipf(ROWS, 2000, 1.0);
    let stream = |n: usize, seed: u64| -> Vec<Interval> {
        let stabs = queries_for_selectivity(&spec, 0.0, n / 2, seed);
        let ranges = queries_for_selectivity(&spec, 0.005, n / 2, seed + 1);
        let pairs = stabs.into_iter().zip(ranges).flat_map(|(s, r)| [s, r]);
        pairs.map(|(l, u)| Interval::new(l, u).unwrap()).collect()
    };
    let mut warmed = 0;
    for (i, &q) in stream(20_000, 12).iter().enumerate() {
        if i % 64 == 0 && tier.stats().evicted_blocks > 0 {
            break;
        }
        tier.intersection(q).unwrap();
        warmed = i + 1;
    }
    let stats = tier.stats();
    assert!(stats.evicted_blocks > 0, "the warm-up never filled the budget: {stats:?}");
    println!(
        "# tier_admission: {ROWS} rows, warmed by {warmed} queries to {} intervals in {} blocks; \
         runner_cores = {}",
        stats.cached_intervals,
        stats.resident_blocks,
        runner_cores()
    );

    let mut group = c.benchmark_group("tier_admission");
    group.sample_size(QUERIES);

    // Pass 1: every call timed and classified.
    let queries = stream(QUERIES + 1, 13);
    let (mut admitting, mut plain, mut hits) = (Vec::new(), Vec::new(), Vec::new());
    let mut before = tier.stats();
    let mut i = 0;
    group.bench_function("call (any outcome)", |b| {
        b.iter(|| {
            let start = Instant::now();
            let answer = tier.intersection(queries[i % queries.len()]).unwrap();
            let took = start.elapsed();
            i += 1;
            let after = tier.stats();
            if after.admissions > before.admissions {
                admitting.push(took);
            } else if after.misses > before.misses {
                plain.push(took);
            } else {
                hits.push(took);
            }
            before = after;
            answer
        })
    });
    println!(
        "tier_admission/admitting miss           median {:>12.1} us   ({} calls)",
        median_us(&mut admitting),
        admitting.len()
    );
    println!(
        "tier_admission/plain miss               median {:>12.1} us   ({} calls)",
        median_us(&mut plain),
        plain.len()
    );
    println!(
        "tier_admission/hit                      median {:>12.1} us   ({} calls)",
        median_us(&mut hits),
        hits.len()
    );

    // Pass 2: fresh queries, with a second thread polling `stats()`.
    let queries = stream(QUERIES + 1, 15);
    let admissions_before = tier.stats().admissions;
    let done = AtomicBool::new(false);
    let mut i = 0;
    let (worst, total, polls) = std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let (mut worst, mut total, mut polls) = (Duration::ZERO, Duration::ZERO, 0u32);
            while !done.load(SeqCst) {
                let start = Instant::now();
                std::hint::black_box(tier.stats());
                let took = start.elapsed();
                worst = worst.max(took);
                total += took;
                polls += 1;
                std::thread::yield_now();
            }
            (worst, total, polls)
        });
        group.bench_function("call beside a polling reader", |b| {
            b.iter(|| {
                i += 1;
                tier.intersection(queries[i % queries.len()]).unwrap()
            })
        });
        done.store(true, SeqCst);
        poller.join().unwrap()
    });
    println!(
        "tier_admission/stats() beside admissions worst {:>11.1} us   mean {:.2} us   \
         ({polls} polls, {} admissions)",
        worst.as_secs_f64() * 1e6,
        (total / polls.max(1)).as_secs_f64() * 1e6,
        tier.stats().admissions - admissions_before
    );
    group.finish();
}

criterion_group! {
    name = tier_admission;
    config = Criterion::default();
    targets = bench_tier_admission
}
criterion_main!(tier_admission);
