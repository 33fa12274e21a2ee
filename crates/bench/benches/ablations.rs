//! Ablation benchmarks for the design choices DESIGN.md calls out.
//!
//! 1. **Two-fold vs three-fold query** (Section 4.3): the paper merges the
//!    BETWEEN subquery into `leftNodes` to save one index probe per query.
//! 2. **minstep pruning** (Section 3.4): without it, descents always reach
//!    the leaf level and the transient node lists are longer.
//! 3. **Composite-index attribute order** (Section 2.3): the RI-tree's
//!    `(node, bound)` indexes vs the IST's plain bound index.

use criterion::{criterion_group, criterion_main, Criterion};
use ri_bench::{build_ist, build_ritree, fresh_env, sorted};
use ri_workloads::{d3, queries_for_selectivity};
use ritree_core::Interval;
use std::hint::black_box;

fn bench_twofold_vs_threefold(c: &mut Criterion) {
    let env = fresh_env();
    let spec = d3(50_000, 2000);
    let data = spec.generate(7);
    let tree = build_ritree(&env, &data);
    let queries = queries_for_selectivity(&spec, 0.005, 32, 8);

    // Correctness first: both plans return identical ids.
    for &(ql, qu) in queries.iter().take(8) {
        let q = Interval::new(ql, qu).unwrap();
        let two = sorted(tree.intersection(q).unwrap());
        let plan8 = tree.intersection_plan_fig8(q, i64::MAX - 2).unwrap();
        let (three, _) = tree.execute_id_plan(&plan8).unwrap();
        assert_eq!(two, sorted(three), "Fig 8 and Fig 9 plans must agree");
    }

    let mut group = c.benchmark_group("ablation/query_plan");
    group.bench_function("two_fold_fig9", |b| {
        let mut i = 0;
        b.iter(|| {
            let (ql, qu) = queries[i % queries.len()];
            i += 1;
            let q = Interval::new(ql, qu).unwrap();
            black_box(tree.intersection(q).unwrap())
        })
    });
    group.bench_function("three_fold_fig8", |b| {
        let mut i = 0;
        b.iter(|| {
            let (ql, qu) = queries[i % queries.len()];
            i += 1;
            let q = Interval::new(ql, qu).unwrap();
            let plan = tree.intersection_plan_fig8(q, i64::MAX - 2).unwrap();
            black_box(tree.execute_id_plan(&plan).unwrap())
        })
    });
    group.finish();
}

fn bench_minstep_pruning(c: &mut Criterion) {
    let env = fresh_env();
    // Long intervals only: minstep stays high, pruning has bite.
    let spec = ri_workloads::restricted_d3(50_000, 1500);
    let data = spec.generate(9);
    let tree = build_ritree(&env, &data);
    let queries = queries_for_selectivity(&spec, 0.002, 32, 10);

    for &(ql, qu) in queries.iter().take(8) {
        let q = Interval::new(ql, qu).unwrap();
        let pruned = sorted(tree.intersection(q).unwrap());
        let plan = tree.intersection_plan_unpruned(q, i64::MAX - 2).unwrap();
        let (unpruned, _) = tree.execute_id_plan(&plan).unwrap();
        assert_eq!(pruned, sorted(unpruned), "minstep pruning must not change results");
    }

    let mut group = c.benchmark_group("ablation/minstep");
    group.bench_function("pruned", |b| {
        let mut i = 0;
        b.iter(|| {
            let (ql, qu) = queries[i % queries.len()];
            i += 1;
            black_box(tree.intersection(Interval::new(ql, qu).unwrap()).unwrap())
        })
    });
    group.bench_function("unpruned", |b| {
        let mut i = 0;
        b.iter(|| {
            let (ql, qu) = queries[i % queries.len()];
            i += 1;
            let plan = tree
                .intersection_plan_unpruned(Interval::new(ql, qu).unwrap(), i64::MAX - 2)
                .unwrap();
            black_box(tree.execute_id_plan(&plan).unwrap())
        })
    });
    group.finish();
}

fn bench_index_attribute_order(c: &mut Criterion) {
    // RI-tree's (node, bound) composite indexes vs the IST's plain
    // bound-ordered index, on identical data and queries.
    let spec = d3(50_000, 2000);
    let data = spec.generate(11);
    let queries = queries_for_selectivity(&spec, 0.005, 32, 12);

    let env_ri = fresh_env();
    let ri = build_ritree(&env_ri, &data);
    let env_ist = fresh_env();
    let ist = build_ist(&env_ist, &data);

    let mut group = c.benchmark_group("ablation/index_order");
    group.bench_function("ri_node_bound_indexes", |b| {
        let mut i = 0;
        b.iter(|| {
            let (ql, qu) = queries[i % queries.len()];
            i += 1;
            black_box(ri.intersection(Interval::new(ql, qu).unwrap()).unwrap())
        })
    });
    group.bench_function("ist_bound_only_index", |b| {
        use ri_relstore::IntervalAccessMethod;
        let mut i = 0;
        b.iter(|| {
            let (ql, qu) = queries[i % queries.len()];
            i += 1;
            black_box(ist.am_intersection(ql, qu).unwrap())
        })
    });
    group.finish();
}

fn bench_skeleton_extension(c: &mut Criterion) {
    // Clustered data in a huge space: most descent nodes are empty, the
    // situation the Section 7 Skeleton Index extension targets.
    let mut data: Vec<(Interval, i64)> = vec![(Interval::new(1 << 30, (1 << 30) + 10).unwrap(), 0)];
    let mut x = 0xA5A5u64;
    for id in 1..20_000i64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let l = 500_000 + (x % 50_000) as i64;
        data.push((Interval::new(l, l + (x >> 44) as i64 % 500).unwrap(), id));
    }
    use ritree_core::{RiOptions, RiTree};
    // 20,000 rows into an empty tree: `insert_batch` takes the bulk route.
    let load = |name: &str, opts: RiOptions| {
        let tree = RiTree::create_with_options(fresh_env().db, name, opts).unwrap();
        tree.insert_batch(&data, 1).unwrap();
        tree
    };
    let plain = load("plain", RiOptions::default());
    let skel = load("skel", RiOptions { skeleton: true });
    // Queries far from the cluster: descents full of empty nodes.
    let queries: Vec<Interval> =
        (0..16).map(|i| Interval::new(i * 60_000_000, i * 60_000_000 + 2000).unwrap()).collect();
    for &q in queries.iter().take(4) {
        assert_eq!(sorted(plain.intersection(q).unwrap()), sorted(skel.intersection(q).unwrap()));
    }
    let mut group = c.benchmark_group("ablation/skeleton");
    group.bench_function("plain", |b| {
        let mut i = 0;
        b.iter(|| {
            i += 1;
            black_box(plain.intersection(queries[i % queries.len()]).unwrap())
        })
    });
    group.bench_function("skeleton", |b| {
        let mut i = 0;
        b.iter(|| {
            i += 1;
            black_box(skel.intersection(queries[i % queries.len()]).unwrap())
        })
    });
    group.finish();
}

criterion_group! {
    name = ablations;
    config = Criterion::default().sample_size(10);
    targets = bench_twofold_vs_threefold, bench_minstep_pruning,
              bench_index_attribute_order, bench_skeleton_extension
}
criterion_main!(ablations);
