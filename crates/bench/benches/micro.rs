//! Micro-benchmarks of the RI-tree's primitive operations.
//!
//! These complement the figures (which measure I/O): here we
//! measure CPU cost of the virtual backbone arithmetic, insertion, and
//! query execution at a fixed scale — and of building one hot-tier block's
//! HINT and taking one page latch.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ri_bench::{build_ritree, fresh_env};
use ri_mem::HintIndex;
use ri_pagestore::{LatchManager, PageId};
use ri_workloads::{d1, queries_for_selectivity};
use ritree_core::{BackboneParams, Interval};
use std::hint::black_box;

fn bench_fork_node(c: &mut Criterion) {
    let mut p = BackboneParams::new();
    p.prepare_insert(0, 0);
    p.prepare_insert((1 << 20) - 1, (1 << 20) - 1);
    c.bench_function("vtree/fork_of", |b| {
        let mut x = 7u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let l = (x % (1 << 20)) as i64;
            let u = (l + 2000).min((1 << 20) - 1);
            black_box(p.fork_of(black_box(l), black_box(u)))
        })
    });
}

fn bench_query_traversal(c: &mut Criterion) {
    let mut p = BackboneParams::new();
    p.prepare_insert(0, 0);
    p.prepare_insert((1 << 20) - 1, (1 << 20) - 1);
    p.prepare_insert(12_345, 12_345); // minstep 1: full-depth descents
    c.bench_function("vtree/query_nodes", |b| {
        b.iter(|| black_box(p.query_nodes(black_box(100_000), black_box(131_000))))
    });
}

fn bench_insert(c: &mut Criterion) {
    c.bench_function("ritree/insert_into_10k", |b| {
        let env = fresh_env();
        let data = d1(10_000, 2000).generate(1);
        let tree = build_ritree(&env, &data);
        let mut id = 1_000_000i64;
        b.iter(|| {
            id += 1;
            let l = (id * 7919) % (1 << 20);
            tree.insert(Interval::new(l, l + 500).unwrap(), id).unwrap();
        })
    });
}

fn bench_intersection_query(c: &mut Criterion) {
    let env = fresh_env();
    let spec = d1(100_000, 2000);
    let data = spec.generate(2);
    let tree = build_ritree(&env, &data);
    let queries = queries_for_selectivity(&spec, 0.005, 64, 3);
    c.bench_function("ritree/intersection_100k_sel0.5%", |b| {
        let mut i = 0;
        b.iter(|| {
            let (ql, qu) = queries[i % queries.len()];
            i += 1;
            black_box(tree.intersection(Interval::new(ql, qu).unwrap()).unwrap())
        })
    });
}

fn bench_delete(c: &mut Criterion) {
    c.bench_function("ritree/insert_delete_pair", |b| {
        let env = fresh_env();
        let data = d1(10_000, 2000).generate(4);
        let tree = build_ritree(&env, &data);
        let mut id = 5_000_000i64;
        b.iter_batched(
            || {
                id += 1;
                let l = (id * 104_729) % (1 << 20);
                let iv = Interval::new(l, l + 300).unwrap();
                tree.insert(iv, id).unwrap();
                (iv, id)
            },
            |(iv, id)| {
                assert!(tree.delete(black_box(iv), black_box(id)).unwrap());
            },
            BatchSize::SmallInput,
        )
    });
}

/// One hot-tier block's HINT (2^14 values, the default block) built from
/// the triples that block of D1(1M, 2000) holds — what an admission builds
/// per block — in bulk, and item by item through the path DML takes.
fn bench_hint_block_build(c: &mut Criterion) {
    const BLOCK_BITS: u32 = 14;
    let lo = 16i64 << BLOCK_BITS;
    let hi = lo + (1 << BLOCK_BITS) - 1;
    let data = d1(1_000_000, 2000).generate(7);
    let triples: Vec<(i64, i64, i64)> = (0..)
        .zip(&data)
        .filter(|&(_, &(l, u))| l <= hi && u >= lo)
        .map(|(id, &(l, u))| (l, u, id))
        .collect();
    println!("# hint/block_build: {} triples over 2^{BLOCK_BITS} values", triples.len());
    c.bench_function("hint/block_build_bulk", |b| {
        b.iter(|| HintIndex::build_clipped(lo, BLOCK_BITS, black_box(&triples)))
    });
    c.bench_function("hint/block_build_per_item", |b| {
        b.iter(|| {
            let mut index = HintIndex::new(lo, BLOCK_BITS);
            for &(l, u, id) in black_box(&triples) {
                index.insert_clipped(l, u, id);
            }
            index
        })
    });
}

/// One uncontended exclusive latch taken and released on one page: the
/// host service under every B-link, heap and RI-tree parameter write.
fn bench_latch(c: &mut Criterion) {
    let latches = LatchManager::default();
    c.bench_function("latch/acquire_release", |b| {
        b.iter(|| drop(latches.page_exclusive(black_box(PageId(7)))))
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_fork_node, bench_query_traversal, bench_insert,
              bench_intersection_query, bench_delete, bench_hint_block_build, bench_latch
}
criterion_main!(micro);
