//! The hot read path, layer by layer, on a fully resident tree: what the
//! repo benchmark's `read_hot` workload pays per query, split the way its
//! traced run splits it (`core.plan_us`, `relstore.exec_us`,
//! `btree.scan_ns_per_entry`) — but from `cargo bench`, in seconds.
//!
//! `exec` is `RiTree::execute_id_plan` as queries run it: Figure 9's `UNION
//! ALL`, ids in plan order.  `exec + sort_ids` is the same with the answer
//! then radix-sorted by `ri_mem::sort::sort_ids` — what a caller that wants
//! ascending ids pays — so their difference is what `sort_ids` costs, and
//! `sort ids` is what a comparison sort costs on the same plan-order
//! answers (cloning them included).  `scan` walks both indexes through the
//! per-entry `Iterator`, `scan runs` through `RangeScan::for_each_run`,
//! the form the executor uses.  The header line prints how many rows one
//! `exec` iteration returns and how many entries one `scan` iteration
//! walks: ns/row and ns/entry are ns/iter ÷ those.
//!
//! Under the tree, the buffer pool's two paths, `POOL_ACCESSES` page
//! accesses an iteration: `pool hit` on pages the tree's pool holds, and
//! `pool miss (file)` through the paper's 200-frame pool over a `FileDisk`
//! four times its size, cycled, so under LRU every access evicts and
//! fetches — the benchmark's `pool.miss_ns` probe, on the device
//! `read_cold` runs on.  `pool miss (mem)` is the same cycle over a
//! `MemDisk`, whose read is a page copy: the pool's own cost per miss, so
//! `pool miss (file)` less it is what the `pread` costs.  ns/access is
//! ns/iter ÷ `POOL_ACCESSES`.

use criterion::{criterion_group, criterion_main, Criterion};
use ri_bench::{build_ritree, fresh_env_with_cache};
use ri_mem::sort::sort_ids;
use ri_pagestore::{BufferPool, FileDisk, MemDisk, PageId, DEFAULT_PAGE_SIZE};
use ri_relstore::Plan;
use ri_workloads::{d1, queries_for_selectivity};
use ritree_core::{Interval, UPPER_NOW};
use std::hint::black_box;

const ROWS: usize = 100_000;
const QUERIES: usize = 16;
/// Answers of ≈ 3,000 rows, about `read_hot`'s mean: per-row cost
/// dominates per-scan cost, as it does there.
const SELECTIVITY: f64 = 0.03;
/// Page accesses per iteration of the two pool benches.
const POOL_ACCESSES: u64 = 4096;

fn bench_read_path(c: &mut Criterion) {
    // Room for the whole database: after the first pass nothing faults.
    let env = fresh_env_with_cache(16_384);
    let spec = d1(ROWS, 2000);
    let tree = build_ritree(&env, &spec.generate(11));
    let queries: Vec<Interval> = queries_for_selectivity(&spec, SELECTIVITY, QUERIES, 12)
        .into_iter()
        .map(|(l, u)| Interval::new(l, u).unwrap())
        .collect();
    let now = UPPER_NOW - 1;
    let plans: Vec<Plan> =
        queries.iter().map(|&q| tree.intersection_plan(q, now).unwrap()).collect();
    let exec = |plan: &Plan| tree.execute_id_plan(plan).unwrap().0;
    let answers: Vec<Vec<i64>> = plans.iter().map(exec).collect();
    let rows: usize = answers.iter().map(Vec::len).sum();
    let table = env.db.table(tree.table_name()).unwrap();
    let indexes = ["RI_bench_LOWER", "RI_bench_UPPER"].map(|name| table.index(name).unwrap());
    println!("# read_path: exec = {QUERIES} queries, {rows} rows; scan = {} entries", 2 * ROWS);

    let mut group = c.benchmark_group("read_path");
    group.sample_size(40);
    group.bench_function("plan (one query)", |b| {
        let mut i = 0;
        b.iter(|| {
            i += 1;
            black_box(tree.intersection_plan(queries[i % QUERIES], now).unwrap())
        })
    });
    group.bench_function("exec (query set)", |b| {
        b.iter(|| plans.iter().map(|p| exec(p).len()).sum::<usize>())
    });
    group.bench_function("exec + sort_ids (query set)", |b| {
        b.iter(|| {
            let sorted = |p| {
                let mut ids = exec(p);
                sort_ids(&mut ids);
                ids.len()
            };
            plans.iter().map(sorted).sum::<usize>()
        })
    });
    group.bench_function("sort ids (query set)", |b| {
        b.iter(|| {
            for answer in &answers {
                let mut ids = answer.clone();
                ids.sort_unstable();
                black_box(ids);
            }
        })
    });
    group.bench_function("scan (both indexes)", |b| {
        b.iter(|| {
            let mut entries = 0;
            for entry in indexes.iter().flat_map(|index| index.scan_all()) {
                black_box(entry.unwrap());
                entries += 1;
            }
            assert_eq!(entries, 2 * ROWS);
        })
    });
    group.bench_function("scan runs (both indexes)", |b| {
        b.iter(|| {
            let mut bytes = 0;
            for index in &indexes {
                index.scan_all().for_each_run(|run| bytes += black_box(run).len()).unwrap();
            }
            assert_eq!(bytes, 2 * ROWS * 32, "arity 3: 32 bytes an entry");
        })
    });
    let cycle = |pool: &BufferPool, pages: u64| {
        let access = |i| pool.with_page(PageId(i % pages), |d| u64::from(d[0])).unwrap();
        (0..POOL_ACCESSES).map(access).sum::<u64>()
    };
    group.bench_function("pool hit", |b| b.iter(|| cycle(&env.pool, 64)));
    let path = std::env::temp_dir().join(format!("ri-bench-read-path-{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let file_pool = BufferPool::with_defaults(FileDisk::open(&path, DEFAULT_PAGE_SIZE).unwrap());
    let span = 4 * file_pool.capacity() as u64;
    for _ in 0..span {
        file_pool.allocate_page().unwrap();
    }
    group.bench_function("pool miss (file)", |b| b.iter(|| cycle(&file_pool, span)));
    let mem_pool = BufferPool::with_defaults(MemDisk::new(DEFAULT_PAGE_SIZE));
    for _ in 0..span {
        mem_pool.allocate_page().unwrap();
    }
    group.bench_function("pool miss (mem)", |b| b.iter(|| cycle(&mem_pool, span)));
    group.finish();
    drop(file_pool);
    std::fs::remove_file(&path).unwrap();
}

criterion_group! {
    name = read_path;
    config = Criterion::default();
    targets = bench_read_path
}
criterion_main!(read_path);
