//! Every access method in the repository must return identical results on
//! the paper's Table 1 workloads — the precondition for any performance
//! comparison being meaningful.

mod common;

use common::sorted;
use ri_tree::baselines::{Ist, IstOrder, Map21, TileIndex, WindowList};
use ri_tree::mem::{IntervalTree, NaiveIntervalSet};
use ri_tree::prelude::*;
use ri_tree::workloads::{d1, d2, d3, d4, queries_for_selectivity, WorkloadSpec};

fn fresh_db() -> Arc<Database> {
    let pool = Arc::new(BufferPool::with_defaults(MemDisk::new(DEFAULT_PAGE_SIZE)));
    Arc::new(Database::create(pool).unwrap())
}

fn check_distribution(spec: WorkloadSpec, seed: u64) {
    let data = spec.generate(seed);
    let naive = NaiveIntervalSet::from_triples(
        data.iter().enumerate().map(|(id, &(l, u))| (l, u, id as i64)),
    );
    let mem_tree = IntervalTree::build(
        &data.iter().enumerate().map(|(id, &(l, u))| (l, u, id as i64)).collect::<Vec<_>>(),
    );

    // Relational methods, one per database.
    let db = fresh_db();
    let ri = RiTree::create(Arc::clone(&db), "x").unwrap();
    for (id, &(l, u)) in data.iter().enumerate() {
        ri.insert(Interval::new(l, u).unwrap(), id as i64).unwrap();
    }
    let ti = TileIndex::build_bulk(fresh_db(), "x", 8, &data).unwrap();
    let ist_d = Ist::build_bulk(fresh_db(), "x", IstOrder::D, &data).unwrap();
    let ist_v = Ist::build_bulk(fresh_db(), "x", IstOrder::V, &data).unwrap();
    let m21 = {
        let m = Map21::create(fresh_db(), "x").unwrap();
        for (id, &(l, u)) in data.iter().enumerate() {
            m.am_insert(l, u, id as i64).unwrap();
        }
        m
    };
    let wl = WindowList::build(fresh_db(), "x", &data).unwrap();

    let methods: Vec<&dyn IntervalAccessMethod> = vec![&ri, &ti, &ist_d, &ist_v, &m21, &wl];

    let mut queries = queries_for_selectivity(&spec, 0.01, 8, seed + 1);
    queries.extend(queries_for_selectivity(&spec, 0.0, 4, seed + 2)); // point queries
    queries.push((0, (1 << 20) - 1)); // whole domain
    queries.push((1 << 21, 1 << 22)); // outside the domain

    for &(ql, qu) in &queries {
        let expected = naive.intersection(ql, qu);
        assert_eq!(mem_tree.intersection(ql, qu), expected, "mem tree, [{ql}, {qu}]");
        for m in &methods {
            let got = sorted(m.am_intersection(ql, qu).unwrap());
            assert_eq!(
                got,
                expected,
                "{} disagrees with oracle on [{ql}, {qu}] ({})",
                m.method_name(),
                spec.name
            );
        }
    }
}

#[test]
fn d1_uniform_uniform() {
    check_distribution(d1(2500, 2000), 101);
}

#[test]
fn d2_uniform_exponential() {
    check_distribution(d2(2500, 2000), 102);
}

#[test]
fn d3_poisson_uniform() {
    check_distribution(d3(2500, 2000), 103);
}

#[test]
fn d4_poisson_exponential() {
    check_distribution(d4(2500, 2000), 104);
}

#[test]
fn long_interval_stress() {
    // Mean duration 50k: heavy overlap, T-index redundancy extreme.
    check_distribution(d2(800, 50_000), 105);
}

#[test]
fn point_only_database() {
    check_distribution(d1(1500, 0), 106);
}
