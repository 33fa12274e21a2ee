//! Plan-level properties: the Figure 8 and Figure 9 plans are equivalent,
//! minstep pruning never changes results, and EXPLAIN output matches the
//! paper's Figure 10 operator tree.

mod common;

use common::sorted;
use ri_tree::prelude::*;
use ri_tree::workloads::{d3, queries_for_selectivity, restricted_d3};

fn tree_with(data: &[(i64, i64)]) -> RiTree {
    let pool = Arc::new(BufferPool::with_defaults(MemDisk::new(DEFAULT_PAGE_SIZE)));
    let db = Arc::new(Database::create(pool).unwrap());
    let tree = RiTree::create(db, "t").unwrap();
    for (id, &(l, u)) in data.iter().enumerate() {
        tree.insert(Interval::new(l, u).unwrap(), id as i64).unwrap();
    }
    tree
}

#[test]
fn fig8_and_fig9_plans_agree() {
    let spec = d3(4000, 2000);
    let data = spec.generate(31);
    let tree = tree_with(&data);
    let queries = queries_for_selectivity(&spec, 0.02, 20, 32);
    for (ql, qu) in queries {
        let q = Interval::new(ql, qu).unwrap();
        let two = sorted(tree.intersection(q).unwrap());
        let plan8 = tree.intersection_plan_fig8(q, i64::MAX - 2).unwrap();
        let (three, stats) = tree.execute_id_plan(&plan8).unwrap();
        let three = sorted(three);
        assert_eq!(two, three, "plans disagree on {q}");
        // The three-fold plan's branches are also disjoint: no duplicates.
        let mut dedup = three.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), three.len(), "Fig 8 plan produced duplicates");
        assert!(stats.index_searches >= 1);
    }
}

#[test]
fn minstep_pruning_is_safe() {
    // Coarse granularity (long intervals) is where pruning actually skips
    // levels; verify results stay identical.
    let spec = restricted_d3(4000, 1500);
    let data = spec.generate(33);
    let tree = tree_with(&data);
    let p = tree.load_params().unwrap();
    assert!(p.minstep2 > 1, "workload should leave minstep coarse, got {}", p.minstep2);
    for (ql, qu) in queries_for_selectivity(&spec, 0.01, 20, 34) {
        let q = Interval::new(ql, qu).unwrap();
        let pruned = sorted(tree.intersection(q).unwrap());
        let plan = tree.intersection_plan_unpruned(q, i64::MAX - 2).unwrap();
        let (unpruned, _) = tree.execute_id_plan(&plan).unwrap();
        assert_eq!(pruned, sorted(unpruned), "pruning changed results on {q}");
    }
}

#[test]
fn pruning_shrinks_transient_node_lists() {
    // Every interval has length exactly 2048, so the Section 3.4 Lemma
    // guarantees registrations at level >= 11 and a coarse minstep —
    // unlike generated workloads, where domain-edge clamping can produce
    // one short interval that spoils the granularity.
    let data: Vec<(i64, i64)> =
        (0..4000i64).map(|i| (i * 977 % 900_000, i * 977 % 900_000 + 2048)).collect();
    let tree = tree_with(&data);
    let p = tree.load_params().unwrap();
    assert!(p.minstep2 >= 2048, "expected coarse granularity, minstep2 = {}", p.minstep2);
    let q = Interval::new(500_000, 500_100).unwrap();
    let plan9 = tree.intersection_plan(q, i64::MAX - 2).unwrap();
    let plan_un = tree.intersection_plan_unpruned(q, i64::MAX - 2).unwrap();
    let (_, s_pruned) = tree.execute_id_plan(&plan9).unwrap();
    let (_, s_unpruned) = tree.execute_id_plan(&plan_un).unwrap();
    assert!(
        s_pruned.index_searches < s_unpruned.index_searches,
        "pruned {} vs unpruned {} searches",
        s_pruned.index_searches,
        s_unpruned.index_searches
    );
}

#[test]
fn explain_matches_figure_10_operator_tree() {
    let tree = tree_with(&[(0, 100), (50, 200), (150, 300)]);
    let text = tree.explain(Interval::new(40, 160).unwrap()).unwrap();
    let expected_ops = [
        "SELECT STATEMENT",
        "UNION-ALL",
        "NESTED LOOPS",
        "COLLECTION ITERATOR LEFT_NODES",
        "INDEX RANGE SCAN RI_t_UPPER",
        "NESTED LOOPS",
        "COLLECTION ITERATOR RIGHT_NODES",
        "INDEX RANGE SCAN RI_t_LOWER",
    ];
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), expected_ops.len());
    for (line, op) in lines.iter().zip(expected_ops) {
        assert!(line.trim_start().starts_with(op), "line {line:?} does not start with {op:?}");
    }
}

#[test]
fn query_results_never_contain_duplicates() {
    // Section 4.2: "the three OR-connected conditions specify disjoint
    // interval sets ... no duplicates have to be eliminated".
    let spec = d3(5000, 4000);
    let data = spec.generate(37);
    let tree = tree_with(&data);
    for (ql, qu) in queries_for_selectivity(&spec, 0.05, 10, 38) {
        let ids = sorted(tree.intersection(Interval::new(ql, qu).unwrap()).unwrap());
        let mut dedup = ids.clone();
        dedup.dedup();
        assert_eq!(ids.len(), dedup.len(), "duplicates in result");
    }
}
