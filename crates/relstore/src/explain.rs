//! EXPLAIN-style plan rendering, after the paper's Figure 10.
//!
//! ```text
//! SELECT STATEMENT
//!   UNION-ALL
//!     NESTED LOOPS
//!       COLLECTION ITERATOR LEFT_NODES
//!       INDEX RANGE SCAN UPPER_INDEX
//!     NESTED LOOPS
//!       COLLECTION ITERATOR RIGHT_NODES
//!       INDEX RANGE SCAN LOWER_INDEX
//! ```

use crate::exec::Plan;

/// Renders `plan` as an indented operator tree, one operator per line,
/// mirroring Oracle's `EXPLAIN PLAN` output shown in the paper's Figure 10.
pub fn explain(plan: &Plan) -> String {
    let mut out = String::from("SELECT STATEMENT\n");
    render(plan, 1, &mut out);
    out
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn render(plan: &Plan, depth: usize, out: &mut String) {
    indent(depth, out);
    match plan {
        Plan::CollectionIterator { name, rows } => {
            out.push_str(&format!("COLLECTION ITERATOR {name} ({} rows)\n", rows.len()));
        }
        Plan::IndexRangeScan { index, .. } => {
            out.push_str(&format!("INDEX RANGE SCAN {index}\n"));
        }
        Plan::NestedLoops { outer, inner } => {
            out.push_str("NESTED LOOPS\n");
            render(outer, depth + 1, out);
            render(inner, depth + 1, out);
        }
        Plan::UnionAll(inputs) => {
            out.push_str("UNION-ALL\n");
            for p in inputs {
                render(p, depth + 1, out);
            }
        }
        Plan::Filter { input, .. } => {
            out.push_str("FILTER\n");
            render(input, depth + 1, out);
        }
        Plan::Project { input, cols } => {
            out.push_str(&format!("PROJECTION {cols:?}\n"));
            render(input, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::BoundExpr;

    #[test]
    fn figure_10_shape() {
        let scan = |index: &str| Plan::IndexRangeScan {
            table: "INTERVALS".into(),
            index: index.into(),
            lo: vec![BoundExpr::Outer(0), BoundExpr::NegInf],
            hi: vec![BoundExpr::Outer(1), BoundExpr::PosInf],
        };
        let plan = Plan::UnionAll(vec![
            Plan::NestedLoops {
                outer: Box::new(Plan::CollectionIterator {
                    name: "LEFT_NODES".into(),
                    rows: vec![vec![0, 0]],
                }),
                inner: Box::new(scan("UPPER_INDEX")),
            },
            Plan::NestedLoops {
                outer: Box::new(Plan::CollectionIterator {
                    name: "RIGHT_NODES".into(),
                    rows: vec![vec![1, 1]],
                }),
                inner: Box::new(scan("LOWER_INDEX")),
            },
        ]);
        let text = explain(&plan);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "SELECT STATEMENT");
        assert_eq!(lines[1], "  UNION-ALL");
        assert_eq!(lines[2], "    NESTED LOOPS");
        assert!(lines[3].contains("COLLECTION ITERATOR LEFT_NODES"));
        assert!(lines[4].contains("INDEX RANGE SCAN UPPER_INDEX"));
        assert_eq!(lines[5], "    NESTED LOOPS");
        assert!(lines[6].contains("COLLECTION ITERATOR RIGHT_NODES"));
        assert!(lines[7].contains("INDEX RANGE SCAN LOWER_INDEX"));
    }

    #[test]
    fn filter_scan_render() {
        let plan = Plan::Filter {
            input: Box::new(Plan::CollectionIterator { name: "T".into(), rows: vec![vec![1]] }),
            pred: crate::exec::Predicate::And(vec![]),
        };
        let text = explain(&plan);
        assert!(text.contains("FILTER"));
        assert!(text.contains("COLLECTION ITERATOR T"));
    }
}
