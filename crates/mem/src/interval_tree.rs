//! Edelsbrunner's interval tree (static, main-memory).
//!
//! This is the "original interval tree structure" of the paper's
//! Section 3.1: a balanced binary backbone over the bounding points, with
//! each inner node `w` carrying the lists `L(w)` (sorted lower bounds) and
//! `U(w)` (sorted upper bounds) of the intervals *registered* at `w` — the
//! highest node that the interval overlaps.  Intersection queries follow
//! the three-phase descent of Section 4.1.
//!
//! The RI-tree stores exactly this structure relationally; keeping the
//! pointer-based original around both documents the translation and serves
//! as a fast in-memory baseline.

/// Static main-memory interval tree.
#[derive(Debug)]
pub struct IntervalTree {
    /// Flat binary backbone over value space `[1, 2^h - 1]`, navigated
    /// arithmetically like the RI-tree's virtual backbone.
    root: i64,
    /// Offset subtracted from raw values to map them into `[1, 2^h - 1]`.
    offset: i64,
    /// Node id -> secondary structure, only for non-empty nodes
    /// (the paper's tertiary structure links exactly these).
    nodes: std::collections::HashMap<i64, NodeLists>,
    len: usize,
}

#[derive(Debug, Default)]
struct NodeLists {
    /// `(lower, id)` sorted ascending by lower.
    lower: Vec<(i64, i64)>,
    /// `(upper, id)` sorted descending by upper.
    upper: Vec<(i64, i64)>,
}

impl IntervalTree {
    /// Builds a tree from `(lower, upper, id)` triples.
    ///
    /// # Panics
    /// Panics if any triple has `lower > upper`.
    pub fn build(items: &[(i64, i64, i64)]) -> IntervalTree {
        if items.is_empty() {
            return IntervalTree { root: 0, offset: 0, nodes: Default::default(), len: 0 };
        }
        let min = items.iter().map(|&(l, _, _)| l).min().unwrap();
        let max = items.iter().map(|&(_, u, _)| u).max().unwrap();
        let offset = min - 1; // value space starts at 1
        let span = (max - offset) as u64;
        let h = 64 - span.leading_zeros(); // smallest h with span < 2^h
        let root = 1i64 << (h.max(1) - 1);
        let mut nodes: std::collections::HashMap<i64, NodeLists> = Default::default();
        for &(l, u, id) in items {
            assert!(l <= u, "invalid interval [{l}, {u}]");
            let fork = fork_node(root, l - offset, u - offset);
            let entry = nodes.entry(fork).or_default();
            entry.lower.push((l, id));
            entry.upper.push((u, id));
        }
        for lists in nodes.values_mut() {
            lists.lower.sort_unstable();
            lists.upper.sort_unstable_by(|a, b| b.cmp(a));
        }
        IntervalTree { root, offset, nodes, len: items.len() }
    }

    /// Number of stored intervals.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sorted ids of intervals intersecting `[ql, qu]`.
    ///
    /// Implements the three query phases of Section 4.1: scanning `U(w)`
    /// for path nodes left of the query, `L(w)` for path nodes right of it,
    /// and reporting whole nodes covered by the query.
    pub fn intersection(&self, ql: i64, qu: i64) -> Vec<i64> {
        self.intersection_impl(ql, qu, &mut crate::QueryCost::default())
    }

    /// [`IntervalTree::intersection`] plus its work counters.
    ///
    /// Cost model for `fig23_hot_tier`: one endpoint comparison per
    /// `U(w)`/`L(w)` entry examined (including the one that stops each
    /// scan); covered nodes report their lists wholesale, and the
    /// directory pass that finds them stands in for the tertiary
    /// structure's range links (a range scan in the relational
    /// version), so it is charged as visited nodes, not comparisons.
    pub fn intersection_with_cost(&self, ql: i64, qu: i64) -> (Vec<i64>, crate::QueryCost) {
        let mut cost = crate::QueryCost::default();
        let ids = self.intersection_impl(ql, qu, &mut cost);
        (ids, cost)
    }

    fn intersection_impl(&self, ql: i64, qu: i64, cost: &mut crate::QueryCost) -> Vec<i64> {
        assert!(ql <= qu);
        if self.len == 0 {
            return Vec::new();
        }
        let (l, u) = (ql - self.offset, qu - self.offset);
        let mut out = Vec::new();
        // Visit the union of the root→l and root→u search paths; covered
        // nodes (l <= w <= u) contribute all their intervals, which in this
        // in-memory version we enumerate from the node directory.
        let mut visit = |w: i64| {
            let Some(lists) = self.nodes.get(&w) else { return };
            cost.nodes += 1;
            if w < l {
                // scan U(w) descending while upper >= ql
                for &(up, id) in &lists.upper {
                    cost.comparisons += 1;
                    cost.entries += 1;
                    if up < ql {
                        break;
                    }
                    out.push(id);
                }
            } else if w > u {
                // scan L(w) ascending while lower <= qu
                for &(lo, id) in &lists.lower {
                    cost.comparisons += 1;
                    cost.entries += 1;
                    if lo > qu {
                        break;
                    }
                    out.push(id);
                }
            } else {
                cost.entries += lists.lower.len() as u64;
                out.extend(lists.lower.iter().map(|&(_, id)| id));
            }
        };
        let mut on_path = std::collections::HashSet::new();
        for target in [l, u] {
            let mut node = self.root;
            let mut step = self.root / 2;
            loop {
                if on_path.insert(node) {
                    visit(node);
                }
                if node == target || step < 1 {
                    break;
                }
                if target < node {
                    node -= step;
                } else {
                    node += step;
                }
                step /= 2;
            }
        }
        // Covered nodes *off* the two paths: every non-empty node strictly
        // inside (l, u) that the paths did not touch.  (The relational
        // version gets these for free from the BETWEEN range scan; here we
        // consult the node directory, standing in for the tertiary
        // structure's range links.)
        for (&w, lists) in &self.nodes {
            if w >= l && w <= u && !on_path.contains(&w) {
                cost.nodes += 1;
                cost.entries += lists.lower.len() as u64;
                out.extend(lists.lower.iter().map(|&(_, id)| id));
            }
        }
        out.sort_unstable();
        out
    }

    /// Sorted ids of intervals containing `p`.
    pub fn stab(&self, p: i64) -> Vec<i64> {
        self.intersection(p, p)
    }
}

/// Fork node search in the static backbone (the paper's Figure 4).
fn fork_node(root: i64, l: i64, u: i64) -> i64 {
    let mut node = root;
    let mut step = root / 2;
    while step >= 1 {
        if u < node {
            node -= step;
        } else if node < l {
            node += step;
        } else {
            break;
        }
        step /= 2;
    }
    node
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveIntervalSet;

    fn pseudo_random_items(n: usize, seed: u64) -> Vec<(i64, i64, i64)> {
        crate::tests::pseudo_items(n, seed, 5000, 300, i64::MAX)
    }

    #[test]
    fn empty_tree() {
        let t = IntervalTree::build(&[]);
        assert!(t.is_empty());
        assert_eq!(t.intersection(0, 100), Vec::<i64>::new());
    }

    #[test]
    fn matches_naive_on_random_data() {
        let items = pseudo_random_items(1500, 0xABCDEF);
        let tree = IntervalTree::build(&items);
        let naive = NaiveIntervalSet::from_triples(items.iter().copied());
        let queries = [(0, 5500), (100, 150), (2500, 2500), (-50, 10), (5200, 9000), (4999, 5001)];
        for (ql, qu) in queries {
            assert_eq!(tree.intersection(ql, qu), naive.intersection(ql, qu), "[{ql}, {qu}]");
        }
        for p in (0..5500).step_by(97) {
            assert_eq!(tree.stab(p), naive.stab(p), "stab {p}");
        }
    }

    #[test]
    fn no_redundancy_one_registration_per_interval() {
        let items = pseudo_random_items(500, 42);
        let tree = IntervalTree::build(&items);
        let total: usize = tree.nodes.values().map(|l| l.lower.len()).sum();
        assert_eq!(total, items.len(), "each interval registers at exactly one node");
    }

    #[test]
    fn negative_coordinates() {
        let items = vec![(-100, -50, 1), (-60, 20, 2), (10, 30, 3)];
        let tree = IntervalTree::build(&items);
        assert_eq!(tree.intersection(-55, -52), vec![1, 2]);
        assert_eq!(tree.intersection(0, 9), vec![2]);
        assert_eq!(tree.intersection(15, 100), vec![2, 3]);
        assert_eq!(tree.intersection(25, 100), vec![3], "interval 2 ends at 20");
    }
}
