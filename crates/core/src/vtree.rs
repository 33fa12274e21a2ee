//! The virtual backbone: pure arithmetic, no I/O.
//!
//! This module implements the paper's primary structure *without
//! materializing it* — the central idea of Section 3.  Four persistent
//! parameters (`offset`, `leftRoot`, `rightRoot`, `minstep`) describe a
//! virtual binary tree over the shifted data space; fork-node computation
//! (Figure 4), insertion-time parameter maintenance (Figure 6) and the
//! query-time traversal that fills the transient `leftNodes` / `rightNodes`
//! tables (Sections 4.1–4.3) are all integer arithmetic.
//!
//! # minstep representation
//!
//! The paper tracks the lowest backbone level at which intervals were
//! registered; conceptually the value can be 0.5 ("the minimum value of 0.5
//! for minstep will not be stored and, thus, the implementation by an
//! integer works well", Section 3.4).  We store `minstep2 = 2 · minstep`:
//! a fork found while descending with step `s` contributes `2·s`, and a fork
//! at a leaf (the conceptual 0.5) contributes 1 — which is why the stored
//! minimum is 1, matching the value the paper reports in Section 6.1.
//!
//! # The fork node in closed form
//!
//! Figure 4 descends from a root `R = 2^k` with steps `R/2, R/4, …, 1`;
//! the nodes it can reach are exactly the integers in `(0, 2R)`, arranged
//! in order, and a node's level is its number of trailing zeros.  The
//! descent stops at the first node inside `[l, u]`, so the fork is the
//! *highest* node of the interval: the one with the most trailing zeros,
//! which is unique (between two numbers with `t` trailing zeros lies one
//! with more).  For `1 <= l <= u` it is `u` with every bit below the
//! highest bit in which `l − 1` and `u` differ cleared.  Figure 6 runs the
//! same descent in the two-rooted tree, so [`BackboneParams`] computes it
//! in O(1) instead of O(height):
//!
//! - an interval containing the shifted origin forks at the global root 0;
//! - an interval right of it forks at the highest node of `[l, u]`
//!   clamped into the right root's span `(0, 2·rightRoot)` — an interval
//!   past the span (only a deletion probe can be one) ends the loop at
//!   the span's last leaf, as the clamp does;
//! - an interval left of it is the mirror image under the left root.
//!
//! The step at which Figure 6 stops at a node is half that node's lowest
//! set bit, so the `minstep2` a registration contributes is the fork
//! node's lowest set bit (1 at a leaf).  Figure 6's loop is kept in
//! `tests/vtree_proptest.rs` as the reference the closed form is checked
//! against, as [`fork_node_fig4`] is kept for Figure 4.
//!
//! # The backbone's span
//!
//! Shifted bounds on one root's side must lie strictly inside `±2^62`:
//! Figure 6 compares a bound with twice its root, and a root expanded to
//! `2^62` could not be doubled again.  [`BackboneParams::admits`] says
//! whether an interval can be registered; the RI-tree refuses the rest.

/// The four persistent parameters of the virtual primary structure, plus
/// whether the offset has been fixed yet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackboneParams {
    /// Shift applied to bounds so the data space starts near 0; fixed by the
    /// first insertion (Section 3.4, "offset is fixed after having inserted
    /// the first interval").
    pub offset: Option<i64>,
    /// Root of the subtree of negative node values (`<= 0`, a negated power
    /// of two once set).
    pub left_root: i64,
    /// Root of the subtree of positive node values (`>= 0`, a power of two
    /// once set).
    pub right_root: i64,
    /// Twice the smallest registration step observed (see module docs);
    /// `i64::MAX` while no interval has been inserted ("initialized by
    /// infinity").
    pub minstep2: i64,
}

impl Default for BackboneParams {
    fn default() -> Self {
        BackboneParams { offset: None, left_root: 0, right_root: 0, minstep2: i64::MAX }
    }
}

/// The transient node collections a query traversal produces.
///
/// `left` rows are `(min, max)` node ranges joined against the *upper*
/// index with the additional condition `upper >= query.lower`; `right` rows
/// are single nodes joined against the *lower* index with
/// `lower <= query.upper` — exactly the two-fold query of Figure 9.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryNodes {
    /// `(min, max)` node ranges for the upper-index branch (shifted space).
    pub left: Vec<(i64, i64)>,
    /// Single nodes for the lower-index branch (shifted space).
    pub right: Vec<i64>,
}

/// `floor(log2(x))` for `x >= 1`.
#[inline]
fn floor_log2(x: i64) -> u32 {
    debug_assert!(x >= 1);
    63 - x.leading_zeros()
}

/// The paper's Figure 4: fork node of `(lower, upper)` in a *static* tree
/// rooted at `root` (no dynamic expansion).  Kept verbatim as a reference
/// implementation for tests and documentation.
pub fn fork_node_fig4(root: i64, lower: i64, upper: i64) -> i64 {
    debug_assert!(lower <= upper);
    let mut node = root;
    let mut step = node / 2;
    while step >= 1 {
        if upper < node {
            node -= step;
        } else if node < lower {
            node += step;
        } else {
            break;
        }
        step /= 2;
    }
    node
}

/// Bounds of one root's side lie strictly inside `±SPAN` (module docs).
const SPAN: i64 = 1 << 62;

/// The node at which Figure 4's descent from `root` (a power of two, or 0
/// for a side that holds nothing) stops for `1 <= l <= u`: the node of
/// `[l, u]` with the most trailing zeros, after both bounds are clamped
/// into the subtree's span `(0, 2·root)` (module docs).
fn highest_node(root: i64, l: i64, u: i64) -> i64 {
    if root == 0 {
        return 0;
    }
    let last = 2 * root - 1;
    let (l, u) = (l.min(last), u.min(last));
    let h = 63 - ((l - 1) ^ u).leading_zeros();
    (u >> h) << h
}

impl BackboneParams {
    /// Fresh parameters (empty tree).
    pub fn new() -> BackboneParams {
        BackboneParams::default()
    }

    /// Shifts a raw bound into backbone coordinates.
    ///
    /// Returns `None` while no interval has fixed the offset.
    pub fn shift(&self, raw: i64) -> Option<i64> {
        self.offset.map(|off| raw - off)
    }

    /// Whether `[lower, upper]` (raw coordinates) can be registered: both
    /// shifted bounds fit in an `i64` — against the offset this interval
    /// would fix, if none is fixed yet — and an interval on one root's side
    /// stays strictly inside `±2^62` (see the module docs).  An interval
    /// containing the shifted origin forks at the global root and expands
    /// nothing, so only its shift must fit.
    pub fn admits(&self, lower: i64, upper: i64) -> bool {
        let offset = self.offset.unwrap_or(lower);
        match (lower.checked_sub(offset), upper.checked_sub(offset)) {
            (Some(l), Some(u)) if u < 0 => l > -SPAN,
            (Some(l), Some(u)) if 0 < l => u < SPAN,
            (Some(_), Some(_)) => true,
            _ => false,
        }
    }

    /// Figure 6: computes the fork node for inserting `[lower, upper]`
    /// (raw coordinates) and updates `offset`, `leftRoot`, `rightRoot` and
    /// `minstep` — all in O(1) integer operations, no I/O.  The interval
    /// must be one the backbone [`admits`](BackboneParams::admits).
    ///
    /// Returns the (shifted) node value to store in the `node` column.
    pub fn prepare_insert(&mut self, lower: i64, upper: i64) -> i64 {
        debug_assert!(lower <= upper);
        debug_assert!(self.admits(lower, upper), "[{lower}, {upper}] outside the backbone");
        // "if (offset = NULL) offset = lower" — fixed by the first interval.
        let offset = *self.offset.get_or_insert(lower);
        let l = lower - offset;
        let u = upper - offset;
        // Expansion at the lower bound: leftRoot doubles (Section 3.4).
        if u < 0 && l <= 2 * self.left_root {
            self.left_root = -(1i64 << floor_log2(-l));
        }
        // Expansion at the upper bound: rightRoot doubles.
        if 0 < l && u >= 2 * self.right_root {
            self.right_root = 1i64 << floor_log2(u);
        }
        let node = self.fork_search(l, u);
        // "if (node != 0 and step < minstep) minstep = step" — the loop
        // stops at `node` with `2·step` its lowest set bit (1 at a leaf),
        // and the global root never contributes.
        if node != 0 {
            self.minstep2 = self.minstep2.min(node & node.wrapping_neg());
        }
        node
    }

    /// Pure fork-node computation for `[lower, upper]` with the *current*
    /// parameters (used by deletion; no parameters are modified).
    ///
    /// Fork nodes are stable under root expansion — doubling a root `R` to
    /// `2R` prepends one step that leads straight back to `R` — so the value
    /// computed at deletion time equals the one stored at insertion time.
    /// Returns `None` while the tree has no offset (nothing was inserted)
    /// and when a shifted bound overflows (no stored interval has one).
    pub fn fork_of(&self, lower: i64, upper: i64) -> Option<i64> {
        debug_assert!(lower <= upper);
        let offset = self.offset?;
        Some(self.fork_search(lower.checked_sub(offset)?, upper.checked_sub(offset)?))
    }

    /// Figure 6's descent over the two-rooted virtual tree, in closed form
    /// (module docs).  `l` and `u` are shifted coordinates.
    fn fork_search(&self, l: i64, u: i64) -> i64 {
        if u < 0 {
            // The mirror image of the right side; the saturated bounds are
            // clamped into the left root's span anyway.
            -highest_node(-self.left_root, u.saturating_neg(), l.saturating_neg())
        } else if 0 < l {
            highest_node(self.right_root, l, u)
        } else {
            // The global root 0 overlaps [l, u].
            0
        }
    }

    /// Query traversal (Sections 4.1–4.3): computes the transient node
    /// collections for an intersection query `[lower, upper]` in raw
    /// coordinates.
    ///
    /// The returned `left` list already contains the `(lower−offset,
    /// upper−offset)` range pair of the Section 4.3 transformation, so the
    /// caller needs exactly the two-fold query of Figure 9.  Traversal
    /// descends at most to the level recorded in `minstep` (Section 3.4's
    /// granularity pruning) and costs no I/O.
    pub fn query_nodes(&self, lower: i64, upper: i64) -> QueryNodes {
        debug_assert!(lower <= upper);
        let Some(offset) = self.offset else {
            // Empty tree: no nodes to visit, no range pair needed.
            return QueryNodes::default();
        };
        // Clamped shift: queries may carry open-ended bounds near the i64
        // extremes (e.g. the Allen `before` and `after` probes).  Every
        // backbone node lies strictly inside ±SPAN, so clamping there is
        // lossless, and keeps the BETWEEN range pair off the temporal
        // sentinels' nodes (`i64::MAX − 1`, `i64::MAX`), whose rows the
        // right branch already reads.
        let l = lower.saturating_sub(offset).clamp(-SPAN, SPAN);
        let u = upper.saturating_sub(offset).clamp(-SPAN, SPAN);
        let mut nodes = NodeCollector { l, u, left: Vec::new(), right: Vec::new() };

        // The global root 0 lies on every search path.  It never updates
        // minstep (Figure 6), so it is always eligible to hold intervals.
        nodes.visit(0);
        if l < 0 && self.left_root != 0 {
            self.walk(self.left_root, l, &mut nodes);
            if u < 0 {
                self.walk(self.left_root, u, &mut nodes);
            }
        }
        if u > 0 && self.right_root != 0 {
            self.walk(self.right_root, u, &mut nodes);
            if l > 0 {
                self.walk(self.right_root, l, &mut nodes);
            }
        }
        // Shared path prefixes visit nodes twice; deduplicate.
        nodes.left.sort_unstable();
        nodes.left.dedup();
        nodes.right.sort_unstable();
        nodes.right.dedup();

        let mut left: Vec<(i64, i64)> = nodes.left.into_iter().map(|w| (w, w)).collect();
        // Section 4.3: the BETWEEN subquery becomes one more (min, max) pair
        // in leftNodes; by the Lemma, adding `upper >= :lower` to it loses
        // no results.
        left.push((l, u));
        QueryNodes { left, right: nodes.right }
    }

    /// Walks the point-search path from `root` towards `target`, visiting
    /// every node on it that may hold registered intervals.
    ///
    /// The union of the paths towards `lower` and `upper` is exactly the
    /// node set the paper's three-phase algorithm (Section 4.1) inspects:
    /// the shared prefix is phase (1), the divergent suffixes are phases
    /// (2) and (3).
    fn walk(&self, root: i64, target: i64, nodes: &mut NodeCollector) {
        let mut node = root;
        // Check-step of `node`: the step value Figure 6's loop would carry
        // when testing it.  `2*c >= minstep2` ⇔ the node can hold intervals.
        let mut c = (node / 2).abs();
        loop {
            let eligible = if c >= 1 { 2 * c >= self.minstep2 } else { self.minstep2 <= 1 };
            if eligible {
                nodes.visit(node);
            } else {
                // Deeper nodes have even smaller check-steps: prune.
                return;
            }
            if node == target || c < 1 {
                return;
            }
            if target < node {
                node -= c;
            } else {
                node += c;
            }
            c /= 2;
        }
    }

    /// Tree height per Section 3.5: `log2(m) + 1` with
    /// `m = max(|leftRoot|, rightRoot) / minstep` (conceptual minstep, i.e.
    /// `2·max/minstep2` in our representation).  Returns 0 for an empty
    /// tree.  The height depends only on data-space expansion and
    /// granularity, never on the number of intervals.
    pub fn height(&self) -> u32 {
        let spread = self.left_root.abs().max(self.right_root);
        if spread == 0 {
            return if self.offset.is_some() { 1 } else { 0 };
        }
        let m = (2 * spread) / self.minstep2.max(1);
        floor_log2(m.max(1)) + 1
    }
}

/// Classifies visited nodes relative to the (shifted) query interval.
struct NodeCollector {
    l: i64,
    u: i64,
    left: Vec<i64>,
    right: Vec<i64>,
}

impl NodeCollector {
    fn visit(&mut self, w: i64) {
        if w < self.l {
            // Left of the query: scan U(w) for upper >= query.lower.
            self.left.push(w);
        } else if w > self.u {
            // Right of the query: scan L(w) for lower <= query.upper.
            self.right.push(w);
        }
        // l <= w <= u: covered by the BETWEEN range pair — nothing to do.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_reference_examples() {
        // Tree over [1, 15], root 8.
        assert_eq!(fork_node_fig4(8, 8, 8), 8);
        assert_eq!(fork_node_fig4(8, 3, 5), 4);
        assert_eq!(fork_node_fig4(8, 5, 7), 6);
        assert_eq!(fork_node_fig4(8, 5, 5), 5);
        assert_eq!(fork_node_fig4(8, 3, 9), 8, "spans the root");
        assert_eq!(fork_node_fig4(8, 13, 13), 13);
        // The fork node is the highest node inside the interval.
        for l in 1..=15 {
            for u in l..=15 {
                let f = fork_node_fig4(8, l, u);
                assert!((l..=u).contains(&f), "fork {f} outside [{l}, {u}]");
            }
        }
    }

    #[test]
    fn first_insert_fixes_offset_and_forks_at_zero() {
        let mut p = BackboneParams::new();
        let node = p.prepare_insert(1000, 1010);
        assert_eq!(p.offset, Some(1000));
        // Shifted interval [0, 10] contains 0, so the fork is the global root.
        assert_eq!(node, 0);
        assert_eq!(p.minstep2, i64::MAX, "root registrations never update minstep");
    }

    #[test]
    fn right_root_doubles_with_data_space() {
        let mut p = BackboneParams::new();
        p.prepare_insert(0, 0); // offset = 0
        p.prepare_insert(3, 3);
        assert_eq!(p.right_root, 2);
        p.prepare_insert(5, 6);
        assert_eq!(p.right_root, 4);
        p.prepare_insert(1000, 1000);
        assert_eq!(p.right_root, 512);
        // Expanding the space must not move existing forks.
        assert_eq!(p.fork_of(3, 3), Some(3));
        assert_eq!(p.fork_of(5, 6), Some(6));
    }

    #[test]
    fn left_root_expansion_for_late_low_intervals() {
        let mut p = BackboneParams::new();
        p.prepare_insert(100, 110); // offset = 100
        let node = p.prepare_insert(40, 50); // shifted [-60, -50]
        assert!(node < 0);
        assert_eq!(p.left_root, -(1 << floor_log2(60)));
        assert_eq!(p.fork_of(40, 50), Some(node));
    }

    #[test]
    fn fork_is_stable_under_later_expansion() {
        let mut p = BackboneParams::new();
        p.prepare_insert(0, 0);
        let mut stored = Vec::new();
        let data: Vec<(i64, i64)> = (1..200).map(|i| (i * 3, i * 3 + (i % 7))).collect();
        for &(l, u) in &data {
            stored.push(p.prepare_insert(l, u));
        }
        for (i, &(l, u)) in data.iter().enumerate() {
            assert_eq!(p.fork_of(l, u), Some(stored[i]), "fork moved for [{l}, {u}]");
        }
    }

    #[test]
    fn fork_lemma_interval_not_below_its_length_level() {
        // Section 3.4 Lemma: an interval (l, u) is never registered below
        // level floor(log2(u - l)); with our minstep2 = 2*step encoding the
        // registration step satisfies 2*step >= 2^floor(log2(u-l)).
        let mut p = BackboneParams::new();
        p.prepare_insert(0, 1 << 20);
        let mut x = 0x243F6A8885A308D3u64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let l = (x % (1 << 20)) as i64;
            let len = ((x >> 32) % 4096) as i64;
            let u = (l + len).min((1 << 20) - 1);
            let before = p.minstep2;
            p.prepare_insert(l, u);
            if u > l && p.minstep2 < before {
                let level = floor_log2(u - l);
                assert!(
                    p.minstep2 >= (1 << level),
                    "interval [{l},{u}] registered below level {level}: minstep2 {}",
                    p.minstep2
                );
            }
        }
    }

    #[test]
    fn point_inserts_drive_minstep_to_one() {
        let mut p = BackboneParams::new();
        p.prepare_insert(0, 1 << 12);
        assert_eq!(p.minstep2, i64::MAX);
        p.prepare_insert(41, 41); // odd point: leaf registration
        assert_eq!(p.minstep2, 1, "Section 6.1: minstep reaches its minimum value");
    }

    #[test]
    fn query_nodes_empty_tree() {
        let p = BackboneParams::new();
        assert_eq!(p.query_nodes(5, 10), QueryNodes::default());
    }

    #[test]
    fn query_nodes_contain_between_pair() {
        let mut p = BackboneParams::new();
        p.prepare_insert(100, 200);
        let q = p.query_nodes(150, 160);
        // Shifted query is [50, 60].
        assert!(q.left.contains(&(50, 60)), "missing BETWEEN pair: {q:?}");
    }

    #[test]
    fn query_node_lists_are_disjoint_from_covered_range() {
        let mut p = BackboneParams::new();
        for i in 0..500i64 {
            p.prepare_insert(i * 7, i * 7 + i % 13);
        }
        let (lo, hi) = (777, 1234);
        let q = p.query_nodes(lo, hi);
        let (l, u) = (lo - p.offset.unwrap(), hi - p.offset.unwrap());
        for &(a, b) in &q.left[..q.left.len() - 1] {
            assert_eq!(a, b, "side entries are single nodes");
            assert!(a < l, "left node {a} not strictly left of query");
        }
        for &w in &q.right {
            assert!(w > u, "right node {w} not strictly right of query");
        }
        // No duplicates.
        let mut seen = std::collections::BTreeSet::new();
        for &(a, _) in &q.left[..q.left.len() - 1] {
            assert!(seen.insert(a));
        }
        for &w in &q.right {
            assert!(seen.insert(w));
        }
    }

    #[test]
    fn traversal_length_is_logarithmic() {
        let mut p = BackboneParams::new();
        p.prepare_insert(0, 0);
        p.prepare_insert(1 << 20, (1 << 20) + 1); // expand to 2^20
        p.prepare_insert(17, 17); // minstep 1: full-depth descents
        let q = p.query_nodes(123_456, 234_567);
        let h = p.height() as usize;
        assert!(
            q.left.len() + q.right.len() <= 2 * h + 3,
            "{} + {} node entries exceeds 2h+3 with h = {h}",
            q.left.len(),
            q.right.len()
        );
    }

    #[test]
    fn minstep_prunes_deep_levels() {
        let mut p = BackboneParams::new();
        // Only long intervals: registrations stay at high levels.
        p.prepare_insert(0, 1 << 16);
        for i in 0..100i64 {
            let l = i * 512;
            p.prepare_insert(l, l + 2048);
        }
        let coarse = p.query_nodes(10_000, 10_001);
        let coarse_nodes = coarse.left.len() + coarse.right.len();
        // Now add a point: minstep collapses to 1 and descents deepen.
        p.prepare_insert(33_333, 33_333);
        let fine = p.query_nodes(10_000, 10_001);
        let fine_nodes = fine.left.len() + fine.right.len();
        assert!(
            coarse_nodes < fine_nodes,
            "granularity pruning had no effect: {coarse_nodes} vs {fine_nodes}"
        );
    }

    #[test]
    fn height_tracks_expansion_not_cardinality() {
        let mut p = BackboneParams::new();
        p.prepare_insert(0, 1);
        p.prepare_insert(5, 5);
        let h_small = p.height();
        // Ten thousand more intervals in the same space: height unchanged.
        for i in 0..10_000i64 {
            p.prepare_insert(i % 7, i % 7 + 1);
        }
        assert_eq!(p.height(), h_small);
        // Expanding the space grows the height logarithmically.
        p.prepare_insert(1 << 19, 1 << 19);
        assert!(p.height() >= 19);
        assert!(p.height() <= 21);
    }
}
