//! The twin check: an RI-tree's two indexes hold the same rows.
//!
//! Each `lowerIndex` entry `(node, lower, id) → upper` must have exactly
//! one `upperIndex` twin `(node, upper, id) → lower`, and the other way
//! round: the indexes are the table, so nothing else holds its rows.  Shared
//! by the root suites (through `common`) and the core crate's hot-tier
//! suite (`#[path]`), so it names no type but the `RiTree` its parent
//! module imports.

use super::RiTree;

/// Asserts that `tree`'s `lowerIndex` and `upperIndex` entries pair up one
/// to one; every failure names `ctx`.  Reads both indexes whole: for
/// quiescent trees.
pub fn assert_twins(tree: &RiTree, ctx: &str) {
    let table = tree.db().table(tree.table_name()).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    // Rows `(node, lower, upper, id)` as each index spells them.
    let rows = |suffix: &str, bound: usize| {
        let index = table.index(&format!("{}_{suffix}", tree.table_name())).unwrap();
        let mut rows: Vec<[i64; 4]> = index
            .scan_all()
            .map(|e| {
                let e = e.unwrap_or_else(|e| panic!("{ctx}: {suffix} scan: {e}"));
                let (key, other) = (e.key.as_slice(), e.payload as i64);
                let mut row = [key[0], other, other, key[2]];
                row[bound] = key[1];
                row
            })
            .collect();
        rows.sort_unstable();
        rows
    };
    let (lower, upper) = (rows("LOWER", 1), rows("UPPER", 2));
    if let Some(i) = (0..lower.len().max(upper.len())).find(|&i| lower.get(i) != upper.get(i)) {
        panic!(
            "{ctx}: the indexes part at sorted row {i} of {} / {}: lowerIndex {:?}, upperIndex {:?}",
            lower.len(),
            upper.len(),
            lower.get(i),
            upper.get(i)
        );
    }
    if let Some(w) = lower.windows(2).find(|w| w[0] == w[1]) {
        panic!("{ctx}: row {:?} is stored twice", w[0]);
    }
}
