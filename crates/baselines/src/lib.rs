//! The dynamic relational competitors of the paper's evaluation (Section 6).
//!
//! "Among the wide range of existing interval access methods only the
//! static Window-List approach, the Tile Index and the Interval-Spatial
//! Transformation technique are designed to use existing B+-trees on an
//! as-they-are basis" — so these are the baselines the paper measures the
//! RI-tree against, and these are what this crate provides:
//!
//! * [`ist::Ist`] — the Interval-Spatial Transformation of Goh et al.: a
//!   composite index on the interval bounds.  The D-ordering is equivalent
//!   to an index on `(upper, lower)` (the variant the paper benchmarks,
//!   Figure 11) and the V-ordering to `(lower, upper)`.
//! * [`tindex::TileIndex`] — the Oracle8i Spatial Tile Index: hybrid
//!   fixed/variable tiling re-implemented for one-dimensional data spaces,
//!   including the sample-based tuning of the fixed level (Section 6.1).
//! * [`map21::Map21`] — MAP21 of Nascimento & Dunham: interval bounds in a
//!   single lexicographic key with static partitioning by interval length.
//! * [`windowlist::WindowList`] — a faithful stand-in for Ramaswamy's
//!   static Window-List (see the module docs for the substitution note).
//!
//! All methods run on the same [`ri_relstore`] engine and implement
//! [`ri_relstore::IntervalAccessMethod`], so their physical I/O is measured
//! under exactly the same buffer-pool rules as the RI-tree's.

pub mod ist;
pub mod map21;
pub mod tindex;
pub mod windowlist;

pub use ist::{Ist, IstOrder};
pub use map21::Map21;
pub use tindex::TileIndex;
pub use windowlist::WindowList;

pub use ri_relstore::IntervalAccessMethod;

#[cfg(test)]
mod tests {
    use ri_relstore::Database;

    /// Asserts that `db` holds its header page and `table`'s `indexes` —
    /// each one's meta page and the pages its `index_stats` counts — and
    /// not one page more: the indexes are the table.
    pub(crate) fn assert_only_indexes(db: &Database, table: &str, indexes: &[&str]) {
        let pages = |index: &&str| 1 + db.index_stats(table, index).unwrap().pages;
        let expected = 1 + indexes.iter().map(pages).sum::<u64>();
        assert_eq!(db.pool().num_pages(), expected, "{table}: header and {indexes:?} only");
    }
}
