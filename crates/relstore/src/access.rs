//! The extensible-indexing contract (paper Section 5 / Section 2.4).
//!
//! Commercial ORDBMSs let developers package an access method behind a
//! uniform *indextype* interface so that "end users can use the Relational
//! Interval Tree just like a built-in index".  This trait is that contract
//! for the reproduction: the RI-tree and every competitor (Tile Index,
//! IST, MAP21, Window-List) implement it, and the experiment harness
//! drives all of them through it — guaranteeing identical measurement
//! conditions, as in the paper's evaluation.

use crate::exec::ExecStats;
use crate::Result;

/// A dynamic interval access method over the relational engine.
pub trait IntervalAccessMethod {
    /// Short display name for reports (e.g. `"RI-tree"`).
    fn method_name(&self) -> &'static str;

    /// Inserts the interval `[lower, upper]` under `id`.  An
    /// `(interval, id)` the method already holds is refused with
    /// `InvalidArgument`, and nothing is written: every method's table is
    /// a set of rows.
    fn am_insert(&self, lower: i64, upper: i64, id: i64) -> Result<()>;

    /// Deletes the exact `(interval, id)`; `false` if absent.
    fn am_delete(&self, lower: i64, upper: i64, id: i64) -> Result<bool>;

    /// Ids of stored intervals intersecting `[lower, upper]`
    /// (closed-interval semantics), each once, in the order the method
    /// produces them — ascending for the competitors, plan order for the
    /// RI-tree; sort them to compare methods.
    fn am_intersection(&self, lower: i64, upper: i64) -> Result<Vec<i64>> {
        Ok(self.am_intersection_with_stats(lower, upper)?.0)
    }

    /// Intersection query that also reports executor statistics, which the
    /// experiment harness feeds into the response-time model.
    fn am_intersection_with_stats(&self, lower: i64, upper: i64) -> Result<(Vec<i64>, ExecStats)>;

    /// Total index entries maintained (Figure 12's storage metric).
    fn am_index_entries(&self) -> Result<u64>;

    /// Number of stored intervals, exact on a quiescent table: a walk of
    /// the leaves of the method's first index, which is its table,
    /// O(pages), counting one row per interval where an interval takes
    /// several (the T-index's); the static Window-List keeps its count.
    fn am_count(&self) -> Result<u64>;
}
