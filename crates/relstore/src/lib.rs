//! Minimal relational engine: the ORDBMS substrate of the reproduction.
//!
//! The paper implements the RI-tree **"on top of the relational query
//! language"** of an Oracle 8i server — plain tables, built-in composite
//! B+-tree indexes, transient session-state tables, and SQL query plans of
//! index range scans under nested-loops joins (Figure 10).  This crate
//! provides exactly those ingredients, from scratch:
//!
//! * [`catalog::Database`] — a persistent catalog of tables and indexes in
//!   the database header page, plus the *data dictionary* of named integer
//!   parameters the paper's Section 5 uses for `offset`, `leftRoot`,
//!   `rightRoot` and `minstep`;
//! * [`table::Table`] — a table is its covering indexes
//!   ([`TableDef::indexes`]), as the RI-tree's is in Figure 10: each entry
//!   holds the whole row, so there is no row storage besides them and no
//!   row id.  `Table` is the DML that maintains every index, the
//!   equivalent of Figure 5's single `INSERT` statement;
//! * [`exec`] — a push-based physical algebra: `COLLECTION ITERATOR` over
//!   transient tables, `INDEX RANGE SCAN`, `NESTED LOOPS`, `UNION-ALL`,
//!   `FILTER` and `PROJECTION`, which is sufficient to express every
//!   query plan in the paper (RI-tree, Tile Index, IST, MAP21); rows stream
//!   into the caller's sink ([`Database::execute_with`]) as [`Rows`]
//!   batches — one B-link leaf's in-range entries at a time, as they lie
//!   on the page — with nothing materialized in between;
//! * [`par`] — the fan-out scaffold ([`fan_out`]): independent statements
//!   run over scoped worker threads, scaling with the buffer pool's lock
//!   striping;
//! * [`explain`] — renders plans in the style of the paper's Figure 10.
//!
//! Everything is measured: each operator run reports rows examined, and all
//! page I/O flows through the shared [`ri_pagestore::BufferPool`].

pub mod access;
pub mod catalog;
pub mod exec;
pub mod explain;
pub mod par;
pub mod table;

pub use access::IntervalAccessMethod;
pub use catalog::{Database, IndexDef, TableDef};
pub use exec::{BoundExpr, ExecStats, Plan, Predicate, Row, RowRef, Rows};
pub use par::fan_out;
pub use table::Table;

pub use ri_pagestore::{Error, Result};

#[cfg(test)]
mod tests {
    use super::*;
    use ri_pagestore::{BufferPool, MemDisk, DEFAULT_PAGE_SIZE};
    use std::sync::Arc;

    #[test]
    fn end_to_end_schema_and_query() {
        let pool = Arc::new(BufferPool::with_defaults(MemDisk::new(DEFAULT_PAGE_SIZE)));
        let db = Database::create(pool).unwrap();
        // The paper's Figure 2 schema, with `id` in the index (Figure 10).
        db.create_table(TableDef {
            name: "INTERVALS".into(),
            columns: vec!["node".into(), "lower".into(), "upper".into(), "id".into()],
            indexes: vec![IndexDef { name: "LOWER_INDEX".into(), key_cols: vec![0, 1, 3] }],
        })
        .unwrap();
        let t = db.table("INTERVALS").unwrap();
        t.insert(&[8, 3, 9, 1]).unwrap();
        t.insert(&[8, 5, 12, 2]).unwrap();
        t.insert(&[4, 2, 6, 3]).unwrap();

        let plan = Plan::IndexRangeScan {
            table: "INTERVALS".into(),
            index: "LOWER_INDEX".into(),
            lo: vec![BoundExpr::Const(8), BoundExpr::NegInf, BoundExpr::NegInf],
            hi: vec![BoundExpr::Const(8), BoundExpr::PosInf, BoundExpr::PosInf],
        };
        let mut stats = ExecStats::default();
        let rows = db.execute(&plan, &mut stats).unwrap();
        let ids: Vec<i64> = rows.iter().map(|r| r[2]).collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(stats.rows_examined, 2);
    }
}
