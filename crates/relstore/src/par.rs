//! Fan-out scaffold: run independent statements — reads and writes —
//! from multiple threads.
//!
//! The paper's setting delegates all locking to the host RDBMS; in this
//! reproduction every structure below the executor is internally
//! synchronized — the buffer pool by lock-striped shards, the catalog by
//! its reader-writer lock, the B-link trees, which are the tables, by
//! per-node write latches (their readers are latch-free) — so
//! *independent* statements can run concurrently with no coordination
//! beyond a scoped thread join.  [`fan_out`] is that join: it partitions
//! a batch over a bounded number of worker threads, runs the caller's
//! closure on each item exactly as a sequential loop would, and returns
//! the results in input order.  Single-item or single-thread calls take
//! the sequential path, so it adds no overhead (and no nondeterminism) to
//! the paper's single-threaded figure experiments.

/// Fans `items` out over at most `threads` worker threads in contiguous
/// chunks, applying `f` to each and returning the outputs **in input
/// order**.  With `threads <= 1` (or a single item) everything runs
/// sequentially on the caller's thread; a panicking worker propagates its
/// panic after all workers are joined.
///
/// This is the one fan-out scaffold behind `RiTree::insert_batch`,
/// `RiTree::intersection_batch` and the concurrency benches.
pub fn fan_out<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = threads.clamp(1, items.len().max(1));
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(items.len(), || None);
    let chunk = items.len().div_ceil(workers);
    crossbeam::thread::scope(|s| {
        for (item_chunk, slot_chunk) in items.chunks(chunk).zip(slots.chunks_mut(chunk)) {
            let f = &f;
            s.spawn(move |_| {
                for (item, slot) in item_chunk.iter().zip(slot_chunk.iter_mut()) {
                    *slot = Some(f(item));
                }
            });
        }
    })
    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    slots.into_iter().map(|s| s.expect("every chunk was executed")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Database, IndexDef, TableDef};
    use crate::exec::{BoundExpr, ExecStats, Plan, Row};
    use ri_pagestore::{BufferPool, BufferPoolConfig, MemDisk, Result};
    use std::sync::Arc;

    fn setup(shards: usize) -> Database {
        let pool =
            Arc::new(BufferPool::new(MemDisk::new(2048), BufferPoolConfig::sharded(64, shards)));
        let db = Database::create(pool).unwrap();
        db.create_table(TableDef {
            name: "T".into(),
            columns: vec!["k".into(), "v".into(), "id".into()],
            indexes: vec![IndexDef { name: "KV".into(), key_cols: vec![0, 1] }],
        })
        .unwrap();
        let t = db.table("T").unwrap();
        for i in 0..400i64 {
            t.insert(&[i % 10, i, 7000 + i]).unwrap();
        }
        db
    }

    fn scan_plan(k: i64) -> Plan {
        Plan::IndexRangeScan {
            table: "T".into(),
            index: "KV".into(),
            lo: vec![BoundExpr::Const(k), BoundExpr::NegInf],
            hi: vec![BoundExpr::Const(k), BoundExpr::PosInf],
        }
    }

    fn run(db: &Database, plan: &Plan) -> Result<(Vec<Row>, ExecStats)> {
        let mut stats = ExecStats::default();
        let rows = db.execute(plan, &mut stats)?;
        Ok((rows, stats))
    }

    #[test]
    fn parallel_matches_sequential_in_order() {
        for shards in [1, 4] {
            let db = setup(shards);
            let plans: Vec<Plan> = (0..10).map(scan_plan).collect();
            let sequential: Vec<_> = plans.iter().map(|p| run(&db, p).unwrap()).collect();
            for threads in [1, 2, 8] {
                let parallel = fan_out(&plans, threads, |p| run(&db, p).unwrap());
                assert_eq!(parallel, sequential, "rows or stats diverged at {threads} threads");
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let db = setup(1);
        assert!(fan_out(&[], 8, |p| run(&db, p)).is_empty());
    }

    #[test]
    fn errors_surface_from_worker_threads() {
        let db = setup(2);
        let bad = Plan::IndexRangeScan {
            table: "NO_SUCH_TABLE".into(),
            index: "KV".into(),
            lo: vec![BoundExpr::NegInf; 2],
            hi: vec![BoundExpr::PosInf; 2],
        };
        let plans = vec![scan_plan(1), bad, scan_plan(2)];
        let results = fan_out(&plans, 3, |p| run(&db, p));
        assert!(results[0].is_ok() && results[1].is_err() && results[2].is_ok());
        assert!(results.into_iter().collect::<Result<Vec<_>>>().is_err());
    }

    #[test]
    fn mixed_batch_inserts_queries_and_deletes() {
        for threads in [1, 4] {
            let db = setup(4);
            let t = db.table("T").unwrap();
            // 40 concurrent inserts...
            let rows: Vec<Row> = (0..40i64).map(|i| vec![100, 9000 + i, i]).collect();
            fan_out(&rows, threads, |row| t.insert(row).unwrap());
            // ...then two deletes of each of ten rows, ten statements apart
            // so that at four threads each pair runs on two workers, racing
            // one query over the inserted key: `Some(row)` deletes, `None`
            // counts the rows of key 100.
            let victims = rows[..10].iter().chain(&rows[..10]).map(Some);
            let mixed: Vec<_> = victims.chain([None]).collect();
            let outcomes = fan_out(&mixed, threads, |stmt| match stmt {
                Some(row) => usize::from(t.delete_row(row).unwrap()),
                None => run(&db, &scan_plan(100)).unwrap().0.len(),
            });
            let winners: Vec<usize> = (0..10).map(|i| outcomes[i] + outcomes[10 + i]).collect();
            assert!(winners.iter().all(|&won| won == 1), "{outcomes:?}");
            // The query ran concurrently with the deletes: it sees between
            // 30 (all deletes applied first) and 40 rows for key 100.
            assert!((30..=40).contains(&outcomes[20]), "saw {} rows", outcomes[20]);
            // A third delete of the same rows reports false.
            let again = fan_out(&rows[..10], threads, |row| t.delete_row(row).unwrap());
            assert!(again.iter().all(|&deleted| !deleted));
            assert_eq!(t.row_count().unwrap(), 400 + 30);
        }
    }
}
