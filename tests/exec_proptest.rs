//! Property test of the push-based executor: for random plans — `FILTER`,
//! `PROJECT`, `UNION-ALL` and `NESTED LOOPS` nested in each other, joins
//! driven by collections *and* by other scans — the batches
//! `Database::execute_with` pushes, concatenated, `Database::execute`, and
//! a materializing reference evaluator (the executor this one replaced,
//! over `Table::index` + `BTree::scan_range`) are the same rows in the same
//! order with the same `ExecStats`.  No batch is empty, and a batch stays
//! what it was while its sink runs another query.

use proptest::prelude::*;
use ri_tree::pagestore::{BufferPool, BufferPoolConfig};
use ri_tree::prelude::*;
use ri_tree::relstore::exec::CmpOp;
use ri_tree::relstore::{BoundExpr, ExecStats, IndexDef, Plan, Predicate, Row, TableDef};

/// The scannable indexes: table, index and key arity.
const INDEXES: [(&str, &str, usize); 2] = [("T", "KV", 2), ("U", "V", 1)];

/// 72 rows (joins nest three deep: small) in two tables, each its one
/// index: `T(k, v, id)` as `KV (k, v) → id`, and `U(v, id)` as
/// `V (v) → id`, which holds the same `v` and `id`.
fn database() -> Database {
    let pool = Arc::new(BufferPool::new(MemDisk::new(512), BufferPoolConfig::with_capacity(32)));
    let db = Database::create(pool).unwrap();
    for (table, index, arity) in INDEXES {
        let columns = ["k", "v", "id"][2 - arity..].iter().map(|c| c.to_string()).collect();
        let indexes = vec![IndexDef { name: index.into(), key_cols: (0..arity).collect() }];
        db.create_table(TableDef { name: table.into(), columns, indexes }).unwrap();
    }
    let (t, u) = (db.table("T").unwrap(), db.table("U").unwrap());
    for i in 0..72i64 {
        t.insert(&[i % 12, (i * 7) % 40, 1000 + i]).unwrap();
        u.insert(&[(i * 7) % 40, 1000 + i]).unwrap();
    }
    db
}

/// Draws plan-shaping choices from a proptest-generated tape (so failures
/// shrink); an exhausted tape reads zeros, which pick leaf operators.
struct Tape<'a>(std::slice::Iter<'a, u32>);

impl Tape<'_> {
    fn draw(&mut self, n: u32) -> u32 {
        self.0.next().copied().unwrap_or(0) % n
    }

    fn bound(&mut self, bind_width: usize) -> BoundExpr {
        match self.draw(if bind_width > 0 { 5 } else { 3 }) {
            0 => BoundExpr::Const(self.draw(44) as i64 - 2),
            1 => BoundExpr::NegInf,
            2 => BoundExpr::PosInf,
            _ => BoundExpr::Outer(self.draw(bind_width as u32) as usize),
        }
    }

    /// A random plan and the width of its rows.  `bind_width` is the width
    /// of the enclosing join's outer rows (0 = no join around).
    fn plan(&mut self, depth: u32, bind_width: usize) -> (Plan, usize) {
        match self.draw(if depth == 0 { 2 } else { 6 }) {
            0 => {
                let rows =
                    (0..self.draw(5)).map(|_| vec![self.draw(14) as i64, self.draw(44) as i64]);
                (Plan::CollectionIterator { name: "C".into(), rows: rows.collect() }, 2)
            }
            1 => {
                let (table, index, arity) = INDEXES[self.draw(2) as usize];
                let lo = (0..arity).map(|_| self.bound(bind_width)).collect();
                let hi = (0..arity).map(|_| self.bound(bind_width)).collect();
                let (table, index) = (table.into(), index.into());
                (Plan::IndexRangeScan { table, index, lo, hi }, arity + 1)
            }
            2 => {
                let (outer, outer_width) = self.plan(depth - 1, bind_width);
                let (inner, width) = self.plan(depth - 1, outer_width);
                (Plan::NestedLoops { outer: Box::new(outer), inner: Box::new(inner) }, width)
            }
            3 => {
                let inputs: Vec<_> =
                    (0..1 + self.draw(3)).map(|_| self.plan(depth - 1, bind_width)).collect();
                let width = inputs.iter().map(|i| i.1).min().unwrap();
                // UNION-ALL wants one width: cut the wider inputs down.
                let cut = |(input, w): (Plan, usize)| match w == width {
                    true => input,
                    false => Plan::Project { input: Box::new(input), cols: (0..width).collect() },
                };
                (Plan::UnionAll(inputs.into_iter().map(cut).collect()), width)
            }
            4 => {
                let (input, width) = self.plan(depth - 1, bind_width);
                let col = |t: &mut Self| t.draw(width as u32) as usize;
                let op = [CmpOp::Le, CmpOp::Ge][self.draw(2) as usize];
                let value = self.draw(60) as i64;
                let pred = match self.draw(3) {
                    0 => Predicate::CmpConst { col: col(self), op, value },
                    1 => Predicate::CmpSum { a: col(self), b: col(self), op, value },
                    _ => Predicate::And(vec![Predicate::CmpConst { col: col(self), op, value }]),
                };
                (Plan::Filter { input: Box::new(input), pred }, width)
            }
            _ => {
                let (input, width) = self.plan(depth - 1, bind_width);
                let cols: Vec<usize> =
                    (0..1 + self.draw(3)).map(|_| self.draw(width as u32) as usize).collect();
                let width = cols.len();
                (Plan::Project { input: Box::new(input), cols }, width)
            }
        }
    }
}

/// The materializing executor this repository had before the push-based
/// one: every operator returns its full row vector.
fn reference(db: &Database, plan: &Plan, outer: Option<&Row>, stats: &mut ExecStats) -> Vec<Row> {
    let eval = |b: &BoundExpr| match *b {
        BoundExpr::Const(v) => v,
        BoundExpr::NegInf => i64::MIN,
        BoundExpr::PosInf => i64::MAX,
        BoundExpr::Outer(i) => outer.expect("generated plans bind every Outer")[i],
    };
    match plan {
        Plan::CollectionIterator { rows, .. } => {
            stats.rows_examined += rows.len() as u64;
            rows.clone()
        }
        Plan::IndexRangeScan { table, index, lo, hi } => {
            let (lo, hi): (Vec<i64>, Vec<i64>) =
                (lo.iter().map(eval).collect(), hi.iter().map(eval).collect());
            stats.index_searches += 1;
            let rows: Vec<Row> = db
                .table(table)
                .unwrap()
                .index(index)
                .unwrap()
                .scan_range(&lo, &hi)
                .map(|e| e.unwrap())
                .map(|e| e.key.as_slice().iter().copied().chain([e.payload as i64]).collect())
                .collect();
            stats.rows_examined += rows.len() as u64;
            rows
        }
        Plan::NestedLoops { outer: o, inner } => reference(db, o, outer, stats)
            .iter()
            .flat_map(|row| reference(db, inner, Some(row), stats))
            .collect(),
        Plan::UnionAll(inputs) => {
            inputs.iter().flat_map(|p| reference(db, p, outer, stats)).collect()
        }
        Plan::Filter { input, pred } => {
            reference(db, input, outer, stats).into_iter().filter(|r| pred.matches(r)).collect()
        }
        Plan::Project { input, cols } => reference(db, input, outer, stats)
            .iter()
            .map(|r| cols.iter().map(|&c| r[c]).collect())
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn streaming_execution_equals_materializing_execution(
        tape in prop::collection::vec(any::<u32>(), 0..160),
    ) {
        let db = database();
        let (plan, width) = Tape(tape.iter()).plan(3, 0);

        let mut collected_stats = ExecStats::default();
        let collected = db.execute(&plan, &mut collected_stats).unwrap();

        // A query for the sink to run from inside each batch.
        let probe = Plan::IndexRangeScan {
            table: "U".into(),
            index: "V".into(),
            lo: vec![BoundExpr::Const(3)],
            hi: vec![BoundExpr::Const(30)],
        };
        let probed = db.execute(&probe, &mut ExecStats::default()).unwrap();

        let mut streamed_stats = ExecStats::default();
        let mut streamed: Vec<Row> = Vec::new();
        db.execute_with(&plan, &mut streamed_stats, &mut |rows| {
            assert!(!rows.is_empty(), "an empty batch");
            let owned = || rows.iter().map(|row| row.iter().collect()).collect::<Vec<Row>>();
            let before = owned();
            assert_eq!(db.execute(&probe, &mut ExecStats::default()).unwrap(), probed);
            assert_eq!(owned(), before, "a nested query must leave the batch alone");
            assert_eq!((before.len(), before[0].len()), (rows.len(), rows.width()));
            for col in 0..rows.width() {
                assert!(rows.column(col).eq(before.iter().map(|row| row[col])));
                assert!((0..rows.len()).all(|row| rows.get(row, col) == before[row][col]));
            }
            streamed.extend(before);
        })
        .unwrap();
        prop_assert_eq!(&streamed, &collected);
        prop_assert_eq!(streamed_stats, collected_stats);

        let mut reference_stats = ExecStats::default();
        let expected = reference(&db, &plan, None, &mut reference_stats);
        reference_stats.result_rows = expected.len() as u64;
        prop_assert_eq!(&collected, &expected);
        prop_assert_eq!(collected_stats, reference_stats);
        prop_assert!(collected.iter().all(|row| row.len() == width));
    }
}
