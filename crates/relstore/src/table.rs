//! Table handles: DML that maintains all secondary indexes.

use crate::catalog::TableMeta;
use crate::heap::{Heap, RowId};
use ri_btree::{BTree, Entry, MAX_ARITY};
use ri_pagestore::{BufferPool, Error, Result};
use std::sync::Arc;

/// One index entry as `Table::bulk_insert` sorts it: the key columns, the
/// payload as a [`payload_word`], then zeros.  The array order of two rows
/// of one index is the order of their `Entry`s, `(key, payload)`: the
/// payload word makes every row unique, so the padding is never compared.
type CompactRow = [i64; MAX_ARITY + 1];

/// A `u64` payload as an `i64` word that sorts the same: the sign bit
/// flipped, so 0 becomes `i64::MIN` and `u64::MAX` becomes `i64::MAX`.
fn payload_word(payload: u64) -> i64 {
    (payload ^ (1 << 63)) as i64
}

/// The payload a [`payload_word`] holds.
fn payload_of(word: i64) -> u64 {
    word as u64 ^ (1 << 63)
}

/// A handle on a table and its secondary indexes.
///
/// `insert` is the engine-level equivalent of the paper's single SQL
/// statement in Figure 5: one heap append plus one B+-tree insertion per
/// index, each `O(log_b n)` I/Os.
pub struct Table {
    columns: Vec<String>,
    heap: Heap,
    indexes: Vec<OpenIndex>,
}

struct OpenIndex {
    name: String,
    key_cols: Vec<usize>,
    tree: BTree,
}

impl Table {
    pub(crate) fn from_meta(pool: Arc<BufferPool>, meta: &TableMeta) -> Result<Table> {
        let heap = Heap::open(Arc::clone(&pool), meta.heap_meta)?;
        if heap.arity() != meta.columns.len() {
            return Err(Error::Corrupt(format!(
                "table {} has {} columns, its heap {}",
                meta.name,
                meta.columns.len(),
                heap.arity()
            )));
        }
        let mut indexes = Vec::with_capacity(meta.indexes.len());
        for idx in &meta.indexes {
            indexes.push(OpenIndex {
                name: idx.name.clone(),
                key_cols: idx.key_cols.clone(),
                tree: BTree::open(Arc::clone(&pool), idx.btree_meta)?,
            });
        }
        Ok(Table { columns: meta.columns.clone(), heap, indexes })
    }

    /// Column names, in storage order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of live rows, counted by walking the heap's pages: O(pages),
    /// and exact on a quiescent table.
    pub fn row_count(&self) -> Result<u64> {
        self.heap.row_count()
    }

    /// Whether the table holds no live row; stops at the first live row.
    pub fn is_empty(&self) -> Result<bool> {
        self.heap.is_empty()
    }

    /// Inserts a row, maintaining every index.  The heap checks the row's
    /// width, which `from_meta` holds equal to the table's.
    pub fn insert(&self, row: &[i64]) -> Result<RowId> {
        let rid = self.heap.insert(row)?;
        for idx in &self.indexes {
            let key: Vec<i64> = idx.key_cols.iter().map(|&c| row[c]).collect();
            idx.tree.insert(&key, rid.raw())?;
        }
        Ok(rid)
    }

    /// Bulk-loads an **empty** table: packs every row into the heap in
    /// input order (`Heap::append_packed`), then builds each secondary
    /// index bottom-up at full fill from its sorted run of `(key, row
    /// id)` entries — one sequential write pass per index instead of one
    /// root-to-leaf descent per row (see `ri_btree`'s `builder` module).
    /// Each run is sorted as fixed-width compact rows (`CompactRow`) in
    /// one buffer that every index reuses, and streamed into the builder
    /// as entries.  Returns the assigned row ids in input order, the ones
    /// per-row inserts would assign.  On a durable pool the heap's and each
    /// index's pages are written unlogged and synced, and only the meta
    /// writes that publish them join the caller's transaction.
    ///
    /// Errors with `InvalidArgument` if the heap or any index already
    /// holds data (callers fall back to [`Table::insert`] then) or if
    /// any row has the wrong column count.  Like every bulk load, the
    /// caller provides quiescence: concurrent DML on the same table
    /// during the build is unsupported (a lost race surfaces as the
    /// index builder's clean not-empty error, not as corruption).
    ///
    /// An index that held entries once and was emptied by deletes keeps
    /// its pages, so the builder cannot install over it; such an index
    /// is filled per entry instead.
    pub fn bulk_insert(&self, rows: &[impl AsRef<[i64]>]) -> Result<Vec<RowId>> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        if !self.heap.is_empty()? {
            return Err(Error::InvalidArgument("bulk_insert requires an empty table".to_string()));
        }
        for idx in &self.indexes {
            if idx.tree.scan_all().next().transpose()?.is_some() {
                return Err(Error::InvalidArgument(format!(
                    "bulk_insert requires empty indexes, but {} holds entries",
                    idx.name
                )));
            }
        }
        let rids = self.heap.append_packed(rows)?;
        // One buffer of compact rows, reserved once and refilled per index.
        let mut sorted: Vec<CompactRow> = Vec::with_capacity(rows.len());
        for idx in &self.indexes {
            let arity = idx.key_cols.len();
            let compact = |row: &[i64], rid: &RowId| -> CompactRow {
                let mut compact = [0i64; MAX_ARITY + 1];
                for (slot, &c) in compact.iter_mut().zip(&idx.key_cols) {
                    *slot = row[c];
                }
                compact[arity] = payload_word(rid.raw());
                compact
            };
            if idx.tree.stats()?.height != 0 {
                for (row, rid) in rows.iter().zip(&rids) {
                    idx.tree.insert(&compact(row.as_ref(), rid)[..arity], rid.raw())?;
                }
                continue;
            }
            sorted.clear();
            sorted.extend(rows.iter().zip(&rids).map(|(row, rid)| compact(row.as_ref(), rid)));
            sorted.sort_unstable();
            idx.tree.bulk_build_into(
                sorted.iter().map(|r| Entry::new(&r[..arity], payload_of(r[arity]))),
                1.0,
            )?;
        }
        Ok(rids)
    }

    /// Deletes a row by id, maintaining every index.
    ///
    /// Returns `false` if the row no longer exists.
    ///
    /// Claim-then-clean: the tombstone is the atomic claim (one short
    /// hold of the heap's write latch inside [`Heap::delete`], and one
    /// logged write of the row's heap page), so exactly
    /// one of any set of racing deletes wins and the losers report
    /// `false`; the winner then removes the index entries without
    /// holding any latch, so deletes scale like inserts.  If an index
    /// entry is not there *yet* — the row was discovered through one
    /// index while its insert was still filling in the others — the
    /// winner briefly waits for the in-flight insert to publish it
    /// (bounded; a truly absent entry is reported as corruption).
    pub fn delete(&self, rid: RowId) -> Result<bool> {
        let Some(row) = self.heap.fetch(rid)? else {
            return Ok(false);
        };
        if !self.heap.delete(rid)? {
            return Ok(false);
        }
        for idx in &self.indexes {
            let key: Vec<i64> = idx.key_cols.iter().map(|&c| row[c]).collect();
            let mut spins = 0u32;
            while !idx.tree.delete(&key, rid.raw())? {
                spins += 1;
                if spins > 100_000 {
                    return Err(Error::Corrupt(format!(
                        "index {} out of sync: missing entry for row {}",
                        idx.name,
                        rid.raw()
                    )));
                }
                std::thread::yield_now();
            }
        }
        Ok(true)
    }

    /// Fetches a row by id.
    pub fn fetch(&self, rid: RowId) -> Result<Option<Vec<i64>>> {
        self.heap.fetch(rid)
    }

    /// Full scan of all live rows.
    pub fn scan(&self) -> Result<Vec<(RowId, Vec<i64>)>> {
        self.heap.scan()
    }

    /// Direct access to an index B+-tree (for hand-written access methods).
    pub fn index(&self, name: &str) -> Result<&BTree> {
        self.indexes
            .iter()
            .find(|i| i.name == name)
            .map(|i| &i.tree)
            .ok_or_else(|| Error::InvalidArgument(format!("no such index {name}")))
    }
}

#[cfg(test)]
mod tests {
    use crate::catalog::{Database, IndexDef, TableDef};
    use ri_pagestore::codec::put_u32;
    use ri_pagestore::{BufferPool, BufferPoolConfig, Error, MemDisk};
    use std::sync::Arc;

    fn db_with_indexed_table() -> Database {
        let pool =
            Arc::new(BufferPool::new(MemDisk::new(2048), BufferPoolConfig::with_capacity(64)));
        let db = Database::create(pool).unwrap();
        db.create_table(TableDef {
            name: "T".into(),
            columns: vec!["a".into(), "b".into(), "c".into()],
        })
        .unwrap();
        db.create_index("T", IndexDef { name: "AB".into(), key_cols: vec![0, 1] }).unwrap();
        db.create_index("T", IndexDef { name: "C".into(), key_cols: vec![2] }).unwrap();
        db
    }

    #[test]
    fn insert_maintains_all_indexes() {
        let db = db_with_indexed_table();
        let t = db.table("T").unwrap();
        for i in 0..200i64 {
            t.insert(&[i % 10, i, -i]).unwrap();
        }
        assert_eq!(t.index("AB").unwrap().entry_count().unwrap(), 200);
        assert_eq!(t.index("C").unwrap().entry_count().unwrap(), 200);
        // Key extraction respects column order.
        let hits = t.index("AB").unwrap().scan_range(&[3, i64::MIN], &[3, i64::MAX]).count();
        assert_eq!(hits, 20);
    }

    #[test]
    fn delete_maintains_all_indexes() {
        let db = db_with_indexed_table();
        let t = db.table("T").unwrap();
        let rid = t.insert(&[1, 2, 3]).unwrap();
        let keep = t.insert(&[1, 5, 9]).unwrap();
        assert!(t.delete(rid).unwrap());
        assert!(!t.delete(rid).unwrap());
        assert_eq!(t.index("AB").unwrap().entry_count().unwrap(), 1);
        assert_eq!(t.index("C").unwrap().entry_count().unwrap(), 1);
        assert_eq!(t.fetch(keep).unwrap(), Some(vec![1, 5, 9]));
        assert_eq!(t.fetch(rid).unwrap(), None);
    }

    #[test]
    fn index_payloads_are_row_ids() {
        let db = db_with_indexed_table();
        let t = db.table("T").unwrap();
        let rid = t.insert(&[7, 8, 9]).unwrap();
        let entry = t.index("C").unwrap().scan_range(&[9], &[9]).next().unwrap().unwrap();
        assert_eq!(entry.payload, rid.raw());
        let row = t.fetch(crate::heap::RowId::from_raw(entry.payload)).unwrap();
        assert_eq!(row, Some(vec![7, 8, 9]));
    }

    #[test]
    fn bulk_insert_fills_every_index_at_full_density() {
        let db = db_with_indexed_table();
        let t = db.table("T").unwrap();
        let rows: Vec<[i64; 3]> = (0..1000i64).map(|i| [i % 10, i, -i]).collect();
        let rids = t.bulk_insert(&rows).unwrap();
        assert_eq!(rids.len(), 1000);
        assert_eq!(t.row_count().unwrap(), 1000);
        assert_eq!(t.index("AB").unwrap().entry_count().unwrap(), 1000);
        assert_eq!(t.index("C").unwrap().entry_count().unwrap(), 1000);
        // Fill 1.0 ⇒ each index at its minimum possible page count.
        use ri_btree::layout::{internal_capacity, leaf_capacity};
        assert_eq!(
            db.index_stats("T", "AB").unwrap().pages,
            ri_btree::predicted_pages(1000, leaf_capacity(2048, 2), internal_capacity(2048, 2))
        );
        // Same observable contents as row-at-a-time inserts.
        let hits = t.index("AB").unwrap().scan_range(&[3, i64::MIN], &[3, i64::MAX]).count();
        assert_eq!(hits, 100);
        t.index("AB").unwrap().check_invariants().unwrap();
        t.index("C").unwrap().check_invariants().unwrap();
        // Index payloads are the assigned row ids.
        let entry = t.index("C").unwrap().scan_range(&[0], &[0]).next().unwrap().unwrap();
        let row = t.fetch(crate::heap::RowId::from_raw(entry.payload)).unwrap();
        assert_eq!(row, Some(vec![0, 0, 0]));
        // A second bulk load must be refused — the table is no longer
        // empty — while ordinary DML continues to work.
        assert!(t.bulk_insert(&rows).is_err());
        t.insert(&[99, 99, 99]).unwrap();
        assert_eq!(t.row_count().unwrap(), 1001);
    }

    /// A table emptied by deletes counts zero rows but its indexes keep
    /// their pages: the bulk builder cannot install over them, and must
    /// not be tried after the heap rows are already appended.
    #[test]
    fn bulk_insert_into_an_emptied_table_keeps_heap_and_indexes_in_step() {
        let db = db_with_indexed_table();
        let t = db.table("T").unwrap();
        let rid = t.insert(&[1, 2, 3]).unwrap();
        assert!(t.delete(rid).unwrap());
        let rows: Vec<[i64; 3]> = (0..1000i64).map(|i| [i % 10, i, -i]).collect();
        t.bulk_insert(&rows).unwrap();
        assert_eq!(t.row_count().unwrap(), 1000);
        for name in ["AB", "C"] {
            assert_eq!(t.index(name).unwrap().entry_count().unwrap(), 1000);
            t.index(name).unwrap().check_invariants().unwrap();
        }
        let hits = t.index("AB").unwrap().scan_range(&[3, i64::MIN], &[3, i64::MAX]).count();
        assert_eq!(hits, 100);
    }

    /// Whether an index holds entries is asked of a scan, not of a count:
    /// an index whose leaves were all emptied by deletes holds none, keeps
    /// its pages, and is filled entry by entry into them.
    #[test]
    fn bulk_insert_refills_an_index_emptied_by_deletes_entry_by_entry() {
        let db = db_with_indexed_table();
        let t = db.table("T").unwrap();
        let rids: Vec<_> = (0..400i64).map(|i| t.insert(&[i % 10, i, -i]).unwrap()).collect();
        rids.iter().for_each(|&rid| assert!(t.delete(rid).unwrap()));
        let kept = ["AB", "C"].map(|name| t.index(name).unwrap().stats().unwrap().pages);
        assert!(kept.iter().all(|&pages| pages > 1), "several leaves emptied: {kept:?}");
        let rows: Vec<[i64; 3]> = (0..1000i64).map(|i| [i % 10, i, -i]).collect();
        t.bulk_insert(&rows).unwrap();
        for (name, kept) in ["AB", "C"].into_iter().zip(kept) {
            let index = t.index(name).unwrap();
            assert_eq!(index.entry_count().unwrap(), 1000);
            // The entries went in one by one, into the kept leaves and
            // the splits of them.
            assert!(index.stats().unwrap().pages > kept, "{name} filled entry by entry");
            index.check_invariants().unwrap();
        }
    }

    /// The compact rows sort as `Entry`s do: at every arity, over negative
    /// keys (the extremes included) with ties on every key column, each
    /// index of a bulk load scans exactly the entries a `Vec<Entry>`
    /// sorted by `Entry`'s own order holds.
    #[test]
    fn bulk_insert_sorts_compact_rows_as_entries_sort() {
        use ri_btree::{Entry, MAX_ARITY};
        let pool =
            Arc::new(BufferPool::new(MemDisk::new(2048), BufferPoolConfig::with_capacity(256)));
        let db = Database::create(pool).unwrap();
        let columns: Vec<String> = (0..MAX_ARITY).map(|c| format!("c{c}")).collect();
        db.create_table(TableDef { name: "T".into(), columns }).unwrap();
        // Arity `a` indexes `a` columns in a scrambled order.
        let key_cols =
            |arity: usize| -> Vec<usize> { (0..arity).map(|i| (i * 3 + 1) % MAX_ARITY).collect() };
        for arity in 1..=MAX_ARITY {
            let def = IndexDef { name: format!("I{arity}"), key_cols: key_cols(arity) };
            db.create_index("T", def).unwrap();
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let rows: Vec<Vec<i64>> = (0..1500)
            .map(|_| {
                (0..MAX_ARITY)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        match x % 16 {
                            0 => i64::MIN,
                            1 => i64::MAX,
                            r => r as i64 % 5 - 3,
                        }
                    })
                    .collect()
            })
            .collect();
        let t = db.table("T").unwrap();
        let rids = t.bulk_insert(&rows).unwrap();
        for arity in 1..=MAX_ARITY {
            let cols = key_cols(arity);
            let mut expected: Vec<Entry> = rows
                .iter()
                .zip(&rids)
                .map(|(row, rid)| {
                    let key: Vec<i64> = cols.iter().map(|&c| row[c]).collect();
                    Entry::new(&key, rid.raw())
                })
                .collect();
            expected.sort_unstable();
            let index = t.index(&format!("I{arity}")).unwrap();
            let scanned: Vec<Entry> = index
                .scan_range(&vec![i64::MIN; arity], &vec![i64::MAX; arity])
                .collect::<ri_pagestore::Result<_>>()
                .unwrap();
            assert_eq!(scanned, expected, "arity {arity}");
            index.check_invariants().unwrap();
        }
    }

    #[test]
    fn bulk_payload_word_flips_the_sign_bit_and_keeps_the_order() {
        use super::{payload_of, payload_word};
        let payloads = [0, (1 << 63) - 1, 1 << 63, u64::MAX];
        let words = payloads.map(payload_word);
        assert_eq!(words, [i64::MIN, -1, 0, i64::MAX]);
        assert_eq!(words.map(payload_of), payloads);
    }

    /// A row insert that neither starts a heap page nor splits a leaf logs
    /// one heap record and one per index — 3 with two indexes — and so
    /// does a delete: the heap meta page keeps no row count to rewrite.
    #[test]
    fn row_writes_that_do_not_grow_the_heap_log_one_heap_record() {
        let pool = Arc::new(
            BufferPool::new_durable(
                MemDisk::new(2048),
                BufferPoolConfig::with_capacity(64),
                MemDisk::new(2048),
            )
            .unwrap(),
        );
        let db = Database::create(Arc::clone(&pool)).unwrap();
        let columns = vec!["a".into(), "b".into(), "c".into()];
        db.create_table(TableDef { name: "T".into(), columns }).unwrap();
        db.create_index("T", IndexDef { name: "AB".into(), key_cols: vec![0, 1] }).unwrap();
        db.create_index("T", IndexDef { name: "C".into(), key_cols: vec![2] }).unwrap();
        let t = db.table("T").unwrap();
        let first = t.insert(&[0, 0, 0]).unwrap();
        let victim = t.insert(&[1, 1, 1]).unwrap();
        db.commit().unwrap();
        let logged = |op: &dyn Fn()| {
            let (latches, wal) = (pool.latches().stats(), pool.wal().unwrap().stats());
            op();
            assert_eq!(pool.latches().stats().since(&latches).splits, 0, "no leaf may split");
            pool.wal().unwrap().stats().records - wal.records
        };
        let insert = logged(&|| {
            let rid = t.insert(&[2, 2, 2]).unwrap();
            // A row id's page is its raw value above the 12 slot bits.
            assert_eq!(rid.raw() >> 12, first.raw() >> 12, "the row fits the first heap page");
        });
        assert_eq!(insert, 3, "insert: one heap record and one per index");
        assert_eq!(logged(&|| assert!(t.delete(victim).unwrap())), 3, "delete");
        assert_eq!(t.row_count().unwrap(), 2);
    }

    /// A heap whose stored arity differs from the catalog's column count,
    /// or lies outside the range a heap is created with, is refused when
    /// the table opens; a delete used to index the short row and panic.
    #[test]
    fn forged_heap_arity_is_corrupt_not_a_panic() {
        let db = db_with_indexed_table();
        let t = db.table("T").unwrap();
        let rid = t.insert(&[1, 2, 3]).unwrap();
        let meta = t.heap.meta_page();
        for arity in [0u32, 2, 65, 3] {
            // Offset 4 of the heap meta page holds its arity.
            db.pool().with_page_mut(meta, |buf| put_u32(buf, 4, arity)).unwrap();
            match db.table("T") {
                Ok(t) => {
                    assert_eq!(arity, 3, "arity {arity} opened");
                    assert!(t.delete(rid).unwrap());
                }
                Err(e) => assert!(matches!(e, Error::Corrupt(_)), "arity {arity}: {e}"),
            }
        }
    }

    #[test]
    fn wrong_arity_rejected() {
        let db = db_with_indexed_table();
        let t = db.table("T").unwrap();
        assert!(t.insert(&[1, 2]).is_err());
    }

    #[test]
    fn unknown_index_name_errors() {
        let db = db_with_indexed_table();
        let t = db.table("T").unwrap();
        assert!(t.index("NOPE").is_err());
    }
}
