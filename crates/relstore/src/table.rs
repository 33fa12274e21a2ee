//! Table handles: DML that maintains every index of a table.

use crate::catalog::TableMeta;
use ri_btree::{BTree, Entry, MAX_ARITY};
use ri_pagestore::{BufferPool, Error, Result};
use std::sync::Arc;

/// One index entry as `Table::bulk_insert` sorts it when its fields do not
/// pack into a [`Packing`]: the key columns, the payload as a
/// [`payload_word`], then zeros.  The array order of two rows of one index
/// is the order of their `Entry`s, `(key, payload)`: two rows that tie on
/// both are equal entries, and their zero padding ties too.
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

/// A key column as a `u64` that sorts the same: the sign bit flipped.
fn key_word(col: i64) -> u64 {
    col as u64 ^ (1 << 63)
}

/// A column's least and greatest value over a batch.
#[derive(Clone, Copy)]
struct Span {
    lo: i64,
    hi: i64,
}

impl Span {
    /// The span of no value at all; it packs into no bits.
    const EMPTY: Span = Span { lo: i64::MAX, hi: i64::MIN };

    #[inline]
    fn add(&mut self, col: i64) {
        self.lo = self.lo.min(col);
        self.hi = self.hi.max(col);
    }

    /// The least and greatest word of the column as a key column.
    fn as_key(&self) -> (u64, u64) {
        (key_word(self.lo), key_word(self.hi))
    }

    /// The least and greatest word of the column as a payload, which
    /// sorts as a `u64`: all 64 bits' worth when the column holds values
    /// on both sides of zero.
    fn as_payload(&self) -> (u64, u64) {
        if self.lo >= 0 || self.hi < 0 {
            (self.lo as u64, self.hi as u64)
        } else {
            (0, u64::MAX)
        }
    }
}

/// How one index's entries pack into `u128` sort keys whose order is
/// their `(key, payload)` order.  Each field, the key columns as
/// [`key_word`]s and then the payload, is taken less its least word over
/// the batch and put in a bit field just wide enough for its span, the
/// first column highest.  An index packs when its fields' widths sum to
/// at most 128 bits; its entries then sort as 16-byte integers, and each
/// key decodes straight back into its `Entry`.
#[derive(Clone, Copy)]
struct Packing {
    arity: usize,
    /// Per field slot — key column `f` in slot `f`, the payload in slot
    /// `MAX_ARITY` — the row column it holds, its least word, the shift
    /// of its bit field and the mask of its width.  A slot with no field
    /// is 0 bits wide, and its least word decodes to 0, the key's padding.
    col: [usize; MAX_ARITY + 1],
    lo: [u64; MAX_ARITY + 1],
    shift: [u32; MAX_ARITY + 1],
    mask: [u64; MAX_ARITY + 1],
}

impl Packing {
    /// The packing of `idx`'s entries, if they fit in 128 bits, from each
    /// column's span over the batch.
    fn fit(idx: &OpenIndex, spans: &[Span]) -> Option<Packing> {
        let mut packing = Packing {
            arity: idx.key_cols.len(),
            col: [0; MAX_ARITY + 1],
            lo: [0; MAX_ARITY + 1],
            shift: [0; MAX_ARITY + 1],
            mask: [0; MAX_ARITY + 1],
        };
        // A slot with no field spans the one word of a 0.
        let zero = Span { lo: 0, hi: 0 };
        let mut fields = [zero.as_key(); MAX_ARITY + 1];
        fields[MAX_ARITY] = zero.as_payload();
        for (f, &c) in idx.key_cols.iter().enumerate() {
            (packing.col[f], fields[f]) = (c, spans[c].as_key());
        }
        if let Some(c) = idx.payload_col {
            (packing.col[MAX_ARITY], fields[MAX_ARITY]) = (c, spans[c].as_payload());
        }
        let mut width = 0;
        for (f, &(lo, hi)) in fields.iter().enumerate().rev() {
            let bits = u64::BITS - hi.saturating_sub(lo).leading_zeros();
            packing.lo[f] = lo;
            // A field of no bits is always 0; shifting it by 128 would
            // overflow.
            packing.shift[f] = if bits == 0 { 0 } else { width };
            packing.mask[f] = ((1u128 << bits) - 1) as u64;
            width += bits;
        }
        (width <= u128::BITS).then_some(packing)
    }

    /// The word of field `f` in its bit field: 0 for a slot with no field.
    #[inline]
    fn field(&self, f: usize, word: u64) -> u128 {
        ((word.wrapping_sub(self.lo[f]) & self.mask[f]) as u128) << self.shift[f]
    }

    /// `row`'s entry as its sort key; fixed-trip loops over every slot.
    #[inline]
    fn pack(&self, row: &[i64]) -> u128 {
        let mut key = self.field(MAX_ARITY, row[self.col[MAX_ARITY]] as u64);
        for f in 0..MAX_ARITY {
            key |= self.field(f, key_word(row[self.col[f]]));
        }
        key
    }

    #[inline]
    fn unpack(&self, key: u128) -> Entry {
        let mut words = [0u64; MAX_ARITY + 1];
        for (f, word) in words.iter_mut().enumerate() {
            *word = ((key >> self.shift[f]) as u64 & self.mask[f]) + self.lo[f];
        }
        let mut cols = [0i64; MAX_ARITY];
        for (col, word) in cols.iter_mut().zip(words) {
            *col = (word ^ (1 << 63)) as i64;
        }
        Entry::new(&cols[..self.arity], words[MAX_ARITY])
    }
}

/// A handle on a table, which is its indexes
/// ([`TableDef::indexes`](crate::TableDef::indexes)).
///
/// `insert` is the engine-level equivalent of the paper's single SQL
/// statement in Figure 5: one B+-tree insertion per index, each
/// `O(log_b n)` I/Os.  An entry's payload is the column its key leaves
/// out, so that each index holds the whole row.  A table is a set of rows:
/// its first index's entry is a row's claim.
pub struct Table {
    name: String,
    columns: Vec<String>,
    /// At least one (the catalog checks); the first is the claim.
    indexes: Vec<OpenIndex>,
}

struct OpenIndex {
    name: String,
    key_cols: Vec<usize>,
    /// The column the key leaves out, if any (else the payload is 0).
    payload_col: Option<usize>,
    tree: BTree,
}

impl OpenIndex {
    /// Copies `row`'s key columns into `key` and returns them.
    fn key<'k>(&self, row: &[i64], key: &'k mut [i64; MAX_ARITY]) -> &'k [i64] {
        for (slot, &c) in key.iter_mut().zip(&self.key_cols) {
            *slot = row[c];
        }
        &key[..self.key_cols.len()]
    }

    #[inline]
    fn payload(&self, row: &[i64]) -> u64 {
        self.payload_col.map_or(0, |c| row[c] as u64)
    }

    /// Fills this empty index from its entries in sorted order: built
    /// bottom-up at full fill, or, if deletes emptied it and it kept its
    /// pages, inserted entry by entry.
    fn fill(&self, entries: impl Iterator<Item = Entry>) -> Result<()> {
        if self.tree.stats()?.height == 0 {
            self.tree.bulk_build_into(entries, 1.0)?;
        } else {
            for e in entries {
                self.tree.insert(e.key.as_slice(), e.payload)?;
            }
        }
        Ok(())
    }

    /// Retries one entry write of a row whose claim the caller holds until
    /// it takes effect.  A delete finds no entry while the row's insert is
    /// still filling this index in (the row was found through another
    /// one); an insert finds an equal entry while the delete of an equal
    /// row is still clearing it.  An entry that never settles is corrupt.
    fn settle(&self, key: &[i64], payload: u64, write: impl Fn() -> Result<bool>) -> Result<()> {
        let mut spins = 0u32;
        while !write()? {
            spins += 1;
            if spins > 100_000 {
                return Err(Error::Corrupt(format!(
                    "index {} out of sync: entry {key:?} -> {payload} does not settle",
                    self.name
                )));
            }
            std::thread::yield_now();
        }
        Ok(())
    }
}

impl Table {
    pub(crate) fn from_meta(pool: Arc<BufferPool>, meta: &TableMeta) -> Result<Table> {
        let mut indexes = Vec::with_capacity(meta.indexes.len());
        for idx in &meta.indexes {
            indexes.push(OpenIndex {
                name: idx.name.clone(),
                key_cols: idx.key_cols.clone(),
                payload_col: (0..meta.columns.len()).find(|c| !idx.key_cols.contains(c)),
                tree: BTree::open(Arc::clone(&pool), idx.btree_meta)?,
            });
        }
        Ok(Table { name: meta.name.clone(), columns: meta.columns.clone(), indexes })
    }

    /// Column names, in storage order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The claim index and the others.
    fn claim(&self) -> (&OpenIndex, &[OpenIndex]) {
        self.indexes.split_first().expect("the catalog gives every table an index")
    }

    /// Number of rows, counted by walking the first index's leaves:
    /// O(pages), and exact on a quiescent table.
    pub fn row_count(&self) -> Result<u64> {
        self.claim().0.tree.entry_count()
    }

    /// Whether the table holds no row; stops at the first one.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.claim().0.tree.scan_all().next().transpose()?.is_none())
    }

    #[inline]
    fn check_width(&self, row: &[i64]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(Error::InvalidArgument(format!(
                "row has {} columns, table {} has {}",
                row.len(),
                self.name,
                self.columns.len()
            )));
        }
        Ok(())
    }

    /// Inserts a row, maintaining every index.
    ///
    /// A row the table holds is refused with `InvalidArgument` and nothing
    /// is written.  The first index's entry is the claim ([`BTree::insert`]
    /// stores an entry at most once), so of racing inserts of one row
    /// exactly one succeeds.
    pub fn insert(&self, row: &[i64]) -> Result<()> {
        self.check_width(row)?;
        let (claim, rest) = self.claim();
        let mut key = [0; MAX_ARITY];
        if !claim.tree.insert(claim.key(row, &mut key), claim.payload(row))? {
            let msg = format!("table {} already holds row {row:?}", self.name);
            return Err(Error::InvalidArgument(msg));
        }
        for idx in rest {
            let (key, payload) = (idx.key(row, &mut key), idx.payload(row));
            idx.settle(key, payload, || idx.tree.insert(key, payload))?;
        }
        Ok(())
    }

    /// Bulk-loads an **empty** table: builds each index bottom-up at full
    /// fill from its sorted run of entries — one sequential write pass per
    /// index instead of one root-to-leaf descent per row (see `ri_btree`'s
    /// `builder` module).  On a durable pool each index's pages are
    /// written unlogged and synced, and only the meta writes that publish
    /// them join the caller's transaction.
    ///
    /// `rows` is walked once to check the widths and take each column's
    /// least and greatest value, then once per index, each walk over a
    /// clone of its iterator: `&rows` for rows the caller holds, or a
    /// `map` that computes each row from the caller's own items on every
    /// walk, so the load keeps no copy of the rows.  Every walk must
    /// yield the same rows.
    ///
    /// Each index's run is sorted in one buffer that every index reuses,
    /// on one of two paths, which the batch alone chooses from the spans
    /// of the first walk:
    ///
    /// * **Packed keys**, 16 B a row: when an index's key columns and
    ///   payload, each taken less its least value over the batch, fit in
    ///   128 bits together, each entry packs into one `u128` that sorts
    ///   as the entry does, and decodes straight back into it.  The
    ///   RI-tree's indexes pack whenever node, both bounds and id span at
    ///   most 128 bits together: 32 bits each, for example.
    /// * **Compact rows**, 40 B a row: otherwise the index sorts
    ///   fixed-width `[i64; 5]` rows (`CompactRow`) in the same order.
    ///
    /// Both paths build the same pages.
    ///
    /// Errors with `InvalidArgument` if any index already holds entries
    /// (callers fall back to [`Table::insert`] then), if any row has the
    /// wrong column count, or if a row is given twice — before any index
    /// is built.  Like every bulk load, the caller provides quiescence:
    /// concurrent DML on the same table during the build is unsupported
    /// (a lost race surfaces as the index builder's clean not-empty error,
    /// not as corruption).
    ///
    /// An index that held entries once and was emptied by deletes keeps
    /// its pages, so the builder cannot install over it; such an index
    /// is filled per entry instead, in sorted order.
    pub fn bulk_insert(
        &self,
        rows: impl IntoIterator<Item: AsRef<[i64]>, IntoIter: Clone>,
    ) -> Result<()> {
        let rows = rows.into_iter();
        for idx in &self.indexes {
            if idx.tree.scan_all().next().transpose()?.is_some() {
                return Err(Error::InvalidArgument(format!(
                    "bulk_insert requires empty indexes, but {} holds entries",
                    idx.name
                )));
            }
        }
        let packings = self.packings(rows.clone())?;
        self.bulk_build(rows, &packings)
    }

    /// Checks each row's width and picks each index's sort path from the
    /// columns' spans over `rows`: its [`Packing`], or `None` for compact
    /// rows.
    fn packings(
        &self,
        rows: impl IntoIterator<Item: AsRef<[i64]>>,
    ) -> Result<Vec<Option<Packing>>> {
        let mut spans = [Span::EMPTY; MAX_ARITY + 1];
        for row in rows {
            let row = row.as_ref();
            self.check_width(row)?;
            // A table has at most `MAX_ARITY + 1` columns.
            debug_assert!(row.len() <= spans.len());
            for (span, &col) in spans.iter_mut().zip(row) {
                span.add(col);
            }
        }
        Ok(self.indexes.iter().map(|idx| Packing::fit(idx, &spans)).collect())
    }

    /// Sorts and builds each index of a checked bulk load: as packed keys
    /// where `packings` holds a packing, as compact rows elsewhere.
    fn bulk_build(
        &self,
        rows: impl IntoIterator<Item: AsRef<[i64]>, IntoIter: Clone>,
        packings: &[Option<Packing>],
    ) -> Result<()> {
        let rows = rows.into_iter();
        let repeats = |n: usize, repeated: bool| {
            // The first index's entries hold whole rows, and it is sorted
            // and checked before any index is built.
            if n == 0 && repeated {
                let msg = format!("bulk_insert into {} repeats a row", self.name);
                return Err(Error::InvalidArgument(msg));
            }
            Ok(())
        };
        let (mut packed, mut compact) = (Vec::<u128>::new(), Vec::<CompactRow>::new());
        for (n, (idx, packing)) in self.indexes.iter().zip(packings).enumerate() {
            if let Some(packing) = packing {
                packed.clear();
                packed.extend(rows.clone().map(|row| packing.pack(row.as_ref())));
                packed.sort_unstable();
                repeats(n, packed.windows(2).any(|w| w[0] == w[1]))?;
                idx.fill(packed.iter().map(|&key| packing.unpack(key)))?;
            } else {
                let arity = idx.key_cols.len();
                compact.clear();
                compact.extend(rows.clone().map(|row| {
                    let row = row.as_ref();
                    let mut words = [0i64; MAX_ARITY + 1];
                    for (slot, &c) in words.iter_mut().zip(&idx.key_cols) {
                        *slot = row[c];
                    }
                    words[arity] = payload_word(idx.payload(row));
                    words
                }));
                compact.sort_unstable();
                repeats(n, compact.windows(2).any(|w| w[0] == w[1]))?;
                idx.fill(compact.iter().map(|r| Entry::new(&r[..arity], payload_of(r[arity]))))?;
            }
        }
        Ok(())
    }

    /// Deletes `row`, maintaining every index; returns `false` if the
    /// table does not hold it.
    ///
    /// Claim-then-clean: deleting the row's entry from the first index is
    /// the atomic claim (one leaf latch, one logged write), so of racing
    /// deletes exactly one wins and the losers report `false`; the winner
    /// then deletes the row's entry from each other index without holding
    /// any latch, waiting briefly for an entry the row's insert has not
    /// published yet.
    pub fn delete_row(&self, row: &[i64]) -> Result<bool> {
        self.check_width(row)?;
        let (claim, rest) = self.claim();
        let mut key = [0; MAX_ARITY];
        if !claim.tree.delete(claim.key(row, &mut key), claim.payload(row))? {
            return Ok(false);
        }
        for idx in rest {
            let (key, payload) = (idx.key(row, &mut key), idx.payload(row));
            idx.settle(key, payload, || idx.tree.delete(key, payload))?;
        }
        Ok(true)
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
    use ri_pagestore::{BufferPool, BufferPoolConfig, Error, MemDisk};
    use std::sync::Arc;

    /// A table declared with two indexes that each leave out one column:
    /// `AB → c` and `CA → b`.
    fn db_with_covered_table() -> Database {
        let pool =
            Arc::new(BufferPool::new(MemDisk::new(2048), BufferPoolConfig::with_capacity(64)));
        let db = Database::create(pool).unwrap();
        db.create_table(TableDef {
            name: "T".into(),
            columns: vec!["a".into(), "b".into(), "c".into()],
            indexes: vec![
                IndexDef { name: "AB".into(), key_cols: vec![0, 1] },
                IndexDef { name: "CA".into(), key_cols: vec![2, 0] },
            ],
        })
        .unwrap();
        db
    }

    #[test]
    fn insert_maintains_all_indexes() {
        let db = db_with_covered_table();
        let t = db.table("T").unwrap();
        for i in 0..200i64 {
            t.insert(&[i % 10, i, -i]).unwrap();
        }
        assert_eq!(t.index("AB").unwrap().entry_count().unwrap(), 200);
        assert_eq!(t.index("CA").unwrap().entry_count().unwrap(), 200);
        // Key extraction respects column order.
        let hits = t.index("AB").unwrap().scan_range(&[3, i64::MIN], &[3, i64::MAX]).count();
        assert_eq!(hits, 20);
    }

    #[test]
    fn delete_maintains_all_indexes() {
        let db = db_with_covered_table();
        let t = db.table("T").unwrap();
        t.insert(&[1, 2, 3]).unwrap();
        t.insert(&[1, 5, 9]).unwrap();
        assert!(t.delete_row(&[1, 2, 3]).unwrap());
        assert!(!t.delete_row(&[1, 2, 3]).unwrap());
        assert_eq!(t.index("AB").unwrap().entry_count().unwrap(), 1);
        assert_eq!(t.index("CA").unwrap().entry_count().unwrap(), 1);
        let kept = t.index("AB").unwrap().scan_all().next().unwrap().unwrap();
        assert_eq!((kept.key.as_slice(), kept.payload), (&[1, 5][..], 9));
    }

    #[test]
    fn bulk_insert_fills_every_index_at_full_density() {
        let db = db_with_covered_table();
        let t = db.table("T").unwrap();
        let rows: Vec<[i64; 3]> = (0..1000i64).map(|i| [i % 10, i, -i]).collect();
        t.bulk_insert(&rows).unwrap();
        assert_eq!(t.row_count().unwrap(), 1000);
        assert_eq!(t.index("AB").unwrap().entry_count().unwrap(), 1000);
        assert_eq!(t.index("CA").unwrap().entry_count().unwrap(), 1000);
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
        t.index("CA").unwrap().check_invariants().unwrap();
        // Index payloads are the columns the keys leave out.
        let entry = t.index("CA").unwrap().scan_range(&[-7, 7], &[-7, 7]).next().unwrap().unwrap();
        assert_eq!(entry.payload, 7);
        // A second bulk load must be refused — the table is no longer
        // empty — while ordinary DML continues to work.
        assert!(t.bulk_insert(&rows).is_err());
        t.insert(&[99, 99, 99]).unwrap();
        assert_eq!(t.row_count().unwrap(), 1001);
    }

    /// A table emptied by deletes counts zero rows but its indexes keep
    /// their pages; a bulk load fills every one of them with every row.
    #[test]
    fn bulk_insert_into_an_emptied_table_keeps_heap_and_indexes_in_step() {
        let rows: Vec<[i64; 3]> = (0..1000i64).map(|i| [i % 10, i, -i]).collect();
        let db = db_with_covered_table();
        let t = db.table("T").unwrap();
        t.insert(&[1, 2, 3]).unwrap();
        assert!(t.delete_row(&[1, 2, 3]).unwrap());
        t.bulk_insert(&rows).unwrap();
        assert_eq!(t.row_count().unwrap(), 1000);
        for name in ["AB", "CA"] {
            assert_eq!(t.index(name).unwrap().entry_count().unwrap(), 1000);
            t.index(name).unwrap().check_invariants().unwrap();
        }
        let hits = t.index("AB").unwrap().scan_range(&[3, i64::MIN], &[3, i64::MAX]).count();
        assert_eq!(hits, 100);
    }

    /// A table emptied by deletes counts zero rows, but its indexes keep
    /// their pages: the builder cannot install over them, so a bulk load
    /// fills them entry by entry, into the kept leaves and their splits.
    #[test]
    fn bulk_insert_refills_an_index_emptied_by_deletes_entry_by_entry() {
        let db = db_with_covered_table();
        let t = db.table("T").unwrap();
        (0..400i64).for_each(|i| t.insert(&[i % 10, i, -i]).unwrap());
        (0..400i64).for_each(|i| assert!(t.delete_row(&[i % 10, i, -i]).unwrap()));
        assert!(t.is_empty().unwrap());
        let kept = ["AB", "CA"].map(|name| t.index(name).unwrap().stats().unwrap().pages);
        assert!(kept.iter().all(|&pages| pages > 1), "several leaves emptied: {kept:?}");
        let rows: Vec<[i64; 3]> = (0..1000i64).map(|i| [i % 10, i, -i]).collect();
        t.bulk_insert(&rows).unwrap();
        assert_eq!(t.row_count().unwrap(), 1000);
        for (name, kept) in ["AB", "CA"].into_iter().zip(kept) {
            let index = t.index(name).unwrap();
            assert_eq!(index.entry_count().unwrap(), 1000);
            assert!(index.stats().unwrap().pages > kept, "{name} filled entry by entry");
            index.check_invariants().unwrap();
        }
        let hits = t.index("AB").unwrap().scan_range(&[3, i64::MIN], &[3, i64::MAX]).count();
        assert_eq!(hits, 100);
    }

    /// Both sort paths order a bulk load's entries as `Entry` does.  At
    /// every arity, over two kinds of batch, with ties on every key and
    /// rows that tie on the key and differ only in their payload, each
    /// index scans exactly the entries a `Vec<Entry>` sorted by `Entry`'s
    /// own order holds:
    ///
    /// * extremes (`i64::MIN`, `i64::MAX`, -1, 0, 1) span 64 bits a
    ///   column: they pack at arity 1 (exactly 128 bits) and sort as
    ///   compact rows above it;
    /// * narrow negative and positive values pack at every arity, with a
    ///   payload column that straddles zero (payloads ≥ 2⁶³ among them)
    ///   taking 64 bits.
    #[test]
    fn bulk_insert_sorts_compact_rows_as_entries_sort() {
        use ri_btree::{Entry, MAX_ARITY};
        let pool =
            Arc::new(BufferPool::new(MemDisk::new(2048), BufferPoolConfig::with_capacity(256)));
        let db = Database::create(pool).unwrap();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let batches: [(&str, &[i64]); 2] =
            [("extremes", &[i64::MIN, i64::MAX, -1, 0, 1]), ("narrow", &[-3, -1, 0, 2, 5])];
        for arity in 1..=MAX_ARITY {
            for (kind, values) in batches {
                // `arity + 1` columns; the key, scrambled, leaves out
                // column `arity / 2`, its payload.
                let columns: Vec<String> = (0..=arity).map(|c| format!("c{c}")).collect();
                let key_cols: Vec<usize> = (0..=arity).rev().filter(|&c| c != arity / 2).collect();
                let index = IndexDef { name: "I".into(), key_cols: key_cols.clone() };
                let name = format!("T{arity}{kind}");
                db.create_table(TableDef { name: name.clone(), columns, indexes: vec![index] })
                    .unwrap();
                let mut seen = std::collections::HashSet::new();
                let rows: Vec<Vec<i64>> = (0..700)
                    .map(|_| {
                        (0..=arity)
                            .map(|_| {
                                x ^= x << 13;
                                x ^= x >> 7;
                                x ^= x << 17;
                                values[(x % values.len() as u64) as usize]
                            })
                            .collect::<Vec<i64>>()
                    })
                    .filter(|row| seen.insert(row.clone()))
                    .collect();
                let t = db.table(&name).unwrap();
                let packs = t.packings(&rows).unwrap()[0].is_some();
                assert_eq!(packs, kind == "narrow" || arity == 1, "{kind} at arity {arity}");
                t.bulk_insert(&rows).unwrap();
                let mut expected: Vec<Entry> = rows
                    .iter()
                    .map(|row| {
                        let key: Vec<i64> = key_cols.iter().map(|&c| row[c]).collect();
                        Entry::new(&key, row[arity / 2] as u64)
                    })
                    .collect();
                expected.sort_unstable();
                let index = t.index("I").unwrap();
                let scanned: Vec<Entry> =
                    index.scan_all().collect::<ri_pagestore::Result<_>>().unwrap();
                assert_eq!(scanned, expected, "{kind} at arity {arity}");
                let tie = scanned.windows(2).any(|w| w[0].key == w[1].key);
                assert!(tie, "{kind} at arity {arity}: no two rows differ only in payload");
                assert!(scanned.iter().any(|e| e.payload >= 1 << 63), "{kind}: no payload ≥ 2⁶³");
                index.check_invariants().unwrap();
            }
        }
    }

    /// Every page of a covered table's database, as the pool serves it.
    fn bulk_pages(db: &Database) -> Vec<Vec<u8>> {
        let pool = db.pool();
        (0..pool.num_pages())
            .map(|page| pool.with_page(ri_pagestore::PageId(page), |b| b.to_vec()).unwrap())
            .collect()
    }

    /// Rows for `db_with_covered_table` (`AB → c`, `CA → b`).  `a` and
    /// `c` span 40 bits and `b` straddles zero: as a key column it takes
    /// 3 bits, as `CA`'s payload all 64.  `AB` packs in 83 bits; `CA`
    /// needs 144 and sorts as compact rows, unless `narrow` keeps `a` and
    /// `c` to 16 bits.
    fn bulk_rows(n: i64, narrow: bool) -> Vec<[i64; 3]> {
        let bits = if narrow { 16 } else { 40 };
        (0..n)
            .map(|i| {
                let a = i.wrapping_mul(0x9E37_79B9) & ((1 << bits) - 1);
                [a, i % 5 - 2, (i * 7919 % n) << (bits - 16)]
            })
            .collect()
    }

    /// The two sort paths build byte-identical pages.  Twin databases
    /// load one batch, one as the spans choose and one with every index
    /// forced onto compact rows: a batch whose indexes both pack, and one
    /// whose first index packs and whose second does not.
    #[test]
    fn bulk_packed_and_compact_paths_write_identical_pages() {
        for (narrow, paths) in [(true, [true, true]), (false, [true, false])] {
            let rows = bulk_rows(3000, narrow);
            let (chosen, compact) = (db_with_covered_table(), db_with_covered_table());
            let t = chosen.table("T").unwrap();
            let packings = t.packings(&rows).unwrap();
            assert_eq!(packings.iter().map(Option::is_some).collect::<Vec<_>>(), paths);
            t.bulk_insert(&rows).unwrap();
            compact.table("T").unwrap().bulk_build(&rows, &[None, None]).unwrap();
            let pages = bulk_pages(&chosen);
            assert!(pages.len() > 20, "several leaves per index");
            assert!(pages == bulk_pages(&compact), "paths {paths:?} wrote different pages");
            for name in ["AB", "CA"] {
                assert_eq!(t.index(name).unwrap().entry_count().unwrap(), 3000);
                t.index(name).unwrap().check_invariants().unwrap();
            }
        }
    }

    /// A repeated row refuses the whole batch on either sort path, before
    /// any index is built: nothing is written and every index stays
    /// empty.  The batches: one that packs, one whose second index does
    /// not, and one of extremes that packs nowhere.
    #[test]
    fn bulk_a_repeated_row_leaves_every_index_empty_on_both_paths() {
        let extreme = |i: i64| if i % 2 == 0 { i64::MIN + i } else { i64::MAX - i };
        let extremes: Vec<[i64; 3]> =
            (0..500i64).map(|i| [extreme(i), extreme(i / 2), i % 3 - 1]).collect();
        let batches = [
            (bulk_rows(1000, true), [true, true]),
            (bulk_rows(1000, false), [true, false]),
            (extremes, [false, false]),
        ];
        for (mut rows, paths) in batches {
            rows.push(rows[rows.len() / 2]);
            let db = db_with_covered_table();
            let t = db.table("T").unwrap();
            let chosen = t.packings(&rows).unwrap();
            assert_eq!(chosen.iter().map(Option::is_some).collect::<Vec<_>>(), paths);
            for packings in [&chosen[..], &[None, None]] {
                let writes = db.pool().stats().snapshot().logical_writes;
                let refused = t.bulk_build(&rows, packings);
                assert!(matches!(refused, Err(Error::InvalidArgument(_))), "{refused:?}");
                assert_eq!(db.pool().stats().snapshot().logical_writes, writes, "nothing written");
                for name in ["AB", "CA"] {
                    assert_eq!(t.index(name).unwrap().stats().unwrap().height, 0, "{name}");
                }
            }
            assert!(matches!(t.bulk_insert(&rows), Err(Error::InvalidArgument(_))));
            assert!(t.is_empty().unwrap());
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

    /// A table keeps nothing but its indexes: each entry carries the
    /// left-out column as its payload, negative values included, and the
    /// rows are counted, claimed and deleted through the indexes alone.
    #[test]
    fn a_covered_table_keeps_no_heap_and_its_entries_carry_the_left_out_column() {
        let db = db_with_covered_table();
        let before = db.pool().num_pages();
        let t = db.table("T").unwrap();
        assert!(t.is_empty().unwrap());
        t.insert(&[1, 2, 3]).unwrap();
        t.insert(&[4, i64::MIN, -5]).unwrap();
        assert_eq!(db.pool().num_pages(), before + 2, "one root leaf per index");
        let entries = |name: &str| -> Vec<(Vec<i64>, i64)> {
            let index = t.index(name).unwrap();
            index
                .scan_all()
                .map(|e| e.map(|e| (e.key.as_slice().to_vec(), e.payload as i64)))
                .collect::<ri_pagestore::Result<_>>()
                .unwrap()
        };
        assert_eq!(entries("AB"), [(vec![1, 2], 3), (vec![4, i64::MIN], -5)]);
        assert_eq!(entries("CA"), [(vec![-5, 4], i64::MIN), (vec![3, 1], 2)]);
        assert_eq!(t.row_count().unwrap(), 2);
        assert!(!t.is_empty().unwrap());
        let short = |r: ri_pagestore::Result<_>| matches!(r, Err(Error::InvalidArgument(_)));
        assert!(short(t.insert(&[1, 2]).map(|_| ())), "a short row");
        assert!(short(t.delete_row(&[1, 2]).map(|_| ())), "a short row");
        assert!(!t.delete_row(&[1, 2, 4]).unwrap(), "no such row");
        assert!(t.delete_row(&[4, i64::MIN, -5]).unwrap());
        assert_eq!((entries("AB").len(), entries("CA").len()), (1, 1));
        assert_eq!(t.row_count().unwrap(), 1);
    }

    /// A covered table is a set: a row it holds is refused, by `insert`
    /// and by `bulk_insert`, with nothing written; a deleted row can be
    /// inserted again.
    #[test]
    fn a_covered_table_refuses_a_row_it_holds() {
        let db = db_with_covered_table();
        let t = db.table("T").unwrap();
        let refused = |r: ri_pagestore::Result<()>| matches!(r, Err(Error::InvalidArgument(_)));
        assert!(refused(t.bulk_insert([[1, 2, 3], [4, 5, 6], [1, 2, 3]])));
        assert!(t.is_empty().unwrap(), "a refused bulk load writes nothing");
        t.bulk_insert([[1, 2, 3], [4, 5, 6]]).unwrap();
        let writes = db.pool().stats().snapshot().logical_writes;
        assert!(refused(t.insert(&[1, 2, 3])));
        assert_eq!(
            db.pool().stats().snapshot().logical_writes,
            writes,
            "a refused insert writes nothing"
        );
        assert_eq!(t.index("CA").unwrap().entry_count().unwrap(), 2);
        assert!(t.delete_row(&[1, 2, 3]).unwrap());
        assert!(!t.delete_row(&[1, 2, 3]).unwrap());
        t.insert(&[1, 2, 3]).unwrap();
        assert_eq!(t.row_count().unwrap(), 2);
    }

    /// A table is created only if its declared indexes cover it: at least
    /// one, each leaving out at most one column.  Any other definition is
    /// refused before anything is allocated, and leaves no name behind.
    #[test]
    fn only_indexes_that_each_leave_out_at_most_one_column_drop_the_heap() {
        let db = db_with_covered_table();
        let columns = vec!["a".into(), "b".into(), "c".into()];
        let def = |name: &str, keys: Vec<Vec<usize>>| TableDef {
            name: name.into(),
            columns: columns.clone(),
            indexes: keys
                .into_iter()
                .enumerate()
                .map(|(i, key_cols)| IndexDef { name: format!("I{i}"), key_cols })
                .collect(),
        };
        for (name, keys) in
            [("ALL", vec![vec![2, 1, 0]]), ("TWO_OF_THREE", vec![vec![0, 2], vec![1, 2]])]
        {
            db.create_table(def(name, keys)).unwrap();
            let t = db.table(name).unwrap();
            t.insert(&[7, 8, 9]).unwrap();
            assert_eq!(t.row_count().unwrap(), 1, "{name}");
        }
        let once = IndexDef { name: "B".into(), key_cols: vec![1, 2] };
        let refused = [
            def("ONE_OF_THREE", vec![vec![0, 1], vec![2]]),
            def("NONE", vec![]),
            def("BAD_KEY", vec![vec![3, 1]]),
            TableDef { indexes: vec![once.clone(), once], ..def("TWICE", vec![]) },
        ];
        for def in refused {
            let (name, pages) = (def.name.clone(), db.pool().num_pages());
            assert!(matches!(db.create_table(def), Err(Error::InvalidArgument(_))), "{name}");
            assert_eq!(db.pool().num_pages(), pages, "{name} allocated pages");
            assert!(db.table(&name).is_err(), "{name} is in the catalog");
        }
    }

    /// A row write logs one record per index and nothing else: 2 with two
    /// indexes.
    #[test]
    fn row_writes_of_a_covered_table_log_one_record_per_index() {
        let pool = Arc::new(
            BufferPool::new_durable(
                MemDisk::new(2048),
                BufferPoolConfig::with_capacity(64),
                MemDisk::new(2048),
            )
            .unwrap(),
        );
        let db = Database::create(Arc::clone(&pool)).unwrap();
        db.create_table(TableDef {
            name: "T".into(),
            columns: vec!["a".into(), "b".into(), "c".into()],
            indexes: vec![
                IndexDef { name: "AB".into(), key_cols: vec![0, 1] },
                IndexDef { name: "CA".into(), key_cols: vec![2, 0] },
            ],
        })
        .unwrap();
        let t = db.table("T").unwrap();
        t.insert(&[0, 0, 0]).unwrap();
        t.insert(&[1, 1, 1]).unwrap();
        db.commit().unwrap();
        let logged = |op: &dyn Fn()| {
            let (latches, wal) = (pool.latches().stats(), pool.wal().unwrap().stats());
            op();
            assert_eq!(pool.latches().stats().since(&latches).splits, 0, "no leaf may split");
            pool.wal().unwrap().stats().records - wal.records
        };
        assert_eq!(logged(&|| t.insert(&[2, 2, 2]).unwrap()), 2, "insert: one per index");
        assert_eq!(logged(&|| assert!(t.delete_row(&[1, 1, 1]).unwrap())), 2, "delete");
        assert_eq!(t.row_count().unwrap(), 2);
    }

    #[test]
    fn wrong_arity_rejected() {
        let db = db_with_covered_table();
        let t = db.table("T").unwrap();
        assert!(t.insert(&[1, 2]).is_err());
    }

    #[test]
    fn unknown_index_name_errors() {
        let db = db_with_covered_table();
        let t = db.table("T").unwrap();
        assert!(t.index("NOPE").is_err());
    }
}
