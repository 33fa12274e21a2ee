//! Persistent database catalog and parameter dictionary.
//!
//! The catalog lives in the database *header page* (page 0 of the device),
//! so a database can be re-opened from a file-backed pool.  Besides tables
//! and indexes it stores named `i64` parameters — the paper's Section 5
//! notes that "a persistent data dictionary provides a convenient way to
//! store index specific system parameters such as root or minstep", and the
//! RI-tree keeps `offset`, `leftRoot`, `rightRoot` and `minstep` here.

use crate::table::Table;
use parking_lot::RwLock;
use ri_btree::BTree;
use ri_pagestore::codec::{get_i64, get_u16, get_u32, get_u64, put_i64, put_u16, put_u32, put_u64};
use ri_pagestore::{BufferPool, Error, PageId, Result};
use std::sync::Arc;

/// Catalog format 3: a table is its indexes, and nothing else.
const DB_MAGIC: u32 = 0x3344_4952; // "RID3"
/// Format 1, refused: every table had a heap, every entry a row id.
const DB_MAGIC_V1: u32 = 0x5249_4442; // "RIDB"
/// Format 2, refused: a table its indexes did not cover had a heap.
const DB_MAGIC_V2: u32 = 0x3244_4952; // "RID2"
const HEADER_PAGE: PageId = PageId(0);
const MAX_NAME: usize = 63;

/// Definition of a new table (DDL `CREATE TABLE`).
#[derive(Clone, Debug)]
pub struct TableDef {
    /// Table name (unique, at most 63 bytes).
    pub name: String,
    /// Column names; all columns are `i64`.
    pub columns: Vec<String>,
    /// The table's indexes, which are the table: there must be at least
    /// one, and each key must leave out at most one column.  An entry
    /// carries the column its key leaves out as its payload (0 when the key
    /// holds every column), so every index holds the whole row.
    pub indexes: Vec<IndexDef>,
}

/// Definition of an index, declared with its table ([`TableDef::indexes`]).
///
/// `key_cols` lists column positions in significance order — e.g. the
/// paper's `CREATE INDEX lowerIndex ON Intervals (node, lower)` becomes
/// `key_cols: vec![0, 1]` on a `(node, lower, upper, id)` table.
#[derive(Clone, Debug)]
pub struct IndexDef {
    /// Index name (unique within its table).
    pub name: String,
    /// Positions of the key columns, most significant first.
    pub key_cols: Vec<usize>,
}

#[derive(Clone, Debug)]
pub(crate) struct IndexMeta {
    pub name: String,
    pub key_cols: Vec<usize>,
    pub btree_meta: PageId,
}

#[derive(Clone, Debug)]
pub(crate) struct TableMeta {
    pub name: String,
    pub columns: Vec<String>,
    pub indexes: Vec<IndexMeta>,
}

/// Whether indexes keyed on `key_cols` cover a table of `n_cols` columns:
/// there is at least one, and each key leaves out at most one column.
fn covering<'a>(n_cols: usize, keys: impl IntoIterator<Item = &'a [usize]>) -> bool {
    let mut keys = keys.into_iter().peekable();
    keys.peek().is_some() && keys.all(|key| (0..n_cols).filter(|c| !key.contains(c)).count() <= 1)
}

#[derive(Default, Debug)]
pub(crate) struct Catalog {
    pub tables: Vec<TableMeta>,
    pub params: Vec<(String, i64)>,
}

/// A database: a buffer pool plus a persistent catalog.
///
/// All DDL, DML and query execution of the reproduction flows through this
/// type; it plays the role of the Oracle server in the paper's setup.
///
/// The in-memory catalog sits behind a reader-writer lock: metadata
/// lookups (`table`, `get_param`, plan execution) share it, only DDL and
/// parameter writes take it exclusively.  A plain mutex here would be
/// the next convoy after the buffer pool once queries and writers run on
/// many threads, since *every* executed plan resolves its table and index
/// metadata here.
pub struct Database {
    pool: Arc<BufferPool>,
    catalog: RwLock<Catalog>,
}

impl Database {
    /// Creates a fresh database on an empty pool.
    pub fn create(pool: Arc<BufferPool>) -> Result<Database> {
        if pool.num_pages() != 0 {
            return Err(Error::InvalidArgument(
                "Database::create requires an empty device (use open to re-attach)".to_string(),
            ));
        }
        let header = pool.allocate_page()?;
        debug_assert_eq!(header, HEADER_PAGE);
        let db = Database { pool, catalog: RwLock::new(Catalog::default()) };
        db.persist()?;
        Ok(db)
    }

    /// Re-opens a database from its header page.
    ///
    /// On a durable pool ([`BufferPool::new_durable`]) this first runs
    /// **redo recovery**: the WAL tail found on the log device is replayed
    /// against the data device (committed records redone, the uncommitted
    /// tail rolled back), so the catalog — and everything it points to —
    /// is read from the recovered, committed state.
    ///
    /// A pool built with `FlushPolicy::Background` already owns a running
    /// WAL flusher thread at this point; `open` needs no extra steering.
    /// Pair it with [`Database::close`] to stop the flusher cleanly (the
    /// pool's `Drop` also does, for the crash-test paths that never close).
    pub fn open(pool: Arc<BufferPool>) -> Result<Database> {
        pool.recover()?;
        let catalog = pool.with_page(HEADER_PAGE, decode_catalog)??;
        Ok(Database { pool, catalog: RwLock::new(catalog) })
    }

    /// The underlying buffer pool (for I/O statistics and flushing).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Makes everything done so far durable **without** waiting for a
    /// checkpoint: appends a commit record to the write-ahead log and
    /// group-commits it (one fsync may cover many concurrent committers).
    /// On a pool without a WAL this is a no-op returning `Ok` — there is
    /// no durability to promise, matching the volatile seed behavior.
    pub fn commit(&self) -> Result<()> {
        match self.pool.wal() {
            Some(wal) => wal.commit().map(|_| ()),
            None => Ok(()),
        }
    }

    /// Flushes all cached pages to the device; on a durable pool this
    /// then **truncates** the write-ahead log down to its fuzzy-checkpoint
    /// horizon (records whose page images reached the data device are dead
    /// weight — but any in-flight transaction's rollback pre-images are
    /// spared).  Callers need **not** be quiescent: the WAL samples the
    /// end-of-log fence *before* the write-back pass, so commits and
    /// updates racing this call neither lose durability nor leak
    /// uncommitted state through a post-checkpoint crash.
    pub fn checkpoint(&self) -> Result<()> {
        match self.pool.wal() {
            Some(wal) => {
                // The fence must pre-date the write-back pass: every record
                // below it provably describes a flushed page.
                let fence = wal.end_lsn();
                self.pool.flush_all()?;
                wal.checkpoint(fence)
            }
            None => self.pool.flush_all(),
        }
    }

    /// Orderly shutdown: takes a final [`Database::checkpoint`] (flushing
    /// every dirty page and truncating the log down to retired segments),
    /// then stops and joins the WAL's background flusher thread, if the
    /// pool runs one.  Call before dropping a database you intend to
    /// re-open; skipping it is *safe* — recovery replays the log — just
    /// slower on the next [`Database::open`].  No-op on volatile pools
    /// beyond the page flush.
    pub fn close(&self) -> Result<()> {
        self.checkpoint()?;
        self.pool.stop_flusher();
        Ok(())
    }

    /// Exclusive latch serializing multi-call read-modify-write
    /// transactions on the parameter dictionary (e.g. "load the backbone
    /// parameters, extend them, store them back").  Single [`Database::set_param`]
    /// calls are already atomic under the catalog lock; this guard is for
    /// callers whose *decision* depends on the value they just read.
    pub fn param_guard(&self) -> ri_pagestore::LatchGuard<'_> {
        self.pool.latches().page_exclusive(HEADER_PAGE)
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    /// Creates an empty table and the indexes declared with it.  A
    /// definition whose indexes do not cover it ([`TableDef::indexes`]) is
    /// refused with `InvalidArgument`, and nothing is allocated.
    pub fn create_table(&self, def: TableDef) -> Result<()> {
        check_name(&def.name)?;
        for c in &def.columns {
            check_name(c)?;
        }
        let mut cat = self.catalog.write();
        if cat.tables.iter().any(|t| t.name == def.name) {
            return Err(Error::InvalidArgument(format!("table {} already exists", def.name)));
        }
        for (i, idx) in def.indexes.iter().enumerate() {
            let names = def.indexes[..i].iter().map(|i| i.name.as_str());
            check_index(&def.name, def.columns.len(), names, idx)?;
        }
        if !covering(def.columns.len(), def.indexes.iter().map(|i| i.key_cols.as_slice())) {
            return Err(Error::InvalidArgument(format!(
                "table {} needs at least one index, each leaving out at most one column",
                def.name
            )));
        }
        // A new table is empty, and so is each of its indexes.
        let indexes = def
            .indexes
            .into_iter()
            .map(|idx| {
                let tree = BTree::create(Arc::clone(&self.pool), idx.key_cols.len())?;
                Ok(IndexMeta {
                    name: idx.name,
                    key_cols: idx.key_cols,
                    btree_meta: tree.meta_page(),
                })
            })
            .collect::<Result<_>>()?;
        cat.tables.push(TableMeta { name: def.name, columns: def.columns, indexes });
        self.persist_locked(&cat)
    }

    // ------------------------------------------------------------------
    // Handles and metadata
    // ------------------------------------------------------------------

    /// Opens a handle for DML and scans on `name`.
    ///
    /// Handles snapshot the schema: re-obtain them after DDL.
    pub fn table(&self, name: &str) -> Result<Table> {
        let cat = self.catalog.read();
        let tmeta = cat
            .tables
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| Error::InvalidArgument(format!("no such table {name}")))?;
        Table::from_meta(Arc::clone(&self.pool), tmeta)
    }

    /// Shape statistics of an index (height, pages), read off its meta
    /// page in O(1).
    pub fn index_stats(&self, table: &str, index: &str) -> Result<ri_btree::TreeStats> {
        let meta = self.index_meta(table, index)?;
        BTree::open(Arc::clone(&self.pool), meta.btree_meta)?.stats()
    }

    pub(crate) fn index_meta(&self, table: &str, index: &str) -> Result<IndexMeta> {
        let cat = self.catalog.read();
        let tmeta = cat
            .tables
            .iter()
            .find(|t| t.name == table)
            .ok_or_else(|| Error::InvalidArgument(format!("no such table {table}")))?;
        tmeta
            .indexes
            .iter()
            .find(|i| i.name == index)
            .cloned()
            .ok_or_else(|| Error::InvalidArgument(format!("no such index {index} on {table}")))
    }

    // ------------------------------------------------------------------
    // Parameter dictionary
    // ------------------------------------------------------------------

    /// Sets (or overwrites) a named persistent parameter.
    pub fn set_param(&self, name: &str, value: i64) -> Result<()> {
        self.set_params(&[(name, value)])
    }

    /// Sets several parameters atomically with a single header write.
    ///
    /// Index implementations persist their whole parameter block per update
    /// (the RI-tree's `offset`/`leftRoot`/`rightRoot`/`minstep`); batching
    /// keeps that a single logical page write.
    pub fn set_params(&self, entries: &[(&str, i64)]) -> Result<()> {
        for (name, _) in entries {
            check_name(name)?;
        }
        let mut cat = self.catalog.write();
        for (name, value) in entries {
            if let Some(p) = cat.params.iter_mut().find(|(n, _)| n == name) {
                p.1 = *value;
            } else {
                cat.params.push((name.to_string(), *value));
            }
        }
        self.persist_locked(&cat)
    }

    /// Reads a named persistent parameter.
    pub fn get_param(&self, name: &str) -> Option<i64> {
        self.catalog.read().params.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    // ------------------------------------------------------------------
    // Catalog persistence
    // ------------------------------------------------------------------

    fn persist(&self) -> Result<()> {
        let cat = self.catalog.read();
        self.persist_locked(&cat)
    }

    fn persist_locked(&self, cat: &Catalog) -> Result<()> {
        let encoded = encode_catalog(cat, self.pool.page_size())?;
        self.pool.with_page_mut(HEADER_PAGE, |buf| buf.copy_from_slice(&encoded))
    }
}

fn check_name(name: &str) -> Result<()> {
    if name.is_empty() || name.len() > MAX_NAME {
        return Err(Error::InvalidArgument(format!("name {name:?} must be 1..={MAX_NAME} bytes")));
    }
    Ok(())
}

/// Checks a new index of `table` (`n_cols` columns) against the names of
/// the indexes declared before it.
fn check_index<'a>(
    table: &str,
    n_cols: usize,
    mut names: impl Iterator<Item = &'a str>,
    def: &IndexDef,
) -> Result<()> {
    check_name(&def.name)?;
    if names.any(|name| name == def.name) {
        return Err(Error::InvalidArgument(format!("index {} already exists", def.name)));
    }
    if !valid_key(n_cols, &def.key_cols) {
        return Err(Error::InvalidArgument(format!(
            "invalid key columns {:?} for table {table}",
            def.key_cols
        )));
    }
    Ok(())
}

/// The conditions on an index key that DML relies on: it indexes rows by
/// these positions unchecked.
fn valid_key(n_cols: usize, key_cols: &[usize]) -> bool {
    !key_cols.is_empty()
        && key_cols.len() <= ri_btree::MAX_ARITY
        && key_cols.iter().all(|&c| c < n_cols)
}

// ----------------------------------------------------------------------
// Header page encoding
// ----------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn need(&self, n: usize) -> Result<()> {
        if self.pos + n > self.buf.len() {
            return Err(Error::InvalidArgument(
                "catalog overflows the header page; use shorter names or fewer objects".to_string(),
            ));
        }
        Ok(())
    }
    fn put_str(&mut self, s: &str) -> Result<()> {
        self.need(1 + s.len())?;
        self.buf[self.pos] = s.len() as u8;
        self.buf[self.pos + 1..self.pos + 1 + s.len()].copy_from_slice(s.as_bytes());
        self.pos += 1 + s.len();
        Ok(())
    }
    fn put_u64(&mut self, v: u64) -> Result<()> {
        self.need(8)?;
        put_u64(self.buf, self.pos, v);
        self.pos += 8;
        Ok(())
    }
    fn put_i64(&mut self, v: i64) -> Result<()> {
        self.need(8)?;
        put_i64(self.buf, self.pos, v);
        self.pos += 8;
        Ok(())
    }
    fn put_u8(&mut self, v: u8) -> Result<()> {
        self.need(1)?;
        self.buf[self.pos] = v;
        self.pos += 1;
        Ok(())
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// The next `n` bytes — `Corrupt` where a forged count or length
    /// would run past the page (the encoder's `Cursor::need`, reading).
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let bytes = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or_else(|| Error::Corrupt("catalog runs past the header page".to_string()))?;
        self.pos += n;
        Ok(bytes)
    }
    fn get_str(&mut self) -> Result<String> {
        let len = self.get_u8()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map(str::to_string)
            .map_err(|_| Error::Corrupt("catalog string is not UTF-8".to_string()))
    }
    fn get_u64(&mut self) -> Result<u64> {
        Ok(get_u64(self.take(8)?, 0))
    }
    fn get_i64(&mut self) -> Result<i64> {
        Ok(get_i64(self.take(8)?, 0))
    }
    fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
}

fn encode_catalog(cat: &Catalog, page_size: usize) -> Result<Vec<u8>> {
    let mut out = vec![0u8; page_size];
    put_u32(&mut out, 0, DB_MAGIC);
    put_u16(&mut out, 4, cat.tables.len() as u16);
    put_u16(&mut out, 6, cat.params.len() as u16);
    let mut cur = Cursor { buf: &mut out, pos: 8 };
    for t in &cat.tables {
        cur.put_str(&t.name)?;
        cur.put_u8(t.columns.len() as u8)?;
        for c in &t.columns {
            cur.put_str(c)?;
        }
        cur.put_u8(t.indexes.len() as u8)?;
        for i in &t.indexes {
            cur.put_str(&i.name)?;
            cur.put_u8(i.key_cols.len() as u8)?;
            for &c in &i.key_cols {
                cur.put_u8(c as u8)?;
            }
            cur.put_u64(i.btree_meta.raw())?;
        }
    }
    for (name, value) in &cat.params {
        cur.put_str(name)?;
        cur.put_i64(*value)?;
    }
    Ok(out)
}

fn decode_catalog(buf: &[u8]) -> Result<Catalog> {
    match get_u32(buf, 0) {
        DB_MAGIC => {}
        DB_MAGIC_V1 => return Err(Error::Corrupt("catalog format 1 is not readable".to_string())),
        DB_MAGIC_V2 => return Err(Error::Corrupt("catalog format 2 is not readable".to_string())),
        _ => return Err(Error::Corrupt("header page magic mismatch — not a database".to_string())),
    }
    let n_tables = get_u16(buf, 4) as usize;
    let n_params = get_u16(buf, 6) as usize;
    let mut r = Reader { buf, pos: 8 };
    let mut cat = Catalog::default();
    for _ in 0..n_tables {
        let name = r.get_str()?;
        let n_cols = r.get_u8()? as usize;
        let columns = (0..n_cols).map(|_| r.get_str()).collect::<Result<Vec<_>>>()?;
        let n_idx = r.get_u8()? as usize;
        let mut indexes = Vec::with_capacity(n_idx);
        for _ in 0..n_idx {
            let iname = r.get_str()?;
            let n_keys = r.get_u8()? as usize;
            let key_cols =
                (0..n_keys).map(|_| r.get_u8().map(usize::from)).collect::<Result<Vec<_>>>()?;
            if !valid_key(n_cols, &key_cols) {
                return Err(Error::Corrupt(format!(
                    "index {iname} of table {name} has invalid key columns {key_cols:?}"
                )));
            }
            let btree_meta = PageId(r.get_u64()?);
            indexes.push(IndexMeta { name: iname, key_cols, btree_meta });
        }
        // A table's rows are rebuilt from an entry's key and payload alone.
        if !covering(n_cols, indexes.iter().map(|i| i.key_cols.as_slice())) {
            return Err(Error::Corrupt(format!("table {name} has no covering indexes")));
        }
        cat.tables.push(TableMeta { name, columns, indexes });
    }
    for _ in 0..n_params {
        let name = r.get_str()?;
        let value = r.get_i64()?;
        cat.params.push((name, value));
    }
    Ok(cat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ri_pagestore::{BufferPoolConfig, MemDisk};

    fn fresh_db() -> Database {
        let pool =
            Arc::new(BufferPool::new(MemDisk::new(2048), BufferPoolConfig::with_capacity(32)));
        Database::create(pool).unwrap()
    }

    /// `T(a, b)`, whose index `IA (a) → b` covers it.
    fn table_t() -> TableDef {
        TableDef {
            name: "T".into(),
            columns: vec!["a".into(), "b".into()],
            indexes: vec![IndexDef { name: "IA".into(), key_cols: vec![0] }],
        }
    }

    #[test]
    fn create_requires_empty_device() {
        let pool =
            Arc::new(BufferPool::new(MemDisk::new(2048), BufferPoolConfig::with_capacity(8)));
        pool.allocate_page().unwrap();
        assert!(Database::create(pool).is_err());
    }

    /// A table no index can cover — 40 columns against keys of at most
    /// `MAX_ARITY` — is refused, with or without an index, before anything
    /// is allocated, and leaves no trace in the catalog.
    #[test]
    fn a_table_too_wide_for_its_pages_is_refused() {
        let pool = Arc::new(BufferPool::new(MemDisk::new(256), BufferPoolConfig::with_capacity(8)));
        let db = Database::create(pool).unwrap();
        let columns = |n: usize| (0..n).map(|c| format!("c{c}")).collect::<Vec<_>>();
        let index = IndexDef { name: "I".into(), key_cols: vec![0, 1, 2, 3] };
        for indexes in [Vec::new(), vec![index.clone()]] {
            let pages = db.pool().num_pages();
            let wide = TableDef { name: "W".into(), columns: columns(40), indexes };
            assert!(matches!(db.create_table(wide), Err(Error::InvalidArgument(_))));
            assert_eq!(db.pool().num_pages(), pages, "a refused table allocates nothing");
            assert!(db.table("W").is_err(), "a refused table is not in the catalog");
        }
        let narrow = TableDef { name: "W".into(), columns: columns(5), indexes: vec![index] };
        db.create_table(narrow).unwrap();
        db.table("W").unwrap().insert(&[1, 2, 3, 4, 5]).unwrap();
    }

    #[test]
    fn ddl_roundtrips_through_reopen() {
        let pool =
            Arc::new(BufferPool::new(MemDisk::new(2048), BufferPoolConfig::with_capacity(32)));
        {
            let db = Database::create(Arc::clone(&pool)).unwrap();
            db.create_table(table_t()).unwrap();
            db.set_param("offset", -17).unwrap();
            let t = db.table("T").unwrap();
            t.insert(&[1, 2]).unwrap();
            db.checkpoint().unwrap();
        }
        let db = Database::open(pool).unwrap();
        assert_eq!(db.get_param("offset"), Some(-17));
        let t = db.table("T").unwrap();
        assert_eq!(t.columns(), ["a", "b"]);
        assert_eq!(t.row_count().unwrap(), 1);
        assert_eq!(t.index("IA").unwrap().entry_count().unwrap(), 1);
    }

    #[test]
    fn durable_commit_roundtrips_without_checkpoint() {
        let data = Arc::new(MemDisk::new(2048));
        let wal = Arc::new(MemDisk::new(2048));
        let pool = Arc::new(
            BufferPool::new_durable(
                Arc::clone(&data),
                BufferPoolConfig::with_capacity(32),
                Arc::clone(&wal),
            )
            .unwrap(),
        );
        {
            let db = Database::create(Arc::clone(&pool)).unwrap();
            db.create_table(TableDef {
                name: "T".into(),
                columns: vec!["a".into()],
                indexes: vec![IndexDef { name: "A".into(), key_cols: vec![0] }],
            })
            .unwrap();
            let t = db.table("T").unwrap();
            for i in 0..50 {
                t.insert(&[i]).unwrap();
            }
            db.commit().unwrap();
            // No checkpoint: everything committed lives only in cache + WAL.
        }
        drop(pool);
        // Reopen from the same devices; `open` replays the WAL tail.
        let pool = Arc::new(
            BufferPool::new_durable(data, BufferPoolConfig::with_capacity(32), wal).unwrap(),
        );
        let db = Database::open(pool).unwrap();
        let t = db.table("T").unwrap();
        assert_eq!(t.row_count().unwrap(), 50);
    }

    #[test]
    fn commit_is_a_noop_on_volatile_pools() {
        let db = fresh_db();
        db.commit().unwrap();
    }

    /// A second table of a name, two indexes of one name and a key column
    /// past the row are refused; so is a handle on a table never created.
    #[test]
    fn duplicate_ddl_rejected() {
        let db = fresh_db();
        db.create_table(table_t()).unwrap();
        assert!(db.create_table(table_t()).is_err());
        let with_indexes =
            |indexes: Vec<IndexDef>| TableDef { name: "U".into(), indexes, ..table_t() };
        let twice = with_indexes(vec![table_t().indexes[0].clone(); 2]);
        assert!(db.create_table(twice).is_err());
        let past = with_indexes(vec![IndexDef { name: "J".into(), key_cols: vec![5] }]);
        assert!(db.create_table(past).is_err());
        assert!(db.table("U").is_err() && db.table("MISSING").is_err());
    }

    #[test]
    fn params_update() {
        let db = fresh_db();
        assert_eq!(db.get_param("x"), None);
        db.set_param("x", 1).unwrap();
        db.set_param("x", 2).unwrap();
        assert_eq!(db.get_param("x"), Some(2));
    }

    #[test]
    fn open_rejects_non_database() {
        let pool =
            Arc::new(BufferPool::new(MemDisk::new(2048), BufferPoolConfig::with_capacity(8)));
        pool.allocate_page().unwrap();
        assert!(Database::open(pool).is_err());
    }

    /// Reopens a flushed database (one table, one index, one parameter)
    /// after `forge` has edited its header page.
    fn open_forged(forge: impl FnOnce(&mut [u8])) -> Result<Database> {
        let pool =
            Arc::new(BufferPool::new(MemDisk::new(2048), BufferPoolConfig::with_capacity(32)));
        let db = Database::create(Arc::clone(&pool)).unwrap();
        db.create_table(table_t()).unwrap();
        db.set_param("offset", 17).unwrap();
        db.checkpoint().unwrap();
        pool.with_page_mut(HEADER_PAGE, forge).unwrap();
        Database::open(pool)
    }

    #[test]
    fn forged_table_count_is_corrupt_not_a_panic() {
        let reopened = open_forged(|page| put_u16(page, 4, 0xFFFF));
        assert!(matches!(reopened, Err(Error::Corrupt(_))));
    }

    #[test]
    fn forged_param_count_is_corrupt_not_a_panic() {
        let reopened = open_forged(|page| put_u16(page, 6, 0xFFFF));
        assert!(matches!(reopened, Err(Error::Corrupt(_))));
    }

    /// `Table::insert` indexes each row by the stored key positions
    /// unchecked, so a bad one must not survive `open`.
    #[test]
    fn forged_index_key_columns_are_corrupt() {
        assert!(open_forged(|_| ()).is_ok(), "the unforged header reopens");
        for key_cols in [vec![2], vec![], vec![0; ri_btree::MAX_ARITY + 1]] {
            let reopened = open_forged(|page| {
                let mut cat = decode_catalog(page).unwrap();
                cat.tables[0].indexes[0].key_cols = key_cols.clone();
                page.copy_from_slice(&encode_catalog(&cat, page.len()).unwrap());
            });
            assert!(matches!(reopened, Err(Error::Corrupt(_))), "key columns {key_cols:?}");
        }
    }

    /// A table round-trips through a reopen as its indexes alone, and a
    /// header whose indexes do not cover a table is refused: its rows
    /// could not be read back.
    #[test]
    fn a_covered_table_reopens_without_a_heap_and_a_forged_one_is_corrupt() {
        let pool =
            Arc::new(BufferPool::new(MemDisk::new(2048), BufferPoolConfig::with_capacity(32)));
        let db = Database::create(Arc::clone(&pool)).unwrap();
        db.create_table(TableDef {
            name: "C".into(),
            columns: vec!["a".into(), "b".into(), "c".into()],
            indexes: vec![IndexDef { name: "CA".into(), key_cols: vec![0, 1] }],
        })
        .unwrap();
        db.table("C").unwrap().insert(&[1, -2, 3]).unwrap();
        db.checkpoint().unwrap();
        let reopened = Database::open(Arc::clone(&pool)).unwrap();
        let t = reopened.table("C").unwrap();
        assert_eq!(t.row_count().unwrap(), 1);
        assert!(t.delete_row(&[1, -2, 3]).unwrap());
        pool.with_page_mut(HEADER_PAGE, |page| {
            let mut cat = decode_catalog(page).unwrap();
            cat.tables[0].indexes[0].key_cols = vec![0];
            page.copy_from_slice(&encode_catalog(&cat, page.len()).unwrap());
        })
        .unwrap();
        assert!(matches!(Database::open(pool), Err(Error::Corrupt(_))));
    }

    /// A header written in catalog format 1 or 2 is refused as `Corrupt`,
    /// not read as the current format: format 1 gave every table a heap
    /// and every index entry a row id, format 2 a table its indexes did
    /// not cover, and each stored a heap page per table that format 3
    /// does not.
    #[test]
    fn old_catalog_format_is_refused_as_corrupt() {
        for (magic, format) in [(DB_MAGIC_V1, "format 1"), (DB_MAGIC_V2, "format 2")] {
            match open_forged(|page| put_u32(page, 0, magic)) {
                Err(Error::Corrupt(msg)) => assert!(msg.contains(format), "{msg}"),
                other => panic!("{format} opened: {:?}", other.map(|_| ())),
            }
        }
    }

    proptest::proptest! {
        /// Arbitrary header pages behind a valid magic decode to `Ok` or
        /// `Err`, never a panic.  Half the cases keep every byte below
        /// 0x80, so that strings pass the UTF-8 check and the decoder
        /// runs on until the page ends.
        #[test]
        fn arbitrary_header_pages_never_panic(
            mut page in proptest::collection::vec(proptest::any::<u8>(), 2048..2049),
            ascii in proptest::any::<bool>(),
        ) {
            if ascii {
                page.iter_mut().for_each(|b| *b &= 0x7F);
            }
            put_u32(&mut page, 0, DB_MAGIC);
            let _ = decode_catalog(&page);
        }
    }
}
