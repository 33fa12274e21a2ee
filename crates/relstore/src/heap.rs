//! Heap file: fixed-width row storage with stable row ids.
//!
//! Rows are arrays of `i64` column values.  Pages are chained for full
//! scans; deletes tombstone their slot, which is never reused (irrelevant
//! to the paper's insert/query workloads).
//!
//! The meta page records where the chain starts and ends and is written
//! only when the chain grows: a row that fits the tail page, and a delete,
//! write their data page alone.  No row count is kept; `row_count` and
//! `is_empty` walk the chain as `scan` does.
//!
//! Appends and deletes run under the heap's write latch (exclusive on the
//! meta page's id, from the pool's [`ri_pagestore::LatchManager`]), so an
//! append and a delete on the tail page never race their copy-on-write
//! installs; any number of threads may insert into one table.  The hold
//! is a few page accesses — the secondary-index maintenance happens
//! outside it in [`crate::Table::insert`].  Reads (`fetch`, `scan`) take
//! no latch: a read shares the frame's immutable `Arc<[u8]>`, and a write
//! installs a new buffer instead of changing one a reader holds.

use ri_pagestore::codec::{get_i64, get_u16, get_u32, get_u64, put_i64, put_u16, put_u32, put_u64};
use ri_pagestore::{BufferPool, Error, PageId, Result};
use std::sync::Arc;

const HEAP_MAGIC: u32 = 0x5249_4850; // "RIHP"
const PAGE_HEADER: usize = 16; // tag u8, pad, count u16, pad u32, next u64

// Heap meta page offsets.
const OFF_MAGIC: usize = 0;
const OFF_ARITY: usize = 4;
const OFF_FIRST: usize = 8;
const OFF_LAST: usize = 16;
// Offset 24 is reserved: it held a row count, which is ignored.

// Data page offsets.
const OFF_TAG: usize = 0;
const OFF_SLOTS: usize = 2;
const OFF_NEXT: usize = 8;
const TAG_DATA: u8 = 0x11;

/// Bits used for the slot number inside a [`RowId`].
const SLOT_BITS: u32 = 12;

/// Stable identifier of a heap row: `(page id << 12) | slot`.
///
/// A heap refuses a row id whose slot lies past its own page geometry, or
/// past the slots its page has used, and one that names a page that is
/// not a heap data page.  An in-range row id taken from *another* heap
/// still resolves, to whatever row that page holds at that slot: data
/// pages carry no owner stamp.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RowId(pub u64);

impl RowId {
    fn new(page: PageId, slot: usize) -> RowId {
        debug_assert!(slot < (1 << SLOT_BITS));
        RowId((page.raw() << SLOT_BITS) | slot as u64)
    }

    fn page(self) -> PageId {
        PageId(self.0 >> SLOT_BITS)
    }

    fn slot(self) -> usize {
        (self.0 & ((1 << SLOT_BITS) - 1)) as usize
    }

    /// The raw 64-bit representation (used as index payload).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs a row id from its raw representation.
    pub fn from_raw(raw: u64) -> RowId {
        RowId(raw)
    }
}

/// A heap file storing rows of `arity` columns.
pub struct Heap {
    pool: Arc<BufferPool>,
    meta_page: PageId,
    arity: usize,
    slots_per_page: usize,
}

impl Heap {
    fn slot_size(arity: usize) -> usize {
        arity * 8 + 1 // columns + live flag
    }

    /// The slots a page holds for rows of `arity` columns, or `None` for an
    /// arity outside `1..=64` or one whose row fits no page.
    fn slots_per_page(page_size: usize, arity: usize) -> Option<usize> {
        if !(1..=64).contains(&arity) {
            return None;
        }
        let slots =
            (page_size.saturating_sub(PAGE_HEADER) / Self::slot_size(arity)).min(1 << SLOT_BITS);
        (slots > 0).then_some(slots)
    }

    /// Creates an empty heap for rows of `arity` columns.  An arity outside
    /// `1..=64`, or one whose row does not fit a page, is `InvalidArgument`.
    pub fn create(pool: Arc<BufferPool>, arity: usize) -> Result<Heap> {
        let page_size = pool.page_size();
        let Some(slots) = Self::slots_per_page(page_size, arity) else {
            return Err(Error::InvalidArgument(format!(
                "heap arity {arity} out of range for {page_size}-byte pages"
            )));
        };
        let meta_page = pool.allocate_page()?;
        pool.with_page_mut(meta_page, |buf| {
            put_u32(buf, OFF_MAGIC, HEAP_MAGIC);
            put_u32(buf, OFF_ARITY, arity as u32);
            put_u64(buf, OFF_FIRST, PageId::INVALID.raw());
            put_u64(buf, OFF_LAST, PageId::INVALID.raw());
        })?;
        Ok(Heap { pool, meta_page, arity, slots_per_page: slots })
    }

    /// Re-opens a heap from its meta page.  An arity [`Heap::create`] would
    /// refuse on this pool's pages is `Corrupt`.
    pub fn open(pool: Arc<BufferPool>, meta_page: PageId) -> Result<Heap> {
        let page_size = pool.page_size();
        let (arity, slots) = pool.with_page(meta_page, |buf| {
            let arity = get_u32(buf, OFF_ARITY) as usize;
            match Self::slots_per_page(page_size, arity) {
                Some(slots) if get_u32(buf, OFF_MAGIC) == HEAP_MAGIC => Ok((arity, slots)),
                _ => Err(Error::Corrupt(format!("page {meta_page} is not a heap meta page"))),
            }
        })??;
        Ok(Heap { pool, meta_page, arity, slots_per_page: slots })
    }

    /// The page identifying this heap in the catalog.
    pub fn meta_page(&self) -> PageId {
        self.meta_page
    }

    /// Number of columns per row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of live rows, counted by walking the chain: O(heap pages),
    /// and exact on a quiescent heap.
    pub fn row_count(&self) -> Result<u64> {
        let mut rows = 0;
        self.walk(|_, buf, used| {
            rows += self.live(buf, used).count() as u64;
            true
        })?;
        Ok(rows)
    }

    /// Whether the heap holds no live row: the chain walk, stopped at the
    /// first live row — O(1) on a fresh or a populated heap.
    pub fn is_empty(&self) -> Result<bool> {
        let mut empty = true;
        self.walk(|_, buf, used| {
            empty = self.live(buf, used).next().is_none();
            empty
        })?;
        Ok(empty)
    }

    /// The chain's `(first, last)` pages.
    fn read_meta(&self) -> Result<(PageId, PageId)> {
        self.pool.with_page(self.meta_page, |buf| {
            (PageId(get_u64(buf, OFF_FIRST)), PageId(get_u64(buf, OFF_LAST)))
        })
    }

    /// Hangs the new page `page` after the chain `(first, last)` (or makes
    /// it the chain) and records its new ends.
    fn grow(&self, (first, last): (PageId, PageId), page: PageId) -> Result<()> {
        if !last.is_invalid() {
            self.pool.with_page_mut(last, |buf| put_u64(buf, OFF_NEXT, page.raw()))?;
        }
        let first = if last.is_invalid() { page } else { first };
        self.pool.with_page_mut(self.meta_page, |buf| {
            put_u64(buf, OFF_FIRST, first.raw());
            put_u64(buf, OFF_LAST, page.raw());
        })
    }

    fn check_arity(&self, columns: usize) -> Result<()> {
        match columns == self.arity {
            true => Ok(()),
            false => Err(Error::InvalidArgument(format!(
                "row has {columns} columns, heap expects {}",
                self.arity
            ))),
        }
    }

    fn slot_offset(&self, slot: usize) -> usize {
        PAGE_HEADER + slot * Self::slot_size(self.arity)
    }

    /// The heap's write latch, exclusive on the meta page's id; serializes
    /// the heap's own append and delete sections.
    fn exclusive_latch(&self) -> ri_pagestore::LatchGuard<'_> {
        self.pool.latches().page_exclusive(self.meta_page)
    }

    /// Appends a row, returning its stable id.
    ///
    /// A row that fits the tail page is one logged write, of that page; only
    /// a row that starts a new page also writes the meta page
    /// (`table::tests::row_writes_that_do_not_grow_the_heap_log_one_heap_record`).
    pub fn insert(&self, row: &[i64]) -> Result<RowId> {
        self.check_arity(row.len())?;
        // Prefetch so the meta read under the latch is a cache hit — the
        // append latch is per-table hot and must not wait on a device
        // read (the pool's miss promotion moves the fetch off the shard
        // lock; this moves it off the latch as well).  Later accesses in
        // the section may still fault: they touch the tail data page,
        // which the next access would need anyway.
        self.pool.prefetch(self.meta_page)?;
        let _latch = self.exclusive_latch();
        let chain @ (_, last) = self.read_meta()?;
        let used = match last.is_invalid() {
            true => self.slots_per_page,
            false => self.pool.with_page(last, |buf| get_u16(buf, OFF_SLOTS) as usize)?,
        };
        if used < self.slots_per_page {
            self.pool.with_page_mut(last, |buf| self.fill(buf, used, row))?;
            return Ok(RowId::new(last, used));
        }
        // No tail, or a full one: the row starts a new page.
        let page = self.pool.allocate_page()?;
        self.pool.with_page_mut(page, |buf| {
            buf[OFF_TAG] = TAG_DATA;
            put_u64(buf, OFF_NEXT, PageId::INVALID.raw());
            self.fill(buf, 0, row)
        })?;
        self.grow(chain, page)?;
        Ok(RowId::new(page, 0))
    }

    /// Writes `row` live into slot `slot` of the data page `buf`, its
    /// first free one, and counts it used.
    fn fill(&self, buf: &mut [u8], slot: usize, row: &[i64]) {
        put_u16(buf, OFF_SLOTS, (slot + 1) as u16);
        let off = self.slot_offset(slot);
        buf[off] = 1; // live
        for (c, v) in row.iter().enumerate() {
            put_i64(buf, off + 1 + c * 8, *v);
        }
    }

    /// The byte offset of `id`'s slot, or `InvalidArgument` when the slot
    /// lies past this heap's page geometry.
    fn checked_slot_offset(&self, id: RowId) -> Result<usize> {
        if id.slot() >= self.slots_per_page {
            return Err(Error::InvalidArgument(format!("row id {} slot out of range", id.0)));
        }
        Ok(self.slot_offset(id.slot()))
    }

    /// `Ok` when `buf` is a data page whose used slots include `id`'s.
    fn check_row(buf: &[u8], id: RowId) -> Result<()> {
        if buf[OFF_TAG] != TAG_DATA {
            return Err(Error::Corrupt(format!("row id {} points at a non-heap page", id.0)));
        }
        if id.slot() >= get_u16(buf, OFF_SLOTS) as usize {
            return Err(Error::InvalidArgument(format!("row id {} slot out of range", id.0)));
        }
        Ok(())
    }

    /// Fetches a live row; `Ok(None)` if the row was deleted.
    pub fn fetch(&self, id: RowId) -> Result<Option<Vec<i64>>> {
        let off = self.checked_slot_offset(id)?;
        self.pool.with_page(id.page(), |buf| {
            Self::check_row(buf, id)?;
            Ok((buf[off] == 1).then(|| self.read_row(buf, id.slot())))
        })?
    }

    /// The columns of the row in `slot` of the data page `buf`.
    fn read_row(&self, buf: &[u8], slot: usize) -> Vec<i64> {
        (0..self.arity).map(|c| get_i64(buf, self.slot_offset(slot) + 1 + c * 8)).collect()
    }

    /// The live slots among the first `used` of the data page `buf`.
    fn live<'a>(&'a self, buf: &'a [u8], used: usize) -> impl Iterator<Item = usize> + 'a {
        (0..used).filter(move |&slot| buf[self.slot_offset(slot)] == 1)
    }

    /// Tombstones a row.  Returns `false` if it was already deleted.
    ///
    /// The latched flip of the live byte is atomic, so racing deletes of
    /// one row resolve to exactly one `true` — [`crate::Table::delete`]
    /// uses this as its claim.  It is one logged write, of the row's page
    /// (`table::tests::row_writes_that_do_not_grow_the_heap_log_one_heap_record`).
    pub fn delete(&self, id: RowId) -> Result<bool> {
        let off = self.checked_slot_offset(id)?;
        // As in `insert`: the first access under the latch must hit.
        self.pool.prefetch(id.page())?;
        let _latch = self.exclusive_latch();
        self.pool.with_page_mut(id.page(), |buf| {
            Self::check_row(buf, id)?;
            Ok(std::mem::replace(&mut buf[off], 0) == 1)
        })?
    }

    /// Full scan of all live rows in insertion order.
    pub fn scan(&self) -> Result<Vec<(RowId, Vec<i64>)>> {
        let mut out = Vec::new();
        self.walk(|page, buf, used| {
            for slot in self.live(buf, used) {
                out.push((RowId::new(page, slot), self.read_row(buf, slot)));
            }
            true
        })?;
        Ok(out)
    }

    /// Walks the page chain in order, handing `visit` each data page and
    /// its used-slot count, until `visit` returns `false` or the chain ends.
    ///
    /// A forged chain ends the walk with `Corrupt`: a page that is not a
    /// data page, a slot count past the page, or more links followed than
    /// the device has pages (a cycle) — the B-link leaf walk's rule.
    fn walk(&self, mut visit: impl FnMut(PageId, &[u8], usize) -> bool) -> Result<()> {
        let mut page = self.read_meta()?.0;
        let (mut followed, mut page_limit) = (0, self.pool.num_pages());
        while !page.is_invalid() {
            followed += 1;
            if followed > page_limit {
                // Pages may have been allocated since the last look.
                page_limit = self.pool.num_pages();
                if followed > page_limit {
                    return Err(Error::Corrupt(format!("heap page chain cycles through {page}")));
                }
            }
            let next = self.pool.with_page(page, |buf| {
                let used = get_u16(buf, OFF_SLOTS) as usize;
                if buf[OFF_TAG] != TAG_DATA || used > self.slots_per_page {
                    return Err(Error::Corrupt(format!("heap page {page} has a forged header")));
                }
                Ok(match visit(page, buf, used) {
                    true => PageId(get_u64(buf, OFF_NEXT)),
                    false => PageId::INVALID,
                })
            })??;
            page = next;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ri_pagestore::{BufferPoolConfig, MemDisk, DEFAULT_PAGE_SIZE};

    fn heap(arity: usize) -> Heap {
        let pool = Arc::new(BufferPool::new(MemDisk::new(256), BufferPoolConfig::with_capacity(8)));
        Heap::create(pool, arity).unwrap()
    }

    #[test]
    fn insert_fetch_roundtrip() {
        let h = heap(3);
        let id = h.insert(&[1, -2, 3]).unwrap();
        assert_eq!(h.fetch(id).unwrap(), Some(vec![1, -2, 3]));
        assert_eq!(h.row_count().unwrap(), 1);
    }

    #[test]
    fn rows_span_many_pages() {
        let h = heap(4);
        let ids: Vec<RowId> =
            (0..500).map(|i| h.insert(&[i, i + 1, i + 2, i + 3]).unwrap()).collect();
        assert_eq!(h.row_count().unwrap(), 500);
        for (i, id) in ids.iter().enumerate() {
            let i = i as i64;
            assert_eq!(h.fetch(*id).unwrap(), Some(vec![i, i + 1, i + 2, i + 3]));
        }
        let scanned = h.scan().unwrap();
        assert_eq!(scanned.len(), 500);
        assert_eq!(scanned.iter().map(|(id, _)| *id).collect::<Vec<_>>(), ids);
    }

    #[test]
    fn delete_tombstones() {
        let h = heap(1);
        let a = h.insert(&[10]).unwrap();
        let b = h.insert(&[20]).unwrap();
        assert!(h.delete(a).unwrap());
        assert!(!h.delete(a).unwrap(), "double delete must report false");
        assert_eq!(h.fetch(a).unwrap(), None);
        assert_eq!(h.fetch(b).unwrap(), Some(vec![20]));
        assert_eq!(h.row_count().unwrap(), 1);
        assert_eq!(h.scan().unwrap().len(), 1);
    }

    /// `row_count` and `is_empty` walk the chain, so they match an oracle
    /// across deletes that empty whole pages — the first one included —
    /// and across re-inserts.
    #[test]
    fn counts_match_an_oracle_across_emptied_pages() {
        use std::collections::HashSet;
        let h = heap(1); // 26 slots a page
        let check = |h: &Heap, live: &HashSet<RowId>| {
            assert_eq!(h.row_count().unwrap(), live.len() as u64);
            assert_eq!(h.is_empty().unwrap(), live.is_empty());
            assert_eq!(h.scan().unwrap().len(), live.len());
        };
        let mut live = HashSet::new();
        assert!(h.is_empty().unwrap());
        let ids: Vec<RowId> = (0..100).map(|i| h.insert(&[i]).unwrap()).collect();
        live.extend(ids.iter().copied());
        check(&h, &live);
        let pages: Vec<PageId> = ids.iter().map(|id| id.page()).collect();
        assert!(pages.windows(2).filter(|w| w[0] != w[1]).count() >= 3, "four pages");
        // Empty the first page, then the third, then every page.
        for page in [pages[0], pages[60]] {
            for id in ids.iter().filter(|id| id.page() == page) {
                assert!(h.delete(*id).unwrap());
                live.remove(id);
                check(&h, &live);
            }
        }
        for id in &ids {
            assert_eq!(h.delete(*id).unwrap(), live.remove(id));
        }
        check(&h, &live);
        for i in 0..30 {
            live.insert(h.insert(&[i]).unwrap());
            check(&h, &live);
        }
    }

    /// Offset 24 of the meta page once held a row count; a value there is
    /// ignored, by a live heap and by a reopened one.
    #[test]
    fn a_garbage_count_word_on_the_meta_page_is_ignored() {
        let pool = Arc::new(BufferPool::new(MemDisk::new(256), BufferPoolConfig::with_capacity(8)));
        let h = Heap::create(Arc::clone(&pool), 2).unwrap();
        let ids: Vec<RowId> = (0..40).map(|i| h.insert(&[i, i]).unwrap()).collect();
        pool.with_page_mut(h.meta_page(), |buf| put_u64(buf, 24, u64::MAX)).unwrap();
        assert!(h.delete(ids[3]).unwrap());
        h.insert(&[7, 7]).unwrap();
        let reopened = Heap::open(Arc::clone(&pool), h.meta_page()).unwrap();
        for heap in [&h, &reopened] {
            assert_eq!(heap.row_count().unwrap(), 40);
            assert!(!heap.is_empty().unwrap());
        }
        ids.iter().for_each(|&id| _ = h.delete(id).unwrap());
        assert_eq!(reopened.row_count().unwrap(), 1);
    }

    #[test]
    fn arity_checked() {
        let h = heap(2);
        assert!(h.insert(&[1]).is_err());
        assert!(h.insert(&[1, 2, 3]).is_err());
    }

    #[test]
    fn reopen_preserves_rows() {
        let pool = Arc::new(BufferPool::new(MemDisk::new(256), BufferPoolConfig::with_capacity(8)));
        let h = Heap::create(Arc::clone(&pool), 2).unwrap();
        let meta = h.meta_page();
        let id = h.insert(&[5, 6]).unwrap();
        drop(h);
        let h2 = Heap::open(pool, meta).unwrap();
        assert_eq!(h2.arity(), 2);
        assert_eq!(h2.fetch(id).unwrap(), Some(vec![5, 6]));
    }

    #[test]
    fn row_ids_past_a_heaps_geometry_are_refused() {
        let pool = Arc::new(BufferPool::new(
            MemDisk::new(DEFAULT_PAGE_SIZE),
            BufferPoolConfig::with_capacity(8),
        ));
        let wide = Heap::create(Arc::clone(&pool), 4).unwrap();
        let narrow = Heap::create(Arc::clone(&pool), 1).unwrap();
        let ids: Vec<RowId> = (0..101).map(|i| narrow.insert(&[i]).unwrap()).collect();
        let foreign = ids[100];
        assert!(foreign.slot() >= wide.slots_per_page);
        assert!(matches!(wide.fetch(foreign), Err(Error::InvalidArgument(_))));
        assert!(matches!(wide.delete(foreign), Err(Error::InvalidArgument(_))));
        assert_eq!(narrow.fetch(foreign).unwrap(), Some(vec![100]), "the refused delete wrote");

        // In the heap's geometry, but past the slots the page has used, or
        // on a page that is not a data page: refused before any write.
        let own = wide.insert(&[1, 2, 3, 4]).unwrap();
        let unused = RowId::new(own.page(), own.slot() + 1);
        assert!(matches!(wide.fetch(unused), Err(Error::InvalidArgument(_))));
        assert!(matches!(wide.delete(unused), Err(Error::InvalidArgument(_))));
        let meta = RowId::new(wide.meta_page(), 0);
        assert!(matches!(wide.delete(meta), Err(Error::Corrupt(_))));
        assert_eq!(wide.row_count().unwrap(), 1);
        assert_eq!(wide.scan().unwrap(), vec![(own, vec![1, 2, 3, 4])]);
    }

    #[test]
    fn scan_ends_on_forged_pages() {
        let pool = Arc::new(BufferPool::new(MemDisk::new(256), BufferPoolConfig::with_capacity(8)));
        let h = Heap::create(Arc::clone(&pool), 1).unwrap();
        let ids: Vec<RowId> = (0..40).map(|i| h.insert(&[i]).unwrap()).collect();
        let (first, second) = (ids[0].page(), ids[39].page());
        assert_ne!(first, second, "the rows fill two data pages");
        assert_eq!(h.scan().unwrap().len(), 40);

        pool.with_page_mut(second, |buf| put_u64(buf, OFF_NEXT, first.raw())).unwrap();
        assert!(matches!(h.scan(), Err(Error::Corrupt(_))), "a next cycle must end the scan");
        pool.with_page_mut(second, |buf| {
            put_u64(buf, OFF_NEXT, PageId::INVALID.raw());
            put_u16(buf, OFF_SLOTS, 0xFFFF);
        })
        .unwrap();
        assert!(matches!(h.scan(), Err(Error::Corrupt(_))), "a slot count past the page");
    }

    /// A 256-byte page has 240 bytes for slots: 29 columns (233-byte
    /// slots) fit one row a page, 30 (241 bytes) none.  A heap no row fits is
    /// refused when it is created, and called corrupt when a meta page
    /// claims it, instead of panicking on its first insert.
    #[test]
    fn a_heap_too_wide_for_its_page_is_refused() {
        let pool = Arc::new(BufferPool::new(MemDisk::new(256), BufferPoolConfig::with_capacity(8)));
        let widest = Heap::create(Arc::clone(&pool), 29).unwrap();
        let row: Vec<i64> = (0..29).collect();
        let ids = [widest.insert(&row).unwrap(), widest.insert(&row).unwrap()];
        assert_ne!(ids[0].page(), ids[1].page(), "one row a page");
        let allocated = pool.num_pages();
        for arity in [30, 40, 64] {
            let refused = Heap::create(Arc::clone(&pool), arity);
            assert!(matches!(refused, Err(Error::InvalidArgument(_))), "arity {arity}");
        }
        assert_eq!(pool.num_pages(), allocated, "a refused create allocates nothing");
        let meta = Heap::create(Arc::clone(&pool), 2).unwrap().meta_page();
        pool.with_page_mut(meta, |buf| put_u32(buf, OFF_ARITY, 30)).unwrap();
        assert!(matches!(Heap::open(Arc::clone(&pool), meta), Err(Error::Corrupt(_))));
    }

    #[test]
    fn open_rejects_wrong_page() {
        let pool = Arc::new(BufferPool::new(MemDisk::new(256), BufferPoolConfig::with_capacity(8)));
        let junk = pool.allocate_page().unwrap();
        assert!(Heap::open(Arc::clone(&pool), junk).is_err());
        // A meta page whose arity lies outside 1..=64 is corrupt.
        let meta = Heap::create(Arc::clone(&pool), 2).unwrap().meta_page();
        for arity in [0, 65, u32::MAX] {
            pool.with_page_mut(meta, |buf| put_u32(buf, OFF_ARITY, arity)).unwrap();
            assert!(matches!(Heap::open(Arc::clone(&pool), meta), Err(Error::Corrupt(_))));
        }
    }
}
