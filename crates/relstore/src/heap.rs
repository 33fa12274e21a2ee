//! Heap file: fixed-width row storage with stable row ids.
//!
//! Rows are arrays of `i64` column values.  Pages are chained for full
//! scans; deletes tombstone their slot (space is reclaimed only when a whole
//! page empties — the usual trade-off in slotted storage, irrelevant to the
//! paper's insert/query workloads).
//!
//! Appends and deletes are read-modify-write transactions on the heap's
//! meta page (tail pointer, row count); they run under an exclusive latch
//! on that page from the pool's [`ri_pagestore::LatchManager`], so any
//! number of threads may insert into one table concurrently.  The latch
//! hold is a handful of page accesses — the expensive part of a row
//! insert, the secondary-index maintenance, happens outside it in
//! [`crate::Table::insert`].  Reads (`fetch`, `scan`) take no latch: a
//! read shares the frame's immutable `Arc<[u8]>`, cloned under the shard
//! lock and read with no lock held, and a write installs a new buffer
//! instead of changing one a reader holds.

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
const OFF_COUNT: usize = 24;

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

struct HeapMeta {
    first: PageId,
    last: PageId,
    count: u64,
}

impl Heap {
    fn slot_size(arity: usize) -> usize {
        arity * 8 + 1 // columns + live flag
    }

    fn slots_per_page(page_size: usize, arity: usize) -> usize {
        ((page_size - PAGE_HEADER) / Self::slot_size(arity)).min(1 << SLOT_BITS)
    }

    /// Creates an empty heap for rows of `arity` columns.
    pub fn create(pool: Arc<BufferPool>, arity: usize) -> Result<Heap> {
        if arity == 0 || arity > 64 {
            return Err(Error::InvalidArgument(format!("heap arity {arity} out of range")));
        }
        let meta_page = pool.allocate_page()?;
        pool.with_page_mut(meta_page, |buf| {
            put_u32(buf, OFF_MAGIC, HEAP_MAGIC);
            put_u32(buf, OFF_ARITY, arity as u32);
            put_u64(buf, OFF_FIRST, PageId::INVALID.raw());
            put_u64(buf, OFF_LAST, PageId::INVALID.raw());
            put_u64(buf, OFF_COUNT, 0);
        })?;
        let slots = Self::slots_per_page(pool.page_size(), arity);
        Ok(Heap { pool, meta_page, arity, slots_per_page: slots })
    }

    /// Re-opens a heap from its meta page.
    pub fn open(pool: Arc<BufferPool>, meta_page: PageId) -> Result<Heap> {
        let arity = pool.with_page(meta_page, |buf| {
            if get_u32(buf, OFF_MAGIC) != HEAP_MAGIC {
                return Err(Error::Corrupt(format!("page {meta_page} is not a heap meta page")));
            }
            Ok(get_u32(buf, OFF_ARITY) as usize)
        })??;
        let slots = Self::slots_per_page(pool.page_size(), arity);
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

    /// Number of live rows.
    pub fn row_count(&self) -> Result<u64> {
        Ok(self.read_meta()?.count)
    }

    fn read_meta(&self) -> Result<HeapMeta> {
        self.pool.with_page(self.meta_page, |buf| HeapMeta {
            first: PageId(get_u64(buf, OFF_FIRST)),
            last: PageId(get_u64(buf, OFF_LAST)),
            count: get_u64(buf, OFF_COUNT),
        })
    }

    fn write_meta(&self, meta: &HeapMeta) -> Result<()> {
        self.pool.with_page_mut(self.meta_page, |buf| {
            put_u64(buf, OFF_FIRST, meta.first.raw());
            put_u64(buf, OFF_LAST, meta.last.raw());
            put_u64(buf, OFF_COUNT, meta.count);
        })
    }

    fn slot_offset(&self, slot: usize) -> usize {
        PAGE_HEADER + slot * Self::slot_size(self.arity)
    }

    /// Exclusive latch on this heap's meta page; serializes the heap's own
    /// append/delete read-modify-write sections.
    fn exclusive_latch(&self) -> ri_pagestore::LatchGuard<'_> {
        self.pool.latches().page_exclusive(self.meta_page)
    }

    /// Appends a row, returning its stable id.
    pub fn insert(&self, row: &[i64]) -> Result<RowId> {
        if row.len() != self.arity {
            return Err(Error::InvalidArgument(format!(
                "row has {} columns, heap expects {}",
                row.len(),
                self.arity
            )));
        }
        // Prefetch so the meta read under the latch is a cache hit — the
        // append latch is per-table hot and must not wait on a device
        // read (the pool's miss promotion moves the fetch off the shard
        // lock; this moves it off the latch as well).  Later accesses in
        // the section may still fault: they touch the tail data page,
        // which the next access would need anyway.
        self.pool.prefetch(self.meta_page)?;
        let _latch = self.exclusive_latch();
        let mut meta = self.read_meta()?;
        // Find the insertion page: the chain tail, or a fresh page.
        let (page, slot) = if meta.last.is_invalid() {
            let page = self.pool.allocate_page()?;
            self.init_data_page(page)?;
            meta.first = page;
            meta.last = page;
            (page, 0)
        } else {
            let used = self.pool.with_page(meta.last, |buf| get_u16(buf, OFF_SLOTS) as usize)?;
            if used < self.slots_per_page {
                (meta.last, used)
            } else {
                let page = self.pool.allocate_page()?;
                self.init_data_page(page)?;
                self.pool.with_page_mut(meta.last, |buf| put_u64(buf, OFF_NEXT, page.raw()))?;
                meta.last = page;
                (page, 0)
            }
        };
        let off = self.slot_offset(slot);
        self.pool.with_page_mut(page, |buf| {
            put_u16(buf, OFF_SLOTS, slot as u16 + 1);
            buf[off] = 1; // live
            for (c, v) in row.iter().enumerate() {
                put_i64(buf, off + 1 + c * 8, *v);
            }
        })?;
        meta.count += 1;
        self.write_meta(&meta)?;
        Ok(RowId::new(page, slot))
    }

    fn init_data_page(&self, page: PageId) -> Result<()> {
        self.pool.with_page_mut(page, |buf| {
            buf[OFF_TAG] = TAG_DATA;
            put_u16(buf, OFF_SLOTS, 0);
            put_u64(buf, OFF_NEXT, PageId::INVALID.raw());
        })
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
            if buf[off] == 0 {
                return Ok(None);
            }
            let mut row = Vec::with_capacity(self.arity);
            for c in 0..self.arity {
                row.push(get_i64(buf, off + 1 + c * 8));
            }
            Ok(Some(row))
        })?
    }

    /// Tombstones a row.  Returns `false` if it was already deleted.
    ///
    /// The latched flip of the live byte is atomic, so racing deletes of
    /// one row resolve to exactly one `true` — [`crate::Table::delete`]
    /// uses this as its claim.
    pub fn delete(&self, id: RowId) -> Result<bool> {
        let off = self.checked_slot_offset(id)?;
        // As in `insert`: the first access under the latch must hit.
        self.pool.prefetch(id.page())?;
        let _latch = self.exclusive_latch();
        let was_live = self.pool.with_page_mut(id.page(), |buf| -> Result<bool> {
            Self::check_row(buf, id)?;
            let live = buf[off] == 1;
            buf[off] = 0;
            Ok(live)
        })??;
        if was_live {
            let mut meta = self.read_meta()?;
            meta.count -= 1;
            self.write_meta(&meta)?;
        }
        Ok(was_live)
    }

    /// Full scan of all live rows in insertion order.
    ///
    /// A forged chain ends the scan with `Corrupt`: a page that is not a
    /// data page, a slot count past the page, or more links followed than
    /// the device has pages (a cycle) — the B-link leaf walk's rule.
    pub fn scan(&self) -> Result<Vec<(RowId, Vec<i64>)>> {
        let meta = self.read_meta()?;
        let mut out = Vec::with_capacity(meta.count as usize);
        let mut page = meta.first;
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
                for slot in 0..used {
                    let off = self.slot_offset(slot);
                    if buf[off] == 1 {
                        let mut row = Vec::with_capacity(self.arity);
                        for c in 0..self.arity {
                            row.push(get_i64(buf, off + 1 + c * 8));
                        }
                        out.push((RowId::new(page, slot), row));
                    }
                }
                Ok(PageId(get_u64(buf, OFF_NEXT)))
            })??;
            page = next;
        }
        Ok(out)
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

    #[test]
    fn open_rejects_wrong_page() {
        let pool = Arc::new(BufferPool::new(MemDisk::new(256), BufferPoolConfig::with_capacity(8)));
        let junk = pool.allocate_page().unwrap();
        assert!(Heap::open(pool, junk).is_err());
    }
}
