//! Block devices: the trait plus in-memory and file-backed implementations.

use crate::error::{Error, Result};
use crate::page::PageId;
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// A device of fixed-size blocks addressed by dense [`PageId`]s.
///
/// Implementations must be internally synchronized: the buffer pool runs
/// its fetches and write-backs with no lock held (see "Miss promotion" in
/// the [`crate::buffer`] docs), so concurrent faults call one device from
/// several threads at once.
pub trait DiskManager: Send + Sync {
    /// Size in bytes of every block on this device.
    fn page_size(&self) -> usize;

    /// Number of allocated pages; valid ids are `0..num_pages()`.
    fn num_pages(&self) -> u64;

    /// Reads page `id` into `buf` (`buf.len() == page_size()`).
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()>;

    /// Writes `buf` to page `id` (`buf.len() == page_size()`).
    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()>;

    /// Appends a zeroed page and returns its id.
    fn allocate_page(&self) -> Result<PageId>;

    /// Durably flushes device buffers (no-op for the in-memory disk).
    fn sync(&self) -> Result<()>;
}

/// Shared handles forward: a pool can own `Arc<D>` while the test (or
/// operator tooling) keeps a second handle to adjust fault plans, read
/// hooks, or counters on the live device — `tests/miss_promotion.rs`
/// drives the promoted miss path this way.
impl<D: DiskManager + ?Sized> DiskManager for std::sync::Arc<D> {
    fn page_size(&self) -> usize {
        (**self).page_size()
    }

    fn num_pages(&self) -> u64 {
        (**self).num_pages()
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        (**self).read_page(id, buf)
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        (**self).write_page(id, buf)
    }

    fn allocate_page(&self) -> Result<PageId> {
        (**self).allocate_page()
    }

    fn sync(&self) -> Result<()> {
        (**self).sync()
    }
}

/// Pages per [`MemDisk`] extent.
const EXTENT_PAGES: usize = 512;

/// Volatile block device backed by fixed-size extents of 512 pages each.
///
/// This is what the experiments run on: physical I/O is counted by the
/// buffer pool, while the device itself is deliberately simple and fast so
/// figure regeneration stays laptop-scale.  Extents rather than one
/// allocation per page: a device of a few hundred thousand pages would
/// otherwise spend an allocator header and a vector slot on each.
pub struct MemDisk {
    page_size: usize,
    inner: Mutex<MemDiskInner>,
}

#[derive(Default)]
struct MemDiskInner {
    /// Zero-initialised blocks of `EXTENT_PAGES * page_size` bytes; page
    /// `p` lives in extent `p / EXTENT_PAGES`.
    extents: Vec<Box<[u8]>>,
    num_pages: u64,
}

impl MemDiskInner {
    /// Where page `id` lives: its extent and byte range within it.
    fn locate(&self, id: PageId, page_size: usize) -> Result<(usize, std::ops::Range<usize>)> {
        if id.raw() >= self.num_pages {
            return Err(Error::PageOutOfBounds { page: id.raw(), num_pages: self.num_pages });
        }
        let idx = id.raw() as usize;
        let start = idx % EXTENT_PAGES * page_size;
        Ok((idx / EXTENT_PAGES, start..start + page_size))
    }
}

impl MemDisk {
    /// Creates an empty in-memory device with the given page size.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size >= 64, "page size too small to be useful");
        MemDisk { page_size, inner: Mutex::new(MemDiskInner::default()) }
    }
}

impl DiskManager for MemDisk {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u64 {
        self.inner.lock().num_pages
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), self.page_size);
        let inner = self.inner.lock();
        let (extent, range) = inner.locate(id, self.page_size)?;
        buf.copy_from_slice(&inner.extents[extent][range]);
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), self.page_size);
        let mut inner = self.inner.lock();
        let (extent, range) = inner.locate(id, self.page_size)?;
        inner.extents[extent][range].copy_from_slice(buf);
        Ok(())
    }

    fn allocate_page(&self) -> Result<PageId> {
        let mut inner = self.inner.lock();
        let id = inner.num_pages;
        if id as usize % EXTENT_PAGES == 0 {
            inner.extents.push(vec![0u8; EXTENT_PAGES * self.page_size].into_boxed_slice());
        }
        inner.num_pages += 1;
        Ok(PageId(id))
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

/// Persistent block device backed by a single file.
///
/// Used by the persistence integration tests to show that an RI-tree
/// database survives a close/reopen cycle, as any relational database
/// would, and by the repo benchmark's `read_cold` workload as the data
/// device behind the paper's 200-frame pool.  Page I/O is positional — one
/// `pread` / `pwrite` per page at `id * page_size` — and takes no lock, so
/// concurrent faults reach the file in parallel; only appends serialise.
pub struct FileDisk {
    page_size: usize,
    file: File,
    /// Pages the file holds.  `allocate_page` stores it (`Release`) only
    /// after the new page's zeroes are written, and every reader loads it
    /// (`Acquire`), so no page is addressable before its bytes are on the
    /// file.
    num_pages: AtomicU64,
    /// Serialises appends: two allocations must not claim the same id.
    append: Mutex<()>,
}

impl FileDisk {
    /// Opens (or creates) the file at `path` as a block device.
    ///
    /// An existing file must contain a whole number of pages of the given
    /// size, otherwise [`Error::Corrupt`] is returned.
    pub fn open(path: &Path, page_size: usize) -> Result<Self> {
        assert!(page_size >= 64, "page size too small to be useful");
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let len = file.metadata()?.len();
        if len % page_size as u64 != 0 {
            return Err(Error::Corrupt(format!(
                "file length {len} is not a multiple of page size {page_size}"
            )));
        }
        Ok(FileDisk {
            page_size,
            file,
            num_pages: AtomicU64::new(len / page_size as u64),
            append: Mutex::new(()),
        })
    }

    /// The byte offset of page `id`, or `PageOutOfBounds` past the end.
    fn offset(&self, id: PageId) -> Result<u64> {
        let num_pages = self.num_pages.load(Ordering::Acquire);
        if id.raw() >= num_pages {
            return Err(Error::PageOutOfBounds { page: id.raw(), num_pages });
        }
        Ok(id.raw() * self.page_size as u64)
    }
}

impl DiskManager for FileDisk {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u64 {
        self.num_pages.load(Ordering::Acquire)
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), self.page_size);
        self.file.read_exact_at(buf, self.offset(id)?)?;
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), self.page_size);
        self.file.write_all_at(buf, self.offset(id)?)?;
        Ok(())
    }

    fn allocate_page(&self) -> Result<PageId> {
        let _append = self.append.lock();
        let id = self.num_pages.load(Ordering::Relaxed);
        self.file.write_all_at(&vec![0u8; self.page_size], id * self.page_size as u64)?;
        self.num_pages.store(id + 1, Ordering::Release);
        Ok(PageId(id))
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(disk: &dyn DiskManager) {
        let a = disk.allocate_page().unwrap();
        let b = disk.allocate_page().unwrap();
        assert_ne!(a, b);
        let ps = disk.page_size();
        let mut buf = vec![7u8; ps];
        disk.write_page(b, &buf).unwrap();
        buf.fill(0);
        disk.read_page(b, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 7));
        // Page `a` stays zeroed.
        disk.read_page(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0));
    }

    #[test]
    fn mem_disk_roundtrip() {
        let disk = MemDisk::new(256);
        roundtrip(&disk);
        assert_eq!(disk.num_pages(), 2);
    }

    /// A fresh (empty) device refuses every page, and one page past the
    /// end once it has some.
    fn out_of_bounds(disk: &dyn DiskManager) {
        let mut buf = vec![0u8; disk.page_size()];
        assert!(matches!(disk.read_page(PageId(0), &mut buf), Err(Error::PageOutOfBounds { .. })));
        assert!(matches!(disk.write_page(PageId(5), &buf), Err(Error::PageOutOfBounds { .. })));
        disk.allocate_page().unwrap();
        disk.read_page(PageId(0), &mut buf).unwrap();
        assert!(matches!(
            disk.write_page(PageId(1), &buf),
            Err(Error::PageOutOfBounds { page: 1, num_pages: 1 })
        ));
    }

    /// A fresh file under the temp directory, unique to this process.
    fn temp_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ri-pagestore-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("disk.db");
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn mem_disk_out_of_bounds() {
        out_of_bounds(&MemDisk::new(128));
    }

    #[test]
    fn file_disk_out_of_bounds() {
        let path = temp_file("oob");
        out_of_bounds(&FileDisk::open(&path, 128).unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_disk_positional_io_from_two_threads() {
        // Two threads read and write disjoint pages of one file at once;
        // with positional I/O neither can move the other's file offset.
        const PAGES: u64 = 64;
        let path = temp_file("pio");
        let disk = FileDisk::open(&path, 128).unwrap();
        for _ in 0..2 * PAGES {
            disk.allocate_page().unwrap();
        }
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let disk = &disk;
                s.spawn(move || {
                    let mut buf = vec![0u8; 128];
                    for round in 1..=8u8 {
                        for p in (t..2 * PAGES).step_by(2) {
                            disk.write_page(PageId(p), &[round ^ p as u8; 128]).unwrap();
                            disk.read_page(PageId(p), &mut buf).unwrap();
                            assert!(buf.iter().all(|&x| x == round ^ p as u8), "page {p}");
                        }
                    }
                });
            }
        });
        let mut buf = vec![0u8; 128];
        for p in 0..2 * PAGES {
            disk.read_page(PageId(p), &mut buf).unwrap();
            assert!(buf.iter().all(|&x| x == 8 ^ p as u8), "page {p} lost its last write");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mem_disk_pages_keep_their_bytes_across_an_extent_boundary() {
        let disk = MemDisk::new(64);
        let n = EXTENT_PAGES as u64 + 2;
        for p in 0..n {
            assert_eq!(disk.allocate_page().unwrap(), PageId(p));
        }
        assert_eq!(disk.num_pages(), n);
        // The last two pages of extent 0 and the first two of extent 1,
        // written out of order.
        let boundary = EXTENT_PAGES as u64;
        let around = [boundary, boundary - 2, boundary + 1, boundary - 1];
        for p in around {
            disk.write_page(PageId(p), &[p as u8; 64]).unwrap();
        }
        let mut buf = vec![0u8; 64];
        for p in around {
            disk.read_page(PageId(p), &mut buf).unwrap();
            assert!(buf.iter().all(|&x| x == p as u8), "page {p} lost its bytes");
        }
        disk.read_page(PageId(boundary - 3), &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0), "an unwritten neighbour stays zeroed");
        // The extent's unallocated remainder is not addressable.
        assert!(matches!(
            disk.read_page(PageId(n), &mut buf),
            Err(Error::PageOutOfBounds { page, num_pages }) if page == n && num_pages == n
        ));
    }

    #[test]
    fn file_disk_roundtrip_and_reopen() {
        let path = temp_file("test");
        {
            let disk = FileDisk::open(&path, 256).unwrap();
            roundtrip(&disk);
            disk.sync().unwrap();
        }
        // Reopen: data persisted.
        let disk = FileDisk::open(&path, 256).unwrap();
        assert_eq!(disk.num_pages(), 2);
        let mut buf = vec![0u8; 256];
        disk.read_page(PageId(1), &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 7));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_disk_rejects_torn_file() {
        let dir = std::env::temp_dir().join(format!("ri-pagestore-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.db");
        std::fs::write(&path, vec![0u8; 300]).unwrap();
        assert!(matches!(FileDisk::open(&path, 256), Err(Error::Corrupt(_))));
        std::fs::remove_file(&path).unwrap();
    }
}
