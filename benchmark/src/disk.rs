//! The benchmark's devices: where they live, and two wrappers around them.
//!
//! * [`TracedDisk`] counts and times every device call and records it as
//!   a `disk.*` span under whatever layer span is open.  It exists only in
//!   traced runs; end-to-end numbers are taken on the bare device.
//! * [`CutDisk`] is the crash switch of `ingest_recover`: once cut, the
//!   device refuses everything, so dropping the pool (whose destructor
//!   flushes) can no longer change the bytes recovery will read.

use crate::trace;
use ri_tree::pagestore::{DiskManager, Error, FileDisk, MemDisk, PageId, Result};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

/// A device shared between the pool that owns it now and the pool that
/// reopens it after a crash.
pub type Device = Arc<dyn DiskManager>;

/// Where a workload's devices live.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceKind {
    /// `MemDisk`: device work costs a memcpy, so timings are the engine's.
    Mem,
    /// `FileDisk` in the benchmark's scratch directory: the real read and
    /// write path, at the mercy of the host's page cache and fsync.
    File,
}

/// A scratch directory under the benchmark's `out/`, removed on drop, and
/// the in-memory devices handed out beside it.
pub struct Scratch {
    dir: PathBuf,
    /// Every `MemDisk` handed out, for [`Scratch::mem_device_bytes`].
    mem: RefCell<Vec<Weak<MemDisk>>>,
}

impl Scratch {
    pub fn new(out_dir: &Path, label: &str) -> std::io::Result<Scratch> {
        let dir = out_dir.join(format!("tmp-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir, mem: RefCell::default() })
    }

    /// Opens a fresh, empty device called `name`.
    pub fn device(&self, kind: DeviceKind, name: &str, page_size: usize) -> Result<Device> {
        Ok(match kind {
            DeviceKind::Mem => {
                let disk = Arc::new(MemDisk::new(page_size));
                self.mem.borrow_mut().push(Arc::downgrade(&disk));
                disk
            }
            DeviceKind::File => {
                let path = self.dir.join(name);
                // FileDisk::open re-attaches to an existing file; a repeated
                // set-up must start from an empty one.
                match std::fs::remove_file(&path) {
                    Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
                    _ => {}
                }
                Arc::new(FileDisk::open(&path, page_size)?)
            }
        })
    }

    /// Bytes held by the `MemDisk`s still alive.  They stand in for
    /// storage, so `peak_rss_mb` leaves them out.
    pub fn mem_device_bytes(&self) -> u64 {
        let mem = self.mem.borrow();
        let alive = mem.iter().filter_map(Weak::upgrade);
        alive.map(|disk| disk.num_pages() * disk.page_size() as u64).sum()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Totals of one traced device.  Shared, because the pool owns the
/// wrapper; atomic, because the WAL flusher thread writes the log device.
#[derive(Debug, Default)]
pub struct DiskCounters {
    pub reads: AtomicU64,
    pub writes: AtomicU64,
    pub syncs: AtomicU64,
    pub busy_ns: AtomicU64,
}

/// A point-in-time copy of [`DiskCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskSnapshot {
    pub reads: u64,
    pub writes: u64,
    pub syncs: u64,
    pub busy_ns: u64,
}

impl DiskCounters {
    pub fn snapshot(&self) -> DiskSnapshot {
        DiskSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }
}

impl DiskSnapshot {
    pub fn since(&self, earlier: &DiskSnapshot) -> DiskSnapshot {
        DiskSnapshot {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            syncs: self.syncs - earlier.syncs,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }
}

/// Span names of one device role.
#[derive(Clone, Copy, Debug)]
pub struct Role {
    read: &'static str,
    write: &'static str,
    sync: &'static str,
}

/// The data device.
pub const DATA: Role =
    Role { read: "disk.data_read", write: "disk.data_write", sync: "disk.data_sync" };
/// The log device.
pub const LOG: Role =
    Role { read: "disk.log_read", write: "disk.log_write", sync: "disk.log_sync" };

/// Counts, times and traces every call into the wrapped device.
pub struct TracedDisk {
    inner: Device,
    role: Role,
    counters: Arc<DiskCounters>,
}

impl TracedDisk {
    /// Wraps `inner`; the returned counters outlive the pool that takes
    /// the device.
    pub fn wrap(inner: Device, role: Role) -> (Device, Arc<DiskCounters>) {
        let counters = Arc::new(DiskCounters::default());
        (Arc::new(TracedDisk { inner, role, counters: Arc::clone(&counters) }), counters)
    }

    fn timed<T>(&self, name: &'static str, count: &AtomicU64, f: impl FnOnce() -> T) -> T {
        let _span = trace::enter(name);
        let start = Instant::now();
        let out = f();
        self.counters.busy_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        count.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl DiskManager for TracedDisk {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.timed(self.role.read, &self.counters.reads, || self.inner.read_page(id, buf))
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        self.timed(self.role.write, &self.counters.writes, || self.inner.write_page(id, buf))
    }

    fn allocate_page(&self) -> Result<PageId> {
        self.inner.allocate_page()
    }

    fn sync(&self) -> Result<()> {
        self.timed(self.role.sync, &self.counters.syncs, || self.inner.sync())
    }
}

/// A device with a power switch.
pub struct CutDisk {
    inner: Device,
    cut: Arc<AtomicBool>,
}

impl CutDisk {
    /// Wraps `inner`; storing `true` in `cut` takes the device offline.
    pub fn wrap(inner: Device, cut: Arc<AtomicBool>) -> Device {
        Arc::new(CutDisk { inner, cut })
    }

    fn live(&self) -> Result<()> {
        if self.cut.load(Ordering::SeqCst) {
            Err(Error::Crashed)
        } else {
            Ok(())
        }
    }
}

impl DiskManager for CutDisk {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.live()?;
        self.inner.read_page(id, buf)
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        self.live()?;
        self.inner.write_page(id, buf)
    }

    fn allocate_page(&self) -> Result<PageId> {
        self.live()?;
        self.inner.allocate_page()
    }

    fn sync(&self) -> Result<()> {
        self.live()?;
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_disk_counts_and_nests_under_the_open_span() {
        let (disk, counters) = TracedDisk::wrap(Arc::new(MemDisk::new(128)), DATA);
        let page = disk.allocate_page().unwrap();
        trace::install();
        trace::begin_op(0);
        {
            let _exec = trace::enter("relstore.exec");
            disk.write_page(page, &[1; 128]).unwrap();
            disk.read_page(page, &mut [0; 128]).unwrap();
            disk.sync().unwrap();
        }
        trace::end_op();
        let report = trace::finish();
        let snap = counters.snapshot();
        assert_eq!((snap.reads, snap.writes, snap.syncs), (1, 1, 1));
        let names: Vec<_> = report.kept[0].iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("relstore.exec", None),
                ("disk.data_write", Some(0)),
                ("disk.data_read", Some(0)),
                ("disk.data_sync", Some(0)),
            ]
        );
    }

    #[test]
    fn cut_disk_refuses_everything_once_cut() {
        let cut = Arc::new(AtomicBool::new(false));
        let disk = CutDisk::wrap(Arc::new(MemDisk::new(128)), Arc::clone(&cut));
        let page = disk.allocate_page().unwrap();
        disk.write_page(page, &[7; 128]).unwrap();
        cut.store(true, Ordering::SeqCst);
        assert!(matches!(disk.write_page(page, &[8; 128]), Err(Error::Crashed)));
        assert!(matches!(disk.read_page(page, &mut [0; 128]), Err(Error::Crashed)));
        assert!(matches!(disk.sync(), Err(Error::Crashed)));
        assert!(matches!(disk.allocate_page(), Err(Error::Crashed)));
    }
}
