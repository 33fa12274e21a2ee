//! Fault-injecting disk wrapper for failure testing.
//!
//! Wraps any [`DiskManager`] and fails selected operations according to a
//! [`FaultPlan`].  The integration tests use this to verify that I/O errors
//! propagate cleanly through the B+-tree and relational layers (no panics,
//! no partially-applied page writes observed after the failure is lifted).
//!
//! Beyond failures, the wrapper injects **latency and ordering**: a
//! [`ReadHook`] runs before every device read that is about to execute,
//! and may block (a slow disk), rendezvous with other readers (proving
//! reads overlap), or record ordering.  `tests/miss_promotion.rs` uses
//! hooks to prove the buffer pool's promoted miss path really performs
//! device reads concurrently and coalesces same-page faults single-flight.
//!
//! # Crash simulation
//!
//! For durability testing the wrapper also models **power loss**.  Arming a
//! [`CrashPlan`] on the shared [`FaultClock`] switches the disk into
//! *volatile-cache* mode: writes are buffered in an overlay (visible to
//! subsequent reads, like an on-device write cache) and only reach the
//! underlying disk on [`DiskManager::sync`].  When the globally-counted
//! write index hits `crash_at_write`, the machine "dies":
//!
//! * unsynced overlay writes survive only if their per-write coin
//!   (seeded by `persist_seed`) came up heads — a disk may or may not have
//!   gotten around to destaging them;
//! * the dying write itself persists at most a **torn prefix** of
//!   `torn_sectors × sector_bytes` bytes (partial-sector write);
//! * every later operation fails with [`Error::Crashed`] until the caller
//!   "reboots" by reopening the inner device.
//!
//! Several devices (e.g. the data disk and the WAL disk) can share one
//! `FaultClock`, so a single global write index enumerates every crash
//! point of a workload across all devices — the basis of the crash
//! harness in `tests/common/crash.rs` (its two-device rig, oracle and
//! write/sync sweeps), which the durability suites run through.  That
//! enumeration is *thread-blind by design*: the WAL's background flusher
//! thread and the segment-rollover path (header + anchor writes) issue
//! ordinary device writes on the same clock, so sweeping `crash_at_write`
//! over a workload automatically lands kills **inside flusher drains and
//! mid-rollover** — no separate flusher-aware plumbing is needed, the
//! flusher-enabled sweeps in `tests/crash_recovery.rs` just run a
//! `FlushPolicy::Background` pool against the same advancing clock.
//!
//! Page allocation is modelled as immediately durable (it only extends the
//! device; a crash can at worst leak zeroed pages, never tear data).

use crate::disk::DiskManager;
use crate::error::{Error, Result};
use crate::page::PageId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Hook invoked as `(page, read_index)` immediately before a device read
/// executes (after fault-plan checks, so injected failures skip it).
/// Blocking inside the hook delays exactly that read; no internal lock is
/// held while it runs, so hooks may rendezvous across threads.
pub type ReadHook = Arc<dyn Fn(PageId, u64) + Send + Sync>;

/// The write-side twin of [`ReadHook`]: `(page, write_index)` before each
/// executing device write.  Parking a write-back here holds open the
/// window in which an evicted dirty page's disk image is stale — the
/// window the pool's `evicting` table must cover.
pub type WriteHook = Arc<dyn Fn(PageId, u64) + Send + Sync>;

/// Sync-side hook: invoked with the 0-based sync index before each
/// executing [`DiskManager::sync`].  Blocking here holds a group-commit
/// window open, which is how `tests/group_commit.rs` forces concurrent
/// committers to pile onto one fsync.
pub type SyncHook = Arc<dyn Fn(u64) + Send + Sync>;

/// Declarative schedule of which operations should fail.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Fail the n-th read (0-based, counted across all pages) if set.
    pub fail_read_at: Option<u64>,
    /// Fail the n-th write (0-based) if set.
    pub fail_write_at: Option<u64>,
    /// Fail the n-th sync (0-based) if set.
    pub fail_sync_at: Option<u64>,
    /// Fail every read of this specific page.
    pub poison_page_reads: Option<PageId>,
    /// Fail every write of this specific page.
    pub poison_page_writes: Option<PageId>,
}

/// When and how the simulated machine dies.  Armed via
/// [`FaultClock::arm_crash`]; indices count on the owning clock, across
/// every device sharing it.
#[derive(Debug, Clone)]
pub struct CrashPlan {
    /// Die when the global write index reaches this value.  `None` leaves
    /// the clock armed (writes buffer volatile) until [`FaultClock::crash_now`].
    pub crash_at_write: Option<u64>,
    /// Die when the global sync index reaches this value — the power cut
    /// lands on a barrier instead of a write (e.g. inside a checkpoint's
    /// flush-then-anchor window).  The dying sync destages nothing: only
    /// coin-surviving buffered writes persist, exactly as for a crash
    /// between syncs.
    pub crash_at_sync: Option<u64>,
    /// How many leading sectors of the dying write persist (torn write).
    /// `0` means the dying write leaves no trace at all.
    pub torn_sectors: usize,
    /// Sector granularity of torn writes, in bytes.
    pub sector_bytes: usize,
    /// Seed of the per-write coin deciding which *unsynced* buffered
    /// writes happen to have been destaged before the power cut.
    pub persist_seed: u64,
}

impl Default for CrashPlan {
    fn default() -> Self {
        CrashPlan {
            crash_at_write: None,
            crash_at_sync: None,
            torn_sectors: 0,
            sector_bytes: 512,
            persist_seed: 0,
        }
    }
}

/// Deterministic coin: does unsynced write `n` survive the crash?
fn persist_coin(seed: u64, n: u64) -> bool {
    // splitmix64 finalizer over (seed, n).
    let mut z = seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z ^ (z >> 31);
    z & 1 == 0
}

struct ClockState {
    reads: u64,
    writes: u64,
    syncs: u64,
    crash: Option<CrashPlan>,
    crashed: bool,
}

/// Shared operation counter + crash schedule.  One clock may be shared by
/// several [`FaultyDisk`]s so crash points are enumerated over a single
/// global write sequence.
pub struct FaultClock {
    state: Mutex<ClockState>,
}

/// What a counted write should do, as decided by the clock.
enum WriteVerdict {
    /// No crash plan armed: write through to the inner device.
    PassThrough,
    /// Crash plan armed, not the crash point: buffer in the overlay.
    Buffer { survives: bool },
    /// This write IS the crash point: persist survivors + torn prefix, die.
    CrashNow { torn_sectors: usize, sector_bytes: usize },
    /// The machine already died.
    Dead,
}

impl FaultClock {
    /// A fresh clock with no crash scheduled.
    pub fn new() -> Arc<Self> {
        Arc::new(FaultClock {
            state: Mutex::new(ClockState {
                reads: 0,
                writes: 0,
                syncs: 0,
                crash: None,
                crashed: false,
            }),
        })
    }

    /// Arms (or replaces) the crash schedule.  From now on, writes on
    /// every device sharing this clock are volatile until synced.
    pub fn arm_crash(&self, plan: CrashPlan) {
        let mut s = self.state.lock();
        s.crash = Some(plan);
    }

    /// Cuts the power right now, regardless of `crash_at_write`.
    /// Devices sharing the clock settle their overlays on their next
    /// operation or via [`FaultyDisk::settle_crash`].
    pub fn crash_now(&self) {
        self.state.lock().crashed = true;
    }

    /// Has the simulated machine died?
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Global writes attempted so far across all sharing devices.
    pub fn writes(&self) -> u64 {
        self.state.lock().writes
    }

    /// Global syncs attempted so far across all sharing devices.
    pub fn syncs(&self) -> u64 {
        self.state.lock().syncs
    }

    fn on_read(&self) -> (u64, bool) {
        let mut s = self.state.lock();
        let n = s.reads;
        s.reads += 1;
        (n, s.crashed)
    }

    fn on_write(&self) -> (u64, WriteVerdict) {
        let mut s = self.state.lock();
        let n = s.writes;
        s.writes += 1;
        if s.crashed {
            return (n, WriteVerdict::Dead);
        }
        match &s.crash {
            None => (n, WriteVerdict::PassThrough),
            Some(p) => {
                if p.crash_at_write == Some(n) {
                    let v = WriteVerdict::CrashNow {
                        torn_sectors: p.torn_sectors,
                        sector_bytes: p.sector_bytes,
                    };
                    s.crashed = true;
                    (n, v)
                } else {
                    (n, WriteVerdict::Buffer { survives: persist_coin(p.persist_seed, n) })
                }
            }
        }
    }

    /// Returns `(sync_index, armed, crashed)` — marking the clock dead
    /// first when this sync is the scheduled crash point.
    fn on_sync(&self) -> (u64, bool, bool) {
        let mut s = self.state.lock();
        let n = s.syncs;
        s.syncs += 1;
        if !s.crashed {
            if let Some(p) = &s.crash {
                if p.crash_at_sync == Some(n) {
                    s.crashed = true;
                }
            }
        }
        (n, s.crash.is_some(), s.crashed)
    }

    fn armed(&self) -> bool {
        self.state.lock().crash.is_some()
    }
}

struct OverlayWrite {
    page: PageId,
    data: Box<[u8]>,
    survives: bool,
}

#[derive(Default)]
struct Overlay {
    /// Buffered writes in device order.
    writes: Vec<OverlayWrite>,
    /// Latest overlay entry per page, for read-your-writes.
    latest: HashMap<PageId, usize>,
}

/// A [`DiskManager`] decorator that injects failures per a [`FaultPlan`]
/// and simulates crashes per the shared [`FaultClock`]'s [`CrashPlan`].
pub struct FaultyDisk<D: DiskManager> {
    inner: D,
    plan: Mutex<FaultPlan>,
    clock: Arc<FaultClock>,
    overlay: Mutex<Overlay>,
    read_hook: Mutex<Option<ReadHook>>,
    write_hook: Mutex<Option<WriteHook>>,
    sync_hook: Mutex<Option<SyncHook>>,
}

impl<D: DiskManager> FaultyDisk<D> {
    /// Wraps `inner` with the given fault schedule and a private clock.
    pub fn new(inner: D, plan: FaultPlan) -> Self {
        Self::with_clock(inner, plan, FaultClock::new())
    }

    /// Wraps `inner` sharing an existing clock, so several devices count
    /// (and crash) on one global operation sequence.
    pub fn with_clock(inner: D, plan: FaultPlan, clock: Arc<FaultClock>) -> Self {
        FaultyDisk {
            inner,
            plan: Mutex::new(plan),
            clock,
            overlay: Mutex::new(Overlay::default()),
            read_hook: Mutex::new(None),
            write_hook: Mutex::new(None),
            sync_hook: Mutex::new(None),
        }
    }

    /// The clock this device counts on.
    pub fn clock(&self) -> &Arc<FaultClock> {
        &self.clock
    }

    /// Replaces the fault schedule (e.g. to lift all faults).
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.plan.lock() = plan;
    }

    /// Installs (or clears) the per-read latency/ordering hook.
    pub fn set_read_hook(&self, hook: Option<ReadHook>) {
        *self.read_hook.lock() = hook;
    }

    /// Installs (or clears) the per-write latency/ordering hook.
    pub fn set_write_hook(&self, hook: Option<WriteHook>) {
        *self.write_hook.lock() = hook;
    }

    /// Installs (or clears) the per-sync hook.
    pub fn set_sync_hook(&self, hook: Option<SyncHook>) {
        *self.sync_hook.lock() = hook;
    }

    /// Total reads attempted so far (including failed ones).
    pub fn reads_attempted(&self) -> u64 {
        self.clock.state.lock().reads
    }

    /// Total writes attempted so far (including failed ones).
    pub fn writes_attempted(&self) -> u64 {
        self.clock.state.lock().writes
    }

    /// Total syncs attempted so far (including failed ones).
    pub fn syncs_attempted(&self) -> u64 {
        self.clock.state.lock().syncs
    }

    /// After a crash, flushes the coin-surviving buffered writes down to
    /// the inner device and discards the rest.  Idempotent; also invoked
    /// implicitly by the first post-crash operation, so dropping a pool
    /// whose destructor attempts a flush settles the device too.
    pub fn settle_crash(&self) {
        if self.clock.crashed() {
            let mut ov = self.overlay.lock();
            self.apply_overlay(&mut ov, /*survivors_only=*/ true);
        }
    }

    /// Applies buffered writes to the inner device in order and clears the
    /// overlay.  `survivors_only` models a power cut; otherwise a sync.
    fn apply_overlay(&self, ov: &mut Overlay, survivors_only: bool) {
        for w in ov.writes.drain(..) {
            if survivors_only && !w.survives {
                continue;
            }
            // Infallible by construction: the page was validated when the
            // buffered write was accepted.
            let _ = self.inner.write_page(w.page, &w.data);
        }
        ov.latest.clear();
    }

    /// Settles then reports death: shared post-crash exit path.
    fn die<T>(&self) -> Result<T> {
        let mut ov = self.overlay.lock();
        self.apply_overlay(&mut ov, true);
        Err(Error::Crashed)
    }
}

impl<D: DiskManager> DiskManager for FaultyDisk<D> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        let (n, crashed) = self.clock.on_read();
        if crashed {
            return self.die();
        }
        let plan = self.plan.lock();
        if plan.fail_read_at == Some(n) || plan.poison_page_reads == Some(id) {
            return Err(Error::InjectedFault { op: "read", page: id.raw() });
        }
        drop(plan);
        // Clone the hook out so a blocking hook never holds our lock.
        let hook = self.read_hook.lock().clone();
        if let Some(hook) = hook {
            hook(id, n);
        }
        // Read-your-writes against the volatile overlay.
        if self.clock.armed() {
            let ov = self.overlay.lock();
            if let Some(&idx) = ov.latest.get(&id) {
                let data = &ov.writes[idx].data;
                if data.len() != buf.len() {
                    return Err(Error::InvalidArgument(format!(
                        "read buffer is {} bytes, page is {}",
                        buf.len(),
                        data.len()
                    )));
                }
                buf.copy_from_slice(data);
                return Ok(());
            }
        }
        self.inner.read_page(id, buf)
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        let (n, verdict) = self.clock.on_write();
        if matches!(verdict, WriteVerdict::Dead) {
            return self.die();
        }
        let plan = self.plan.lock();
        if plan.fail_write_at == Some(n) || plan.poison_page_writes == Some(id) {
            return Err(Error::InjectedFault { op: "write", page: id.raw() });
        }
        drop(plan);
        let hook = self.write_hook.lock().clone();
        if let Some(hook) = hook {
            hook(id, n);
        }
        match verdict {
            WriteVerdict::Dead => unreachable!("handled above"),
            WriteVerdict::PassThrough => self.inner.write_page(id, buf),
            WriteVerdict::Buffer { survives } => {
                // Validate bounds now so buffered writes can't fail later.
                if id.raw() >= self.inner.num_pages() {
                    return Err(Error::PageOutOfBounds {
                        page: id.raw(),
                        num_pages: self.inner.num_pages(),
                    });
                }
                if buf.len() != self.inner.page_size() {
                    return Err(Error::InvalidArgument(format!(
                        "write buffer is {} bytes, page is {}",
                        buf.len(),
                        self.inner.page_size()
                    )));
                }
                let mut ov = self.overlay.lock();
                let idx = ov.writes.len();
                ov.writes.push(OverlayWrite { page: id, data: buf.into(), survives });
                ov.latest.insert(id, idx);
                Ok(())
            }
            WriteVerdict::CrashNow { torn_sectors, sector_bytes } => {
                let mut ov = self.overlay.lock();
                // Destage the coin-surviving cached writes first, then the
                // torn prefix of the dying write on top of whatever the
                // page's durable image now is.
                self.apply_overlay(&mut ov, true);
                let torn = (torn_sectors * sector_bytes).min(buf.len());
                if torn > 0 && id.raw() < self.inner.num_pages() {
                    let mut cur = vec![0u8; self.inner.page_size()];
                    if self.inner.read_page(id, &mut cur).is_ok() && torn <= cur.len() {
                        cur[..torn].copy_from_slice(&buf[..torn]);
                        let _ = self.inner.write_page(id, &cur);
                    }
                }
                Err(Error::Crashed)
            }
        }
    }

    fn allocate_page(&self) -> Result<PageId> {
        // Allocation is modelled durable-immediate (see module docs).
        if self.clock.crashed() {
            return self.die();
        }
        self.inner.allocate_page()
    }

    fn sync(&self) -> Result<()> {
        let (n, armed, crashed) = self.clock.on_sync();
        if crashed {
            return self.die();
        }
        let plan = self.plan.lock();
        if plan.fail_sync_at == Some(n) {
            return Err(Error::InjectedFault { op: "sync", page: u64::MAX });
        }
        drop(plan);
        let hook = self.sync_hook.lock().clone();
        if let Some(hook) = hook {
            hook(n);
        }
        // A hook may have been used to park this sync while the crash
        // fired on another thread; re-check before destaging everything.
        if self.clock.crashed() {
            return self.die();
        }
        if armed {
            let mut ov = self.overlay.lock();
            self.apply_overlay(&mut ov, false);
        }
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{BufferPool, BufferPoolConfig};
    use crate::disk::MemDisk;

    #[test]
    fn scheduled_read_fault_fires_once() {
        let disk = MemDisk::new(128);
        let faulty =
            FaultyDisk::new(disk, FaultPlan { fail_read_at: Some(1), ..Default::default() });
        let pool = BufferPool::new(faulty, BufferPoolConfig::with_capacity(1));
        let a = pool.allocate_page().unwrap();
        let b = pool.allocate_page().unwrap();
        pool.with_page(a, |_| {}).unwrap(); // read #0 ok
        let err = pool.with_page(b, |_| {}).unwrap_err(); // read #1 fails
        assert!(matches!(err, Error::InjectedFault { op: "read", .. }));
        // Read #2 succeeds again; pool is still usable.
        pool.with_page(b, |_| {}).unwrap();
    }

    #[test]
    fn read_hook_observes_each_executing_read() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let faulty = FaultyDisk::new(
            MemDisk::new(128),
            FaultPlan { fail_read_at: Some(1), ..Default::default() },
        );
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        faulty.set_read_hook(Some(Arc::new(move |_page, _n| {
            seen2.fetch_add(1, Ordering::SeqCst);
        })));
        let pool = BufferPool::new(faulty, BufferPoolConfig::with_capacity(1));
        let a = pool.allocate_page().unwrap();
        let b = pool.allocate_page().unwrap();
        pool.with_page(a, |_| {}).unwrap(); // read #0: hook fires
        let _ = pool.with_page(b, |_| {}); // read #1 injected: hook skipped
        pool.with_page(b, |_| {}).unwrap(); // read #2: hook fires
        assert_eq!(seen.load(Ordering::SeqCst), 2, "hook runs only for executing reads");
    }

    #[test]
    fn poisoned_page_write_blocks_eviction() {
        let faulty = Arc::new(FaultyDisk::new(MemDisk::new(128), FaultPlan::default()));
        let pool = BufferPool::new(Arc::clone(&faulty), BufferPoolConfig::with_capacity(1));
        let a = pool.allocate_page().unwrap();
        let b = pool.allocate_page().unwrap();
        pool.with_page_mut(a, |d| d[0] = 1).unwrap();
        // Flushing works while no fault is scheduled.
        pool.flush_all().unwrap();
        // Poison writes of `a`: evicting it dirty must fail loudly, not
        // silently.
        pool.with_page_mut(a, |d| d[0] = 2).unwrap();
        faulty.set_plan(FaultPlan { poison_page_writes: Some(a), ..Default::default() });
        let err = pool.with_page(b, |_| {}).unwrap_err();
        assert!(matches!(err, Error::InjectedFault { op: "write", .. }), "{err}");
        // Lift the poison: the dirty page writes back.
        faulty.set_plan(FaultPlan::default());
        pool.flush_all().unwrap();
    }

    #[test]
    fn armed_clock_buffers_writes_until_sync() {
        let mem = Arc::new(MemDisk::new(128));
        let faulty = FaultyDisk::new(Arc::clone(&mem), FaultPlan::default());
        faulty.clock().arm_crash(CrashPlan::default());
        let p = faulty.allocate_page().unwrap();
        faulty.write_page(p, &[7u8; 128]).unwrap();
        // The inner device still sees zeros; the wrapper sees the write.
        let mut raw = [0u8; 128];
        mem.read_page(p, &mut raw).unwrap();
        assert_eq!(raw, [0u8; 128], "unsynced write must not reach the device");
        let mut via = [0u8; 128];
        faulty.read_page(p, &mut via).unwrap();
        assert_eq!(via, [7u8; 128], "read-your-writes through the overlay");
        faulty.sync().unwrap();
        mem.read_page(p, &mut raw).unwrap();
        assert_eq!(raw, [7u8; 128], "sync destages the overlay");
    }

    #[test]
    fn crash_point_drops_unsynced_and_tears_the_dying_write() {
        let mem = Arc::new(MemDisk::new(128));
        let faulty = FaultyDisk::new(Arc::clone(&mem), FaultPlan::default());
        let a = faulty.allocate_page().unwrap();
        let b = faulty.allocate_page().unwrap();
        faulty.write_page(a, &[1u8; 128]).unwrap();
        faulty.sync().unwrap(); // durable
        faulty.clock().arm_crash(CrashPlan {
            crash_at_write: Some(2), // writes #1 (buffered) then #2 (dies)
            torn_sectors: 1,
            sector_bytes: 32,
            persist_seed: 42,
            // write #1's coin decides whether it survives; either way the
            // recovered state must be one of the two legal outcomes.
            ..Default::default()
        });
        faulty.write_page(b, &[2u8; 128]).unwrap(); // write #1: volatile
        let err = faulty.write_page(a, &[3u8; 128]).unwrap_err(); // write #2: boom
        assert!(matches!(err, Error::Crashed));
        // Post-crash: every op fails.
        assert!(matches!(faulty.sync().unwrap_err(), Error::Crashed));
        let mut buf = [0u8; 128];
        assert!(matches!(faulty.read_page(a, &mut buf).unwrap_err(), Error::Crashed));
        // The dying write left exactly a 32-byte torn prefix over the old
        // durable image of `a`.
        mem.read_page(a, &mut buf).unwrap();
        assert_eq!(&buf[..32], &[3u8; 32][..]);
        assert_eq!(&buf[32..], &[1u8; 96][..]);
        // Write #1 either fully survived or fully vanished — never tore.
        mem.read_page(b, &mut buf).unwrap();
        assert!(buf == [2u8; 128] || buf == [0u8; 128]);
    }

    #[test]
    fn crash_at_sync_dies_before_destaging() {
        let mem = Arc::new(MemDisk::new(128));
        let faulty = FaultyDisk::new(Arc::clone(&mem), FaultPlan::default());
        let p = faulty.allocate_page().unwrap();
        faulty.clock().arm_crash(CrashPlan {
            crash_at_sync: Some(0),
            persist_seed: 7,
            ..Default::default()
        });
        faulty.write_page(p, &[9u8; 128]).unwrap(); // write #0: volatile
        let err = faulty.sync().unwrap_err(); // sync #0: power cut on the barrier
        assert!(matches!(err, Error::Crashed));
        // The barrier never completed: the buffered write either
        // coin-survived in full or vanished — it was not destaged by the
        // dying sync.
        let mut raw = [0u8; 128];
        mem.read_page(p, &mut raw).unwrap();
        assert!(raw == [9u8; 128] || raw == [0u8; 128]);
        assert!(matches!(faulty.sync().unwrap_err(), Error::Crashed));
    }

    #[test]
    fn shared_clock_counts_writes_across_devices() {
        let clock = FaultClock::new();
        let d1 = FaultyDisk::with_clock(MemDisk::new(64), FaultPlan::default(), Arc::clone(&clock));
        let d2 = FaultyDisk::with_clock(MemDisk::new(64), FaultPlan::default(), Arc::clone(&clock));
        let p1 = d1.allocate_page().unwrap();
        let p2 = d2.allocate_page().unwrap();
        d1.write_page(p1, &[0u8; 64]).unwrap();
        d2.write_page(p2, &[0u8; 64]).unwrap();
        d1.write_page(p1, &[1u8; 64]).unwrap();
        assert_eq!(clock.writes(), 3, "one global write index across devices");
        clock.crash_now();
        assert!(matches!(d1.write_page(p1, &[2u8; 64]).unwrap_err(), Error::Crashed));
        assert!(matches!(d2.sync().unwrap_err(), Error::Crashed));
    }

    #[test]
    fn scheduled_sync_fault_fires() {
        let faulty = FaultyDisk::new(
            MemDisk::new(64),
            FaultPlan { fail_sync_at: Some(0), ..Default::default() },
        );
        let err = faulty.sync().unwrap_err();
        assert!(matches!(err, Error::InjectedFault { op: "sync", .. }));
        faulty.sync().unwrap(); // one-shot
        assert_eq!(faulty.syncs_attempted(), 2);
    }
}
