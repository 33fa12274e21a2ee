//! Buffer pool: the "database block cache" of the paper's setup.
//!
//! The paper runs Oracle with its default cache of **200 blocks of 2 KB**
//! (Section 6.1); [`BufferPoolConfig::default`] mirrors that.  Replacement is
//! LRU, writes are cached (write-back on eviction or explicit flush), and
//! every page access is counted in [`IoStats`], which is how the experiments
//! obtain the "physical disk block accesses" series of Figures 13 and 14.
//!
//! # Sharding
//!
//! The pool is **lock-striped**: pages hash to one of `shards` independent
//! shards (a power of two, default **1**), each owning its frames, LRU
//! clock, hash table, and [`IoStats`] counters.  Concurrent accesses to
//! pages in different shards never contend; aggregate counters are read
//! losslessly by summing the per-shard counters (see
//! [`PoolStats`]).
//!
//! With the default `shards = 1` the pool is a *single* LRU over a single
//! lock — bit-for-bit the behavior the paper experiments were calibrated
//! against (one global cache of 200 blocks), which keeps every figure
//! deterministic.  `tests/pool_determinism.rs` pins this.  Larger
//! shard counts trade exact global LRU for concurrency, the same trade
//! made by any production block cache (PostgreSQL buffer mapping
//! partitions, InnoDB buffer pool instances).
//!
//! # Access model
//!
//! Access is closure-based, and no lock is held while a closure runs, so
//! closures may issue nested page accesses (a B+-tree descent reads a
//! parent, then its children, which may live in *any* shard) with no lock
//! ordering issues.
//!
//! A read **shares the frame**: each frame's bytes are an `Arc<[u8]>`, and
//! [`BufferPool::with_page`] clones that `Arc` under the shard lock and runs
//! the caller's closure on it with the lock released — an immutable
//! snapshot that costs a reference count, not a page copy.  The bytes are
//! **copy-on-write**: wherever a frame's bytes change, they change in place
//! only when no snapshot shares them (`Arc::get_mut`), and otherwise the
//! frame gets a fresh buffer while the readers keep the old image.  That
//! happens in three places: the installs of [`BufferPool::with_page_mut`]
//! and [`BufferPool::write_fresh_page`], and a miss's fetch, which reads
//! into its victim's buffer only when that buffer is unique.  A write
//! still works on a private copy, taken from a per-thread stack of scratch
//! buffers (a stack, so nested writes each get their own) and installed
//! when its closure returns.  The whole scheme is
//! safe Rust.  Callers must not access the *same* page from two nested
//! closures when either access is mutable; the B+-tree layer is structured
//! to never do so.
//!
//! # Miss promotion: device reads run outside the shard lock
//!
//! A cache miss is a **three-phase protocol** instead of a fetch under the
//! shard lock:
//!
//! 1. **Reserve** (under the lock): pick a frame — grow, or evict the LRU
//!    among *non-reserved* frames — mark it reserved, move its buffer out,
//!    and register the page in the shard's in-flight miss table.  The
//!    victim is the head of the shard's recency list, in O(1): the list
//!    links every frame no miss holds in `(last_used, frame index)` order,
//!    the order a scan for the least recently used frame would find, ties
//!    to the lower index.  It is built with one sort the first time the
//!    full shard needs a victim and dropped by `clear_cache`, so a pool
//!    that never fills keeps no order on its hits.
//! 2. **Fetch** (no lock held): write the dirty victim back and read the
//!    missing page from the device — or, for a page a bulk build writes
//!    whole ([`BufferPool::write_fresh_page`]), copy in its image, with no
//!    device read.  Hits on other pages of the same shard proceed
//!    concurrently; a hot shard no longer stalls behind one cold fetch.
//! 3. **Publish** (under the lock again): install the buffer, clear the
//!    reservation, remove the in-flight entry, and wake waiters.
//!
//! Every wait on the shard's condition variable goes through one helper
//! that counts the parked threads in the shard state, and a publish or the
//! end of a drain wakes them only when that count is non-zero: a futex
//! wake is a syscall, and single-threaded nobody ever waits.  Waiters
//! register, and notifiers check, under the shard lock, so no wakeup can
//! be lost.  The shard's page tables hash ids with [`crate::IdHash`], one
//! multiply per probe.
//!
//! Concurrent faults on the same page **coalesce single-flight**: the first
//! becomes the fetcher, later ones block on the in-flight entry and are
//! served from the published frame — one device read total, counted in
//! [`IoStats::miss_snapshot`] as coalesced faults.  Reserved frames are
//! never chosen as eviction victims (their buffer is out with the fetcher,
//! and the frame off the recency list until it publishes); a fault that
//! finds every frame reserved waits for a publish.  A dirty
//! eviction victim is tracked in a per-shard `evicting` set until its
//! promoted write-back lands: a fault on such a page waits rather than
//! resurrect the stale disk image (the lost-update race that the
//! fetch-under-the-lock implementation excluded by construction).
//! [`BufferPool::flush_all`] and [`BufferPool::clear_cache`] drain each
//! shard's in-flight reads *and* write-backs before touching its frames.
//!
//! Single-threaded the protocol is observationally a pool that fetches
//! under the lock: one fault performs the same write-back and read, in the
//! same order, against the same LRU state — `tests/pool_determinism.rs`
//! pins this byte-for-byte.
//!
//! # Durability (optional WAL)
//!
//! A pool built with [`BufferPool::new_durable`] carries a [`Wal`] on a
//! second block device.  Every [`BufferPool::with_page_mut`] install logs
//! the byte-range delta of the update (full pre-image on the first
//! modification since a checkpoint) and stamps the frame with the
//! record's end LSN; every device write-back — eviction, flush, clear —
//! first forces the log durable up to that stamp.  This is the classic
//! WAL-before-data invariant: no page image whose update is not durable
//! in the log can reach the data device, so [`BufferPool::recover`]
//! (invoked by `Database::open`) can always rebuild the committed state.
//! Pools built without a WAL perform no log I/O at all and the same data
//! I/O — the golden-pinned figures never pay for durability they don't
//! use.
//!
//! The one exception to logging every install is
//! [`BufferPool::write_fresh_page`], for the pages a bulk build allocates
//! itself: it installs the build's finished page image as the frame's
//! content, with no log record and no device read.  The build makes them
//! durable with [`BufferPool::publish_fresh_pages`] before a logged meta
//! write makes them reachable, so the log carries the build's
//! publication, not its pages.
//!
//! A durable pool built with [`BufferPool::new_durable_with`] and
//! [`FlushPolicy::Background`] additionally owns the WAL's **background
//! flusher thread**: spawned at construction, it drains the append buffer
//! to the log device whenever the buffered backlog crosses the watermark,
//! so commit-time [`Wal::make_durable`] calls usually find their bytes
//! already written and only pay the fsync.  The thread is joined by
//! [`BufferPool::stop_flusher`] (called by `Database::close` and by the
//! pool's `Drop`); it never syncs the device, so the WAL's sync-accounting
//! identities and the WAL-before-data barrier are untouched.

use crate::disk::DiskManager;
use crate::error::{Error, Result};
use crate::latch::LatchManager;
use crate::page::{IdHash, PageId};
use crate::stats::{IoStats, PoolStats};
use crate::wal::{FlushPolicy, RecoveryReport, Wal, WalConfig};
use parking_lot::{Mutex, MutexGuard};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, PoisonError};

/// Sizing knobs for [`BufferPool`].
#[derive(Clone, Copy, Debug)]
pub struct BufferPoolConfig {
    /// Number of page frames the cache holds (summed across all shards).
    pub capacity: usize,
    /// Number of lock-striped shards; must be a power of two and at most
    /// `capacity`.  The default of 1 reproduces the paper's single global
    /// cache exactly.
    pub shards: usize,
}

impl Default for BufferPoolConfig {
    fn default() -> Self {
        // The paper: "The database block cache was set to the default value
        // of 200 database blocks with a block size of 2 KB."
        BufferPoolConfig { capacity: 200, shards: 1 }
    }
}

impl BufferPoolConfig {
    /// A single-shard pool with `capacity` frames — the paper's
    /// deterministic global-LRU cache at a custom size.
    pub fn with_capacity(capacity: usize) -> Self {
        BufferPoolConfig { capacity, shards: 1 }
    }

    /// A lock-striped pool: `capacity` total frames over `shards` shards.
    pub fn sharded(capacity: usize, shards: usize) -> Self {
        BufferPoolConfig { capacity, shards }
    }
}

/// One cached page frame.
struct Frame {
    page: PageId,
    /// The page's bytes, shared with every `with_page` snapshot still
    /// running; copy-on-write (see "Access model" in the module docs).
    data: Arc<[u8]>,
    dirty: bool,
    /// Logical timestamp of the most recent access: the shard's
    /// [`Recency`] list orders frames by `(last_used, frame index)`.
    last_used: u64,
    /// End LSN of this page's latest WAL record; the log must be durable
    /// up to here before the frame may be written back.  0 = no pending
    /// record (clean page, or the pool has no WAL).
    page_lsn: u64,
}

/// No frame: the end of a [`Recency`] list.
const NIL: u32 = u32::MAX;

/// A shard's exact LRU order: a doubly linked list, intrusive over frame
/// indices, of every frame no in-flight miss has reserved, ordered by
/// `(last_used, frame index)` — head first, so the head is the victim a
/// scan for the least recently used frame would pick, ties going to the
/// lower index.  A miss unlinks its victim from the head; a publish links
/// the frame back in at its stamp's place and a hit that raises a stamp
/// moves its frame there, both walking back from the tail (single-threaded
/// the new stamp is the newest, so the walk takes no step).
///
/// The list exists only once the shard has filled: the first miss that
/// finds every frame in use builds it with one sort, and
/// `clear_cache` / `discard_cache` drop it with the frames.  Before that
/// no victim is ever picked, so hits and publishes skip it — a pool that
/// never fills keeps no order at all.
struct Recency {
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
}

impl Recency {
    const EMPTY: Recency = Recency { prev: Vec::new(), next: Vec::new(), head: NIL, tail: NIL };

    fn is_built(&self) -> bool {
        !self.prev.is_empty()
    }

    /// Links every frame not in `reserved` in `(last_used, index)` order.
    fn build(&mut self, frames: &[Frame], reserved: impl Iterator<Item = usize>) {
        let mut linked = vec![true; frames.len()];
        for i in reserved {
            linked[i] = false;
        }
        let mut order: Vec<u32> =
            (0..frames.len() as u32).filter(|&i| linked[i as usize]).collect();
        order.sort_unstable_by_key(|&i| (frames[i as usize].last_used, i));
        *self =
            Recency { prev: vec![NIL; frames.len()], next: vec![NIL; frames.len()], ..Self::EMPTY };
        for i in order {
            self.link_after(self.tail, i);
        }
    }

    /// Unlinks and returns the least recently used frame, if any.
    fn pop_victim(&mut self) -> Option<usize> {
        let victim = self.head;
        if victim == NIL {
            return None;
        }
        self.unlink(victim);
        Some(victim as usize)
    }

    /// Links frame `i` (not in the list) at its `(last_used, index)` place.
    fn place(&mut self, frames: &[Frame], i: usize) {
        if !self.is_built() {
            return;
        }
        let key = |j: u32| (frames[j as usize].last_used, j);
        let (i, k) = (i as u32, key(i as u32));
        let mut after = self.tail;
        while after != NIL && key(after) > k {
            after = self.prev[after as usize];
        }
        self.link_after(after, i);
    }

    /// Moves linked frame `i`, whose `last_used` just rose, to its place.
    fn touch(&mut self, frames: &[Frame], i: usize) {
        if self.is_built() && self.tail != i as u32 {
            self.unlink(i as u32);
            self.place(frames, i);
        }
    }

    /// Links `i` right after `after`, or at the head if `after` is `NIL`.
    fn link_after(&mut self, after: u32, i: u32) {
        let before = if after == NIL { self.head } else { self.next[after as usize] };
        self.prev[i as usize] = after;
        self.next[i as usize] = before;
        match after {
            NIL => self.head = i,
            a => self.next[a as usize] = i,
        }
        match before {
            NIL => self.tail = i,
            b => self.prev[b as usize] = i,
        }
    }

    fn unlink(&mut self, i: u32) {
        let (p, n) = (self.prev[i as usize], self.next[i as usize]);
        match p {
            NIL => self.head = n,
            p => self.next[p as usize] = n,
        }
        match n {
            NIL => self.tail = p,
            n => self.prev[n as usize] = p,
        }
    }
}

struct PoolInner {
    frames: Vec<Frame>,
    /// The frames' LRU order, once the shard has filled.
    recency: Recency,
    /// Maps a cached page id to its frame index.
    table: HashMap<PageId, usize, IdHash>,
    /// Pages whose device read is currently in flight, mapped to their
    /// reserved frame (the single-flight miss table).
    in_flight: HashMap<PageId, usize, IdHash>,
    /// Dirty eviction victims whose write-back is currently in flight.
    /// Such a page is out of the table but its *disk image is stale*; a
    /// fault on it must wait for the write-back to land (or fail back
    /// into the cache) or it would resurrect the pre-update image — the
    /// lost-update race the shard lock used to prevent by construction.
    evicting: HashSet<PageId, IdHash>,
    /// Janitors (flush/clear) currently draining this shard.  While
    /// non-zero, *new* reservations are turned away so the drain cannot
    /// be starved by sustained miss traffic; hits and already-in-flight
    /// fetches proceed untouched.
    draining: u32,
    /// Threads parked on the shard's condition variable (see
    /// [`Shard::wait`]); the notifiers skip the wake while it is zero.
    waiters: u32,
    clock: u64,
}

/// One lock stripe: its own frame set, LRU clock, and I/O counters.
struct Shard {
    inner: Mutex<PoolInner>,
    /// Signalled on every publish / fetch failure and at the end of a
    /// drain, when anyone waits: same-page waiters, frame-starved faults,
    /// and flush/clear drains block here.
    cv: Condvar,
    stats: Arc<IoStats>,
    /// Frames this shard may hold (the pool capacity is split across
    /// shards, remainder to the lowest-numbered ones).
    capacity: usize,
}

impl Shard {
    /// Parks on `cv` until a publish or the end of a drain, counted in
    /// `waiters` for as long as the thread is parked.  Every wait of the
    /// pool goes through here, or [`Shard::wake`] could skip it.
    fn wait<'a>(&self, mut inner: MutexGuard<'a, PoolInner>) -> MutexGuard<'a, PoolInner> {
        inner.waiters += 1;
        let mut inner = self.cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
        inner.waiters -= 1;
        inner
    }

    /// Wakes every parked thread, if there is one; the caller holds the
    /// lock, so no waiter can be between its count and its park.
    fn wake(&self, inner: &PoolInner) {
        if inner.waiters > 0 {
            self.cv.notify_all();
        }
    }
}

thread_local! {
    /// Stack of reusable scratch buffers; a stack (not a single buffer) so
    /// nested `with_page_mut` calls each get their own copy.
    static SCRATCH: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// A `len`-byte buffer whose contents are unspecified: the caller
/// overwrites all of it with the page image, so a recycled buffer keeps
/// its stale bytes and only growth is zero-filled.
fn take_scratch(len: usize) -> Vec<u8> {
    SCRATCH.with(|s| {
        let mut buf = s.borrow_mut().pop().unwrap_or_default();
        buf.resize(len, 0);
        buf
    })
}

fn return_scratch(buf: Vec<u8>) {
    SCRATCH.with(|s| {
        let mut stack = s.borrow_mut();
        if stack.len() < 16 {
            stack.push(buf);
        }
    })
}

/// Writes `image` over a frame's bytes: in place when no `with_page`
/// snapshot shares them, else into a fresh buffer while the snapshots
/// keep the old image (copy-on-write, see "Access model" in the module
/// docs).
fn install(data: &mut Arc<[u8]>, image: &[u8]) {
    match Arc::get_mut(data) {
        Some(bytes) => bytes.copy_from_slice(image),
        None => *data = Arc::from(image),
    }
}

/// Write-back page cache with LRU replacement, lock-striped over `shards`
/// independent shards.
///
/// All structures in this repository (B+-trees, which are the tables, and
/// the catalog)
/// access pages exclusively through this type, so the physical I/O of the
/// RI-tree and of every competing access method is measured under identical
/// caching rules — the methodology of the paper's Section 6.
pub struct BufferPool {
    disk: Box<dyn DiskManager>,
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; shard routing is `page & mask` (power of two).
    mask: u64,
    stats: PoolStats,
    latches: LatchManager,
    page_size: usize,
    capacity: usize,
    /// Write-ahead log on its own device; `None` for volatile pools.
    /// Shared with the background flusher thread when one is running.
    wal: Option<Arc<Wal>>,
    /// Join handle of the background flusher thread, when
    /// [`FlushPolicy::Background`] is active.  Taken (joined) exactly once
    /// by [`BufferPool::stop_flusher`].
    flusher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl BufferPool {
    /// Creates a pool over `disk` with the given configuration.
    ///
    /// # Panics
    ///
    /// If `capacity == 0`, `shards` is not a power of two, or
    /// `shards > capacity` (every shard needs at least one frame).
    pub fn new<D: DiskManager + 'static>(disk: D, config: BufferPoolConfig) -> Self {
        assert!(config.capacity >= 1, "buffer pool needs at least one frame");
        assert!(
            config.shards >= 1 && config.shards.is_power_of_two(),
            "shard count must be a power of two, got {}",
            config.shards
        );
        assert!(
            config.shards <= config.capacity,
            "{} shards need at least {} frames, pool has {}",
            config.shards,
            config.shards,
            config.capacity
        );
        let page_size = disk.page_size();
        let base = config.capacity / config.shards;
        let rem = config.capacity % config.shards;
        let shards: Box<[Shard]> = (0..config.shards)
            .map(|i| {
                let capacity = base + usize::from(i < rem);
                Shard {
                    inner: Mutex::new(PoolInner {
                        frames: Vec::new(),
                        recency: Recency::EMPTY,
                        table: HashMap::with_capacity_and_hasher(capacity, IdHash::default()),
                        in_flight: HashMap::default(),
                        evicting: HashSet::default(),
                        draining: 0,
                        waiters: 0,
                        clock: 0,
                    }),
                    cv: Condvar::new(),
                    stats: IoStats::new_shared(),
                    capacity,
                }
            })
            .collect();
        let stats = PoolStats::new(shards.iter().map(|s| Arc::clone(&s.stats)).collect());
        BufferPool {
            disk: Box::new(disk),
            mask: shards.len() as u64 - 1,
            shards,
            stats,
            latches: LatchManager::default(),
            page_size,
            capacity: config.capacity,
            wal: None,
            flusher: Mutex::new(None),
        }
    }

    /// Creates a pool with the paper's default cache (200 frames, 1 shard).
    pub fn with_defaults<D: DiskManager + 'static>(disk: D) -> Self {
        Self::new(disk, BufferPoolConfig::default())
    }

    /// Creates a **durable** pool: pages on `disk`, write-ahead log on
    /// `wal_disk` (a separate device, so the data file layout is exactly
    /// the volatile pool's).  The log is attached — its anchor validated
    /// and its record stream scanned — but redo is *not* applied yet;
    /// call [`BufferPool::recover`] (done by `Database::open`) before
    /// reading pages from a device that may carry an unrecovered crash.
    pub fn new_durable<D, W>(disk: D, config: BufferPoolConfig, wal_disk: W) -> Result<Self>
    where
        D: DiskManager + 'static,
        W: DiskManager + 'static,
    {
        Self::new_durable_with(disk, config, wal_disk, WalConfig::default())
    }

    /// [`BufferPool::new_durable`] with an explicit [`WalConfig`]: segment
    /// size and [`FlushPolicy`].  With [`FlushPolicy::Background`] the pool
    /// spawns — and owns — the WAL's background flusher thread; call
    /// [`BufferPool::stop_flusher`] (or let `Drop` do it) to join it.  The
    /// default config is behaviorally identical to [`BufferPool::new_durable`].
    pub fn new_durable_with<D, W>(
        disk: D,
        config: BufferPoolConfig,
        wal_disk: W,
        wal_config: WalConfig,
    ) -> Result<Self>
    where
        D: DiskManager + 'static,
        W: DiskManager + 'static,
    {
        if wal_disk.page_size() != disk.page_size() {
            return Err(Error::InvalidArgument(format!(
                "WAL device page size {} != data device page size {}",
                wal_disk.page_size(),
                disk.page_size()
            )));
        }
        let wal = Arc::new(Wal::attach_with(Box::new(wal_disk), wal_config)?);
        let mut pool = Self::new(disk, config);
        if matches!(wal_config.flush_policy, FlushPolicy::Background { .. }) {
            let runner = Arc::clone(&wal);
            let handle = std::thread::Builder::new()
                .name("wal-flusher".into())
                .spawn(move || runner.flusher_run())
                .map_err(Error::Io)?;
            *pool.flusher.lock() = Some(handle);
        }
        pool.wal = Some(wal);
        Ok(pool)
    }

    /// The pool's write-ahead log, if built with [`BufferPool::new_durable`].
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_deref()
    }

    /// Stops and joins the background flusher thread, if one is running.
    ///
    /// Idempotent and cheap when there is nothing to stop.  Buffered log
    /// bytes are *not* lost — they simply go back to being flushed inline
    /// by the next commit or checkpoint, exactly as under
    /// [`FlushPolicy::Off`].
    pub fn stop_flusher(&self) {
        let handle = self.flusher.lock().take();
        if let Some(handle) = handle {
            if let Some(wal) = &self.wal {
                wal.flusher_stop();
            }
            let _ = handle.join();
        }
    }

    /// Replays the log tail found at attach time against the data device:
    /// the page images the attach-time scan folded its records into
    /// (committed updates redone, pages first modified after the last
    /// commit rolled back to their pre-images) are written out in page
    /// order and synced, and the log is checkpointed.  Idempotent — later
    /// calls (and calls on a pool with no WAL or a clean log) return
    /// `Ok(None)`.
    ///
    /// Must run before the pool caches any page of a crashed device; the
    /// pre-recovery cache is discarded here for safety.
    pub fn recover(&self) -> Result<Option<RecoveryReport>> {
        let Some(wal) = &self.wal else {
            return Ok(None);
        };
        let Some((images, report)) = wal.take_redo()? else {
            return Ok(None);
        };
        self.discard_cache();
        for (&page, img) in &images {
            while self.disk.num_pages() <= page {
                self.disk.allocate_page()?;
            }
            self.disk.write_page(PageId(page), img)?;
        }
        self.disk.sync()?;
        // Recovery is single-threaded with nothing in flight, so this
        // checkpoint always observes the quiescent instant and rewinds.
        wal.checkpoint(wal.end_lsn())?;
        Ok(Some(report))
    }

    /// Drops every cached frame *without* write-back: pre-recovery cache
    /// contents are stale by definition.  Only called from
    /// [`BufferPool::recover`], before the pool sees concurrent use.
    fn discard_cache(&self) {
        for shard in &self.shards {
            let mut inner = shard.inner.lock();
            debug_assert!(
                inner.in_flight.is_empty() && inner.evicting.is_empty(),
                "recovery must run before concurrent pool use"
            );
            inner.table.clear();
            inner.frames.clear();
            inner.recency = Recency::EMPTY;
        }
    }

    /// The WAL-before-data barrier: forces the log durable up to `lsn`
    /// before a frame with that stamp may be written back.  No-op for
    /// volatile pools and for frames with no pending record.
    fn wal_barrier(&self, lsn: u64) -> Result<()> {
        match &self.wal {
            Some(wal) if lsn > 0 => wal.make_durable(lsn),
            _ => Ok(()),
        }
    }

    /// The page size of the underlying device.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Total number of frames in the cache (across all shards).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lock-striped shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index page `id` is routed to.
    #[cfg(test)]
    fn shard_of(&self, id: PageId) -> usize {
        (id.raw() & self.mask) as usize
    }

    /// Aggregating handle over this pool's per-shard I/O counters.
    pub fn stats(&self) -> PoolStats {
        self.stats.clone()
    }

    /// The pool's latch manager: logical per-page latches (valid across
    /// evictions) used by the B-link tree's write path (one node latch at
    /// a time) and the catalog's parameter latch.  Latch traffic never
    /// touches pages, so it is invisible to [`BufferPool::stats`].
    pub fn latches(&self) -> &LatchManager {
        &self.latches
    }

    /// Number of pages allocated on the underlying device.
    pub fn num_pages(&self) -> u64 {
        self.disk.num_pages()
    }

    /// Allocates a fresh zeroed page on the device.
    ///
    /// The new page is *not* faulted into the cache.  Its first access
    /// reads it (a physical read, as in a real system where a new block
    /// still passes through the cache), unless that access is
    /// [`BufferPool::write_fresh_page`], which installs its image instead.
    pub fn allocate_page(&self) -> Result<PageId> {
        self.disk.allocate_page()
    }

    #[inline]
    fn shard(&self, id: PageId) -> &Shard {
        &self.shards[(id.raw() & self.mask) as usize]
    }

    /// Runs `f` over an immutable snapshot of page `id`: the frame's bytes,
    /// shared, with no lock held (see "Access model" in the module docs).
    pub fn with_page<T>(&self, id: PageId, f: impl FnOnce(&[u8]) -> T) -> Result<T> {
        let shard = self.shard(id);
        shard.stats.record_logical_read();
        let snapshot = {
            let (inner, idx) = self.acquire_resident(shard, id, None)?;
            Arc::clone(&inner.frames[idx].data)
        };
        Ok(f(&snapshot))
    }

    /// Runs `f` over a mutable copy of page `id`, then installs the modified
    /// copy in the cache and marks the page dirty — logged when the pool
    /// is durable.
    pub fn with_page_mut<T>(&self, id: PageId, f: impl FnOnce(&mut [u8]) -> T) -> Result<T> {
        let shard = self.shard(id);
        shard.stats.record_logical_write();
        let mut buf = take_scratch(self.page_size);
        {
            let (inner, idx) = self.acquire_resident(shard, id, None)?;
            buf.copy_from_slice(&inner.frames[idx].data);
        }
        let result = f(&mut buf);
        {
            // The page may have been evicted by nested accesses inside `f`;
            // fault it back in before installing the modified copy.
            let (mut inner, idx) = self.acquire_resident(shard, id, None)?;
            if let Some(wal) = &self.wal {
                // Log the byte-range delta of this install before the new
                // image becomes visible; the frame's stamp is the record's
                // end LSN.  (The WAL append lock nests under the shard
                // lock; it is a leaf and never waits on pool state.)
                let lsn = wal.log_update(id, &inner.frames[idx].data, &buf)?;
                if lsn > 0 {
                    inner.frames[idx].page_lsn = lsn;
                }
            }
            let fr = &mut inner.frames[idx];
            install(&mut fr.data, &buf);
            fr.dirty = true;
        }
        return_scratch(buf);
        Ok(result)
    }

    /// Installs `image` as the whole content of page `id`, a page a bulk
    /// build allocated itself and nothing can reach yet: no log record,
    /// and no device read — the image is what a miss fills the frame with,
    /// so the page's zeros never leave the device.  It counts a logical
    /// write, no physical read, and marks the frame dirty.  `build_start`
    /// is [`BufferPool::num_pages`] sampled when the build began.
    ///
    /// The write is made durable by [`BufferPool::publish_fresh_pages`],
    /// and the build then makes its pages reachable with an ordinary
    /// logged write of its meta page, inside the caller's transaction.  A
    /// crash before that commit rolls the meta back and leaves the pages
    /// leaked; a crash after it finds them on the synced device.  A later
    /// logged update of such a page logs a `FirstMod` whose pre-image is
    /// the built page.
    ///
    /// Refuses, with `InvalidArgument` and nothing written, a page the
    /// build cannot have allocated: one below `build_start`, or one the
    /// log holds a record of since its truncation horizon.
    ///
    /// # Panics
    ///
    /// If `image` is not exactly one page long.
    pub fn write_fresh_page(&self, build_start: u64, id: PageId, image: &[u8]) -> Result<()> {
        assert_eq!(image.len(), self.page_size, "a fresh page's image is one whole page");
        if id.raw() < build_start {
            return Err(Error::InvalidArgument(format!(
                "unlogged write of page {id}, allocated before the build began at {build_start}"
            )));
        }
        if self.wal.as_ref().is_some_and(|wal| wal.has_record(id)) {
            return Err(Error::InvalidArgument(format!(
                "unlogged write of page {id}, which the log already holds a record of"
            )));
        }
        let shard = self.shard(id);
        shard.stats.record_logical_write();
        let _ = self.acquire_resident(shard, id, Some(image))?;
        Ok(())
    }

    /// Makes every page written by [`BufferPool::write_fresh_page`] so far
    /// durable: [`BufferPool::flush_all`], which syncs, on a durable pool,
    /// and nothing on a volatile one.  A build calls it before the logged
    /// meta write that publishes its pages.
    pub fn publish_fresh_pages(&self) -> Result<()> {
        match self.wal {
            Some(_) => self.flush_all(),
            None => Ok(()),
        }
    }

    /// Faults page `id` into the cache without counting a logical access.
    ///
    /// The latching layers call this immediately before acquiring an
    /// exclusive latch so the access that follows *under* the latch is a
    /// cache hit — no latch is ever held across a device read on the hot
    /// write path.  Counter-wise a prefetch is invisible except for the
    /// physical read it may perform, which the following access would
    /// otherwise have performed itself: single-threaded, `prefetch(id)`
    /// immediately followed by an access of `id` leaves all four I/O
    /// counters and every future LRU victim choice exactly as the access
    /// alone would have (the pair touches one page back-to-back, so the
    /// relative recency order of frames is unchanged).
    pub fn prefetch(&self, id: PageId) -> Result<()> {
        let shard = self.shard(id);
        let _ = self.acquire_resident(shard, id, None)?;
        Ok(())
    }

    /// Writes every dirty cached page back to the device and syncs it.
    ///
    /// Shards are flushed in index order, frames in slot order — a
    /// deterministic write-back order, pinned by the pool goldens.
    /// In-flight misses are drained first: a reserved frame's buffer is
    /// out with its fetcher, so the flush waits for every fetch to publish
    /// (or fail) before walking the shard's frames.
    pub fn flush_all(&self) -> Result<()> {
        for shard in &self.shards {
            let mut inner = shard.inner.lock();
            inner = self.drain_in_flight(shard, inner);
            let walked = self.write_back_dirty_frames(shard, &mut inner);
            self.release_drain(shard, &mut inner);
            walked?;
        }
        self.disk.sync()
    }

    /// Flushes dirty pages, then drops everything from the cache.
    ///
    /// Experiments call this between the load phase and the query phase so
    /// queries start from a cold cache, as after the paper's bulk loads.
    /// Like [`BufferPool::flush_all`], each shard's in-flight misses are
    /// drained before its frames are dropped (frame indices held by a
    /// fetcher must never dangle).
    pub fn clear_cache(&self) -> Result<()> {
        self.flush_all()?;
        let mut late_writes = false;
        for shard in &self.shards {
            let mut inner = shard.inner.lock();
            inner = self.drain_in_flight(shard, inner);
            // Concurrent writers may have dirtied frames after the flush
            // pass above released this shard's lock (and during the drain
            // waits): write those back under *this* guard, or dropping
            // the frames below would silently lose their updates.
            // Single-threaded nothing is dirty here, so the flush order
            // the goldens pin is untouched.
            let walked = self.write_back_dirty_frames(shard, &mut inner);
            if walked.is_ok() {
                inner.table.clear();
                inner.frames.clear();
                inner.recency = Recency::EMPTY;
            }
            self.release_drain(shard, &mut inner);
            late_writes |= walked?;
        }
        if late_writes {
            self.disk.sync()?;
        }
        Ok(())
    }

    /// The deterministic dirty-frame walk shared by [`BufferPool::flush_all`]
    /// and the late-write pass of [`BufferPool::clear_cache`]: frames in
    /// slot order, write-back, count, mark clean.  Caller holds the shard
    /// lock with the shard drained.  Returns whether anything was written.
    fn write_back_dirty_frames(&self, shard: &Shard, inner: &mut PoolInner) -> Result<bool> {
        let mut wrote = false;
        for idx in 0..inner.frames.len() {
            if inner.frames[idx].dirty {
                let page = inner.frames[idx].page;
                self.wal_barrier(inner.frames[idx].page_lsn)?;
                self.disk.write_page(page, &inner.frames[idx].data)?;
                shard.stats.record_physical_write();
                inner.frames[idx].dirty = false;
                wrote = true;
            }
        }
        Ok(wrote)
    }

    /// Blocks until `shard` has no in-flight miss or write-back,
    /// re-acquiring the lock around each wait.  Registers the caller as a
    /// draining janitor first: while any janitor is registered, *new*
    /// reservations are turned away (hits and in-flight fetches proceed),
    /// so sustained miss traffic cannot starve a flush or clear.  The
    /// caller must pair this with [`BufferPool::release_drain`] under the
    /// same guard once its quiesced-shard work is done.
    fn drain_in_flight<'a>(
        &self,
        shard: &'a Shard,
        mut inner: MutexGuard<'a, PoolInner>,
    ) -> MutexGuard<'a, PoolInner> {
        inner.draining += 1;
        while !inner.in_flight.is_empty() || !inner.evicting.is_empty() {
            inner = shard.wait(inner);
        }
        inner
    }

    /// Ends a [`BufferPool::drain_in_flight`] admission hold and wakes the
    /// reservations it turned away.
    fn release_drain(&self, shard: &Shard, inner: &mut PoolInner) {
        inner.draining -= 1;
        if inner.draining == 0 {
            shard.wake(inner);
        }
    }

    /// Makes page `id` resident in `shard` and returns the locked shard
    /// state plus the frame index — the three-phase miss protocol (see the
    /// module docs).
    ///
    /// With an `image` (a whole page, [`BufferPool::write_fresh_page`])
    /// the frame is filled from it and marked dirty: a hit installs it
    /// over the cached bytes, and a miss copies it into the reserved
    /// buffer where the fetch would have read the device — the same
    /// reservation, eviction and write-back, but no read and no
    /// physical read counted.
    ///
    /// Single-threaded (no concurrent fault on this shard) the observable
    /// behavior is that of a fetch under the lock: one LRU
    /// clock tick, the same victim, write-back before read, counters
    /// bumped at the same points, and the same failure states — only the
    /// *lock* is released around the device I/O.
    fn acquire_resident<'a>(
        &self,
        shard: &'a Shard,
        id: PageId,
        image: Option<&[u8]>,
    ) -> Result<(MutexGuard<'a, PoolInner>, usize)> {
        let mut inner = shard.inner.lock();
        inner.clock += 1;
        let now = inner.clock;
        let mut coalesced = false;
        loop {
            if let Some(&idx) = inner.table.get(&id) {
                // Only a newer stamp: a waiter served after blocking
                // carries a `now` from before its sleep, and a stale stamp
                // must not move a hot page backwards in LRU order.
                // Single-threaded `now` is always the newest tick, so this
                // is exactly the seed's `last_used = now`.
                let st = &mut *inner;
                if now > st.frames[idx].last_used {
                    st.frames[idx].last_used = now;
                    st.recency.touch(&st.frames, idx);
                }
                if let Some(image) = image {
                    let fr = &mut st.frames[idx];
                    install(&mut fr.data, image);
                    fr.dirty = true;
                }
                return Ok((inner, idx));
            }
            // Single-flight: another thread is already fetching this page.
            // Block on its in-flight entry instead of issuing a duplicate
            // device read; the published frame serves us on wake-up.
            if inner.in_flight.contains_key(&id) {
                if !coalesced {
                    coalesced = true;
                    shard.stats.record_coalesced_fault();
                }
                inner = shard.wait(inner);
                continue;
            }
            // The page is a dirty eviction victim whose write-back has not
            // landed yet: its disk image is stale.  Wait for the
            // write-back, then fault the fresh image (not a coalesced
            // fault — we will issue our own read).
            if inner.evicting.contains(&id) {
                inner = shard.wait(inner);
                continue;
            }
            // A janitor is draining this shard: hold new reservations back
            // so the drain terminates even under sustained miss traffic.
            if inner.draining > 0 {
                inner = shard.wait(inner);
                continue;
            }
            // Phase 1 — reserve, under the lock: grow up to the shard's
            // capacity, else evict the head of the recency list, the LRU
            // among the frames no in-flight miss holds (built here the
            // first time the shard is full).
            let idx = if inner.frames.len() < shard.capacity {
                inner.frames.push(Frame {
                    page: PageId::INVALID,
                    data: vec![0u8; self.page_size].into(),
                    dirty: false,
                    last_used: 0,
                    page_lsn: 0,
                });
                inner.frames.len() - 1
            } else {
                let st = &mut *inner;
                if !st.recency.is_built() {
                    st.recency.build(&st.frames, st.in_flight.values().copied());
                }
                match st.recency.pop_victim() {
                    Some(i) => i,
                    None => {
                        // Every frame is reserved by an in-flight miss:
                        // wait for a publish to free one, then retry.
                        inner = shard.wait(inner);
                        continue;
                    }
                }
            };
            let old_page = inner.frames[idx].page;
            let old_dirty = inner.frames[idx].dirty;
            let old_lsn = inner.frames[idx].page_lsn;
            if !old_page.is_invalid() {
                inner.table.remove(&old_page);
            }
            if old_dirty {
                // Until the promoted write-back lands, faults on the
                // victim must wait (its disk image is stale).
                inner.evicting.insert(old_page);
            }
            // Move the buffer out to the fetcher; the reservation keeps
            // every other thread away from this frame until publish.
            let mut buf = std::mem::take(&mut inner.frames[idx].data);
            inner.in_flight.insert(id, idx);
            drop(inner);

            // Phase 2 — fetch, with no lock held: hot hits on this shard
            // proceed while the device works.  Write-back first, then the
            // read — the device-op order the pool goldens pin.
            let mut failure: Option<Error> = None;
            let mut wrote_back = false;
            if old_dirty {
                // WAL-before-data: the victim's record must be durable
                // before its image reaches the device (both run lock-free).
                match self.wal_barrier(old_lsn).and_then(|()| self.disk.write_page(old_page, &buf))
                {
                    Ok(()) => {
                        shard.stats.record_physical_write();
                        wrote_back = true;
                    }
                    Err(e) => failure = Some(e),
                }
            }
            let mut read_ok = false;
            if failure.is_none() {
                match image {
                    // A fresh page's image is its content: nothing to read.
                    Some(image) => {
                        install(&mut buf, image);
                        read_ok = true;
                    }
                    // The victim's buffer is read into in place unless a
                    // `with_page` snapshot still shares it; then the read
                    // goes to a fresh buffer and the snapshot keeps its
                    // image.
                    None => match self.disk.read_page(id, Arc::make_mut(&mut buf)) {
                        Ok(()) => read_ok = true,
                        Err(e) => failure = Some(e),
                    },
                }
            }

            // Phase 3 — publish (or roll back), under the lock again.
            let mut inner2 = shard.inner.lock();
            // Re-read the clock for the publish stamp: hits that landed
            // during the fetch carry fresher ticks than our entry-time
            // `now`, and a freshly faulted page must not publish as the
            // shard's LRU minimum.  Single-threaded no tick intervened,
            // so the stamp equals `now` — the value the pool goldens pin.
            let stamp = inner2.clock.max(now);
            {
                let fr = &mut inner2.frames[idx];
                fr.data = buf;
                if read_ok {
                    fr.page = id;
                    fr.dirty = image.is_some();
                    fr.last_used = stamp;
                    fr.page_lsn = 0;
                } else if old_dirty && !wrote_back {
                    // Write-back failure: the victim stays dirty and
                    // cached (restored to the table below), as in the
                    // seed.  Its `page_lsn` stamp is untouched.
                } else {
                    // The read failed with the victim safely on disk
                    // (clean, or its write-back landed): the frame is
                    // uncached.  Clear its identity — if `old_page` is
                    // re-faulted into another frame while this one idles,
                    // a later eviction of this frame must not remove that
                    // live table mapping.
                    fr.dirty = false;
                    fr.page = PageId::INVALID;
                    fr.page_lsn = 0;
                }
            }
            // The frame is evictable again, at its new stamp — or, when
            // the fetch failed, at the stamp it kept.
            let st = &mut *inner2;
            st.recency.place(&st.frames, idx);
            inner2.in_flight.remove(&id);
            if old_dirty {
                // Write-back landed (disk is fresh) or failed (the victim
                // goes back into the cache below): either way the stale
                // window is over.
                inner2.evicting.remove(&old_page);
            }
            if read_ok {
                inner2.table.insert(id, idx);
                if image.is_none() {
                    shard.stats.record_physical_read();
                }
            } else if old_dirty && !wrote_back {
                inner2.table.insert(old_page, idx);
            }
            shard.wake(&inner2);
            return match failure {
                Some(e) => Err(e),
                None => Ok((inner2, idx)),
            };
        }
    }
}

impl Drop for BufferPool {
    fn drop(&mut self) {
        // Best-effort write-back so file-backed databases persist without an
        // explicit flush; errors are ignored as in most destructors.
        let _ = self.flush_all();
        self.stop_flusher();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn small_pool(frames: usize) -> BufferPool {
        BufferPool::new(MemDisk::new(128), BufferPoolConfig::with_capacity(frames))
    }

    fn sharded_pool(frames: usize, shards: usize) -> BufferPool {
        BufferPool::new(MemDisk::new(128), BufferPoolConfig::sharded(frames, shards))
    }

    #[test]
    fn hit_avoids_physical_read() {
        let pool = small_pool(4);
        let p = pool.allocate_page().unwrap();
        pool.with_page(p, |_| {}).unwrap();
        let after_first = pool.stats().snapshot();
        pool.with_page(p, |_| {}).unwrap();
        let after_second = pool.stats().snapshot();
        assert_eq!(after_second.since(&after_first).physical_reads, 0);
        assert_eq!(after_second.since(&after_first).logical_reads, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let pool = small_pool(2);
        let a = pool.allocate_page().unwrap();
        let b = pool.allocate_page().unwrap();
        let c = pool.allocate_page().unwrap();
        pool.with_page(a, |_| {}).unwrap();
        pool.with_page(b, |_| {}).unwrap();
        // Touch `a` so `b` is the LRU victim.
        pool.with_page(a, |_| {}).unwrap();
        pool.with_page(c, |_| {}).unwrap(); // evicts b
        let before = pool.stats().snapshot();
        pool.with_page(a, |_| {}).unwrap(); // still cached
        let mid = pool.stats().snapshot();
        assert_eq!(mid.since(&before).physical_reads, 0);
        pool.with_page(b, |_| {}).unwrap(); // must be re-read
        let after = pool.stats().snapshot();
        assert_eq!(after.since(&mid).physical_reads, 1);
    }

    #[test]
    fn dirty_page_written_back_on_eviction() {
        let pool = small_pool(1);
        let a = pool.allocate_page().unwrap();
        let b = pool.allocate_page().unwrap();
        pool.with_page_mut(a, |data| data[0] = 42).unwrap();
        // Evict `a` by touching `b`; the write-back must hit the disk.
        pool.with_page(b, |_| {}).unwrap();
        assert_eq!(pool.stats().snapshot().physical_writes, 1);
        // Re-read `a`: the modification survived eviction.
        let v = pool.with_page(a, |data| data[0]).unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn writes_are_cached_until_eviction_or_flush() {
        let pool = small_pool(4);
        let a = pool.allocate_page().unwrap();
        pool.with_page_mut(a, |data| data[0] = 1).unwrap();
        pool.with_page_mut(a, |data| data[0] = 2).unwrap();
        assert_eq!(pool.stats().snapshot().physical_writes, 0);
        pool.flush_all().unwrap();
        assert_eq!(pool.stats().snapshot().physical_writes, 1);
        // Flushing twice does not rewrite clean pages.
        pool.flush_all().unwrap();
        assert_eq!(pool.stats().snapshot().physical_writes, 1);
    }

    #[test]
    fn clear_cache_forces_cold_reads() {
        let pool = small_pool(4);
        let a = pool.allocate_page().unwrap();
        pool.with_page(a, |_| {}).unwrap();
        pool.clear_cache().unwrap();
        let before = pool.stats().snapshot();
        pool.with_page(a, |_| {}).unwrap();
        assert_eq!(pool.stats().snapshot().since(&before).physical_reads, 1);
    }

    #[test]
    fn capacity_one_pool_works() {
        let pool = small_pool(1);
        let pages: Vec<_> = (0..8).map(|_| pool.allocate_page().unwrap()).collect();
        for (i, &p) in pages.iter().enumerate() {
            pool.with_page_mut(p, |data| data[0] = i as u8).unwrap();
        }
        for (i, &p) in pages.iter().enumerate() {
            assert_eq!(pool.with_page(p, |d| d[0]).unwrap(), i as u8);
        }
    }

    #[test]
    fn nested_access_to_distinct_pages_is_supported() {
        let pool = small_pool(1); // worst case: inner access evicts outer page
        let a = pool.allocate_page().unwrap();
        let b = pool.allocate_page().unwrap();
        pool.with_page_mut(b, |d| d[0] = 7).unwrap();
        let inner_val = pool
            .with_page_mut(a, |da| {
                da[0] = 1;
                // Nested read evicts `a` from the single-frame pool; the
                // outer modification must still land when the closure ends.
                pool.with_page(b, |db| db[0]).unwrap()
            })
            .unwrap();
        assert_eq!(inner_val, 7);
        assert_eq!(pool.with_page(a, |d| d[0]).unwrap(), 1);
    }

    #[test]
    fn recycled_scratch_never_leaks_another_pages_bytes() {
        // One thread, two pools of different page sizes: the scratch
        // buffer is recycled un-zeroed, shrunk and regrown between them.
        let big = BufferPool::new(MemDisk::new(256), BufferPoolConfig::with_capacity(2));
        let small = small_pool(2);
        let (b, s) = (big.allocate_page().unwrap(), small.allocate_page().unwrap());
        let zeroed = small.allocate_page().unwrap();
        big.with_page_mut(b, |d| d.fill(0xAB)).unwrap();
        small.with_page_mut(s, |d| d.fill(0xCD)).unwrap();
        for _ in 0..3 {
            assert!(big.with_page(b, |d| d.len() == 256 && d.iter().all(|&x| x == 0xAB)).unwrap());
            assert!(small.with_page(s, |d| d.iter().all(|&x| x == 0xCD)).unwrap());
            assert!(small.with_page(zeroed, |d| d.iter().all(|&x| x == 0)).unwrap());
        }
    }

    #[test]
    fn a_snapshot_keeps_its_image_while_the_page_is_rewritten_evicted_and_refetched() {
        use std::sync::Barrier;
        // One frame: every fault on another page evicts `p`.
        let pool = small_pool(1);
        let (p, q) = (pool.allocate_page().unwrap(), pool.allocate_page().unwrap());
        pool.with_page_mut(p, |d| d.fill(0x11)).unwrap();
        let (held, done) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|s| {
            s.spawn(|| {
                pool.with_page(p, |old| {
                    held.wait();
                    done.wait();
                    assert!(old.iter().all(|&x| x == 0x11), "a snapshot changed under its reader");
                })
                .unwrap();
                assert!(pool.with_page(p, |d| d.iter().all(|&x| x == 0x22)).unwrap());
            });
            held.wait();
            // The install finds the frame shared with the snapshot: the
            // frame takes a fresh buffer.
            pool.with_page_mut(p, |d| d.fill(0x22)).unwrap();
            pool.with_page(p, |mine| {
                // The fetch of `q` finds its victim's buffer shared with
                // this snapshot: it reads into a fresh one.  The write-back
                // of `p` goes out from the shared buffer.
                assert!(pool.with_page(q, |d| d.iter().all(|&x| x == 0)).unwrap());
                assert!(mine.iter().all(|&x| x == 0x22));
            })
            .unwrap();
            // Faulted back in, into `q`'s buffer, which nobody shares.
            assert!(pool.with_page(p, |d| d.iter().all(|&x| x == 0x22)).unwrap());
            done.wait();
        });
        let io = pool.stats().snapshot();
        assert_eq!((io.physical_reads, io.physical_writes), (3, 1), "read p, q, p; wrote p");
    }

    #[test]
    fn stats_handle_is_shared() {
        let pool = small_pool(2);
        let stats = pool.stats();
        let p = pool.allocate_page().unwrap();
        pool.with_page(p, |_| {}).unwrap();
        assert_eq!(stats.snapshot().logical_reads, 1);
    }

    #[test]
    fn concurrent_readers_see_consistent_pages() {
        use std::sync::Arc;
        let pool = Arc::new(small_pool(4));
        let pages: Vec<_> = (0..8)
            .map(|i| {
                let p = pool.allocate_page().unwrap();
                pool.with_page_mut(p, |d| d[0] = i as u8).unwrap();
                p
            })
            .collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let pages = pages.clone();
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        for (i, &p) in pages.iter().enumerate() {
                            assert_eq!(pool.with_page(p, |d| d[0]).unwrap(), i as u8);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    // ------------------------------------------------------------------
    // Sharding
    // ------------------------------------------------------------------

    #[test]
    fn default_config_is_one_shard_of_200() {
        let cfg = BufferPoolConfig::default();
        assert_eq!((cfg.capacity, cfg.shards), (200, 1));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_rejected() {
        let _ = sharded_pool(16, 3);
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn more_shards_than_frames_rejected() {
        let _ = sharded_pool(2, 4);
    }

    #[test]
    fn shard_routing_is_total_and_stable() {
        let pool = sharded_pool(16, 4);
        for raw in 0..64u64 {
            let s = pool.shard_of(PageId(raw));
            assert!(s < 4);
            assert_eq!(s, (raw % 4) as usize, "dense page ids round-robin over shards");
        }
    }

    #[test]
    fn capacity_splits_across_shards_without_loss() {
        // 10 frames over 4 shards: 3 + 3 + 2 + 2.
        let pool = sharded_pool(10, 4);
        assert_eq!(pool.capacity(), 10);
        assert_eq!(pool.shards(), 4);
        // Fill every shard past its share; the pool must still serve all
        // pages correctly (evictions happen per shard).
        let pages: Vec<_> = (0..32).map(|_| pool.allocate_page().unwrap()).collect();
        for (i, &p) in pages.iter().enumerate() {
            pool.with_page_mut(p, |d| d[0] = i as u8).unwrap();
        }
        for (i, &p) in pages.iter().enumerate() {
            assert_eq!(pool.with_page(p, |d| d[0]).unwrap(), i as u8);
        }
    }

    #[test]
    fn per_shard_counters_aggregate_losslessly() {
        let pool = sharded_pool(8, 4);
        let pages: Vec<_> = (0..16).map(|_| pool.allocate_page().unwrap()).collect();
        for &p in &pages {
            pool.with_page(p, |_| {}).unwrap();
        }
        let total = pool.stats().snapshot();
        let per_shard = pool.stats().per_shard();
        assert_eq!(per_shard.len(), 4);
        assert_eq!(per_shard.iter().map(|s| s.logical_reads).sum::<u64>(), total.logical_reads);
        assert_eq!(per_shard.iter().map(|s| s.physical_reads).sum::<u64>(), total.physical_reads);
        assert_eq!(total.logical_reads, 16);
        // Dense ids spread evenly: 4 logical reads per shard.
        assert!(per_shard.iter().all(|s| s.logical_reads == 4), "{per_shard:?}");
    }

    // ------------------------------------------------------------------
    // Miss promotion
    // ------------------------------------------------------------------

    #[test]
    fn every_miss_read_is_promoted_outside_the_lock() {
        let pool = small_pool(2);
        let pages: Vec<_> = (0..6).map(|_| pool.allocate_page().unwrap()).collect();
        for &p in &pages {
            pool.with_page(p, |_| {}).unwrap();
        }
        assert_eq!(pool.stats().snapshot().physical_reads, 6);
        let miss = pool.stats().miss_snapshot();
        assert_eq!(miss.coalesced_faults, 0, "single-threaded faults never coalesce");
    }

    #[test]
    fn prefetch_makes_the_next_access_a_hit_and_stays_counter_invisible() {
        // Twin pools, identical op sequence except one prefetches before
        // each access: all four classic counters must match at every step.
        let plain = small_pool(2);
        let hinted = small_pool(2);
        let pp: Vec<_> = (0..5).map(|_| plain.allocate_page().unwrap()).collect();
        let hp: Vec<_> = (0..5).map(|_| hinted.allocate_page().unwrap()).collect();
        let seq = [0usize, 1, 0, 2, 3, 1, 4, 0, 2, 2, 4];
        for &i in &seq {
            plain.with_page(pp[i], |_| {}).unwrap();
            hinted.prefetch(hp[i]).unwrap();
            hinted.with_page(hp[i], |_| {}).unwrap();
            assert_eq!(plain.stats().snapshot(), hinted.stats().snapshot());
        }
        // And a prefetched access really is a hit.
        let before = hinted.stats().snapshot();
        hinted.prefetch(hp[3]).unwrap(); // cold again? no: 3 was evicted above
        let mid = hinted.stats().snapshot();
        hinted.with_page(hp[3], |_| {}).unwrap();
        let after = hinted.stats().snapshot();
        assert_eq!(mid.since(&before).logical_reads, 0, "prefetch counts no logical access");
        assert_eq!(after.since(&mid).physical_reads, 0, "the access after a prefetch is a hit");
    }

    #[test]
    fn failed_read_leaves_pool_usable_and_unreserved() {
        use crate::faulty::{FaultPlan, FaultyDisk};
        let faulty = FaultyDisk::new(
            MemDisk::new(128),
            FaultPlan { fail_read_at: Some(1), ..Default::default() },
        );
        let pool = BufferPool::new(faulty, BufferPoolConfig::with_capacity(1));
        let a = pool.allocate_page().unwrap();
        let b = pool.allocate_page().unwrap();
        pool.with_page(a, |_| {}).unwrap(); // read #0
        assert!(pool.with_page(b, |_| {}).is_err()); // read #1 injected fault
                                                     // The reservation was rolled back: both pages readable again, and
                                                     // flush/clear (which drain in-flight misses) do not hang.
        pool.with_page(b, |_| {}).unwrap();
        pool.with_page(a, |_| {}).unwrap();
        pool.clear_cache().unwrap();
        pool.with_page(a, |_| {}).unwrap();
    }

    #[test]
    fn sharded_pool_preserves_data_across_flush_and_clear() {
        let pool = sharded_pool(8, 4);
        let pages: Vec<_> = (0..24).map(|_| pool.allocate_page().unwrap()).collect();
        for (i, &p) in pages.iter().enumerate() {
            pool.with_page_mut(p, |d| d[0] = i as u8).unwrap();
        }
        pool.clear_cache().unwrap();
        for (i, &p) in pages.iter().enumerate() {
            assert_eq!(pool.with_page(p, |d| d[0]).unwrap(), i as u8);
        }
    }

    /// A durable pool over two `MemDisk`s of 512-byte pages.
    fn durable_pool(frames: usize) -> BufferPool {
        BufferPool::new_durable(
            MemDisk::new(512),
            BufferPoolConfig::with_capacity(frames),
            MemDisk::new(512),
        )
        .unwrap()
    }

    /// A 512-byte page image whose first byte is `first`.
    fn image(first: u8) -> Vec<u8> {
        let mut image = vec![0; 512];
        image[0] = first;
        image
    }

    #[test]
    fn an_unlogged_write_takes_a_fresh_page_and_logs_nothing() {
        let pool = durable_pool(4);
        let start = pool.num_pages();
        let fresh = pool.allocate_page().unwrap();
        let wal = pool.wal().unwrap().stats();
        pool.write_fresh_page(start, fresh, &image(9)).unwrap();
        assert_eq!(pool.wal().unwrap().stats(), wal, "the write appended a log record");
        let written = pool.stats().snapshot().physical_writes;
        pool.publish_fresh_pages().unwrap();
        assert_eq!(pool.stats().snapshot().physical_writes, written + 1);
        assert_eq!(pool.with_page(fresh, |d| d[0]).unwrap(), 9);
        // A later logged update of the page logs its pre-image as usual.
        pool.with_page_mut(fresh, |d| d[1] = 1).unwrap();
        assert_eq!(pool.wal().unwrap().stats().records, wal.records + 1);
    }

    #[test]
    fn an_unlogged_write_refuses_a_page_allocated_before_the_build() {
        let pool = durable_pool(4);
        let old = pool.allocate_page().unwrap();
        let start = pool.num_pages();
        let io = pool.stats().snapshot();
        let err = pool.write_fresh_page(start, old, &image(9)).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)), "{err}");
        assert_eq!(pool.stats().snapshot().logical_writes, io.logical_writes);
        assert_eq!(pool.with_page(old, |d| d[0]).unwrap(), 0, "the refused write landed");
    }

    #[test]
    fn an_unlogged_write_refuses_a_page_the_log_holds_a_record_of() {
        let pool = durable_pool(4);
        let start = pool.num_pages();
        let logged = pool.allocate_page().unwrap();
        pool.with_page_mut(logged, |d| d[0] = 1).unwrap();
        let io = pool.stats().snapshot();
        let err = pool.write_fresh_page(start, logged, &image(9)).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)), "{err}");
        assert_eq!(pool.stats().snapshot().logical_writes, io.logical_writes);
        assert_eq!(pool.with_page(logged, |d| d[0]).unwrap(), 1, "the refused write landed");
    }

    // ------------------------------------------------------------------
    // Victim order: the recency list against the scan it replaced
    // ------------------------------------------------------------------

    use crate::faulty::{FaultPlan, FaultyDisk};

    /// A frame as the model sees it: page (`None` uncached), dirty, stamp.
    type FrameState = (Option<u64>, bool, u64);

    /// The pool run single-threaded, its victim picked by a scan of every
    /// frame for the least `(last_used, index)` — nothing is reserved
    /// between operations.  One tick of a shard's clock per access, and a
    /// failed fetch keeps its frame's old stamp, as in the pool.
    struct VictimModel {
        /// Per shard: frames, capacity, clock.
        shards: Vec<(Vec<FrameState>, usize, u64)>,
        /// Evictions whose write-back failed, and whose read failed.
        failed_evictions: [u64; 2],
    }

    impl VictimModel {
        fn new(capacity: usize, shards: usize) -> Self {
            let share = |i| capacity / shards + usize::from(i < capacity % shards);
            let shards = (0..shards).map(|i| (Vec::new(), share(i), 0)).collect();
            VictimModel { shards, failed_evictions: [0; 2] }
        }

        /// The page the next miss of `page`'s shard would evict, if full.
        fn victim(&self, page: u64) -> Option<u64> {
            let (frames, capacity, _) = &self.shards[(page % self.shards.len() as u64) as usize];
            if frames.len() < *capacity {
                return None;
            }
            frames.iter().min_by_key(|f| f.2).and_then(|f| f.0)
        }

        /// One `acquire_resident`; whether it succeeded.
        fn access(&mut self, page: u64, fresh: bool, bad: (Option<u64>, Option<u64>)) -> bool {
            let shard = (page % self.shards.len() as u64) as usize;
            let (frames, capacity, clock) = &mut self.shards[shard];
            *clock += 1;
            let now = *clock;
            if let Some(f) = frames.iter_mut().find(|f| f.0 == Some(page)) {
                f.2 = now;
                f.1 |= fresh;
                return true;
            }
            let evicts = frames.len() == *capacity;
            let i = if !evicts {
                frames.push((None, false, 0));
                frames.len() - 1
            } else {
                // The oracle: the scan the recency list replaced.
                let scan = frames.iter().enumerate().min_by_key(|(_, f)| f.2);
                scan.map(|(i, _)| i).unwrap()
            };
            let (old_page, old_dirty, _) = frames[i];
            let wrote_back = !old_dirty || bad.1 != old_page;
            let read = wrote_back && (fresh || bad.0 != Some(page));
            if read {
                frames[i] = (Some(page), fresh, now);
            } else if wrote_back {
                frames[i].0 = None;
                frames[i].1 = false;
            }
            if evicts && !read {
                self.failed_evictions[usize::from(wrote_back)] += 1;
            }
            read
        }

        /// `flush_all`: shards in order, frames in slot order, stopping at
        /// the first failed write.
        fn flush(&mut self, bad_write: Option<u64>) -> bool {
            for (frames, _, _) in &mut self.shards {
                for f in frames.iter_mut().filter(|f| f.1) {
                    if f.0 == bad_write {
                        return false;
                    }
                    f.1 = false;
                }
            }
            true
        }
    }

    fn frame_states(pool: &BufferPool) -> Vec<Vec<FrameState>> {
        let state =
            |f: &Frame| (Some(f.page.raw()).filter(|_| !f.page.is_invalid()), f.dirty, f.last_used);
        pool.shards.iter().map(|s| s.inner.lock().frames.iter().map(state).collect()).collect()
    }

    /// A seeded single-threaded mix of every pool operation, failed reads
    /// and failed write-backs included, checked frame by frame against
    /// [`VictimModel`] after each.  Returns the model's failed evictions.
    fn victim_order_run(capacity: usize, shards: usize, seed: u64) -> [u64; 2] {
        let disk = Arc::new(FaultyDisk::new(MemDisk::new(128), FaultPlan::default()));
        let pool = BufferPool::new(Arc::clone(&disk), BufferPoolConfig::sharded(capacity, shards));
        let mut model = VictimModel::new(capacity, shards);
        let pages = 3 * capacity as u64;
        for _ in 0..pages {
            pool.allocate_page().unwrap();
        }
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut rand = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let fresh = vec![7u8; 128];
        for step in 0..1500 {
            // Half the accesses go to a hot third of the pages, so hits
            // reorder resident frames between misses.
            let page = if rand(2) == 0 { rand(capacity as u64) } else { rand(pages) };
            let id = PageId(page);
            let bad_read = (rand(8) == 0).then_some(page);
            let bad_write = match rand(6) {
                0 => model.victim(page),
                1 => Some(rand(pages)),
                _ => None,
            };
            let poison = FaultPlan {
                poison_page_reads: bad_read.map(PageId),
                poison_page_writes: bad_write.map(PageId),
                ..Default::default()
            };
            disk.set_plan(poison);
            let bad = (bad_read, bad_write);
            let (op, got, want) = match rand(16) {
                0..=6 => (
                    "with_page",
                    pool.with_page(id, |d| d[0]).is_ok(),
                    model.access(page, false, bad),
                ),
                7..=9 => {
                    let want = model.access(page, false, bad) && model.access(page, true, bad);
                    ("with_page_mut", pool.with_page_mut(id, |d| d[1] = step as u8).is_ok(), want)
                }
                10 | 11 => ("prefetch", pool.prefetch(id).is_ok(), model.access(page, false, bad)),
                12 | 13 => (
                    "write_fresh_page",
                    pool.write_fresh_page(0, id, &fresh).is_ok(),
                    model.access(page, true, bad),
                ),
                14 => ("flush_all", pool.flush_all().is_ok(), model.flush(bad_write)),
                _ => {
                    let want = model.flush(bad_write);
                    if want {
                        model.shards.iter_mut().for_each(|s| s.0.clear());
                    }
                    ("clear_cache", pool.clear_cache().is_ok(), want)
                }
            };
            disk.set_plan(FaultPlan::default());
            assert_eq!(got, want, "step {step}: {op}({page}) succeeded, seed {seed}");
            let model_frames: Vec<_> = model.shards.iter().map(|s| s.0.clone()).collect();
            assert_eq!(
                frame_states(&pool),
                model_frames,
                "step {step}: after {op}({page}), seed {seed}"
            );
        }
        model.failed_evictions
    }

    /// Runs [`victim_order_run`] on each capacity, four seeds each, and
    /// checks the mix failed evictions both ways.  The runs go on a thread
    /// joined under a deadline: a frame that drops out of the recency list
    /// for good can leave a full shard with no victim, and a miss there
    /// waits for a publish that never comes.
    fn victim_order_runs(capacities: std::ops::RangeInclusive<usize>, shards: usize) {
        let (done, runs) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut failed = [0; 2];
            for capacity in capacities {
                for seed in 0..4 {
                    let run = victim_order_run(capacity, shards, seed);
                    failed = [failed[0] + run[0], failed[1] + run[1]];
                }
            }
            done.send(failed).unwrap();
        });
        let failed = match runs.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(failed) => failed,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("a miss waited 60 s on a single-threaded pool: no frame left to evict")
            }
            Err(e) => panic!("a victim-order run failed: {e}"),
        };
        assert!(
            failed.iter().all(|&n| n >= 100),
            "write-back / read failures on eviction: {failed:?}"
        );
    }

    #[test]
    fn victim_order_is_the_lru_scans_on_one_shard() {
        victim_order_runs(3..=16, 1);
    }

    #[test]
    fn victim_order_is_the_lru_scans_on_four_shards() {
        victim_order_runs(4..=16, 4);
    }

    /// After concurrent faults, hits and writes on a small pool, each
    /// shard's list holds every frame once (nothing is in flight), head to
    /// tail in ascending `(last_used, index)`: publishes and hits whose
    /// stamps are not the newest found their place.
    #[test]
    fn victim_list_holds_every_frame_in_order_after_concurrent_misses() {
        for shards in [1, 2] {
            let pool = sharded_pool(6, shards);
            let pages: Vec<_> = (0..24).map(|_| pool.allocate_page().unwrap()).collect();
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let (pool, pages) = (&pool, &pages);
                    s.spawn(move || {
                        for i in 0..2000u64 {
                            let p = pages[((i * (2 * t + 1) + t) % pages.len() as u64) as usize];
                            if i % 5 == 0 {
                                pool.with_page_mut(p, |d| d[0] = i as u8).unwrap();
                            } else {
                                pool.with_page(p, |d| d[0]).unwrap();
                            }
                        }
                    });
                }
            });
            for shard in pool.shards.iter() {
                let inner = shard.inner.lock();
                let list = &inner.recency;
                let mut order = Vec::new();
                let mut at = list.head;
                while at != NIL {
                    order.push((inner.frames[at as usize].last_used, at));
                    at = list.next[at as usize];
                }
                assert_eq!(order.len(), inner.frames.len(), "shards {shards}: {order:?}");
                assert!(order.windows(2).all(|w| w[0] < w[1]), "shards {shards}: {order:?}");
            }
        }
    }

    #[test]
    fn victim_list_is_kept_only_while_the_shard_is_full() {
        let pool = small_pool(4);
        let built = || pool.shards[0].inner.lock().recency.is_built();
        let pages: Vec<_> = (0..5).map(|_| pool.allocate_page().unwrap()).collect();
        for _ in 0..3 {
            for &p in &pages[..4] {
                pool.with_page(p, |_| {}).unwrap();
            }
        }
        assert!(!built(), "a pool that has not filled keeps no recency order");
        pool.with_page(pages[4], |_| {}).unwrap();
        assert!(built(), "the first eviction builds the list");
        pool.clear_cache().unwrap();
        assert!(!built(), "clear_cache drops the list with the frames");
    }
}
