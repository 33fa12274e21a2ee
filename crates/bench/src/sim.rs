//! The one discrete-event queueing core behind the commit-path models
//! (`fig20` group commit, `fig22` commit latency): `T` closed-loop
//! writers think, request durability, and wait on a log device that
//! serves one sync at a time.  Everything is integer nanoseconds with a
//! lowest-writer-index tie-break, so results are byte-stable across runs
//! and machines.
//!
//! Both models price the same traced facts with the same cost model: a
//! real single-writer durable run ([`trace`]) on a [`durable_db`] yields
//! the stream bytes per commit, and a writer's think time between commits
//! is [`Trace::t_op_ns`].

use ri_pagestore::{
    BufferPool, BufferPoolConfig, MemDisk, WalConfig, WalSnapshot, DEFAULT_PAGE_SIZE,
};
use ri_relstore::{Database, IndexDef, TableDef};
use std::collections::VecDeque;
use std::sync::Arc;

/// Committing writer thread counts evaluated.
pub const THREAD_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Simulated fsync latency: one log-page write on the paper-era disk
/// (~10 ms seek + rotation + transfer + settle).
pub const T_SYNC_NS: u64 = 10_000_000;

/// Fixed per-commit CPU floor (buffer-pool bookkeeping, latching, the
/// in-cache page mutation) before the append-derived cost is added.
pub const T_OP_BASE_NS: u64 = 100_000;

/// Per-byte cost of encoding + appending a WAL record to the in-memory
/// tail page.
pub const T_OP_PER_BYTE_NS: u64 = 40;

/// Log page size of a [`durable_db`].
pub const PAGE_BYTES: u64 = DEFAULT_PAGE_SIZE as u64;

/// A fresh WAL-backed database on in-memory devices (paper-sized pool,
/// 2 KB pages) holding one two-column table `T`, which is its index
/// `A (a) → b` — the commit experiments' workbench.
pub fn durable_db(wal_config: WalConfig) -> Database {
    let pool = Arc::new(
        BufferPool::new_durable_with(
            MemDisk::new(DEFAULT_PAGE_SIZE),
            BufferPoolConfig::with_capacity(200),
            MemDisk::new(DEFAULT_PAGE_SIZE),
            wal_config,
        )
        .expect("durable pool"),
    );
    let db = Database::create(pool).expect("create");
    db.create_table(TableDef {
        name: "T".into(),
        columns: vec!["a".into(), "b".into()],
        indexes: vec![IndexDef { name: "A".into(), key_cols: vec![0] }],
    })
    .expect("ddl");
    db
}

/// The WAL counters of a [`durable_db`].
pub fn wal_stats(db: &Database) -> WalSnapshot {
    db.pool().wal().expect("durable pool").stats()
}

/// The single-writer durable workload behind the traces: `commits`
/// transactions of `inserts_per_commit` rows `[id, (id * 37) % 1000]`
/// into a [`durable_db`]'s table, one `commit()` per transaction, all on
/// the calling thread.
pub(crate) fn run_txns(db: &Database, inserts_per_commit: u64, commits: u64) {
    let t = db.table("T").expect("table");
    for c in 0..commits as i64 {
        for k in 0..inserts_per_commit as i64 {
            let id = c * inserts_per_commit as i64 + k;
            t.insert(&[id, (id * 37) % 1000]).expect("insert");
        }
        db.commit().expect("commit");
    }
}

/// The deterministic facts read off one traced single-writer run.
#[derive(Clone, Copy, Debug)]
pub struct Trace {
    /// Committed transactions in the traced run.
    pub commits: u64,
    /// Inserts per transaction.
    pub inserts_per_commit: u64,
    /// Page-update records the run appended.
    pub wal_records: u64,
    /// Stream bytes the run appended (records + commits).
    pub wal_record_bytes: u64,
    /// Log-device syncs — single-threaded this equals `commits`.
    pub syncs: u64,
    /// Physical page writes on the log device.
    pub log_page_writes: u64,
}

impl Trace {
    /// Integer stream bytes per commit (rounded up), the models' input.
    pub fn bytes_per_commit(&self) -> u64 {
        self.wal_record_bytes.div_ceil(self.commits.max(1))
    }

    /// Whole log pages a commit's records fill — the backlog a flusher
    /// can write ahead.  The partial tail page is always paid at commit
    /// (it only fills when the commit record lands).
    pub fn full_pages_per_commit(&self) -> u64 {
        self.bytes_per_commit() / PAGE_BYTES
    }

    /// Simulated nanoseconds a writer computes between its commits.
    pub fn t_op_ns(&self) -> u64 {
        T_OP_BASE_NS + self.bytes_per_commit() * T_OP_PER_BYTE_NS
    }
}

/// Runs `run_txns` on a fresh `FlushPolicy::Off` [`durable_db`] (so
/// its WAL counters are exactly reproducible) and reads the counters.
/// Every commit leads its own sync: there is nobody to follow.
pub fn trace(inserts_per_commit: u64, commits: u64) -> Trace {
    let db = durable_db(WalConfig::default());
    run_txns(&db, inserts_per_commit, commits);
    let stats = wal_stats(&db);
    assert_eq!(stats.commits, commits, "one commit per transaction");
    assert_eq!(stats.commit_syncs, commits, "single-threaded: every commit leads");
    assert_eq!(stats.group_commits, 0, "single-threaded: nobody follows");
    assert_eq!(stats.flusher_writes, 0, "FlushPolicy::Off never flushes in the background");
    Trace {
        commits,
        inserts_per_commit,
        wal_records: stats.records,
        wal_record_bytes: stats.record_bytes,
        syncs: stats.syncs,
        log_page_writes: stats.log_page_writes,
    }
}

/// What the log device does for the commits it is asked to make durable.
#[derive(Clone, Copy, Debug)]
pub struct Policy {
    /// Whole log pages each transaction appends before its commit
    /// request — the backlog a flusher can write ahead.
    pub full_pages: u64,
    /// Nanoseconds to write one backlog page.
    pub t_page_ns: u64,
    /// Nanoseconds every sync costs on top of its covered backlog (the
    /// fsync itself, plus the tail page where the model prices it).
    pub t_fixed_ns: u64,
    /// A background drain writes buffered pages FIFO during device idle
    /// gaps (page-granular; it yields rather than delay a pending sync).
    pub flusher: bool,
    /// A starting sync covers every request issued at or before its
    /// start instant (group commit); otherwise exactly the earliest one.
    pub grouped: bool,
}

/// One simulated policy outcome.
#[derive(Clone, Copy, Debug)]
pub struct SimResult {
    /// Total commits performed (always `threads x commits_per_writer`).
    pub commits: u64,
    /// Log fsyncs issued.
    pub fsyncs: u64,
    /// Sum over commits of (durable instant - commit request instant).
    pub total_latency_ns: u64,
    /// End-to-end simulated nanoseconds.
    pub makespan_ns: u64,
    /// Largest group a single fsync covered.
    pub max_group: u64,
}

impl SimResult {
    /// Fsyncs per committed transaction.
    pub fn fsyncs_per_commit(&self) -> f64 {
        self.fsyncs as f64 / self.commits as f64
    }

    /// Modelled commits per second.
    pub fn commits_per_sec(&self) -> f64 {
        self.commits as f64 * 1e9 / self.makespan_ns as f64
    }

    /// Mean commit latency.
    pub fn mean_latency_ns(&self) -> u64 {
        self.total_latency_ns / self.commits.max(1)
    }
}

/// Simulates `threads` writers each committing `commits_per_writer`
/// transactions, thinking `t_think` ns per transaction.  The device
/// serializes everything: the leader of a sync writes all covered
/// still-unwritten backlog pages, then pays the fixed cost.
pub fn simulate(
    threads: usize,
    commits_per_writer: u64,
    t_think: u64,
    policy: Policy,
) -> SimResult {
    let Policy { full_pages, t_page_ns, t_fixed_ns, flusher, grouped } = policy;
    // Commit-request instant of each writer's current transaction.
    let mut ready: Vec<u64> = vec![t_think; threads];
    let mut remaining: Vec<u64> = vec![commits_per_writer; threads];
    // Whole pages of the current transaction not yet on the device.
    let mut unflushed: Vec<u64> = vec![full_pages; threads];
    // Writers with unflushed pages, FIFO by transaction start (the
    // append order the flusher drains in).  Entries whose pages were
    // consumed by a leader are dropped lazily.
    let mut queue: VecDeque<(u64, usize)> =
        if flusher { (0..threads).map(|i| (0u64, i)).collect() } else { VecDeque::new() };
    let mut device_free = 0u64;
    let mut out =
        SimResult { commits: 0, fsyncs: 0, total_latency_ns: 0, makespan_ns: 0, max_group: 0 };
    while let Some((req, first)) =
        (0..threads).filter(|&i| remaining[i] > 0).map(|i| (ready[i], i)).min()
    {
        let start = device_free.max(req);
        if flusher {
            // Background drain: spend the idle gap [device_free, start)
            // writing available pages, never past the sync start.
            while let Some(&(avail, w)) = queue.front() {
                if unflushed[w] == 0 {
                    queue.pop_front();
                    continue;
                }
                let page_start = device_free.max(avail);
                if page_start + t_page_ns > start {
                    break;
                }
                device_free = page_start + t_page_ns;
                unflushed[w] -= 1;
            }
        }
        let covered: Vec<usize> = if grouped {
            (0..threads).filter(|&i| remaining[i] > 0 && ready[i] <= start).collect()
        } else {
            vec![first]
        };
        let residual: u64 = covered.iter().map(|&i| unflushed[i]).sum();
        let done = start + residual * t_page_ns + t_fixed_ns;
        out.fsyncs += 1;
        out.max_group = out.max_group.max(covered.len() as u64);
        for &i in &covered {
            unflushed[i] = 0;
            out.commits += 1;
            out.total_latency_ns += done - ready[i];
            remaining[i] -= 1;
            if remaining[i] > 0 {
                // The next transaction starts immediately: its appends
                // become flushable at `done`, its commit after `t_think`.
                unflushed[i] = full_pages;
                ready[i] = done + t_think;
                if flusher && full_pages > 0 {
                    queue.push_back((done, i));
                }
            }
        }
        device_free = done;
        out.makespan_ns = done;
    }
    out
}
