//! The one discrete-event queueing core behind the commit-path models
//! (`fig20` group commit, `fig22` commit latency): `T` closed-loop
//! writers think, request durability, and wait on a log device that
//! serves one sync at a time.  Everything is integer nanoseconds with a
//! lowest-writer-index tie-break, so results are byte-stable across runs
//! and machines.

use std::collections::VecDeque;

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
