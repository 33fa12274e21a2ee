//! The commit-latency experiment (ours, not the paper's): mean commit
//! latency versus committing writer threads, inline first-flush against
//! the background WAL flusher — the price of paying the log backlog
//! write inside the commit critical path.
//!
//! # Methodology
//!
//! Like `fig20`, the experiment prices concurrency *deterministically*.
//! Two real single-writer durable runs execute first, both under
//! `FlushPolicy::Off` (so their WAL counters are exactly reproducible):
//! a **small-transaction** workload (1 insert per commit) and a
//! **large-transaction** workload ([`LARGE_TXN_INSERTS`] inserts per
//! commit).  The traced facts — stream bytes appended per commit, hence
//! full log pages per commit — feed a discrete-event simulation in
//! **integer nanoseconds** that prices two flush policies over `T`
//! writers doing the identical per-commit work:
//!
//! * **inline** — today's `FlushPolicy::Off`: the group-commit leader
//!   writes every unflushed log page of the covered commits (the whole
//!   backlog since the last flush), then the tail page, then fsyncs.
//!   Large transactions stall their leader on megabytes of backlog.
//! * **flusher-ahead** — `FlushPolicy::Background`: a flusher thread
//!   spends device idle time writing buffered pages FIFO as they are
//!   appended, so at commit time the leader usually finds the backlog
//!   already on the device and writes only the tail page before the
//!   fsync.  The modelled flusher yields to an arriving commit (it
//!   never starts a page write that would delay a pending sync) — the
//!   optimistic variant, deterministic by construction.
//!
//! Both policies share the group-commit rule of `fig20` (a starting
//! fsync covers every request issued at or before its start, lowest
//! writer index first), so the tables are byte-stable across runs and
//! machines.  Device costs are the paper-era disk: [`T_SYNC_NS`] per
//! fsync, [`T_PAGE_WRITE_NS`] per 2 KB log page (~10 MB/s sequential).
//!
//! Alongside the model, the experiment *actually runs* a
//! `FlushPolicy::Background` database and reports its flusher counters
//! plus the WAL's absolute sync-accounting identity.  Those counters
//! depend on thread scheduling, so they are printed on `#` lines.

use crate::harness::section;
pub use crate::sim::SimResult;
use crate::sim::{
    durable_db, run_txns, wal_stats, Policy, Trace, PAGE_BYTES, THREAD_COUNTS, T_SYNC_NS,
};
use ri_pagestore::{FlushPolicy, WalConfig};

/// Sequential write of one 2 KB log page on the paper-era disk
/// (~10 MB/s): the unit of backlog the inline leader pays per page.
pub const T_PAGE_WRITE_NS: u64 = 200_000;

/// Inserts per commit in the large-transaction workload.
pub const LARGE_TXN_INSERTS: u64 = 256;

/// `threads` writers each committing `commits_per_writer` transactions
/// of `full_pages` whole log pages (+ a partial tail page), thinking
/// `t_think` ns per transaction, on the shared queueing core
/// ([`crate::sim`]) under `fig20`'s group-commit rule.
///
/// With `flusher` off, the group-commit leader writes all covered
/// backlog pages plus one tail page, then fsyncs; with it on, a
/// background drain writes buffered pages FIFO during device idle gaps,
/// and the leader pays only the still-unwritten residual plus the tail
/// page and the fsync.
pub fn simulate(
    threads: usize,
    commits_per_writer: u64,
    full_pages: u64,
    t_think: u64,
    flusher: bool,
) -> SimResult {
    let policy = Policy {
        full_pages,
        t_page_ns: T_PAGE_WRITE_NS,
        t_fixed_ns: T_PAGE_WRITE_NS + T_SYNC_NS,
        flusher,
        grouped: true,
    };
    crate::sim::simulate(threads, commits_per_writer, t_think, policy)
}

/// One figure row: both flush policies at one thread count.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Committing writer threads.
    pub threads: usize,
    /// Today's inline first-flush (`FlushPolicy::Off`).
    pub inline: SimResult,
    /// The background flusher (`FlushPolicy::Background`).
    pub ahead: SimResult,
}

impl Row {
    /// Inline mean latency over flusher-ahead mean latency (>1 = win).
    fn latency_ratio(&self) -> f64 {
        self.inline.mean_latency_ns() as f64 / self.ahead.mean_latency_ns().max(1) as f64
    }
}

/// One workload's traced facts plus its simulated figure rows.
pub struct Workload {
    /// `"small"` or `"large"`.
    pub label: &'static str,
    /// The traced single-writer facts.
    pub trace: Trace,
    /// One entry per thread count.
    pub rows: Vec<Row>,
}

/// Everything the experiment produced.
pub struct Report {
    /// The small- and large-transaction workloads.
    pub workloads: Vec<Workload>,
}

/// Really runs a `FlushPolicy::Background` database and reports its
/// (scheduling-dependent) flusher counters; asserts the absolute sync
/// identity, which must hold on any schedule.
fn report_real_flusher_run(inserts_per_commit: u64, commits: u64) {
    let db = durable_db(WalConfig {
        flush_policy: FlushPolicy::Background { watermark_bytes: 2 * PAGE_BYTES as usize },
        ..WalConfig::default()
    });
    run_txns(&db, inserts_per_commit, commits);
    let s = wal_stats(&db);
    assert_eq!(
        s.syncs,
        s.commit_syncs + s.forced_syncs + s.checkpoint_syncs,
        "sync accounting identity must hold with the flusher racing commits: {s:?}"
    );
    println!(
        "# real: background flusher, {} commits x {} inserts: {} flusher writes \
         ({} bytes ahead), {} segments created, {} syncs ({} commit-led)",
        commits,
        inserts_per_commit,
        s.flusher_writes,
        s.flusher_bytes,
        s.segments_created,
        s.syncs,
        s.commit_syncs
    );
    db.close().expect("close");
}

/// Runs the experiment and prints its tables.
pub fn run(quick: bool) -> Report {
    section("Figure 22: mean commit latency, inline first-flush vs background flusher");
    let commits_per_writer: u64 = if quick { 50 } else { 200 };
    let small_commits: u64 = if quick { 400 } else { 2_000 };
    let large_commits: u64 = if quick { 8 } else { 40 };
    println!("model: commits_per_writer,t_sync_ns,t_page_write_ns,page_bytes");
    println!("{commits_per_writer},{T_SYNC_NS},{T_PAGE_WRITE_NS},{PAGE_BYTES}");

    println!(
        "trace: label,commits,inserts_per_commit,wal_record_bytes,bytes_per_commit,\
         full_pages_per_commit,t_think_ns"
    );
    let mut workloads = Vec::new();
    for (label, ipc, traced) in
        [("small", 1, small_commits), ("large", LARGE_TXN_INSERTS, large_commits)]
    {
        let trace = crate::sim::trace(ipc, traced);
        let (full_pages, t_think) = (trace.full_pages_per_commit(), trace.t_op_ns());
        println!(
            "{label},{},{},{},{},{full_pages},{t_think}",
            trace.commits,
            trace.inserts_per_commit,
            trace.wal_record_bytes,
            trace.bytes_per_commit()
        );
        let rows = THREAD_COUNTS
            .iter()
            .map(|&threads| Row {
                threads,
                inline: simulate(threads, commits_per_writer, full_pages, t_think, false),
                ahead: simulate(threads, commits_per_writer, full_pages, t_think, true),
            })
            .collect();
        workloads.push(Workload { label, trace, rows });
    }
    println!(
        "label,threads,commits,mean_latency_ns_inline,mean_latency_ns_ahead,latency_ratio,\
         fsyncs_inline,fsyncs_ahead,makespan_ns_inline,makespan_ns_ahead,max_group_ahead"
    );
    for w in &workloads {
        for r in &w.rows {
            println!(
                "{},{},{},{},{},{:.4},{},{},{},{},{}",
                w.label,
                r.threads,
                r.ahead.commits,
                r.inline.mean_latency_ns(),
                r.ahead.mean_latency_ns(),
                r.latency_ratio(),
                r.inline.fsyncs,
                r.ahead.fsyncs,
                r.inline.makespan_ns,
                r.ahead.makespan_ns,
                r.ahead.max_group
            );
        }
    }

    // Correctness of the real background-flusher path (counters depend
    // on scheduling; informational only, the identity is what must hold).
    report_real_flusher_run(LARGE_TXN_INSERTS, if quick { 4 } else { 16 });

    println!("# model: inline leaders rewrite the whole covered backlog inside the");
    println!("# commit critical path; the flusher writes it during think-time device");
    println!("# idle gaps, so large-transaction commits pay only the tail page + fsync.");
    println!("# Small transactions fill no whole page, so both policies coincide.");
    Report { workloads }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T_THINK: u64 = 500_000;

    #[test]
    fn both_policies_commit_everything() {
        for &t in &THREAD_COUNTS {
            for flusher in [false, true] {
                let r = simulate(t, 30, 6, T_THINK, flusher);
                assert_eq!(r.commits, t as u64 * 30);
            }
        }
    }

    #[test]
    fn zero_backlog_makes_the_policies_coincide() {
        // A transaction that fills no whole page leaves the flusher
        // nothing to write ahead: identical latency, fsyncs, makespan.
        for &t in &THREAD_COUNTS {
            let a = simulate(t, 30, 0, T_THINK, false);
            let b = simulate(t, 30, 0, T_THINK, true);
            assert_eq!(a.total_latency_ns, b.total_latency_ns);
            assert_eq!(a.fsyncs, b.fsyncs);
            assert_eq!(a.makespan_ns, b.makespan_ns);
        }
    }

    #[test]
    fn flusher_ahead_beats_inline_on_backlogged_commits() {
        for &t in &THREAD_COUNTS {
            let inline = simulate(t, 30, 6, T_THINK, false);
            let ahead = simulate(t, 30, 6, T_THINK, true);
            assert!(
                ahead.mean_latency_ns() < inline.mean_latency_ns(),
                "{t} writers: flusher-ahead ({}) must beat inline ({})",
                ahead.mean_latency_ns(),
                inline.mean_latency_ns()
            );
            assert!(ahead.makespan_ns <= inline.makespan_ns);
        }
    }

    #[test]
    fn quick_run_is_deterministic_and_meets_the_bar() {
        let a = run(true);
        let b = run(true);
        for (wa, wb) in a.workloads.iter().zip(&b.workloads) {
            assert_eq!(
                wa.trace.wal_record_bytes, wb.trace.wal_record_bytes,
                "trace must be repeatable"
            );
            for (ra, rb) in wa.rows.iter().zip(&wb.rows) {
                assert_eq!(ra.ahead.total_latency_ns, rb.ahead.total_latency_ns);
                assert_eq!(ra.inline.fsyncs, rb.inline.fsyncs);
            }
        }
        let large = a.workloads.iter().find(|w| w.label == "large").unwrap();
        assert!(
            large.trace.full_pages_per_commit() >= 1,
            "the large workload must actually backlog whole pages"
        );
        for r in &large.rows {
            assert!(
                r.ahead.mean_latency_ns() < r.inline.mean_latency_ns(),
                "{} writers: flusher-ahead must beat inline on large transactions",
                r.threads
            );
        }
    }
}
