//! The group-commit experiment (ours, not the paper's): fsyncs per
//! committed insert versus committing writer threads — the WAL's
//! leader/follower group commit against the one-fsync-per-commit
//! baseline it replaced.
//!
//! # Methodology
//!
//! Like `fig18`/`fig19`, the experiment prices concurrency
//! *deterministically*.  A real durable run executes once,
//! single-threaded: inserts through a WAL-backed
//! [`ri_relstore::Database`], one `commit()` per insert, and the WAL's
//! own counters
//! ([`ri_pagestore::WalSnapshot`]) provide the traced facts — record
//! bytes appended per commit and the single-writer sync count (exactly
//! one fsync per commit: with nobody to share a sync with, group commit
//! degenerates to the global policy).
//!
//! A discrete-event simulation in **integer nanoseconds** then prices
//! two commit policies over `T` writers doing the identical per-commit
//! work:
//!
//! * **global** — every commit performs its own log fsync; the log
//!   device serializes them, so the batch pays `T x C` sync latencies
//!   end to end no matter how many threads submit work;
//! * **grouped (this PR)** — the first committer to reach the idle log
//!   device becomes the *leader* and syncs; everyone whose commit
//!   record was appended by the time the sync starts rides along as a
//!   *follower*.  Requests that arrive while a sync is in flight pile
//!   up and are absorbed by the next leader — the entire win.
//!
//! Both policies are simulated with the same deterministic tie-break
//! (lowest writer index first), so the tables are byte-stable across
//! runs and machines.
//! The per-commit CPU+append cost is derived from the traced record
//! bytes; the fsync cost is the late-1990s disk of
//! [`ri_pagestore::LatencyModel`]: ~10 ms of seek + rotation + settle.
//!
//! Alongside the model, the experiment *actually runs* concurrent
//! committers at every thread count (disjoint inserts fanned out by
//! `ri_relstore::fan_out`, one `Database::commit` per insert) and
//! asserts the WAL's exact accounting identity — every commit is either
//! a leader (`commit_syncs`) or a follower (`group_commits`), and the
//! log is durable through its end.  Scheduling-dependent group sizes
//! are printed for reference on `#` lines.

use crate::harness::section;
pub use crate::sim::SimResult;
use crate::sim::{durable_db, wal_stats, Policy, Trace, THREAD_COUNTS, T_SYNC_NS};
use ri_pagestore::WalConfig;

/// `threads` writers each performing `commits_per_writer` commits on
/// the shared queueing core ([`crate::sim`]): a writer computes for
/// `t_op` ns, then requests durability; the log device runs one fsync
/// (`t_sync` ns, no page writes priced) at a time.  Under `grouped`, a
/// starting fsync covers every request issued at or before its start
/// instant; under the global policy it covers exactly the earliest
/// request (FIFO, index tie-break).
pub fn simulate(
    threads: usize,
    commits_per_writer: u64,
    t_op: u64,
    t_sync: u64,
    grouped: bool,
) -> SimResult {
    let policy =
        Policy { full_pages: 0, t_page_ns: 0, t_fixed_ns: t_sync, flusher: false, grouped };
    crate::sim::simulate(threads, commits_per_writer, t_op, policy)
}

/// One figure row: both policies at one thread count.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Committing writer threads.
    pub threads: usize,
    /// The one-fsync-per-commit baseline.
    pub global: SimResult,
    /// The leader/follower group commit.
    pub grouped: SimResult,
}

impl Row {
    /// Grouped throughput over the global baseline.
    pub fn speedup(&self) -> f64 {
        self.grouped.commits_per_sec() / self.global.commits_per_sec()
    }
}

/// Everything the experiment produced.
pub struct Report {
    /// The traced single-writer facts.
    pub trace: Trace,
    /// One entry per thread count.
    pub rows: Vec<Row>,
}

/// Real concurrent committers: disjoint inserts fanned out over
/// `threads`, one `commit()` each.  Asserts the WAL's exact accounting
/// identity and returns (commits, syncs, commit_syncs, group_commits).
fn verify_concurrent_commits(threads: usize, per_writer: u64) -> (u64, u64, u64, u64) {
    let db = durable_db(WalConfig::default());
    let t = db.table("T").expect("table");
    let total = threads as u64 * per_writer;
    let items: Vec<i64> = (0..total as i64).collect();
    let before = wal_stats(&db);
    ri_relstore::fan_out(&items, threads, |&i| {
        t.insert(&[i, i % 7])?;
        db.commit()
    })
    .into_iter()
    .collect::<ri_pagestore::Result<()>>()
    .expect("concurrent insert+commit");
    let after = wal_stats(&db);
    let commits = after.commits - before.commits;
    let commit_syncs = after.commit_syncs - before.commit_syncs;
    let group_commits = after.group_commits - before.group_commits;
    assert_eq!(commits, total, "every submitted commit committed");
    assert_eq!(
        commit_syncs + group_commits,
        commits,
        "every commit is exactly a leader or a follower"
    );
    let wal = db.pool().wal().expect("durable pool");
    assert_eq!(wal.durable_lsn(), wal.end_lsn(), "commit returns only once durable");
    (commits, after.syncs - before.syncs, commit_syncs, group_commits)
}

/// Runs the experiment and prints its tables.
pub fn run(quick: bool) -> Report {
    section("Figure 20: log fsyncs per committed insert, group commit vs one-fsync-per-commit");
    let traced_inserts: u64 = if quick { 400 } else { 2_000 };
    let commits_per_writer: u64 = if quick { 50 } else { 200 };
    // One insert per commit.
    let trace = crate::sim::trace(1, traced_inserts);
    let t_op = trace.t_op_ns();
    println!(
        "trace: commits,wal_records,wal_record_bytes,bytes_per_commit,syncs_single_writer,\
         log_page_writes"
    );
    println!(
        "{},{},{},{},{},{}",
        trace.commits,
        trace.wal_records,
        trace.wal_record_bytes,
        trace.bytes_per_commit(),
        trace.syncs,
        trace.log_page_writes
    );
    println!("model: commits_per_writer,t_sync_ns,t_op_ns");
    println!("{commits_per_writer},{T_SYNC_NS},{t_op}");

    let mut rows = Vec::new();
    println!(
        "threads,commits,fsyncs_global,fsyncs_grouped,fsyncs_per_commit_global,\
         fsyncs_per_commit_grouped,commits_per_sec_global,commits_per_sec_grouped,speedup,max_group"
    );
    for &threads in &THREAD_COUNTS {
        let global = simulate(threads, commits_per_writer, t_op, T_SYNC_NS, false);
        let grouped = simulate(threads, commits_per_writer, t_op, T_SYNC_NS, true);
        let row = Row { threads, global, grouped };
        println!(
            "{threads},{},{},{},{:.5},{:.5},{:.3},{:.3},{:.3},{}",
            grouped.commits,
            global.fsyncs,
            grouped.fsyncs,
            global.fsyncs_per_commit(),
            grouped.fsyncs_per_commit(),
            global.commits_per_sec(),
            grouped.commits_per_sec(),
            row.speedup(),
            grouped.max_group
        );
        rows.push(row);
    }

    // Correctness of the real concurrent commit path (sync counts depend
    // on scheduling; informational only, the identity is what must hold).
    for &threads in &[1usize, 4, 8] {
        let per_writer = if quick { 25 } else { 100 };
        let (commits, syncs, leaders, followers) = verify_concurrent_commits(threads, per_writer);
        println!(
            "# real: {threads} writer(s), {commits} commits, {syncs} log syncs \
             ({leaders} leaders + {followers} followers)"
        );
    }

    println!("# model: the global policy fsyncs once per commit, so the log device");
    println!("# serializes the batch at one sync latency each; group commit lets every");
    println!("# request that arrives during an in-flight sync ride the next leader's");
    println!("# fsync, so fsyncs per commit falls toward 1/T as writers are added");
    Report { trace, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T_OP: u64 = 150_000;

    #[test]
    fn both_policies_commit_everything() {
        for &t in &THREAD_COUNTS {
            for grouped in [false, true] {
                let r = simulate(t, 40, T_OP, T_SYNC_NS, grouped);
                assert_eq!(r.commits, t as u64 * 40);
            }
        }
    }

    #[test]
    fn global_policy_fsyncs_once_per_commit() {
        for &t in &THREAD_COUNTS {
            let r = simulate(t, 40, T_OP, T_SYNC_NS, false);
            assert_eq!(r.fsyncs, r.commits);
        }
    }

    #[test]
    fn grouping_saves_fsyncs_from_two_writers_on() {
        let single = simulate(1, 40, T_OP, T_SYNC_NS, true);
        assert_eq!(single.fsyncs, single.commits, "nobody to share with at T=1");
        let mut last = 1.0f64;
        for &t in &THREAD_COUNTS[1..] {
            let r = simulate(t, 40, T_OP, T_SYNC_NS, true);
            assert!(
                r.fsyncs < r.commits,
                "{t} writers: expected fewer fsyncs ({}) than commits ({})",
                r.fsyncs,
                r.commits
            );
            let per = r.fsyncs_per_commit();
            assert!(per <= last + 1e-12, "fsyncs per commit must fall as writers are added");
            last = per;
        }
    }

    #[test]
    fn grouped_makespan_never_exceeds_global() {
        for &t in &THREAD_COUNTS {
            let g = simulate(t, 40, T_OP, T_SYNC_NS, false);
            let r = simulate(t, 40, T_OP, T_SYNC_NS, true);
            assert!(r.makespan_ns <= g.makespan_ns);
        }
    }

    #[test]
    fn quick_run_is_deterministic_and_meets_the_bar() {
        let a = run(true);
        let b = run(true);
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.grouped.fsyncs, rb.grouped.fsyncs, "simulation must be deterministic");
            assert_eq!(ra.grouped.makespan_ns, rb.grouped.makespan_ns);
        }
        assert_eq!(a.trace.wal_record_bytes, b.trace.wal_record_bytes, "trace must be repeatable");
        for r in &a.rows {
            if r.threads >= 2 {
                assert!(r.grouped.fsyncs < r.grouped.commits);
                assert!(r.speedup() >= 1.0);
            }
        }
        let r8 = a.rows.iter().find(|r| r.threads == 8).unwrap();
        assert!(
            r8.speedup() >= 2.0,
            "8 writers on a 10 ms fsync must gain >= 2x from grouping, got {:.2}",
            r8.speedup()
        );
    }
}
