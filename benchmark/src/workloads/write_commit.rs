//! `write_commit`: single-statement transactions on a durable pool.
//!
//! A 200-frame pool with a write-ahead log (`FlushPolicy::Off`, default
//! `WalConfig`) is preloaded and checkpointed; then every transaction is
//! one `RiTree::insert` — or, each fifth, one `RiTree::delete` of an
//! earlier insert — followed by `Database::commit`.  `Database::checkpoint`
//! runs after every `checkpoint_every` transactions, inside the latency
//! of the transaction that triggers it, so the log completes many cycles
//! and a checkpoint stall shows in the tail.  The B-tree and the pool
//! write here where the `read_*` workloads read, and the WAL, idle there,
//! does most of the work.

use super::{
    create_tree, drive, mean_us, overhead_pct, peak_rss_mb, report_index_shape, rounds, tail_us,
    timed, verify_final_state, write_trace, Counters, OpLog, Outcome, RunConfig, StorageCost, PAGE,
    PAPER_FRAMES,
};
use crate::disk::{DeviceKind, DiskCounters, Scratch, TracedDisk, DATA, LOG};
use crate::inputs::{items, stream, verify_stabs, Digest, Item};
use crate::metrics::Metrics;
use crate::{probes, trace};
use ri_tree::core::RiTree;
use ri_tree::pagestore::{BufferPool, BufferPoolConfig, Result, WalConfig};
use std::sync::Arc;
use std::time::Instant;

/// Distinct extra intervals; insert number `i` stores extra `i % EXTRAS`
/// under the fresh id `base rows + i`.
const EXTRAS: usize = 1 << 18;
/// Of every this many transactions the last is a delete.
const DELETE_EVERY: usize = 5;

struct WriteEnv {
    pool: Arc<BufferPool>,
    tree: RiTree,
    base: Vec<Item>,
    extras: Vec<Item>,
    generate_s: f64,
    disks: Option<(Arc<DiskCounters>, Arc<DiskCounters>)>,
}

enum Txn {
    Insert(Item),
    Delete(Item),
}

impl WriteEnv {
    fn load(cfg: &RunConfig, scratch: &Scratch) -> Result<WriteEnv> {
        let start = Instant::now();
        let base = items(cfg.scale.write_rows, cfg.seed, stream::BASE, 0);
        let extras = items(EXTRAS, cfg.seed, stream::EXTRAS, 0);
        let generate_s = start.elapsed().as_secs_f64();

        let mut data = scratch.device(DeviceKind::Mem, "data.db", PAGE)?;
        let mut log = scratch.device(DeviceKind::Mem, "wal.db", PAGE)?;
        let mut disks = None;
        if cfg.trace {
            let (traced_data, data_counters) = TracedDisk::wrap(data, DATA);
            let (traced_log, log_counters) = TracedDisk::wrap(log, LOG);
            (data, log) = (traced_data, traced_log);
            disks = Some((data_counters, log_counters));
        }
        let frames = BufferPoolConfig::with_capacity(PAPER_FRAMES);
        let pool = Arc::new(BufferPool::new_durable_with(data, frames, log, WalConfig::default())?);
        let tree = create_tree(&pool)?;
        tree.insert_batch(&base, 1)?;
        tree.db().commit()?;
        tree.db().checkpoint()?;
        Ok(WriteEnv { pool, tree, base, extras, generate_s, disks })
    }

    /// Insert number `i` of the run.
    fn insert(&self, i: usize) -> Item {
        (self.extras[i % EXTRAS].0, (self.base.len() + i) as i64)
    }

    /// Transaction `t`: four inserts, then a delete of the oldest insert
    /// still live.
    fn txn(&self, t: usize) -> Txn {
        let (round, at) = (t / DELETE_EVERY, t % DELETE_EVERY);
        if at == DELETE_EVERY - 1 {
            Txn::Delete(self.insert(round))
        } else {
            Txn::Insert(self.insert(round * (DELETE_EVERY - 1) + at))
        }
    }

    /// The rows live after `txns` transactions.
    fn live_after(&self, txns: usize) -> Vec<Item> {
        let (rounds, rest) = (txns / DELETE_EVERY, txns % DELETE_EVERY);
        let inserts = rounds * (DELETE_EVERY - 1) + rest;
        self.base.iter().copied().chain((rounds..inserts).map(|i| self.insert(i))).collect()
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::read(&self.pool);
        if let Some((data, log)) = &self.disks {
            c.data_disk = data.snapshot();
            c.log_disk = log.snapshot();
        }
        c
    }
}

pub(super) fn run(cfg: &RunConfig) -> Result<Outcome> {
    let scratch = Scratch::new(&cfg.out_dir, cfg.workload.name())?;
    // Two whole checkpoint cycles: bytes logged per transaction have
    // levelled off by then.
    let counted = 2 * cfg.scale.checkpoint_every;
    let stabs = verify_stabs(cfg.scale.verify_stabs, cfg.seed);
    let (mut attempted, mut failed) = (0, 0);
    let mut measured = Phase::default();
    // Transactions the database of the latest round has seen.
    let mut round_txns = 0;
    let setup = || WriteEnv::load(cfg, &scratch);
    let (env, setup_s) = rounds(cfg, setup, |env, seconds| {
        let round = phase(env, cfg, 0, counted, seconds);
        round_txns = round.log.len();
        measured.append(round);
        Ok(())
    })?;

    let mut m = Metrics::default();
    m.set("workloads.generate_s", env.generate_s);

    if cfg.trace {
        let half = cfg.seconds / 2.0;
        // The untraced half goes first, as in the read workloads.
        let untraced = phase(&env, cfg, 0, counted, half);
        trace::install();
        let traced = phase(&env, cfg, untraced.log.len(), counted, half);
        let report = trace::finish();
        let txns = traced.log.len() + untraced.log.len();
        let (checked, wrong) = verify_final_state(&env.tree, &env.live_after(txns), &stabs);
        attempted += txns as u64 + checked;
        failed += traced.failed + untraced.failed + wrong;

        m.set("core.insert_us", report.get("core.insert").mean_us());
        m.set("core.delete_us", report.get("core.delete").mean_us());
        m.set("wal.commit_us", report.get("wal.commit").mean_us());
        m.set("relstore.checkpoint_ms", mean_us(&untraced.checkpoint_ns) / 1e3);
        m.set("txn_p50_us", untraced.log.percentile_us(50.0));
        m.set("txn_p95_us", untraced.log.percentile_us(95.0));
        m.set("tail.txn_p99_us", tail_us(&untraced.log.latency_ns, 99.0));
        m.set("tail.txn_max_us", tail_us(&untraced.log.latency_ns, 100.0));
        untraced.counted.report_pool(&mut m, counted as u64);
        untraced.counted.report_wal(&mut m, counted as u64, counted as u64);
        untraced.counted.report_disks(&mut m);
        m.set("ops_per_s", untraced.log.ops_per_s());
        m.set("trace.overhead_pct", overhead_pct(untraced.log.ops_per_s(), traced.log.ops_per_s()));
        report_index_shape(&mut m, &env.tree)?;
        write_trace(cfg, &report)?;
        // After the check above: the probes write to the same pool.
        probes::storage_layers(&mut m, &env.pool, cfg.seed)?;
    } else {
        measured.log.report_end_to_end(&mut m, &setup_s);
        m.set("peak_rss_mb", peak_rss_mb(&scratch)?);
        measured.storage.report(&mut m);
        // The last round's database is the one still open: every round
        // ran the same transactions from the same state, as far as it got.
        let (checked, wrong) = verify_final_state(&env.tree, &env.live_after(round_txns), &stabs);
        attempted += measured.log.len() as u64 + checked;
        failed += measured.failed + wrong;
    }

    let mut digest = Digest::default();
    digest.items(&env.base);
    digest.items(&env.extras[..1024]);
    Ok(Outcome { attempted, failed, metrics: m, digest: digest.finish() })
}

#[derive(Default)]
struct Phase {
    /// One entry per transaction.
    log: OpLog,
    checkpoint_ns: Vec<u64>,
    counted: Counters,
    storage: StorageCost,
    failed: u64,
}

impl Phase {
    /// Appends a later round's phase; its counted prefix is the same.
    fn append(&mut self, mut later: Phase) {
        self.log.append(later.log);
        self.checkpoint_ns.append(&mut later.checkpoint_ns);
        self.failed += later.failed;
        (self.counted, self.storage) = (later.counted, later.storage);
    }
}

/// Runs transactions `first_txn..` for `seconds`, at least `counted`.
/// With a tracer installed, every transaction is an `op` span over
/// `core.insert` / `core.delete` and `wal.commit`, and a checkpoint is a
/// `relstore.checkpoint` span inside the transaction that triggered it.
fn phase(env: &WriteEnv, cfg: &RunConfig, first_txn: usize, counted: usize, seconds: f64) -> Phase {
    let db = env.tree.db();
    let mut out = Phase::default();
    let before = env.counters();
    drive(seconds, counted, |offset| {
        let t = first_txn + offset;
        trace::begin_op(t as u64);
        let (ok, ns) = timed(|| {
            let _op = trace::enter("op");
            if t > 0 && t % cfg.scale.checkpoint_every == 0 {
                let (result, ns) = timed(|| {
                    let _span = trace::enter("relstore.checkpoint");
                    db.checkpoint()
                });
                out.checkpoint_ns.push(ns);
                if result.is_err() {
                    return false;
                }
            }
            let done = match env.txn(t) {
                Txn::Insert((iv, id)) => {
                    let _span = trace::enter("core.insert");
                    env.tree.insert(iv, id).is_ok()
                }
                Txn::Delete((iv, id)) => {
                    let _span = trace::enter("core.delete");
                    matches!(env.tree.delete(iv, id), Ok(true))
                }
            };
            let _span = trace::enter("wal.commit");
            db.commit().is_ok() && done
        });
        trace::end_op();
        out.log.push(ns);
        out.failed += u64::from(!ok);
        if offset + 1 == counted {
            out.counted = env.counters().since(&before);
            let live = env.base.len() + (t + 1) - 2 * ((t + 1) / DELETE_EVERY);
            out.storage = StorageCost::read(&env.pool, live as u64);
        }
    });
    out
}
