//! `ingest_recover`: bulk load, large transactions, crash, recovery.
//!
//! A durable pool with the background WAL flusher
//! (`FlushPolicy::Background { watermark_bytes: 65536 }`) takes a timed
//! `RiTree::insert_batch` of the base rows into the empty tree (the bulk
//! builder route), a commit and a checkpoint — that is the set-up.  The
//! measured phase then repeats *cycles*: `cycle_txns` transactions of
//! `txn_rows` inserts each and no checkpoint; a few more inserts that are
//! never committed; a crash (the devices refuse everything from that
//! instant and the pool is dropped); and a timed reopen — attach the log,
//! `BufferPool::recover`, `Database::open`, `RiTree::open` — after which
//! the tree must hold exactly the acknowledged rows.  Throughput is
//! acknowledged transactions over the time the client spends in
//! transactions *and* in every recovery (charged as busy time to the last
//! transaction before the crash), so both the write path and the length
//! of the log it leaves behind count.
//!
//! The base load is 200 k rows because that is the ceiling: at 400 k the
//! load's log overflows the WAL's default segment map (see the README).

use super::{
    create_tree, overhead_pct, peak_rss_mb, report_index_shape, rounds, timed, verify_final_state,
    write_trace, Counters, OpLog, Outcome, RunConfig, StorageCost, PAGE, PAPER_FRAMES, TREE,
};
use crate::disk::{CutDisk, Device, DeviceKind, DiskCounters, Scratch, TracedDisk, DATA, LOG};
use crate::inputs::{items, stream, verify_stabs, Digest, Item};
use crate::metrics::Metrics;
use crate::stats::median;
use crate::{probes, trace};
use ri_tree::core::RiTree;
use ri_tree::pagestore::{
    BufferPool, BufferPoolConfig, CrashPlan, FaultClock, FaultPlan, FaultyDisk, FlushPolicy,
    MemDisk, RecoveryReport, Result, WalConfig,
};
use ri_tree::relstore::Database;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn wal_config() -> WalConfig {
    WalConfig {
        flush_policy: FlushPolicy::Background { watermark_bytes: 65_536 },
        ..WalConfig::default()
    }
}

/// The two devices, which outlive every pool opened on them.
struct Devices {
    data: Device,
    log: Device,
    counters: Option<(Arc<DiskCounters>, Arc<DiskCounters>)>,
}

/// One incarnation of the database, from open to crash.
struct Session {
    tree: RiTree,
    pool: Arc<BufferPool>,
    power: Arc<AtomicBool>,
}

impl Devices {
    fn new(cfg: &RunConfig, scratch: &Scratch) -> Result<Devices> {
        let mut data = scratch.device(DeviceKind::Mem, "data.db", PAGE)?;
        let mut log = scratch.device(DeviceKind::Mem, "wal.db", PAGE)?;
        let mut counters = None;
        if cfg.trace {
            let (traced_data, data_counters) = TracedDisk::wrap(data, DATA);
            let (traced_log, log_counters) = TracedDisk::wrap(log, LOG);
            (data, log) = (traced_data, traced_log);
            counters = Some((data_counters, log_counters));
        }
        Ok(Devices { data, log, counters })
    }

    /// Attaches a pool; the devices go through a fresh power switch.
    fn attach(&self) -> Result<(Arc<BufferPool>, Arc<AtomicBool>)> {
        let power = Arc::new(AtomicBool::new(false));
        let pool = BufferPool::new_durable_with(
            CutDisk::wrap(Arc::clone(&self.data), Arc::clone(&power)),
            BufferPoolConfig::with_capacity(PAPER_FRAMES),
            CutDisk::wrap(Arc::clone(&self.log), Arc::clone(&power)),
            wal_config(),
        )?;
        Ok((Arc::new(pool), power))
    }

    fn counters(&self, pool: &BufferPool) -> Counters {
        let mut c = Counters::read(pool);
        if let Some((data, log)) = &self.counters {
            c.data_disk = data.snapshot();
            c.log_disk = log.snapshot();
        }
        c
    }
}

/// Timings of one reopen after a crash.
struct Reopen {
    attach_ns: u64,
    redo_ns: u64,
    open_ns: u64,
    report: Option<RecoveryReport>,
}

struct IngestEnv {
    devices: Devices,
    /// `None` only between a crash and the reopen that follows it.
    session: Option<Session>,
    /// Every acknowledged row: the base load, then each cycle's commits.
    acked: Vec<Item>,
    base_rows: usize,
    /// Cycles run on this database so far.
    cycles: usize,
    generate_s: f64,
    load_s: f64,
    checkpoint_ns: u64,
}

fn setup(cfg: &RunConfig, scratch: &Scratch) -> Result<IngestEnv> {
    let start = Instant::now();
    let base = items(cfg.scale.write_rows, cfg.seed, stream::BASE, 0);
    let generate_s = start.elapsed().as_secs_f64();
    let devices = Devices::new(cfg, scratch)?;
    let (pool, power) = devices.attach()?;
    let tree = create_tree(&pool)?;
    let start = Instant::now();
    tree.insert_batch(&base, 1)?;
    tree.db().commit()?;
    let (checkpointed, checkpoint_ns) = timed(|| tree.db().checkpoint());
    checkpointed?;
    let load_s = start.elapsed().as_secs_f64();
    let session = Some(Session { tree, pool, power });
    let base_rows = base.len();
    Ok(IngestEnv {
        devices,
        session,
        acked: base,
        base_rows,
        cycles: 0,
        generate_s,
        load_s,
        checkpoint_ns,
    })
}

impl IngestEnv {
    fn session(&self) -> &Session {
        self.session.as_ref().expect("a session is open except between crash and reopen")
    }

    /// Power cut, then the timed reopen: attach the log (which scans it),
    /// redo, open the catalog and the tree.
    fn crash_and_reopen(&mut self) -> Result<Reopen> {
        // The devices refuse everything from now on, so the dying pool's
        // destructor (which flushes) cannot touch what recovery reads;
        // dropping the session joins its WAL flusher thread.
        let dead = self.session.take().expect("crash needs an open session");
        dead.power.store(true, Ordering::SeqCst);
        drop(dead);
        let (attached, attach_ns) = timed(|| {
            let _span = trace::enter("wal.attach_scan");
            self.devices.attach()
        });
        let (pool, power) = attached?;
        let (report, redo_ns) = timed(|| {
            let _span = trace::enter("wal.redo");
            pool.recover()
        });
        let report = report?;
        let (tree, open_ns) = timed(|| {
            let _span = trace::enter("relstore.open");
            RiTree::open(Arc::new(Database::open(Arc::clone(&pool))?), TREE)
        });
        self.session = Some(Session { tree: tree?, pool, power });
        Ok(Reopen { attach_ns, redo_ns, open_ns, report })
    }
}

/// What the cycles of one phase measured.
#[derive(Default)]
struct Cycles {
    /// One entry per acknowledged transaction; a recovery is busy time of
    /// the last transaction before its crash.
    log: OpLog,
    recover_s: Vec<f64>,
    attach_ms: Vec<f64>,
    redo_ms: Vec<f64>,
    open_ms: Vec<f64>,
    recover_mb_per_s: Vec<f64>,
    records_scanned: u64,
    pages_redone: u64,
    /// Counters and storage cost at the end of the first cycle's last
    /// commit — the counted prefix.
    counted: Counters,
    storage: StorageCost,
    issued: u64,
    failed: u64,
}

impl Cycles {
    /// Appends a later round's cycles; its counted prefix is the same.
    fn append(&mut self, mut later: Cycles) {
        self.log.append(later.log);
        self.recover_s.append(&mut later.recover_s);
        self.attach_ms.append(&mut later.attach_ms);
        self.redo_ms.append(&mut later.redo_ms);
        self.open_ms.append(&mut later.open_ms);
        self.recover_mb_per_s.append(&mut later.recover_mb_per_s);
        self.issued += later.issued;
        self.failed += later.failed;
        (self.records_scanned, self.pages_redone) = (later.records_scanned, later.pages_redone);
        (self.counted, self.storage) = (later.counted, later.storage);
    }
}

/// Runs cycles for `seconds`, at least one.
fn cycles(env: &mut IngestEnv, cfg: &RunConfig, seconds: f64, stabs: &[i64]) -> Result<Cycles> {
    let scale = &cfg.scale;
    let committed_rows = scale.cycle_txns * scale.txn_rows;
    let cycle_rows = committed_rows + scale.txn_rows / 4;
    let mut out = Cycles::default();
    let since_load = env.devices.counters(&env.session().pool);
    let start = Instant::now();
    loop {
        let cycle = env.cycles;
        env.cycles += 1;
        let first_id = (env.base_rows + cycle * cycle_rows) as i64;
        let fresh = items(cycle_rows, cfg.seed, stream::cycle(cycle), first_id);
        let (committed, tail) = fresh.split_at(committed_rows);
        let tree = &env.session().tree;
        let wal_before = Counters::read(&env.session().pool).wal.record_bytes;
        for (t, chunk) in committed.chunks(scale.txn_rows).enumerate() {
            trace::begin_op((cycle * scale.cycle_txns + t) as u64);
            let (ok, ns) = timed(|| {
                let _op = trace::enter("op");
                let mut ok = true;
                for &(iv, id) in chunk {
                    let _span = trace::enter("core.insert");
                    ok &= tree.insert(iv, id).is_ok();
                }
                let _span = trace::enter("wal.commit");
                tree.db().commit().is_ok() && ok
            });
            trace::end_op();
            out.log.push(ns);
            out.issued += 1;
            out.failed += u64::from(!ok);
        }
        let first_cycle = out.recover_s.is_empty();
        if first_cycle {
            out.counted = env.devices.counters(&env.session().pool).since(&since_load);
            let live = (env.acked.len() + committed.len()) as u64;
            out.storage = StorageCost::read(&env.session().pool, live);
        }
        // The unacknowledged tail recovery must roll back.
        for &(iv, id) in tail {
            out.failed += u64::from(tree.insert(iv, id).is_err());
        }
        let logged = Counters::read(&env.session().pool).wal.record_bytes - wal_before;
        env.acked.extend_from_slice(committed);

        trace::begin_op(cycle as u64);
        let reopened = env.crash_and_reopen();
        trace::end_op();
        let re = reopened?;
        let recover_ns = re.attach_ns + re.redo_ns + re.open_ns;
        out.log.add_busy(recover_ns);
        out.recover_s.push(recover_ns as f64 / 1e9);
        out.attach_ms.push(re.attach_ns as f64 / 1e6);
        out.redo_ms.push(re.redo_ns as f64 / 1e6);
        out.open_ms.push(re.open_ns as f64 / 1e6);
        out.recover_mb_per_s.push(logged as f64 / 1e6 / (recover_ns as f64 / 1e9));
        if let (true, Some(report)) = (first_cycle, &re.report) {
            out.records_scanned = report.records_scanned as u64;
            out.pages_redone = report.pages_redone as u64;
        }
        // Exactly the acknowledged rows, from whatever the crash left.
        let (checked, wrong) = verify_final_state(&env.session().tree, &env.acked, stabs);
        out.issued += checked;
        out.failed += wrong;
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(out);
        }
    }
}

pub(super) fn run(cfg: &RunConfig) -> Result<Outcome> {
    let scratch = Scratch::new(&cfg.out_dir, cfg.workload.name())?;
    let stabs = verify_stabs(cfg.scale.verify_stabs / 10, cfg.seed);
    let (mut attempted, mut failed) = (0, 0);
    let mut measured = Cycles::default();
    let setup = || setup(cfg, &scratch);
    let (mut env, setup_s) = rounds(cfg, setup, |env, seconds| {
        measured.append(cycles(env, cfg, seconds, &stabs)?);
        Ok(())
    })?;

    let mut m = Metrics::default();
    m.set("workloads.generate_s", env.generate_s);

    if cfg.trace {
        let half = cfg.seconds / 2.0;
        // The untraced half goes first, as in the read workloads.
        let untraced = cycles(&mut env, cfg, half, &stabs)?;
        trace::install();
        let traced = cycles(&mut env, cfg, half, &stabs)?;
        let report = trace::finish();
        attempted += traced.issued + untraced.issued;
        failed += traced.failed + untraced.failed;

        m.set("load_rows_per_s", env.base_rows as f64 / env.load_s);
        m.set("recover_s", median(&untraced.recover_s).unwrap_or(0.0));
        m.set("txn_p50_us", untraced.log.percentile_us(50.0));
        m.set("core.insert_us", report.get("core.insert").mean_us());
        m.set("wal.commit_us", report.get("wal.commit").mean_us());
        m.set("relstore.checkpoint_ms", env.checkpoint_ns as f64 / 1e6);
        m.set("relstore.open_ms", median(&untraced.open_ms).unwrap_or(0.0));
        m.set("wal.attach_scan_ms", median(&untraced.attach_ms).unwrap_or(0.0));
        m.set("wal.redo_ms", median(&untraced.redo_ms).unwrap_or(0.0));
        m.set("wal.records_scanned", untraced.records_scanned as f64);
        m.set("wal.pages_redone", untraced.pages_redone as f64);
        m.set("wal.recover_mb_per_s", median(&untraced.recover_mb_per_s).unwrap_or(0.0));
        let txns = cfg.scale.cycle_txns as u64;
        untraced.counted.report_pool(&mut m, txns);
        untraced.counted.report_wal(&mut m, txns, txns * cfg.scale.txn_rows as u64);
        untraced.counted.report_disks(&mut m);
        m.set("ops_per_s", untraced.log.ops_per_s());
        m.set("trace.overhead_pct", overhead_pct(untraced.log.ops_per_s(), traced.log.ops_per_s()));
        report_index_shape(&mut m, &env.session().tree)?;
        probes::storage_layers(&mut m, &env.session().pool, cfg.seed)?;
        write_trace(cfg, &report)?;
    } else {
        attempted += measured.issued;
        failed += measured.failed;
        measured.log.report_end_to_end(&mut m, &setup_s);
        m.set("peak_rss_mb", peak_rss_mb(&scratch)?);
        measured.storage.report(&mut m);
    }

    let (checked, wrong) = durability_check(cfg)?;
    let mut digest = Digest::default();
    digest.items(&env.acked[..env.base_rows + cfg.scale.txn_rows]);
    Ok(Outcome {
        attempted: attempted + checked,
        failed: failed + wrong,
        metrics: m,
        digest: digest.finish(),
    })
}

/// The durability check proper: one reduced-size cycle over `FaultyDisk`
/// devices in volatile-cache mode.  Writes reach the underlying devices
/// only on `sync`; at the crash every unsynced write survives or not by
/// a seeded coin.  So the acknowledged commits are verified from synced
/// bytes only — which killing a process, with the OS cache intact, or
/// cutting a `MemDisk`, which has no cache, cannot show.
fn durability_check(cfg: &RunConfig) -> Result<(u64, u64)> {
    let (base_rows, txns, txn_rows) = (cfg.scale.write_rows / 20, 8, cfg.scale.txn_rows / 4);
    let all = items(base_rows + (txns + 1) * txn_rows, cfg.seed, stream::DURABILITY, 0);
    let (base, fresh) = all.split_at(base_rows);
    let (committed, tail) = fresh.split_at(txns * txn_rows);

    let data = Arc::new(MemDisk::new(PAGE));
    let log = Arc::new(MemDisk::new(PAGE));
    let clock = FaultClock::new();
    clock.arm_crash(CrashPlan { persist_seed: cfg.seed, ..CrashPlan::default() });
    let faulty = |inner: &Arc<MemDisk>| {
        Arc::new(FaultyDisk::with_clock(
            Arc::clone(inner),
            FaultPlan::default(),
            Arc::clone(&clock),
        ))
    };
    let (faulty_data, faulty_log) = (faulty(&data), faulty(&log));
    let frames = BufferPoolConfig::with_capacity(PAPER_FRAMES);
    let mut failed = 0;
    {
        let pool = Arc::new(BufferPool::new_durable_with(
            Arc::clone(&faulty_data),
            frames,
            Arc::clone(&faulty_log),
            wal_config(),
        )?);
        let tree = create_tree(&pool)?;
        tree.insert_batch(base, 1)?;
        tree.db().commit()?;
        tree.db().checkpoint()?;
        for chunk in committed.chunks(txn_rows) {
            for &(iv, id) in chunk {
                failed += u64::from(tree.insert(iv, id).is_err());
            }
            failed += u64::from(tree.db().commit().is_err());
        }
        for &(iv, id) in tail {
            failed += u64::from(tree.insert(iv, id).is_err());
        }
        clock.crash_now();
    }
    faulty_data.settle_crash();
    faulty_log.settle_crash();

    let pool = Arc::new(BufferPool::new_durable_with(data, frames, log, wal_config())?);
    let tree = RiTree::open(Arc::new(Database::open(pool)?), TREE)?;
    let acked: Vec<Item> = base.iter().chain(committed).copied().collect();
    let stabs = verify_stabs(cfg.scale.verify_stabs / 10, cfg.seed);
    let (checked, wrong) = verify_final_state(&tree, &acked, &stabs);
    Ok((txns as u64 + checked, failed + wrong))
}
