//! The crash harness every durability suite runs through.
//!
//! * [`Rig`] — a data device and a log device, each behind a
//!   [`FaultyDisk`] on one shared [`FaultClock`], so one global write
//!   (and sync) index enumerates every crash point across both.  It opens
//!   durable pools over them, crashes, and reopens the raw devices with
//!   redo recovery.
//! * [`Oracle`] — the committed rows plus the one transaction that may be
//!   in flight, and [`Oracle::verify`], the one set of checks a recovered
//!   tree must pass.  The atomicity rule lives there: the in-flight
//!   transaction survives whole or not at all.
//! * [`Script`] — setup plus a list of transactions (inserts, deletes,
//!   mid-transaction checkpoints, a commit) and checkpoints between them.
//!   [`Script::run`] executes one with or without a [`CrashPlan`] armed
//!   relative to the end of setup.
//! * [`sweep_writes`] / [`sweep_syncs`] — kill a script at every
//!   post-setup device write (cleanly and torn) or sync barrier (under
//!   several persistence seeds), reopen, and verify each point.  A failing
//!   point panics with its [`CrashPoint`]; [`replay`] reruns exactly that
//!   point.

use super::TempDir;
use ri_tree::pagestore::{
    CrashPlan, DiskManager, Error, FaultClock, FaultPlan, FaultyDisk, FlushPolicy, Result,
    WalConfig,
};
use ri_tree::prelude::*;
use std::collections::BTreeMap;
use std::fmt;

/// Page size of the sweeps' rig: small pages mean more log pages per
/// commit, so more crash points per operation.
pub const PAGE: usize = 1024;
/// Frames of the sweeps' pool: tiny, so dirty data pages are written back
/// (through the WAL barrier) mid-script, not only at checkpoints.
pub const FRAMES: usize = 16;
/// Torn-write granularity: four sectors per sweep page.
const SECTOR: usize = 256;
/// The table every rig tree lives in.
const TABLE: &str = "t";
/// A query range that holds every row any script or suite inserts.
const EVERYTHING: Interval = Interval { lower: -(1 << 48), upper: 1 << 48 };

/// A device as the rig holds it: in memory or a file, behind one type.
type Device = Arc<dyn DiskManager>;

/// The two devices that survive a "reboot", their fault-injecting
/// wrappers on one clock, and the pool size every pool over them gets.
pub struct Rig {
    /// The data device as the pool sees it (fault plans, sync hooks).
    pub data: Arc<FaultyDisk<Device>>,
    /// The log device as the pool sees it.
    pub log: Arc<FaultyDisk<Device>>,
    /// The clock both wrappers count and crash on.
    clock: Arc<FaultClock>,
    /// The inner devices, which outlive a crash.
    raw: (Device, Device),
    /// For a file-backed rig, the directory holding `data` and `log`.
    dir: Option<TempDir>,
    frames: usize,
}

impl Rig {
    /// Two in-memory devices of `page_size`-byte pages; pools get `frames`.
    pub fn mem(page_size: usize, frames: usize) -> Rig {
        let raw: (Device, Device) =
            (Arc::new(MemDisk::new(page_size)), Arc::new(MemDisk::new(page_size)));
        Rig::over(raw, None, frames)
    }

    /// Two files in a fresh directory named after `tag`, default page
    /// size; pools get 64 frames.  [`Rig::reopen`] reopens them by path,
    /// so a recovered database reads only what reached the files.
    pub fn files(tag: &str) -> Rig {
        let dir = TempDir::new(tag);
        let raw = Rig::open_files(&dir);
        Rig::over(raw, Some(dir), 64)
    }

    fn open_files(dir: &TempDir) -> (Device, Device) {
        let open = |name| -> Device {
            Arc::new(FileDisk::open(&dir.file(name), DEFAULT_PAGE_SIZE).unwrap())
        };
        (open("data"), open("log"))
    }

    fn over(raw: (Device, Device), dir: Option<TempDir>, frames: usize) -> Rig {
        let clock = FaultClock::new();
        let faulty = |d: &Device| {
            Arc::new(FaultyDisk::with_clock(
                Arc::clone(d),
                FaultPlan::default(),
                Arc::clone(&clock),
            ))
        };
        Rig { data: faulty(&raw.0), log: faulty(&raw.1), clock, raw, dir, frames }
    }

    /// A fresh durable pool over the faulty devices, a new database on it,
    /// and the tree `t` created in it (nothing committed yet).
    pub fn create(&self, wal: WalConfig) -> Result<RiTree> {
        let pool = BufferPool::new_durable_with(
            Arc::clone(&self.data),
            BufferPoolConfig::with_capacity(self.frames),
            Arc::clone(&self.log),
            wal,
        )?;
        RiTree::create(Arc::new(Database::create(Arc::new(pool))?), TABLE)
    }

    /// Arms `plan` on the shared clock: from now on device writes are
    /// volatile until synced, and the machine dies where the plan says.
    pub fn arm(&self, plan: CrashPlan) {
        self.clock.arm_crash(plan);
    }

    /// Cuts the power now.
    pub fn crash_now(&self) {
        self.clock.crash_now();
    }

    /// Reboots: settles both devices' write caches after a crash, opens a
    /// durable pool over the raw devices (default [`WalConfig`]), runs
    /// redo recovery, and opens the tree `t`.
    pub fn reopen(&self) -> Result<RiTree> {
        self.data.settle_crash();
        self.log.settle_crash();
        let (data, log) = match &self.dir {
            Some(dir) => Rig::open_files(dir),
            None => (Arc::clone(&self.raw.0), Arc::clone(&self.raw.1)),
        };
        let pool =
            BufferPool::new_durable(data, BufferPoolConfig::with_capacity(self.frames), log)?;
        RiTree::open(Arc::new(Database::open(Arc::new(pool))?), TABLE)
    }
}

/// The scripts' workload rows `lo..hi` as `(id, interval)` pairs.
pub fn batch_rows(lo: usize, hi: usize) -> impl Iterator<Item = (i64, Interval)> {
    (lo..hi).map(|i| (i as i64, op_interval(i)))
}

/// One operation inside a transaction.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Insert the row `(id, interval)`.
    Insert(i64, Interval),
    /// `RiTree::insert_batch` of the scripts' workload rows `lo..hi`
    /// ([`batch_rows`]): the bulk builder's route into an empty tree.
    Batch(usize, usize),
    /// Delete the row `(id, interval)`, which must exist.
    Delete(i64, Interval),
    /// `Database::checkpoint` with the transaction open.
    Checkpoint,
}

impl Op {
    /// Runs the operation on `tree`.
    pub fn apply(&self, tree: &RiTree) -> Result<()> {
        match *self {
            Op::Insert(id, iv) => tree.insert(iv, id),
            Op::Batch(lo, hi) => {
                let items: Vec<(Interval, i64)> =
                    batch_rows(lo, hi).map(|(id, iv)| (iv, id)).collect();
                tree.insert_batch(&items, 1)
            }
            Op::Delete(id, iv) => {
                assert!(tree.delete(iv, id)?, "script deletes row {id}, which is not there");
                Ok(())
            }
            Op::Checkpoint => tree.db().checkpoint(),
        }
    }
}

/// What a recovered tree must hold: the committed rows, plus the one
/// transaction that may be in flight when the machine dies.
#[derive(Default)]
pub struct Oracle {
    committed: BTreeMap<i64, Interval>,
    /// Staged whole, so a recovery that keeps part of it is caught.
    in_flight: Vec<Op>,
    /// Every row ever inserted: the ones a recovered state lacks must not
    /// answer a stab either.
    seen: BTreeMap<i64, Interval>,
}

/// An oracle whose committed rows are `(id, interval)`.
impl FromIterator<(i64, Interval)> for Oracle {
    fn from_iter<I: IntoIterator<Item = (i64, Interval)>>(rows: I) -> Oracle {
        let committed: BTreeMap<i64, Interval> = rows.into_iter().collect();
        Oracle { seen: committed.clone(), committed, in_flight: Vec::new() }
    }
}

impl Oracle {
    /// Runs `ops` on `tree` as one transaction and commits it, the oracle
    /// following along: the whole transaction is in flight before its
    /// first operation runs, and committed once `Database::commit` returns.
    pub fn run_txn(&mut self, tree: &RiTree, ops: &[Op]) -> Result<()> {
        for op in ops {
            match *op {
                Op::Insert(id, iv) => {
                    self.seen.insert(id, iv);
                }
                Op::Batch(lo, hi) => self.seen.extend(batch_rows(lo, hi)),
                Op::Delete(..) | Op::Checkpoint => {}
            }
        }
        self.in_flight = ops.to_vec();
        for op in ops {
            op.apply(tree)?;
        }
        tree.db().commit()?;
        apply(&mut self.committed, &self.in_flight);
        self.in_flight.clear();
        Ok(())
    }

    fn with_in_flight(&self) -> BTreeMap<i64, Interval> {
        let mut rows = self.committed.clone();
        apply(&mut rows, &self.in_flight);
        rows
    }

    /// Checks a recovered tree: its two indexes pair up entry for entry
    /// ([`assert_twins`](super::twins::assert_twins)); its count is the committed count, or that
    /// plus the *whole* in-flight transaction, never part of it; its
    /// full-range id set is the matching state's; a stab at each of that
    /// state's rows finds the row; and no row outside it (deleted, or
    /// never committed) answers a stab.  Every failure names `ctx`.
    /// Returns whether the in-flight transaction survived.
    pub fn verify(&self, tree: &RiTree, ctx: &str) -> bool {
        super::twins::assert_twins(tree, ctx);
        let with = self.with_in_flight();
        let n = tree.count().unwrap_or_else(|e| panic!("{ctx}: count: {e}")) as usize;
        assert!(
            n == self.committed.len() || n == with.len(),
            "{ctx}: recovered {n} rows, but {} were committed before the crash \
             (only the whole {}-op in-flight transaction may additionally survive)",
            self.committed.len(),
            self.in_flight.len()
        );
        let mut got = tree
            .intersection(EVERYTHING)
            .unwrap_or_else(|e| panic!("{ctx}: full-range query: {e}"));
        got.sort_unstable();
        let survived = !self.in_flight.is_empty() && got.iter().eq(with.keys());
        let want = if survived { &with } else { &self.committed };
        assert!(
            got.iter().eq(want.keys()),
            "{ctx}: recovered ids {got:?} diverged from the oracle"
        );
        for (id, iv) in &self.seen {
            let hits = tree.stab(iv.lower).unwrap_or_else(|e| panic!("{ctx}: stab: {e}"));
            let held = want.contains_key(id);
            assert_eq!(
                hits.contains(id),
                held,
                "{ctx}: row {id} at {iv} must be {}",
                if held { "recovered" } else { "absent" }
            );
        }
        survived
    }
}

/// Applies a transaction's row changes to `rows`.
fn apply(rows: &mut BTreeMap<i64, Interval>, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::Insert(id, iv) => {
                rows.insert(id, iv);
            }
            Op::Batch(lo, hi) => rows.extend(batch_rows(lo, hi)),
            Op::Delete(id, _) => {
                rows.remove(&id);
            }
            Op::Checkpoint => {}
        }
    }
}

/// One step of a script.
#[derive(Clone, Debug)]
pub enum Step {
    /// The operations, then `Database::commit`.
    Txn(Vec<Op>),
    /// `Database::checkpoint` between transactions.
    Checkpoint,
}

/// A workload: setup (create, DDL, commit, checkpoint), then its steps.
#[derive(Clone, Debug)]
pub struct Script {
    /// The name [`replay`] finds the script by.
    pub name: &'static str,
    pub steps: Vec<Step>,
    /// Multiplier of a crash point's persistence seed in the write sweep:
    /// write index `i`'s seeds are `i * write_seed + variant`.
    pub write_seed: u64,
}

/// Multiplier of a crash point's persistence seed in the sync sweep.
const SYNC_SEED: u64 = 0x51C2;

/// The background-flusher configuration the `flusher_*` sweeps run
/// under: a low watermark keeps the flusher draining concurrently with
/// the workload, so — the shared fault clock being thread-blind — crash
/// indices land inside its drains just like anyone else's writes.
pub fn flusher_config() -> WalConfig {
    WalConfig {
        flush_policy: FlushPolicy::Background { watermark_bytes: 512 },
        ..WalConfig::default()
    }
}

/// The kill-anywhere workload's interval for row `i`.
pub fn op_interval(i: usize) -> Interval {
    let mut x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x5EED);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 32;
    let lo = (x % 50_000) as i64;
    let len = 1 + (x >> 17) as i64 % 400;
    Interval::new(lo, lo + len).unwrap()
}

/// Inserts row `i` of the scripts' workload.
pub fn insert(i: usize) -> Op {
    Op::Insert(i as i64, op_interval(i))
}

impl Script {
    /// `steps` after setup.
    pub fn new(name: &'static str, steps: Vec<Step>) -> Script {
        Script { name, steps, write_seed: 0x9E37 }
    }

    /// 128 one-insert transactions, with a checkpoint after every 24th,
    /// so crash indices also land inside checkpoints and after
    /// truncations.
    pub fn kill_anywhere() -> Script {
        let mut steps = Vec::new();
        for i in 0..128 {
            steps.push(Step::Txn(vec![insert(i)]));
            if (i + 1) % 24 == 0 {
                steps.push(Step::Checkpoint);
            }
        }
        Script::new("kill-anywhere", steps)
    }

    /// 30 two-insert transactions; every third checkpoints between its
    /// two inserts, so a fuzzy checkpoint must spare an open
    /// transaction's log records by construction.
    pub fn checkpoint_race() -> Script {
        let steps = (0..30)
            .map(|t| {
                let mut ops = vec![insert(2 * t)];
                if t % 3 == 0 {
                    ops.push(Op::Checkpoint);
                }
                ops.push(insert(2 * t + 1));
                Step::Txn(ops)
            })
            .collect();
        Script { write_seed: 0xC0FFEE, ..Script::new("ckpt-race", steps) }
    }

    /// A 300-row `insert_batch` into the empty tree, then 16 transactions
    /// that each delete a built row and insert a new one, with a
    /// checkpoint after the eighth.  Crash indices land among the build's
    /// unlogged page writes, in the flushes that publish them, on the
    /// logged meta writes and on DML over the built pages; the
    /// whole-transaction rule means none or all of the batch survives.
    pub fn bulk_build() -> Script {
        const BUILT: usize = 300;
        let mut steps = vec![Step::Txn(vec![Op::Batch(0, BUILT)])];
        for t in 0..16 {
            let built = 17 * t;
            steps.push(Step::Txn(vec![
                Op::Delete(built as i64, op_interval(built)),
                insert(BUILT + t),
            ]));
            if t == 7 {
                steps.push(Step::Checkpoint);
            }
        }
        Script { write_seed: 0xB17D, ..Script::new("bulk-build", steps) }
    }

    /// The registered script called `name`.
    pub fn named(name: &str) -> Script {
        match name {
            "kill-anywhere" => Script::kill_anywhere(),
            "ckpt-race" => Script::checkpoint_race(),
            "bulk-build" => Script::bulk_build(),
            _ => panic!("no script is named {name:?}"),
        }
    }

    /// Runs setup and the steps on a fresh pool over `rig`.  With `crash`,
    /// the plan is armed once setup is done, its write and sync indices
    /// counted from there.  Stops early only on [`Error::Crashed`]; any
    /// other error is returned.  Returns the oracle of what ran, and the
    /// clock's writes and syncs at the end of setup.  The pool is dropped
    /// (its flusher joined) before this returns.
    pub fn run(
        &self,
        rig: &Rig,
        wal: WalConfig,
        crash: Option<CrashPlan>,
    ) -> Result<(Oracle, [u64; 2])> {
        let tree = rig.create(wal)?;
        tree.db().commit()?;
        tree.db().checkpoint()?;
        let setup = [rig.clock.writes(), rig.clock.syncs()];
        if let Some(mut plan) = crash {
            plan.crash_at_write = plan.crash_at_write.map(|i| setup[0] + i);
            plan.crash_at_sync = plan.crash_at_sync.map(|i| setup[1] + i);
            rig.arm(plan);
        }
        let mut oracle = Oracle::default();
        for step in &self.steps {
            let done = match step {
                Step::Txn(ops) => oracle.run_txn(&tree, ops),
                Step::Checkpoint => tree.db().checkpoint(),
            };
            match done {
                Err(Error::Crashed) => break,
                other => other?,
            }
        }
        Ok((oracle, setup))
    }
}

/// Which device operation the machine dies at, counted from the end of
/// setup across both devices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum At {
    Write(u64),
    Sync(u64),
}

/// Everything that decides one crash: paste a panic's printed point into
/// [`replay`] to rerun it.  It prints as the Rust expression that builds
/// it, so the paste compiles with `CrashPoint`, `At`, `WalConfig` and
/// `FlushPolicy` in scope.  (Under a background flusher the write order
/// depends on the scheduler, so a replay may land elsewhere.)
#[derive(Clone, Copy)]
pub struct CrashPoint {
    pub script: &'static str,
    pub wal: WalConfig,
    pub at: At,
    /// Leading sectors of the dying write that persist.
    pub torn_sectors: usize,
    /// Seed of the coin each unsynced write flips to survive the cut.
    pub persist_seed: u64,
}

impl fmt::Debug for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let WalConfig { segment_pages, flush_policy } = self.wal;
        write!(
            f,
            "CrashPoint {{ script: {:?}, wal: WalConfig {{ segment_pages: {segment_pages}, \
             flush_policy: FlushPolicy::{flush_policy:?} }}, at: At::{:?}, \
             torn_sectors: {}, persist_seed: {} }}",
            self.script, self.at, self.torn_sectors, self.persist_seed
        )
    }
}

/// Reruns one crash point of a registered script: see [`check`].
pub fn replay(point: CrashPoint) -> bool {
    check(&Script::named(point.script), point)
}

/// Runs `script` on a fresh sweep rig, kills it at `point` (or cuts the
/// power after its last step if the index was never reached), reopens,
/// and verifies.  Returns whether the in-flight transaction survived.
fn check(script: &Script, point: CrashPoint) -> bool {
    let (write, sync) = match point.at {
        At::Write(i) => (Some(i), None),
        At::Sync(i) => (None, Some(i)),
    };
    let plan = CrashPlan {
        crash_at_write: write,
        crash_at_sync: sync,
        torn_sectors: point.torn_sectors,
        sector_bytes: SECTOR,
        persist_seed: point.persist_seed,
    };
    let rig = Rig::mem(PAGE, FRAMES);
    let (oracle, _) = script
        .run(&rig, point.wal, Some(plan))
        .unwrap_or_else(|e| panic!("{point:?}: only the simulated crash may stop a script: {e}"));
    rig.crash_now();
    let tree = rig.reopen().unwrap_or_else(|e| panic!("{point:?}: recovery failed: {e}"));
    oracle.verify(&tree, &format!("{point:?}"))
}

/// Kills `script` at every post-setup device write: cleanly, and torn at
/// each size a page's four sectors allow (1, 2 and 3 leading sectors of
/// the dying write persist), each variant under its own persistence seed.
/// Every size at every index means a record ending anywhere in the first
/// three sectors of the page it is flushed on gets a crash that keeps it.
/// Asserts at least `floor` crash points.
pub fn sweep_writes(script: &Script, wal: WalConfig, floor: u64) {
    let points = sweep(script, wal, At::Write, |rel| {
        let torn = |k: u64| 1 + ((rel + k) % 3) as usize;
        let variants = [0, torn(0), torn(1), torn(2)];
        (0..4).map(|v| (variants[v], rel * script.write_seed + v as u64)).collect()
    });
    assert!(points >= floor, "the sweep must cover >= {floor} crash points, got {points}");
}

/// Kills `script` at every post-setup sync barrier, under `seeds`
/// persistence seeds each: the dying sync destages nothing, so the whole
/// write cache settles by coin.  Returns the number of crash points.
pub fn sweep_syncs(script: &Script, wal: WalConfig, seeds: u64) -> u64 {
    sweep(script, wal, At::Sync, |rel| (0..seeds).map(|salt| (0, rel * SYNC_SEED + salt)).collect())
}

/// The sweep both kinds share: a dry run measures the post-setup span of
/// the operations `at` counts, then every `(torn_sectors, persist_seed)`
/// that `variants` lists per index is checked.  Prints one count line
/// and returns the number of crash points.
fn sweep(
    script: &Script,
    wal: WalConfig,
    at: fn(u64) -> At,
    variants: impl Fn(u64) -> Vec<(usize, u64)>,
) -> u64 {
    let dry = Rig::mem(PAGE, FRAMES);
    let (_, setup) = script.run(&dry, wal, None).expect("dry run");
    // The span runs through the dropped pool's closing flush: its
    // write-backs are killed like any other write, but the data-device
    // sync that ends it is left out.  Every log record is durable by
    // then, so a kill there only varies which of those write-backs of
    // committed pages a coin keeps, which the write sweep covers.
    let (span, unit) = match at(0) {
        At::Write(_) => (dry.clock.writes() - setup[0], "write indices"),
        At::Sync(_) => (dry.clock.syncs() - setup[1] - 1, "sync barriers"),
    };
    assert!(span > 0, "{}: the script must reach the device", script.name);

    let (mut points, mut survived) = (0u64, 0u64);
    for rel in 0..span {
        for (torn_sectors, persist_seed) in variants(rel) {
            let point =
                CrashPoint { script: script.name, wal, at: at(rel), torn_sectors, persist_seed };
            survived += u64::from(check(script, point));
            points += 1;
        }
    }
    // Some crash must land after a durable commit record but before
    // commit() returned, or the atomicity branch went untested.  Only a
    // deterministic write schedule guarantees that: a racing flusher
    // moves the commit record's index from run to run.
    if wal.flush_policy == FlushPolicy::Off {
        assert!(
            survived > 0,
            "{}: no crash point made the in-flight transaction durable",
            script.name
        );
    }
    eprintln!(
        "{} ({wal:?}): {points} crash points over {span} {unit}, \
         in-flight transaction survived {survived} times",
        script.name
    );
    points
}
