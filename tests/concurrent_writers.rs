//! Linearizability suite for the B-link write path.
//!
//! Three complementary attacks, all over seeded deterministic schedules:
//!
//! 1. **Deterministic interleavings** — a seeded scheduler interleaves
//!    whole operations from several logical sessions on one thread and
//!    checks *every* outcome (insert success, delete boolean, scan
//!    contents, entry count) against a `BTreeMap`-style oracle.  This
//!    pins the functional behavior of every code path (latch-free
//!    descent, move-right, two-phase splits, separator posting, root
//!    grows) under arbitrary operation orders.
//! 2. **Real concurrent schedules** — seeded per-thread op scripts run on
//!    real threads against trees on deliberately tiny, sharded pools
//!    (constant splits and evictions).  Threads own disjoint payload
//!    spaces, so the final state is schedule-independent: after the join
//!    the tree must equal the oracle exactly, pass `check_invariants`,
//!    and report the oracle's cardinality.  A reader thread runs scans
//!    *during* the chaos and checks the linearizability sandwich:
//!    everything committed before the schedule started is visible,
//!    nothing outside the schedule's universe ever appears.
//! 3. **Readers inside in-flight splits** — the B-link-specific window:
//!    between a split's two phases (right sibling published, parent
//!    separator not yet posted) the tree is searchable only through the
//!    split node's right link.  The `BTree::set_smo_probe` hook pauses a
//!    writer deterministically inside that exact window, where scans and
//!    point lookups — from the probe itself and from a parked real
//!    reader thread — must see every committed entry.
//!
//! The suite sizes itself to 1 000+ seeded schedules while staying
//! inside the `cargo test -q` budget.

mod common;

use common::golden::xorshift;
use common::sorted;
use ri_tree::btree::{BTree, SmoPhase};
use ri_tree::pagestore::{BufferPool, BufferPoolConfig, MemDisk};
use ri_tree::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

fn tiny_tree(seed: u64) -> (Arc<BufferPool>, BTree) {
    // 128-byte pages (leaf capacity 4 at arity 2) over 8 frames: every
    // few inserts split, every handful of deletes empties a leaf, and
    // the pool constantly evicts — the hostile regime for the protocol.
    let shards = 1 << (seed % 3); // 1, 2 or 4
    let pool =
        Arc::new(BufferPool::new(MemDisk::new(128), BufferPoolConfig::sharded(8, shards as usize)));
    let tree = BTree::create(Arc::clone(&pool), 2).unwrap();
    (pool, tree)
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(i64, i64, u64),
    /// Delete the session's own `n`-th still-live insert.
    DeleteOwn(usize),
    Scan(i64, i64),
}

/// Seeded per-session op script.  Sessions own disjoint payload spaces
/// (`session * 10_000 + i`), so any interleaving nets the same state.
fn session_script(seed: u64, session: u64, ops: usize) -> Vec<Op> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (session + 1);
    let mut script = Vec::with_capacity(ops);
    let mut net_live = 0usize;
    for i in 0..ops {
        let r = xorshift(&mut x);
        let a = (r % 24) as i64 - 12;
        let b = ((r >> 16) % 24) as i64 - 12;
        match r % 10 {
            0..=5 => {
                script.push(Op::Insert(a, b, session * 10_000 + i as u64));
                net_live += 1;
            }
            6..=7 if net_live > 0 => {
                script.push(Op::DeleteOwn((r >> 32) as usize));
                net_live -= 1;
            }
            _ => script.push(Op::Scan(a.min(b), a.max(b))),
        }
    }
    script
}

/// Runs one session's script against the shared tree, checking every
/// write outcome; returns the session's net surviving entries.
fn run_session(tree: &BTree, script: &[Op], check_scans: bool) -> BTreeSet<(i64, i64, u64)> {
    let mut live: Vec<(i64, i64, u64)> = Vec::new();
    for op in script {
        match *op {
            Op::Insert(a, b, p) => {
                tree.insert(&[a, b], p).unwrap();
                live.push((a, b, p));
            }
            Op::DeleteOwn(n) => {
                let (a, b, p) = live.remove(n % live.len());
                assert!(
                    tree.delete(&[a, b], p).unwrap(),
                    "own live entry ({a},{b},{p}) must be deletable"
                );
            }
            Op::Scan(lo, hi) => {
                if check_scans {
                    // Sandwich check only makes sense when this thread's
                    // own entries are the known-stable subset.
                    let got: BTreeSet<(i64, i64, u64)> = tree
                        .scan_range(&[lo, i64::MIN], &[hi, i64::MAX])
                        .map(|e| e.unwrap())
                        .map(|e| (e.key.col(0), e.key.col(1), e.payload))
                        .collect();
                    for &(a, b, p) in live.iter().filter(|&&(a, _, _)| a >= lo && a <= hi) {
                        assert!(
                            got.contains(&(a, b, p)),
                            "own committed entry ({a},{b},{p}) missing from concurrent scan"
                        );
                    }
                } else {
                    let _ = tree.scan_range(&[lo, i64::MIN], &[hi, i64::MAX]).count();
                }
            }
        }
    }
    live.into_iter().collect()
}

/// Attack 1: 600 seeded single-threaded interleavings of 4 sessions,
/// every outcome checked against the oracle after every operation batch.
#[test]
fn seeded_interleavings_match_oracle_exactly() {
    const SESSIONS: usize = 4;
    for seed in 0..600u64 {
        let (_pool, tree) = tiny_tree(seed);
        let scripts: Vec<Vec<Op>> =
            (0..SESSIONS as u64).map(|s| session_script(seed, s, 14)).collect();
        let mut cursors = [0usize; SESSIONS];
        let mut live: Vec<Vec<(i64, i64, u64)>> = vec![Vec::new(); SESSIONS];
        let mut oracle: BTreeSet<(i64, i64, u64)> = BTreeSet::new();
        let mut x = seed ^ 0xC0FF_EE00;
        loop {
            // Seeded scheduler: pick a session with work left.
            let pending: Vec<usize> =
                (0..SESSIONS).filter(|&s| cursors[s] < scripts[s].len()).collect();
            let Some(&s) = pending.get(xorshift(&mut x) as usize % pending.len().max(1)) else {
                break;
            };
            let op = scripts[s][cursors[s]];
            cursors[s] += 1;
            match op {
                Op::Insert(a, b, p) => {
                    tree.insert(&[a, b], p).unwrap();
                    live[s].push((a, b, p));
                    assert!(oracle.insert((a, b, p)), "payload spaces are disjoint");
                }
                Op::DeleteOwn(n) => {
                    let idx = n % live[s].len();
                    let (a, b, p) = live[s].remove(idx);
                    assert!(tree.delete(&[a, b], p).unwrap(), "schedule {seed}");
                    assert!(oracle.remove(&(a, b, p)));
                    // Deleting a second time must report false.
                    assert!(!tree.delete(&[a, b], p).unwrap(), "schedule {seed}");
                }
                Op::Scan(lo, hi) => {
                    let got: Vec<(i64, i64, u64)> = tree
                        .scan_range(&[lo, i64::MIN], &[hi, i64::MAX])
                        .map(|e| e.unwrap())
                        .map(|e| (e.key.col(0), e.key.col(1), e.payload))
                        .collect();
                    let want: Vec<(i64, i64, u64)> =
                        oracle.iter().copied().filter(|&(a, _, _)| a >= lo && a <= hi).collect();
                    assert_eq!(got, want, "schedule {seed}: scan [{lo},{hi}] diverged");
                }
            }
            assert_eq!(tree.entry_count().unwrap(), oracle.len() as u64, "schedule {seed}");
        }
        tree.check_invariants().unwrap_or_else(|e| panic!("schedule {seed}: {e}"));
        let final_state: Vec<(i64, i64, u64)> = tree
            .scan_all()
            .map(|e| e.unwrap())
            .map(|e| (e.key.col(0), e.key.col(1), e.payload))
            .collect();
        assert_eq!(final_state, oracle.iter().copied().collect::<Vec<_>>(), "schedule {seed}");
    }
}

/// Attack 2: 400 seeded schedules on real threads — 3 writers with
/// disjoint payload spaces plus one scanning reader, on tiny sharded
/// pools.  Final state must equal the oracle exactly.
#[test]
fn seeded_concurrent_schedules_converge_to_oracle() {
    const WRITERS: u64 = 3;
    for seed in 0..400u64 {
        let (_pool, tree) = tiny_tree(seed);
        // Pinned rows committed before the schedule: the reader's
        // known-visible subset (never touched by any writer).
        let pinned: Vec<(i64, i64, u64)> =
            (0..8).map(|i| (i as i64 * 3 - 12, i as i64, 90_000 + i)).collect();
        for &(a, b, p) in &pinned {
            tree.insert(&[a, b], p).unwrap();
        }
        let scripts: Vec<Vec<Op>> = (0..WRITERS).map(|s| session_script(seed, s, 16)).collect();
        let stop = AtomicBool::new(false);
        let mut nets: Vec<BTreeSet<(i64, i64, u64)>> = Vec::new();
        crossbeam::thread::scope(|scope| {
            let reader = {
                let tree = &tree;
                let stop = &stop;
                let pinned = &pinned;
                scope.spawn(move |_| {
                    while !stop.load(Ordering::Acquire) {
                        let got: BTreeSet<(i64, i64, u64)> = tree
                            .scan_all()
                            .map(|e| e.unwrap())
                            .map(|e| (e.key.col(0), e.key.col(1), e.payload))
                            .collect();
                        for &(a, b, p) in pinned {
                            assert!(got.contains(&(a, b, p)), "pinned ({a},{b},{p}) vanished");
                        }
                        for &(_, _, p) in &got {
                            assert!(
                                p >= 90_000 || (p / 10_000 < WRITERS && p % 10_000 < 16),
                                "foreign payload {p} appeared"
                            );
                        }
                    }
                })
            };
            let handles: Vec<_> = scripts
                .iter()
                .map(|script| {
                    let tree = &tree;
                    scope.spawn(move |_| run_session(tree, script, true))
                })
                .collect();
            nets = handles.into_iter().map(|h| h.join().unwrap()).collect();
            stop.store(true, Ordering::Release);
            reader.join().unwrap();
        })
        .unwrap();

        let mut oracle: BTreeSet<(i64, i64, u64)> = pinned.iter().copied().collect();
        for net in nets {
            oracle.extend(net);
        }
        tree.check_invariants().unwrap_or_else(|e| panic!("schedule {seed}: {e}"));
        assert_eq!(tree.entry_count().unwrap(), oracle.len() as u64, "schedule {seed}");
        let final_state: Vec<(i64, i64, u64)> = tree
            .scan_all()
            .map(|e| e.unwrap())
            .map(|e| (e.key.col(0), e.key.col(1), e.payload))
            .collect();
        assert_eq!(final_state, oracle.into_iter().collect::<Vec<_>>(), "schedule {seed}");
    }
}

/// Split storm: every writer hammers the same dense key region, so
/// leaves fill and split under maximal contention (concurrent two-phase
/// splits, separator posts racing into shared parents, real right-link
/// chases), then everything is deleted again under the same contention
/// (emptied leaves stay linked and keep routing).
#[test]
fn split_and_merge_storm_under_contention() {
    let pool = Arc::new(BufferPool::new(MemDisk::new(128), BufferPoolConfig::sharded(8, 4)));
    let tree = BTree::create(Arc::clone(&pool), 2).unwrap();
    const THREADS: u64 = 6;
    const PER: u64 = 300;
    crossbeam::thread::scope(|s| {
        for t in 0..THREADS {
            let tree = &tree;
            s.spawn(move |_| {
                for i in 0..PER {
                    // Same dense key region for all threads.
                    tree.insert(&[(i / 4) as i64, (i % 4) as i64], t * PER + i).unwrap();
                }
            });
        }
    })
    .unwrap();
    tree.check_invariants().unwrap();
    assert_eq!(tree.entry_count().unwrap(), THREADS * PER);
    let latch_stats = pool.latches().stats();
    assert!(latch_stats.splits > 0, "the storm must trigger structure modifications");
    assert_eq!(
        latch_stats.splits, latch_stats.incomplete_smo_completions,
        "every split's separator post (or root grow) must have completed"
    );
    // Tear it all down concurrently: every delete must succeed exactly once.
    crossbeam::thread::scope(|s| {
        for t in 0..THREADS {
            let tree = &tree;
            s.spawn(move |_| {
                for i in 0..PER {
                    assert!(tree.delete(&[(i / 4) as i64, (i % 4) as i64], t * PER + i).unwrap());
                }
            });
        }
    })
    .unwrap();
    tree.check_invariants().unwrap();
    assert_eq!(tree.entry_count().unwrap(), 0);
}

/// Attack 3a (deterministic): the SMO probe fires in the window between
/// a split's two phases — right sibling published and linked, parent
/// separator **not yet posted** — with no latches held.  Scans and point
/// lookups executed from inside that window must already see every
/// committed entry: reaching the new sibling requires following the
/// split node's right link, which is exactly the B-link property the
/// refactor exists to provide.  Deterministic: the probe runs on the
/// inserting thread, so no scheduler timing is involved.
#[test]
fn readers_inside_split_windows_see_every_committed_entry() {
    for seed in 0..8u64 {
        let shards = 1 << (seed % 3);
        let pool = Arc::new(BufferPool::new(
            MemDisk::new(128),
            BufferPoolConfig::sharded(8, shards as usize),
        ));
        let tree = Arc::new(BTree::create(Arc::clone(&pool), 2).unwrap());
        let committed: Arc<Mutex<Vec<(i64, i64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let windows = Arc::new(AtomicU64::new(0));
        {
            // The probe captures its own handle to the tree (the cycle is
            // fine in a test) and replays reads inside every window.
            let probe_tree = Arc::clone(&tree);
            let committed = Arc::clone(&committed);
            let windows = Arc::clone(&windows);
            tree.set_smo_probe(Some(Arc::new(move |phase| {
                let tree = &probe_tree;
                windows.fetch_add(1, Ordering::SeqCst);
                let known = committed.lock().unwrap().clone();
                let seen: BTreeSet<(i64, i64, u64)> = tree
                    .scan_all()
                    .map(|e| e.unwrap())
                    .map(|e| (e.key.col(0), e.key.col(1), e.payload))
                    .collect();
                for &(a, b, p) in &known {
                    assert!(
                        seen.contains(&(a, b, p)),
                        "({a},{b},{p}) invisible inside window {phase:?}"
                    );
                    assert!(
                        tree.contains(&[a, b], p).unwrap(),
                        "({a},{b},{p}) not found by contains inside window {phase:?}"
                    );
                }
                if let SmoPhase::LeafSplitLinked { left, right }
                | SmoPhase::InternalSplitLinked { left, right } = phase
                {
                    assert_ne!(left, right);
                }
            })));
        }
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for i in 0..120u64 {
            let r = xorshift(&mut x);
            let (a, b) = ((r % 16) as i64, ((r >> 16) % 16) as i64);
            tree.insert(&[a, b], i).unwrap();
            committed.lock().unwrap().push((a, b, i));
            if r % 5 == 0 {
                // Deletes inside the schedule too: emptied leaves must
                // keep routing for the in-window readers.
                let victim = {
                    let mut c = committed.lock().unwrap();
                    let idx = (r >> 32) as usize % c.len();
                    c.swap_remove(idx)
                };
                assert!(tree.delete(&[victim.0, victim.1], victim.2).unwrap());
            }
        }
        assert!(
            windows.load(Ordering::SeqCst) > 0,
            "seed {seed}: the schedule never opened a split window"
        );
        tree.set_smo_probe(None);
        tree.check_invariants().unwrap();
    }
}

/// Attack 3b (real threads): a writer is *parked* inside the first few
/// split windows while a genuinely concurrent reader thread scans the
/// half-split tree, then releases it.  The rendezvous makes the
/// interleaving deterministic — the reader provably runs while the
/// separator post is pending — without trusting the scheduler.
#[test]
fn concurrent_reader_parked_inside_split_windows() {
    const PARKED_WINDOWS: u64 = 12;

    #[derive(Default)]
    struct Gate {
        state: Mutex<GateState>,
        cv: Condvar,
    }
    #[derive(Default)]
    struct GateState {
        open: bool,   // a writer is parked inside a window
        served: bool, // the reader finished its in-window pass
        done: bool,   // no more windows will open
    }

    let pool = Arc::new(BufferPool::new(MemDisk::new(128), BufferPoolConfig::sharded(8, 2)));
    let tree = Arc::new(BTree::create(Arc::clone(&pool), 2).unwrap());
    let committed: Arc<Mutex<BTreeSet<(i64, i64, u64)>>> = Arc::new(Mutex::new(BTreeSet::new()));
    let gate = Arc::new(Gate::default());
    let windows = Arc::new(AtomicU64::new(0));
    {
        let gate = Arc::clone(&gate);
        let windows = Arc::clone(&windows);
        tree.set_smo_probe(Some(Arc::new(move |_| {
            if windows.fetch_add(1, Ordering::SeqCst) >= PARKED_WINDOWS {
                return;
            }
            let mut st = gate.state.lock().unwrap();
            st.open = true;
            st.served = false;
            gate.cv.notify_all();
            // Park until the reader has scanned (bounded, so a failing
            // reader cannot hang the suite forever).
            let deadline = std::time::Duration::from_secs(10);
            let (guard, _timeout) =
                gate.cv.wait_timeout_while(st, deadline, |st| !st.served).unwrap();
            let mut st = guard;
            st.open = false;
        })));
    }

    crossbeam::thread::scope(|s| {
        let reader = {
            let tree = Arc::clone(&tree);
            let committed = Arc::clone(&committed);
            let gate = Arc::clone(&gate);
            s.spawn(move |_| loop {
                let mut st = gate.state.lock().unwrap();
                while !st.open && !st.done {
                    st = gate.cv.wait(st).unwrap();
                }
                if st.done {
                    return;
                }
                drop(st);
                // The writer is parked mid-split: scan the half-split tree.
                let known = committed.lock().unwrap().clone();
                let seen: BTreeSet<(i64, i64, u64)> = tree
                    .scan_all()
                    .map(|e| e.unwrap())
                    .map(|e| (e.key.col(0), e.key.col(1), e.payload))
                    .collect();
                for &(a, b, p) in &known {
                    assert!(seen.contains(&(a, b, p)), "({a},{b},{p}) lost mid-split");
                }
                let mut st = gate.state.lock().unwrap();
                st.served = true;
                gate.cv.notify_all();
            })
        };
        // The writer: ascending keys split constantly.
        for i in 0..400u64 {
            let (a, b) = ((i / 4) as i64, (i % 4) as i64);
            tree.insert(&[a, b], i).unwrap();
            committed.lock().unwrap().insert((a, b, i));
        }
        let mut st = gate.state.lock().unwrap();
        st.done = true;
        gate.cv.notify_all();
        drop(st);
        reader.join().unwrap();
    })
    .unwrap();

    assert!(windows.load(Ordering::SeqCst) >= PARKED_WINDOWS, "not enough split windows opened");
    tree.set_smo_probe(None);
    tree.check_invariants().unwrap();
    assert_eq!(tree.entry_count().unwrap(), committed.lock().unwrap().len() as u64);
}

/// Attack 3c (deterministic): a top-level *sibling* split racing a
/// pending root grow.  Old root R splits into R→S; the splitter parks
/// between phase 1 (S reachable) and its root grow.  A second writer
/// fills and splits S — its hint stack is exhausted, yet S is not the
/// root and **no parent level exists yet**.  The post must wait for the
/// pending grow and then relocate into the new root; posting at S's own
/// level (or asserting an ancestor exists) would corrupt the tree.
#[test]
fn sibling_split_waits_for_a_pending_root_grow() {
    #[derive(Default)]
    struct Gate {
        state: Mutex<bool>, // true = released
        cv: Condvar,
    }

    // 128-byte pages at arity 1: leaf capacity 5.
    let pool = Arc::new(BufferPool::new(MemDisk::new(128), BufferPoolConfig::sharded(8, 1)));
    let tree = Arc::new(BTree::create(Arc::clone(&pool), 1).unwrap());
    for i in 0..5i64 {
        tree.insert(&[i], i as u64).unwrap(); // fill the root leaf exactly
    }
    let gate = Arc::new(Gate::default());
    let windows = Arc::new(AtomicU64::new(0));
    {
        let gate = Arc::clone(&gate);
        let windows = Arc::clone(&windows);
        tree.set_smo_probe(Some(Arc::new(move |_| {
            if windows.fetch_add(1, Ordering::SeqCst) == 0 {
                // Park only the FIRST split (the root leaf's): its grow
                // stays pending while the sibling writer proceeds.
                let st = gate.state.lock().unwrap();
                let deadline = std::time::Duration::from_secs(10);
                drop(gate.cv.wait_timeout_while(st, deadline, |released| !*released).unwrap());
            }
        })));
    }

    let b_done = Arc::new(AtomicBool::new(false));
    crossbeam::thread::scope(|s| {
        let grower = {
            let tree = Arc::clone(&tree);
            // Splits the root leaf R into R→S, parks pre-grow.
            s.spawn(move |_| tree.insert(&[5], 5).unwrap())
        };
        while windows.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now(); // until the grower is parked
        }
        let sibling_writer = {
            let tree = Arc::clone(&tree);
            let b_done = Arc::clone(&b_done);
            s.spawn(move |_| {
                // 6 and 7 fill S; 8 splits it — a top-level sibling split
                // whose parent level does not exist yet.
                for i in 6..9i64 {
                    tree.insert(&[i], i as u64).unwrap();
                }
                b_done.store(true, Ordering::SeqCst);
            })
        };
        // Deterministic rendezvous: wait until the sibling writer has
        // provably entered the pending-grow wait path (the counted
        // branch in `grow_or_relocate`).  The writer *cannot* finish
        // while the grow is pending — the level its separator belongs
        // to does not exist — so the negative assertion is a protocol
        // guarantee, not a timing assumption.
        while pool.latches().stats().pending_root_grow_waits == 0 {
            assert!(!b_done.load(Ordering::SeqCst), "separator posted into a nonexistent level");
            std::thread::yield_now();
        }
        assert!(!b_done.load(Ordering::SeqCst), "separator posted into a nonexistent level");
        {
            let mut st = gate.state.lock().unwrap();
            *st = true;
            gate.cv.notify_all();
        }
        grower.join().unwrap();
        sibling_writer.join().unwrap();
    })
    .unwrap();

    assert!(b_done.load(Ordering::SeqCst));
    tree.set_smo_probe(None);
    tree.check_invariants().unwrap();
    let got: Vec<u64> = tree.scan_all().map(|e| e.unwrap().payload).collect();
    assert_eq!(got, (0..9).collect::<Vec<_>>(), "all nine inserts survive the race");
}

/// RI-tree level: concurrent inserts and deletes through the full stack
/// (two indexes, parameter latch) with intersections racing them, then
/// exact oracle equality and twin indexes once quiescent.
#[test]
fn ritree_concurrent_sessions_match_naive_oracle() {
    for seed in 0..12u64 {
        let pool = Arc::new(BufferPool::new(
            MemDisk::new(DEFAULT_PAGE_SIZE),
            BufferPoolConfig::sharded(64, 4),
        ));
        let db = Arc::new(Database::create(pool).unwrap());
        let tree = RiTree::create(Arc::clone(&db), "t").unwrap();
        // Pinned intervals inserted before the writers start.
        let pinned: Vec<(Interval, i64)> =
            (0..20).map(|i| (Interval::new(i * 97, i * 97 + 300).unwrap(), 900_000 + i)).collect();
        for &(iv, id) in &pinned {
            tree.insert(iv, id).unwrap();
        }
        const WRITERS: u64 = 4;
        let scripts: Vec<Vec<(Interval, i64, bool)>> = (0..WRITERS)
            .map(|w| {
                let mut x = seed.wrapping_mul(0xA24B_AED4_963E_E407) ^ w;
                (0..30)
                    .map(|i| {
                        let r = xorshift(&mut x);
                        let l = (r % 4000) as i64;
                        let iv = Interval::new(l, l + ((r >> 40) % 500) as i64).unwrap();
                        // Delete roughly a third of this session's inserts.
                        ((iv), (w * 1_000 + i) as i64, r % 3 == 0)
                    })
                    .collect()
            })
            .collect();
        let stop = AtomicBool::new(false);
        let pinned_ref = &pinned;
        let scripts_ref = &scripts;
        let tree_ref = &tree;
        let stop_ref = &stop;
        crossbeam::thread::scope(|scope| {
            let reader = scope.spawn(move |_| {
                while !stop_ref.load(Ordering::Acquire) {
                    let q = Interval::new(0, 5000).unwrap();
                    let ids: BTreeSet<i64> =
                        tree_ref.intersection(q).unwrap().into_iter().collect();
                    for &(iv, id) in pinned_ref {
                        if iv.intersects(&q) {
                            assert!(ids.contains(&id), "pinned id {id} vanished mid-run");
                        }
                    }
                }
            });
            let writers: Vec<_> = scripts_ref
                .iter()
                .map(|script| {
                    scope.spawn(move |_| {
                        for &(iv, id, delete_again) in script {
                            tree_ref.insert(iv, id).unwrap();
                            if delete_again {
                                assert!(tree_ref.delete(iv, id).unwrap());
                            }
                        }
                    })
                })
                .collect();
            for w in writers {
                w.join().unwrap();
            }
            stop.store(true, Ordering::Release);
            reader.join().unwrap();
        })
        .unwrap();

        // Quiescent: every query must equal the naive oracle.
        let mut oracle: Vec<(Interval, i64)> = pinned.clone();
        for script in &scripts {
            for &(iv, id, delete_again) in script {
                if !delete_again {
                    oracle.push((iv, id));
                }
            }
        }
        for q in [(0i64, 5000i64), (100, 400), (1900, 2100), (4400, 4400)] {
            let q = Interval::new(q.0, q.1).unwrap();
            let got = sorted(tree.intersection(q).unwrap());
            let mut want: Vec<i64> =
                oracle.iter().filter(|(iv, _)| iv.intersects(&q)).map(|&(_, id)| id).collect();
            want.sort_unstable();
            assert_eq!(got, want, "seed {seed}: query {q} diverged");
        }
        common::twins::assert_twins(&tree, &format!("seed {seed}"));
        assert_eq!(tree.count().unwrap(), oracle.len() as u64, "seed {seed}");
    }
}
