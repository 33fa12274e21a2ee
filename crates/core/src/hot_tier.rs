//! A read-through in-memory hot tier over the paged [`RiTree`].
//!
//! The RI-tree pays a relational B-tree descent — buffer-pool page
//! accesses — on every query, even when the working set is a handful of
//! hot domain regions.  [`HotTier`] puts [`HintIndex`]es (the
//! hierarchical comparison-free interval index from `ri-mem`) in front
//! of the tree: queries that land entirely on *resident* domain blocks
//! are answered from memory without touching the pool at all.
//!
//! An answer keeps [`RiTree::intersection`]'s contract: each intersecting
//! id exactly once, in an order fixed by the tier's resident blocks, the
//! tree and the query, and not sorted ([`HotTier::intersection`] gives the
//! order of each path).  A caller that wants ascending ids sorts with
//! [`ri_mem::sort::sort_ids`].
//!
//! # Block-grained read-through caching
//!
//! The configured domain (default: the paper's `[0, 2^20)`) splits into
//! equal *blocks* of `2^block_bits` values.  The block is the unit of
//! admission, of eviction and of storage: a *resident* block owns a copy
//! of every live interval intersecting it, so a query whose span touches
//! only resident blocks can be answered exactly from memory.  On a miss,
//! the tier runs the query against the tree (one block-aligned fetch
//! covering the query's span), returns the filtered answer, and *may*
//! install the fetched blocks:
//!
//! * **Admission is 2Q-style with a frequency gate**: a block is
//!   admitted on its second miss while on the ghost list, so one-off
//!   probes into cold regions don't thrash the budget — only
//!   re-referenced blocks earn residency.  Once the tier is at budget,
//!   a candidate must additionally be touched at least twice as often
//!   (per a TinyLFU-style decaying counter), and at least 2 more times,
//!   than the weakest resident block: under a skewed stream the steady
//!   tail would otherwise keep re-qualifying via the ghost list and
//!   churn hot blocks out.  The ratio pays where the hot set stays put.
//!   When it moves, a newly hot block must first reach twice the count
//!   of a resident that is only decaying, so the tier follows the move
//!   more slowly, and a block touched between one and two times as often
//!   as the weakest resident stays out.
//! * **Eviction is lowest-frequency-first** on the same decaying
//!   counters the gate uses: when the cached-interval budget is
//!   exceeded, the least-touched resident block goes (ties broken by
//!   block number, keeping runs deterministic).  Using one metric for
//!   both decisions means an admitted block displaces exactly the
//!   block it beat at the gate, so within one decision admission and
//!   eviction agree.  Across decisions, two near-equal blocks at the
//!   budget boundary could still trade places on every other miss, each
//!   swap a span fetch and a block build that gains nothing.  The
//!   gate's ratio stops that: a fixed margin would sit inside the
//!   counters' noise, whose scale varies with the traffic.
//!
//! **Blocks own their entries.**  A resident block is a pair of small
//! HINTs over the block's own `2^block_bits` values: `own` holds the
//! intervals whose (domain-clamped) lower bound lies in the block,
//! `carry` those that start in an earlier block and reach into this one —
//! HINT's originals / replicas split, applied one level up.  Each is
//! built in bulk from the admission's snapshot
//! ([`HintIndex::build_clipped`]: one radix-sorted pass, every partition's
//! lists allocated at their exact length and in partition order) and
//! edited item by item by DML afterwards ([`HintIndex::insert_clipped`] /
//! [`HintIndex::delete_clipped`]); either way an interval is registered
//! under its part inside the block and keeps its bounds.  A hit over
//! blocks `first..=last` is `carry(first)` plus `own(b)` for every `b`,
//! scanned with the query's bounds into one buffer and returned in that
//! order, unsorted, as [`RiTree::intersection`] returns its plan order.
//! That is exactly-once and still comparison-free: an interval meeting the
//! query starts either inside the span — and is found in the `own` of the
//! one block it starts in — or before `first`, in which case it reaches
//! into `first` and is found in that block's `carry`; and within a block
//! the clipped part meets the query iff the interval does.  An interval
//! meeting `k` resident blocks is stored `k` times and counted once:
//! `cached_intervals`, which the budget and the gate read, is the number
//! of *distinct* cached intervals.  It moves by ±1 on DML and, when a
//! block is installed or evicted, by the number of its entries no other
//! resident block holds — a pass over the few entries that reach out of
//! the block (`carry`, and a stab of `own` at the block's last value),
//! never over all of them.
//!
//! **What the lock covers.**  One mutex guards the policy state (ghost
//! list, frequencies, counters), the map of resident blocks, and the
//! entries while DML edits them or a hit scans them.  An admission's tree
//! fetch, the building of its blocks from the fetched snapshot and the
//! freeing of evicted blocks all run with the lock released: installing
//! is a map insert plus the counting pass above, evicting a map removal
//! plus the same pass, and the victim is dropped by whoever evicted it
//! after unlocking.  Measured on the repo benchmark's `read_zipf_tier`
//! under the `ADMIT_RATIO` gate (1 M rows, 2 cores; medians of the
//! 198–209 admissions, nearly all of one block, made in one instrumented
//! run each of seeds 7, 8 and 11), an admission takes ≈ 8–12 ms: ≈ 0.6
//! fetching (index-only), ≈ 0.15 dealing the snapshot into lists, ≈ 6.4–8.9
//! building both HINTs, ≈ 0.6 under the lock; most evict nothing, so the
//! median freeing time is 0 (mean ≈ 0.5).  Filling a block triple by triple
//! instead takes about three times as long (`cargo bench --bench micro`,
//! `hint/block_build_*`), and leaves its partitions, grown by `push`,
//! scattered in memory for every later hit to walk.
//! (`crates/bench/benches/tier_admission.rs` prices an admission and,
//! with a polling second thread, the lock hold.)
//!
//! # Coherence: the write path, not vacuum
//!
//! The B-link tree's deletes never reclaim pages, so there is no vacuum
//! pass to hang invalidation on — and none is needed.  All DML must go
//! through the tier's [`HotTier::insert`] / [`HotTier::delete`]
//! wrappers (that is the contract).  A writer first applies the tree
//! operation, then — under the tier lock — bumps an *epoch counter* and
//! updates the resident blocks in place: an insert lands in every
//! resident block it meets, a delete leaves every one.  Admissions read
//! the epoch before their unlocked tree fetch and install only if it is
//! unchanged, so a fetch that raced a writer is discarded (the query
//! still returns its — valid at fetch time — answer).  Two races remain
//! at an unchanged epoch, and both are closed by asking the blocks what
//! they hold: a writer whose tree operation a fetch already saw adds its
//! triple only to the blocks that lack it (and counts it once), and of
//! two admissions of one block whose fetches overlapped the second finds
//! the block resident and is discarded (counted under
//! `aborted_admissions`).  Hits scan under the same lock the writers
//! update through, so a query through the tier can never return a
//! deleted interval or miss a committed insert; `tests/hot_tier.rs`
//! stress-tests exactly that contract under concurrent DML.
//!
//! Open-ended intervals (Section 4.6's `now`/∞) have query-dependent
//! bounds and are never cached; while any are stored, every query
//! bypasses the tier.  Intervals reaching outside the configured
//! domain are cached with their bounds clamped to it — equivalent for
//! every in-domain query, and queries outside the domain bypass.

use crate::interval::Interval;
use crate::tree::{OpenEnd, RiTree};
use ri_mem::HintIndex;
use ri_pagestore::Result;
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

/// Every this many block touches, all frequency counters halve (the
/// TinyLFU aging step keeping the admission gate adaptive).
const FREQ_DECAY_PERIOD: u64 = 2048;

/// At budget, a candidate block is admitted only if its touch counter is
/// at least this multiple of the weakest resident block's (and at least 2
/// above it).  The counters' scale grows with [`FREQ_DECAY_PERIOD`] and
/// shrinks with the number of blocks sharing the traffic, so a fixed
/// margin sits inside their noise; a ratio does not, and 2 is the factor
/// by which every counter ages each period.  The floor of 2 above binds
/// only while the weakest count is 0 or 1 — a cold tier, or just after a
/// halving — where a ratio of such small counts is one touch of noise.
const ADMIT_RATIO: u32 = 2;

/// Geometry and budget of a [`HotTier`].
#[derive(Clone, Copy, Debug)]
pub struct HotTierConfig {
    /// Lowest cacheable domain value.
    pub domain_lower: i64,
    /// The cacheable domain spans `2^domain_bits` values (default 20,
    /// the paper's data space).
    pub domain_bits: u32,
    /// Blocks — the admission/eviction grain — span `2^block_bits`
    /// values (default 14: 64 blocks over the paper domain).
    pub block_bits: u32,
    /// Maximum cached intervals; lowest-frequency blocks are evicted
    /// beyond it.
    pub capacity: usize,
    /// Ghost-list length for 2Q admission: how many recently-missed
    /// blocks are remembered as admission candidates.
    pub ghost_capacity: usize,
}

impl Default for HotTierConfig {
    fn default() -> HotTierConfig {
        HotTierConfig {
            domain_lower: 0,
            domain_bits: 20,
            block_bits: 14,
            capacity: 32_768,
            ghost_capacity: 32,
        }
    }
}

impl HotTierConfig {
    /// Default geometry with an explicit interval budget.
    pub fn with_capacity(capacity: usize) -> HotTierConfig {
        HotTierConfig { capacity, ..HotTierConfig::default() }
    }
}

/// Counters describing a [`HotTier`]'s behaviour so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HotTierStats {
    /// Queries answered entirely from resident blocks.
    pub hits: u64,
    /// Queries that went to the tree (span not fully resident).
    pub misses: u64,
    /// Queries that skipped the tier (open intervals stored, or the
    /// query leaves the configured domain).
    pub bypasses: u64,
    /// Blocks admitted to residency.
    pub admissions: u64,
    /// Admissions discarded because a writer raced the fetch, plus blocks
    /// discarded because an overlapping admission installed them first.
    pub aborted_admissions: u64,
    /// Blocks evicted over budget (lowest frequency first).
    pub evicted_blocks: u64,
    /// Cached entries removed by write-path deletes.
    pub invalidations: u64,
    /// Intervals currently cached.
    pub cached_intervals: usize,
    /// Blocks currently resident.
    pub resident_blocks: usize,
}

/// A cached `(lower, upper, id)`, bounds clamped to the tier's domain.
type Triple = (i64, i64, i64);

/// One resident block's entries: every live interval meeting the block,
/// split by where it starts, in two HINTs over the block's own values,
/// built in bulk at admission ([`HintIndex::build_clipped`]).  An interval
/// is registered under its part inside the block; the stored triple keeps
/// its bounds.
struct Block {
    /// Intervals whose lower bound lies in this block.
    own: HintIndex,
    /// Intervals that start in an earlier block and reach into this one.
    carry: HintIndex,
}

impl Block {
    /// The index that holds (or would hold) an interval starting at `lower`.
    fn side(&self, lower: i64) -> &HintIndex {
        if lower >= self.own.domain().0 {
            &self.own
        } else {
            &self.carry
        }
    }

    fn side_mut(&mut self, lower: i64) -> &mut HintIndex {
        if lower >= self.own.domain().0 {
            &mut self.own
        } else {
            &mut self.carry
        }
    }

    fn contains(&self, (cl, cu, id): Triple) -> bool {
        self.side(cl).contains(cl, cu, id)
    }

    fn insert(&mut self, (cl, cu, id): Triple) {
        self.side_mut(cl).insert_clipped(cl, cu, id);
    }

    fn delete(&mut self, (cl, cu, id): Triple) -> bool {
        self.side_mut(cl).delete_clipped(cl, cu, id)
    }

    fn len(&self) -> usize {
        self.own.len() + self.carry.len()
    }

    /// The stored triples that may be cached in other blocks too: all of
    /// `carry`, and what of `own` covers the block's last value (a stab —
    /// no walk over the intervals that end inside the block).
    fn reaching_out(&self) -> impl Iterator<Item = Triple> {
        let (lo, hi) = self.own.domain();
        self.own
            .intersecting_triples(hi, hi)
            .into_iter()
            .chain(self.carry.intersecting_triples(lo, hi))
    }
}

struct TierState {
    /// Resident blocks and their entries.
    resident: HashMap<u64, Block>,
    /// Distinct intervals cached in `resident` (an interval meeting
    /// several resident blocks is stored in each and counted once).
    cached: usize,
    /// 2Q ghost list: recently missed, not (yet) admitted blocks.
    ghosts: VecDeque<u64>,
    /// TinyLFU-style decaying touch counters per block (hits and
    /// misses alike); at budget, admission requires a candidate to be
    /// touched [`ADMIT_RATIO`] times as often as the weakest resident
    /// block.
    freq: HashMap<u64, u32>,
    /// Block touches since the last halving of `freq`.
    freq_touches: u64,
    /// Bumped by every write; admissions installing across an epoch
    /// change are discarded.
    epoch: u64,
    hits: u64,
    misses: u64,
    bypasses: u64,
    admissions: u64,
    aborted_admissions: u64,
    evicted_blocks: u64,
    invalidations: u64,
}

/// The read-through hot tier; see the module docs for the design.
///
/// All methods take `&self`; the tier is `Sync` and meant to be shared
/// (e.g. in an `Arc`) between reader and writer threads.  **Contract:**
/// every insert/delete against the underlying tree goes through
/// [`HotTier::insert`] / [`HotTier::delete`], and each `(interval, id)` pair is live
/// at most once — the same uniqueness the RI-tree's disjoint query
/// branches already assume.
pub struct HotTier {
    tree: RiTree,
    cfg: HotTierConfig,
    state: Mutex<TierState>,
}

impl HotTier {
    /// Wraps `tree` with an empty tier.
    ///
    /// # Panics
    /// Panics on a degenerate geometry (`block_bits` of 0 or above
    /// `domain_bits`, `domain_bits` outside `[1, 40]`, a domain that
    /// overflows `i64`, or a zero capacity).
    pub fn new(tree: RiTree, cfg: HotTierConfig) -> HotTier {
        assert!((1..=40).contains(&cfg.domain_bits), "domain bits outside 1..=40");
        assert!(
            cfg.domain_lower.checked_add(1i64 << cfg.domain_bits).is_some(),
            "domain overflows"
        );
        assert!(
            (1..=cfg.domain_bits).contains(&cfg.block_bits),
            "block bits outside 1..=domain_bits"
        );
        assert!(cfg.capacity > 0, "zero interval budget");
        HotTier {
            tree,
            cfg,
            state: Mutex::new(TierState {
                resident: HashMap::new(),
                cached: 0,
                ghosts: VecDeque::new(),
                freq: HashMap::new(),
                freq_touches: 0,
                epoch: 0,
                hits: 0,
                misses: 0,
                bypasses: 0,
                admissions: 0,
                aborted_admissions: 0,
                evicted_blocks: 0,
                invalidations: 0,
            }),
        }
    }

    /// The wrapped tree (read-only access; route DML through the tier).
    pub fn tree(&self) -> &RiTree {
        &self.tree
    }

    /// Unwraps the tier, returning the tree.
    pub fn into_tree(self) -> RiTree {
        self.tree
    }

    /// Current counters.
    pub fn stats(&self) -> HotTierStats {
        let st = self.state.lock().unwrap();
        HotTierStats {
            hits: st.hits,
            misses: st.misses,
            bypasses: st.bypasses,
            admissions: st.admissions,
            aborted_admissions: st.aborted_admissions,
            evicted_blocks: st.evicted_blocks,
            invalidations: st.invalidations,
            cached_intervals: st.cached,
            resident_blocks: st.resident.len(),
        }
    }

    // ------------------------------------------------------------------
    // Write path: tree first, then the cache under the epoch
    // ------------------------------------------------------------------

    /// Inserts through the tier: the tree operation, then the cache
    /// update (the interval lands in every resident block it meets,
    /// immediately).
    pub fn insert(&self, iv: Interval, id: i64) -> Result<()> {
        self.tree.insert(iv, id)?;
        self.cache_insert(iv, id);
        Ok(())
    }

    /// Deletes through the tier: the tree operation, then cache
    /// invalidation of the exact entry in every resident block.
    pub fn delete(&self, iv: Interval, id: i64) -> Result<bool> {
        let deleted = self.tree.delete(iv, id)?;
        if deleted {
            self.cache_delete(iv, id);
        }
        Ok(deleted)
    }

    /// The cache half of [`HotTier::insert`].  The tree operation ran
    /// before the lock is taken here, so an admission may have fetched the
    /// row and installed it already: the triple is added only where it is
    /// missing, and counted only if no resident block held it.
    fn cache_insert(&self, iv: Interval, id: i64) {
        let mut st = self.state.lock().unwrap();
        st.epoch += 1;
        let mut evicted = Vec::new();
        if let Some((cl, cu)) = self.clamp(iv) {
            let (mut held, mut added) = (false, false);
            for b in self.block_of(cl)..=self.block_of(cu) {
                if let Some(block) = st.resident.get_mut(&b) {
                    if block.contains((cl, cu, id)) {
                        held = true;
                    } else {
                        block.insert((cl, cu, id));
                        added = true;
                    }
                }
            }
            if added && !held {
                st.cached += 1;
                evicted = self.evict_over_budget(&mut st);
            }
        }
        drop(st);
        drop(evicted); // freed with the lock released
    }

    /// The cache half of [`HotTier::delete`]: a block admitted after the
    /// tree operation never held the triple, so it counts as removed if
    /// any resident block did.
    fn cache_delete(&self, iv: Interval, id: i64) {
        let mut st = self.state.lock().unwrap();
        st.epoch += 1;
        if let Some((cl, cu)) = self.clamp(iv) {
            let mut removed = false;
            for b in self.block_of(cl)..=self.block_of(cu) {
                if let Some(block) = st.resident.get_mut(&b) {
                    removed |= block.delete((cl, cu, id));
                }
            }
            if removed {
                st.cached -= 1;
                st.invalidations += 1;
            }
        }
    }

    /// Inserts an open-ended interval (never cached; while any are
    /// stored every query bypasses the tier).
    pub fn insert_open(&self, lower: i64, end: OpenEnd, id: i64) -> Result<()> {
        self.tree.insert_open(lower, end, id)?;
        self.state.lock().unwrap().epoch += 1;
        Ok(())
    }

    /// Deletes an open-ended interval.
    pub fn delete_open(&self, lower: i64, end: OpenEnd, id: i64) -> Result<bool> {
        let deleted = self.tree.delete_open(lower, end, id)?;
        if deleted {
            self.state.lock().unwrap().epoch += 1;
        }
        Ok(deleted)
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Intersection query through the tier: the ids
    /// [`RiTree::intersection`] reports, minus the page accesses on a hit,
    /// under the same contract:
    ///
    /// * each intersecting id appears exactly once;
    /// * the order depends only on the tier's resident blocks, the tree
    ///   and the query.  A hit over blocks `first..=last` returns
    ///   `carry(first)`, then `own(b)` for each `b` in turn, each in HINT
    ///   traversal order; an admitting miss the fetched snapshot's rows
    ///   that meet `q`, in snapshot order; a miss that admits nothing, or
    ///   a bypass, the tree's vector unchanged.
    ///
    /// Sort with [`ri_mem::sort::sort_ids`] for ascending ids.
    pub fn intersection(&self, q: Interval) -> Result<Vec<i64>> {
        let (dom_lo, dom_hi) = self.domain();
        if q.lower < dom_lo || q.upper > dom_hi || self.tree.has_open_intervals() {
            self.state.lock().unwrap().bypasses += 1;
            return self.tree.intersection(q);
        }
        let first = self.block_of(q.lower);
        let last = self.block_of(q.upper);
        let (epoch0, admit) = {
            let mut st = self.state.lock().unwrap();
            for b in first..=last {
                Self::touch_freq(&mut st, b);
            }
            if (first..=last).all(|b| st.resident.contains_key(&b)) {
                st.hits += 1;
                // Exactly once: an interval meeting the query starts in
                // one of the span's blocks (found in that block's `own`)
                // or before the first and reaches into it (its `carry`).
                let mut ids = Vec::new();
                st.resident[&first].carry.intersection_into(q.lower, q.upper, &mut ids);
                for b in first..=last {
                    st.resident[&b].own.intersection_into(q.lower, q.upper, &mut ids);
                }
                return Ok(ids);
            }
            st.misses += 1;
            // 2Q admission: a missing block is admitted only if it is on
            // the ghost list (second miss); otherwise it becomes a ghost.
            let mut admit = Vec::new();
            for b in first..=last {
                if st.resident.contains_key(&b) {
                    continue;
                }
                if let Some(pos) = st.ghosts.iter().position(|&g| g == b) {
                    st.ghosts.remove(pos);
                    admit.push(b);
                } else {
                    if st.ghosts.len() >= self.cfg.ghost_capacity {
                        st.ghosts.pop_front();
                    }
                    st.ghosts.push_back(b);
                }
            }
            // TinyLFU-style gate: once admitting would push the tier
            // over budget, a candidate must be touched at least
            // `ADMIT_RATIO` times as often as the weakest resident block,
            // and at least 2 more — otherwise Zipf-tail traffic steadily
            // churns hot blocks out, and blocks of near-equal frequency
            // at the budget boundary keep swapping (each swap costs a
            // span fetch and gains nothing).  A rejected candidate goes
            // back on the ghost list, so a block that keeps missing
            // accumulates frequency and eventually wins the gate.
            if !admit.is_empty() && !st.resident.is_empty() {
                let per_block = st.cached / st.resident.len();
                if st.cached + per_block * admit.len() > self.cfg.capacity {
                    let weakest = st
                        .resident
                        .keys()
                        .map(|b| st.freq.get(b).copied().unwrap_or(0))
                        .min()
                        .unwrap_or(0);
                    let bar = weakest.saturating_mul(ADMIT_RATIO).max(weakest.saturating_add(2));
                    let st = &mut *st;
                    admit.retain(|b| {
                        if st.freq.get(b).copied().unwrap_or(0) >= bar {
                            return true;
                        }
                        if st.ghosts.len() >= self.cfg.ghost_capacity {
                            st.ghosts.pop_front();
                        }
                        st.ghosts.push_back(*b);
                        false
                    });
                }
            }
            if admit.is_empty() {
                drop(st);
                return self.tree.intersection(q);
            }
            (st.epoch, admit)
        };
        // Fetch and build outside the lock: one block-aligned, index-only
        // tree query covering the span ([`RiTree::span_snapshot`]: one
        // `lowerIndex` pass, whose entries carry both bounds), so the
        // admitted blocks are complete before anyone can see them.
        let span = Interval { lower: self.block_lo(first), upper: self.block_hi(last) };
        let fetched = self.tree.span_snapshot(span)?;
        // One pass deals the snapshot into each admitted block's `own` and
        // `carry` lists; each list is then built into its HINT in bulk.
        let mut lists = vec![(Vec::new(), Vec::new()); admit.len()];
        let mut ids = Vec::new();
        for (iv, id) in fetched {
            if iv.lower <= q.upper && q.lower <= iv.upper {
                ids.push(id);
            }
            let (cl, cu) = (iv.lower.max(dom_lo), iv.upper.min(dom_hi));
            let meets = self.block_of(cl)..=self.block_of(cu);
            for (b, (own, carry)) in admit.iter().zip(&mut lists) {
                if meets.contains(b) {
                    if cl >= self.block_lo(*b) { own } else { carry }.push((cl, cu, id));
                }
            }
        }
        let bits = self.cfg.block_bits;
        let blocks: Vec<(u64, Block)> = admit
            .iter()
            .zip(lists)
            .map(|(&b, (own, carry))| {
                let lo = self.block_lo(b);
                let block = Block {
                    own: HintIndex::build_clipped(lo, bits, &own),
                    carry: HintIndex::build_clipped(lo, bits, &carry),
                };
                (b, block)
            })
            .collect();
        let mut st = self.state.lock().unwrap();
        if st.epoch != epoch0 {
            // A writer raced the fetch; the answer (valid at fetch time)
            // stands, the installation does not.
            st.aborted_admissions += 1;
            drop(st); // before `blocks` is freed
            return Ok(ids);
        }
        let mut retired = Vec::new();
        for (b, block) in blocks {
            if st.resident.contains_key(&b) {
                // Another admission of this block, fetched at the same
                // epoch, installed first: the two blocks are equal.
                st.aborted_admissions += 1;
                retired.push(block);
                continue;
            }
            st.cached += self.held_only_by(&st, b, &block);
            st.resident.insert(b, block);
            st.admissions += 1;
        }
        retired.extend(self.evict_over_budget(&mut st));
        drop(st);
        drop(retired); // freed with the lock released
        Ok(ids)
    }

    /// Stabbing query through the tier: the ids [`RiTree::stab`] reports,
    /// each exactly once; the vector is identical to
    /// `intersection(Interval::point(p))`'s.
    pub fn stab(&self, p: i64) -> Result<Vec<i64>> {
        self.intersection(Interval::point(p))
    }

    // ------------------------------------------------------------------
    // Geometry + eviction
    // ------------------------------------------------------------------

    fn domain(&self) -> (i64, i64) {
        (self.cfg.domain_lower, self.cfg.domain_lower + (1i64 << self.cfg.domain_bits) - 1)
    }

    fn block_of(&self, v: i64) -> u64 {
        ((v - self.cfg.domain_lower) >> self.cfg.block_bits) as u64
    }

    fn block_lo(&self, b: u64) -> i64 {
        self.cfg.domain_lower + ((b as i64) << self.cfg.block_bits)
    }

    fn block_hi(&self, b: u64) -> i64 {
        self.block_lo(b) + (1i64 << self.cfg.block_bits) - 1
    }

    /// Clamps an interval to the domain; `None` if disjoint from it
    /// (such intervals can never affect an in-domain, non-bypassed
    /// query, so they are simply not cached).
    fn clamp(&self, iv: Interval) -> Option<(i64, i64)> {
        let (lo, hi) = self.domain();
        if iv.upper < lo || iv.lower > hi {
            return None;
        }
        Some((iv.lower.max(lo), iv.upper.min(hi)))
    }

    /// Bumps a block's decaying touch counter; every
    /// [`FREQ_DECAY_PERIOD`] touches all counters halve, so frequency
    /// reflects the recent past and a workload shift can displace old
    /// residents.
    fn touch_freq(st: &mut TierState, b: u64) {
        st.freq_touches += 1;
        if st.freq_touches % FREQ_DECAY_PERIOD == 0 {
            st.freq.retain(|_, v| {
                *v /= 2;
                *v > 0
            });
        }
        *st.freq.entry(b).or_insert(0) += 1;
    }

    /// How many of block `b`'s intervals no *other* resident block holds:
    /// what installing `block` adds to, and evicting it takes from, the
    /// distinct cached intervals.
    fn held_only_by(&self, st: &TierState, b: u64, block: &Block) -> usize {
        let shared = block.reaching_out().filter(|&(cl, cu, id)| {
            (self.block_of(cl)..=self.block_of(cu)).any(|o| {
                o != b && st.resident.get(&o).is_some_and(|other| other.contains((cl, cu, id)))
            })
        });
        block.len() - shared.count()
    }

    /// Lowest-frequency-first eviction until the interval budget holds
    /// (ties broken by block number: the victim order is deterministic
    /// even though residency is hashed).  Returns the victims, for the
    /// caller to drop once it has released the lock.
    fn evict_over_budget(&self, st: &mut TierState) -> Vec<Block> {
        let mut victims = Vec::new();
        while st.cached > self.cfg.capacity {
            let Some(b) = st
                .resident
                .keys()
                .min_by_key(|b| (st.freq.get(b).copied().unwrap_or(0), **b))
                .copied()
            else {
                break;
            };
            let block = st.resident.remove(&b).expect("victim is resident");
            st.evicted_blocks += 1;
            st.cached -= self.held_only_by(st, b, &block);
            victims.push(block);
        }
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ri_mem::NaiveIntervalSet;
    use ri_pagestore::{BufferPool, BufferPoolConfig, MemDisk, DEFAULT_PAGE_SIZE};
    use ri_relstore::Database;
    use std::collections::HashSet;
    use std::sync::Arc;

    fn fresh_tier(cfg: HotTierConfig) -> HotTier {
        let pool = Arc::new(BufferPool::new(
            MemDisk::new(DEFAULT_PAGE_SIZE),
            BufferPoolConfig::with_capacity(200),
        ));
        let db = Arc::new(Database::create(pool).unwrap());
        HotTier::new(RiTree::create(db, "hot").unwrap(), cfg)
    }

    fn iv(l: i64, u: i64) -> Interval {
        Interval::new(l, u).unwrap()
    }

    fn sorted(mut ids: Vec<i64>) -> Vec<i64> {
        ri_mem::sort::sort_ids(&mut ids);
        ids
    }

    /// The tree's answer to `q` in ascending order.
    fn tree_answer(tier: &HotTier, q: Interval) -> Vec<i64> {
        sorted(tier.tree().intersection(q).unwrap())
    }

    /// The tier's answer to `q` in ascending order: compared as a set, a
    /// duplicate id still shows.
    fn tier_answer(tier: &HotTier, q: Interval) -> Vec<i64> {
        sorted(tier.intersection(q).unwrap())
    }

    #[test]
    fn second_identical_query_hits_and_matches() {
        let tier = fresh_tier(HotTierConfig::default());
        for i in 0..500 {
            tier.insert(iv(i * 100, i * 100 + 250), i).unwrap();
        }
        let q = iv(10_000, 12_000);
        let direct = tree_answer(&tier, q);
        let first = tier_answer(&tier, q);
        let second = tier_answer(&tier, q); // ghost promoted
        let third = tier_answer(&tier, q); // resident now
        assert_eq!(first, direct);
        assert_eq!(second, direct);
        assert_eq!(third, direct);
        let stats = tier.stats();
        assert!(stats.hits >= 1, "stats {stats:?}");
        assert!(stats.admissions >= 1, "stats {stats:?}");
    }

    #[test]
    fn writes_update_a_resident_block() {
        let tier = fresh_tier(HotTierConfig::default());
        for i in 0..200 {
            tier.insert(iv(i * 50, i * 50 + 120), i).unwrap();
        }
        let q = iv(3_000, 4_000);
        // Two misses admit the block span, third query hits.
        for _ in 0..3 {
            tier.intersection(q).unwrap();
        }
        assert!(tier.stats().hits >= 1);
        // Mutate through the tier: a new interval and a delete, both
        // inside the resident span, must be visible on the next (hit)
        // query with no extra misses.
        tier.insert(iv(3_500, 3_600), 9_000).unwrap();
        assert!(tier.delete(iv(3_000, 3_120), 60).unwrap());
        let hits_before = tier.stats().hits;
        let got = tier_answer(&tier, q);
        assert_eq!(got, tree_answer(&tier, q));
        assert!(got.contains(&9_000));
        assert!(!got.contains(&60));
        assert_eq!(tier.stats().hits, hits_before + 1, "must stay a hit");
    }

    #[test]
    fn eviction_respects_the_budget_and_sweeps_do_not_thrash() {
        let cfg = HotTierConfig { capacity: 64, ghost_capacity: 64, ..HotTierConfig::default() };
        let tier = fresh_tier(cfg);
        for i in 0..1_000 {
            tier.insert(iv(i * 1000, i * 1000 + 400), i).unwrap();
        }
        // Sweep queries across the domain twice: the second pass turns
        // every block into an admission candidate, but once the budget
        // is full the frequency gate rejects equally-cold candidates —
        // a scan must not churn the cache.
        for pass in 0..2 {
            for b in 0..60 {
                let lo = b * 16_384;
                let q = iv(lo, lo + 1_000);
                assert_eq!(tier_answer(&tier, q), tree_answer(&tier, q), "pass {pass} block {b}");
            }
        }
        let after_sweeps = tier.stats();
        assert!(after_sweeps.admissions > 0, "stats {after_sweeps:?}");
        assert_eq!(after_sweeps.evicted_blocks, 0, "a sweep must not evict: {after_sweeps:?}");
        // A genuinely hot region accumulates frequency, wins the gate,
        // and displaces the sweep-admitted residents.
        for _ in 0..6 {
            for b in 40..44 {
                let lo = b * 16_384;
                let q = iv(lo, lo + 1_000);
                assert_eq!(tier_answer(&tier, q), tree_answer(&tier, q));
            }
        }
        let stats = tier.stats();
        assert!(stats.evicted_blocks > 0, "hot blocks must displace cold ones: {stats:?}");
        assert!(stats.cached_intervals <= 64 + 40, "budget wildly exceeded: {stats:?}");
    }

    #[test]
    fn open_intervals_force_bypass() {
        let tier = fresh_tier(HotTierConfig::default());
        for i in 0..50 {
            tier.insert(iv(i * 10, i * 10 + 30), i).unwrap();
        }
        tier.insert_open(100, OpenEnd::Infinity, 777).unwrap();
        let q = iv(90, 200);
        for _ in 0..3 {
            let got = tier.intersection(q).unwrap();
            assert!(got.contains(&777));
        }
        let stats = tier.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.bypasses, 3, "stats {stats:?}");
        // Removing the open interval re-enables the tier.
        assert!(tier.delete_open(100, OpenEnd::Infinity, 777).unwrap());
        for _ in 0..3 {
            assert_eq!(tier_answer(&tier, q), tree_answer(&tier, q));
        }
        assert!(tier.stats().hits >= 1);
    }

    #[test]
    fn out_of_domain_data_and_queries() {
        let cfg = HotTierConfig { domain_bits: 10, block_bits: 7, ..HotTierConfig::default() };
        let tier = fresh_tier(cfg); // domain [0, 1024)
        tier.insert(iv(-500, 100), 1).unwrap(); // straddles the lower edge
        tier.insert(iv(1_000, 5_000), 2).unwrap(); // straddles the upper edge
        tier.insert(iv(2_000, 3_000), 3).unwrap(); // fully outside
        tier.insert(iv(200, 300), 4).unwrap(); // inside
        for _ in 0..3 {
            assert_eq!(tier_answer(&tier, iv(0, 1023)), vec![1, 2, 4]);
            assert_eq!(tier_answer(&tier, iv(50, 250)), vec![1, 4]);
            // Out-of-domain query: bypassed, still correct.
            assert_eq!(tier_answer(&tier, iv(1_500, 2_500)), vec![2, 3]);
        }
        assert!(tier.stats().hits >= 2);
        assert!(tier.stats().bypasses >= 3);
        // Deleting an edge-straddling interval invalidates its clamped copy.
        assert!(tier.delete(iv(-500, 100), 1).unwrap());
        assert_eq!(tier_answer(&tier, iv(0, 1023)), vec![2, 4]);
    }

    #[test]
    fn stab_goes_through_the_tier() {
        let tier = fresh_tier(HotTierConfig::default());
        for i in 0..100 {
            tier.insert(iv(i * 10, i * 10 + 25), i).unwrap();
        }
        for _ in 0..3 {
            assert_eq!(sorted(tier.stab(105).unwrap()), tree_answer(&tier, Interval::point(105)));
        }
        assert!(tier.stats().hits >= 1);
    }

    #[test]
    #[should_panic(expected = "block bits outside")]
    fn one_value_blocks_are_rejected() {
        fresh_tier(HotTierConfig { block_bits: 0, ..HotTierConfig::default() });
    }

    /// What the tier's storage promises, checked against the oracle's live
    /// set: every resident block holds exactly the live intervals meeting
    /// it, split by where they start, and `cached` counts the distinct
    /// ones.
    fn assert_blocks_match(tier: &HotTier, oracle: &NaiveIntervalSet, step: usize) {
        let st = tier.state.lock().unwrap();
        let (dom_lo, dom_hi) = tier.domain();
        let mut distinct = HashSet::new();
        for (&b, block) in &st.resident {
            let (lo, hi) = (tier.block_lo(b), tier.block_hi(b));
            let (mut own, mut carry) = (Vec::new(), Vec::new());
            for &(l, u, id) in oracle.triples().iter().filter(|&&(l, u, _)| l <= hi && lo <= u) {
                let t = (l.max(dom_lo), u.min(dom_hi), id);
                if t.0 >= lo { &mut own } else { &mut carry }.push(t);
                distinct.insert(t);
            }
            for (index, mut want, side) in
                [(&block.own, own, "own"), (&block.carry, carry, "carry")]
            {
                let mut got = index.intersecting_triples(lo, hi);
                assert_eq!(got.len(), index.len(), "step {step}: block {b} {side} hides entries");
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "step {step}: block {b} {side}");
            }
        }
        assert_eq!(st.cached, distinct.len(), "step {step}: distinct cached intervals");
    }

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// A random insert / delete / query stream over 64 blocks of 64 values
    /// with a budget of a few blocks: intervals up to 16 blocks long (they
    /// cover whole blocks and are cached in many), some straddling the
    /// domain's edges, queries up to four blocks wide piled onto the low
    /// blocks so neighbours are resident together.  The storage invariants
    /// hold after *every* step and every answer is the oracle's.
    #[test]
    fn blocks_hold_exactly_the_live_intervals_after_every_step() {
        let (mut wide_hits, mut evicted, mut invalidations) = (0, 0, 0);
        for seed in [0x5EED_0001_u64, 0x5EED_0002, 0x5EED_0003] {
            let cfg = HotTierConfig {
                domain_lower: 0,
                domain_bits: 12,
                block_bits: 6,
                capacity: 240,
                ghost_capacity: 24,
            };
            let tier = fresh_tier(cfg);
            let mut oracle = NaiveIntervalSet::new();
            let mut x = seed;
            let mut next_id = 0;
            for step in 0..2_000 {
                let r = xorshift(&mut x);
                match if step < 400 { 8 } else { r % 10 } {
                    0..=6 => {
                        // Cubing a uniform variate piles the queries low.
                        let u = (r >> 8) % 4096;
                        let lower = ((u * u * u) >> 24) as i64;
                        let width = if (r >> 20) & 1 == 0 { 0 } else { (r >> 24) % 256 };
                        let upper = (lower + width as i64).min(4095);
                        let q = iv(lower, upper);
                        let hits_before = tier.stats().hits;
                        let got = tier_answer(&tier, q);
                        assert_eq!(got, oracle.intersection(lower, upper), "step {step}: {q:?}");
                        assert!(got.windows(2).all(|w| w[0] < w[1]), "step {step}: duplicate id");
                        if tier.stats().hits > hits_before && upper / 64 - lower / 64 >= 2 {
                            wide_hits += 1;
                        }
                    }
                    7 | 8 => {
                        let lower = ((r >> 8) % 4200) as i64 - 100;
                        let len = match (r >> 24) % 8 {
                            0 => (r >> 32) % 1024,
                            _ => (r >> 32) % 48,
                        };
                        tier.insert(iv(lower, lower + len as i64), next_id).unwrap();
                        oracle.insert(lower, lower + len as i64, next_id);
                        next_id += 1;
                    }
                    _ => {
                        let (l, u, id) =
                            oracle.triples()[(r >> 8) as usize % oracle.triples().len()];
                        assert!(tier.delete(iv(l, u), id).unwrap());
                        assert!(oracle.delete(l, u, id));
                    }
                }
                assert_blocks_match(&tier, &oracle, step);
            }
            let stats = tier.stats();
            evicted += stats.evicted_blocks;
            invalidations += stats.invalidations;
        }
        assert!(wide_hits > 50, "only {wide_hits} hits over three or more resident blocks");
        assert!(evicted > 50 && invalidations > 50, "{evicted} evictions, {invalidations}");
    }

    /// Eight equally popular blocks with room for six: once the tier is
    /// warm, uniform traffic must not swap boundary blocks back and forth
    /// (each swap is a span fetch and a block build that gains nothing),
    /// while a block touched far more often than the residents still gets
    /// in.
    #[test]
    fn near_equal_blocks_do_not_swap_and_a_hotter_block_gets_in() {
        let cfg = HotTierConfig {
            domain_lower: 0,
            domain_bits: 9,
            block_bits: 6,
            capacity: 6 * 40,
            ghost_capacity: 8,
        };
        let tier = fresh_tier(cfg);
        for b in 0..8 {
            for i in 0..40 {
                let lower = b * 64 + i;
                tier.insert(iv(lower, lower + 3), b * 40 + i).unwrap();
            }
        }
        let check = |p: i64| {
            let q = Interval::point(p);
            assert_eq!(tier_answer(&tier, q), tree_answer(&tier, q), "stab {p}");
        };
        let mut x = 0x5EED_0008_u64;
        let mut stab = |n: usize| {
            for _ in 0..n {
                check((xorshift(&mut x) % 512) as i64);
            }
        };
        stab(2_000);
        let warm = tier.stats();
        assert_eq!(warm.resident_blocks, 6, "warm-up fills the budget: {warm:?}");
        stab(8_000);
        let settled = tier.stats();
        assert_eq!(
            (settled.admissions, settled.evicted_blocks),
            (warm.admissions, warm.evicted_blocks),
            "near-equal blocks swapped: {warm:?} -> {settled:?}"
        );

        let outside = (0..8u64)
            .find(|b| !tier.state.lock().unwrap().resident.contains_key(b))
            .expect("two blocks stay out");
        for _ in 0..400 {
            check(tier.block_lo(outside) + 5);
        }
        let hot = tier.stats();
        assert_eq!(hot.admissions, settled.admissions + 1, "hot block {outside}: {hot:?}");
        assert!(tier.state.lock().unwrap().resident.contains_key(&outside));
    }

    /// `HotTier::insert` and `delete` run the tree operation before they
    /// take the tier's lock, so an admission can fetch and install in
    /// between — at an unchanged epoch.  Replayed here step by step: the
    /// cache half must add the triple only where it is missing, remove it
    /// wherever it is, and move the distinct count once.
    #[test]
    fn dml_racing_an_admission_counts_once() {
        let cfg = HotTierConfig { domain_bits: 12, block_bits: 6, ..HotTierConfig::default() };
        let tier = fresh_tier(cfg);
        let mut oracle = NaiveIntervalSet::new();
        for i in 0..40 {
            tier.insert(iv(i * 10, i * 10 + 5), i).unwrap();
            oracle.insert(i * 10, i * 10 + 5, i);
        }
        let admit = |lower: i64| {
            let before = tier.stats().admissions;
            tier.stab(lower).unwrap();
            tier.stab(lower).unwrap();
            assert_eq!(tier.stats().admissions, before + 1, "block of {lower} admitted");
        };
        admit(0); // block 0 is resident before the racing row exists

        // Insert: the row reaches the tree, block 1 is admitted (with it),
        // and only then does the writer reach the cache.
        let (racer, id) = (iv(30, 200), 900); // blocks 0..=3
        tier.tree().insert(racer, id).unwrap();
        oracle.insert(30, 200, id);
        admit(64);
        tier.cache_insert(racer, id);
        assert_blocks_match(&tier, &oracle, 1);
        assert_eq!(tier_answer(&tier, iv(0, 127)), oracle.intersection(0, 127));

        // Delete: the row leaves the tree, block 2 is admitted (without
        // it), then the writer reaches the cache.
        assert!(tier.tree().delete(racer, id).unwrap());
        assert!(oracle.delete(30, 200, id));
        admit(128);
        let invalidations = tier.stats().invalidations;
        tier.cache_delete(racer, id);
        assert_eq!(tier.stats().invalidations, invalidations + 1);
        assert_blocks_match(&tier, &oracle, 2);
        assert_eq!(tier_answer(&tier, iv(0, 191)), oracle.intersection(0, 191));
        assert_eq!(tier.stats().aborted_admissions, 0);
    }
}
