//! The thirteen topological (Allen) interval relations — Section 4.5.
//!
//! "In addition to the intersection query predicate, there are 13 more
//! fine-grained temporal relationships between intervals"; the RI-tree
//! supports them all.  Each relation is answered by a *candidate query*
//! against the relational indexes (a stabbing or intersection query chosen
//! so that its result is a superset of the relation's result) followed by
//! an exact predicate on the candidate bounds, which the candidate query's
//! index entries carry: no row is probed outside the two indexes.  Stab-based relations touch
//! only the intervals containing one query endpoint, so they inherit the
//! intersection query's output-sensitive cost; the inherently large
//! *before*/*after* relations scan the matching prefix/suffix of the data
//! space, which is the best any method can do for them.  Their candidate
//! query is open on one side, `[i64::MIN, Q.lower − 1]` or `[Q.upper + 1,
//! i64::MAX]`: the query traversal clamps it to the backbone's span
//! ([`crate::BackboneParams::query_nodes`]) and the fork sentinels supply
//! the open-ended intervals, so no bound of the stored data is tracked to
//! narrow it.

use crate::interval::Interval;
use crate::tree::RiTree;
use ri_pagestore::Result;

/// Allen's interval relations: `I rel Q` for a stored interval `I` and the
/// query interval `Q`.
///
/// Definitions follow Allen (1983) on closed integer intervals; *meets* is
/// endpoint equality `I.upper == Q.lower`, as in the paper's temporal
/// context where adjacent validity periods share a boundary instant.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum AllenRelation {
    /// `I.upper < Q.lower`: I lies strictly before Q.
    Before,
    /// `I.upper == Q.lower`: I ends exactly where Q begins.
    Meets,
    /// `I.lower < Q.lower && Q.lower < I.upper && I.upper < Q.upper`.
    Overlaps,
    /// `I.lower == Q.lower && I.upper < Q.upper`.
    Starts,
    /// `Q.lower < I.lower && I.upper < Q.upper`: I strictly inside Q.
    During,
    /// `I.upper == Q.upper && Q.lower < I.lower`.
    Finishes,
    /// Identical bounds.
    Equals,
    /// `I.upper == Q.upper && I.lower < Q.lower` (inverse of finishes).
    FinishedBy,
    /// `I.lower < Q.lower && Q.upper < I.upper`: I strictly contains Q.
    Contains,
    /// `I.lower == Q.lower && Q.upper < I.upper` (inverse of starts).
    StartedBy,
    /// `Q.lower < I.lower && I.lower < Q.upper && Q.upper < I.upper`.
    OverlappedBy,
    /// `I.lower == Q.upper`: I begins exactly where Q ends.
    MetBy,
    /// `Q.upper < I.lower`: I lies strictly after Q.
    After,
}

impl AllenRelation {
    /// All thirteen relations.
    pub const ALL: [AllenRelation; 13] = [
        AllenRelation::Before,
        AllenRelation::Meets,
        AllenRelation::Overlaps,
        AllenRelation::Starts,
        AllenRelation::During,
        AllenRelation::Finishes,
        AllenRelation::Equals,
        AllenRelation::FinishedBy,
        AllenRelation::Contains,
        AllenRelation::StartedBy,
        AllenRelation::OverlappedBy,
        AllenRelation::MetBy,
        AllenRelation::After,
    ];

    /// Exact predicate: does stored interval `i` stand in `self` to `q`?
    pub fn matches(&self, i: &Interval, q: &Interval) -> bool {
        match self {
            AllenRelation::Before => i.upper < q.lower,
            AllenRelation::Meets => i.upper == q.lower,
            AllenRelation::Overlaps => i.lower < q.lower && q.lower < i.upper && i.upper < q.upper,
            AllenRelation::Starts => i.lower == q.lower && i.upper < q.upper,
            AllenRelation::During => q.lower < i.lower && i.upper < q.upper,
            AllenRelation::Finishes => i.upper == q.upper && q.lower < i.lower,
            AllenRelation::Equals => i.lower == q.lower && i.upper == q.upper,
            AllenRelation::FinishedBy => i.upper == q.upper && i.lower < q.lower,
            AllenRelation::Contains => i.lower < q.lower && q.upper < i.upper,
            AllenRelation::StartedBy => i.lower == q.lower && q.upper < i.upper,
            AllenRelation::OverlappedBy => {
                q.lower < i.lower && i.lower < q.upper && q.upper < i.upper
            }
            AllenRelation::MetBy => i.lower == q.upper,
            AllenRelation::After => q.upper < i.lower,
        }
    }

    /// The inverse relation: `I rel Q ⇔ Q rel.inverse() I`.
    pub fn inverse(&self) -> AllenRelation {
        match self {
            AllenRelation::Before => AllenRelation::After,
            AllenRelation::Meets => AllenRelation::MetBy,
            AllenRelation::Overlaps => AllenRelation::OverlappedBy,
            AllenRelation::Starts => AllenRelation::StartedBy,
            AllenRelation::During => AllenRelation::Contains,
            AllenRelation::Finishes => AllenRelation::FinishedBy,
            AllenRelation::Equals => AllenRelation::Equals,
            AllenRelation::FinishedBy => AllenRelation::Finishes,
            AllenRelation::Contains => AllenRelation::During,
            AllenRelation::StartedBy => AllenRelation::Starts,
            AllenRelation::OverlappedBy => AllenRelation::Overlaps,
            AllenRelation::MetBy => AllenRelation::Meets,
            AllenRelation::After => AllenRelation::Before,
        }
    }
}

impl RiTree {
    /// Reports the ids of all intervals standing in `rel` to `q`, with
    /// now-relative intervals resolved at time `now`.
    ///
    /// The answer is sorted ascending with duplicates removed: an id the
    /// tree holds under several intervals that all stand in `rel` to `q`
    /// comes back **once**.  This differs from
    /// [`RiTree::intersection_at`], which returns such an id once per
    /// intersecting interval, in plan order.
    pub fn allen_at(&self, rel: AllenRelation, q: Interval, now: i64) -> Result<Vec<i64>> {
        // Candidate generation: a stab or intersection query guaranteed to
        // produce a superset of the exact result (see per-arm comments).
        let candidates = match rel {
            // I.upper == Q.lower or I.upper >= Q.lower at Q.lower ⇒ I
            // contains Q.lower.
            AllenRelation::Meets
            | AllenRelation::Overlaps
            | AllenRelation::Starts
            | AllenRelation::Equals
            | AllenRelation::Contains
            | AllenRelation::StartedBy => {
                self.intersection_bounds(Interval::point(q.lower), now)?
            }
            // These imply I contains Q.upper.
            AllenRelation::Finishes
            | AllenRelation::FinishedBy
            | AllenRelation::OverlappedBy
            | AllenRelation::MetBy => self.intersection_bounds(Interval::point(q.upper), now)?,
            // Strictly inside Q ⇒ intersects Q.
            AllenRelation::During => self.intersection_bounds(q, now)?,
            // I.upper < Q.lower ⇒ I intersects [−∞, Q.lower − 1].
            AllenRelation::Before if q.lower > i64::MIN => {
                self.intersection_bounds(Interval { lower: i64::MIN, upper: q.lower - 1 }, now)?
            }
            // Q.upper < I.lower ⇒ I intersects [Q.upper + 1, +∞].
            AllenRelation::After if q.upper < i64::MAX => {
                self.intersection_bounds(Interval { lower: q.upper + 1, upper: i64::MAX }, now)?
            }
            // Nothing lies before −∞ or after +∞.
            AllenRelation::Before | AllenRelation::After => Vec::new(),
        };
        let mut ids: Vec<i64> = candidates
            .into_iter()
            .filter(|(iv, _)| rel.matches(iv, &q))
            .map(|(_, id)| id)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        Ok(ids)
    }

    /// [`RiTree::allen_at`] with now-relative intervals always current.
    ///
    /// Same contract: ascending ids, each once, however many of its
    /// intervals stand in `rel` to `q` — where [`RiTree::intersection`]
    /// returns the id once per intersecting interval.
    pub fn allen(&self, rel: AllenRelation, q: Interval) -> Result<Vec<i64>> {
        self.allen_at(rel, q, crate::tree::UPPER_NOW - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::OpenEnd;
    use ri_pagestore::{BufferPool, BufferPoolConfig, MemDisk, DEFAULT_PAGE_SIZE};
    use ri_relstore::Database;
    use std::sync::Arc;

    fn tree_with(data: &[(i64, i64)]) -> RiTree {
        let pool = Arc::new(BufferPool::new(
            MemDisk::new(DEFAULT_PAGE_SIZE),
            BufferPoolConfig::with_capacity(200),
        ));
        let db = Arc::new(Database::create(pool).unwrap());
        let tree = RiTree::create(db, "t").unwrap();
        for (id, &(l, u)) in data.iter().enumerate() {
            tree.insert(Interval::new(l, u).unwrap(), id as i64).unwrap();
        }
        tree
    }

    #[test]
    fn truth_table_on_canonical_examples() {
        let q = Interval::new(10, 20).unwrap();
        let cases: &[(AllenRelation, (i64, i64))] = &[
            (AllenRelation::Before, (1, 5)),
            (AllenRelation::Meets, (5, 10)),
            (AllenRelation::Overlaps, (5, 15)),
            (AllenRelation::Starts, (10, 15)),
            (AllenRelation::During, (12, 18)),
            (AllenRelation::Finishes, (15, 20)),
            (AllenRelation::Equals, (10, 20)),
            (AllenRelation::FinishedBy, (5, 20)),
            (AllenRelation::Contains, (5, 25)),
            (AllenRelation::StartedBy, (10, 25)),
            (AllenRelation::OverlappedBy, (15, 25)),
            (AllenRelation::MetBy, (20, 25)),
            (AllenRelation::After, (25, 30)),
        ];
        for &(rel, (l, u)) in cases {
            let i = Interval::new(l, u).unwrap();
            assert!(rel.matches(&i, &q), "{rel:?} should hold for {i} vs {q}");
            // Each canonical example satisfies exactly one relation.
            for &(other, _) in cases {
                if other != rel {
                    assert!(!other.matches(&i, &q), "{other:?} also holds for {i} vs {q}");
                }
            }
        }
    }

    #[test]
    fn relations_partition_generic_interval_pairs() {
        // For intervals in "general position" exactly one relation holds;
        // enumerate a dense grid to verify mutual exclusion + coverage.
        let q = Interval::new(4, 9).unwrap();
        for l in 0..14 {
            for u in l..14 {
                let i = Interval::new(l, u).unwrap();
                let held: Vec<_> =
                    AllenRelation::ALL.iter().filter(|r| r.matches(&i, &q)).collect();
                assert!(
                    !held.is_empty(),
                    "no relation holds for {i} vs {q} — the 13 relations must be exhaustive"
                );
                // Degenerate (point) intervals can satisfy meets+starts etc.
                // simultaneously; proper intervals in general position must
                // satisfy exactly one.
                if i.length() > 0 && q.length() > 0 && i.lower != q.upper && i.upper != q.lower {
                    let exclusive = [
                        AllenRelation::Before,
                        AllenRelation::Overlaps,
                        AllenRelation::During,
                        AllenRelation::Equals,
                        AllenRelation::Contains,
                        AllenRelation::After,
                    ];
                    let _ = exclusive;
                    assert_eq!(held.len(), 1, "{held:?} all hold for {i} vs {q}");
                }
            }
        }
    }

    #[test]
    fn inverse_is_involutive_and_consistent() {
        let a = Interval::new(3, 8).unwrap();
        let b = Interval::new(5, 12).unwrap();
        for rel in AllenRelation::ALL {
            assert_eq!(rel.inverse().inverse(), rel);
            assert_eq!(rel.matches(&a, &b), rel.inverse().matches(&b, &a), "{rel:?}");
        }
    }

    #[test]
    fn queries_agree_with_naive_filter() {
        let data: Vec<(i64, i64)> = (0..300)
            .map(|i| {
                let l = (i * 37) % 500;
                (l, l + (i * 13) % 60)
            })
            .collect();
        let tree = tree_with(&data);
        for q in [Interval::new(100, 160).unwrap(), Interval::new(250, 250).unwrap()] {
            for rel in AllenRelation::ALL {
                let got = tree.allen(rel, q).unwrap();
                let mut want: Vec<i64> = data
                    .iter()
                    .enumerate()
                    .filter(|(_, &(l, u))| rel.matches(&Interval::new(l, u).unwrap(), &q))
                    .map(|(id, _)| id as i64)
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "{rel:?} on {q}");
            }
        }
    }

    /// Below a negative offset an open query bound shifts past `i64::MAX`;
    /// the traversal clamps it to the backbone, so the range pair never
    /// reaches the fork sentinels and each open-ended row is read once.
    #[test]
    fn one_sided_queries_reach_open_intervals_past_the_backbone() {
        let tree = tree_with(&[(-10, 5), (0, 10)]);
        tree.insert_open(500, OpenEnd::Infinity, 2).unwrap();
        tree.insert_open(600, OpenEnd::Now, 3).unwrap();
        tree.insert_open(i64::MAX, OpenEnd::Infinity, 4).unwrap();
        let q = Interval::new(20, 30).unwrap();
        assert_eq!(tree.allen_at(AllenRelation::After, q, 1000).unwrap(), [2, 3, 4]);
        assert_eq!(tree.allen_at(AllenRelation::Before, q, 1000).unwrap(), [0, 1]);
        let top = Interval::new(0, i64::MAX - 1).unwrap();
        assert_eq!(tree.allen(AllenRelation::After, top).unwrap(), [4]);
        let mut all = tree.intersection_at(Interval::new(0, i64::MAX).unwrap(), 1000).unwrap();
        all.sort_unstable();
        assert_eq!(all, [0, 1, 2, 3, 4], "each stored row once");
    }

    /// An id stored under two intervals: `allen` reports it once, sorted
    /// and deduplicated, while `intersection` reports it once per
    /// interval.
    #[test]
    fn an_id_under_two_matching_intervals_is_reported_once() {
        let tree = tree_with(&[]);
        tree.insert(Interval::new(10, 20).unwrap(), 1).unwrap();
        tree.insert(Interval::new(11, 21).unwrap(), 1).unwrap();
        let q = Interval::new(0, 100).unwrap();
        assert_eq!(tree.allen(AllenRelation::During, q).unwrap(), [1]);
        assert_eq!(tree.intersection(q).unwrap(), [1, 1]);
    }

    #[test]
    fn empty_tree_allen_queries() {
        let tree = tree_with(&[]);
        let q = Interval::new(5, 10).unwrap();
        for rel in AllenRelation::ALL {
            assert_eq!(tree.allen(rel, q).unwrap(), Vec::<i64>::new(), "{rel:?}");
        }
    }
}
