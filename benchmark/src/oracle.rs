//! The reference every answer is checked against.
//!
//! A query answer is reduced, inside the measured loop, to its length and
//! an order-independent checksum of its ids: a *sum* of mixed ids.  The
//! oracle never materialises an answer.  An interval `[l, u]` intersects a
//! query `[ql, qu]` unless it starts after the query (`l > qu`) or ends
//! before it (`u < ql`), and the second kind is a subset of the intervals
//! that do not start after it; so with the intervals sorted once by lower
//! and once by upper bound, each with running totals,
//!
//! ```text
//! answer(q) = total(lower <= qu) - total(upper < ql)
//! ```
//!
//! costs two binary searches.  That is what makes checking *every* answer
//! of a run affordable when no query repeats (an `ri_mem::IntervalTree`
//! oracle spent as long on a query as the engine did); the tests hold this
//! oracle to the interval tree's answers.  Because the checksum is a sum,
//! the expected answer over "base data plus a few live extras" is the base
//! answer plus the extras' terms.

use crate::inputs::{splitmix64, Item};
use ri_tree::core::Interval;

/// Length and id checksum of one query answer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Answer {
    pub len: u32,
    pub sum: u64,
}

/// Spreads ids so that swapped or off-by-one ids change the sum.
fn mix(id: i64) -> u64 {
    splitmix64((id as u64).wrapping_add(0x9E37_79B9_7F4A_7C15))
}

impl Answer {
    pub fn of(ids: &[i64]) -> Answer {
        let mut answer = Answer::default();
        for &id in ids {
            answer.add(id);
        }
        answer
    }

    pub fn add(&mut self, id: i64) {
        self.len += 1;
        self.sum = self.sum.wrapping_add(mix(id));
    }
}

/// Interval bounds in ascending order; `totals[k]` is the answer made of
/// the ids of the first `k`.
struct Ranked {
    bounds: Vec<i64>,
    totals: Vec<Answer>,
}

impl Ranked {
    fn new(mut keyed: Vec<(i64, i64)>) -> Ranked {
        keyed.sort_unstable();
        let mut totals = vec![Answer::default()];
        for &(_, id) in &keyed {
            let mut next = totals[totals.len() - 1];
            next.add(id);
            totals.push(next);
        }
        Ranked { bounds: keyed.into_iter().map(|(bound, _)| bound).collect(), totals }
    }

    /// The answer made of every interval whose bound satisfies `below`,
    /// which must hold for a prefix of the ascending bounds.
    fn total(&self, below: impl Fn(i64) -> bool) -> Answer {
        self.totals[self.bounds.partition_point(|&bound| below(bound))]
    }
}

/// The oracle over a fixed set of items.
pub struct Oracle {
    by_lower: Ranked,
    by_upper: Ranked,
}

impl Oracle {
    pub fn build(items: impl IntoIterator<Item = Item>) -> Oracle {
        let items: Vec<Item> = items.into_iter().collect();
        Oracle {
            by_lower: Ranked::new(items.iter().map(|&(iv, id)| (iv.lower, id)).collect()),
            by_upper: Ranked::new(items.iter().map(|&(iv, id)| (iv.upper, id)).collect()),
        }
    }

    pub fn answer(&self, q: Interval) -> Answer {
        let not_after = self.by_lower.total(|lower| lower <= q.upper);
        let before = self.by_upper.total(|upper| upper < q.lower);
        Answer { len: not_after.len - before.len, sum: not_after.sum.wrapping_sub(before.sum) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{items, stream, verify_stabs};
    use ri_tree::mem::IntervalTree;

    fn iv(l: i64, u: i64) -> Interval {
        Interval::new(l, u).unwrap()
    }

    #[test]
    fn checksum_ignores_order_and_adds_up() {
        assert_eq!(Answer::of(&[1, 2, 3]), Answer::of(&[3, 1, 2]));
        assert_ne!(Answer::of(&[1, 2, 3]), Answer::of(&[1, 2, 4]));
        assert_ne!(Answer::of(&[1, 4]), Answer::of(&[2, 3]));
        let mut base = Answer::of(&[1, 2]);
        base.add(9);
        assert_eq!(base, Answer::of(&[9, 1, 2]));
    }

    #[test]
    fn oracle_answers_closed_intersections() {
        let oracle = Oracle::build([(iv(0, 10), 1), (iv(10, 20), 2), (iv(30, 40), 3)]);
        assert_eq!(oracle.answer(iv(10, 10)), Answer::of(&[1, 2]));
        assert_eq!(oracle.answer(iv(21, 29)), Answer::default());
        assert_eq!(oracle.answer(iv(15, 35)), Answer::of(&[2, 3]));
        assert_eq!(oracle.answer(iv(-5, 100)), Answer::of(&[1, 2, 3]));
        assert_eq!(Oracle::build([]).answer(iv(0, 1)), Answer::default());
    }

    #[test]
    fn oracle_agrees_with_the_interval_tree() {
        let data = items(3000, 11, stream::BASE, 0);
        let triples: Vec<_> = data.iter().map(|&(iv, id)| (iv.lower, iv.upper, id)).collect();
        let tree = IntervalTree::build(&triples);
        let oracle = Oracle::build(data.iter().copied());
        // Points, ranges, and ranges that start or end exactly on a bound.
        let mut queries: Vec<Interval> =
            verify_stabs(200, 11).into_iter().map(Interval::point).collect();
        queries.extend(queries.clone().windows(2).map(|w| {
            let (a, b) = (w[0].lower, w[1].lower);
            iv(a.min(b), a.max(b))
        }));
        queries.extend(data.iter().take(200).map(|&(d, _)| iv(d.upper, d.upper + 500)));
        queries.extend(data.iter().take(200).map(|&(d, _)| iv(d.lower - 500, d.lower)));
        for q in queries {
            assert_eq!(oracle.answer(q), Answer::of(&tree.intersection(q.lower, q.upper)), "{q:?}");
        }
    }
}
