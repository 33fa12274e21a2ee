//! The workspace's one radix sort: a HINT's block registrations when it is
//! built in bulk, and [`sort_ids`], the way a caller gets an RI-tree
//! answer's ids ascending.  A query itself returns them in plan order
//! (Figure 9's `UNION ALL` has no `ORDER BY`), and `HotTier` answers under
//! the same contract on every path; the callers that sort are tests,
//! examples and figures that compare or print answers.

/// A radix pass clears, fills and sums a histogram before it moves an item:
/// it beats comparisons from about this many items per pass (measured on
/// ids: break-even at ≈ 128, 256 and 512 ids for one, two and three passes).
const IDS_PER_PASS: usize = 128;
/// Widest radix digit: 2,048 counters, which stay in the L1 cache.
const DIGIT_BITS: u32 = 11;
/// Keys wider than `MAX_PASSES` digits are left to the comparison sort.
const MAX_PASSES: u32 = 4;

/// Sorts `items` by a key of at most `bits` bits, stably: an LSD radix sort
/// that cuts the key into the fewest equal digits of at most
/// `DIGIT_BITS` (11) bits, one stable counting pass per digit.
///
/// Returns `false`, leaving `items` as they were, when a comparison sort is
/// the cheaper one: a key wider than `MAX_PASSES` digits (44 bits), or too
/// few items to pay for the histograms.  With `bits == 0` every key is
/// equal and the items are already sorted.
///
/// # Panics
/// May panic if some key needs more than `bits` bits.
pub(crate) fn radix_sort_by_key<T: Copy + Default>(
    items: &mut Vec<T>,
    bits: u32,
    key: impl Fn(T) -> u64,
) -> bool {
    let passes = bits.div_ceil(DIGIT_BITS);
    if passes == 0 {
        return true;
    }
    if passes > MAX_PASSES || items.len() < IDS_PER_PASS * passes as usize {
        return false;
    }
    let digit_bits = bits.div_ceil(passes);
    let mask = (1u64 << digit_bits) - 1;
    let mut to = vec![T::default(); items.len()];
    let mut from = std::mem::take(items);
    let mut slots = [0usize; 1 << DIGIT_BITS];
    for pass in 0..passes {
        let digit = |item: T| ((key(item) >> (pass * digit_bits)) & mask) as usize;
        // Count each digit, turn the counts into first output slots, deal.
        let slots = &mut slots[..=mask as usize];
        slots.fill(0);
        from.iter().for_each(|&item| slots[digit(item)] += 1);
        let mut next = 0;
        for slot in slots.iter_mut() {
            next += std::mem::replace(slot, next);
        }
        for &item in &from {
            let slot = &mut slots[digit(item)];
            to[*slot] = item;
            *slot += 1;
        }
        std::mem::swap(&mut from, &mut to);
    }
    *items = from;
    true
}

/// Sorts `ids` ascending, as `sort_unstable` does.
///
/// The ids of one answer are close together far more often than not (row
/// numbers, surrogate keys), and a comparison sort of a 7,000-id answer
/// costs about as much as fetching it.  So: the LSD radix sort over only
/// the bits in which the ids differ — the key is `id − min`, cut into the
/// fewest equal digits of at most 11 bits, one stable counting pass per
/// digit — and `sort_unstable` where the radix sort declines: ids spread
/// over more than four digits (44 bits), or answers too short to pay for
/// their histograms.
pub fn sort_ids(ids: &mut Vec<i64>) {
    let (min, max) =
        ids.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &id| (lo.min(id), hi.max(id)));
    // As a `u64`, `id − min` is exact for any two `i64`s.
    let key = move |id: i64| id.wrapping_sub(min) as u64;
    if !radix_sort_by_key(ids, u64::BITS - key(max).leading_zeros(), key) {
        ids.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_sorts(mut ids: Vec<i64>) {
        let mut want = ids.clone();
        want.sort_unstable();
        sort_ids(&mut ids);
        assert_eq!(ids, want);
    }

    #[test]
    fn edge_cases_on_both_sides_of_the_small_input_threshold() {
        for len in [0, 1, 2, IDS_PER_PASS - 1, IDS_PER_PASS, IDS_PER_PASS + 1, 1000] {
            assert_sorts(vec![7; len]); // all equal: no pass at all
            assert_sorts((0..len as i64).rev().collect());
            assert_sorts((0..len as i64).map(|i| i % 5 - 2).collect()); // duplicates, negatives
            assert_sorts(
                (0..len as i64).map(|i| if i % 2 == 0 { i64::MIN } else { i64::MAX }).collect(),
            );
            assert_sorts((0..len as i64).map(|i| i64::MAX - (i * 7919) % 3000).collect());
            assert_sorts((0..len as i64).map(|i| i64::MIN + (i * 7919) % 3000).collect());
        }
        // Spreads at both edges of one, two, three and four passes, and past
        // them, each at lengths on both sides of every pass count's threshold.
        let lens = (1..=4).flat_map(|passes| [passes * IDS_PER_PASS - 1, passes * IDS_PER_PASS]);
        for len in lens.chain([1000]) {
            for bits in [1, 10, 11, 12, 22, 23, 33, 34, 44, 45, 63] {
                let mask = (1u64 << bits) - 1;
                let id = |x: u64| (x & mask).wrapping_sub(12_345) as i64;
                let scattered = (2..len as u64).map(|i| id(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
                assert_sorts(scattered.chain([id(0), id(mask)]).collect());
            }
        }
    }

    /// The generic form is stable: items with equal keys keep their order
    /// (what a HINT's bulk build relies on to lay a partition out in input
    /// order), at every pass count, and it declines exactly where
    /// [`sort_ids`] falls back.
    #[test]
    fn radix_sort_by_key_is_stable_and_declines_where_sort_ids_falls_back() {
        for bits in [0, 1, 11, 12, 23, 44, 45] {
            let mask = if bits == 0 { 0 } else { (1u64 << bits) - 1 };
            for len in [0, IDS_PER_PASS - 1, 4 * IDS_PER_PASS, 3000] {
                let orig: Vec<(u64, usize)> =
                    (0..len).map(|i| ((i as u64).wrapping_mul(0x9E37_79B9) & mask, i)).collect();
                let mut items = orig.clone();
                let sorted = radix_sort_by_key(&mut items, bits, |(k, _)| k);
                let passes = bits.div_ceil(DIGIT_BITS) as usize;
                let declines = passes > MAX_PASSES as usize || len < IDS_PER_PASS * passes;
                assert_eq!(sorted, !declines, "{bits} bits, {len} items");
                if sorted {
                    let mut want = orig;
                    want.sort_by_key(|&(k, _)| k);
                    assert_eq!(items, want, "{bits} bits, {len} items");
                } else {
                    assert_eq!(items, orig, "declining leaves the items alone");
                }
            }
        }
    }

    proptest! {
        /// `spread_bits` walks the pass count: ≤ 11 bits is one pass, ≤ 22
        /// two, ≤ 44 four, and anything above falls back.
        #[test]
        fn sort_ids_equals_sort_unstable(
            raw in prop::collection::vec(any::<i64>(), 0..4096),
            base in any::<i64>(),
            spread_bits in 0u32..65,
        ) {
            let mask = if spread_bits == 64 { u64::MAX } else { (1u64 << spread_bits) - 1 };
            assert_sorts(raw.iter().map(|&x| base.wrapping_add((x as u64 & mask) as i64)).collect());
        }
    }
}
