//! Sorting a query answer's ids.

/// A radix pass clears, fills and sums a histogram before it moves an id:
/// it beats comparisons from about this many ids per pass (measured:
/// break-even at ≈ 128, 256 and 512 ids for one, two and three passes).
const IDS_PER_PASS: usize = 128;
/// Widest radix digit: 2,048 counters, which stay in the L1 cache.
const DIGIT_BITS: u32 = 11;
/// Spreads wider than `MAX_PASSES` digits are left to the comparison sort.
const MAX_PASSES: u32 = 4;

/// Sorts `ids` ascending, as `sort_unstable` does.
///
/// The ids of one answer are close together far more often than not (row
/// numbers, surrogate keys), and a comparison sort of a 7,000-id answer
/// costs about as much as fetching it.  So: an LSD radix sort over only
/// the bits in which the ids differ — the key is `id − min`, cut into
/// the fewest equal digits of at most [`DIGIT_BITS`] bits, one stable
/// counting pass per digit.  Ids spread over more than `MAX_PASSES`
/// digits (44 bits), and answers too short to pay for their histograms,
/// take the comparison sort.
pub(crate) fn sort_ids(ids: &mut Vec<i64>) {
    let (min, max) =
        ids.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &id| (lo.min(id), hi.max(id)));
    // As a `u64`, `id − min` is exact for any two `i64`s.
    let key = |id: i64| id.wrapping_sub(min) as u64;
    let bits = u64::BITS - key(max).leading_zeros();
    let passes = bits.div_ceil(DIGIT_BITS);
    // `passes == 0`: all equal.
    if passes == 0 || passes > MAX_PASSES || ids.len() < IDS_PER_PASS * passes as usize {
        return ids.sort_unstable();
    }
    let digit_bits = bits.div_ceil(passes);
    let mask = (1u64 << digit_bits) - 1;
    let mut to = vec![0; ids.len()];
    let mut from = std::mem::take(ids);
    let mut slots = [0usize; 1 << DIGIT_BITS];
    for pass in 0..passes {
        let digit = |id: i64| ((key(id) >> (pass * digit_bits)) & mask) as usize;
        // Count each digit, turn the counts into first output slots, deal.
        let slots = &mut slots[..=mask as usize];
        slots.fill(0);
        from.iter().for_each(|&id| slots[digit(id)] += 1);
        let mut next = 0;
        for slot in slots.iter_mut() {
            next += std::mem::replace(slot, next);
        }
        for &id in &from {
            let slot = &mut slots[digit(id)];
            to[*slot] = id;
            *slot += 1;
        }
        std::mem::swap(&mut from, &mut to);
    }
    *ids = from;
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
