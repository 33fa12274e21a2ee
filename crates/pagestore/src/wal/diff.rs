//! Which bytes of a page an update changed: the byte runs an update
//! record carries instead of one span from the first to the last
//! difference.
//!
//! A B-link leaf insert changes the 2-byte entry count near the page's
//! head and the entries it shifts to make room, which differ from their
//! old places only here and there; an insert near the front of a full
//! leaf shifts most of the page.  Logged as one span that is most of the
//! page; logged as runs it is the bytes that differ plus a table entry
//! per run.

/// Most runs one update record carries.  Differences past the table's
/// capacity are folded into the last run, which then spans to the final
/// differing byte.
pub(super) const MAX_RUNS: usize = 8;

/// Differences with at most this many equal bytes between them travel
/// as one run.  A separate run costs an 8-byte table entry, and — what
/// sets the value — the entries a B-tree leaf insert shifts differ from
/// their neighbours every 14–16 bytes: below that the shifted region
/// fragments, fills the table, and the last run swallows the gap up to a
/// far-away final difference (`write_commit`'s single-statement
/// transactions log 4,837 record bytes each at 8, 4,622 at 16, 4,637 at
/// 32; the benchmark's traced run, seed 7, log format v6).
const MERGE_GAP: usize = 16;

/// Ascending, disjoint, non-empty byte runs `(offset, length)` of a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(super) struct Runs {
    n: usize,
    table: [(u32, u32); MAX_RUNS],
}

impl Runs {
    /// The runs, lowest offset first.
    pub(super) fn as_slice(&self) -> &[(u32, u32)] {
        &self.table[..self.n]
    }

    /// Adds the run `off .. off + len`; the caller keeps the table
    /// ascending, disjoint and within [`MAX_RUNS`].
    pub(super) fn push(&mut self, off: u32, len: u32) {
        self.table[self.n] = (off, len);
        self.n += 1;
    }

    /// Records that `start .. end` differs (`start` at or past every
    /// byte recorded so far): widens the last run across a small gap or
    /// once the table is full, else opens a new one.
    fn cover(&mut self, start: usize, end: usize) {
        if let Some((off, len)) = self.table[..self.n].last_mut() {
            let last_end = (*off + *len) as usize;
            if start <= last_end + MERGE_GAP || self.n == MAX_RUNS {
                *len = (end - *off as usize) as u32;
                return;
            }
        }
        self.push(start as u32, (end - start) as u32);
    }
}

/// The runs in which equal-length images `old` and `new` differ, each
/// starting and ending on a differing byte; empty iff the images are
/// identical.  One pass, eight bytes at a time.
pub(super) fn diff(old: &[u8], new: &[u8]) -> Runs {
    debug_assert_eq!(old.len(), new.len());
    let mut runs = Runs::default();
    let (old_words, new_words) = (old.chunks_exact(8), new.chunks_exact(8));
    let tail = old.len() - old_words.remainder().len();
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"));
    for (i, (a, b)) in old_words.zip(new_words).enumerate() {
        let x = word(a) ^ word(b);
        if x != 0 {
            // Little-endian: the lowest set bit lies in the first
            // differing byte, the highest in the last.
            let first = (x.trailing_zeros() / 8) as usize;
            let last = 7 - (x.leading_zeros() / 8) as usize;
            runs.cover(8 * i + first, 8 * i + last + 1);
        }
    }
    for i in tail..old.len() {
        if old[i] != new[i] {
            runs.cover(i, i + 1);
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The runs between a zeroed 100-byte page and one with `set` bytes
    /// changed (100 = twelve whole words and four bytes past them).
    fn runs_of(set: &[usize]) -> Vec<(u32, u32)> {
        let (old, mut new) = ([0u8; 100], [0u8; 100]);
        for &i in set {
            new[i] = 1;
        }
        diff(&old, &new).as_slice().to_vec()
    }

    #[test]
    fn runs_end_on_differing_bytes_and_merge_across_small_gaps() {
        assert_eq!(runs_of(&[]), []);
        assert_eq!(runs_of(&[0]), [(0, 1)]);
        assert_eq!(runs_of(&[3, 4, 9]), [(3, 7)], "within and across words");
        // MERGE_GAP equal bytes between two differences merge; one more splits.
        assert_eq!(runs_of(&[10, 27]), [(10, 18)]);
        assert_eq!(runs_of(&[10, 28]), [(10, 1), (28, 1)]);
        // The bytes past the last whole word are compared, too.
        assert_eq!(runs_of(&[2, 97, 99]), [(2, 1), (97, 3)]);
        assert_eq!(runs_of(&[95, 96]), [(95, 2)], "a run across the last word boundary");
    }
}
