//! Composite keys and index entries.

/// Maximum number of key columns a composite index supports.
///
/// The reproduction needs at most three — e.g. `(node, lower, id)` when the
/// interval id is included in the index as in the paper's Figure 10 setup —
/// but four keeps a little headroom without bloating entries.
pub const MAX_ARITY: usize = 4;

/// A composite key: up to [`MAX_ARITY`] `i64` columns compared
/// lexicographically.
///
/// Stored inline (no heap allocation) so that scans can shuttle thousands of
/// keys around without touching the allocator.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Key {
    vals: [i64; MAX_ARITY],
    arity: u8,
}

impl Key {
    /// Builds a key from `cols`.
    ///
    /// # Panics
    /// Panics if `cols` is empty or longer than [`MAX_ARITY`].
    #[inline]
    pub fn new(cols: &[i64]) -> Key {
        assert!(
            !cols.is_empty() && cols.len() <= MAX_ARITY,
            "key arity must be 1..={MAX_ARITY}, got {}",
            cols.len()
        );
        // A fixed-trip copy: the bulk loader builds a key per entry, and a
        // copy of `cols.len()` words costs it a loop or a `memcpy` call.
        let vals = std::array::from_fn(|c| cols.get(c).copied().unwrap_or(0));
        Key { vals, arity: cols.len() as u8 }
    }

    /// [`Key::new`] for the page codec, which already holds the columns
    /// zero-padded to [`MAX_ARITY`] (`Eq` and `Hash` see the padding) and
    /// has validated `arity`.
    #[inline]
    pub(crate) fn from_padded(vals: [i64; MAX_ARITY], arity: usize) -> Key {
        debug_assert!((1..=MAX_ARITY).contains(&arity) && vals[arity..] == [0; MAX_ARITY][arity..]);
        Key { vals, arity: arity as u8 }
    }

    /// Number of columns in this key.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity as usize
    }

    /// The columns as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[i64] {
        &self.vals[..self.arity as usize]
    }

    /// The value of column `i`.
    #[inline]
    pub fn col(&self, i: usize) -> i64 {
        self.as_slice()[i]
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        debug_assert_eq!(self.arity, other.arity, "comparing keys of different arity");
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// One index entry: a composite key plus the `u64` payload (row id).
///
/// The payload participates in ordering *after* the key columns, which makes
/// every entry unique and lets deletes address an exact `(key, payload)`
/// pair — the standard way relational secondary indexes disambiguate
/// duplicate keys.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Entry {
    /// The composite key columns.
    pub key: Key,
    /// The associated payload: in a relational table, the column the key
    /// leaves out (`ri_relstore::TableDef::indexes`).
    pub payload: u64,
}

impl Entry {
    /// Convenience constructor.
    #[inline]
    pub fn new(cols: &[i64], payload: u64) -> Entry {
        Entry { key: Key::new(cols), payload }
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key).then(self.payload.cmp(&other.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexicographic_ordering() {
        let a = Key::new(&[1, 5]);
        let b = Key::new(&[1, 6]);
        let c = Key::new(&[2, 0]);
        assert!(a < b);
        assert!(b < c);
        assert!(a < c);
        assert_eq!(a, Key::new(&[1, 5]));
    }

    #[test]
    fn payload_breaks_ties() {
        let e1 = Entry::new(&[7, 7], 1);
        let e2 = Entry::new(&[7, 7], 2);
        assert!(e1 < e2);
    }

    #[test]
    fn negative_columns_order_correctly() {
        let a = Key::new(&[-10]);
        let b = Key::new(&[-2]);
        let c = Key::new(&[3]);
        assert!(a < b && b < c);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn oversized_key_panics() {
        let _ = Key::new(&[1, 2, 3, 4, 5]);
    }

    #[test]
    fn display_is_tuple_like() {
        assert_eq!(Key::new(&[3, -4]).to_string(), "(3, -4)");
    }
}
