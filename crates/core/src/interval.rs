//! Closed integer intervals.

use ri_pagestore::Error;

/// A closed interval `[lower, upper]` with `lower <= upper`.
///
/// Points are degenerate intervals with `lower == upper`, exactly as in the
/// paper (Section 3.3: "Points p are represented by degenerate intervals
/// (p, p)").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lower: i64,
    /// Inclusive upper bound.
    pub upper: i64,
}

impl Interval {
    /// Creates `[lower, upper]`, validating `lower <= upper`.
    pub fn new(lower: i64, upper: i64) -> Result<Interval, Error> {
        if lower > upper {
            return Err(Error::InvalidArgument(format!(
                "invalid interval: lower {lower} > upper {upper}"
            )));
        }
        Ok(Interval { lower, upper })
    }

    /// Creates a degenerate point interval `[p, p]`.
    pub fn point(p: i64) -> Interval {
        Interval { lower: p, upper: p }
    }

    /// Interval length `upper - lower` (0 for points).
    pub fn length(&self) -> i64 {
        self.upper - self.lower
    }

    /// Closed-interval intersection test.
    #[inline]
    pub fn intersects(&self, other: &Interval) -> bool {
        self.lower <= other.upper && other.lower <= self.upper
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.lower, self.upper)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_order() {
        assert!(Interval::new(3, 2).is_err());
        assert!(Interval::new(2, 2).is_ok());
        assert_eq!(Interval::point(5), Interval::new(5, 5).unwrap());
    }

    #[test]
    fn intersection_semantics_are_closed() {
        let a = Interval::new(1, 5).unwrap();
        assert!(a.intersects(&Interval::new(5, 9).unwrap()), "shared endpoint intersects");
        assert!(a.intersects(&Interval::new(0, 1).unwrap()));
        assert!(!a.intersects(&Interval::new(6, 9).unwrap()));
        assert!(a.intersects(&Interval::point(3)));
        assert!(!a.intersects(&Interval::point(0)));
    }

    #[test]
    fn length_and_membership() {
        let a = Interval::new(-3, 4).unwrap();
        assert_eq!(a.length(), 7);
        assert!(a.intersects(&Interval::point(-3)));
        assert!(a.intersects(&Interval::point(4)));
        assert!(!a.intersects(&Interval::point(5)));
        assert_eq!(Interval::point(9).length(), 0);
    }

    #[test]
    fn display() {
        assert_eq!(Interval::new(1, 2).unwrap().to_string(), "[1, 2]");
    }
}
