//! The simulation clock domain.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute timestamp of the simulated clock, measured in cycles.
///
/// `Cycle` is a newtype over `u64` so that cycle counts cannot be confused
/// with other integer quantities (vertex ids, byte counts, ...). Arithmetic
/// with plain `u64` durations is supported directly because durations are
/// pervasive in timing models:
///
/// ```
/// use gp_sim::Cycle;
/// let start = Cycle::new(10);
/// let done = start + 4;
/// assert_eq!(done.get(), 14);
/// assert_eq!(done - start, 4);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycle(u64);

impl Cycle {
    /// The beginning of time.
    pub const ZERO: Cycle = Cycle(0);

    /// A timestamp later than any reachable simulation time. Used as the
    /// "never" sentinel by schedulers.
    pub const NEVER: Cycle = Cycle(u64::MAX);

    /// Creates a timestamp at cycle `n`.
    #[inline]
    pub const fn new(n: u64) -> Self {
        Cycle(n)
    }

    /// Returns the raw cycle count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns the next cycle (`self + 1`).
    #[inline]
    pub const fn next(self) -> Self {
        Cycle(self.0 + 1)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    /// Duration between two timestamps.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        debug_assert!(self.0 >= rhs.0, "cycle subtraction underflow");
        self.0 - rhs.0
    }
}

impl From<u64> for Cycle {
    #[inline]
    fn from(n: u64) -> Self {
        Cycle(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_arithmetic() {
        let a = Cycle::new(5);
        let b = a + 3;
        assert!(b > a);
        assert_eq!(b - a, 3);
        assert_eq!(a.next().get(), 6);
        assert_eq!(Cycle::ZERO.get(), 0);
        assert!(Cycle::NEVER > Cycle::new(u64::MAX - 1));
    }

    #[test]
    fn add_assign_advances() {
        let mut t = Cycle::ZERO;
        t += 10;
        assert_eq!(t, Cycle::new(10));
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Cycle::new(3).to_string(), "cycle 3");
    }
}
