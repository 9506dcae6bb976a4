//! Lock-free `f64` cells for the push-direction CAS updates.

use std::sync::atomic::{AtomicU64, Ordering};

/// An atomic `f64` built on `AtomicU64` bit transmutation (no `unsafe`).
///
/// Provides the three update shapes Ligra-style apps need: `store`/`load`,
/// monotonic `fetch_min`/`fetch_max` that report whether they won, and an
/// accumulating `fetch_add`.
#[derive(Debug)]
pub struct AtomicF64(AtomicU64);

impl AtomicF64 {
    /// Creates a cell holding `v`.
    pub fn new(v: f64) -> Self {
        AtomicF64(AtomicU64::new(v.to_bits()))
    }

    /// Atomically loads the value.
    #[inline]
    pub fn load(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Acquire))
    }

    /// Atomically stores `v`.
    #[inline]
    pub fn store(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Release);
    }

    /// Atomically lowers the cell to `min(current, v)`; returns `true` if
    /// the cell changed.
    pub fn fetch_min(&self, v: f64) -> bool {
        self.replace_unless(|cur| cur <= v, v)
    }

    /// Atomically raises the cell to `max(current, v)`; returns `true` if
    /// the cell changed.
    pub fn fetch_max(&self, v: f64) -> bool {
        self.replace_unless(|cur| cur >= v, v)
    }

    /// Stores `v` unless `keep(current)`; returns `true` if it stored.
    /// A NaN cell fails every comparison, so it is always replaced.
    fn replace_unless(&self, keep: impl Fn(f64) -> bool, v: f64) -> bool {
        self.0
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                (!keep(f64::from_bits(cur))).then_some(v.to_bits())
            })
            .is_ok()
    }

    /// Atomically adds `v`.
    pub fn fetch_add(&self, v: f64) {
        let add = |cur| Some((f64::from_bits(cur) + v).to_bits());
        let _ = self
            .0
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, add);
    }

    /// Atomically replaces `expected` with `v`; returns `true` on success.
    /// The comparison is on bit patterns, as Ligra's BFS CAS does.
    pub fn compare_and_set(&self, expected: f64, v: f64) -> bool {
        self.0
            .compare_exchange(
                expected.to_bits(),
                v.to_bits(),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }
}

/// Builds a vector of atomic cells from plain values.
pub(crate) fn atomic_vec(values: impl IntoIterator<Item = f64>) -> Vec<AtomicF64> {
    values.into_iter().map(AtomicF64::new).collect()
}

/// Snapshots atomic cells back into plain values.
pub(crate) fn snapshot(cells: &[AtomicF64]) -> Vec<f64> {
    cells.iter().map(AtomicF64::load).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_max_report_wins() {
        let a = AtomicF64::new(5.0);
        assert!(a.fetch_min(3.0));
        assert!(!a.fetch_min(4.0));
        assert_eq!(a.load(), 3.0);
        assert!(a.fetch_max(9.0));
        assert!(!a.fetch_max(1.0));
        assert_eq!(a.load(), 9.0);
    }

    #[test]
    fn add_accumulates_under_contention() {
        let a = AtomicF64::new(0.0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1_000 {
                        a.fetch_add(1.0);
                    }
                });
            }
        });
        assert_eq!(a.load(), 4_000.0);
    }

    #[test]
    fn cas_only_first_wins() {
        let a = AtomicF64::new(f64::INFINITY);
        assert!(a.compare_and_set(f64::INFINITY, 1.0));
        assert!(!a.compare_and_set(f64::INFINITY, 2.0));
        assert_eq!(a.load(), 1.0);
    }

    #[test]
    fn min_with_infinity_initial() {
        let a = AtomicF64::new(f64::INFINITY);
        assert!(a.fetch_min(10.0));
        assert!(a.fetch_min(2.0));
        assert_eq!(a.load(), 2.0);
    }
}
