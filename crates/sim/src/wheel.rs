//! Timestamp-ordered deferred-action scheduler.
//!
//! [`EventWheel`] is an exact binary min-heap keyed by [`Cycle`], used by
//! the timing models (`O(log n)` per operation, unbounded horizon): payloads
//! pop in nondecreasing due-cycle order, FIFO within a cycle.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::Cycle;

/// A min-heap of `(due-cycle, payload)` pairs: the simulation analog of a
/// hardware timer wheel or an SST event queue.
///
/// Payloads scheduled for the same cycle pop in insertion order (a stable
/// sequence number breaks ties), which keeps whole-system simulations
/// deterministic.
///
/// # Examples
///
/// ```
/// use gp_sim::{Cycle, EventWheel};
///
/// let mut w = EventWheel::new();
/// w.schedule(Cycle::new(5), "later");
/// w.schedule(Cycle::new(2), "sooner");
/// assert_eq!(w.pop_due(Cycle::new(2)), Some("sooner"));
/// assert_eq!(w.pop_due(Cycle::new(2)), None);
/// assert_eq!(w.pop_due(Cycle::new(9)), Some("later"));
/// ```
#[derive(Debug, Clone)]
pub struct EventWheel<T> {
    heap: BinaryHeap<Reverse<(Cycle, u64, OrdShim<T>)>>,
    seq: u64,
}

/// Wrapper giving every payload a vacuous total order so it can live in the
/// heap; ordering is fully decided by `(Cycle, seq)` before the shim is ever
/// compared.
#[derive(Debug, Clone)]
struct OrdShim<T>(T);

impl<T> PartialEq for OrdShim<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<T> Eq for OrdShim<T> {}
impl<T> PartialOrd for OrdShim<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for OrdShim<T> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<T> EventWheel<T> {
    /// Creates an empty wheel.
    pub fn new() -> Self {
        EventWheel {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `payload` to become due at cycle `when`.
    pub fn schedule(&mut self, when: Cycle, payload: T) {
        self.heap.push(Reverse((when, self.seq, OrdShim(payload))));
        self.seq += 1;
    }

    /// Pops the earliest payload that is due at or before `now`.
    pub fn pop_due(&mut self, now: Cycle) -> Option<T> {
        match self.heap.peek() {
            Some(Reverse((due, _, _))) if *due <= now => {
                self.heap.pop().map(|Reverse((_, _, OrdShim(v)))| v)
            }
            _ => None,
        }
    }

    /// The cycle at which the next payload becomes due, or [`Cycle::NEVER`].
    ///
    /// Lets a simulation loop fast-forward over idle gaps.
    pub fn next_due(&self) -> Cycle {
        self.heap
            .peek()
            .map(|Reverse((due, _, _))| *due)
            .unwrap_or(Cycle::NEVER)
    }

    /// Number of scheduled payloads.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no payloads are scheduled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for EventWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut w = EventWheel::new();
        w.schedule(Cycle::new(30), 3);
        w.schedule(Cycle::new(10), 1);
        w.schedule(Cycle::new(20), 2);
        assert_eq!(w.next_due(), Cycle::new(10));
        assert_eq!(w.pop_due(Cycle::new(100)), Some(1));
        assert_eq!(w.pop_due(Cycle::new(100)), Some(2));
        assert_eq!(w.pop_due(Cycle::new(100)), Some(3));
        assert_eq!(w.next_due(), Cycle::NEVER);
    }

    #[test]
    fn same_cycle_is_fifo() {
        let mut w = EventWheel::new();
        for i in 0..10 {
            w.schedule(Cycle::new(5), i);
        }
        for i in 0..10 {
            assert_eq!(w.pop_due(Cycle::new(5)), Some(i));
        }
    }

    #[test]
    fn not_due_stays_scheduled() {
        let mut w = EventWheel::new();
        w.schedule(Cycle::new(7), ());
        assert_eq!(w.pop_due(Cycle::new(6)), None);
        assert_eq!(w.len(), 1);
        assert!(!w.is_empty());
    }
}
