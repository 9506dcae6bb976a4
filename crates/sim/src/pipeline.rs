//! Fixed-latency pipeline model.

use std::collections::VecDeque;

use crate::Cycle;

/// A fixed-latency pipeline with an initiation interval of one.
///
/// Models units such as the paper's 4-stage floating-point coalescer
/// (§IV-D): one new operation may enter per cycle, each operation completes
/// `depth` cycles after it was issued, and results retire in issue order.
///
/// The pipeline never back-pressures on its own — it can hold at most
/// `depth` operations because the issue rate is bounded by the caller
/// invoking [`Pipeline::issue`] at most once per cycle (enforced with a
/// debug assertion).
///
/// # Examples
///
/// ```
/// use gp_sim::{Cycle, Pipeline};
///
/// let mut p: Pipeline<&str> = Pipeline::new(4);
/// p.issue(Cycle::ZERO, "op");
/// assert!(p.retire(Cycle::new(3)).is_none());
/// assert_eq!(p.retire(Cycle::new(4)), Some("op"));
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline<T> {
    depth: u64,
    in_flight: VecDeque<(Cycle, T)>,
    last_issue: Cycle,
    issued_any: bool,
}

impl<T> Pipeline<T> {
    /// Creates a pipeline of `depth` stages.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero; use a direct hand-off for combinational
    /// logic instead.
    pub fn new(depth: u64) -> Self {
        assert!(depth > 0, "pipeline depth must be nonzero");
        Pipeline {
            depth,
            in_flight: VecDeque::new(),
            last_issue: Cycle::ZERO,
            issued_any: false,
        }
    }

    /// Issues an operation at cycle `now`; it will retire at `now + depth`.
    ///
    /// # Panics
    ///
    /// Debug builds panic if two operations are issued in the same cycle
    /// (initiation interval violation).
    pub fn issue(&mut self, now: Cycle, value: T) {
        debug_assert!(
            !self.issued_any || now > self.last_issue,
            "pipeline initiation interval violated at {now}"
        );
        self.last_issue = now;
        self.issued_any = true;
        self.in_flight.push_back((now + self.depth, value));
    }

    /// Whether an issue is legal at cycle `now` (at most one per cycle).
    pub fn can_issue(&self, now: Cycle) -> bool {
        !self.issued_any || now > self.last_issue
    }

    /// Retires the oldest operation if it has completed by cycle `now`.
    pub fn retire(&mut self, now: Cycle) -> Option<T> {
        match self.in_flight.front() {
            Some((done, _)) if *done <= now => self.in_flight.pop_front().map(|(_, v)| v),
            _ => None,
        }
    }

    /// Inspects in-flight operations, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.in_flight.iter().map(|(_, v)| v)
    }

    /// In-flight operations with the cycle each one completes, oldest
    /// (and earliest to complete) first — what a caller that does not poll
    /// [`Pipeline::retire`] every cycle needs to tell which of them a
    /// cycle-by-cycle poller would still see.
    pub fn due(&self) -> impl Iterator<Item = (Cycle, &T)> {
        self.in_flight.iter().map(|(done, v)| (*done, v))
    }

    /// Number of operations currently in flight.
    #[inline]
    pub fn len(&self) -> usize {
        self.in_flight.len()
    }

    /// Whether the pipeline is empty (fully drained).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// The configured depth in stages.
    #[inline]
    pub fn depth(&self) -> u64 {
        self.depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_retire_in_order_after_depth() {
        let mut p = Pipeline::new(3);
        p.issue(Cycle::new(0), 'a');
        p.issue(Cycle::new(1), 'b');
        assert_eq!(p.len(), 2);
        assert_eq!(p.retire(Cycle::new(2)), None);
        assert_eq!(p.retire(Cycle::new(3)), Some('a'));
        assert_eq!(p.retire(Cycle::new(3)), None); // 'b' finishes at 4
        assert_eq!(p.retire(Cycle::new(4)), Some('b'));
        assert!(p.is_empty());
    }

    #[test]
    fn can_issue_gates_same_cycle() {
        let mut p = Pipeline::new(1);
        assert!(p.can_issue(Cycle::ZERO));
        p.issue(Cycle::ZERO, ());
        assert!(!p.can_issue(Cycle::ZERO));
        assert!(p.can_issue(Cycle::new(1)));
    }

    #[test]
    #[should_panic(expected = "initiation interval")]
    #[cfg(debug_assertions)]
    fn double_issue_panics_in_debug() {
        let mut p = Pipeline::new(2);
        p.issue(Cycle::ZERO, 1);
        p.issue(Cycle::ZERO, 2);
    }

    #[test]
    fn due_reports_completion_cycles_oldest_first() {
        let mut p = Pipeline::new(3);
        p.issue(Cycle::new(2), 'a');
        p.issue(Cycle::new(5), 'b');
        let due: Vec<_> = p.due().map(|(c, v)| (c.get(), *v)).collect();
        assert_eq!(due, vec![(5, 'a'), (8, 'b')]);
    }

    #[test]
    fn iter_sees_in_flight() {
        let mut p = Pipeline::new(8);
        p.issue(Cycle::new(0), 10);
        p.issue(Cycle::new(1), 20);
        let v: Vec<_> = p.iter().copied().collect();
        assert_eq!(v, vec![10, 20]);
    }
}
