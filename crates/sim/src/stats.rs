//! Statistics primitives backing the evaluation figures.
//!
//! Every figure in the paper's evaluation section is an aggregation over
//! simulation counters; this module provides the two collectors the rest
//! of the workspace shares: running [`Average`]s and a per-unit
//! [`StateTimeline`] that records how many cycles a hardware unit spent in
//! each coarse state (the basis of the paper's Fig. 14 breakdown).

/// A running average of `f64` samples (mean, count, min, max).
#[derive(Debug, Default, Clone, Copy)]
pub struct Average {
    sum: f64,
    count: u64,
    min: f64,
    max: f64,
}

impl Average {
    /// Records one sample.
    pub fn record(&mut self, sample: f64) {
        if self.count == 0 {
            self.min = sample;
            self.max = sample;
        } else {
            self.min = self.min.min(sample);
            self.max = self.max.max(sample);
        }
        self.sum += sample;
        self.count += 1;
    }

    /// Mean of all samples, or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest sample, or `0.0` when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample, or `0.0` when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Folds another average's samples into this one, as if every sample
    /// had been recorded here directly.
    pub fn merge(&mut self, other: &Average) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// Accumulates, per named state, how many cycles a unit spent in it.
///
/// The generic parameter is typically a small `enum` implementing `Into<usize>`
/// indirectly via [`StateTimeline::add`]'s explicit index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateTimeline {
    names: Vec<&'static str>,
    cycles: Vec<u64>,
}

impl StateTimeline {
    /// Creates a timeline over the given state names.
    ///
    /// # Panics
    ///
    /// Panics if `names` is empty.
    pub fn new(names: &[&'static str]) -> Self {
        assert!(!names.is_empty(), "state timeline needs at least one state");
        StateTimeline {
            names: names.to_vec(),
            cycles: vec![0; names.len()],
        }
    }

    /// Charges `n` cycles to state `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn add(&mut self, idx: usize, n: u64) {
        self.cycles[idx] += n;
    }

    /// Total cycles accounted across all states.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// `(name, cycles, fraction)` rows; fractions sum to 1 when non-empty.
    pub fn fractions(&self) -> Vec<(&'static str, u64, f64)> {
        let total = self.total().max(1) as f64;
        self.names
            .iter()
            .zip(&self.cycles)
            .map(|(n, c)| (*n, *c, *c as f64 / total))
            .collect()
    }

    /// Merges another timeline with the same states into this one.
    ///
    /// # Panics
    ///
    /// Panics if the state names differ.
    pub fn merge(&mut self, other: &StateTimeline) {
        assert_eq!(self.names, other.names, "state name mismatch");
        for (a, b) in self.cycles.iter_mut().zip(&other.cycles) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_tracks_extremes() {
        let mut a = Average::default();
        assert_eq!(a.mean(), 0.0);
        a.record(2.0);
        a.record(4.0);
        a.record(-1.0);
        assert!((a.mean() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.min(), -1.0);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn state_timeline_fractions_sum_to_one() {
        let mut t = StateTimeline::new(&["busy", "stall", "idle"]);
        t.add(0, 50);
        t.add(1, 25);
        t.add(2, 25);
        let rows = t.fractions();
        let total: f64 = rows.iter().map(|(_, _, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(rows[0], ("busy", 50, 0.5));
    }

    #[test]
    fn state_timeline_merge() {
        let mut a = StateTimeline::new(&["x", "y"]);
        let mut b = StateTimeline::new(&["x", "y"]);
        a.add(0, 1);
        b.add(1, 3);
        a.merge(&b);
        assert_eq!(a.total(), 4);
    }
}
