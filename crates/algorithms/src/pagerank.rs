//! Incremental (delta-based) PageRank — "PageRankDelta" in the paper.

use std::sync::Arc;

use gp_graph::{EdgeRef, VertexId};

use crate::DeltaAlgorithm;

/// Contribution-based PageRank (Table II, row *PR-Delta*).
///
/// * `propagate(δ) = α · δ / N(src)`
/// * `reduce = +`
/// * `V_init = 0`, `ΔV_init = 1 − α`
///
/// Converges to the *unnormalized* PageRank fixpoint
/// `v_j = (1 − α) + α · Σ_{i→j} v_i / N(i)`. A vertex stops propagating when
/// the applied change falls below `threshold`.
///
/// # Examples
///
/// ```
/// use gp_algorithms::{engine, PageRankDelta};
/// use gp_graph::generators::{erdos_renyi, WeightMode};
///
/// let g = erdos_renyi(50, 200, WeightMode::Unweighted, 7);
/// let out = engine::run_sequential(&PageRankDelta::new(0.85, 1e-8), &g);
/// assert!(out.values.iter().all(|r| *r >= 0.15 - 1e-6));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PageRankDelta {
    alpha: f64,
    threshold: f64,
    /// Personalization mask: teleport mass is injected only at `true`
    /// vertices. `None` = classic (uniform) PageRank.
    sources: Option<Arc<Vec<bool>>>,
}

impl PageRankDelta {
    /// Creates PageRank with damping `alpha` and local propagation
    /// `threshold`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha < 1` and `threshold >= 0`.
    pub fn new(alpha: f64, threshold: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&alpha) && alpha > 0.0,
            "alpha must be in (0,1)"
        );
        assert!(threshold >= 0.0, "threshold must be nonnegative");
        PageRankDelta {
            alpha,
            threshold,
            sources: None,
        }
    }

    /// Personalized PageRank: teleport mass `(1−α)` is injected only at
    /// `sources`, so ranks measure proximity to that seed set (random walks
    /// with restart). An easy extension of the paper's PR-Delta — only the
    /// initial events change.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`PageRankDelta::new`], or if any
    /// source index is `>= num_vertices`.
    pub fn personalized(
        alpha: f64,
        threshold: f64,
        num_vertices: usize,
        sources: &[VertexId],
    ) -> Self {
        let mut mask = vec![false; num_vertices];
        for s in sources {
            mask[s.index()] = true;
        }
        PageRankDelta {
            sources: Some(Arc::new(mask)),
            ..Self::new(alpha, threshold)
        }
    }

    /// The damping factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The local propagation threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

impl DeltaAlgorithm for PageRankDelta {
    type Value = f64;
    type Delta = f64;

    fn name(&self) -> &'static str {
        "pagerank-delta"
    }

    fn init_value(&self, _v: VertexId) -> f64 {
        0.0
    }

    fn identity_delta(&self) -> f64 {
        0.0
    }

    fn initial_delta(&self, v: VertexId) -> Option<f64> {
        match &self.sources {
            Some(mask) if !mask[v.index()] => None,
            _ => Some(1.0 - self.alpha),
        }
    }

    fn reduce(&self, value: f64, delta: f64) -> f64 {
        value + delta
    }

    fn coalesce(&self, a: f64, b: f64) -> f64 {
        a + b
    }

    fn propagation_basis(&self, old: f64, new: f64) -> Option<f64> {
        let delta = new - old;
        (delta.abs() > self.threshold).then_some(delta)
    }

    fn propagate(
        &self,
        basis: f64,
        _src: VertexId,
        src_out_degree: u32,
        _edge: EdgeRef,
    ) -> Option<f64> {
        if src_out_degree == 0 {
            return None;
        }
        Some(self.alpha * basis / src_out_degree as f64)
    }

    fn value_to_f64(&self, v: f64) -> f64 {
        v
    }

    /// Rank mass is accumulated with `f64` additions, so backends differ by
    /// the sub-threshold residue each vertex may still be holding when the
    /// queue drains; the worst case grows with `threshold`, not machine
    /// epsilon.
    fn comparison_tolerance(&self) -> f64 {
        (self.threshold * 1e4).max(1e-9)
    }
}

impl crate::IncrementalAlgorithm for PageRankDelta {
    /// Rank mass is additive, so edge updates are repaired by retracting
    /// the shares sent under the old adjacency and granting them under the
    /// new one.
    fn strategy(&self) -> crate::SeedingStrategy {
        crate::SeedingStrategy::DeltaCorrection
    }

    fn negate(&self, delta: f64) -> f64 {
        -delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_semantics() {
        let pr = PageRankDelta::new(0.85, 1e-4);
        assert_eq!(pr.init_value(VertexId::new(0)), 0.0);
        assert_eq!(
            pr.initial_delta(VertexId::new(0)),
            Some(0.15000000000000002)
        );
        assert_eq!(pr.reduce(1.0, 0.5), 1.5);
        assert_eq!(pr.coalesce(0.25, 0.25), 0.5);
        let e = EdgeRef {
            other: VertexId::new(1),
            weight: 1.0,
        };
        assert_eq!(pr.propagate(1.0, VertexId::new(0), 4, e), Some(0.85 / 4.0));
    }

    #[test]
    fn below_threshold_stops_propagation() {
        let pr = PageRankDelta::new(0.85, 1e-3);
        assert!(pr.propagation_basis(1.0, 1.0 + 1e-4).is_none());
        assert!(pr.propagation_basis(1.0, 1.01).is_some());
    }

    #[test]
    fn dangling_source_emits_nothing() {
        let pr = PageRankDelta::new(0.85, 0.0);
        let e = EdgeRef {
            other: VertexId::new(1),
            weight: 1.0,
        };
        assert_eq!(pr.propagate(1.0, VertexId::new(0), 0, e), None);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_rejected() {
        let _ = PageRankDelta::new(1.5, 0.0);
    }

    #[test]
    fn personalized_injects_only_at_sources() {
        let pr = PageRankDelta::personalized(0.85, 1e-6, 4, &[VertexId::new(2)]);
        assert_eq!(pr.initial_delta(VertexId::new(0)), None);
        assert!(pr.initial_delta(VertexId::new(2)).is_some());
    }

    #[test]
    fn personalized_matches_reference() {
        use crate::engine::run_sequential;
        let g = gp_graph::generators::erdos_renyi(
            120,
            700,
            gp_graph::generators::WeightMode::Unweighted,
            5,
        );
        let sources = [VertexId::new(3), VertexId::new(40)];
        let pr = PageRankDelta::personalized(0.85, 1e-11, 120, &sources);
        let out = run_sequential(&pr, &g);
        let golden = crate::reference::personalized_pagerank(&g, 0.85, &sources, 1e-13);
        assert!(crate::max_abs_diff(&out.values, &golden) < 1e-5);
        // Mass concentrates at the seed set.
        assert!(out.values[3] > out.values[10] * 2.0);
    }

    #[test]
    fn identity_delta_is_noop() {
        let pr = PageRankDelta::new(0.85, 1e-4);
        assert_eq!(pr.reduce(2.5, pr.identity_delta()), 2.5);
    }
}
