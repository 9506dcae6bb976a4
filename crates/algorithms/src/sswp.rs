//! Single-Source Widest Path (maximum bottleneck capacity) in delta form.

use gp_graph::{EdgeRef, VertexId};

use crate::DeltaAlgorithm;

/// SSWP: the widest-path (max-min) semiring, a delta-accumulative
/// algorithm beyond the paper's five (its §II-B framework admits any
/// reduce/propagate pair satisfying the reordering property, which
/// `max`/`min` does: `min(max(x,y),w) = max(min(x,w), min(y,w))`).
///
/// `reduce = max`, `propagate(δ) = min(δ, E_ij)`, `V_init = 0`,
/// `ΔV_init = ∞` at the root: each vertex converges to the largest
/// bottleneck capacity over all paths from the root.
///
/// # Examples
///
/// ```
/// use gp_algorithms::{engine, Sswp};
/// use gp_graph::{GraphBuilder, VertexId};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(VertexId::new(0), VertexId::new(1), 5.0);
/// b.add_edge(VertexId::new(1), VertexId::new(2), 2.0);
/// b.weighted(true);
/// let out = engine::run_sequential(&Sswp::new(VertexId::new(0)), &b.build());
/// assert_eq!(out.values[2], 2.0); // bottleneck of the only path
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sswp {
    root: VertexId,
}

impl Sswp {
    /// Widest paths from `root`.
    pub fn new(root: VertexId) -> Self {
        Sswp { root }
    }

    /// The source vertex.
    pub fn root(&self) -> VertexId {
        self.root
    }
}

impl DeltaAlgorithm for Sswp {
    type Value = f64;
    type Delta = f64;

    fn name(&self) -> &'static str {
        "sswp"
    }

    fn init_value(&self, _v: VertexId) -> f64 {
        0.0
    }

    fn identity_delta(&self) -> f64 {
        0.0
    }

    fn initial_delta(&self, v: VertexId) -> Option<f64> {
        (v == self.root).then_some(f64::INFINITY)
    }

    fn reduce(&self, value: f64, delta: f64) -> f64 {
        value.max(delta)
    }

    fn coalesce(&self, a: f64, b: f64) -> f64 {
        a.max(b)
    }

    fn propagation_basis(&self, old: f64, new: f64) -> Option<f64> {
        (new > old).then_some(new)
    }

    fn propagate(
        &self,
        basis: f64,
        _src: VertexId,
        _src_out_degree: u32,
        edge: EdgeRef,
    ) -> Option<f64> {
        Some(basis.min(f64::from(edge.weight)))
    }

    fn value_to_f64(&self, v: f64) -> f64 {
        v
    }
}

impl crate::IncrementalAlgorithm for Sswp {
    /// Width is min-capped, not strictly decreased, along edges, so equal
    /// widths around a cycle self-support — like CC, deletions need the
    /// reachability closure.
    fn strategy(&self) -> crate::SeedingStrategy {
        crate::SeedingStrategy::Monotone(crate::Invalidation::Reachability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_sequential;
    use crate::reference::sswp_widest;
    use gp_graph::generators::{erdos_renyi, WeightMode};

    #[test]
    fn semiring_laws() {
        let s = Sswp::new(VertexId::new(0));
        assert_eq!(s.reduce(3.0, 5.0), 5.0);
        assert_eq!(s.coalesce(2.0, 7.0), 7.0);
        let e = EdgeRef {
            other: VertexId::new(1),
            weight: 4.0,
        };
        assert_eq!(s.propagate(9.0, VertexId::new(0), 1, e), Some(4.0));
        assert_eq!(s.propagate(2.0, VertexId::new(0), 1, e), Some(2.0));
        assert_eq!(s.reduce(1.0, s.identity_delta()), 1.0);
    }

    #[test]
    fn matches_reference_on_random_graphs() {
        let g = erdos_renyi(150, 900, WeightMode::Uniform(1.0, 10.0), 4);
        let root = VertexId::new(0);
        let out = run_sequential(&Sswp::new(root), &g);
        let golden = sswp_widest(&g, root);
        assert!(crate::max_abs_diff(&out.values, &golden) < 1e-6);
    }

    #[test]
    fn unreachable_vertices_stay_at_zero_capacity() {
        let mut b = gp_graph::GraphBuilder::new(3);
        b.add_edge(VertexId::new(0), VertexId::new(1), 3.0);
        b.weighted(true);
        let out = run_sequential(&Sswp::new(VertexId::new(0)), &b.build());
        assert!(out.values[0].is_infinite()); // root: unconstrained
        assert_eq!(out.values[1], 3.0);
        assert_eq!(out.values[2], 0.0);
    }
}
