//! Single-Source Shortest Paths in delta form.

use gp_graph::{EdgeRef, VertexId};

use crate::DeltaAlgorithm;

/// SSSP (Table II): `propagate(δ) = E_ij + δ`, `reduce = min`,
/// `V_init = ∞`, `ΔV_init = 0` at the root and nothing elsewhere.
///
/// Asynchronous label-correcting shortest paths: a vertex re-propagates
/// whenever its tentative distance improves.
///
/// # Examples
///
/// ```
/// use gp_algorithms::{engine, Sssp};
/// use gp_graph::{GraphBuilder, VertexId};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(VertexId::new(0), VertexId::new(1), 2.0);
/// b.add_edge(VertexId::new(1), VertexId::new(2), 3.0);
/// b.weighted(true);
/// let g = b.build();
/// let out = engine::run_sequential(&Sssp::new(VertexId::new(0)), &g);
/// assert_eq!(out.values, vec![0.0, 2.0, 5.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sssp {
    root: VertexId,
}

impl Sssp {
    /// SSSP from `root`.
    pub fn new(root: VertexId) -> Self {
        Sssp { root }
    }

    /// The source vertex.
    pub fn root(&self) -> VertexId {
        self.root
    }
}

impl DeltaAlgorithm for Sssp {
    type Value = f64;
    type Delta = f64;

    fn name(&self) -> &'static str {
        "sssp"
    }

    fn init_value(&self, _v: VertexId) -> f64 {
        f64::INFINITY
    }

    fn identity_delta(&self) -> f64 {
        f64::INFINITY
    }

    fn initial_delta(&self, v: VertexId) -> Option<f64> {
        (v == self.root).then_some(0.0)
    }

    fn reduce(&self, value: f64, delta: f64) -> f64 {
        value.min(delta)
    }

    fn coalesce(&self, a: f64, b: f64) -> f64 {
        a.min(b)
    }

    fn propagation_basis(&self, old: f64, new: f64) -> Option<f64> {
        (new < old).then_some(new)
    }

    fn propagate(
        &self,
        basis: f64,
        _src: VertexId,
        _src_out_degree: u32,
        edge: EdgeRef,
    ) -> Option<f64> {
        Some(basis + edge.weight as f64)
    }

    fn value_to_f64(&self, v: f64) -> f64 {
        v
    }
}

impl crate::IncrementalAlgorithm for Sssp {
    /// Positive weights make propagation strictly worse-making along any
    /// cycle, so the per-vertex support test is sound for deletions.
    fn strategy(&self) -> crate::SeedingStrategy {
        crate::SeedingStrategy::Monotone(crate::Invalidation::SupportTest)
    }

    fn basis_of(&self, value: f64) -> f64 {
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_semantics() {
        let s = Sssp::new(VertexId::new(3));
        assert_eq!(s.init_value(VertexId::new(0)), f64::INFINITY);
        assert_eq!(s.initial_delta(VertexId::new(3)), Some(0.0));
        assert_eq!(s.initial_delta(VertexId::new(0)), None);
        assert_eq!(s.reduce(5.0, 3.0), 3.0);
        assert_eq!(s.coalesce(7.0, 2.0), 2.0);
        let e = EdgeRef {
            other: VertexId::new(1),
            weight: 1.5,
        };
        assert_eq!(s.propagate(2.0, VertexId::new(0), 9, e), Some(3.5));
    }

    #[test]
    fn only_improvements_propagate() {
        let s = Sssp::new(VertexId::new(0));
        assert_eq!(s.propagation_basis(10.0, 4.0), Some(4.0));
        assert_eq!(s.propagation_basis(4.0, 4.0), None);
        assert_eq!(s.propagation_basis(4.0, 9.0), None);
    }

    #[test]
    fn identity_is_noop() {
        let s = Sssp::new(VertexId::new(0));
        assert_eq!(s.reduce(3.0, s.identity_delta()), 3.0);
        assert_eq!(s.reduce(f64::INFINITY, s.identity_delta()), f64::INFINITY);
    }
}
