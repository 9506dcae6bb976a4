//! Connected Components via max-label propagation, in delta form.

use gp_graph::{EdgeRef, VertexId};

use crate::DeltaAlgorithm;

/// Connected Components (Table II): `propagate(δ) = δ`, `reduce = max`,
/// `V_init = −1`, `ΔV_init = j` (each vertex seeds its own id).
///
/// At fixpoint every vertex holds the largest vertex id that reaches it
/// (including itself). On symmetric graphs that is the canonical label of
/// its (weakly) connected component, which is how the paper — and every
/// label-propagation CC — uses it.
///
/// # Examples
///
/// ```
/// use gp_algorithms::{engine, ConnectedComponents};
/// use gp_graph::{GraphBuilder, VertexId};
///
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(VertexId::new(0), VertexId::new(1), 1.0);
/// b.symmetric(true);
/// let g = b.build();
/// let out = engine::run_sequential(&ConnectedComponents::new(), &g);
/// assert_eq!(out.values, vec![1.0, 1.0, 2.0, 3.0]);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectedComponents;

impl ConnectedComponents {
    /// Creates the algorithm.
    pub fn new() -> Self {
        ConnectedComponents
    }
}

impl DeltaAlgorithm for ConnectedComponents {
    type Value = i64;
    type Delta = i64;

    fn name(&self) -> &'static str {
        "connected-components"
    }

    fn init_value(&self, _v: VertexId) -> i64 {
        -1
    }

    fn identity_delta(&self) -> i64 {
        -1
    }

    fn initial_delta(&self, v: VertexId) -> Option<i64> {
        Some(i64::from(v.get()))
    }

    fn reduce(&self, value: i64, delta: i64) -> i64 {
        value.max(delta)
    }

    fn coalesce(&self, a: i64, b: i64) -> i64 {
        a.max(b)
    }

    fn propagation_basis(&self, old: i64, new: i64) -> Option<i64> {
        (new > old).then_some(new)
    }

    fn propagate(
        &self,
        basis: i64,
        _src: VertexId,
        _src_out_degree: u32,
        _edge: EdgeRef,
    ) -> Option<i64> {
        Some(basis)
    }

    fn value_to_f64(&self, v: i64) -> f64 {
        v as f64
    }
}

impl crate::IncrementalAlgorithm for ConnectedComponents {
    /// Labels pass through edges unchanged, so a cycle of equal labels
    /// self-supports and the support test would keep a stale component
    /// label alive; deletions need the full reachability closure.
    fn strategy(&self) -> crate::SeedingStrategy {
        crate::SeedingStrategy::Monotone(crate::Invalidation::Reachability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_semantics() {
        let cc = ConnectedComponents::new();
        assert_eq!(cc.init_value(VertexId::new(9)), -1);
        assert_eq!(cc.initial_delta(VertexId::new(9)), Some(9));
        assert_eq!(cc.reduce(3, 7), 7);
        assert_eq!(cc.coalesce(5, 2), 5);
        let e = EdgeRef {
            other: VertexId::new(1),
            weight: 1.0,
        };
        assert_eq!(cc.propagate(6, VertexId::new(0), 2, e), Some(6));
    }

    #[test]
    fn only_larger_labels_propagate() {
        let cc = ConnectedComponents::new();
        assert_eq!(cc.propagation_basis(-1, 4), Some(4));
        assert_eq!(cc.propagation_basis(4, 4), None);
    }

    #[test]
    fn identity_is_noop() {
        let cc = ConnectedComponents::new();
        assert_eq!(cc.reduce(0, cc.identity_delta()), 0);
        assert_eq!(cc.reduce(-1, cc.identity_delta()), -1);
    }
}
