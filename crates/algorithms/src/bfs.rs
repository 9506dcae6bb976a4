//! Breadth-First Search (level computation) in delta form.

use gp_graph::{EdgeRef, VertexId};

use crate::DeltaAlgorithm;

/// The level assigned to unreachable vertices.
pub const UNREACHED: u32 = u32::MAX;

/// BFS levels: `propagate(δ) = δ + 1`, `reduce = min`, `V_init = ∞`,
/// `ΔV_init = 0` at the root.
///
/// Table II lists `propagate(δ) = 0` (pure reachability); we compute levels
/// instead — the standard accelerator-paper BFS, which subsumes
/// reachability and is verifiable against a golden BFS (see `DESIGN.md`
/// §3, substitution 5).
///
/// # Examples
///
/// ```
/// use gp_algorithms::{engine, Bfs};
/// use gp_graph::{GraphBuilder, VertexId};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(VertexId::new(0), VertexId::new(1), 1.0);
/// b.add_edge(VertexId::new(1), VertexId::new(2), 1.0);
/// let g = b.build();
/// let out = engine::run_sequential(&Bfs::new(VertexId::new(0)), &g);
/// assert_eq!(out.values, vec![0.0, 1.0, 2.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bfs {
    root: VertexId,
}

impl Bfs {
    /// BFS from `root`.
    pub fn new(root: VertexId) -> Self {
        Bfs { root }
    }

    /// The source vertex.
    pub fn root(&self) -> VertexId {
        self.root
    }
}

impl DeltaAlgorithm for Bfs {
    type Value = u32;
    type Delta = u32;

    fn name(&self) -> &'static str {
        "bfs"
    }

    fn init_value(&self, _v: VertexId) -> u32 {
        UNREACHED
    }

    fn identity_delta(&self) -> u32 {
        UNREACHED
    }

    fn initial_delta(&self, v: VertexId) -> Option<u32> {
        (v == self.root).then_some(0)
    }

    fn reduce(&self, value: u32, delta: u32) -> u32 {
        value.min(delta)
    }

    fn coalesce(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn propagation_basis(&self, old: u32, new: u32) -> Option<u32> {
        (new < old).then_some(new)
    }

    fn propagate(
        &self,
        basis: u32,
        _src: VertexId,
        _src_out_degree: u32,
        _edge: EdgeRef,
    ) -> Option<u32> {
        Some(basis.saturating_add(1))
    }

    fn value_to_f64(&self, v: u32) -> f64 {
        if v == UNREACHED {
            f64::INFINITY
        } else {
            v as f64
        }
    }
}

impl crate::IncrementalAlgorithm for Bfs {
    /// Hop counts strictly grow along edges, so the support test is sound
    /// (a cycle cannot hold its own level up).
    fn strategy(&self) -> crate::SeedingStrategy {
        crate::SeedingStrategy::Monotone(crate::Invalidation::SupportTest)
    }

    fn basis_of(&self, value: u32) -> u32 {
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_semantics() {
        let b = Bfs::new(VertexId::new(0));
        assert_eq!(b.reduce(5, 2), 2);
        assert_eq!(b.coalesce(3, 7), 3);
        let e = EdgeRef {
            other: VertexId::new(1),
            weight: 1.0,
        };
        assert_eq!(b.propagate(4, VertexId::new(0), 1, e), Some(5));
        assert_eq!(b.propagation_basis(UNREACHED, 0), Some(0));
        assert_eq!(b.propagation_basis(2, 2), None);
    }

    #[test]
    fn unreached_projects_to_infinity() {
        let b = Bfs::new(VertexId::new(0));
        assert!(b.value_to_f64(UNREACHED).is_infinite());
        assert_eq!(b.value_to_f64(3), 3.0);
    }

    #[test]
    fn saturating_depth_never_wraps() {
        let b = Bfs::new(VertexId::new(0));
        let e = EdgeRef {
            other: VertexId::new(1),
            weight: 1.0,
        };
        assert_eq!(
            b.propagate(u32::MAX - 1, VertexId::new(0), 1, e),
            Some(u32::MAX)
        );
        assert_eq!(
            b.propagate(u32::MAX, VertexId::new(0), 1, e),
            Some(u32::MAX)
        );
    }
}
