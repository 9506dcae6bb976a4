//! Asynchronous linear-equation solving in delta form.
//!
//! The paper's §II-B cites "many Linear Equation Solvers" among the
//! delta-accumulative algorithms (after Maiter). This module solves
//! `x = b + W·x` — fixpoints of damped linear systems — where `W` is the
//! (weighted, inbound-view) adjacency operator: exactly the computation
//! behind PageRank, Katz centrality, and label diffusion, but with an
//! arbitrary right-hand side.

use std::sync::Arc;

use gp_graph::{CsrGraph, EdgeRef, GraphBuilder, VertexId};

use crate::DeltaAlgorithm;

/// Solves `x = b + Wᵀ·x` asynchronously: `reduce = +`,
/// `propagate(δ) = w_ij · δ`, `V_init = 0`, `ΔV_init = b_j`.
///
/// Converges when the spectral radius of `W` is below one; use
/// [`scale_for_convergence`] to damp an arbitrary weighted graph.
///
/// # Examples
///
/// ```
/// use gp_algorithms::{engine, scale_for_convergence, LinearSolver};
/// use gp_graph::generators::{erdos_renyi, WeightMode};
///
/// let raw = erdos_renyi(50, 200, WeightMode::Uniform(0.5, 2.0), 1);
/// let w = scale_for_convergence(&raw, 0.7);
/// let b: Vec<f64> = (0..50).map(|i| 1.0 + i as f64 * 0.01).collect();
/// let solver = LinearSolver::new(b, 1e-10);
/// let x = engine::run_sequential(&solver, &w).values;
/// assert!(x.iter().all(|v| v.is_finite()));
/// ```
#[derive(Debug, Clone)]
pub struct LinearSolver {
    rhs: Arc<Vec<f64>>,
    threshold: f64,
}

impl LinearSolver {
    /// Creates a solver for right-hand side `rhs` with local propagation
    /// `threshold`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative.
    pub fn new(rhs: Vec<f64>, threshold: f64) -> Self {
        assert!(threshold >= 0.0, "threshold must be nonnegative");
        LinearSolver {
            rhs: Arc::new(rhs),
            threshold,
        }
    }

    /// The right-hand side vector `b`.
    pub fn rhs(&self) -> &[f64] {
        &self.rhs
    }
}

impl DeltaAlgorithm for LinearSolver {
    type Value = f64;
    type Delta = f64;

    fn name(&self) -> &'static str {
        "linear-solver"
    }

    fn init_value(&self, _v: VertexId) -> f64 {
        0.0
    }

    fn identity_delta(&self) -> f64 {
        0.0
    }

    fn initial_delta(&self, v: VertexId) -> Option<f64> {
        let b = self.rhs.get(v.index()).copied().unwrap_or(0.0);
        (b != 0.0).then_some(b)
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
        _src_out_degree: u32,
        edge: EdgeRef,
    ) -> Option<f64> {
        Some(f64::from(edge.weight) * basis)
    }

    fn value_to_f64(&self, v: f64) -> f64 {
        v
    }
}

/// Rescales a weighted graph so the iteration `x ← b + Wᵀx` converges:
/// inbound weights are normalized per vertex and multiplied by
/// `damping` (`0 < damping < 1`), giving `‖W‖_∞ ≤ damping < 1`.
///
/// # Panics
///
/// Panics unless `0 < damping < 1`.
pub fn scale_for_convergence(graph: &CsrGraph, damping: f64) -> CsrGraph {
    assert!(
        damping > 0.0 && damping < 1.0,
        "damping must be in (0,1) for convergence"
    );
    let n = graph.num_vertices();
    let mut in_sums = vec![0.0f64; n];
    for v in graph.vertices() {
        for e in graph.out_edges(v) {
            in_sums[e.other.index()] += f64::from(e.weight);
        }
    }
    let mut b = GraphBuilder::new(n);
    b.weighted(true).dedup(false).drop_self_loops(false);
    for v in graph.vertices() {
        for e in graph.out_edges(v) {
            let sum = in_sums[e.other.index()];
            let w = if sum > 0.0 {
                (damping * f64::from(e.weight) / sum) as f32
            } else {
                0.0
            };
            b.add_edge(v, e.other, w);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_sequential;
    use gp_graph::generators::{erdos_renyi, WeightMode};

    /// Dense Jacobi reference for x = b + W^T x.
    fn jacobi(graph: &CsrGraph, b: &[f64], eps: f64) -> Vec<f64> {
        let n = graph.num_vertices();
        let mut x = b.to_vec();
        let mut next = vec![0.0f64; n];
        for _ in 0..100_000 {
            next.copy_from_slice(b);
            for v in graph.vertices() {
                for e in graph.out_edges(v) {
                    next[e.other.index()] += f64::from(e.weight) * x[v.index()];
                }
            }
            let change = x
                .iter()
                .zip(&next)
                .map(|(a, c)| (a - c).abs())
                .fold(0.0, f64::max);
            std::mem::swap(&mut x, &mut next);
            if change < eps {
                break;
            }
        }
        x
    }

    #[test]
    fn solves_damped_system_to_jacobi_fixpoint() {
        let raw = erdos_renyi(120, 700, WeightMode::Uniform(0.5, 3.0), 8);
        let w = scale_for_convergence(&raw, 0.8);
        let b: Vec<f64> = (0..120).map(|i| (i % 7) as f64 * 0.3 + 0.1).collect();
        let solver = LinearSolver::new(b.clone(), 1e-11);
        let out = run_sequential(&solver, &w);
        let golden = jacobi(&w, &b, 1e-13);
        assert!(crate::max_abs_diff(&out.values, &golden) < 1e-5);
    }

    #[test]
    fn zero_rhs_terminates_immediately() {
        let raw = erdos_renyi(20, 60, WeightMode::Uniform(0.5, 1.5), 1);
        let w = scale_for_convergence(&raw, 0.5);
        let solver = LinearSolver::new(vec![0.0; 20], 1e-9);
        let out = run_sequential(&solver, &w);
        assert_eq!(out.events_processed, 0);
        assert!(out.values.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn scaling_bounds_inbound_mass() {
        let raw = erdos_renyi(60, 300, WeightMode::Uniform(0.5, 4.0), 5);
        let w = scale_for_convergence(&raw, 0.6);
        for v in w.vertices() {
            let sum: f64 = w.in_edges(v).map(|e| f64::from(e.weight)).sum();
            assert!(sum <= 0.6 + 1e-4, "vertex {v} inbound mass {sum}");
        }
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn damping_of_one_rejected() {
        let g = erdos_renyi(4, 8, WeightMode::Unweighted, 0);
        let _ = scale_for_convergence(&g, 1.0);
    }
}
