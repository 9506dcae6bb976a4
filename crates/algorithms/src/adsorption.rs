//! Adsorption label propagation in delta form.

use std::sync::Arc;

use gp_graph::rng::{Rng, StdRng};

use gp_graph::{CsrGraph, EdgeRef, GraphBuilder, VertexId};

use crate::DeltaAlgorithm;

/// Per-vertex Adsorption parameters.
///
/// Adsorption (Table II) computes
/// `v_j = β_j · I_j + Σ_{i→j} α_i · E_ij · v_i` — a damped, weighted label
/// diffusion. `α_i` is vertex `i`'s continue probability, `β_j` scales
/// vertex `j`'s injected label mass `I_j`.
///
/// The paper creates randomly weighted edges and normalizes inbound weights
/// per vertex (§VI-A); combined with `α < 1` this keeps the spectral radius
/// below one, so the iteration converges.
#[derive(Debug, Clone)]
pub struct AdsorptionParams {
    alpha: Arc<Vec<f32>>,
    beta: Arc<Vec<f32>>,
    injection: Arc<Vec<f32>>,
}

impl AdsorptionParams {
    /// Random parameters for an `n`-vertex graph, matching the paper's
    /// setup: `α ∈ [0.1, 0.9)`, `β ∈ [0.1, 1.0)`, `I ∈ [0, 1)`.
    pub fn random(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        AdsorptionParams {
            alpha: Arc::new((0..n).map(|_| rng.gen_range(0.1..0.9)).collect()),
            beta: Arc::new((0..n).map(|_| rng.gen_range(0.1..1.0)).collect()),
            injection: Arc::new((0..n).map(|_| rng.gen_range(0.0..1.0)).collect()),
        }
    }

    /// Explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or any `α` falls outside `[0, 1)`.
    pub fn new(alpha: Vec<f32>, beta: Vec<f32>, injection: Vec<f32>) -> Self {
        assert_eq!(alpha.len(), beta.len());
        assert_eq!(alpha.len(), injection.len());
        assert!(
            alpha.iter().all(|a| (0.0..1.0).contains(a)),
            "alpha must be in [0,1) for convergence"
        );
        AdsorptionParams {
            alpha: Arc::new(alpha),
            beta: Arc::new(beta),
            injection: Arc::new(injection),
        }
    }

    /// Continue probability of vertex `v`.
    #[inline]
    pub fn alpha(&self, v: VertexId) -> f32 {
        self.alpha[v.index()]
    }

    /// Injection scale of vertex `v`.
    #[inline]
    pub fn beta(&self, v: VertexId) -> f32 {
        self.beta[v.index()]
    }

    /// Injected label mass of vertex `v`.
    #[inline]
    pub fn injection(&self, v: VertexId) -> f32 {
        self.injection[v.index()]
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.alpha.len()
    }

    /// Whether the parameter set is empty.
    pub fn is_empty(&self) -> bool {
        self.alpha.is_empty()
    }
}

/// Rebuilds `graph` with each vertex's *inbound* weights normalized to sum
/// to one, as the paper does before running Adsorption (§VI-A).
///
/// Unweighted input edges are treated as weight 1 before normalization.
pub fn normalize_inbound(graph: &CsrGraph) -> CsrGraph {
    let n = graph.num_vertices();
    let mut in_sums = vec![0.0f64; n];
    for v in graph.vertices() {
        for e in graph.out_edges(v) {
            in_sums[e.other.index()] += e.weight as f64;
        }
    }
    let mut b = GraphBuilder::new(n);
    b.weighted(true).dedup(false).drop_self_loops(false);
    for v in graph.vertices() {
        for e in graph.out_edges(v) {
            let sum = in_sums[e.other.index()];
            let w = if sum > 0.0 {
                (e.weight as f64 / sum) as f32
            } else {
                0.0
            };
            b.add_edge(v, e.other, w);
        }
    }
    b.build()
}

/// Adsorption (Table II): `propagate(δ) = α_i · E_ij · δ`, `reduce = +`,
/// `V_init = 0`, `ΔV_init = β_j · I_j`.
///
/// Run it on a graph whose inbound weights were normalized with
/// [`normalize_inbound`]; see [`AdsorptionParams`] for the convergence
/// argument.
#[derive(Debug, Clone)]
pub struct Adsorption {
    params: AdsorptionParams,
    threshold: f64,
}

impl Adsorption {
    /// Creates Adsorption with per-vertex `params` and local propagation
    /// `threshold`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative.
    pub fn new(params: AdsorptionParams, threshold: f64) -> Self {
        assert!(threshold >= 0.0, "threshold must be nonnegative");
        Adsorption { params, threshold }
    }

    /// The per-vertex parameters.
    pub fn params(&self) -> &AdsorptionParams {
        &self.params
    }
}

impl DeltaAlgorithm for Adsorption {
    type Value = f64;
    type Delta = f64;

    fn name(&self) -> &'static str {
        "adsorption"
    }

    fn init_value(&self, _v: VertexId) -> f64 {
        0.0
    }

    fn identity_delta(&self) -> f64 {
        0.0
    }

    fn initial_delta(&self, v: VertexId) -> Option<f64> {
        Some(f64::from(self.params.beta(v)) * f64::from(self.params.injection(v)))
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
        src: VertexId,
        _src_out_degree: u32,
        edge: EdgeRef,
    ) -> Option<f64> {
        Some(f64::from(self.params.alpha(src)) * f64::from(edge.weight) * basis)
    }

    fn value_to_f64(&self, v: f64) -> f64 {
        v
    }

    /// Label mass accumulates like PageRank's rank mass: each vertex may
    /// retain up to `threshold` of unsent basis at termination, so backends
    /// legitimately differ by a multiple of it.
    fn comparison_tolerance(&self) -> f64 {
        (self.threshold * 1e4).max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_graph::generators::{erdos_renyi, WeightMode};

    #[test]
    fn normalization_makes_inbound_sum_one() {
        let g = erdos_renyi(60, 300, WeightMode::Uniform(0.5, 3.0), 2);
        let norm = normalize_inbound(&g);
        for v in norm.vertices() {
            let sum: f64 = norm.in_edges(v).map(|e| e.weight as f64).sum();
            if norm.in_degree(v) > 0 {
                assert!((sum - 1.0).abs() < 1e-4, "vertex {v} inbound sum {sum}");
            }
        }
    }

    #[test]
    fn propagate_scales_by_alpha_and_weight() {
        let params = AdsorptionParams::new(vec![0.5, 0.5], vec![1.0, 1.0], vec![1.0, 1.0]);
        let ads = Adsorption::new(params, 0.0);
        let e = EdgeRef {
            other: VertexId::new(1),
            weight: 0.25,
        };
        assert_eq!(ads.propagate(2.0, VertexId::new(0), 3, e), Some(0.25));
    }

    #[test]
    fn initial_delta_is_beta_times_injection() {
        let params = AdsorptionParams::new(vec![0.5], vec![0.4], vec![0.5]);
        let ads = Adsorption::new(params, 0.0);
        let d = ads.initial_delta(VertexId::new(0)).unwrap();
        assert!((d - 0.2).abs() < 1e-6);
    }

    #[test]
    fn random_params_deterministic() {
        let a = AdsorptionParams::random(16, 9);
        let b = AdsorptionParams::random(16, 9);
        for v in (0..16).map(VertexId::from_index) {
            assert_eq!(a.alpha(v), b.alpha(v));
            assert_eq!(a.beta(v), b.beta(v));
            assert_eq!(a.injection(v), b.injection(v));
        }
        assert_eq!(a.len(), 16);
        assert!(!a.is_empty());
    }

    #[test]
    #[should_panic(expected = "alpha must be")]
    fn alpha_of_one_rejected() {
        let _ = AdsorptionParams::new(vec![1.0], vec![1.0], vec![1.0]);
    }
}
