//! R-MAT (recursive matrix) graph generator.

use gp_sim::rng::{Rng, StdRng};

use super::WeightMode;
use crate::{CsrGraph, GraphBuilder, VertexId};

/// Parameters of the R-MAT recursive edge-placement process.
///
/// The classic Graph500 parameterization is `a=0.57, b=0.19, c=0.19,
/// d=0.05`, which produces heavily skewed power-law graphs similar to web
/// and social networks. `a`, `b` and `c` must be nonnegative with
/// `a + b + c ≤ 1 + 1e-6`; `d` is the remainder `1 - a - b - c`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatConfig {
    /// Number of vertices; rounded up to the next power of two internally.
    pub vertices: usize,
    /// Number of edge-placement attempts (final edge count is slightly lower
    /// after deduplication and self-loop removal).
    pub edges: usize,
    /// Probability of the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
    /// Quadrant-probability noise applied per recursion level, which avoids
    /// the artificial self-similarity of noiseless R-MAT: each probability
    /// is scaled by `1 + u` with `u` uniform in `[-noise, noise)`. Must be in
    /// `[0, 1)`; `0` draws no jitter at all.
    pub noise: f64,
    /// Edge-weight assignment.
    pub weights: WeightMode,
}

impl RmatConfig {
    /// Graph500-style skew with the given size.
    pub fn graph500(vertices: usize, edges: usize) -> Self {
        RmatConfig {
            vertices,
            edges,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            noise: 0.1,
            weights: WeightMode::Unweighted,
        }
    }

    /// Sets the weight mode (builder-style convenience).
    pub fn with_weights(mut self, weights: WeightMode) -> Self {
        self.weights = weights;
        self
    }

    fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }
}

/// Generates an R-MAT graph.
///
/// Vertex ids are scrambled by a fixed permutation so that the high-degree
/// vertices are not clustered at low ids (matching relabeled real datasets).
/// Deterministic for a given `(config, seed)` pair.
///
/// # Panics
///
/// Panics if a quadrant probability is negative or `a + b + c` exceeds
/// `1 + 1e-6`, if `config.noise` is outside `[0, 1)` (NaN included), or if
/// `config.vertices` is zero.
///
/// # Examples
///
/// ```
/// use gp_graph::generators::{rmat, RmatConfig};
/// let g = rmat(&RmatConfig::graph500(1 << 10, 8 << 10), 42);
/// assert_eq!(g.num_vertices(), 1 << 10);
/// assert!(g.num_edges() > 6 << 10);
/// ```
pub fn rmat(config: &RmatConfig, seed: u64) -> CsrGraph {
    let mut builder = GraphBuilder::new(config.vertices);
    config.weights.mark(&mut builder);
    rmat_edges(config, seed, |s, d, w| {
        builder.add_edge(VertexId::new(s), VertexId::new(d), w);
    });
    builder.build()
}

/// Streams the raw R-MAT edge-placement sequence to `sink` without building
/// a graph: exactly the `(src, dst, weight)` triples [`rmat`] feeds its
/// builder, in the same order, from the same RNG stream. The out-of-core
/// container builder uses this to assemble disk-resident graphs whose edge
/// set is bit-identical to the resident [`rmat`] build (same stable
/// sort + keep-first dedup, applied per spill bucket instead of in RAM).
///
/// The RNG stream is a contract, since every pinned graph, schedule and
/// record downstream is built from it. With `L = ceil(log2(vertices))`
/// levels (at least one), an edge takes per level four jitters (`a`, `b`,
/// `c`, `d`, only when `noise > 0`) and one roll in `[0, a + b + c + d)`,
/// then one weight draw when the weights are `Uniform`: `5L + 1` draws for
/// a weighted noisy edge. The sums are formed left to right, as written.
///
/// # Panics
///
/// Same contract as [`rmat`].
pub fn rmat_edges(config: &RmatConfig, seed: u64, mut sink: impl FnMut(u32, u32, f32)) {
    assert!(config.vertices > 0, "rmat needs at least one vertex");
    let partial = config.a + config.b + config.c;
    assert!(
        config.a >= 0.0 && config.b >= 0.0 && config.c >= 0.0 && partial <= 1.0 + 1e-6,
        "rmat quadrant probabilities must be nonnegative and sum to 1 (a+b+c = {partial})"
    );
    let noise = config.noise;
    assert!(
        (0.0..1.0).contains(&noise),
        "rmat noise must be in [0, 1) (noise = {noise})"
    );

    let levels = (config.vertices as f64).log2().ceil().max(1.0) as u32;
    let n = config.vertices as u64;
    let quadrants = [config.a, config.b, config.c, config.d()];
    let mut rng = StdRng::seed_from_u64(seed);

    for _ in 0..config.edges {
        let (mut row, mut col) = (0, 0);
        for _ in 0..levels {
            let [a, b, c, d] = if noise > 0.0 {
                quadrants.map(|p| (p * (1.0 + rng.gen_range(-noise..noise))).max(1e-9))
            } else {
                quadrants
            };
            let roll: f64 = rng.gen_range(0.0..a + b + c + d);
            (row, col) = rmat_step(roll, [a, b, c], row, col);
        }
        let (src, dst) = (rmat_scramble(row, n), rmat_scramble(col, n));
        sink(src, dst, config.weights.sample(&mut rng));
    }
}

/// One level of the Graph500 quadrant walk: shifts `row` and `col` left and
/// appends the bits of the quadrant `roll` falls in, where `[0, a)` is
/// top-left, `[a, a + b)` top-right, `[a + b, a + b + c)` bottom-left and
/// the rest bottom-right. The comparisons are the ones an `if roll < a /
/// else if roll < a + b / else if roll < a + b + c` chain makes, with the
/// sums in the same order, folded into bits instead of branches: a fresh
/// roll is a coin the branch predictor cannot call.
#[inline]
pub fn rmat_step(roll: f64, [a, b, c]: [f64; 3], row: usize, col: usize) -> (usize, usize) {
    let lt_a = roll < a;
    let lt_ab = roll < a + b;
    let lt_abc = roll < a + b + c;
    (
        row << 1 | usize::from(!lt_ab),
        col << 1 | usize::from((!lt_a & lt_ab) | !lt_abc),
    )
}

/// The fixed multiplicative scramble that maps a padded R-MAT id onto
/// `0..vertices` while dispersing the hubs the walk clusters at low ids.
#[inline]
pub fn rmat_scramble(id: usize, vertices: u64) -> u32 {
    ((id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % vertices) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let cfg = RmatConfig::graph500(256, 1024);
        let g1 = rmat(&cfg, 7);
        let g2 = rmat(&cfg, 7);
        assert_eq!(g1, g2);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = RmatConfig::graph500(256, 1024);
        assert_ne!(rmat(&cfg, 1), rmat(&cfg, 2));
    }

    #[test]
    fn skewed_degrees() {
        let cfg = RmatConfig::graph500(1 << 10, 16 << 10);
        let g = rmat(&cfg, 3);
        let max_deg = g.vertices().map(|v| g.out_degree(v)).max().unwrap();
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        // Power-law: the hub should be far above average.
        assert!(
            (max_deg as f64) > 8.0 * avg,
            "max degree {max_deg} not skewed vs avg {avg}"
        );
        g.check_invariants().unwrap();
    }

    #[test]
    fn weighted_mode_marks_graph() {
        let cfg = RmatConfig::graph500(64, 128).with_weights(WeightMode::Uniform(1.0, 4.0));
        let g = rmat(&cfg, 5);
        assert!(g.is_weighted());
        for v in g.vertices() {
            for e in g.out_edges(v) {
                assert!((1.0..4.0).contains(&e.weight));
            }
        }
    }

    #[test]
    #[should_panic(expected = "noise = NaN")]
    fn nan_noise_rejected() {
        let cfg = RmatConfig {
            noise: f64::NAN,
            ..RmatConfig::graph500(8, 8)
        };
        rmat_edges(&cfg, 0, |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "noise = -0.1")]
    fn negative_noise_rejected() {
        let cfg = RmatConfig {
            noise: -0.1,
            ..RmatConfig::graph500(8, 8)
        };
        rmat_edges(&cfg, 0, |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "noise = 1)")]
    fn unit_noise_rejected() {
        let cfg = RmatConfig {
            noise: 1.0,
            ..RmatConfig::graph500(8, 8)
        };
        rmat_edges(&cfg, 0, |_, _, _| {});
    }

    /// The step against the quadrant chain it replaced, on every roll that
    /// sits on or beside a boundary, with empty quadrants included.
    #[test]
    fn step_matches_the_quadrant_chain() {
        let chain = |roll: f64, a: f64, b: f64, c: f64| {
            if roll < a {
                (0, 0)
            } else if roll < a + b {
                (0, 1)
            } else if roll < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            }
        };
        for [a, b, c] in [
            [0.57f64, 0.19, 0.19],
            [0.6, 0.4, 0.0],
            [0.0, 0.0, 1.0],
            [0.25, 0.0, 0.25],
            [1e-9, 1e-9, 1e-9],
        ] {
            for edge in [0.0, a, a + b, a + b + c, 1.0] {
                for roll in [edge, edge.next_down(), edge.next_up()] {
                    let want = chain(roll, a, b, c);
                    assert_eq!(rmat_step(roll, [a, b, c], 0, 0), want, "{roll} {a} {b} {c}");
                    let shifted = rmat_step(roll, [a, b, c], 0b10, 0b01);
                    assert_eq!(shifted, (0b100 | want.0, 0b010 | want.1));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_probabilities_rejected() {
        let cfg = RmatConfig {
            a: 0.9,
            b: 0.9,
            ..RmatConfig::graph500(8, 8)
        };
        let _ = rmat(&cfg, 0);
    }
}
