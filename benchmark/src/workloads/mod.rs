//! The five workloads and what they share: the input graph, the traced
//! golden-and-turbo solve pair, fingerprints.
//!
//! Every graph is a weighted R-MAT (Graph500 skew, edge factor 8, weights
//! uniform in [1, 16)); rooted algorithms and path queries start from the
//! vertices with the highest out-degrees; PageRank-delta runs at damping 0.85, threshold
//! 1e-3.

pub mod accum;
pub mod cycle;
pub mod mapped;
pub mod serve;
pub mod stream;

use gp_algorithms::engine::{run_sequential, EngineOutput};
use gp_algorithms::{max_abs_diff, DeltaAlgorithm, PageRankDelta};
use gp_graph::generators::{rmat_edges, RmatConfig, WeightMode};
use gp_graph::{CsrGraph, GraphBuilder, GraphView, VertexId};
use gp_turbo::{run_turbo, TurboConfig, TurboOutcome};

use crate::harness::Layers;
use crate::stats::median;
use crate::trace::Tracer;

pub const WEIGHTS: WeightMode = WeightMode::Uniform(1.0, 16.0);

pub fn rmat_config(log2: u32) -> RmatConfig {
    let n = 1usize << log2;
    RmatConfig::graph500(n, 8 * n).with_weights(WEIGHTS)
}

pub const PAGERANK_DAMPING: f64 = 0.85;
pub const PAGERANK_THRESHOLD: f64 = 1e-3;

pub fn pagerank() -> PageRankDelta {
    PageRankDelta::new(PAGERANK_DAMPING, PAGERANK_THRESHOLD)
}

/// The resident graph `gp_graph::generators::rmat` would build, with the
/// generator and the builder under separate spans.
pub fn resident_rmat(log2: u32, seed: u64, tr: &mut Tracer) -> CsrGraph {
    let config = rmat_config(log2);
    let mut builder = GraphBuilder::new(config.vertices);
    builder.weighted(true);
    tr.span("rmat_edges", |_| {
        rmat_edges(&config, seed, |s, d, w| {
            builder.add_edge(VertexId::new(s), VertexId::new(d), w);
        });
    });
    tr.span("GraphBuilder::build", |_| builder.build())
}

/// The `k` vertices with the highest out-degrees, highest first; equal
/// degrees in id order.
pub fn hubs(g: &impl GraphView, k: usize) -> Vec<VertexId> {
    let mut by_degree: Vec<VertexId> = g.vertex_ids().collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(g.out_degree(v)), v.get()));
    by_degree.truncate(k);
    by_degree
}

/// Whether `got` sits within `algo`'s comparison tolerance of a golden
/// from-scratch run on `graph`.
pub fn matches_golden<A: DeltaAlgorithm>(algo: &A, graph: &impl GraphView, got: &[f64]) -> bool {
    max_abs_diff(got, &run_sequential(algo, graph).values) <= algo.comparison_tolerance()
}

/// Order-sensitive hash of counters or value bits.
pub fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23)
    })
}

pub fn checksum(values: &[f64]) -> u64 {
    fingerprint(values.iter().map(|v| v.to_bits()))
}

/// Span names of one algorithm's solves; `key` is its metric-name part.
pub struct Alg {
    pub key: &'static str,
    turbo_span: &'static str,
    golden_span: &'static str,
}

macro_rules! alg {
    ($name:ident, $key:literal) => {
        pub const $name: Alg = Alg {
            key: $key,
            turbo_span: concat!("run_turbo:", $key),
            golden_span: concat!("run_sequential:", $key),
        };
    };
}
alg!(PRD, "prd");
alg!(SSSP, "sssp");
alg!(BFS, "bfs");
alg!(CC, "cc");
alg!(SSWP, "sswp");

/// One algorithm solved by turbo and by the golden engine on one graph.
pub struct Solve {
    turbo: TurboOutcome,
    golden: EngineOutput,
    tolerance: f64,
}

impl Solve {
    pub fn run<A: DeltaAlgorithm, G: GraphView + Sync>(
        alg: &Alg,
        algo: &A,
        graph: &G,
        tr: &mut Tracer,
    ) -> Solve {
        let turbo = tr.span(alg.turbo_span, |_| {
            run_turbo(algo, graph, &TurboConfig::default())
        });
        let golden = tr.span(alg.golden_span, |_| run_sequential(algo, graph));
        Solve {
            turbo,
            golden,
            tolerance: algo.comparison_tolerance(),
        }
    }

    /// Turbo's and golden's fingerprints: every counter and the values.
    pub fn prints(&self) -> [u64; 2] {
        let t = &self.turbo;
        let g = &self.golden;
        [
            fingerprint([
                t.events_processed,
                t.events_generated,
                t.events_coalesced,
                t.stale_entries,
                t.reschedules,
                t.rounds,
                checksum(&t.values),
            ]),
            fingerprint([g.events_processed, g.events_generated, checksum(&g.values)]),
        ]
    }

    /// Whether turbo's values sit within the algorithm's comparison
    /// tolerance of the golden reference.
    pub fn agrees(&self) -> bool {
        max_abs_diff(&self.turbo.values, &self.golden.values) <= self.tolerance
    }
}

/// Layer metrics of one algorithm: what a pass spends in each engine, and
/// the counters of `solves` (one pass's solves of that algorithm) summed.
pub fn solve_layers(alg: &Alg, solves: &[Solve], tr: &Tracer, out: &mut Layers) {
    let key = alg.key;
    let golden_s = median(&tr.seconds_per_pass(alg.golden_span, true));
    let turbo_s = median(&tr.seconds_per_pass(alg.turbo_span, true));
    let sum = |f: fn(&Solve) -> u64| solves.iter().map(f).sum::<u64>() as f64;
    out.set(format!("algorithms.golden_{key}_s"), golden_s);
    out.set(
        format!("algorithms.golden_{key}_events"),
        sum(|s| s.golden.events_processed),
    );
    out.set(format!("turbo.{key}_s"), turbo_s);
    out.set(
        format!("turbo.{key}_events_processed"),
        sum(|s| s.turbo.events_processed),
    );
    out.set(
        format!("turbo.{key}_events_coalesced"),
        sum(|s| s.turbo.events_coalesced),
    );
    out.set(
        format!("turbo.{key}_stale_entries"),
        sum(|s| s.turbo.stale_entries),
    );
    out.set(
        format!("turbo.{key}_reschedules"),
        sum(|s| s.turbo.reschedules),
    );
    out.set(format!("turbo.{key}_rounds"), sum(|s| s.turbo.rounds));
    out.set(format!("turbo.{key}_vs_golden"), turbo_s / golden_s);
}

/// Medians of the generator and builder spans of the set-up repetitions.
pub fn graph_layers(tr: &Tracer, out: &mut Layers) {
    out.set("graph.generate_s", median(&tr.seconds("rmat_edges", false)));
    out.set(
        "graph.build_s",
        median(&tr.seconds("GraphBuilder::build", false)),
    );
}
