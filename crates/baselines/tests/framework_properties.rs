//! Property tests of the software baseline: results are independent of the
//! thread count and of the push/pull direction decision, and always match
//! the golden references.
//!
//! Randomized cases are driven by the workspace's deterministic
//! [`gp_graph::rng::StdRng`], so every run exercises the same inputs.

use gp_algorithms::{max_abs_diff, normalize_inbound, reference, AdsorptionParams, App, AppInputs};
use gp_baselines::ligra::{apps, LigraConfig};
use gp_graph::generators::{erdos_renyi, rmat, RmatConfig, WeightMode};
use gp_graph::rng::{Rng, StdRng};
use gp_graph::{CsrGraph, GraphBuilder, VertexId};

fn random_graph(rng: &mut StdRng) -> CsrGraph {
    let n = rng.gen_range(2..80usize);
    let seed = rng.next_u64();
    erdos_renyi(n, n * 4, WeightMode::Uniform(1.0, 7.0), seed)
}

fn random_div(rng: &mut StdRng) -> usize {
    [0usize, 20, usize::MAX][rng.gen_range(0..3usize)]
}

fn cfg(threads: usize, div: usize) -> LigraConfig {
    LigraConfig {
        threads,
        dense_threshold_div: div,
        max_iterations: 100_000,
    }
}

#[test]
fn bfs_invariant_to_threads_and_direction() {
    let mut rng = StdRng::seed_from_u64(0xF1);
    for _ in 0..16 {
        let g = random_graph(&mut rng);
        let threads = rng.gen_range(1..5usize);
        let div = random_div(&mut rng);
        let out = apps::bfs(&g, VertexId::new(0), &cfg(threads, div));
        let golden = reference::bfs_levels(&g, VertexId::new(0));
        assert!(max_abs_diff(&out.values, &golden) < 1e-9);
    }
}

#[test]
fn sssp_invariant_to_threads_and_direction() {
    let mut rng = StdRng::seed_from_u64(0xF2);
    for _ in 0..16 {
        let g = random_graph(&mut rng);
        let threads = rng.gen_range(1..5usize);
        let div = random_div(&mut rng);
        let out = apps::sssp(&g, VertexId::new(0), &cfg(threads, div));
        let golden = reference::sssp_dijkstra(&g, VertexId::new(0));
        assert!(max_abs_diff(&out.values, &golden) < 1e-9);
    }
}

#[test]
fn cc_invariant_to_threads() {
    let mut rng = StdRng::seed_from_u64(0xF3);
    for _ in 0..16 {
        let g = random_graph(&mut rng);
        let threads = rng.gen_range(1..5usize);
        let out = apps::cc(&g, &cfg(threads, 20));
        let golden = reference::cc_labels(&g);
        assert!(max_abs_diff(&out.values, &golden) < 1e-9);
    }
}

#[test]
fn pagerank_deterministic_modulo_float_reassociation() {
    let mut rng = StdRng::seed_from_u64(0xF4);
    for _ in 0..16 {
        let g = random_graph(&mut rng);
        let threads = rng.gen_range(1..5usize);
        let a = apps::pagerank_delta(&g, 0.85, 1e-10, &cfg(threads, 20));
        let golden = reference::pagerank(&g, 0.85, 1e-12);
        assert!(max_abs_diff(&a.values, &golden) < 1e-4);
    }
}

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The port, pinned: each application's iteration count, and an FNV fold
/// of it and every value bit, single-threaded at Ligra's divisor and
/// push-only. The literals predate the shared frontier and delta drivers,
/// so a change to a driver, an edge operation or the atomic cells that is
/// meant to keep behaviour leaves them untouched. A run at a threshold one
/// of its deltas equals pins the vertex phase's strict test.
#[test]
fn ligra_runs_are_pinned() {
    const N: usize = 1 << 11;
    let plain = rmat(&RmatConfig::graph500(N, 8 * N), 5);
    let weighted = rmat(
        &RmatConfig::graph500(N, 8 * N).with_weights(WeightMode::Uniform(1.0, 10.0)),
        6,
    );
    let normalized = normalize_inbound(&weighted);
    let params = AdsorptionParams::random(N, 9);
    let inputs = AppInputs {
        root: VertexId::new(0),
        threshold: 1e-7,
        adsorption: Some(&params),
    };
    let pins = |div: usize| -> Vec<(u64, u64)> {
        let cfg = LigraConfig {
            dense_threshold_div: div,
            ..LigraConfig::sequential()
        };
        apps::APPS
            .iter()
            .map(|&app| {
                let graph = match app {
                    App::Adsorption => &normalized,
                    App::Sssp => &weighted,
                    _ => &plain,
                };
                let out = apps::run(app, &inputs, graph, &cfg).expect("a Ligra app");
                let bits = out.values.iter().map(|v| v.to_bits());
                (
                    out.iterations,
                    fnv(std::iter::once(out.iterations).chain(bits)),
                )
            })
            .collect()
    };
    assert_eq!(
        pins(20),
        [
            (77, 1_670_094_474_282_990_182),
            (22, 17_826_519_062_910_272_371),
            (6, 15_285_666_667_206_071_417),
            (4, 5_584_822_780_466_827_539),
            (4, 10_218_780_506_426_446_099),
        ],
        "at Ligra's divisor (PRD, ADS, SSSP, BFS, CC)"
    );
    assert_eq!(
        pins(0),
        [
            (77, 1_670_094_474_282_990_182),
            (22, 17_826_519_062_910_272_371),
            (6, 15_285_666_667_206_071_417),
            (4, 5_584_822_780_466_827_539),
            (5, 18_122_837_227_559_825_248),
        ],
        "push only (PRD, ADS, SSSP, BFS, CC)"
    );
    // A delta exactly at the threshold leaves its vertex inactive: round
    // one on a 2-cycle sends each vertex alpha * (1 - alpha), exactly.
    let mut cycle = GraphBuilder::new(2);
    cycle.add_edge(VertexId::new(0), VertexId::new(1), 1.0);
    cycle.add_edge(VertexId::new(1), VertexId::new(0), 1.0);
    let alpha = App::DAMPING;
    let tie = apps::pagerank_delta(
        &cycle.build(),
        alpha,
        alpha * (1.0 - alpha),
        &LigraConfig::sequential(),
    );
    assert_eq!(tie.iterations, 1, "a delta equal to eps is not above it");
}
