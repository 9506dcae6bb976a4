//! The lookahead of §IV / Fig. 8 as executable facts: a delta deposited
//! ahead of the sweep position is processed in the same round, one at or
//! behind it in the next.
//!
//! SSSP on unit-weight chains makes the round count exact: every vertex is
//! processed once, and the rounds needed are the times the path steps to a
//! vertex the sweep has already passed, plus one.

use gp_algorithms::Sssp;
use gp_graph::{CsrGraph, GraphBuilder, VertexId};
use gp_turbo::{run_turbo, TurboConfig, TurboOutcome};

/// Sizes straddling the bitmap's word boundaries.
const SIZES: [usize; 4] = [63, 64, 65, 130];

fn graph(n: usize, edges: &[(usize, usize)]) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    b.weighted(true).drop_self_loops(false);
    for &(u, v) in edges {
        b.add_edge(VertexId::from_index(u), VertexId::from_index(v), 1.0);
    }
    b.build()
}

fn sssp(g: &CsrGraph, root: usize) -> TurboOutcome {
    let algo = Sssp::new(VertexId::from_index(root));
    let out = run_turbo(&algo, g, &TurboConfig::default());
    out.check_lost_events().unwrap();
    out
}

#[test]
fn forward_chain_quiesces_in_one_round() {
    for n in SIZES {
        let edges: Vec<_> = (1..n).map(|v| (v - 1, v)).collect();
        let out = sssp(&graph(n, &edges), 0);
        assert_eq!(out.round_log, [n as u64], "n = {n}");
        assert_eq!(out.values[n - 1], (n - 1) as f64, "n = {n}");
    }
}

#[test]
fn reversed_chain_takes_one_round_per_hop() {
    for n in SIZES {
        let edges: Vec<_> = (1..n).map(|v| (v, v - 1)).collect();
        let out = sssp(&graph(n, &edges), n - 1);
        assert_eq!(out.round_log, vec![1; n], "n = {n}");
        assert_eq!(out.values[0], (n - 1) as f64, "n = {n}");
    }
}

#[test]
fn self_loop_delta_is_processed_the_round_after() {
    // Vertex 0 relaxes its self-loop and its edge to 1 in round 0; vertex
    // 1 is ahead and is swept in that round, vertex 0 itself is not.
    let out = sssp(&graph(2, &[(0, 0), (0, 1)]), 0);
    assert_eq!(out.round_log, [2, 1]);
    assert_eq!(out.events_coalesced, 0);
    assert_eq!(out.values, [0.0, 1.0]);
}

#[test]
fn lookahead_crosses_a_word_boundary() {
    // Bit 63 of word 0 deposits into bit 0 of word 1, which the sweep has
    // not read yet.
    let out = sssp(&graph(65, &[(63, 64)]), 63);
    assert_eq!(out.round_log, [2]);
    assert_eq!(out.values[64], 1.0);
}
