//! [`OverlayGraph::undo`] undoes a batch: undoing each batch newest-first,
//! from the latest state, walks back through the snapshot frozen after
//! every earlier batch — every out-row and in-row in order with weights
//! compared bitwise, the edge count and the weightedness. The streams
//! churn a few hot edges across batches, throw in self loops the overlay
//! refuses, and compact the overlay between batches, so the undo crosses
//! bases; one family of bases keeps self loops and parallel edges.
//!
//! After every `apply` the overlay is also compared, row for row, with
//! `to_csr`'s rebuild through the builder, whose in-rows come from a
//! counting-sort transpose independent of the routine `apply` and `undo`
//! share: a splice bug cannot hide behind both deriving rows one way.
//!
//! A rebuilt graph's pool layout (`out_edge_base`, `edge_span`) is not
//! the published one — every restored out-row takes a fresh pool region
//! — and is not compared: nothing that reads a retained epoch uses it.

use gp_graph::generators::{erdos_renyi, WeightMode};
use gp_graph::rng::{Rng, StdRng};
use gp_graph::{
    AppliedBatch, CsrGraph, EdgeUpdate, GraphBuilder, GraphSnapshot, GraphView, OutEdges,
    OverlayGraph, VertexId,
};

/// A row as `(neighbor, weight bits)`, in stored order.
fn row(edges: OutEdges<'_>) -> Vec<(u32, u32)> {
    edges.map(|e| (e.other.get(), e.weight.to_bits())).collect()
}

/// Asserts `got` has `want`'s adjacency row for row.
fn assert_same_graph(got: &impl GraphView, want: &impl GraphView, label: &str) {
    assert_eq!(got.num_edges(), want.num_edges(), "{label}: num_edges");
    assert_eq!(
        got.is_weighted(),
        want.is_weighted(),
        "{label}: is_weighted"
    );
    for v in want.vertex_ids() {
        assert_eq!(
            row(got.out_edges(v)),
            row(want.out_edges(v)),
            "{label}: out-row {v}"
        );
        assert_eq!(
            row(got.in_edges(v)),
            row(want.in_edges(v)),
            "{label}: in-row {v}"
        );
    }
}

/// One to six updates over a few hot edges, so that consecutive batches
/// touch the same ones: an absent edge is inserted at one of three
/// weights, a present one is deleted or re-weighted, and one update in
/// eight is a self loop the overlay refuses to insert.
fn churn(o: &OverlayGraph, rng: &mut StdRng) -> Vec<EdgeUpdate> {
    let hot = (o.num_vertices() as u32).min(4);
    let len = rng.gen_range(1..7usize);
    let mut batch = Vec::new();
    while batch.len() < len {
        let src = VertexId::new(rng.gen_range(0..hot));
        let dst = VertexId::new(rng.gen_range(0..hot));
        let weight = [1.0, 2.5, 7.0][rng.gen_range(0..3usize)];
        if rng.gen_range(0..8u32) == 0 {
            batch.push(EdgeUpdate::Insert {
                src,
                dst: src,
                weight,
            });
        } else if !o.contains_edge(src, dst) {
            batch.push(EdgeUpdate::Insert { src, dst, weight });
        } else {
            batch.push(EdgeUpdate::Delete { src, dst });
            if rng.gen_bool(0.5) {
                batch.push(EdgeUpdate::Insert { src, dst, weight });
            }
        }
    }
    batch
}

/// `3n` random edges among `n` vertices, most of them among the hot four,
/// with self loops and parallel edges kept.
fn multigraph(n: usize, weights: WeightMode, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    b.weighted(weights != WeightMode::Unweighted)
        .dedup(false)
        .drop_self_loops(false);
    let hot = (n as u32).min(4);
    for i in 0..3 * n {
        let span = if i % 2 == 0 { hot } else { n as u32 };
        let (s, d) = (rng.gen_range(0..span), rng.gen_range(0..span));
        let w = [1.0, 2.5, 7.0][rng.gen_range(0..3usize)];
        b.add_edge(VertexId::new(s), VertexId::new(d), w);
    }
    b.build()
}

/// Whether `g` has both a self loop and a parallel edge.
fn has_loops_and_parallels(g: &CsrGraph) -> bool {
    let rows = || g.vertex_ids().map(|v| (v, row(g.out_edges(v))));
    let looped = rows().any(|(v, r)| r.iter().any(|&(d, _)| d == v.get()));
    let parallel = rows().any(|(_, r)| r.windows(2).any(|w| w[0].0 == w[1].0));
    looped && parallel
}

#[test]
fn undo_rows_restored_newest_first_reproduce_every_earlier_snapshot() {
    let mut rng = StdRng::seed_from_u64(0x0B5E7);
    let (mut compactions, mut multigraphs) = (0, 0);
    for n in [1usize, 63, 64, 65] {
        for weights in [WeightMode::Unweighted, WeightMode::Uniform(0.5, 9.0)] {
            for multi in [false, true] {
                for trial in 0..4 {
                    let base = if multi {
                        multigraph(n, weights, trial)
                    } else {
                        erdos_renyi(n, 3 * n, weights, trial)
                    };
                    multigraphs += usize::from(multi && has_loops_and_parallels(&base));
                    let k = rng.gen_range(1..13usize);
                    let label = format!("n={n} {weights:?} multi={multi} trial {trial} k={k}");
                    let mut o = OverlayGraph::new(base);
                    let mut frozen: Vec<GraphSnapshot> = vec![o.freeze()];
                    let mut batches: Vec<AppliedBatch> = Vec::new();
                    for i in 0..k {
                        batches.push(o.apply(&churn(&o, &mut rng)));
                        // The builder's counting-sort transpose, independent
                        // of the in-rows `apply` rebuilt.
                        assert_same_graph(&o, &o.to_csr(), &format!("{label}: apply {i}"));
                        frozen.push(o.freeze());
                        if rng.gen_range(0..3u32) == 0 {
                            o.compact();
                            compactions += 1;
                        }
                    }

                    let mut back = OverlayGraph::from(o.freeze());
                    assert_same_graph(&back, &frozen[k], &format!("{label}: latest"));
                    for (i, batch) in batches.iter().enumerate().rev() {
                        back.undo(batch);
                        assert_same_graph(&back, &frozen[i], &format!("{label}: undo to {i}"));
                    }
                    // Undoing never touched the state it started from.
                    assert_same_graph(&o, &frozen[k], &format!("{label}: source intact"));
                }
            }
        }
    }
    assert!(
        compactions > 50 && multigraphs > 8,
        "{compactions} compactions, {multigraphs} bases with self loops and parallel edges"
    );
}
