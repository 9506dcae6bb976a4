//! [`AppliedBatch::between`] against one [`OverlayGraph::apply`]: the net
//! diff across a chain of batches, read off the chain's two ends over the
//! union of the batches' `old_out` sources, is exactly what applying every
//! update of the chain as one batch reports — the same inserts, deletes
//! and pre-chain rows, weights compared bitwise. The streams churn a few
//! hot edges across batches (insert then delete, delete then re-insert,
//! re-weighting), throw in self loops the overlay refuses, and compact the
//! overlay between batches.

use std::collections::BTreeSet;

use gp_graph::generators::{erdos_renyi, WeightMode};
use gp_graph::rng::{Rng, StdRng};
use gp_graph::{AppliedBatch, EdgeRef, EdgeUpdate, GraphView, OverlayGraph, VertexId};

/// `(src, dst, weight bits)`.
type Edge = (u32, u32, u32);
/// A source and its `(neighbor, weight bits)` row.
type Row = (u32, Vec<(u32, u32)>);

/// `batch` with every weight as its bits, so equality is bitwise.
fn bits(batch: &AppliedBatch) -> (Vec<Edge>, Vec<Edge>, Vec<Row>) {
    let edges = |list: &[(VertexId, VertexId, f32)]| {
        list.iter()
            .map(|&(s, d, w)| (s.get(), d.get(), w.to_bits()))
            .collect()
    };
    let row = |row: &[EdgeRef]| {
        row.iter()
            .map(|e| (e.other.get(), e.weight.to_bits()))
            .collect()
    };
    let old_out = batch
        .old_out
        .iter()
        .map(|(u, r)| (u.get(), row(r)))
        .collect();
    (edges(&batch.inserts), edges(&batch.deletes), old_out)
}

/// One to six updates over a few hot edges, so that consecutive batches
/// touch the same ones: an absent edge is inserted at one of three
/// weights, a present one is deleted or re-weighted (delete, then insert
/// at one of the three), and one update in eight is a self loop.
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

#[test]
fn between_the_ends_of_a_chain_is_the_chain_applied_as_one_batch() {
    let mut rng = StdRng::seed_from_u64(0xDE17A);
    // Chains with a net change, and chains where a touched source's
    // changes cancelled out: the streams must produce both.
    let (mut changed, mut cancelled) = (0, 0);
    for n in [1usize, 63, 64, 65] {
        for weights in [WeightMode::Unweighted, WeightMode::Uniform(0.5, 9.0)] {
            for k in 1..=8 {
                for trial in 0..8 {
                    let label = format!("n={n} {weights:?} k={k} trial {trial}");
                    let start = OverlayGraph::new(erdos_renyi(n, 3 * n, weights, trial));
                    let first = start.freeze();
                    let mut o = start.clone();
                    let (mut updates, mut sources) = (Vec::new(), BTreeSet::new());
                    for _ in 0..k {
                        let batch = churn(&o, &mut rng);
                        sources.extend(o.apply(&batch).old_out.iter().map(|&(u, _)| u));
                        updates.extend(batch);
                        if rng.gen_range(0..3u32) == 0 {
                            o.compact();
                        }
                    }
                    let last = o.freeze();
                    let sources: Vec<VertexId> = sources.into_iter().collect();
                    let net = AppliedBatch::between(&first, &last, &sources);

                    let mut whole = start.clone();
                    let want = whole.apply(&updates);
                    assert_eq!(bits(&net), bits(&want), "{label}");
                    changed += usize::from(!net.is_empty());
                    cancelled += usize::from(net.old_out.len() < sources.len());
                    // Extra sources whose rows match add nothing.
                    let every: Vec<VertexId> = first.vertex_ids().collect();
                    let wide = AppliedBatch::between(&first, &last, &every);
                    assert_eq!(bits(&wide), bits(&want), "{label}: every source");
                    assert_eq!(whole.to_csr(), o.to_csr(), "{label}: same end graph");
                }
            }
        }
    }
    assert!(
        changed > 300 && cancelled > 30,
        "{changed} changed, {cancelled} cancelled"
    );
}
