//! Compaction edge cases of [`OverlayGraph`]: exact threshold-boundary
//! behavior, delete-only batches, compaction of an untouched overlay, and
//! representation-invariance of the edge set across compaction.

use gp_graph::generators::{erdos_renyi, WeightMode};
use gp_graph::{CsrGraph, EdgeUpdate, GraphView, OverlayGraph, VertexId};

fn v(i: u32) -> VertexId {
    VertexId::new(i)
}

fn base() -> CsrGraph {
    erdos_renyi(30, 150, WeightMode::Uniform(1.0, 5.0), 0xC0)
}

/// The overlay's full edge set, independent of representation.
fn edge_set(o: &OverlayGraph) -> Vec<(u32, u32, u32)> {
    let mut edges = Vec::new();
    for s in 0..o.base().num_vertices() as u32 {
        for e in o.out_edges(v(s)) {
            edges.push((s, e.other.get(), e.weight.to_bits()));
        }
    }
    edges.sort_unstable();
    edges
}

#[test]
fn maybe_compact_boundary_is_inclusive() {
    let mut o = OverlayGraph::new(base());
    let mut d = 0u32;
    while o.pool_fraction() == 0.0 {
        while o.contains_edge(v(0), v(d)) || d == 0 {
            d += 1;
        }
        o.insert_edge(v(0), v(d), 2.0);
    }
    let pressure = o.pool_fraction();
    // Strictly above the pressure: must NOT compact.
    assert!(!o.maybe_compact(pressure * (1.0 + 1e-12) + f64::MIN_POSITIVE));
    assert!(
        o.pool_edge_slots() > 0,
        "overlay must still carry its patch"
    );
    // Exactly at the pressure (>= comparison): must compact.
    let before = edge_set(&o);
    assert!(o.maybe_compact(pressure));
    assert_eq!(o.pool_edge_slots(), 0);
    assert_eq!(edge_set(&o), before);
}

#[test]
fn compacting_an_untouched_overlay_is_a_no_op() {
    let mut o = OverlayGraph::new(base());
    let before = edge_set(&o);
    let base_edges = o.base().num_edges();
    o.compact();
    assert!(!o.maybe_compact(0.0), "nothing to fold back");
    assert_eq!(edge_set(&o), before);
    assert_eq!(o.base().num_edges(), base_edges);
    assert_eq!(o.patched_vertices(), 0);
}

#[test]
fn delete_only_batch_compacts_correctly() {
    let mut o = OverlayGraph::new(base());
    // Delete every edge leaving vertices 0..5 — a batch with no inserts.
    let mut batch = Vec::new();
    for s in 0..5u32 {
        for e in o.out_edges(v(s)) {
            batch.push(EdgeUpdate::Delete {
                src: v(s),
                dst: e.other,
            });
        }
    }
    assert!(!batch.is_empty());
    let applied = o.apply(&batch);
    assert_eq!(applied.deletes.len(), batch.len());
    assert!(applied.inserts.is_empty());
    let before = edge_set(&o);

    assert!(o.maybe_compact(0.0), "delete-only patches must compact");
    assert_eq!(edge_set(&o), before);
    assert_eq!(o.pool_edge_slots(), 0);
    for s in 0..5u32 {
        assert_eq!(o.out_edges(v(s)).len(), 0);
        assert_eq!(o.base().out_degree(v(s)), 0);
    }
    o.base().check_invariants().expect("compacted CSR is sound");
}

#[test]
fn deleting_every_edge_then_compacting_yields_an_empty_base() {
    let mut o = OverlayGraph::new(base());
    let mut batch = Vec::new();
    for s in 0..o.base().num_vertices() as u32 {
        for e in o.out_edges(v(s)) {
            batch.push(EdgeUpdate::Delete {
                src: v(s),
                dst: e.other,
            });
        }
    }
    o.apply(&batch);
    assert!(edge_set(&o).is_empty());
    o.compact();
    assert_eq!(o.base().num_edges(), 0);
    assert_eq!(edge_set(&o), Vec::new());
    o.base().check_invariants().expect("empty CSR is sound");
}

#[test]
fn compaction_commutes_with_further_updates() {
    // Apply batch A, then batch B — once compacting in between, once not.
    // The final edge set and materialized CSR must be identical.
    let updates_a: Vec<EdgeUpdate> = (0..10u32)
        .map(|i| EdgeUpdate::Insert {
            src: v(i),
            dst: v((i + 13) % 30),
            weight: 3.0,
        })
        .collect();
    let updates_b: Vec<EdgeUpdate> = (0..10u32)
        .map(|i| {
            if i % 2 == 0 {
                EdgeUpdate::Delete {
                    src: v(i),
                    dst: v((i + 13) % 30),
                }
            } else {
                EdgeUpdate::Insert {
                    src: v(i + 10),
                    dst: v(i),
                    weight: 1.5,
                }
            }
        })
        .collect();

    let mut compacted = OverlayGraph::new(base());
    compacted.apply(&updates_a);
    compacted.compact();
    compacted.apply(&updates_b);
    compacted.compact();

    let mut lazy = OverlayGraph::new(base());
    lazy.apply(&updates_a);
    lazy.apply(&updates_b);

    assert_eq!(edge_set(&compacted), edge_set(&lazy));
    assert_eq!(compacted.to_csr(), lazy.to_csr());
}
