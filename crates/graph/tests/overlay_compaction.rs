//! Compaction edge cases of [`OverlayGraph`]: exact threshold-boundary
//! behavior, delete-only batches, compaction of an untouched overlay,
//! representation-invariance of the edge set across compaction, and the
//! merged base equal — both directions, weight bits — to the builder's
//! rebuild of the same edges.

use gp_graph::generators::{erdos_renyi, rmat, RmatConfig, WeightMode};
use gp_graph::rng::{Rng, StdRng};
use gp_graph::{CsrGraph, EdgeUpdate, GraphBuilder, GraphView, OverlayGraph, VertexId};

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
        o.apply(&[EdgeUpdate::Insert {
            src: v(0),
            dst: v(d),
            weight: 2.0,
        }]);
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

type Row = Vec<(u32, u32)>;

/// Every vertex's out- and in-row as `(neighbor, weight bits)`, in order.
fn rows(g: &impl GraphView) -> Vec<(Row, Row)> {
    let bits = |e: gp_graph::EdgeRef| (e.other.get(), e.weight.to_bits());
    (0..g.num_vertices() as u32)
        .map(|s| {
            (
                g.out_edges(v(s)).map(bits).collect(),
                g.in_edges(v(s)).map(bits).collect(),
            )
        })
        .collect()
}

/// Compacts `o` and holds the merged base to the builder's rebuild of the
/// edges it replaced; a snapshot frozen first keeps serving them.
fn compact_against_rebuild(o: &mut OverlayGraph, label: &str) {
    let pre = o.to_csr();
    let pinned = o.freeze();
    o.compact();
    assert_eq!(o.base(), &pre, "{label}");
    assert_eq!(o.patched_vertices(), 0, "{label}");
    assert_eq!(rows(&pinned), rows(&pre), "{label}: pinned snapshot");
}

/// Deletes of every out-edge of each of `sources`.
fn empty_rows(o: &OverlayGraph, sources: &[u32]) -> Vec<EdgeUpdate> {
    sources
        .iter()
        .flat_map(|&s| {
            o.out_edges(v(s))
                .map(move |e| EdgeUpdate::Delete {
                    src: v(s),
                    dst: e.other,
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// `len` updates: deletes of present edges and inserts of fresh ones.
fn random_batch(o: &OverlayGraph, rng: &mut StdRng, len: usize) -> Vec<EdgeUpdate> {
    let n = o.num_vertices() as u32;
    if n == 0 {
        return Vec::new();
    }
    (0..len)
        .map(|_| {
            let src = rng.gen_range(0..n);
            match o.out_edges(v(src)).len() {
                deg if deg > 0 && rng.gen_bool(0.5) => EdgeUpdate::Delete {
                    src: v(src),
                    dst: o
                        .out_edges(v(src))
                        .nth(rng.gen_range(0..deg))
                        .unwrap()
                        .other,
                },
                _ => EdgeUpdate::Insert {
                    src: v(src),
                    dst: v(rng.gen_range(0..n)),
                    weight: if o.is_weighted() {
                        rng.gen_range(0.5f32..9.0)
                    } else {
                        1.0
                    },
                },
            }
        })
        .collect()
}

#[test]
fn compaction_builds_the_base_a_rebuild_would() {
    let mut rng = StdRng::seed_from_u64(0xC0AC7);
    for n in [0usize, 1, 63, 64, 65] {
        for weights in [WeightMode::Unweighted, WeightMode::Uniform(0.5, 9.0)] {
            for family in ["rmat", "er"] {
                let base = match (n, family) {
                    (0, _) => GraphBuilder::new(0)
                        .weighted(weights != WeightMode::Unweighted)
                        .build(),
                    (_, "rmat") => rmat(&RmatConfig::graph500(n, 4 * n).with_weights(weights), 7),
                    _ => erdos_renyi(n, 3 * n, weights, 7),
                };
                let label = format!("{family} n={n} {weights:?}");
                let mut o = OverlayGraph::new(base);
                // First, middle and last vertex; none on the empty graph.
                let ends: Vec<u32> = match n as u32 {
                    0 => Vec::new(),
                    n => vec![0, (n - 1) / 2, n - 1],
                };

                // Patches on the first and last vertex, both directions:
                // each drops its first out-edge and gains edges to and
                // from the others.
                let mut batch = Vec::new();
                for &s in &ends {
                    batch.extend(empty_rows(&o, &[s]).into_iter().take(1));
                    for &d in &ends {
                        batch.push(EdgeUpdate::Insert {
                            src: v(s),
                            dst: v(d),
                            weight: 2.5,
                        });
                    }
                }
                o.apply(&batch);
                compact_against_rebuild(&mut o, &format!("{label}: ends"));

                // Delete-only: the same rows to empty.
                o.apply(&empty_rows(&o, &ends));
                for &s in &ends {
                    assert_eq!(o.out_degree(v(s)), 0, "{label}");
                }
                compact_against_rebuild(&mut o, &format!("{label}: emptied"));

                // Several batches between compactions.
                for round in 0..3 {
                    for _ in 0..3 {
                        o.apply(&random_batch(&o, &mut rng, n / 2 + 1));
                    }
                    compact_against_rebuild(&mut o, &format!("{label}: round {round}"));
                }
            }
        }
    }
}
