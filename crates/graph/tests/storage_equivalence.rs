//! Every [`GraphView`] storage hands out the same rows.
//!
//! For random graphs, the rows of the resident [`CsrGraph`], of an
//! [`OverlayGraph`] under random insert/delete batches (before and after
//! compaction), of a [`GraphSnapshot`] that outlives further mutation and a
//! compaction, of a streamed-then-mapped [`MappedCsr`], and of a
//! [`MeteredView`] over each agree element for element — neighbor and
//! weight bits, in order — with the materialized CSR (relabeled by the
//! container's ranks for the mapping), and every row obeys
//! `len() == degree` and `get(i) == nth(i)`, and folds (`fold`,
//! `for_each`) exactly the edges `next` would still yield.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use gp_graph::container::{build_streaming, StreamBuildOptions};
use gp_graph::generators::{barabasi_albert, erdos_renyi, rmat, RmatConfig, WeightMode};
use gp_graph::rng::{Rng, StdRng};
use gp_graph::{
    CsrGraph, EdgeRef, EdgeUpdate, GraphBuilder, GraphView, MappedCsr, MeteredView, OutEdges,
    OverlayGraph, VertexId,
};

fn bits(e: EdgeRef) -> (u32, u32) {
    (e.other.get(), e.weight.to_bits())
}

/// What is left of `row`, read through `fold` and through `for_each`: both
/// must match `want`, the tail `next` would still yield.
fn assert_walks(label: &str, row: &OutEdges<'_>, want: &[EdgeRef]) {
    let want: Vec<_> = want.iter().copied().map(bits).collect();
    let folded = row.clone().fold(Vec::new(), |mut acc, e| {
        acc.push(bits(e));
        acc
    });
    assert_eq!(folded, want, "{label}: fold");
    let mut walked = Vec::new();
    row.clone().for_each(|e| walked.push(bits(e)));
    assert_eq!(walked, want, "{label}: for_each");
}

/// One row against the edges it must hold: length, order, the `get`/`nth`
/// contract at every index, and `fold`/`for_each` over the whole row, from
/// the start and mid-walk.
fn assert_row(label: &str, row: OutEdges<'_>, degree: u32, want: &[EdgeRef]) {
    assert_eq!(row.len(), want.len(), "{label}: len");
    assert_eq!(degree as usize, want.len(), "{label}: degree");
    for (i, &w) in want.iter().enumerate() {
        assert_eq!(row.get(i).map(bits), Some(bits(w)), "{label}: get({i})");
        assert_eq!(
            row.clone().nth(i).map(bits),
            Some(bits(w)),
            "{label}: nth({i})"
        );
    }
    assert!(row.get(want.len()).is_none(), "{label}: get past the end");
    // `get`, `fold` and `for_each` see only what is left of a partly
    // walked row.
    let mut walked = row.clone();
    for (i, &w) in want.iter().enumerate() {
        assert_walks(&format!("{label} after {i}"), &walked, &want[i..]);
        assert_eq!(walked.len(), want.len() - i, "{label}: remaining at {i}");
        assert_eq!(walked.get(0).map(bits), Some(bits(w)), "{label}: head {i}");
        assert_eq!(walked.next().map(bits), Some(bits(w)), "{label}: next {i}");
    }
    assert_walks(&format!("{label} walked"), &walked, &[]);
    assert!(walked.next().is_none() && walked.get(0).is_none());
}

/// `view` serves exactly `want`'s adjacency, directly and through a
/// [`MeteredView`], which must charge each row as it hands it out.
fn assert_serves<G: GraphView>(label: &str, view: &G, want: &CsrGraph) {
    let metered = MeteredView::new(view);
    assert_eq!(view.num_vertices(), want.num_vertices(), "{label}");
    assert_eq!(view.num_edges(), want.num_edges(), "{label}");
    assert_eq!(view.is_weighted(), want.is_weighted(), "{label}");
    for v in want.vertices() {
        let out: Vec<EdgeRef> = want.out_edges(v).collect();
        let inn: Vec<EdgeRef> = want.in_edges(v).collect();
        let l = format!("{label} {v}");
        assert_row(
            &format!("{l} out"),
            view.out_edges(v),
            view.out_degree(v),
            &out,
        );
        assert_row(
            &format!("{l} in"),
            view.in_edges(v),
            view.in_degree(v),
            &inn,
        );
        let before = metered.snapshot();
        assert_row(
            &format!("{l} metered out"),
            metered.out_edges(v),
            view.out_degree(v),
            &out,
        );
        assert_row(
            &format!("{l} metered in"),
            metered.in_edges(v),
            view.in_degree(v),
            &inn,
        );
        let after = metered.snapshot();
        let edges = (out.len() + inn.len()) as u64;
        let edge_bytes = if want.is_weighted() { 8 } else { 4 };
        assert_eq!(after.rowptr_bytes - before.rowptr_bytes, 16, "{l}");
        assert_eq!(after.edges_read - before.edges_read, edges, "{l}");
        assert_eq!(
            after.edge_bytes - before.edge_bytes,
            edges * edge_bytes,
            "{l}"
        );
    }
}

fn random_graph(rng: &mut StdRng, case: usize) -> CsrGraph {
    let n = rng.gen_range(2..80usize);
    let seed = rng.next_u64();
    let wm = if rng.gen_bool(0.5) {
        WeightMode::Unweighted
    } else {
        WeightMode::Uniform(0.5, 9.0)
    };
    match case % 4 {
        0 => rmat(&RmatConfig::graph500(n, n * 4).with_weights(wm), seed),
        1 => barabasi_albert(n.max(4), 2, wm, seed),
        2 => erdos_renyi(n, n * 3, wm, seed),
        // Isolated vertices only: every row is empty.
        _ => GraphBuilder::new(n).build(),
    }
}

/// The edge set an overlay must hold, kept independently of it: the oracle
/// for rows that [`OverlayGraph::to_csr`] (itself read through rows) cannot
/// be.
struct Model {
    vertices: usize,
    weighted: bool,
    edges: BTreeMap<(u32, u32), f32>,
}

impl Model {
    fn of(g: &CsrGraph) -> Model {
        let edges = g
            .vertices()
            .flat_map(|v| {
                g.out_edges(v)
                    .map(move |e| ((v.get(), e.other.get()), e.weight))
            })
            .collect();
        Model {
            vertices: g.num_vertices(),
            weighted: g.is_weighted(),
            edges,
        }
    }

    /// Draws `len` updates against the current edge set and applies them
    /// in order: inserting a present edge or a self loop and deleting an
    /// absent edge change nothing.
    fn random_batch(&mut self, rng: &mut StdRng, len: usize) -> Vec<EdgeUpdate> {
        let n = self.vertices as u32;
        let mut batch = Vec::with_capacity(len);
        for _ in 0..len {
            let (src, dst) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if !self.edges.is_empty() && rng.gen_bool(0.4) {
                let pick = rng.gen_range(0..self.edges.len());
                let (&(src, dst), _) = self.edges.iter().nth(pick).expect("pick < len");
                self.edges.remove(&(src, dst));
                batch.push(EdgeUpdate::Delete {
                    src: VertexId::new(src),
                    dst: VertexId::new(dst),
                });
                continue;
            }
            let weight = if self.weighted {
                rng.gen_range(0.5f32..9.0)
            } else {
                1.0
            };
            if src != dst {
                self.edges.entry((src, dst)).or_insert(weight);
            }
            batch.push(EdgeUpdate::Insert {
                src: VertexId::new(src),
                dst: VertexId::new(dst),
                weight,
            });
        }
        batch
    }

    fn to_csr(&self) -> CsrGraph {
        let mut b = GraphBuilder::new(self.vertices);
        b.weighted(self.weighted);
        for (&(s, d), &w) in &self.edges {
            b.add_edge(VertexId::new(s), VertexId::new(d), w);
        }
        b.build()
    }
}

/// Streams `g`'s edges through the external-memory builder and maps the
/// result.
fn stream_and_map(g: &CsrGraph, path: &Path, rng: &mut StdRng) -> MappedCsr {
    let opts = StreamBuildOptions {
        weighted: g.is_weighted(),
        bucket_vertices: rng.gen_range(1..g.num_vertices() + 1),
    };
    build_streaming(path, g.num_vertices(), &opts, |sink| {
        for v in g.vertices() {
            for e in g.out_edges(v) {
                sink(v.get(), e.other.get(), e.weight);
            }
        }
    })
    .expect("streamed build");
    MappedCsr::open_verified(path).expect("streamed container opens")
}

#[test]
fn every_storage_serves_the_rows_of_the_materialized_csr() {
    let dir = std::env::temp_dir().join(format!("gp-storage-eq-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let mut rng = StdRng::seed_from_u64(0x5E0);
    for case in 0..32 {
        let base = random_graph(&mut rng, case);
        let mut model = Model::of(&base);
        assert_eq!(model.to_csr(), base, "case {case}: model of the base");
        assert_serves(&format!("case {case} csr"), &base, &base);

        let mut overlay = OverlayGraph::new(base.clone());
        assert_serves(&format!("case {case} fresh overlay"), &overlay, &base);

        overlay.apply(&model.random_batch(&mut rng, 24));
        let pinned = overlay.freeze();
        let pinned_csr = model.to_csr();
        assert_eq!(overlay.to_csr(), pinned_csr, "case {case}");
        assert_serves(&format!("case {case} overlay"), &overlay, &pinned_csr);
        assert_serves(&format!("case {case} snapshot"), &pinned, &pinned_csr);

        // The snapshot outlives further writes to the overlay...
        overlay.apply(&model.random_batch(&mut rng, 24));
        let current = model.to_csr();
        assert_eq!(overlay.to_csr(), current, "case {case}");
        assert_serves(&format!("case {case} overlay, batch 2"), &overlay, &current);
        assert_serves(&format!("case {case} snapshot, late"), &pinned, &pinned_csr);

        // ...and a compaction, which changes the overlay's representation
        // but no row of either.
        overlay.compact();
        assert_eq!(overlay.patched_vertices(), 0);
        assert_eq!(overlay.base(), &current);
        assert_serves(&format!("case {case} compacted"), &overlay, &current);
        assert_serves(&format!("case {case} snapshot, last"), &pinned, &pinned_csr);

        let path = dir.join(format!("case{case}.gpc"));
        let mapped = stream_and_map(&current, &path, &mut rng);
        // The container numbers the vertices hub-first.
        let rank: Vec<u32> = current
            .vertices()
            .map(|s| mapped.container_id(s).get())
            .collect();
        let relabeled = current.relabel(&rank);
        assert_serves(&format!("case {case} mapped"), &mapped, &relabeled);
        assert_eq!(mapped.to_csr(), relabeled);
    }
    fs::remove_dir_all(&dir).ok();
}
