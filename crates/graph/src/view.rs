//! Read-only adjacency abstraction shared by every graph storage: the
//! resident CSR, the mutable streaming overlay and its frozen snapshots,
//! the memory-mapped container, and the byte-metering wrapper.
//!
//! Every execution backend (the golden engines, the cycle-accurate
//! accelerator, the shard-parallel engine, turbo) reads adjacency through
//! this trait, so the same machinery runs on a frozen [`CsrGraph`], on an
//! [`OverlayGraph`](crate::OverlayGraph) carrying uncompacted edge
//! updates, and on a [`MappedCsr`](crate::MappedCsr) straight from disk.
//!
//! The unit of access is the **row**: [`GraphView::out_edges`] resolves a
//! vertex's edge list once (two row pointers, or one patch-table lookup)
//! and returns it as an [`OutEdges`] to stream — the way the accelerator's
//! generation units fetch a row pointer and then walk the edge list
//! (§IV). There is no per-edge accessor; a caller that wants one edge of a
//! row takes the row and calls [`OutEdges::get`].

use crate::{CsrGraph, OutEdges, VertexId};

/// Read-only view of a directed graph with out- and in-adjacency and
/// optional `f32` edge weights.
pub trait GraphView {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;

    /// Number of live directed edges.
    fn num_edges(&self) -> usize;

    /// Size of the flat edge address space, in edge slots.
    ///
    /// For a CSR this equals [`GraphView::num_edges`]. A log-structured
    /// overlay may park patched edge lists past the base CSR, so its span
    /// can exceed the live edge count; memory models size the edge region
    /// from this value.
    fn edge_span(&self) -> usize {
        self.num_edges()
    }

    /// Whether the graph carries meaningful edge weights.
    fn is_weighted(&self) -> bool;

    /// Out-degree of `v`.
    fn out_degree(&self, v: VertexId) -> u32;

    /// The out-edges of `v`, in adjacency order; its `len()` is
    /// [`GraphView::out_degree`].
    fn out_edges(&self, v: VertexId) -> OutEdges<'_>;

    /// Global flat index of the first out-edge of `v`, within
    /// [`GraphView::edge_span`]; used to compute DRAM addresses of edge
    /// lists.
    fn out_edge_base(&self, v: VertexId) -> usize;

    /// In-degree of `v`.
    fn in_degree(&self, v: VertexId) -> u32;

    /// The in-edges of `v`, in adjacency order; its `len()` is
    /// [`GraphView::in_degree`].
    fn in_edges(&self, v: VertexId) -> OutEdges<'_>;

    /// Iterator over all vertex ids.
    fn vertex_ids(&self) -> VertexIds {
        VertexIds {
            next: 0,
            end: self.num_vertices() as u32,
        }
    }
}

/// Iterator over the vertex ids of a [`GraphView`].
#[derive(Debug, Clone)]
pub struct VertexIds {
    next: u32,
    end: u32,
}

impl Iterator for VertexIds {
    type Item = VertexId;

    fn next(&mut self) -> Option<VertexId> {
        if self.next < self.end {
            let v = VertexId::new(self.next);
            self.next += 1;
            Some(v)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.end - self.next) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for VertexIds {}

impl GraphView for CsrGraph {
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    fn num_edges(&self) -> usize {
        CsrGraph::num_edges(self)
    }

    fn is_weighted(&self) -> bool {
        CsrGraph::is_weighted(self)
    }

    fn out_degree(&self, v: VertexId) -> u32 {
        CsrGraph::out_degree(self, v)
    }

    fn out_edges(&self, v: VertexId) -> OutEdges<'_> {
        CsrGraph::out_edges(self, v)
    }

    fn out_edge_base(&self, v: VertexId) -> usize {
        CsrGraph::out_edge_base(self, v)
    }

    fn in_degree(&self, v: VertexId) -> u32 {
        CsrGraph::in_degree(self, v)
    }

    fn in_edges(&self, v: VertexId) -> OutEdges<'_> {
        CsrGraph::in_edges(self, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> CsrGraph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(VertexId::new(0), VertexId::new(1), 1.0);
        b.add_edge(VertexId::new(0), VertexId::new(2), 2.0);
        b.add_edge(VertexId::new(1), VertexId::new(3), 3.0);
        b.add_edge(VertexId::new(2), VertexId::new(3), 4.0);
        b.weighted(true);
        b.build()
    }

    #[test]
    fn vertex_ids_covers_the_graph() {
        let g = diamond();
        let ids: Vec<u32> = GraphView::vertex_ids(&g).map(|v| v.get()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }
}
