//! Byte-traffic metering for out-of-core runs.
//!
//! [`MeteredView`] wraps any [`GraphView`] and counts the container bytes
//! each accessor moves, split into row-pointer traffic and edge-list
//! traffic — the two access classes whose request-size mix the Dann et al.
//! memory-access-pattern studies identify as the determinant of graph
//! accelerator bandwidth efficiency. Dividing by the number of edges read
//! yields *bytes moved per edge*, the headline out-of-core metric in
//! `BENCH_outofcore.json`.
//!
//! Counters are relaxed atomics so the wrapper satisfies the `Sync` bound
//! the shard-parallel and turbo engines require; metering costs three
//! uncontended atomic adds per row handed out.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{GraphView, OutEdges, VertexId};

/// Accumulated traffic snapshot from a [`MeteredView`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Traffic {
    /// Bytes of row-pointer (offset array) reads.
    pub rowptr_bytes: u64,
    /// Bytes of edge-list (neighbor + weight) reads.
    pub edge_bytes: u64,
    /// Number of individual edge reads.
    pub edges_read: u64,
}

impl Traffic {
    /// Total bytes moved.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.rowptr_bytes + self.edge_bytes
    }

    /// Average bytes moved per edge read (`NaN` when no edges were read).
    #[must_use]
    pub fn bytes_per_edge(&self) -> f64 {
        self.total_bytes() as f64 / self.edges_read as f64
    }
}

/// A [`GraphView`] adapter that meters the bytes its inner view serves.
///
/// Accounting is at accessor granularity against the container layout:
/// a degree lookup reads two adjacent `u32` row pointers (8 bytes), an
/// edge-base lookup one (4 bytes), and a row is charged whole when it is
/// handed out — its two row pointers plus, per edge, one `u32` neighbor
/// and, on weighted graphs, one `f32` weight (4 or 8 bytes). A caller
/// that walks whole rows, as the golden engine does, is charged exactly
/// the bytes it reads.
#[derive(Debug)]
pub struct MeteredView<'a, G: GraphView + ?Sized> {
    inner: &'a G,
    weighted: bool,
    rowptr_bytes: AtomicU64,
    edge_bytes: AtomicU64,
    edges_read: AtomicU64,
}

impl<'a, G: GraphView + ?Sized> MeteredView<'a, G> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: &'a G) -> Self {
        MeteredView {
            inner,
            weighted: inner.is_weighted(),
            rowptr_bytes: AtomicU64::new(0),
            edge_bytes: AtomicU64::new(0),
            edges_read: AtomicU64::new(0),
        }
    }

    /// Current counter values.
    pub fn snapshot(&self) -> Traffic {
        Traffic {
            rowptr_bytes: self.rowptr_bytes.load(Ordering::Relaxed),
            edge_bytes: self.edge_bytes.load(Ordering::Relaxed),
            edges_read: self.edges_read.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the counters (e.g. between algorithms on a shared mapping).
    pub fn reset(&self) {
        self.rowptr_bytes.store(0, Ordering::Relaxed);
        self.edge_bytes.store(0, Ordering::Relaxed);
        self.edges_read.store(0, Ordering::Relaxed);
    }

    #[inline]
    fn meter_row<'r>(&self, row: OutEdges<'r>) -> OutEdges<'r> {
        let edges = row.len() as u64;
        let bytes = if self.weighted { 8 } else { 4 };
        self.rowptr_bytes.fetch_add(8, Ordering::Relaxed);
        self.edge_bytes.fetch_add(edges * bytes, Ordering::Relaxed);
        self.edges_read.fetch_add(edges, Ordering::Relaxed);
        row
    }
}

impl<G: GraphView + ?Sized> GraphView for MeteredView<'_, G> {
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }

    fn edge_span(&self) -> usize {
        self.inner.edge_span()
    }

    fn is_weighted(&self) -> bool {
        self.weighted
    }

    fn out_degree(&self, v: VertexId) -> u32 {
        self.rowptr_bytes.fetch_add(8, Ordering::Relaxed);
        self.inner.out_degree(v)
    }

    fn out_edges(&self, v: VertexId) -> OutEdges<'_> {
        self.meter_row(self.inner.out_edges(v))
    }

    fn out_edge_base(&self, v: VertexId) -> usize {
        self.rowptr_bytes.fetch_add(4, Ordering::Relaxed);
        self.inner.out_edge_base(v)
    }

    fn in_degree(&self, v: VertexId) -> u32 {
        self.rowptr_bytes.fetch_add(8, Ordering::Relaxed);
        self.inner.in_degree(v)
    }

    fn in_edges(&self, v: VertexId) -> OutEdges<'_> {
        self.meter_row(self.inner.in_edges(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn counts_accessor_traffic() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(VertexId::new(0), VertexId::new(1), 2.0);
        b.add_edge(VertexId::new(0), VertexId::new(2), 3.0);
        b.weighted(true);
        let g = b.build();
        let metered = MeteredView::new(&g);
        let v0 = VertexId::new(0);
        // 8 rowptr bytes + 8 edge bytes per (weighted) edge
        assert_eq!(metered.out_edges(v0).count(), 2);
        metered.out_edge_base(v0); // 4 rowptr bytes
        let t = metered.snapshot();
        assert_eq!(t.rowptr_bytes, 12);
        assert_eq!(t.edge_bytes, 16);
        assert_eq!(t.edges_read, 2);
        assert_eq!(t.total_bytes(), 28);
        assert!((t.bytes_per_edge() - 14.0).abs() < 1e-12);
        metered.reset();
        assert_eq!(metered.snapshot(), Traffic::default());
    }

    #[test]
    fn unweighted_edges_cost_four_bytes() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(VertexId::new(0), VertexId::new(1), 1.0);
        let g = b.build();
        let metered = MeteredView::new(&g);
        assert_eq!(metered.in_edges(VertexId::new(1)).len(), 1);
        let t = metered.snapshot();
        assert_eq!((t.rowptr_bytes, t.edge_bytes, t.edges_read), (8, 4, 1));
    }
}
