//! Graph slicing for out-of-core accelerator execution (§IV-F).
//!
//! The accelerator's coalescing queue direct-maps every resident vertex to a
//! slot, so a slice may hold at most `queue capacity` vertices. Graphs
//! larger than that are split into contiguous vertex ranges ("slices"); the
//! paper relabels vertices so each slice is contiguous, which our generators
//! already guarantee, so slicing reduces to choosing boundaries.

use crate::{GraphView, VertexId};

/// A contiguous vertex range `[start, end)` resident on the accelerator at
/// one time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    /// First vertex (inclusive).
    pub start: VertexId,
    /// One past the last vertex (exclusive).
    pub end: VertexId,
}

impl Slice {
    /// Number of vertices in the slice.
    #[inline]
    pub fn len(&self) -> usize {
        (self.end.get() - self.start.get()) as usize
    }

    /// Whether the slice is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether `v` belongs to this slice.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.start <= v && v < self.end
    }

    /// Slice-local index of `v`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `v` is not in the slice.
    #[inline]
    pub fn local_index(&self, v: VertexId) -> usize {
        debug_assert!(self.contains(v), "{v} outside slice");
        (v.get() - self.start.get()) as usize
    }
}

/// A partitioning of a graph into slices, with a vertex→slice lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    slices: Vec<Slice>,
}

impl Partition {
    /// Partitions `graph` into contiguous slices of at most
    /// `max_vertices_per_slice` vertices each, balancing *edge* counts:
    /// boundaries are chosen so slices carry roughly equal out-edge work,
    /// subject to the vertex cap (the binding constraint of the queue).
    ///
    /// # Panics
    ///
    /// Panics if `max_vertices_per_slice` is zero.
    pub fn contiguous<G: GraphView + ?Sized>(graph: &G, max_vertices_per_slice: usize) -> Self {
        assert!(max_vertices_per_slice > 0, "slice capacity must be nonzero");
        let n = graph.num_vertices();
        if n == 0 {
            return Partition { slices: vec![] };
        }
        let num_slices = n.div_ceil(max_vertices_per_slice);
        let target_edges = (graph.num_edges() / num_slices).max(1);

        let mut slices = Vec::with_capacity(num_slices);
        let mut start = 0usize;
        while start < n {
            let mut end = start;
            let mut edges = 0usize;
            while end < n && end - start < max_vertices_per_slice {
                edges += graph.out_degree(VertexId::from_index(end)) as usize;
                end += 1;
                // Leave the loop once the edge budget is met, but only if the
                // remaining vertices still fit into the remaining slices.
                let remaining_slices = num_slices - slices.len() - 1;
                if edges >= target_edges && remaining_slices * max_vertices_per_slice >= n - end {
                    break;
                }
            }
            slices.push(Slice {
                start: VertexId::from_index(start),
                end: VertexId::from_index(end),
            });
            start = end;
        }
        Partition { slices }
    }

    /// A single slice spanning the whole graph (no partitioning).
    pub fn whole<G: GraphView + ?Sized>(graph: &G) -> Self {
        Partition {
            slices: vec![Slice {
                start: VertexId::new(0),
                end: VertexId::from_index(graph.num_vertices()),
            }],
        }
    }

    /// The slices in vertex order.
    pub fn slices(&self) -> &[Slice] {
        &self.slices
    }

    /// Number of slices.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// Whether there are no slices (empty graph).
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// Index of the slice containing `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is beyond the partitioned range.
    pub fn slice_of(&self, v: VertexId) -> usize {
        match self.slices.binary_search_by(|s| {
            if v < s.start {
                std::cmp::Ordering::Greater
            } else if v >= s.end {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(i) => i,
            Err(_) => panic!("{v} outside every slice"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{erdos_renyi, WeightMode};
    use crate::rng::{Rng, StdRng};
    use crate::CsrGraph;

    fn graph() -> CsrGraph {
        erdos_renyi(100, 600, WeightMode::Unweighted, 1)
    }

    #[test]
    fn slices_cover_exactly_once() {
        let g = graph();
        let p = Partition::contiguous(&g, 30);
        assert!(p.len() >= 4);
        let mut covered = 0;
        let mut prev_end = 0u32;
        for s in p.slices() {
            assert_eq!(s.start.get(), prev_end, "gap before slice");
            assert!(s.len() <= 30, "slice overflows vertex cap");
            covered += s.len();
            prev_end = s.end.get();
        }
        assert_eq!(covered, g.num_vertices());
    }

    #[test]
    fn slice_lookup_matches_contains() {
        let g = graph();
        let p = Partition::contiguous(&g, 17);
        for v in g.vertices() {
            let i = p.slice_of(v);
            assert!(p.slices()[i].contains(v));
            assert_eq!(
                p.slices()[i].local_index(v),
                (v.get() - p.slices()[i].start.get()) as usize
            );
        }
    }

    #[test]
    fn whole_partition_is_one_slice() {
        let g = graph();
        let p = Partition::whole(&g);
        assert_eq!(p.len(), 1);
        assert_eq!(p.slices()[0].len(), g.num_vertices());
    }

    #[test]
    fn scatter_spreads_a_hub_graph_across_slices() {
        // All edges out of vertex 0: contiguous slicing puts every edge in
        // slice 0; after relabeling by a random permutation, the hub lands
        // in a random slice but the *in*-edges (the event load) spread
        // with their targets.
        let mut b = crate::GraphBuilder::new(64);
        for d in 1..64u32 {
            b.add_edge(VertexId::new(0), VertexId::new(d), 1.0);
        }
        let g = b.build();
        let p = g.relabel(&StdRng::seed_from_u64(3).permutation(64));
        let part = Partition::contiguous(&p, 16);
        let loads: Vec<usize> = part
            .slices()
            .iter()
            .map(|s| {
                (s.start.get()..s.end.get())
                    .map(|v| p.in_degree(VertexId::new(v)) as usize)
                    .sum()
            })
            .collect();
        assert!(
            loads.iter().all(|&l| l > 0),
            "a slice got no event load: {loads:?}"
        );
    }

    #[test]
    fn empty_graph_partitions_to_nothing() {
        let g = crate::GraphBuilder::new(0).build();
        let p = Partition::contiguous(&g, 10);
        assert!(p.is_empty());
    }

    #[test]
    fn edge_balancing_does_not_violate_caps() {
        // Hub-heavy graph: first vertex has most edges.
        let mut b = crate::GraphBuilder::new(50);
        for d in 1..50u32 {
            b.add_edge(VertexId::new(0), VertexId::new(d), 1.0);
        }
        for v in 1..49u32 {
            b.add_edge(VertexId::new(v), VertexId::new(v + 1), 1.0);
        }
        let g = b.build();
        let p = Partition::contiguous(&g, 20);
        for s in p.slices() {
            assert!(s.len() <= 20);
        }
        let total: usize = p.slices().iter().map(|s| s.len()).sum();
        assert_eq!(total, 50);
    }
}
