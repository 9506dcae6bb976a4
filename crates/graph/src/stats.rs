//! Graph-level statistics used to validate generators and size experiments.

use crate::{CsrGraph, GraphView, VertexId};

/// Summary statistics of a graph's degree structure.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Vertex count.
    pub vertices: usize,
    /// Directed edge count.
    pub edges: usize,
    /// Mean out-degree.
    pub avg_out_degree: f64,
    /// Largest out-degree.
    pub max_out_degree: u32,
    /// Largest in-degree.
    pub max_in_degree: u32,
    /// Number of vertices with no out-edges (sinks).
    pub sinks: usize,
    /// Number of vertices with no in-edges (sources).
    pub sources: usize,
    /// Log2-bucketed out-degree histogram: `hist[i]` counts vertices with
    /// out-degree in `[2^i, 2^(i+1))`; `hist[0]` counts degree 0 and 1.
    pub degree_histogram: Vec<u64>,
}

impl GraphStats {
    /// Computes statistics for `graph`.
    pub fn compute(graph: &CsrGraph) -> Self {
        let n = graph.num_vertices();
        let mut max_out = 0u32;
        let mut max_in = 0u32;
        let mut sinks = 0usize;
        let mut sources = 0usize;
        let mut hist = vec![0u64; 33];
        for v in graph.vertices() {
            let d_out = graph.out_degree(v);
            let d_in = graph.in_degree(v);
            max_out = max_out.max(d_out);
            max_in = max_in.max(d_in);
            if d_out == 0 {
                sinks += 1;
            }
            if d_in == 0 {
                sources += 1;
            }
            let bucket = if d_out <= 1 {
                0
            } else {
                32 - (d_out.leading_zeros() as usize)
            };
            hist[bucket] += 1;
        }
        while hist.len() > 1 && *hist.last().unwrap() == 0 {
            hist.pop();
        }
        GraphStats {
            vertices: n,
            edges: graph.num_edges(),
            avg_out_degree: if n == 0 {
                0.0
            } else {
                graph.num_edges() as f64 / n as f64
            },
            max_out_degree: max_out,
            max_in_degree: max_in,
            sinks,
            sources,
            degree_histogram: hist,
        }
    }

    /// A crude power-law indicator: ratio of the max degree to the mean.
    pub fn skew(&self) -> f64 {
        if self.avg_out_degree == 0.0 {
            0.0
        } else {
            self.max_out_degree as f64 / self.avg_out_degree
        }
    }
}

/// The vertex with the highest out-degree — the highest id among ties,
/// vertex 0 on an empty graph. The harnesses root their traversals here
/// so a single-source run reaches as much of the graph as one source can.
pub fn max_out_degree_vertex<G: GraphView + ?Sized>(graph: &G) -> VertexId {
    graph
        .vertex_ids()
        .max_by_key(|&v| graph.out_degree(v))
        .unwrap_or(VertexId::new(0))
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} vertices, {} edges, avg deg {:.2}, max out {}, max in {}, {} sinks, {} sources",
            self.vertices,
            self.edges,
            self.avg_out_degree,
            self.max_out_degree,
            self.max_in_degree,
            self.sinks,
            self.sources
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{erdos_renyi, rmat, RmatConfig, WeightMode};

    #[test]
    fn histogram_counts_every_vertex() {
        let g = erdos_renyi(500, 2_000, WeightMode::Unweighted, 6);
        let s = GraphStats::compute(&g);
        assert_eq!(s.degree_histogram.iter().sum::<u64>(), 500);
        assert_eq!(s.vertices, 500);
        assert_eq!(s.edges, g.num_edges());
    }

    #[test]
    fn rmat_skews_more_than_er() {
        let er = GraphStats::compute(&erdos_renyi(2_000, 16_000, WeightMode::Unweighted, 1));
        let rm = GraphStats::compute(&rmat(&RmatConfig::graph500(2_048, 16_384), 1));
        assert!(rm.skew() > 2.0 * er.skew());
    }

    #[test]
    fn empty_graph_stats() {
        let g = crate::GraphBuilder::new(0).build();
        let s = GraphStats::compute(&g);
        assert_eq!(s.vertices, 0);
        assert_eq!(s.avg_out_degree, 0.0);
        assert_eq!(s.skew(), 0.0);
    }

    #[test]
    fn max_out_degree_vertex_takes_the_last_of_the_largest() {
        let mut b = crate::GraphBuilder::new(5);
        for (src, dst) in [(1, 0), (1, 2), (3, 0), (3, 4), (4, 0)] {
            b.add_edge(VertexId::new(src), VertexId::new(dst), 1.0);
        }
        assert_eq!(max_out_degree_vertex(&b.build()), VertexId::new(3));
        let empty = crate::GraphBuilder::new(0).build();
        assert_eq!(max_out_degree_vertex(&empty), VertexId::new(0));
    }

    #[test]
    fn display_mentions_counts() {
        let g = erdos_renyi(10, 20, WeightMode::Unweighted, 0);
        let s = GraphStats::compute(&g).to_string();
        assert!(s.contains("10 vertices"));
    }
}
