//! Direction-optimizing `edge_map`.

use std::sync::atomic::{AtomicBool, Ordering};

use gp_graph::{CsrGraph, VertexId};

use super::{LigraConfig, VertexSubset};

/// Per-edge update callbacks, in the shape of Ligra's `EDGE_F`.
///
/// `update` is the non-atomic variant used by the pull (dense) direction —
/// only one thread touches a given destination; `update_atomic` is the
/// CAS-based variant for the push (sparse) direction; `cond` filters
/// destinations and provides the pull direction's early exit.
pub trait EdgeOp: Sync {
    /// Applies `src`'s contribution to `dst`; returns `true` if `dst`
    /// should enter the next frontier. Only called single-threaded per
    /// `dst` (pull direction).
    fn update(&self, src: VertexId, dst: VertexId, weight: f32) -> bool;

    /// Atomic variant for concurrent pushes to the same `dst`.
    fn update_atomic(&self, src: VertexId, dst: VertexId, weight: f32) -> bool;

    /// Whether `dst` still wants updates; when it turns false the pull
    /// direction stops scanning `dst`'s in-edges.
    fn cond(&self, _dst: VertexId) -> bool {
        true
    }
}

/// Applies `op` over every edge leaving `frontier`, returning the next
/// frontier — switching between push (sparse) and pull (dense) when the
/// frontier's out-edge count crosses `|E| / dense_threshold_div` (§II-A's
/// direction optimization, Ligra's signature feature).
pub fn edge_map(
    graph: &CsrGraph,
    frontier: &VertexSubset,
    op: &impl EdgeOp,
    cfg: &LigraConfig,
) -> VertexSubset {
    let n = graph.num_vertices();
    if frontier.is_empty() || n == 0 {
        return VertexSubset::empty(n);
    }
    let mut frontier_edges = 0usize;
    frontier.for_each(|v| frontier_edges += graph.out_degree(v) as usize);
    let work = frontier.len() + frontier_edges;
    // div == 0 disables the dense direction entirely (useful for tests and
    // ablations); Ligra's default divisor is 20.
    let threshold = graph
        .num_edges()
        .checked_div(cfg.dense_threshold_div)
        .unwrap_or(usize::MAX);
    if work > threshold {
        edge_map_dense(graph, frontier, op, cfg)
    } else {
        edge_map_sparse(graph, frontier, op, cfg)
    }
}

/// Pull direction: scan every destination's in-edges against a dense
/// frontier, with `cond` early exit.
fn edge_map_dense(
    graph: &CsrGraph,
    frontier: &VertexSubset,
    op: &impl EdgeOp,
    cfg: &LigraConfig,
) -> VertexSubset {
    let n = graph.num_vertices();
    let in_frontier = frontier.to_dense();
    let mut bits = vec![false; n];
    let threads = cfg.threads.max(1);
    let chunk = n.div_ceil(threads);
    if chunk == 0 {
        return VertexSubset::empty(n);
    }
    std::thread::scope(|s| {
        for (t, out) in bits.chunks_mut(chunk).enumerate() {
            let in_frontier = &in_frontier;
            s.spawn(move || {
                let base = t * chunk;
                for (i, slot) in out.iter_mut().enumerate() {
                    let dst = VertexId::from_index(base + i);
                    if !op.cond(dst) {
                        continue;
                    }
                    for e in graph.in_edges(dst) {
                        if in_frontier[e.other.index()] && op.update(e.other, dst, e.weight) {
                            *slot = true;
                        }
                        if !op.cond(dst) {
                            break; // early exit (e.g. BFS: already claimed)
                        }
                    }
                }
            });
        }
    });
    VertexSubset::from_dense(n, bits)
}

/// Push direction: walk the sparse frontier's out-edges with atomic
/// updates; next-frontier insertion deduplicated with a claim bitvector.
fn edge_map_sparse(
    graph: &CsrGraph,
    frontier: &VertexSubset,
    op: &impl EdgeOp,
    cfg: &LigraConfig,
) -> VertexSubset {
    let n = graph.num_vertices();
    let active = frontier.to_sparse();
    let claimed: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let threads = cfg.threads.max(1);
    let chunk = active.len().div_ceil(threads).max(1);
    let mut next: Vec<u32> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for part in active.chunks(chunk) {
            let claimed = &claimed;
            handles.push(s.spawn(move || {
                let mut local: Vec<u32> = Vec::new();
                for &u in part {
                    let u = VertexId::new(u);
                    graph.out_edges(u).for_each(|e| {
                        if op.cond(e.other)
                            && op.update_atomic(u, e.other, e.weight)
                            && !claimed[e.other.index()].swap(true, Ordering::AcqRel)
                        {
                            local.push(e.other.get());
                        }
                    });
                }
                local
            }));
        }
        for h in handles {
            next.extend(h.join().expect("worker panicked"));
        }
    });
    VertexSubset::from_sparse(n, next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ligra::atomic::{atomic_vec, snapshot};
    use crate::ligra::AtomicF64;
    use gp_graph::generators::{erdos_renyi, WeightMode};
    use gp_graph::GraphBuilder;

    /// Min-propagation op used to exercise both directions.
    struct MinOp<'a> {
        dist: &'a [AtomicF64],
    }

    impl EdgeOp for MinOp<'_> {
        fn update(&self, src: VertexId, dst: VertexId, w: f32) -> bool {
            let cand = self.dist[src.index()].load() + f64::from(w);
            if cand < self.dist[dst.index()].load() {
                self.dist[dst.index()].store(cand);
                true
            } else {
                false
            }
        }

        fn update_atomic(&self, src: VertexId, dst: VertexId, w: f32) -> bool {
            let cand = self.dist[src.index()].load() + f64::from(w);
            self.dist[dst.index()].fetch_min(cand)
        }
    }

    #[test]
    fn push_and_pull_agree() {
        let g = erdos_renyi(120, 700, WeightMode::Uniform(1.0, 5.0), 4);
        let n = g.num_vertices();
        let run = |div: usize| {
            // div=0 disables dense (always push); div=usize::MAX makes the
            // threshold zero (always pull).
            let cfg = LigraConfig {
                threads: 3,
                dense_threshold_div: div,
                max_iterations: 10_000,
            };
            let dist = atomic_vec((0..n).map(|i| if i == 0 { 0.0 } else { f64::INFINITY }));
            let mut frontier = VertexSubset::single(n, VertexId::new(0));
            while !frontier.is_empty() {
                frontier = edge_map(&g, &frontier, &MinOp { dist: &dist }, &cfg);
            }
            snapshot(&dist)
        };
        let push = run(0);
        let pull = run(usize::MAX);
        let golden = gp_algorithms::reference::sssp_dijkstra(&g, VertexId::new(0));
        assert!(gp_algorithms::max_abs_diff(&push, &golden) < 1e-9);
        assert!(gp_algorithms::max_abs_diff(&pull, &golden) < 1e-9);
    }

    #[test]
    fn empty_frontier_maps_to_empty() {
        let g = GraphBuilder::new(3).build();
        let dist = atomic_vec([0.0, 0.0, 0.0]);
        let out = edge_map(
            &g,
            &VertexSubset::empty(3),
            &MinOp { dist: &dist },
            &LigraConfig::sequential(),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn next_frontier_has_no_duplicates() {
        // Two sources both update the same destination; it must appear once.
        let mut b = GraphBuilder::new(3);
        b.add_edge(VertexId::new(0), VertexId::new(2), 1.0);
        b.add_edge(VertexId::new(1), VertexId::new(2), 2.0);
        let g = b.build();
        let dist = atomic_vec([0.0, 0.0, f64::INFINITY]);
        let cfg = LigraConfig {
            threads: 2,
            dense_threshold_div: 0, // force push
            max_iterations: 10,
        };
        let frontier = VertexSubset::from_sparse(3, vec![0, 1]);
        let next = edge_map(&g, &frontier, &MinOp { dist: &dist }, &cfg);
        assert_eq!(next.to_sparse(), vec![2]);
    }
}
