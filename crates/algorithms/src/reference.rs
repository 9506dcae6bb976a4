//! Classic (non-delta) golden reference implementations.
//!
//! Textbook algorithms — power iteration, Dijkstra, queue BFS, fixpoint
//! label propagation, Jacobi — used to validate every delta-form backend in
//! the workspace. They intentionally share *no* code with the engines they
//! check.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use gp_graph::{CsrGraph, VertexId};

use crate::AdsorptionParams;

/// Unnormalized PageRank by damped Jacobi iteration:
/// `v_j ← (1−α) + α · Σ_{i→j} v_i / N(i)` until the largest per-vertex
/// change drops below `epsilon`.
///
/// This is the fixpoint PR-Delta converges to (paper §II-B / Maiter).
///
/// # Panics
///
/// Panics unless `0 < alpha < 1`.
pub fn pagerank(graph: &CsrGraph, alpha: f64, epsilon: f64) -> Vec<f64> {
    assert!(
        (0.0..1.0).contains(&alpha) && alpha > 0.0,
        "alpha must be in (0,1)"
    );
    let n = graph.num_vertices();
    let mut ranks = vec![1.0 - alpha; n];
    let mut next = vec![0.0f64; n];
    let degrees: Vec<f64> = graph
        .vertices()
        .map(|v| graph.out_degree(v) as f64)
        .collect();
    for _ in 0..10_000 {
        for x in next.iter_mut() {
            *x = 1.0 - alpha;
        }
        for v in graph.vertices() {
            let share = if degrees[v.index()] > 0.0 {
                alpha * ranks[v.index()] / degrees[v.index()]
            } else {
                continue;
            };
            for d in graph.out_neighbors(v) {
                next[d.index()] += share;
            }
        }
        let max_change = ranks
            .iter()
            .zip(&next)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        std::mem::swap(&mut ranks, &mut next);
        if max_change < epsilon {
            break;
        }
    }
    ranks
}

/// Dijkstra's algorithm from `root`; unreachable vertices get `+∞`.
///
/// # Panics
///
/// Panics if `root` is out of range or a negative weight is encountered.
pub fn sssp_dijkstra(graph: &CsrGraph, root: VertexId) -> Vec<f64> {
    let n = graph.num_vertices();
    assert!(root.index() < n, "root out of range");
    let mut dist = vec![f64::INFINITY; n];
    dist[root.index()] = 0.0;
    // f64 keys via ordered bits (distances are nonnegative).
    let key = |d: f64| -> u64 { d.to_bits() };
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    heap.push(Reverse((key(0.0), root.get())));
    while let Some(Reverse((k, v))) = heap.pop() {
        let d = f64::from_bits(k);
        if d > dist[v as usize] {
            continue;
        }
        for e in graph.out_edges(VertexId::new(v)) {
            assert!(e.weight >= 0.0, "dijkstra requires nonnegative weights");
            let nd = d + e.weight as f64;
            if nd < dist[e.other.index()] {
                dist[e.other.index()] = nd;
                heap.push(Reverse((key(nd), e.other.get())));
            }
        }
    }
    dist
}

/// Level BFS from `root`; unreachable vertices get `+∞`.
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn bfs_levels(graph: &CsrGraph, root: VertexId) -> Vec<f64> {
    let n = graph.num_vertices();
    assert!(root.index() < n, "root out of range");
    let mut level = vec![f64::INFINITY; n];
    level[root.index()] = 0.0;
    let mut q = VecDeque::new();
    q.push_back(root);
    while let Some(v) = q.pop_front() {
        let next = level[v.index()] + 1.0;
        for d in graph.out_neighbors(v) {
            if level[d.index()].is_infinite() {
                level[d.index()] = next;
                q.push_back(*d);
            }
        }
    }
    level
}

/// Widest (maximum-bottleneck) paths from `root` by a Dijkstra-style
/// best-first search on the max-min semiring; unreachable vertices get 0,
/// the root gets `+∞`.
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn sswp_widest(graph: &CsrGraph, root: VertexId) -> Vec<f64> {
    let n = graph.num_vertices();
    assert!(root.index() < n, "root out of range");
    let mut cap = vec![0.0f64; n];
    cap[root.index()] = f64::INFINITY;
    // Max-heap keyed on capacity bits (nonnegative f64s order like u64s).
    let mut heap: BinaryHeap<(u64, u32)> = BinaryHeap::new();
    heap.push((f64::INFINITY.to_bits(), root.get()));
    while let Some((k, v)) = heap.pop() {
        let c = f64::from_bits(k);
        if c < cap[v as usize] {
            continue;
        }
        for e in graph.out_edges(VertexId::new(v)) {
            let nc = c.min(f64::from(e.weight));
            if nc > cap[e.other.index()] {
                cap[e.other.index()] = nc;
                heap.push((nc.to_bits(), e.other.get()));
            }
        }
    }
    cap
}

/// Personalized PageRank by damped Jacobi iteration: like [`pagerank`] but
/// teleport mass `(1−α)` is injected only at `sources`.
///
/// # Panics
///
/// Panics unless `0 < alpha < 1`.
pub fn personalized_pagerank(
    graph: &CsrGraph,
    alpha: f64,
    sources: &[VertexId],
    epsilon: f64,
) -> Vec<f64> {
    assert!(
        (0.0..1.0).contains(&alpha) && alpha > 0.0,
        "alpha must be in (0,1)"
    );
    let n = graph.num_vertices();
    let mut base = vec![0.0f64; n];
    for s in sources {
        base[s.index()] = 1.0 - alpha;
    }
    let mut ranks = base.clone();
    let mut next = vec![0.0f64; n];
    let degrees: Vec<f64> = graph
        .vertices()
        .map(|v| graph.out_degree(v) as f64)
        .collect();
    for _ in 0..100_000 {
        next.copy_from_slice(&base);
        for v in graph.vertices() {
            if degrees[v.index()] == 0.0 {
                continue;
            }
            let share = alpha * ranks[v.index()] / degrees[v.index()];
            for d in graph.out_neighbors(v) {
                next[d.index()] += share;
            }
        }
        let max_change = ranks
            .iter()
            .zip(&next)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        std::mem::swap(&mut ranks, &mut next);
        if max_change < epsilon {
            break;
        }
    }
    ranks
}

/// Max-label propagation to fixpoint: every vertex ends with the largest
/// vertex id that reaches it along directed paths (its own id included).
///
/// On symmetric graphs this labels weakly connected components.
pub fn cc_labels(graph: &CsrGraph) -> Vec<f64> {
    let n = graph.num_vertices();
    let mut label: Vec<i64> = (0..n as i64).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for v in graph.vertices() {
            let lv = label[v.index()];
            for d in graph.out_neighbors(v) {
                if lv > label[d.index()] {
                    label[d.index()] = lv;
                    changed = true;
                }
            }
        }
    }
    label.into_iter().map(|l| l as f64).collect()
}

/// Weakly connected components via union-find; returns the *representative
/// member count*, i.e. the number of components. Used to cross-check
/// [`cc_labels`] on symmetric graphs.
pub fn count_components_union_find(graph: &CsrGraph) -> usize {
    let n = graph.num_vertices();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    for v in graph.vertices() {
        for d in graph.out_neighbors(v) {
            let a = find(&mut parent, v.get());
            let b = find(&mut parent, d.get());
            if a != b {
                parent[a as usize] = b;
            }
        }
    }
    (0..n as u32).filter(|&x| find(&mut parent, x) == x).count()
}

/// Adsorption by Jacobi iteration:
/// `v_j ← β_j·I_j + Σ_{i→j} α_i · E_ij · v_i` until the largest change
/// drops below `epsilon`. Expects inbound-normalized weights (see
/// [`crate::normalize_inbound`]).
pub fn adsorption_jacobi(graph: &CsrGraph, params: &AdsorptionParams, epsilon: f64) -> Vec<f64> {
    let n = graph.num_vertices();
    let base: Vec<f64> = (0..n)
        .map(|i| {
            let v = VertexId::from_index(i);
            f64::from(params.beta(v)) * f64::from(params.injection(v))
        })
        .collect();
    let mut values = base.clone();
    let mut next = vec![0.0f64; n];
    for _ in 0..100_000 {
        next.copy_from_slice(&base);
        for v in graph.vertices() {
            let a = f64::from(params.alpha(v));
            let contribution = a * values[v.index()];
            for e in graph.out_edges(v) {
                next[e.other.index()] += f64::from(e.weight) * contribution;
            }
        }
        let max_change = values
            .iter()
            .zip(&next)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        std::mem::swap(&mut values, &mut next);
        if max_change < epsilon {
            break;
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_sequential;
    use crate::{normalize_inbound, Adsorption, Bfs, ConnectedComponents, PageRankDelta, Sssp};
    use gp_graph::generators::{erdos_renyi, grid_2d, rmat, RmatConfig, WeightMode};

    #[test]
    fn delta_pagerank_matches_power_iteration() {
        let g = rmat(&RmatConfig::graph500(256, 2_048), 4);
        let golden = pagerank(&g, 0.85, 1e-12);
        let out = run_sequential(&PageRankDelta::new(0.85, 1e-10), &g);
        assert!(crate::max_abs_diff(&golden, &out.values) < 1e-5);
    }

    #[test]
    fn delta_sssp_matches_dijkstra() {
        let g = erdos_renyi(300, 2_000, WeightMode::Uniform(1.0, 10.0), 6);
        let root = VertexId::new(0);
        let golden = sssp_dijkstra(&g, root);
        let out = run_sequential(&Sssp::new(root), &g);
        assert!(crate::max_abs_diff(&golden, &out.values) < 1e-6);
    }

    #[test]
    fn delta_bfs_matches_queue_bfs() {
        let g = grid_2d(20, 20, WeightMode::Unweighted, 0);
        let root = VertexId::new(5);
        let golden = bfs_levels(&g, root);
        let out = run_sequential(&Bfs::new(root), &g);
        assert!(crate::max_abs_diff(&golden, &out.values) < 1e-9);
    }

    #[test]
    fn delta_cc_matches_label_propagation() {
        let g = erdos_renyi(200, 500, WeightMode::Unweighted, 7);
        let golden = cc_labels(&g);
        let out = run_sequential(&ConnectedComponents::new(), &g);
        assert!(crate::max_abs_diff(&golden, &out.values) < 1e-9);
    }

    #[test]
    fn label_count_matches_union_find_on_symmetric_graphs() {
        let g = gp_graph::generators::watts_strogatz(150, 2, 0.3, WeightMode::Unweighted, 3);
        let labels = cc_labels(&g);
        let mut distinct: Vec<u64> = labels.iter().map(|l| *l as u64).collect();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), count_components_union_find(&g));
    }

    #[test]
    fn delta_adsorption_matches_jacobi() {
        let raw = erdos_renyi(150, 900, WeightMode::Uniform(0.5, 2.0), 9);
        let g = normalize_inbound(&raw);
        let params = AdsorptionParams::random(150, 42);
        let golden = adsorption_jacobi(&g, &params, 1e-12);
        let out = run_sequential(&Adsorption::new(params.clone(), 1e-10), &g);
        assert!(crate::max_abs_diff(&golden, &out.values) < 1e-5);
    }

    #[test]
    fn dijkstra_unreachable_is_infinite() {
        let mut b = gp_graph::GraphBuilder::new(3);
        b.add_edge(VertexId::new(0), VertexId::new(1), 1.0);
        let g = b.build();
        let d = sssp_dijkstra(&g, VertexId::new(0));
        assert!(d[2].is_infinite());
    }
}
