//! The five evaluation applications on the Ligra-style framework, and
//! [`run`], which picks one by its row of the application table.
//!
//! An application is an edge operation, its initial values and its first
//! frontier, handed to one of two drivers. Both run [`edge_map`] rounds
//! until the frontier empties or `max_iterations` is reached:
//!
//! - `frontier_driver` (BFS, SSSP, CC) keeps the values in atomic cells
//!   the edge operation writes; the next frontier is what it changed.
//! - `delta_driver` (PageRank-Delta, Adsorption) pushes each active
//!   vertex's delta along its out-edges into a cell per destination, then
//!   a vertex phase adds each received delta to the value and keeps the
//!   vertex active while `|delta| > eps`.
//!
//! Each driver holds the run's one clock. It covers building the cells or
//! values, the rounds and the read-back, and nothing else.

use std::time::Instant;

use gp_algorithms::{AdsorptionParams, App, AppInputs};
use gp_graph::{CsrGraph, VertexId};

use super::atomic::{atomic_vec, snapshot};
use super::{edge_map, AtomicF64, EdgeOp, LigraConfig, LigraOutput, VertexSubset};

/// Maps `round(frontier, round_number)` from `frontier` until it empties
/// or `cfg.max_iterations` is reached; returns the rounds run.
fn rounds(
    mut frontier: VertexSubset,
    cfg: &LigraConfig,
    mut round: impl FnMut(&VertexSubset, u64) -> VertexSubset,
) -> u64 {
    let mut iterations = 0;
    while !frontier.is_empty() && iterations < cfg.max_iterations {
        iterations += 1;
        frontier = round(&frontier, iterations);
    }
    iterations
}

/// The frontier driver: one cell per vertex from `init`, and `round(cells,
/// frontier, round_number)` returns the next frontier.
fn frontier_driver(
    init: impl IntoIterator<Item = f64>,
    frontier: VertexSubset,
    cfg: &LigraConfig,
    mut round: impl FnMut(&[AtomicF64], &VertexSubset, u64) -> VertexSubset,
) -> LigraOutput {
    let start = Instant::now();
    let cells = atomic_vec(init);
    let iterations = rounds(frontier, cfg, |f, r| round(&cells, f, r));
    LigraOutput {
        values: snapshot(&cells),
        iterations,
        elapsed: start.elapsed(),
    }
}

/// The values of a rooted search: 0 at `root`, ∞ elsewhere.
fn from_root(n: usize, root: VertexId) -> impl Iterator<Item = f64> {
    (0..n).map(move |i| {
        if i == root.index() {
            0.0
        } else {
            f64::INFINITY
        }
    })
}

// ---- BFS ----

struct BfsOp<'a> {
    levels: &'a [AtomicF64],
    next_level: f64,
}

impl EdgeOp for BfsOp<'_> {
    fn update(&self, _src: VertexId, dst: VertexId, _w: f32) -> bool {
        if self.levels[dst.index()].load().is_infinite() {
            self.levels[dst.index()].store(self.next_level);
            true
        } else {
            false
        }
    }

    fn update_atomic(&self, _src: VertexId, dst: VertexId, _w: f32) -> bool {
        self.levels[dst.index()].compare_and_set(f64::INFINITY, self.next_level)
    }

    fn cond(&self, dst: VertexId) -> bool {
        self.levels[dst.index()].load().is_infinite()
    }
}

/// Breadth-first search from `root`; returns levels (∞ when unreached).
pub fn bfs(graph: &CsrGraph, root: VertexId, cfg: &LigraConfig) -> LigraOutput {
    let n = graph.num_vertices();
    let first = VertexSubset::single(n, root);
    frontier_driver(from_root(n, root), first, cfg, |levels, f, round| {
        let next_level = round as f64;
        edge_map(graph, f, &BfsOp { levels, next_level }, cfg)
    })
}

// ---- SSSP (Bellman–Ford with frontiers) ----

struct SsspOp<'a> {
    dist: &'a [AtomicF64],
}

impl EdgeOp for SsspOp<'_> {
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

/// Single-source shortest paths from `root` (frontier Bellman–Ford).
pub fn sssp(graph: &CsrGraph, root: VertexId, cfg: &LigraConfig) -> LigraOutput {
    let n = graph.num_vertices();
    let first = VertexSubset::single(n, root);
    frontier_driver(from_root(n, root), first, cfg, |dist, f, _| {
        edge_map(graph, f, &SsspOp { dist }, cfg)
    })
}

// ---- Connected Components (max-label propagation) ----

struct CcOp<'a> {
    labels: &'a [AtomicF64],
}

impl EdgeOp for CcOp<'_> {
    fn update(&self, src: VertexId, dst: VertexId, _w: f32) -> bool {
        let l = self.labels[src.index()].load();
        if l > self.labels[dst.index()].load() {
            self.labels[dst.index()].store(l);
            true
        } else {
            false
        }
    }

    fn update_atomic(&self, src: VertexId, dst: VertexId, _w: f32) -> bool {
        let l = self.labels[src.index()].load();
        self.labels[dst.index()].fetch_max(l)
    }
}

/// Connected components by max-label propagation (label = largest reaching
/// vertex id; component labels on symmetric graphs).
pub fn cc(graph: &CsrGraph, cfg: &LigraConfig) -> LigraOutput {
    let n = graph.num_vertices();
    let labels = (0..n).map(|i| i as f64);
    frontier_driver(labels, VertexSubset::all(n), cfg, |labels, f, _| {
        edge_map(graph, f, &CcOp { labels }, cfg)
    })
}

// ---- PageRank-Delta and Adsorption ----

/// Adds `share(src, weight, delta[src])` to `next[dst]`.
struct DeltaOp<'a, S> {
    delta: &'a [f64],
    next: &'a [AtomicF64],
    share: S,
}

impl<S: Fn(VertexId, f32, f64) -> f64 + Sync> EdgeOp for DeltaOp<'_, S> {
    fn update(&self, src: VertexId, dst: VertexId, w: f32) -> bool {
        // Pull: one thread per dst, but the cell is the push direction's.
        self.update_atomic(src, dst, w)
    }

    fn update_atomic(&self, src: VertexId, dst: VertexId, w: f32) -> bool {
        let share = (self.share)(src, w, self.delta[src.index()]);
        self.next[dst.index()].fetch_add(share);
        true
    }
}

/// The delta driver: values and deltas start at `init`, and every vertex
/// starts active.
fn delta_driver(
    graph: &CsrGraph,
    init: impl IntoIterator<Item = f64>,
    eps: f64,
    cfg: &LigraConfig,
    share: impl Fn(VertexId, f32, f64) -> f64 + Sync + Copy,
) -> LigraOutput {
    let n = graph.num_vertices();
    let start = Instant::now();
    let mut p: Vec<f64> = init.into_iter().collect();
    let mut delta = p.clone();
    let next = atomic_vec(std::iter::repeat_n(0.0, n));
    let iterations = rounds(VertexSubset::all(n), cfg, |frontier, _| {
        let op = DeltaOp {
            delta: &delta,
            next: &next,
            share,
        };
        let touched = edge_map(graph, frontier, &op, cfg);
        // Vertex phase: apply received deltas, threshold the next frontier.
        let mut active = Vec::new();
        touched.for_each(|v| {
            let d = next[v.index()].load();
            next[v.index()].store(0.0);
            p[v.index()] += d;
            delta[v.index()] = d;
            if d.abs() > eps {
                active.push(v.get());
            }
        });
        VertexSubset::from_sparse(n, active)
    });
    LigraOutput {
        values: p,
        iterations,
        elapsed: start.elapsed(),
    }
}

/// Contribution-based PageRank (PageRankDelta), the variant the paper uses
/// for both its software baseline and the accelerator (§VI-A).
pub fn pagerank_delta(graph: &CsrGraph, alpha: f64, eps: f64, cfg: &LigraConfig) -> LigraOutput {
    let init = std::iter::repeat_n(1.0 - alpha, graph.num_vertices());
    delta_driver(graph, init, eps, cfg, |src, _, delta| {
        let deg = graph.out_degree(src);
        debug_assert!(deg > 0, "frontier vertices have out-edges");
        alpha * delta / f64::from(deg)
    })
}

/// Adsorption label diffusion. Expects a graph whose inbound weights were
/// normalized with [`gp_algorithms::normalize_inbound`].
pub fn adsorption(
    graph: &CsrGraph,
    params: &AdsorptionParams,
    eps: f64,
    cfg: &LigraConfig,
) -> LigraOutput {
    let init = (0..graph.num_vertices()).map(|i| {
        let v = VertexId::from_index(i);
        f64::from(params.beta(v)) * f64::from(params.injection(v))
    });
    delta_driver(graph, init, eps, cfg, |src, w, delta| {
        f64::from(params.alpha(src)) * f64::from(w) * delta
    })
}

/// The rows of the application table this framework implements: Table II's
/// five. SSWP has no Ligra port.
pub const APPS: [App; 5] = App::PAPER;

/// Runs `app` on `graph` (Adsorption expects normalized inbound weights),
/// or returns `None` when `app` is not one of [`APPS`].
///
/// # Panics
///
/// Panics on [`App::Adsorption`] without [`AppInputs::adsorption`].
pub fn run(
    app: App,
    inputs: &AppInputs,
    graph: &CsrGraph,
    cfg: &LigraConfig,
) -> Option<LigraOutput> {
    Some(match app {
        App::PageRank => pagerank_delta(graph, App::DAMPING, inputs.threshold, cfg),
        App::Adsorption => {
            let params = inputs
                .adsorption
                .expect("Adsorption needs AppInputs::adsorption");
            adsorption(graph, params, inputs.threshold, cfg)
        }
        App::Sssp => sssp(graph, inputs.root, cfg),
        App::Bfs => bfs(graph, inputs.root, cfg),
        App::Cc => cc(graph, cfg),
        App::Sswp => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_algorithms::{max_abs_diff, normalize_inbound, reference};
    use gp_graph::generators::{erdos_renyi, rmat, watts_strogatz, RmatConfig, WeightMode};

    fn cfg() -> LigraConfig {
        LigraConfig {
            threads: 3,
            ..LigraConfig::default()
        }
    }

    #[test]
    fn bfs_matches_reference() {
        let g = watts_strogatz(200, 3, 0.2, WeightMode::Unweighted, 5);
        let out = bfs(&g, VertexId::new(0), &cfg());
        let golden = reference::bfs_levels(&g, VertexId::new(0));
        assert!(max_abs_diff(&out.values, &golden) < 1e-9);
        assert!(out.iterations > 1);
    }

    #[test]
    fn sssp_matches_dijkstra() {
        let g = erdos_renyi(250, 1_500, WeightMode::Uniform(1.0, 10.0), 6);
        let out = sssp(&g, VertexId::new(0), &cfg());
        let golden = reference::sssp_dijkstra(&g, VertexId::new(0));
        assert!(max_abs_diff(&out.values, &golden) < 1e-9);
    }

    #[test]
    fn cc_matches_label_propagation() {
        let g = rmat(&RmatConfig::graph500(256, 1_500), 8);
        let out = cc(&g, &cfg());
        let golden = reference::cc_labels(&g);
        assert!(max_abs_diff(&out.values, &golden) < 1e-9);
    }

    #[test]
    fn pagerank_delta_matches_power_iteration() {
        let g = erdos_renyi(300, 2_000, WeightMode::Unweighted, 7);
        let out = pagerank_delta(&g, 0.85, 1e-10, &cfg());
        let golden = reference::pagerank(&g, 0.85, 1e-12);
        assert!(max_abs_diff(&out.values, &golden) < 1e-4);
    }

    #[test]
    fn adsorption_matches_jacobi() {
        let raw = erdos_renyi(200, 1_200, WeightMode::Uniform(0.5, 2.0), 9);
        let g = normalize_inbound(&raw);
        let params = AdsorptionParams::random(200, 17);
        let out = adsorption(&g, &params, 1e-10, &cfg());
        let golden = reference::adsorption_jacobi(&g, &params, 1e-12);
        assert!(max_abs_diff(&out.values, &golden) < 1e-4);
    }

    #[test]
    fn bfs_on_disconnected_graph_leaves_infinities() {
        let mut b = gp_graph::GraphBuilder::new(4);
        b.add_edge(VertexId::new(0), VertexId::new(1), 1.0);
        let g = b.build();
        let out = bfs(&g, VertexId::new(0), &LigraConfig::sequential());
        assert_eq!(out.values[1], 1.0);
        assert!(out.values[2].is_infinite());
    }

    #[test]
    fn single_thread_and_multi_thread_agree() {
        let g = erdos_renyi(150, 900, WeightMode::Unweighted, 3);
        let a = pagerank_delta(&g, 0.85, 1e-9, &LigraConfig::sequential());
        let b = pagerank_delta(
            &g,
            0.85,
            1e-9,
            &LigraConfig {
                threads: 4,
                ..LigraConfig::default()
            },
        );
        assert!(max_abs_diff(&a.values, &b.values) < 1e-6);
    }

    #[test]
    fn run_reaches_the_listed_apps_and_agrees_with_golden() {
        let raw = erdos_renyi(120, 700, WeightMode::Uniform(0.5, 2.0), 4);
        let g = normalize_inbound(&raw);
        let params = AdsorptionParams::random(120, 8);
        let inputs = AppInputs {
            root: VertexId::new(3),
            threshold: 1e-10,
            adsorption: Some(&params),
        };
        for app in App::ALL {
            let out = run(app, &inputs, &g, &cfg());
            assert_eq!(out.is_some(), APPS.contains(&app), "{app:?}");
            if let Some(out) = out {
                let golden = app.golden_values(&inputs, &g);
                assert!(max_abs_diff(&out.values, &golden) < 1e-4, "{app:?}");
            }
        }
    }
}
