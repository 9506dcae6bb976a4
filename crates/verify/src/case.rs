//! Random, fully seed-determined test cases.
//!
//! A [`TestCase`] is a plain-data description of one differential-oracle
//! run: an explicit edge list (so the shrinker can delete edges one by
//! one), the algorithm under test, an insert/delete update stream, and a
//! compact machine description. Everything derives from a single `u64`
//! seed via [`generate`], so a case can be reproduced from its seed alone
//! — and reconstructed verbatim from the literal the shrinker prints.

use gp_algorithms::{normalize_inbound, App};
use gp_graph::generators::{barabasi_albert, erdos_renyi, rmat, RmatConfig, WeightMode};
use gp_graph::rng::{Rng, StdRng};
use gp_graph::{CsrGraph, EdgeUpdate, GraphBuilder, OverlayGraph, VertexId};
use gp_stream::UpdateStream;
use graphpulse_core::{AcceleratorConfig, ParallelConfig, QueueConfig, SchedulingPolicy};

/// A compact, shrink-stable machine description, expanded to a full
/// [`AcceleratorConfig`] by [`MachineParams::to_config`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineParams {
    /// Event processors.
    pub processors: usize,
    /// Generation streams per processor.
    pub gen_streams: usize,
    /// Queue bins.
    pub queue_bins: usize,
    /// Queue rows per bin.
    pub queue_rows: usize,
    /// Queue slots per row.
    pub queue_cols: usize,
    /// Coalescer pipeline depth.
    pub coalescer_depth: u64,
    /// Scratchpad prefetcher on/off.
    pub prefetch: bool,
    /// `true` = occupancy-first bin draining, `false` = round-robin.
    pub occupancy_first: bool,
    /// `true` = single-channel DRAM, `false` = the paper's 4 channels.
    pub single_channel_dram: bool,
    /// Epoch length of the shard-parallel runner.
    pub epoch_cycles: u64,
    /// Forced shard count for the parallel runner (`0` = derive).
    pub forced_shards: usize,
}

impl MachineParams {
    /// Expands to a validated full configuration.
    pub fn to_config(&self) -> AcceleratorConfig {
        let queue = QueueConfig {
            bins: self.queue_bins,
            rows: self.queue_rows,
            cols: self.queue_cols,
        };
        let cfg = AcceleratorConfig {
            processors: self.processors,
            gen_streams: self.gen_streams,
            queue,
            coalescer_depth: self.coalescer_depth,
            input_buffer: queue.cols * 2,
            prefetch: self.prefetch,
            scheduling: if self.occupancy_first {
                SchedulingPolicy::OccupancyFirst
            } else {
                SchedulingPolicy::RoundRobin
            },
            dram: if self.single_channel_dram {
                gp_mem::DramConfig::single_channel()
            } else {
                gp_mem::DramConfig::paper()
            },
            parallel: ParallelConfig {
                workers: 1,
                epoch_cycles: self.epoch_cycles,
                shards: self.forced_shards,
            },
            ..AcceleratorConfig::small_test()
        };
        cfg.validate().expect("generated machine must be valid");
        cfg
    }
}

/// One self-contained differential-oracle input.
#[derive(Debug, Clone)]
pub struct TestCase {
    /// Vertex count (edges/updates referencing `>= vertices` are dropped
    /// when the graph is built, which keeps shrinking trivially sound).
    pub vertices: usize,
    /// Explicit directed edge list `(src, dst, weight)`.
    pub edges: Vec<(u32, u32, f32)>,
    /// Algorithm under test.
    pub algo: App,
    /// Root vertex for SSSP/BFS (clamped into range at build time).
    pub root: u32,
    /// Seed for auxiliary randomness that must survive shrinking unchanged
    /// (Adsorption parameters, metamorphic permutations).
    pub aux_seed: u64,
    /// Insert/delete stream applied in chunks of [`TestCase::batch_size`].
    pub updates: Vec<EdgeUpdate>,
    /// Update-batch granularity for the incremental leg.
    pub batch_size: usize,
    /// Machine description.
    pub machine: MachineParams,
}

impl TestCase {
    /// Builds the case's graph: out-of-range endpoints and self loops are
    /// dropped, parallel edges deduplicated, and — for Adsorption — inbound
    /// weights normalized (the algorithm's precondition).
    pub fn build_graph(&self) -> CsrGraph {
        let n = self.vertices.max(1);
        let mut b = GraphBuilder::new(n);
        b.weighted(self.algo.weighted());
        for &(s, d, w) in &self.edges {
            if s != d && (s as usize) < n && (d as usize) < n {
                b.add_edge(VertexId::new(s), VertexId::new(d), w);
            }
        }
        let g = b.build();
        if self.algo == App::Adsorption {
            normalize_inbound(&g)
        } else {
            g
        }
    }

    /// The case's root, clamped into the built graph's vertex range.
    pub fn clamped_root(&self) -> VertexId {
        VertexId::new(self.root.min(self.vertices.max(1) as u32 - 1))
    }

    /// Updates restricted to endpoints `< vertices`, in batch-sized chunks.
    pub fn update_batches(&self) -> Vec<Vec<EdgeUpdate>> {
        let n = self.vertices.max(1) as u32;
        let in_range = |u: &EdgeUpdate| match *u {
            EdgeUpdate::Insert { src, dst, .. } | EdgeUpdate::Delete { src, dst } => {
                src.get() < n && dst.get() < n && src != dst
            }
        };
        let filtered: Vec<EdgeUpdate> = self
            .updates
            .iter()
            .filter(|u| in_range(u))
            .copied()
            .collect();
        filtered
            .chunks(self.batch_size.max(1))
            .map(<[EdgeUpdate]>::to_vec)
            .collect()
    }
}

/// Extracts a graph's edge list in deterministic (CSR) order.
fn edge_list(g: &CsrGraph) -> Vec<(u32, u32, f32)> {
    let mut edges = Vec::with_capacity(g.num_edges());
    for v in g.vertices() {
        for e in g.out_edges(v) {
            edges.push((v.get(), e.other.get(), e.weight));
        }
    }
    edges
}

/// Generates the test case fully determined by `seed`.
pub fn generate(seed: u64) -> TestCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let algo = App::ALL[rng.gen_range(0..App::ALL.len())];
    let n = rng.gen_range(8..64usize);
    let m = n * rng.gen_range(2..6usize);
    let weights = if algo.weighted() {
        WeightMode::Uniform(0.5, 4.0)
    } else {
        WeightMode::Unweighted
    };
    let graph_seed = rng.next_u64();
    let graph = match rng.gen_range(0..3usize) {
        // R-MAT: the paper's synthetic-input family.
        0 => rmat(
            &RmatConfig::graph500(n, m).with_weights(weights),
            graph_seed,
        ),
        // Degree-skewed preferential attachment.
        1 => barabasi_albert(n, (m / n).clamp(1, n - 1), weights, graph_seed),
        // Uniform as a control.
        _ => erdos_renyi(n, m, weights, graph_seed),
    };

    let machine = MachineParams {
        processors: rng.gen_range(1..4usize),
        gen_streams: rng.gen_range(1..4usize),
        queue_bins: 1 << rng.gen_range(0..3u32),
        queue_rows: rng.gen_range(4..32usize),
        queue_cols: 1 << rng.gen_range(0..4u32),
        coalescer_depth: rng.gen_range(1..6u64),
        prefetch: rng.gen_bool(0.5),
        occupancy_first: rng.gen_bool(0.5),
        single_channel_dram: rng.gen_bool(0.5),
        epoch_cycles: [32, 128, 1024][rng.gen_range(0..3usize)],
        forced_shards: rng.gen_range(0..4usize),
    };

    // Draw the update stream against an overlay that tracks the applied
    // prefix, so deletes mostly hit edges that actually exist.
    let batch_size = rng.gen_range(4..17usize);
    let batches = rng.gen_range(1..4usize);
    let mut stream = UpdateStream::new(n, 0.3, weights, rng.next_u64());
    let mut probe = OverlayGraph::new(graph.clone());
    let mut updates = Vec::new();
    for _ in 0..batches {
        let batch = stream.next_batch(&probe, batch_size);
        probe.apply(&batch);
        updates.extend(batch);
    }

    let root = rng.gen_range(0..n as u32);
    TestCase {
        vertices: n,
        edges: edge_list(&graph),
        algo,
        root,
        aux_seed: rng.next_u64(),
        updates,
        batch_size,
        machine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..20u64 {
            let a = generate(seed);
            let b = generate(seed);
            assert_eq!(a.edges, b.edges);
            assert_eq!(a.machine, b.machine);
            assert_eq!(a.updates.len(), b.updates.len());
            assert_eq!(a.build_graph(), b.build_graph());
        }
    }

    #[test]
    fn generated_graphs_and_configs_are_valid() {
        for seed in 0..40u64 {
            let c = generate(seed);
            let g = c.build_graph();
            g.check_invariants().unwrap();
            assert_eq!(g.num_vertices(), c.vertices);
            assert_eq!(g.is_weighted(), c.algo.weighted());
            c.machine.to_config().validate().unwrap();
            assert!(c.clamped_root().index() < c.vertices);
        }
    }

    #[test]
    fn all_algorithms_and_graph_families_appear() {
        let mut seen = [false; 6];
        for seed in 0..64u64 {
            let c = generate(seed);
            let idx = App::ALL.iter().position(|&k| k == c.algo).unwrap();
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn update_batches_respect_vertex_range() {
        let mut c = generate(3);
        c.vertices = 4; // shrink-style truncation
        for batch in c.update_batches() {
            for u in batch {
                match u {
                    EdgeUpdate::Insert { src, dst, .. } | EdgeUpdate::Delete { src, dst } => {
                        assert!(src.get() < 4 && dst.get() < 4);
                    }
                }
            }
        }
    }
}
