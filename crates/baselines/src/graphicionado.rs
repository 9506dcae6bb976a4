//! A Graphicionado-style BSP accelerator model (Ham et al., MICRO'16).
//!
//! Graphicionado is the hardware baseline of the paper's evaluation: a
//! pipelined vertex-centric accelerator executing bulk-synchronous
//! iterations. As in the paper (§VI-A), the model is generous to it:
//!
//! * active-vertex management is free,
//! * temporary destination updates live in unlimited on-chip memory,
//! * it gets the *same* DRAM subsystem as GraphPulse (4 × DDR3-17 GB/s).
//!
//! Per iteration the model streams, through the `gp-mem` DRAM timing
//! model: the active vertices' property lines, their edge-list lines, and
//! the changed vertices' write-back lines. Compute is pipelined at one edge
//! per cycle per stream (8 streams, like GraphPulse's 8×4 generation
//! streams ÷ 4 lanes); the iteration's latency is the slower of compute and
//! memory, plus a pipeline-drain barrier. Functionally each iteration is one
//! [`bsp_round`] — the round [`gp_algorithms::engine::run_bsp`] loops
//! over — so results validate against the golden references.

use gp_algorithms::engine::{bsp_round, bsp_state};
use gp_algorithms::DeltaAlgorithm;
use gp_graph::{CsrGraph, VertexId};
use gp_mem::{line_base, DramConfig, MemRequest, MemStats, MemorySystem, TrafficClass, LINE_BYTES};
use gp_sim::Cycle;

/// Configuration of the Graphicionado model.
#[derive(Debug, Clone)]
pub struct GraphicionadoConfig {
    /// Parallel edge-processing streams (8 in the paper's comparison).
    pub streams: usize,
    /// Accelerator clock in GHz.
    pub clock_ghz: f64,
    /// Pipeline-drain overhead charged at every iteration barrier, cycles.
    pub barrier_overhead: u64,
    /// Fraction of the shorter of (compute, memory) hidden under the
    /// longer one. Real pipelines overlap the phases imperfectly — stream
    /// imbalance and channel contention leave a tail; 1.0 would be the
    /// ideal dataflow machine.
    pub overlap_efficiency: f64,
    /// Bytes per vertex property.
    pub vertex_bytes: u32,
    /// Bytes per edge record (doubled automatically on weighted graphs).
    pub edge_bytes: u32,
    /// DRAM model configuration (identical to GraphPulse's by default).
    pub dram: DramConfig,
    /// Safety cap on iterations.
    pub max_iterations: u64,
}

impl Default for GraphicionadoConfig {
    fn default() -> Self {
        GraphicionadoConfig {
            streams: 8,
            clock_ghz: 1.0,
            barrier_overhead: 64,
            overlap_efficiency: 0.7,
            vertex_bytes: 8,
            edge_bytes: 4,
            dram: DramConfig::paper(),
            max_iterations: 1_000_000,
        }
    }
}

/// Result of a Graphicionado run.
#[derive(Debug, Clone)]
pub struct GraphicionadoOutput {
    /// Final vertex values projected to `f64`.
    pub values: Vec<f64>,
    /// BSP iterations executed.
    pub iterations: u64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Simulated seconds at the configured clock.
    pub seconds: f64,
    /// Edges processed across all iterations.
    pub edges_processed: u64,
    /// Off-chip traffic statistics.
    pub memory: MemStats,
}

/// Runs `algo` on `graph` under the Graphicionado model.
///
/// # Panics
///
/// Panics if the DRAM configuration is invalid or work is still pending
/// after `max_iterations` rounds (BSP rounds of the bundled algorithms
/// always terminate). A run whose last round is the cap-th is not refused.
pub fn run<A: DeltaAlgorithm>(
    graph: &CsrGraph,
    algo: &A,
    cfg: &GraphicionadoConfig,
) -> GraphicionadoOutput {
    let n = graph.num_vertices();
    let edge_bytes = if graph.is_weighted() {
        cfg.edge_bytes * 2
    } else {
        cfg.edge_bytes
    };
    let vertex_base = 0u64;
    let edge_base = {
        let end = vertex_base + n as u64 * u64::from(cfg.vertex_bytes);
        end.div_ceil(LINE_BYTES) * LINE_BYTES
    };
    let mut mem = MemorySystem::new(cfg.dram);
    let mut now = Cycle::ZERO;

    // Functional BSP state: the same rounds as `run_bsp`.
    let (mut values, mut current) = bsp_state(algo, graph);
    let mut iterations = 0u64;
    let mut edges_processed = 0u64;

    loop {
        let active: Vec<u32> = (0..n as u32)
            .filter(|&v| current[v as usize].is_some())
            .collect();
        if active.is_empty() {
            break;
        }
        assert!(
            iterations < cfg.max_iterations,
            "graphicionado hit the iteration cap with work pending"
        );
        iterations += 1;

        // ---- functional phase (apply + scatter into on-chip temp) ----
        let active_edges = bsp_round(algo, graph, &mut values, &mut current).active_edges;
        edges_processed += active_edges;

        // ---- timing phase: stream the iteration's off-chip traffic ----
        // Reads: active vertices' property lines + their edge-list lines;
        // writes: the same vertices' property lines (each applied a delta).
        let mut requests: Vec<MemRequest> = Vec::new();
        push_vertex_lines(
            &mut requests,
            &active,
            vertex_base,
            cfg.vertex_bytes,
            TrafficClass::VertexRead,
        );
        let mut prev_line = u64::MAX;
        for &u in &active {
            let uid = VertexId::new(u);
            let degree = graph.out_degree(uid);
            if degree == 0 {
                continue;
            }
            let start = edge_base + graph.out_edge_base(uid) as u64 * u64::from(edge_bytes);
            let bytes = u64::from(degree) * u64::from(edge_bytes);
            for line in gp_mem::prefetch::lines_covering(start, bytes) {
                if line == prev_line {
                    continue; // adjacent lists share a line
                }
                prev_line = line;
                let useful = (start.max(line) + bytes.min(LINE_BYTES)).min(line + LINE_BYTES)
                    - start.max(line);
                requests.push(
                    MemRequest::read(line, LINE_BYTES as u32, TrafficClass::EdgeRead)
                        .with_useful_bytes((useful.clamp(1, LINE_BYTES)) as u32),
                );
            }
        }
        // Apply phase: committing the on-chip temp values to the property
        // array is a read-modify-write of every updated vertex (the
        // unlimited-temp grant covers the scatter side only).
        push_vertex_lines(
            &mut requests,
            &active,
            vertex_base,
            cfg.vertex_bytes,
            TrafficClass::VertexRead,
        );
        push_vertex_lines(
            &mut requests,
            &active,
            vertex_base,
            cfg.vertex_bytes,
            TrafficClass::VertexWrite,
        );

        let mem_start = now;
        let mut queue = requests.into_iter().peekable();
        let mut outstanding = 0usize;
        while queue.peek().is_some() || outstanding > 0 {
            while let Some(req) = queue.peek() {
                if mem.can_accept(req.addr()) {
                    let req = queue.next().expect("peeked");
                    mem.request(now, req).expect("can_accept checked");
                    outstanding += 1;
                } else {
                    break;
                }
            }
            mem.tick(now);
            while mem.pop_completion(now).is_some() {
                outstanding -= 1;
            }
            now = now.next();
        }
        let mem_cycles = now - mem_start;

        // The pipeline overlaps compute with the memory streams, but not
        // perfectly: a (1 - overlap_efficiency) tail of the shorter phase
        // remains exposed. The iteration then pays the barrier drain.
        let compute_cycles = active_edges.div_ceil(cfg.streams.max(1) as u64);
        let eta = cfg.overlap_efficiency.clamp(0.0, 1.0);
        let longer = compute_cycles.max(mem_cycles);
        let shorter = compute_cycles.min(mem_cycles);
        let charged = longer + ((1.0 - eta) * shorter as f64) as u64;
        now += charged - mem_cycles.min(charged);
        now += cfg.barrier_overhead;
    }

    GraphicionadoOutput {
        values: values.into_iter().map(|v| algo.value_to_f64(v)).collect(),
        iterations,
        cycles: now.get(),
        seconds: now.get() as f64 / (cfg.clock_ghz * 1e9),
        edges_processed,
        memory: mem.stats().clone(),
    }
}

/// Queues reads/writes for the property lines of `vertices` (deduplicated
/// per line, with per-line useful-byte accounting).
fn push_vertex_lines(
    requests: &mut Vec<MemRequest>,
    vertices: &[u32],
    vertex_base: u64,
    vertex_bytes: u32,
    class: TrafficClass,
) {
    let mut i = 0;
    while i < vertices.len() {
        let line = line_base(vertex_base + u64::from(vertices[i]) * u64::from(vertex_bytes));
        let mut on_line = 0u32;
        while i < vertices.len()
            && line_base(vertex_base + u64::from(vertices[i]) * u64::from(vertex_bytes)) == line
        {
            on_line += 1;
            i += 1;
        }
        let useful = (on_line * vertex_bytes).min(LINE_BYTES as u32);
        let req = if matches!(class, TrafficClass::VertexWrite) {
            MemRequest::write(line, LINE_BYTES as u32, class)
        } else {
            MemRequest::read(line, LINE_BYTES as u32, class)
        };
        requests.push(req.with_useful_bytes(useful));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_algorithms::{max_abs_diff, reference, Bfs, ConnectedComponents, PageRankDelta, Sssp};
    use gp_graph::generators::{erdos_renyi, rmat, RmatConfig, WeightMode};

    #[test]
    fn pagerank_matches_reference() {
        let g = rmat(&RmatConfig::graph500(256, 2_000), 3);
        let out = run(
            &g,
            &PageRankDelta::new(0.85, 1e-9),
            &GraphicionadoConfig::default(),
        );
        let golden = reference::pagerank(&g, 0.85, 1e-11);
        assert!(max_abs_diff(&out.values, &golden) < 1e-4);
        assert!(out.iterations > 3);
        assert!(out.cycles > 0);
        assert!(out.memory.total_bytes() > 0);
    }

    #[test]
    fn sssp_matches_dijkstra() {
        let g = erdos_renyi(200, 1_200, WeightMode::Uniform(1.0, 8.0), 5);
        let out = run(
            &g,
            &Sssp::new(VertexId::new(0)),
            &GraphicionadoConfig::default(),
        );
        let golden = reference::sssp_dijkstra(&g, VertexId::new(0));
        assert!(max_abs_diff(&out.values, &golden) < 1e-6);
    }

    /// A cap equal to the rounds a run needs is enough: the last round may
    /// be the cap-th, and the run is the uncapped one.
    #[test]
    fn a_run_converging_at_the_cap_is_not_refused() {
        let g = erdos_renyi(200, 1_200, WeightMode::Uniform(1.0, 8.0), 5);
        let algo = Sssp::new(VertexId::new(0));
        let free = run(&g, &algo, &GraphicionadoConfig::default());
        assert_eq!(free.iterations, 9);
        let capped = GraphicionadoConfig {
            max_iterations: free.iterations,
            ..Default::default()
        };
        let out = run(&g, &algo, &capped);
        assert_eq!(out.values, free.values);
        assert_eq!(
            (out.iterations, out.cycles, out.edges_processed),
            (free.iterations, free.cycles, free.edges_processed)
        );
    }

    #[test]
    #[should_panic(expected = "graphicionado hit the iteration cap with work pending")]
    fn a_run_cut_short_by_the_cap_panics() {
        let g = erdos_renyi(200, 1_200, WeightMode::Uniform(1.0, 8.0), 5);
        let capped = GraphicionadoConfig {
            max_iterations: 8,
            ..Default::default()
        };
        run(&g, &Sssp::new(VertexId::new(0)), &capped);
    }

    #[test]
    fn bfs_and_cc_complete() {
        let g = erdos_renyi(150, 700, WeightMode::Unweighted, 8);
        let bfs = run(
            &g,
            &Bfs::new(VertexId::new(0)),
            &GraphicionadoConfig::default(),
        );
        assert!(max_abs_diff(&bfs.values, &reference::bfs_levels(&g, VertexId::new(0))) < 1e-9);
        let cc = run(
            &g,
            &ConnectedComponents::new(),
            &GraphicionadoConfig::default(),
        );
        assert!(max_abs_diff(&cc.values, &reference::cc_labels(&g)) < 1e-9);
    }

    #[test]
    fn imperfect_overlap_costs_time() {
        let g = rmat(&RmatConfig::graph500(256, 2_000), 4);
        let ideal = run(
            &g,
            &PageRankDelta::new(0.85, 1e-6),
            &GraphicionadoConfig {
                overlap_efficiency: 1.0,
                ..Default::default()
            },
        );
        let real = run(
            &g,
            &PageRankDelta::new(0.85, 1e-6),
            &GraphicionadoConfig {
                overlap_efficiency: 0.5,
                ..Default::default()
            },
        );
        assert!(real.cycles > ideal.cycles);
        assert_eq!(real.values, ideal.values);
    }

    #[test]
    fn more_streams_do_not_slow_it_down() {
        let g = rmat(&RmatConfig::graph500(256, 2_000), 4);
        let slow = run(
            &g,
            &PageRankDelta::new(0.85, 1e-6),
            &GraphicionadoConfig {
                streams: 1,
                ..Default::default()
            },
        );
        let fast = run(
            &g,
            &PageRankDelta::new(0.85, 1e-6),
            &GraphicionadoConfig {
                streams: 16,
                ..Default::default()
            },
        );
        assert!(fast.cycles <= slow.cycles);
    }

    #[test]
    fn empty_graph_finishes_instantly() {
        let g = gp_graph::GraphBuilder::new(0).build();
        let out = run(
            &g,
            &ConnectedComponents::new(),
            &GraphicionadoConfig::default(),
        );
        assert_eq!(out.iterations, 0);
        assert!(out.values.is_empty());
    }
}
