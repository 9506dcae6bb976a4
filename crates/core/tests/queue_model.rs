//! Model-based property tests of the coalescing event queue: a random
//! sequence of timed insertions and drains must behave exactly like a
//! reference map-of-pending-deltas, regardless of hazards, stalls, and
//! sweep position.
//!
//! The queue internals are crate-private, so the model is driven through
//! the public machine: we compare the accelerator's *functional* outcome
//! and event accounting against the sequential golden engine on adversarial
//! graph shapes that stress specific queue behaviors.
//!
//! Randomized cases are driven by the workspace's deterministic
//! [`gp_graph::rng::StdRng`], so every run exercises the same inputs.

use gp_algorithms::engine::run_sequential;
use gp_algorithms::{max_abs_diff, ConnectedComponents, PageRankDelta, Sssp};
use gp_graph::generators::{barabasi_albert, erdos_renyi, WeightMode};
use gp_graph::rng::{Rng, StdRng};
use gp_graph::{CsrGraph, GraphBuilder, VertexId};
use graphpulse_core::{AcceleratorConfig, GraphPulse, QueueConfig};

/// Machines whose queue geometry is adversarial: single-column rows (every
/// event its own drain), single bin (maximum insertion contention), wide
/// rows, or tiny total capacity (forced slicing).
fn queue_shapes() -> Vec<QueueConfig> {
    vec![
        QueueConfig {
            bins: 1,
            rows: 256,
            cols: 1,
        },
        QueueConfig {
            bins: 1,
            rows: 16,
            cols: 16,
        },
        QueueConfig {
            bins: 8,
            rows: 32,
            cols: 1,
        },
        QueueConfig {
            bins: 2,
            rows: 2,
            cols: 8,
        }, // 32 slots: heavy slicing
    ]
}

fn machine(queue: QueueConfig) -> GraphPulse {
    let mut cfg = AcceleratorConfig::small_test();
    cfg.queue = queue;
    cfg.input_buffer = cfg.input_buffer.max(queue.cols);
    GraphPulse::new(cfg)
}

/// A star graph: one hub pointing at all spokes and back — the worst case
/// for same-slot coalescing contention.
fn star(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge(VertexId::new(0), VertexId::from_index(i), 1.0);
        b.add_edge(VertexId::from_index(i), VertexId::new(0), 1.0);
    }
    b.build()
}

#[test]
fn star_graph_coalesces_into_the_hub_slot() {
    for queue in queue_shapes() {
        let g = star(40);
        let out = machine(queue)
            .run(&g, &PageRankDelta::new(0.85, 1e-8))
            .expect("run");
        let golden = run_sequential(&PageRankDelta::new(0.85, 1e-8), &g);
        assert!(
            max_abs_diff(&out.values, &golden.values) < 1e-3,
            "queue {queue:?} diverged"
        );
        // All spoke->hub events inside one round coalesce into one slot.
        assert!(
            out.report.events_coalesced > 0,
            "queue {queue:?} never coalesced"
        );
    }
}

#[test]
fn chain_graph_survives_single_column_rows() {
    // A long path: exactly one event in flight at a time; sweeps must not
    // skip or double-deliver it.
    let n = 200;
    let mut b = GraphBuilder::new(n);
    for i in 0..n - 1 {
        b.add_edge(VertexId::from_index(i), VertexId::from_index(i + 1), 1.0);
    }
    let g = b.build();
    for queue in queue_shapes() {
        let out = machine(queue)
            .run(&g, &Sssp::new(VertexId::new(0)))
            .expect("run");
        let golden = gp_algorithms::reference::sssp_dijkstra(&g, VertexId::new(0));
        assert!(max_abs_diff(&out.values, &golden) < 1e-9, "queue {queue:?}");
        // One event per vertex, no coalescing opportunities on a path.
        assert_eq!(out.report.events_coalesced, 0, "queue {queue:?}");
        assert_eq!(out.report.events_processed, n as u64, "queue {queue:?}");
    }
}

#[test]
fn random_graphs_agree_across_queue_shapes() {
    let mut rng = StdRng::seed_from_u64(0xE1);
    for _ in 0..10 {
        let n = rng.gen_range(4..50usize);
        let seed = rng.next_u64();
        let shape = rng.gen_range(0..4usize);
        let g = erdos_renyi(n, n * 3, WeightMode::Unweighted, seed);
        let queue = queue_shapes()[shape];
        let algo = ConnectedComponents::new();
        let out = machine(queue).run(&g, &algo).expect("run");
        let golden = run_sequential(&algo, &g);
        assert!(max_abs_diff(&out.values, &golden.values) < 1e-9);
        assert_eq!(
            out.report.events_generated,
            out.report.events_processed + out.report.events_coalesced
        );
    }
}

#[test]
fn event_conservation_check_passes_strict_on_single_machines() {
    for queue in queue_shapes() {
        let g = erdos_renyi(60, 240, WeightMode::Uniform(1.0, 4.0), 0x11);
        let algo = Sssp::new(VertexId::new(0));
        let out = machine(queue).run(&g, &algo).expect("run");
        out.report
            .check_event_conservation()
            .expect("sequential/sliced runs balance exactly");
    }
}

#[test]
fn hub_heavy_graphs_agree_across_queue_shapes() {
    let mut rng = StdRng::seed_from_u64(0xE2);
    for _ in 0..10 {
        let n = rng.gen_range(6..40usize);
        let seed = rng.next_u64();
        let shape = rng.gen_range(0..4usize);
        let g = barabasi_albert(n, 2, WeightMode::Unweighted, seed);
        let queue = queue_shapes()[shape];
        let algo = PageRankDelta::new(0.85, 1e-8);
        let out = machine(queue).run(&g, &algo).expect("run");
        let golden = run_sequential(&algo, &g);
        assert!(max_abs_diff(&out.values, &golden.values) < 1e-3);
    }
}
