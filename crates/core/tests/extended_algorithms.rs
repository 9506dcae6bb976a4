//! The accelerator runs the workspace's two extensions beyond the paper's
//! five apps: SSWP (max-min semiring; a row of the application table) and
//! personalized PageRank (`gpulse --app ppr`), each validated against its
//! classic reference.

use gp_algorithms::{max_abs_diff, reference, PageRankDelta, Sswp};
use gp_graph::generators::{erdos_renyi, WeightMode};
use gp_graph::VertexId;
use graphpulse_core::{AcceleratorConfig, GraphPulse, QueueConfig};

fn accel() -> GraphPulse {
    let mut cfg = AcceleratorConfig::small_test();
    cfg.queue = QueueConfig {
        bins: 4,
        rows: 32,
        cols: 8,
    };
    GraphPulse::new(cfg)
}

#[test]
fn sswp_matches_widest_path_reference() {
    let g = erdos_renyi(180, 1_100, WeightMode::Uniform(1.0, 10.0), 6);
    let root = VertexId::new(0);
    let out = accel().run(&g, &Sswp::new(root)).expect("run");
    let golden = reference::sswp_widest(&g, root);
    assert!(max_abs_diff(&out.values, &golden) < 1e-6);
    // max-coalescing applies here exactly as for CC.
    assert!(out.report.events_generated > 0);
}

#[test]
fn personalized_pagerank_on_the_accelerator() {
    let g = erdos_renyi(200, 1_200, WeightMode::Unweighted, 9);
    let sources = [VertexId::new(7)];
    let pr = PageRankDelta::personalized(0.85, 1e-9, 200, &sources);
    let out = accel().run(&g, &pr).expect("run");
    let golden = reference::personalized_pagerank(&g, 0.85, &sources, 1e-12);
    assert!(max_abs_diff(&out.values, &golden) < 1e-4);
    // Only the seed receives an initial event; everything else flows from it.
    let max = out.values.iter().cloned().fold(0.0f64, f64::max);
    assert_eq!(out.values[7], max, "seed vertex must dominate");
}

#[test]
fn sswp_survives_slicing() {
    let g = erdos_renyi(300, 1_800, WeightMode::Uniform(1.0, 8.0), 3);
    let mut cfg = AcceleratorConfig::small_test();
    cfg.queue = QueueConfig {
        bins: 4,
        rows: 4,
        cols: 8,
    }; // 128 slots → slices
    let out = GraphPulse::new(cfg)
        .run(&g, &Sswp::new(VertexId::new(0)))
        .expect("run");
    assert!(out.report.slices > 1);
    let golden = reference::sswp_widest(&g, VertexId::new(0));
    assert!(max_abs_diff(&out.values, &golden) < 1e-6);
}
