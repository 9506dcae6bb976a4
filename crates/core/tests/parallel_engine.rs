//! Tests of the shard-parallel execution engine: bit-determinism across
//! worker counts (the engine's core guarantee), differential equivalence
//! against the golden reference solvers on seeded random graphs, and the
//! exact event ledger of a merged report.

use gp_algorithms::{max_abs_diff, reference, Bfs, ConnectedComponents, PageRankDelta, Sssp};
use gp_graph::generators::{erdos_renyi, rmat, RmatConfig, WeightMode};
use gp_graph::rng::{Rng, StdRng};
use gp_graph::{CsrGraph, VertexId};
use graphpulse_core::{AcceleratorConfig, GraphPulse, ParallelChaos, ParallelOutcome, QueueConfig};

/// A small machine whose queue holds 64 vertices per slice, so even tiny
/// graphs split into several shards.
fn sharded_config(workers: usize) -> AcceleratorConfig {
    let mut cfg = AcceleratorConfig::small_test();
    cfg.queue = QueueConfig {
        bins: 2,
        rows: 4,
        cols: 8,
    }; // 64 slots
    cfg.input_buffer = 16;
    cfg.parallel.workers = workers;
    cfg.parallel.epoch_cycles = 64;
    cfg
}

fn run_workers(
    graph: &CsrGraph,
    workers: usize,
    run: impl Fn(&GraphPulse, &CsrGraph) -> ParallelOutcome,
) -> ParallelOutcome {
    let accel = GraphPulse::new(sharded_config(workers));
    run(&accel, graph)
}

/// Exact bit-comparison of two parallel outcomes.
fn assert_bit_identical(a: &ParallelOutcome, b: &ParallelOutcome) {
    let abits: Vec<u64> = a.values.iter().map(|v| v.to_bits()).collect();
    let bbits: Vec<u64> = b.values.iter().map(|v| v.to_bits()).collect();
    assert_eq!(abits, bbits, "vertex values differ between worker counts");
    assert_eq!(a.report.cycles, b.report.cycles, "cycle counts differ");
    assert_eq!(a.report.rounds, b.report.rounds);
    assert_eq!(a.report.events_processed, b.report.events_processed);
    assert_eq!(a.report.events_generated, b.report.events_generated);
    assert_eq!(a.report.events_coalesced, b.report.events_coalesced);
    assert_eq!(a.report.events_spilled, b.report.events_spilled);
    assert_eq!(a.epochs, b.epochs);
    assert_eq!(a.shards, b.shards);
    assert_eq!(a.shard_ticks, b.shard_ticks, "per-shard work differs");
}

#[test]
fn determinism_across_1_2_4_workers() {
    let g = rmat(&RmatConfig::graph500(512, 4_096), 77);
    let algo = PageRankDelta::new(0.85, 1e-6);
    let outs: Vec<ParallelOutcome> = [1usize, 2, 4]
        .iter()
        .map(|&w| run_workers(&g, w, |a, g| a.run_parallel(g, &algo).expect("run")))
        .collect();
    assert!(outs[0].shards > 1, "test graph must span multiple shards");
    assert!(
        outs[0].report.events_spilled > 0,
        "expected cross-shard events"
    );
    assert_bit_identical(&outs[0], &outs[1]);
    assert_bit_identical(&outs[0], &outs[2]);
}

#[test]
fn determinism_holds_for_exact_algorithms_too() {
    let g = erdos_renyi(400, 2_400, WeightMode::Uniform(1.0, 9.0), 13);
    let algo = Sssp::new(VertexId::new(0));
    let a = run_workers(&g, 1, |a, g| a.run_parallel(g, &algo).expect("run"));
    let b = run_workers(&g, 4, |a, g| a.run_parallel(g, &algo).expect("run"));
    assert_bit_identical(&a, &b);
}

#[test]
fn parallel_pagerank_matches_reference_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(0xA1);
    for case in 0..6 {
        let n = rng.gen_range(64..400usize);
        let seed = rng.next_u64();
        let g = if case % 2 == 0 {
            rmat(&RmatConfig::graph500(n, n * 6), seed)
        } else {
            erdos_renyi(n, n * 6, WeightMode::Unweighted, seed)
        };
        let algo = PageRankDelta::new(0.85, 1e-9);
        let out = run_workers(&g, 3, |a, g| a.run_parallel(g, &algo).expect("run"));
        let golden = reference::pagerank(&g, 0.85, 1e-12);
        assert!(
            max_abs_diff(&out.values, &golden) < 1e-4,
            "case {case}: parallel PageRank diverged from reference"
        );
    }
}

#[test]
fn parallel_sssp_matches_dijkstra_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(0xA2);
    for case in 0..6 {
        let n = rng.gen_range(64..300usize);
        let seed = rng.next_u64();
        let g = erdos_renyi(n, n * 5, WeightMode::Uniform(1.0, 9.0), seed);
        let algo = Sssp::new(VertexId::new(0));
        let out = run_workers(&g, 2, |a, g| a.run_parallel(g, &algo).expect("run"));
        let golden = reference::sssp_dijkstra(&g, VertexId::new(0));
        assert!(
            max_abs_diff(&out.values, &golden) < 1e-6,
            "case {case}: parallel SSSP diverged from Dijkstra"
        );
    }
}

#[test]
fn parallel_bfs_matches_reference_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(0xA3);
    for case in 0..6 {
        let n = rng.gen_range(64..300usize);
        let seed = rng.next_u64();
        let g = rmat(&RmatConfig::graph500(n, n * 4), seed);
        let algo = Bfs::new(VertexId::new(0));
        let out = run_workers(&g, 4, |a, g| a.run_parallel(g, &algo).expect("run"));
        let golden = reference::bfs_levels(&g, VertexId::new(0));
        assert!(
            max_abs_diff(&out.values, &golden) < 1e-9,
            "case {case}: parallel BFS diverged from reference"
        );
    }
}

#[test]
fn parallel_cc_matches_reference_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(0xA4);
    for case in 0..6 {
        let n = rng.gen_range(64..300usize);
        let seed = rng.next_u64();
        let g = erdos_renyi(n, n * 4, WeightMode::Unweighted, seed);
        let algo = ConnectedComponents::new();
        let out = run_workers(&g, 2, |a, g| a.run_parallel(g, &algo).expect("run"));
        let golden = reference::cc_labels(&g);
        assert!(
            max_abs_diff(&out.values, &golden) < 1e-9,
            "case {case}: parallel CC diverged from reference"
        );
    }
}

#[test]
fn parallel_matches_sequential_engine_functionally() {
    let g = rmat(&RmatConfig::graph500(256, 2_048), 5);
    let algo = PageRankDelta::new(0.85, 1e-8);
    let par = run_workers(&g, 4, |a, g| a.run_parallel(g, &algo).expect("run"));
    let seq = GraphPulse::new(sharded_config(1))
        .run(&g, &algo)
        .expect("run");
    assert!(max_abs_diff(&par.values, &seq.values) < 1e-4);
}

#[test]
fn single_shard_graph_runs_in_parallel_mode() {
    let g = erdos_renyi(48, 200, WeightMode::Unweighted, 9);
    let mut cfg = AcceleratorConfig::small_test();
    cfg.parallel.workers = 4; // more workers than shards: clamped
    let out = GraphPulse::new(cfg)
        .run_parallel(&g, &PageRankDelta::new(0.85, 1e-7))
        .expect("run");
    assert_eq!(out.shards, 1);
    let golden = reference::pagerank(&g, 0.85, 1e-12);
    assert!(max_abs_diff(&out.values, &golden) < 1e-4);
}

#[test]
fn empty_graph_parallel_run_terminates() {
    let g = gp_graph::GraphBuilder::new(0).build();
    let out = GraphPulse::new(AcceleratorConfig::small_test())
        .run_parallel(&g, &PageRankDelta::new(0.85, 1e-4))
        .expect("run");
    assert!(out.values.is_empty());
    assert_eq!(out.shards, 0);
}

#[test]
fn forced_shard_count_is_respected() {
    let g = erdos_renyi(256, 1_500, WeightMode::Unweighted, 21);
    let mut cfg = AcceleratorConfig::small_test();
    cfg.parallel.shards = 8;
    cfg.parallel.workers = 2;
    let out = GraphPulse::new(cfg)
        .run_parallel(&g, &PageRankDelta::new(0.85, 1e-7))
        .expect("run");
    assert_eq!(out.shards, 8);
}

#[test]
fn oversubscribed_forced_shards_are_rejected() {
    let g = erdos_renyi(256, 1_500, WeightMode::Unweighted, 21);
    let mut cfg = AcceleratorConfig::small_test();
    cfg.queue = QueueConfig {
        bins: 1,
        rows: 1,
        cols: 4,
    }; // 4 slots
    cfg.input_buffer = 4;
    cfg.parallel.shards = 2; // 128 vertices per slice >> 4 slots
    let err = GraphPulse::new(cfg)
        .run_parallel(&g, &PageRankDelta::new(0.85, 1e-7))
        .unwrap_err();
    assert!(matches!(err, graphpulse_core::RunError::InvalidConfig(_)));
}

/// Asserts the exact ledger of one merged report, naming the run.
fn assert_ledger(what: &str, out: &ParallelOutcome) {
    let r = &out.report;
    assert!(r.events_spilled > 0, "{what}: no cross-shard event");
    assert_eq!(
        r.events_generated,
        r.events_processed + r.events_coalesced,
        "{what}: generated != processed + coalesced"
    );
    r.check_event_conservation()
        .unwrap_or_else(|e| panic!("{what}: {e}"));
}

#[test]
fn a_merged_report_accounts_for_every_event() {
    let g = erdos_renyi(240, 1_440, WeightMode::Uniform(1.0, 9.0), 0x39);
    let config = |shards, workers| {
        let mut cfg = AcceleratorConfig::small_test();
        cfg.parallel.shards = shards;
        cfg.parallel.workers = workers;
        GraphPulse::new(cfg)
    };
    let prd = PageRankDelta::new(0.85, 1e-7);
    let sssp = Sssp::new(VertexId::new(0));
    let cc = ConnectedComponents::new();
    for shards in [2, 3] {
        for workers in [1, 4] {
            let gp = config(shards, workers);
            let what = |algo| format!("{algo} at {shards} shards, {workers} workers");
            assert_ledger(&what("prd"), &gp.run_parallel(&g, &prd).expect("run"));
            assert_ledger(&what("sssp"), &gp.run_parallel(&g, &sssp).expect("run"));
            assert_ledger(&what("cc"), &gp.run_parallel(&g, &cc).expect("run"));
        }
    }

    // Shard 0's egress held for four barriers, released well inside the
    // watchdog's budget: the held events are delivered late, not lost.
    let gp = config(3, 2);
    let clean = gp.run_parallel(&g, &prd).expect("clean run");
    let stalled = gp
        .run_parallel_chaos(
            &g,
            &prd,
            ParallelChaos {
                stall: Some((0, 4)),
                epoch_budget: Some(clean.epochs + 16),
            },
        )
        .expect("a stall shorter than the budget recovers");
    assert_ledger("prd stalled for 4 barriers", &stalled);
}
