//! Sharded-engine property tests: what the vertex-sharded turbo engine
//! promises at every shard count.
//!
//! Lookahead ends at a shard's last vertex, so the round schedule and the
//! counters are *not* the single-shard run's. One contract instead, swept
//! over graph families × algorithms at 2, 3 and 4 shards: values bit-exact
//! with the golden engine where the algebra is monotone and within
//! `comparison_tolerance` where it accumulates, the conservation identity
//! (`check_lost_events`), and an outcome — value bits and `render_log`,
//! which serializes every counter and the full round log — that is a pure
//! function of the input and the shard count: the same on a rerun, and the
//! same from the scoped-thread driver (used for clean multi-shard runs) as
//! from the sequential driver (used for faulted runs), forced here with a
//! fault that never fires.

use gp_algorithms::engine::run_sequential;
use gp_algorithms::{
    max_abs_diff, Bfs, ConnectedComponents, DeltaAlgorithm, PageRankDelta, Sssp, Sswp,
};
use gp_graph::generators::{barabasi_albert, erdos_renyi, rmat, RmatConfig, WeightMode};
use gp_graph::{CsrGraph, VertexId};
use gp_turbo::{run_turbo, StaleFault, TurboConfig, TurboOutcome};

const SHARD_COUNTS: [usize; 3] = [2, 3, 4];

/// Forces the sequential round driver while leaving the run clean.
const NEVER_FIRES: StaleFault = StaleFault {
    after_rounds: u64::MAX,
    pick: 0,
};

fn graphs(seed: u64) -> Vec<CsrGraph> {
    vec![
        rmat(&RmatConfig::graph500(256, 2_048), seed),
        erdos_renyi(300, 1_800, WeightMode::Uniform(1.0, 8.0), seed ^ 0x5bd1),
        barabasi_albert(200, 4, WeightMode::Uniform(0.5, 2.0), seed ^ 0x9e37),
    ]
}

fn value_bits(o: &TurboOutcome) -> Vec<u64> {
    o.values.iter().map(|v| v.to_bits()).collect()
}

/// Asserts `a` and `b` are the same outcome: rendered log (counters + full
/// round log) and value bits.
fn assert_same_outcome(a: &TurboOutcome, b: &TurboOutcome, what: &str) {
    assert_eq!(a.render_log(), b.render_log(), "{what}: log diverged");
    assert_eq!(value_bits(a), value_bits(b), "{what}: values diverged");
}

/// Runs `algo` at every shard count and asserts the contract of the module
/// docs against the golden engine, a rerun and the sequential driver.
fn assert_sharded_contract<A: DeltaAlgorithm>(label: &str, algo: &A, g: &CsrGraph) {
    let golden = run_sequential(algo, g);
    let tol = algo.comparison_tolerance();
    for shards in SHARD_COUNTS {
        let cfg = TurboConfig {
            shards,
            ..TurboConfig::default()
        };
        let out = run_turbo(algo, g, &cfg);
        let what = format!("{label} at {shards} shards");
        // Tolerance 0 (the monotone algorithms) makes this exact equality.
        let diff = max_abs_diff(&out.values, &golden.values);
        assert!(diff <= tol, "{what}: |diff| {diff:e} vs golden");
        out.check_lost_events().unwrap();
        assert_same_outcome(&run_turbo(algo, g, &cfg), &out, &format!("{what}, rerun"));
        let sequential = TurboConfig {
            fault: Some(NEVER_FIRES),
            ..cfg
        };
        assert_same_outcome(
            &run_turbo(algo, g, &sequential),
            &out,
            &format!("{what}, sequential driver"),
        );
    }
}

#[test]
fn every_shard_count_agrees_with_golden_and_repeats_exactly() {
    for seed in [3u64, 11, 29] {
        for g in &graphs(seed) {
            let root = VertexId::new(0);
            assert_sharded_contract("pagerank", &PageRankDelta::new(0.85, 1e-7), g);
            assert_sharded_contract("sssp", &Sssp::new(root), g);
            assert_sharded_contract("bfs", &Bfs::new(root), g);
            assert_sharded_contract("cc", &ConnectedComponents::new(), g);
            assert_sharded_contract("sswp", &Sswp::new(root), g);
        }
    }
}

#[test]
fn threaded_driver_matches_sequential_driver() {
    // The same driver pair as the contract above, on a graph large enough
    // that every shard is active in most rounds and the outboxes carry
    // thousands of cross-shard deltas per barrier.
    let g = rmat(&RmatConfig::graph500(4_096, 32_768), 13);
    let pr = PageRankDelta::new(0.85, 1e-7);
    for shards in SHARD_COUNTS {
        let cfg = TurboConfig {
            shards,
            ..TurboConfig::default()
        };
        let threaded = run_turbo(&pr, &g, &cfg);
        let sequential = run_turbo(
            &pr,
            &g,
            &TurboConfig {
                fault: Some(NEVER_FIRES),
                ..cfg
            },
        );
        assert_same_outcome(&threaded, &sequential, &format!("{shards} shards"));
    }
}

#[test]
fn stale_fault_is_detected_at_every_shard_count() {
    // The victim scan is a global sweep in vertex order, but the bits it
    // finds set depend on the shard count, so the corrupted runs differ
    // between counts. At each count the cleared bit loses exactly one
    // delta, the conservation check names it, and the run repeats exactly.
    let g = erdos_renyi(96, 380, WeightMode::Uniform(1.0, 6.0), 13);
    let algo = Sssp::new(VertexId::new(0));
    for shards in [1, 2, 3, 4] {
        let clean = TurboConfig {
            shards,
            ..TurboConfig::default()
        };
        let clean_rounds = run_turbo(&algo, &g, &clean).rounds;
        assert!(clean_rounds > 2, "{shards} shard(s): {clean_rounds} rounds");
        for after_rounds in [1, clean_rounds - 2] {
            for pick in [0u64, 3] {
                let cfg = TurboConfig {
                    fault: Some(StaleFault { after_rounds, pick }),
                    ..clean
                };
                let out = run_turbo(&algo, &g, &cfg);
                let msg = out.check_lost_events().unwrap_err();
                assert!(msg.contains("lost 1 event"), "{shards} shard(s): {msg}");
                assert_same_outcome(
                    &run_turbo(&algo, &g, &cfg),
                    &out,
                    &format!("{shards} shard(s), fault after {after_rounds} pick {pick}"),
                );
            }
        }
    }
}
