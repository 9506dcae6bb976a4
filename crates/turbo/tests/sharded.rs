//! Sharded-engine property tests: the vertex-sharded turbo engine must be
//! indistinguishable from the single-shard one at the bit level.
//!
//! One property, swept over graph families × algorithms: the global round
//! schedule (events processed by each sweep) and every counter at 2, 3 and
//! 4 shards equal the single-shard run — pinned through `render_log`,
//! which serializes the counters and the full round log.
//!
//! Plus a driver-equivalence check: the scoped-thread driver (used for
//! clean multi-shard runs) must be bit-identical to the sequential driver
//! (used for faulted runs), pinned by forcing the sequential driver with a
//! fault that never fires.

use gp_algorithms::{Bfs, ConnectedComponents, DeltaAlgorithm, PageRankDelta, Sssp, Sswp};
use gp_graph::generators::{barabasi_albert, erdos_renyi, rmat, RmatConfig, WeightMode};
use gp_graph::{CsrGraph, VertexId};
use gp_turbo::{run_turbo, StaleFault, TurboConfig, TurboOutcome};

const SHARD_COUNTS: [usize; 3] = [2, 3, 4];

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

/// Runs `algo` at every shard count under `cfg` and asserts the rendered
/// log (counters + full round log) and the value bits match the
/// single-shard run exactly.
fn assert_partition_invariant<A: DeltaAlgorithm>(
    label: &str,
    algo: &A,
    g: &CsrGraph,
    cfg: &TurboConfig,
) {
    let base_cfg = TurboConfig { shards: 1, ..*cfg };
    let base = run_turbo(algo, g, &base_cfg);
    for shards in SHARD_COUNTS {
        let out = run_turbo(algo, g, &TurboConfig { shards, ..base_cfg });
        assert_eq!(
            out.render_log(),
            base.render_log(),
            "{label}: round schedule diverged at {shards} shards"
        );
        assert_eq!(
            value_bits(&out),
            value_bits(&base),
            "{label}: values diverged at {shards} shards"
        );
    }
}

#[test]
fn drain_order_is_shard_count_invariant() {
    for seed in [3u64, 11, 29] {
        for g in &graphs(seed) {
            let root = VertexId::new(0);
            assert_partition_invariant(
                "pagerank",
                &PageRankDelta::new(0.85, 1e-7),
                g,
                &TurboConfig::default(),
            );
            assert_partition_invariant("sssp", &Sssp::new(root), g, &TurboConfig::default());
            assert_partition_invariant("bfs", &Bfs::new(root), g, &TurboConfig::default());
            assert_partition_invariant(
                "cc",
                &ConnectedComponents::new(),
                g,
                &TurboConfig::default(),
            );
            assert_partition_invariant("sswp", &Sswp::new(root), g, &TurboConfig::default());
        }
    }
}

#[test]
fn threaded_driver_matches_sequential_driver() {
    // A fault that never fires (after_rounds = u64::MAX) forces the
    // sequential round driver while leaving the run semantically clean;
    // the scoped-thread driver used for clean multi-shard runs must
    // produce the identical outcome.
    let g = rmat(&RmatConfig::graph500(256, 2_048), 13);
    let pr = PageRankDelta::new(0.85, 1e-7);
    for shards in SHARD_COUNTS {
        let threaded = run_turbo(
            &pr,
            &g,
            &TurboConfig {
                shards,
                ..TurboConfig::default()
            },
        );
        let sequential = run_turbo(
            &pr,
            &g,
            &TurboConfig {
                shards,
                fault: Some(StaleFault {
                    after_rounds: u64::MAX,
                    pick: 0,
                }),
            },
        );
        assert_eq!(
            threaded.render_log(),
            sequential.render_log(),
            "{shards} shards: drivers diverged"
        );
        assert_eq!(value_bits(&threaded), value_bits(&sequential));
    }
}

#[test]
fn stale_fault_is_shard_count_invariant() {
    // Fault injection always runs the sequential driver with a global
    // victim scan in vertex order, so even corrupted runs — the lost
    // delta and all — are partition-invariant.
    let g = erdos_renyi(96, 380, WeightMode::Uniform(1.0, 6.0), 13);
    let algo = Sssp::new(VertexId::new(0));
    let clean_rounds = run_turbo(&algo, &g, &TurboConfig::default()).rounds;
    for after_rounds in [2, clean_rounds.saturating_sub(2).max(1)] {
        for pick in [0u64, 3] {
            let base = run_turbo(
                &algo,
                &g,
                &TurboConfig {
                    fault: Some(StaleFault { after_rounds, pick }),
                    ..TurboConfig::default()
                },
            );
            for shards in SHARD_COUNTS {
                let out = run_turbo(
                    &algo,
                    &g,
                    &TurboConfig {
                        shards,
                        fault: Some(StaleFault { after_rounds, pick }),
                    },
                );
                assert_eq!(value_bits(&out), value_bits(&base));
                assert_eq!(out.render_log(), base.render_log());
            }
        }
    }
}
