//! Pins the turbo backend's schedule: on one fixed weighted R-MAT every
//! work counter of every algorithm is a literal, at one shard and at three.
//!
//! The counters are functions of the round schedule (which vertices a
//! sweep finds active, and in which order their deltas merge), so any
//! change to how turbo queues, orders or merges events moves at least one
//! of them — while the values stay held to the sequential golden engine,
//! bit for bit where the algebra is monotone. A round-buffered sweep in
//! vertex order is the BSP schedule, so each run is also held to
//! `run_bsp`: same value bits, same events, same rounds.

use graphpulse::algorithms::engine::{run_bsp, run_sequential};
use graphpulse::algorithms::{
    max_abs_diff, same_bits, Bfs, ConnectedComponents, DeltaAlgorithm, PageRankDelta, Sssp, Sswp,
};
use graphpulse::graph::generators::{rmat, RmatConfig, WeightMode};
use graphpulse::graph::{CsrGraph, VertexId};
use graphpulse::turbo::{run_turbo, TurboConfig};

/// processed / generated / coalesced / stale / reschedules / rounds; stale
/// and reschedules are 0 by construction.
type Counts = [u64; 6];

fn graph() -> CsrGraph {
    rmat(
        &RmatConfig::graph500(4096, 32768).with_weights(WeightMode::Uniform(1.0, 16.0)),
        42,
    )
}

/// Highest-out-degree vertex, lowest id on ties.
fn hub(g: &CsrGraph) -> VertexId {
    let mut best = VertexId::new(0);
    for v in 0..g.num_vertices() as u32 {
        let v = VertexId::new(v);
        if g.out_degree(v) > g.out_degree(best) {
            best = v;
        }
    }
    best
}

fn assert_schedule<A: DeltaAlgorithm>(label: &str, algo: &A, g: &CsrGraph, want: Counts) {
    let golden = run_sequential(algo, g);
    let (bsp, _) = run_bsp(algo, g, u64::MAX);
    for shards in [1, 3] {
        let out = run_turbo(
            algo,
            g,
            &TurboConfig {
                shards,
                ..TurboConfig::default()
            },
        );
        let got: Counts = [
            out.events_processed,
            out.events_generated,
            out.events_coalesced,
            out.stale_entries,
            out.reschedules,
            out.rounds,
        ];
        assert_eq!(got, want, "{label} at {shards} shard(s)");
        out.check_lost_events().unwrap();
        assert!(
            same_bits(&out.values, &bsp.values),
            "{label} at {shards} shard(s): values differ from run_bsp"
        );
        assert_eq!(
            (out.events_processed, out.events_generated, out.rounds),
            (bsp.events_processed, bsp.events_generated, bsp.rounds),
            "{label} at {shards} shard(s): counts differ from run_bsp"
        );
        let tol = algo.comparison_tolerance();
        if tol == 0.0 {
            assert_eq!(out.values, golden.values, "{label} at {shards} shard(s)");
        } else {
            let diff = max_abs_diff(&out.values, &golden.values);
            assert!(diff < tol, "{label} at {shards} shard(s): |diff| {diff:e}");
        }
    }
}

#[test]
fn work_counters_are_pinned_on_a_fixed_rmat() {
    let g = graph();
    let root = hub(&g);
    assert_schedule(
        "prd",
        &PageRankDelta::new(0.85, 1e-3),
        &g,
        [74506, 731544, 657038, 0, 0, 30],
    );
    assert_schedule("sssp", &Sssp::new(root), &g, [8455, 57405, 48950, 0, 0, 8]);
    assert_schedule("bfs", &Bfs::new(root), &g, [4687, 27920, 23233, 0, 0, 6]);
    assert_schedule(
        "cc",
        &ConnectedComponents::new(),
        &g,
        [13326, 94019, 80693, 0, 0, 7],
    );
    assert_schedule(
        "sswp",
        &Sswp::new(root),
        &g,
        [23608, 126363, 102755, 0, 0, 22],
    );
}
