//! Pins the turbo backend's schedule: on one fixed weighted R-MAT every
//! work counter of every algorithm is a literal.
//!
//! The counters are functions of the round schedule (which vertices a
//! sweep finds active, and in which order their deltas land), so any
//! change to how turbo queues or orders events moves at least one of them
//! — while the values stay held to the sequential golden engine, bit for
//! bit where the algebra is monotone. The run is also held to a work
//! bound: fewer events and fewer rounds than the round-buffered `run_bsp`,
//! and at most 1.10x the events of the FIFO golden engine.

use graphpulse::algorithms::engine::{run_bsp, run_sequential};
use graphpulse::algorithms::{
    max_abs_diff, Bfs, ConnectedComponents, DeltaAlgorithm, PageRankDelta, Sssp, Sswp,
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
    let (bsp, bsp_rounds) = run_bsp(algo, g, u64::MAX);
    let out = run_turbo(algo, g, &TurboConfig::default());
    let got: Counts = [
        out.events_processed,
        out.events_generated,
        out.events_coalesced,
        out.stale_entries,
        out.reschedules,
        out.rounds,
    ];
    assert_eq!(got, want, "{label}");
    out.check_lost_events().unwrap();
    let tol = algo.comparison_tolerance();
    if tol == 0.0 {
        assert_eq!(out.values, golden.values, "{label}");
    } else {
        let diff = max_abs_diff(&out.values, &golden.values);
        assert!(diff < tol, "{label}: |diff| {diff:e}");
    }
    assert!(
        out.events_processed < bsp.events_processed && out.rounds < bsp_rounds.len() as u64,
        "{label}: {} events / {} rounds, run_bsp {} / {}",
        out.events_processed,
        out.rounds,
        bsp.events_processed,
        bsp_rounds.len()
    );
    assert!(
        out.events_processed * 10 <= golden.events_processed * 11,
        "{label}: {} events, golden {}",
        out.events_processed,
        golden.events_processed
    );
}

#[test]
fn work_counters_are_pinned_on_a_fixed_rmat() {
    let g = graph();
    let root = hub(&g);
    assert_schedule(
        "prd",
        &PageRankDelta::new(0.85, 1e-3),
        &g,
        [44677, 437820, 393143, 0, 0, 18],
    );
    assert_schedule("sssp", &Sssp::new(root), &g, [6947, 49401, 42454, 0, 0, 6]);
    assert_schedule("bfs", &Bfs::new(root), &g, [4010, 28064, 24054, 0, 0, 4]);
    assert_schedule(
        "cc",
        &ConnectedComponents::new(),
        &g,
        [8870, 63743, 54873, 0, 0, 5],
    );
    assert_schedule(
        "sswp",
        &Sswp::new(root),
        &g,
        [15511, 87787, 72276, 0, 0, 13],
    );
}
