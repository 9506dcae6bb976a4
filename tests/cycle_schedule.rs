//! Pins the cycle model's schedule: on one fixed weighted R-MAT every
//! simulated count of PRD, SSSP and CC is a literal — through the
//! single-machine model with the graph in one slice and in three, and
//! through the shard-parallel engine at one forced shard and at three.
//!
//! The counts are functions of when each event is installed, drained,
//! coalesced, spilled and exchanged, so any change to how a run is seeded,
//! stepped or torn down moves at least one of them. Each cold run is also
//! held, field for field, to the seeded entry point started from
//! `initial_state` — a cold start is nothing but that seeded run.
//!
//! The eight counts say when the run ended, not what each unit did on the
//! way. `report_fold` pins the rest — both timelines per state, every stage
//! average (count, sum, min, max), memory per traffic class, the edge
//! cache, every round's row of `rounds_log` and the energy report — as one
//! hash of the whole report's `{:?}` rendering, so a model that accounts
//! for idle cycles in bulk has to land on the same totals as one that
//! visits every unit every cycle.

use graphpulse::algorithms::engine::initial_state;
use graphpulse::algorithms::{ConnectedComponents, DeltaAlgorithm, PageRankDelta, Sssp};
use graphpulse::core::{AcceleratorConfig, ExecutionReport, GraphPulse, QueueConfig};
use graphpulse::graph::generators::{rmat, RmatConfig, WeightMode};
use graphpulse::graph::{CsrGraph, VertexId};

/// cycles / rounds / slices / slice_activations / events processed /
/// generated / coalesced / spilled, then the value checksum.
type Counts = ([u64; 8], u64);

/// What a sharded run adds: epochs, shards, per-shard ticks.
type Barriers = (u64, usize, &'static [u64]);

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

/// The paper's machine with the queue cut to 11 rows of 128 slots: 1408
/// vertices a slice, so the 4096-vertex graph needs three.
fn sliced() -> AcceleratorConfig {
    let mut cfg = AcceleratorConfig::optimized();
    cfg.queue = QueueConfig {
        bins: 4,
        rows: 11,
        cols: 32,
    };
    cfg
}

fn sharded(shards: usize) -> AcceleratorConfig {
    let mut cfg = AcceleratorConfig::optimized();
    cfg.parallel.shards = shards;
    cfg
}

/// Order-sensitive fold of the value bit patterns.
fn checksum(values: &[f64]) -> u64 {
    values.iter().fold(0, |h: u64, v| {
        (h.rotate_left(5) ^ v.to_bits()).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    })
}

/// FNV-1a over the `{:?}` rendering of the whole report: every field, in
/// declaration order.
fn report_fold(r: &ExecutionReport) -> u64 {
    format!("{r:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn counts(values: &[f64], r: &ExecutionReport) -> Counts {
    let counts = [
        r.cycles,
        r.rounds,
        r.slices,
        r.slice_activations,
        r.events_processed,
        r.events_generated,
        r.events_coalesced,
        r.events_spilled,
    ];
    (counts, checksum(values))
}

fn project<A: DeltaAlgorithm>(algo: &A, values: &[A::Value]) -> Vec<f64> {
    values.iter().map(|&v| algo.value_to_f64(v)).collect()
}

fn assert_single<A: DeltaAlgorithm>(
    label: &str,
    algo: &A,
    g: &CsrGraph,
    cfg: AcceleratorConfig,
    want: Counts,
    fold: u64,
) {
    let accel = GraphPulse::new(cfg);
    let cold = accel.run(g, algo).expect("cold run");
    assert_eq!(counts(&cold.values, &cold.report), want, "{label}");
    assert_eq!(report_fold(&cold.report), fold, "{label}: whole report");

    let (values, seeds) = initial_state(algo, g);
    let warm = accel.run_seeded(g, algo, values, &seeds).expect("seeded");
    assert_eq!(project(algo, &warm.values), cold.values, "{label}");
    assert_eq!(
        format!("{:?}", warm.report),
        format!("{:?}", cold.report),
        "{label}: seeded run from initial_state is not the cold run"
    );
}

fn assert_sharded<A: DeltaAlgorithm>(
    label: &str,
    algo: &A,
    g: &CsrGraph,
    shards: usize,
    want: Counts,
    fold: u64,
    (epochs, shard_count, ticks): Barriers,
) {
    let accel = GraphPulse::new(sharded(shards));
    let cold = accel.run_parallel(g, algo).expect("cold run");
    assert_eq!(counts(&cold.values, &cold.report), want, "{label}");
    assert_eq!(report_fold(&cold.report), fold, "{label}: whole report");
    assert_eq!(cold.epochs, epochs, "{label}");
    assert_eq!(cold.shards, shard_count, "{label}");
    assert_eq!(cold.shard_ticks, ticks, "{label}");

    let (values, seeds) = initial_state(algo, g);
    let warm = accel
        .run_parallel_seeded(g, algo, values, &seeds)
        .expect("seeded");
    assert_eq!(project(algo, &warm.values), cold.values, "{label}");
    assert_eq!(
        format!("{:?}", warm.report),
        format!("{:?}", cold.report),
        "{label}: seeded run from initial_state is not the cold run"
    );
    assert_eq!(warm.epochs, cold.epochs, "{label}");
    assert_eq!(warm.shards, cold.shards, "{label}");
    assert_eq!(warm.shard_ticks, cold.shard_ticks, "{label}");
}

/// Value checksums. SSSP and CC are exact, so every schedule lands on the
/// same one; PRD's depends on the order its deltas were added.
const SSSP_SUM: u64 = 7848281826323431719;
const CC_SUM: u64 = 17540180448544085841;

#[test]
fn single_machine_counts_are_pinned_at_one_slice_and_three() {
    let g = graph();
    let root = hub(&g);
    let one = AcceleratorConfig::optimized;

    let prd = PageRankDelta::new(0.85, 1e-3);
    let want = [137236, 30, 1, 1, 73236, 724477, 651241, 0];
    assert_single(
        "prd/1",
        &prd,
        &g,
        one(),
        (want, 8147888742300430974),
        13734727614285415667,
    );
    let want = [409435, 185, 3, 36, 101565, 1006165, 904600, 671161];
    assert_single(
        "prd/3",
        &prd,
        &g,
        sliced(),
        (want, 6812914816539572672),
        5017103070732853290,
    );

    let sssp = Sssp::new(root);
    let want = [15520, 8, 1, 1, 8389, 57273, 48884, 0];
    assert_single(
        "sssp/1",
        &sssp,
        &g,
        one(),
        (want, SSSP_SUM),
        8602493985996642836,
    );
    let want = [33866, 47, 3, 12, 10841, 60310, 49469, 40073];
    assert_single(
        "sssp/3",
        &sssp,
        &g,
        sliced(),
        (want, SSSP_SUM),
        15568078085063822518,
    );

    let cc = ConnectedComponents::new();
    let want = [19174, 7, 1, 1, 13225, 93704, 80479, 0];
    assert_single("cc/1", &cc, &g, one(), (want, CC_SUM), 3670306365007196890);
    let want = [47794, 36, 3, 10, 15183, 116422, 101239, 75049];
    assert_single(
        "cc/3",
        &cc,
        &g,
        sliced(),
        (want, CC_SUM),
        6957153254932522594,
    );
}

#[test]
fn shard_parallel_counts_are_pinned_at_one_shard_and_three() {
    let g = graph();
    let root = hub(&g);

    // One shard is the single machine: the `*/1` counts above, plus barriers.
    let prd = PageRankDelta::new(0.85, 1e-3);
    let want = (
        [137236, 30, 1, 1, 73236, 724477, 651241, 0],
        8147888742300430974,
    );
    assert_sharded(
        "prd/1",
        &prd,
        &g,
        1,
        want,
        13734727614285415667,
        (135, 1, &[137236]),
    );
    let want = (
        [52546, 44, 3, 7, 87971, 873864, 785893, 584112],
        11269457688558416821,
    );
    assert_sharded(
        "prd/3",
        &prd,
        &g,
        3,
        want,
        5357409910166668479,
        (52, 3, &[51952, 51800, 51737]),
    );

    let sssp = Sssp::new(root);
    let want = ([15520, 8, 1, 1, 8389, 57273, 48884, 0], SSSP_SUM);
    assert_sharded(
        "sssp/1",
        &sssp,
        &g,
        1,
        want,
        8602493985996642836,
        (16, 1, &[15520]),
    );
    let want = ([9278, 15, 3, 12, 11266, 62907, 51641, 42040], SSSP_SUM);
    assert_sharded(
        "sssp/3",
        &sssp,
        &g,
        3,
        want,
        8763220023393801270,
        (10, 3, &[7883, 7080, 7121]),
    );

    let cc = ConnectedComponents::new();
    let want = ([19174, 7, 1, 1, 13225, 93704, 80479, 0], CC_SUM);
    assert_sharded(
        "cc/1",
        &cc,
        &g,
        1,
        want,
        3670306365007196890,
        (19, 1, &[19174]),
    );
    let want = ([9288, 12, 3, 10, 15293, 107743, 92450, 69302], CC_SUM);
    assert_sharded(
        "cc/3",
        &cc,
        &g,
        3,
        want,
        11372060323282154317,
        (10, 3, &[8403, 8470, 8160]),
    );
}
