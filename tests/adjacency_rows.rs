//! Every adjacency backend drives the same run: over a patched
//! [`OverlayGraph`], the [`GraphSnapshot`] frozen from it, and a
//! [`MappedCsr`] of the materialized graph, the golden engine and turbo
//! produce values and event counters bit-identical to the run over the
//! resident [`CsrGraph`] — for the mapping, the resident graph relabeled
//! by the container's ranks, which is the graph the container holds.
//!
//! The counters depend on the order edges come out of a row, so a backend
//! that yields a row in a different order, or drops or repeats an edge,
//! moves at least one of them.

use graphpulse::algorithms::engine::run_sequential;
use graphpulse::algorithms::{ConnectedComponents, DeltaAlgorithm, PageRankDelta, Sssp};
use graphpulse::graph::container::{write_container, MeteredView, Traffic};
use graphpulse::graph::generators::{rmat, RmatConfig, WeightMode};
use graphpulse::graph::{CsrGraph, GraphSnapshot, GraphView, MappedCsr, OverlayGraph, VertexId};
use graphpulse::stream::{IncrementalEngine, StreamConfig, UpdateStream};
use graphpulse::turbo::{run_turbo, TurboConfig};

const WEIGHTS: WeightMode = WeightMode::Uniform(1.0, 16.0);

/// values (as bits) / processed / generated, golden then turbo.
type Run = [(Vec<u64>, u64, u64); 2];

fn run_both<A: DeltaAlgorithm, G: GraphView + Sync>(algo: &A, g: &G) -> Run {
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect();
    let golden = run_sequential(algo, g);
    let turbo = run_turbo(algo, g, &TurboConfig::default());
    [
        (
            bits(&golden.values),
            golden.events_processed,
            golden.events_generated,
        ),
        (
            bits(&turbo.values),
            turbo.events_processed,
            turbo.events_generated,
        ),
    ]
}

fn assert_same_runs<A: DeltaAlgorithm>(
    label: &str,
    algo: &A,
    resident: &CsrGraph,
    overlay: &OverlayGraph,
    snapshot: &GraphSnapshot,
    (mapped, relabeled): (&MappedCsr, &CsrGraph),
) {
    let want = run_both(algo, resident);
    assert!(want[0].1 > 0, "{label}: the resident run did no work");
    assert_eq!(run_both(algo, overlay), want, "{label} over the overlay");
    assert_eq!(run_both(algo, snapshot), want, "{label} over the snapshot");
    let want = run_both(algo, relabeled);
    assert!(want[0].1 > 0, "{label}: the relabeled run did no work");
    assert_eq!(run_both(algo, mapped), want, "{label} over the mapping");
}

#[test]
fn overlay_snapshot_and_mapping_run_like_the_resident_csr() {
    let base = rmat(&RmatConfig::graph500(4096, 32768).with_weights(WEIGHTS), 42);
    let root = VertexId::new(0);

    // 64 updates land as patches (the threshold never compacts them away).
    let (mut engine, _) =
        IncrementalEngine::new(Sssp::new(root), base, StreamConfig::golden(f64::INFINITY))
            .expect("the golden backend cannot fail");
    let batch = UpdateStream::new(4096, 0.25, WEIGHTS, 7).next_batch(engine.graph(), 64);
    let report = engine.apply_batch(&batch).expect("golden backend");
    assert!(report.inserts > 0 && report.deletes > 0);
    let overlay = engine.graph();
    assert!(overlay.patched_vertices() > 0);

    let snapshot = overlay.freeze();
    let resident = overlay.to_csr();
    let path = std::env::temp_dir().join(format!("gp-adjacency-rows-{}.gpc", std::process::id()));
    write_container(&resident, &path).expect("container written");
    let mapped = MappedCsr::open_verified(&path).expect("container opens");
    let rank: Vec<u32> = resident
        .vertices()
        .map(|s| mapped.container_id(s).get())
        .collect();
    let relabeled = resident.relabel(&rank);

    assert_same_runs(
        "prd",
        &PageRankDelta::new(0.85, 1e-3),
        &resident,
        overlay,
        &snapshot,
        (&mapped, &relabeled),
    );
    assert_same_runs(
        "sssp",
        &Sssp::new(root),
        &resident,
        overlay,
        &snapshot,
        (&mapped, &relabeled),
    );
    assert_same_runs(
        "cc",
        &ConnectedComponents::new(),
        &resident,
        overlay,
        &snapshot,
        (&mapped, &relabeled),
    );
    drop(mapped);
    std::fs::remove_file(&path).ok();
}

/// The bytes a golden run moves are a function of which rows it reads:
/// one row-pointer pair and the row's edges per processed vertex that
/// propagates. Literals taken before rows replaced per-edge reads.
#[test]
fn metered_traffic_of_a_golden_sssp_run_is_pinned() {
    let g = rmat(&RmatConfig::graph500(4096, 32768).with_weights(WEIGHTS), 42);
    let metered = MeteredView::new(&g);
    let out = run_sequential(&Sssp::new(VertexId::new(0)), &metered);
    assert_eq!((out.events_processed, out.events_generated), (6519, 45864));
    assert_eq!(
        metered.snapshot(),
        Traffic {
            rowptr_bytes: 32792,
            edge_bytes: 366904,
            edges_read: 45863,
        }
    );
}
