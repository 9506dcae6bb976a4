//! Snapshot-semantics guarantees of the epoch store (the serving
//! contract): a pinned epoch never changes after publish — not under
//! concurrent publishes, not under delete-heavy churn, not under
//! compaction of the writer's master overlay.
//!
//! Every test drives the real publication path ([`OverlayGraph::apply`] →
//! [`OverlayGraph::freeze`] → [`SnapshotStore::publish`]) and checks
//! bit-identical algorithm results on pinned epochs, which is the
//! strongest observable form of "the snapshot did not mutate".

use std::sync::Arc;

use gp_algorithms::engine::run_sequential;
use gp_algorithms::Sssp;
use gp_graph::generators::{rmat, RmatConfig, WeightMode};
use gp_graph::{GraphView, OverlayGraph, VertexId};
use gp_serve::SnapshotStore;
use gp_stream::UpdateStream;

const VERTICES: usize = 512;

fn setup(seed: u64) -> (OverlayGraph, UpdateStream) {
    let g = rmat(
        &RmatConfig::graph500(VERTICES, 4 * VERTICES).with_weights(WeightMode::Uniform(1.0, 9.0)),
        seed,
    );
    let overlay = OverlayGraph::new(g);
    let stream = UpdateStream::new(VERTICES, 0.3, WeightMode::Uniform(1.0, 9.0), seed ^ 0x5eed);
    (overlay, stream)
}

fn sssp_bits(graph: &impl GraphView, root: u32) -> Vec<u64> {
    run_sequential(&Sssp::new(VertexId::new(root)), graph)
        .values
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn pinned_reader_is_isolated_from_concurrent_publishes() {
    let (mut overlay, mut stream) = setup(11);
    let store = SnapshotStore::new(overlay.freeze(), 4);

    let pinned = store.pin();
    assert_eq!(pinned.number, 0);
    let before = sssp_bits(&pinned.graph, 0);

    // Writer races ahead: ten batches, ten published epochs.
    for _ in 0..10 {
        let updates = stream.next_batch(&overlay, 32);
        let applied = overlay.apply(&updates);
        store.publish(overlay.freeze(), applied);
    }
    assert_eq!(store.current_number(), 10);

    // The pin still names epoch 0 and still computes the epoch-0 answer,
    // bit for bit, even though the overlay has drifted ten batches away.
    assert_eq!(pinned.number, 0);
    assert_eq!(sssp_bits(&pinned.graph, 0), before);
    assert_ne!(
        sssp_bits(&store.pin().graph, 0),
        before,
        "ten batches should have changed at least one distance"
    );
}

#[test]
fn delete_heavy_batches_leave_every_retained_epoch_intact() {
    let (mut overlay, mut stream) = setup(23);
    // Delete-heavy churn: 80% deletes once the overlay has edges to kill.
    let mut heavy = UpdateStream::new(VERTICES, 0.8, WeightMode::Uniform(1.0, 9.0), 99);
    let store = SnapshotStore::new(overlay.freeze(), 16);

    let mut witnessed: Vec<(Arc<gp_serve::Epoch>, Vec<u64>, usize)> = Vec::new();
    for round in 0..12 {
        let stream = if round % 3 == 0 {
            &mut stream
        } else {
            &mut heavy
        };
        let updates = stream.next_batch(&overlay, 48);
        let applied = overlay.apply(&updates);
        store.publish(overlay.freeze(), applied);
        let pin = store.pin();
        let bits = sssp_bits(&pin.graph, 1);
        let edges = pin.graph.num_edges();
        witnessed.push((pin, bits, edges));
    }

    // Re-verify every pinned epoch after all the churn: same edge count,
    // same bit-exact distances, and the store still serves the same Arc.
    for (pin, bits, edges) in &witnessed {
        assert_eq!(pin.graph.num_edges(), *edges);
        assert_eq!(&sssp_bits(&pin.graph, 1), bits, "epoch {}", pin.number);
        let looked_up = store.epoch(pin.number).expect("retained");
        assert_eq!(&sssp_bits(&looked_up.graph, 1), bits);
    }
}

#[test]
fn compaction_concurrent_with_pinned_readers_changes_nothing() {
    let (mut overlay, mut stream) = setup(37);
    let store = SnapshotStore::new(overlay.freeze(), 8);

    let mut pins = Vec::new();
    for _ in 0..6 {
        let updates = stream.next_batch(&overlay, 64);
        let applied = overlay.apply(&updates);
        store.publish(overlay.freeze(), applied);
        let pin = store.pin();
        let bits = sssp_bits(&pin.graph, 2);
        pins.push((pin, bits));
        // Force compaction every round (threshold 0 ⇒ any pool use
        // triggers); this rebuilds the master's base CSR while readers
        // hold frozen snapshots of the old base.
        overlay.maybe_compact(0.0);
        assert_eq!(overlay.pool_edge_slots(), 0, "compaction ran");
    }

    for (pin, bits) in &pins {
        assert_eq!(
            &sssp_bits(&pin.graph, 2),
            bits,
            "epoch {} mutated after a later compaction",
            pin.number
        );
    }

    // And a compacted-master publish equals the patched view it replaced:
    // the last pin predates the final compaction, the current epoch's
    // graph is frozen from the compacted master — same topology.
    let updates = stream.next_batch(&overlay, 0);
    assert!(updates.is_empty());
    let current = store.pin();
    let (last_pin, last_bits) = pins.last().expect("pinned six epochs");
    assert_eq!(current.number, last_pin.number);
    assert_eq!(&sssp_bits(&current.graph, 2), last_bits);
}

#[test]
fn history_eviction_keeps_current_reachable() {
    let (mut overlay, mut stream) = setup(41);
    let store = SnapshotStore::new(overlay.freeze(), 3);
    for _ in 0..9 {
        let updates = stream.next_batch(&overlay, 16);
        let applied = overlay.apply(&updates);
        store.publish(overlay.freeze(), applied);
    }
    assert_eq!(store.current_number(), 9);
    // Old epochs age out of the lookup window; recent ones (and the
    // current epoch) stay resolvable for offline verification.
    assert!(store.epoch(0).is_none());
    assert!(store.epoch(9).is_some());
    let oldest_retained = (0..=9).find(|&n| store.epoch(n).is_some()).expect("some");
    for n in oldest_retained..=9 {
        assert_eq!(store.epoch(n).expect("retained window is dense").number, n);
    }
}

/// A row as `(neighbor, weight bits)`, in stored order.
fn row(edges: gp_graph::OutEdges<'_>) -> Vec<(u32, u32)> {
    edges.map(|e| (e.other.get(), e.weight.to_bits())).collect()
}

/// Asserts `got` has `want`'s adjacency row for row.
fn assert_same_graph(got: &impl GraphView, want: &impl GraphView, label: &str) {
    assert_eq!(got.num_edges(), want.num_edges(), "{label}: num_edges");
    assert_eq!(
        got.is_weighted(),
        want.is_weighted(),
        "{label}: is_weighted"
    );
    for v in want.vertex_ids() {
        assert_eq!(
            row(got.out_edges(v)),
            row(want.out_edges(v)),
            "{label}: out-row {v}"
        );
        assert_eq!(
            row(got.in_edges(v)),
            row(want.in_edges(v)),
            "{label}: in-row {v}"
        );
    }
}

/// The history keeps deltas, not graphs, yet every retained epoch reads
/// back as published: after each of `3 × retain` publishes (the
/// master compacted after every third), every epoch in the window equals
/// the snapshot frozen for it, row for row, and every older one is gone.
#[test]
fn every_retained_epoch_reads_back_as_published() {
    const RETAIN: usize = 8;
    let (mut overlay, mut stream) = setup(53);
    let store = SnapshotStore::new(overlay.freeze(), RETAIN);
    // The test's own copy of every published graph; holding these does
    // not hold the store's epochs.
    let mut published = vec![overlay.freeze()];
    for round in 1..=3 * RETAIN as u64 {
        let updates = stream.next_batch(&overlay, 32);
        let applied = overlay.apply(&updates);
        assert_eq!(store.publish(overlay.freeze(), applied), round);
        published.push(overlay.freeze());
        if round % 3 == 0 {
            overlay.compact();
        }
        for (n, graph) in published.iter().enumerate() {
            let n = n as u64;
            match store.epoch(n) {
                Some(epoch) => {
                    assert!(round - n < RETAIN as u64, "epoch {n} outlived the window");
                    assert_eq!(epoch.number, n);
                    assert_eq!(epoch.delta.is_some(), n > 0);
                    assert_same_graph(&epoch.graph, graph, &format!("epoch {n} at {round}"));
                }
                None => assert!(round - n >= RETAIN as u64, "epoch {n} evicted early"),
            }
        }
    }
}

/// The store keeps no graph but the current epoch's: after every publish
/// only the current epoch (and whatever a caller holds) is alive, and a
/// rebuilt epoch is its caller's alone — it reads back as published and
/// dies with its last holder.
#[test]
fn the_store_keeps_only_the_current_epoch_alive() {
    let (mut overlay, mut stream) = setup(59);
    let store = SnapshotStore::new(overlay.freeze(), 16);
    let pinned = store.pin();
    let mut weak = vec![Arc::downgrade(&pinned)];
    for round in 1..=12 {
        let updates = stream.next_batch(&overlay, 32);
        let applied = overlay.apply(&updates);
        store.publish(overlay.freeze(), applied);
        weak.push(Arc::downgrade(&store.pin()));
        if round % 2 == 0 {
            overlay.compact();
        }
    }
    let alive: Vec<u64> = weak
        .iter()
        .filter_map(|w| w.upgrade().map(|e| e.number))
        .collect();
    assert_eq!(alive, [0, 12], "only the pin and the current epoch live");
    let epoch0 = store.epoch(0).expect("retained");
    assert_same_graph(&epoch0.graph, &pinned.graph, "epoch 0 against the pin");
    drop(epoch0);
    assert!(Arc::ptr_eq(
        &store.epoch(12).expect("retained"),
        &store.pin()
    ));

    // A rebuild reads back the same each time, and is dropped with its
    // last holder.
    let rebuilt = store.epoch(5).expect("retained");
    let again = store.epoch(5).expect("retained");
    assert_same_graph(&again.graph, &rebuilt.graph, "epoch 5 looked up twice");
    drop(again);
    let held = Arc::downgrade(&rebuilt);
    drop(rebuilt);
    assert!(held.upgrade().is_none(), "the store kept a rebuilt epoch");

    // With nobody pinning, one epoch is alive: the current one.
    drop(pinned);
    let alive = weak.iter().filter(|w| w.upgrade().is_some()).count();
    assert_eq!(alive, 1);
}
