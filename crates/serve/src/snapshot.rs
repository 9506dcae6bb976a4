//! Epoch-versioned snapshot store: the read/write decoupling at the heart
//! of the service.
//!
//! Readers [`pin`](SnapshotStore::pin) the current [`Epoch`] — an `Arc` to
//! an immutable [`GraphSnapshot`] plus the [`AppliedBatch`] delta that
//! produced it — and compute against it for as long as they like. The
//! single writer applies update batches to its private [`OverlayGraph`]
//! master copy off the read path, freezes the result (O(patched vertices),
//! the base CSR is `Arc`-shared), and [`publish`](SnapshotStore::publish)es
//! the new epoch with one pointer swap. Compaction of the master overlay
//! also happens off the read path and replaces the base `Arc`, so pinned
//! snapshots keep reading the base they were frozen against — no epoch
//! ever mutates after publish.
//!
//! A bounded history of recent epochs is retained so offline verification
//! (the load generator's golden cross-check) can recompute on exactly the
//! epoch a query was served from. A retained epoch costs its delta: the
//! history holds a graph only for the current epoch, and of every other
//! retained epoch just the [`AppliedBatch`] that made it, which its epoch
//! holds anyway — the writer compacts every few batches, and a full
//! snapshot per epoch would pin one CSR base per compaction. A lookup
//! ([`epoch`](SnapshotStore::epoch)) rebuilds from the current epoch,
//! undoing the later epochs' batches newest-first
//! ([`OverlayGraph::undo`]). Serving reads none of the history: an executor
//! reads only the epoch it pinned, graph and delta.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, RwLock};

use gp_graph::{AppliedBatch, GraphSnapshot, OverlayGraph};

/// One published, immutable version of the graph.
#[derive(Debug, Clone)]
pub struct Epoch {
    /// Monotonically increasing epoch number; the base graph is epoch 0.
    pub number: u64,
    /// Immutable adjacency at this epoch. An epoch [`SnapshotStore::epoch`]
    /// rebuilt has the published adjacency row for row, but not its pool
    /// layout (`out_edge_base`, `edge_span`), which nothing that reads a
    /// retained epoch uses.
    pub graph: GraphSnapshot,
    /// The net edge diff from epoch `number - 1` to this one, when this
    /// epoch was produced by one update batch — exactly what
    /// [`incremental_seeds`](gp_algorithms::incremental_seeds) needs to
    /// warm-start from the previous epoch's state. `None` for epoch 0.
    pub delta: Option<Arc<AppliedBatch>>,
}

/// Atomically publishable store of the current [`Epoch`] plus a bounded
/// history of recent ones.
#[derive(Debug)]
pub struct SnapshotStore {
    current: RwLock<Arc<Epoch>>,
    /// The deltas of the last `retain` epochs, ascending and dense; the
    /// last entry is the current epoch's, and epoch 0's is `None`.
    deltas: Mutex<VecDeque<Option<Arc<AppliedBatch>>>>,
    retain: usize,
}

impl SnapshotStore {
    /// Creates the store at epoch 0 with the given base snapshot,
    /// retaining up to `retain` recent epochs (minimum 1) for
    /// [`epoch`](SnapshotStore::epoch) lookups.
    pub fn new(base: GraphSnapshot, retain: usize) -> Self {
        SnapshotStore {
            current: RwLock::new(Arc::new(Epoch {
                number: 0,
                graph: base,
                delta: None,
            })),
            deltas: Mutex::new(VecDeque::from([None])),
            retain: retain.max(1),
        }
    }

    /// Pins the current epoch: a cheap `Arc` clone that stays valid (and
    /// immutable) forever, however many epochs are published after it.
    pub fn pin(&self) -> Arc<Epoch> {
        Arc::clone(&self.current.read().expect("snapshot lock poisoned"))
    }

    /// Number of the current epoch.
    pub fn current_number(&self) -> u64 {
        self.current.read().expect("snapshot lock poisoned").number
    }

    /// Publishes the next epoch derived from the current one by `delta`,
    /// returning its number. Single pointer swap on the read path.
    pub fn publish(&self, graph: GraphSnapshot, delta: AppliedBatch) -> u64 {
        // The history lock orders publishes, and keeps lookups from seeing
        // a current epoch whose delta is not in yet.
        let mut deltas = self.deltas.lock().expect("history lock poisoned");
        let delta = Arc::new(delta);
        let parent = {
            let mut current = self.current.write().expect("snapshot lock poisoned");
            let next = Arc::new(Epoch {
                number: current.number + 1,
                graph,
                delta: Some(Arc::clone(&delta)),
            });
            std::mem::replace(&mut *current, next)
        };
        let number = parent.number + 1;
        deltas.push_back(Some(delta));
        while deltas.len() > self.retain {
            deltas.pop_front();
        }
        drop(deltas);
        // Unless a reader holds it, the replaced epoch is freed here — with
        // the last base it pinned, after a compaction — outside both locks.
        drop(parent);
        number
    }

    /// Looks up a recent epoch by number, if still retained. The current
    /// epoch comes back as the current `Arc`; an older one is rebuilt from
    /// it by undoing the deltas of the epochs after it newest-first —
    /// O(their deltas and the in-rows they touched) — and is the caller's
    /// alone. Offline verification is its only caller: the executors read
    /// nothing but the pinned epoch.
    pub fn epoch(&self, number: u64) -> Option<Arc<Epoch>> {
        let (current, deltas) = {
            let deltas = self.deltas.lock().expect("history lock poisoned");
            let current = self.pin();
            let back = usize::try_from(current.number.checked_sub(number)?).ok()?;
            if back == 0 {
                return Some(current);
            }
            // `number`'s own delta, then those of every later epoch.
            let from = deltas.len().checked_sub(back + 1)?;
            (current, deltas.range(from..).cloned().collect::<Vec<_>>())
        };
        let mut overlay = OverlayGraph::from(current.graph.clone());
        drop(current);
        for delta in deltas[1..].iter().rev() {
            overlay.undo(delta.as_deref().expect("only epoch 0 has no delta"));
        }
        Some(Arc::new(Epoch {
            number,
            graph: overlay.freeze(),
            delta: deltas.into_iter().next().flatten(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_graph::generators::{erdos_renyi, WeightMode};
    use gp_graph::{GraphView, OverlayGraph, VertexId};

    #[test]
    fn publish_advances_and_history_is_bounded() {
        let g = erdos_renyi(32, 128, WeightMode::Unweighted, 3);
        let mut overlay = OverlayGraph::new(g);
        let store = SnapshotStore::new(overlay.freeze(), 3);
        assert_eq!(store.current_number(), 0);
        for i in 0..5u32 {
            let applied = overlay.apply(&[gp_graph::EdgeUpdate::Insert {
                src: VertexId::new(i),
                dst: VertexId::new(31 - i),
                weight: 1.0,
            }]);
            let n = store.publish(overlay.freeze(), applied);
            assert_eq!(n, u64::from(i) + 1);
        }
        assert_eq!(store.current_number(), 5);
        assert!(store.epoch(5).is_some());
        assert!(store.epoch(3).is_some());
        assert!(store.epoch(1).is_none(), "history must be bounded");
        assert_eq!(store.epoch(4).unwrap().number, 4);
    }

    #[test]
    fn pinned_epoch_outlives_publishes() {
        let g = erdos_renyi(32, 128, WeightMode::Unweighted, 7);
        let mut overlay = OverlayGraph::new(g);
        let store = SnapshotStore::new(overlay.freeze(), 1);
        let pinned = store.pin();
        let edges_before = pinned.graph.num_edges();
        let (s, d) = (0..32u32)
            .flat_map(|s| (0..32u32).map(move |d| (s, d)))
            .find(|&(s, d)| s != d && !overlay.contains_edge(VertexId::new(s), VertexId::new(d)))
            .expect("sparse graph has absent edges");
        let applied = overlay.apply(&[gp_graph::EdgeUpdate::Insert {
            src: VertexId::new(s),
            dst: VertexId::new(d),
            weight: 1.0,
        }]);
        store.publish(overlay.freeze(), applied);
        assert_eq!(pinned.number, 0);
        assert_eq!(pinned.graph.num_edges(), edges_before);
        assert_eq!(store.pin().graph.num_edges(), edges_before + 1);
    }
}
