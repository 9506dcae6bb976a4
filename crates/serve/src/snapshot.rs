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
//! epoch a query was served from. The history holds a graph only for the
//! current epoch and for epochs someone still holds (found through a
//! `Weak`); every other retained epoch is an **undo record** — the batch
//! that made it, whose `old_out` holds its parent's out-rows, plus its
//! parent's in-rows of the destinations the batch touched. A retained
//! epoch costs its delta, not a graph: the writer compacts every few
//! batches, and a full snapshot per epoch would pin one CSR base per
//! compaction. [`epoch`](SnapshotStore::epoch) rebuilds an epoch nobody
//! holds from the nearest newer one somebody does, restoring the undo
//! rows newest-first; the executors' replays read only the deltas
//! ([`deltas`](SnapshotStore::deltas)) and never rebuild a graph.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, Mutex, RwLock, Weak};

use gp_graph::{AppliedBatch, EdgeRef, GraphSnapshot, OverlayGraph, VertexId};

/// One published, immutable version of the graph.
#[derive(Debug, Clone)]
pub struct Epoch {
    /// Monotonically increasing epoch number; the base graph is epoch 0.
    pub number: u64,
    /// The epoch this one was derived from (`number - 1` in the current
    /// single-writer design; epoch 0 is its own parent).
    pub parent: u64,
    /// Immutable adjacency at this epoch. An epoch [`SnapshotStore::epoch`]
    /// rebuilt has the published adjacency row for row, but not its pool
    /// layout (`out_edge_base`, `edge_span`), which nothing that reads a
    /// retained epoch uses.
    pub graph: GraphSnapshot,
    /// The net edge diff `parent -> this`, when this epoch was produced by
    /// one update batch — exactly what
    /// [`incremental_seeds`](gp_algorithms::incremental_seeds) needs to
    /// warm-start from parent-epoch state. `None` for epoch 0.
    pub delta: Option<Arc<AppliedBatch>>,
}

/// What the store keeps of one retained epoch.
#[derive(Debug)]
struct Retained {
    number: u64,
    /// The epoch itself, while anyone holds it (the current one always).
    live: Weak<Epoch>,
    /// How to turn this epoch's graph back into its parent's; `None` for
    /// epoch 0.
    undo: Option<Arc<Undo>>,
}

/// The rows one batch changed, as they were before it.
#[derive(Debug)]
struct Undo {
    /// The batch, shared with its epoch; its `old_out` holds the parent's
    /// out-row of every source it changed.
    delta: Arc<AppliedBatch>,
    /// The parent's in-row of every destination it touched.
    old_in: Vec<(VertexId, Vec<EdgeRef>)>,
}

/// Atomically publishable store of the current [`Epoch`] plus a bounded
/// history of recent ones.
#[derive(Debug)]
pub struct SnapshotStore {
    current: RwLock<Arc<Epoch>>,
    /// The last `retain` epochs, ascending and dense; the last entry is
    /// the current epoch.
    history: Mutex<VecDeque<Retained>>,
    retain: usize,
}

impl SnapshotStore {
    /// Creates the store at epoch 0 with the given base snapshot,
    /// retaining up to `retain` recent epochs (minimum 1) for
    /// [`epoch`](SnapshotStore::epoch) lookups.
    pub fn new(base: GraphSnapshot, retain: usize) -> Self {
        let epoch0 = Arc::new(Epoch {
            number: 0,
            parent: 0,
            graph: base,
            delta: None,
        });
        let history = VecDeque::from([Retained {
            number: 0,
            live: Arc::downgrade(&epoch0),
            undo: None,
        }]);
        SnapshotStore {
            current: RwLock::new(epoch0),
            history: Mutex::new(history),
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
    /// returning its number. Single pointer swap on the read path; the
    /// new epoch's undo record is read off the epoch it replaced after the
    /// swap.
    pub fn publish(&self, graph: GraphSnapshot, delta: AppliedBatch) -> u64 {
        // The history lock orders publishes, and keeps lookups out until
        // the new epoch's record is in.
        let mut history = self.history.lock().expect("history lock poisoned");
        let delta = Arc::new(delta);
        let (next, parent) = {
            let mut current = self.current.write().expect("snapshot lock poisoned");
            let next = Arc::new(Epoch {
                number: current.number + 1,
                parent: current.number,
                graph,
                delta: Some(Arc::clone(&delta)),
            });
            let parent = std::mem::replace(&mut *current, Arc::clone(&next));
            (next, parent)
        };
        let undo = Undo {
            old_in: delta.old_in_rows(&parent.graph),
            delta,
        };
        history.push_back(Retained {
            number: next.number,
            live: Arc::downgrade(&next),
            undo: Some(Arc::new(undo)),
        });
        while history.len() > self.retain {
            history.pop_front();
        }
        drop(history);
        // Unless a reader holds it, the replaced epoch is freed here — with
        // the last base it pinned, after a compaction — outside both locks.
        drop(parent);
        next.number
    }

    /// Looks up a recent epoch by number, if still retained. An epoch
    /// someone holds comes back as that same `Arc`; any other is rebuilt
    /// from the nearest newer one held, by restoring the undo rows of the
    /// epochs between them newest-first — O(their deltas), not a read path
    /// operation (the executors read [`deltas`](SnapshotStore::deltas)).
    /// The rebuild holds one graph beyond what callers hold: the one it
    /// returns.
    pub fn epoch(&self, number: u64) -> Option<Arc<Epoch>> {
        let (newer, undos, delta) = {
            let history = self.history.lock().expect("history lock poisoned");
            let at = history.iter().position(|r| r.number == number)?;
            if let Some(epoch) = history[at].live.upgrade() {
                return Some(epoch);
            }
            let mut undos = Vec::new();
            let mut newer = None;
            for r in history.range(at + 1..) {
                undos.push(Arc::clone(
                    r.undo.as_ref().expect("only epoch 0 has no parent"),
                ));
                newer = r.live.upgrade();
                if newer.is_some() {
                    break;
                }
            }
            let delta = history[at].undo.as_ref().map(|u| Arc::clone(&u.delta));
            (newer.expect("the current epoch is held"), undos, delta)
        };
        let mut overlay = OverlayGraph::from(newer.graph.clone());
        drop(newer);
        for undo in undos.iter().rev() {
            overlay.restore_rows(&undo.delta.old_out, &undo.old_in);
        }
        let epoch = Arc::new(Epoch {
            number,
            parent: number.saturating_sub(1),
            graph: overlay.freeze(),
            delta,
        });
        // Later lookups share this rebuild while its caller holds it.
        let mut history = self.history.lock().expect("history lock poisoned");
        if let Some(r) = history.iter_mut().find(|r| r.number == number) {
            match r.live.upgrade() {
                Some(raced) => return Some(raced),
                None => r.live = Arc::downgrade(&epoch),
            }
        }
        Some(epoch)
    }

    /// The deltas that made each epoch in `numbers`, in order, or `None`
    /// if one is not retained or has no delta (epoch 0). Builds no graph:
    /// this is what a replay reads of its chain.
    pub fn deltas(&self, numbers: Range<u64>) -> Option<Vec<Arc<AppliedBatch>>> {
        let history = self.history.lock().expect("history lock poisoned");
        numbers
            .map(|n| {
                let r = history.iter().find(|r| r.number == n)?;
                r.undo.as_ref().map(|u| Arc::clone(&u.delta))
            })
            .collect()
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
        assert_eq!(store.epoch(4).unwrap().parent, 3);
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
