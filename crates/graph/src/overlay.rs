//! Mutable delta-overlay over a static CSR for streaming edge updates.
//!
//! [`OverlayGraph`] keeps a frozen [`CsrGraph`] base plus per-vertex
//! *patched* adjacency lists for the vertices touched by edge insertions
//! or deletions since the last compaction. A patched vertex's edge list
//! lives in a log-structured pool addressed *past* the base CSR's edge
//! array (a bump allocator hands out pool regions), which is how an
//! accelerator would stage updates without rewriting the packed CSR:
//! reads indirect through the patch table, writes append to the pool, and
//! a threshold-triggered [`OverlayGraph::compact`] folds everything back
//! into a fresh CSR.
//!
//! The overlay maintains both out- and in-adjacency so incremental
//! recomputation can walk the *reverse* graph of the mutated topology
//! (needed to re-derive a vertex's value from its in-neighbors after a
//! deletion invalidates it). Updates write out-rows only; an in-row is
//! derived, never edited: [`OverlayGraph::apply`] and
//! [`OverlayGraph::undo`] rebuild the in-row of each destination a batch
//! changed from the out-rows, once per batch, through one shared routine.
//!
//! All iteration orders are deterministic: patch tables are `BTreeMap`s
//! and patched lists stay sorted by neighbor id, matching the CSR's
//! neighbor-sorted invariant from [`GraphBuilder`](crate::GraphBuilder).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::view::GraphView;
use crate::{CsrGraph, EdgeRef, GraphBuilder, OutEdges, VertexId};

/// One edge mutation in an update stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeUpdate {
    /// Insert `src -> dst` with `weight` (ignored if the edge exists).
    Insert {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
        /// Edge weight (`1.0` for unweighted graphs).
        weight: f32,
    },
    /// Delete `src -> dst` (ignored if the edge is absent).
    Delete {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
    },
}

/// The **net** effect of a batch of [`EdgeUpdate`]s, as computed by
/// [`OverlayGraph::apply`]: the per-edge difference between the pre-batch
/// and post-batch adjacency. Intra-batch churn cancels — an edge deleted
/// and re-inserted at the same weight within one batch appears in neither
/// list, and an insert-then-delete leaves no trace. A weight change shows
/// up as a delete (old weight) plus an insert (new weight).
///
/// Incremental seeding rules need the *pre-batch* out-lists of every
/// net-changed source (degree changes redistribute PageRank shares;
/// deleted edges start monotone invalidation), so `apply` captures them
/// before mutating.
#[derive(Debug, Clone, Default)]
pub struct AppliedBatch {
    /// Net insertions `(src, dst, weight)`: absent before the batch,
    /// present after (at this weight). Sorted by `(src, dst)`.
    pub inserts: Vec<(VertexId, VertexId, f32)>,
    /// Net deletions `(src, dst, pre-batch weight)`: present before the
    /// batch, absent (or re-weighted) after. Sorted by `(src, dst)`.
    pub deletes: Vec<(VertexId, VertexId, f32)>,
    /// Pre-batch out-edge lists of every source with a net change, sorted
    /// by source id.
    pub old_out: Vec<(VertexId, Vec<EdgeRef>)>,
}

impl AppliedBatch {
    /// Whether the batch changed nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Appends `u`'s net change from `old` to `new` — a two-pointer diff
    /// of the neighbor-sorted rows; a re-weighted edge is a delete plus an
    /// insert — and `old` as its `old_out` row if anything changed. Calls
    /// must come in ascending `u` to keep the lists sorted.
    fn push_row_diff(&mut self, u: VertexId, old: Vec<EdgeRef>, new: OutEdges<'_>) {
        let mut changed = false;
        let (mut i, mut j) = (0, 0);
        while i < old.len() || j < new.len() {
            match (old.get(i), new.get(j)) {
                (Some(o), Some(n)) if o.other == n.other => {
                    if o.weight.to_bits() != n.weight.to_bits() {
                        self.deletes.push((u, o.other, o.weight));
                        self.inserts.push((u, n.other, n.weight));
                        changed = true;
                    }
                    i += 1;
                    j += 1;
                }
                (Some(o), Some(n)) if o.other < n.other => {
                    self.deletes.push((u, o.other, o.weight));
                    changed = true;
                    i += 1;
                }
                (Some(_), Some(n)) => {
                    self.inserts.push((u, n.other, n.weight));
                    changed = true;
                    j += 1;
                }
                (Some(o), None) => {
                    self.deletes.push((u, o.other, o.weight));
                    changed = true;
                    i += 1;
                }
                (None, Some(n)) => {
                    self.inserts.push((u, n.other, n.weight));
                    changed = true;
                    j += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        if changed {
            self.old_out.push((u, old));
        }
    }
}

/// A patched out-list: full replacement adjacency for one vertex, plus its
/// bump-allocated region in the patch pool.
#[derive(Debug, Clone)]
struct PatchList {
    /// Sorted by neighbor id, mirroring the CSR invariant.
    edges: Vec<(u32, f32)>,
    /// First edge slot of this list inside the patch pool.
    base_addr: usize,
    /// Slots reserved at `base_addr`; growing past it relocates the list.
    cap: usize,
}

/// A mutable graph: static CSR base + adjacency patches for updated
/// vertices. See the module-level docs above for the layout.
///
/// The adjacency is held *as* a [`GraphSnapshot`], written copy-on-write:
/// a mutator clones a patch table only if a frozen snapshot still shares
/// it, so [`OverlayGraph::freeze`] (and `clone`) is two reference-count
/// bumps and every read goes through the snapshot's one patch-aware
/// [`GraphView`] implementation.
#[derive(Debug, Clone)]
pub struct OverlayGraph {
    snap: GraphSnapshot,
}

impl OverlayGraph {
    /// Wraps `base` with an empty overlay.
    pub fn new(base: CsrGraph) -> Self {
        let live_edges = base.num_edges();
        OverlayGraph {
            snap: GraphSnapshot {
                base: Arc::new(base),
                out_patch: Arc::default(),
                in_patch: Arc::default(),
                pool_len: 0,
                live_edges,
            },
        }
    }

    /// The underlying static CSR (stale for patched vertices).
    pub fn base(&self) -> &CsrGraph {
        &self.snap.base
    }

    /// Freezes the current adjacency into an immutable [`GraphSnapshot`].
    ///
    /// Constant time: the base CSR and both patch tables are shared by
    /// `Arc`. Later mutations copy the table they touch before writing
    /// (O(patched vertices), paid once per freeze, and only if the
    /// snapshot is still alive), and [`OverlayGraph::compact`] swaps the
    /// base `Arc` instead of rebuilding in place — so the snapshot is
    /// untouched by both, which is what lets a serving layer pin epoch N
    /// while a writer publishes N+1.
    pub fn freeze(&self) -> GraphSnapshot {
        self.snap.clone()
    }

    /// Number of vertices with a patched out-list.
    pub fn patched_vertices(&self) -> usize {
        self.snap.patched_vertices()
    }

    /// Edge slots consumed by the patch pool since the last compaction.
    pub fn pool_edge_slots(&self) -> usize {
        self.snap.pool_len
    }

    /// Pool pressure: pool slots as a fraction of the base edge count.
    /// Drives threshold-triggered compaction.
    pub fn pool_fraction(&self) -> f64 {
        self.snap.pool_len as f64 / self.snap.base.num_edges().max(1) as f64
    }

    /// Whether edge `src -> dst` currently exists. A binary search:
    /// patched lists and the builder's CSR rows are both neighbor-sorted.
    pub fn contains_edge(&self, src: VertexId, dst: VertexId) -> bool {
        match self.snap.out_patch.get(&src.get()) {
            Some(patch) => patch
                .edges
                .binary_search_by_key(&dst.get(), |&(n, _)| n)
                .is_ok(),
            None => self
                .snap
                .base
                .out_neighbors(src)
                .binary_search(&dst)
                .is_ok(),
        }
    }

    /// Applies a batch of updates in order and returns the **net**
    /// adjacency diff (see [`AppliedBatch`]). No-op updates (inserting a
    /// present edge, deleting an absent one, self loops) are skipped, and
    /// intra-batch churn that cancels out — delete-then-reinsert at the
    /// same weight, insert-then-delete — is not reported: seeding rules
    /// must see only what actually changed between the pre- and post-batch
    /// graphs.
    ///
    /// The updates write out-rows only: an insert goes in at its
    /// neighbor-sorted place (the builder drops self loops, so the overlay
    /// refuses to insert one), and a delete removes the first of a
    /// parallel run. Each destination the net diff touches then has its
    /// in-row rebuilt from the out-rows, once, by the routine
    /// [`undo`](Self::undo) calls too.
    ///
    /// # Panics
    ///
    /// Panics, before anything changes, if an update names a vertex out of
    /// range; the message names the update and the vertex count.
    pub fn apply(&mut self, updates: &[EdgeUpdate]) -> AppliedBatch {
        let n = self.snap.num_vertices();
        for u in updates {
            let (EdgeUpdate::Insert { src, dst, .. } | EdgeUpdate::Delete { src, dst }) = *u;
            assert!(
                src.index() < n && dst.index() < n,
                "{u:?} out of range for {n} vertices"
            );
        }
        let mut captured: BTreeMap<u32, Vec<EdgeRef>> = BTreeMap::new();
        for &u in updates {
            let (EdgeUpdate::Insert { src, dst, .. } | EdgeUpdate::Delete { src, dst }) = u;
            let present = self.contains_edge(src, dst);
            match u {
                EdgeUpdate::Insert { .. } if present || src == dst => continue,
                EdgeUpdate::Delete { .. } if !present => continue,
                _ => {}
            }
            captured
                .entry(src.get())
                .or_insert_with(|| self.snap.out_edges(src).collect());
            let snap = &mut self.snap;
            let patch = ensure_out_patch(&snap.base, &mut snap.out_patch, &mut snap.pool_len, src);
            let at = patch.edges.partition_point(|&(n, _)| n < dst.get());
            let EdgeUpdate::Insert { weight, .. } = u else {
                patch.edges.remove(at);
                snap.live_edges -= 1;
                continue;
            };
            patch.edges.insert(at, (dst.get(), weight));
            snap.live_edges += 1;
            // Log-structured append: a list that outgrew its reservation moves
            // to a fresh pool region, and the old one leaks until compaction.
            if patch.edges.len() > patch.cap {
                patch.cap = pool_region(patch.edges.len());
                patch.base_addr = snap.pool_len;
                snap.pool_len += patch.cap;
            }
        }

        let mut batch = AppliedBatch::default();
        for (u, old) in captured {
            let u = VertexId::new(u);
            batch.push_row_diff(u, old, self.snap.out_edges(u));
        }
        self.snap.rebuild_in_rows(&batch);
        batch
    }

    /// Undoes `batch`, the last batch applied to this adjacency (or to
    /// the one it was frozen from): the adjacency becomes, row for row,
    /// the one the batch was applied to, self loops and parallel edges
    /// included.
    ///
    /// Each changed source gets its [`old_out`](AppliedBatch::old_out) row
    /// back, and each touched destination's in-row is rebuilt from the
    /// restored out-rows by the routine [`apply`](Self::apply) calls too.
    ///
    /// Every restored out-row takes a fresh pool region, so the result's
    /// pool layout ([`out_edge_base`](GraphView::out_edge_base),
    /// [`edge_span`](GraphView::edge_span)) is not the one the batch was
    /// applied to; only the adjacency is.
    pub fn undo(&mut self, batch: &AppliedBatch) {
        let snap = &mut self.snap;
        for (v, row) in &batch.old_out {
            snap.live_edges = snap.live_edges - snap.out_degree(*v) as usize + row.len();
            let cap = pool_region(row.len());
            let patch = PatchList {
                edges: row.iter().map(|e| (e.other.get(), e.weight)).collect(),
                base_addr: snap.pool_len,
                cap,
            };
            snap.pool_len += cap;
            Arc::make_mut(&mut snap.out_patch).insert(v.get(), patch);
        }
        snap.rebuild_in_rows(batch);
    }

    /// Folds every patch back into a fresh CSR base and resets the pool.
    /// Values computed on the overlay remain valid: compaction only
    /// changes the representation, never the edge multiset.
    ///
    /// A copy, not a rebuild: each direction is one pass over the vertices
    /// that bulk-copies the base's rows between patched vertices and
    /// splices each patched list in at its vertex. Both are already in
    /// canonical order — base rows are neighbor-sorted, base in-rows and
    /// patched in-lists are sorted by source — so the result is the CSR
    /// [`OverlayGraph::to_csr`] would build, with no sort and no scatter.
    pub fn compact(&mut self) {
        // No patches means an empty pool: slots are only ever reserved
        // for a patched out-list.
        if self.snap.out_patch.is_empty() && self.snap.in_patch.is_empty() {
            return;
        }
        let snap = &self.snap;
        let base = &snap.base;
        let out = merge_rows(
            base.out_parts(),
            snap.out_patch.iter().map(|(&v, p)| (v, p.edges.as_slice())),
            snap.live_edges,
        );
        let inn = merge_rows(
            base.in_parts(),
            snap.in_patch.iter().map(|(&v, l)| (v, l.as_slice())),
            snap.live_edges,
        );
        *self = OverlayGraph::new(CsrGraph::from_canonical_parts(out, inn, base.is_weighted()));
    }

    /// Compacts when pool pressure reaches `max_pool_fraction` of the base
    /// edge count; returns whether compaction ran.
    pub fn maybe_compact(&mut self, max_pool_fraction: f64) -> bool {
        if self.pool_fraction() >= max_pool_fraction && !self.snap.out_patch.is_empty() {
            self.compact();
            true
        } else {
            false
        }
    }

    /// Materializes the current (mutated) adjacency as a standalone CSR
    /// without clearing the overlay — the "from scratch on the mutated
    /// graph" side of differential tests, and the independent reference
    /// [`OverlayGraph::compact`] is checked against. Keeps whatever self
    /// loops and parallel edges the base carried: it is the exact edge
    /// multiset, rebuilt through [`GraphBuilder`].
    pub fn to_csr(&self) -> CsrGraph {
        let mut b = GraphBuilder::new(self.snap.num_vertices());
        b.weighted(self.snap.is_weighted())
            .drop_self_loops(false)
            .dedup(false);
        for v in self.snap.vertex_ids() {
            for e in self.snap.out_edges(v) {
                b.add_edge(v, e.other, e.weight);
            }
        }
        b.build()
    }
}

/// `v`'s patched out-list, created from its base row (with a fresh pool
/// region) on first touch. Copies the table first if a snapshot shares it.
fn ensure_out_patch<'a>(
    base: &CsrGraph,
    out_patch: &'a mut Arc<BTreeMap<u32, PatchList>>,
    pool_len: &mut usize,
    v: VertexId,
) -> &'a mut PatchList {
    Arc::make_mut(out_patch).entry(v.get()).or_insert_with(|| {
        let edges: Vec<(u32, f32)> = base
            .out_edges(v)
            .map(|e| (e.other.get(), e.weight))
            .collect();
        let cap = pool_region(edges.len());
        let base_addr = *pool_len;
        *pool_len += cap;
        PatchList {
            edges,
            base_addr,
            cap,
        }
    })
}

/// One direction of a compacted base: `base`'s `(offsets, neighbors,
/// weights)` with the row of every vertex in `patches` (ascending) replaced
/// by its list. Unpatched runs are copied in bulk, their offsets moved by
/// one shift; `edges` sizes the output.
fn merge_rows<'a>(
    base: (&[u32], &[VertexId], &[f32]),
    patches: impl Iterator<Item = (u32, &'a [(u32, f32)])>,
    edges: usize,
) -> (Vec<u32>, Vec<VertexId>, Vec<f32>) {
    let (offsets, neighbors, weights) = base;
    let n = offsets.len() - 1;
    let mut new_offsets = Vec::with_capacity(n + 1);
    let mut new_neighbors = Vec::with_capacity(edges);
    let mut new_weights = Vec::with_capacity(edges);
    new_offsets.push(0);
    let mut next = 0;
    // `(n, None)` closes the walk with the run after the last patch.
    for (v, list) in patches
        .map(|(v, list)| (v as usize, Some(list)))
        .chain([(n, None)])
    {
        // Base rows `next..v`, shifted to where the output stands.
        let (lo, hi) = (offsets[next], offsets[v]);
        let shift = (new_neighbors.len() as u32).wrapping_sub(lo);
        new_offsets.extend(offsets[next + 1..=v].iter().map(|&o| o.wrapping_add(shift)));
        new_neighbors.extend_from_slice(&neighbors[lo as usize..hi as usize]);
        new_weights.extend_from_slice(&weights[lo as usize..hi as usize]);
        if let Some(list) = list {
            new_neighbors.extend(list.iter().map(|&(u, _)| VertexId::new(u)));
            new_weights.extend(list.iter().map(|&(_, w)| w));
            new_offsets.push(new_neighbors.len() as u32);
            next = v + 1;
        }
    }
    debug_assert_eq!(new_neighbors.len(), edges);
    (new_offsets, new_neighbors, new_weights)
}

/// Pool reservation for a list of `len` edges: next power of two, min 2,
/// so repeated single-edge inserts amortize relocations.
fn pool_region(len: usize) -> usize {
    len.next_power_of_two().max(2)
}

/// An immutable, cheaply clonable point-in-time view of an
/// [`OverlayGraph`], produced by [`OverlayGraph::freeze`].
///
/// The base CSR and the patch tables are shared behind `Arc`s, so cloning
/// a snapshot (one reader pinning an epoch) is reference-count bumps.
/// Nothing can mutate a snapshot after it is frozen: the overlay's
/// mutators copy-on-write the patch tables and compaction replaces the
/// base `Arc`, never the CSR behind it. Reads see exactly the adjacency
/// the overlay had at freeze time — this type's [`GraphView`]
/// implementation *is* the overlay's read path.
#[derive(Debug, Clone)]
pub struct GraphSnapshot {
    base: Arc<CsrGraph>,
    out_patch: Arc<BTreeMap<u32, PatchList>>,
    /// In-lists of vertices whose in-adjacency changed; `(src, weight)`
    /// sorted by src. In-lists need no pool addresses (only the forward
    /// edge array is walked by the generation streams).
    in_patch: Arc<BTreeMap<u32, Vec<(u32, f32)>>>,
    /// Bump-allocator high-water mark of the patch pool, in edge slots.
    pool_len: usize,
    live_edges: usize,
}

impl GraphSnapshot {
    /// The static CSR this snapshot patches over (stale for patched
    /// vertices).
    pub fn base(&self) -> &CsrGraph {
        &self.base
    }

    /// Number of vertices with a patched out-list at freeze time.
    pub fn patched_vertices(&self) -> usize {
        self.out_patch.len()
    }

    /// Rebuilds the in-row of every destination `batch` changed from the
    /// current out-rows: the one routine that writes an in-row, run by
    /// [`OverlayGraph::apply`] and [`OverlayGraph::undo`] once their
    /// out-rows are final. The in-rows are the transpose of the out-rows,
    /// order included (the rule [`CsrGraph::check_invariants`] checks), so
    /// an in-row ascends by source and a parallel run in it keeps its
    /// out-row order: each changed source's entries, found by binary
    /// search in that source's row, are spliced in place over its old ones
    /// at its place in the in-row, and every other source's entries stay,
    /// with no sort and no copy of the row.
    fn rebuild_in_rows(&mut self, batch: &AppliedBatch) {
        // Every changed edge as `(dst, src)`, by destination, then source,
        // once (a re-weighted edge is in both lists).
        let mut changed: Vec<(VertexId, VertexId)> = (batch.inserts.iter().chain(&batch.deletes))
            .map(|&(s, d, _)| (d, s))
            .collect();
        changed.sort_unstable();
        changed.dedup();
        for edges in changed.chunk_by(|a, b| a.0 == b.0) {
            let d = edges[0].0;
            let list = Arc::make_mut(&mut self.in_patch)
                .entry(d.get())
                .or_insert_with(|| {
                    let row = self.base.in_edges(d);
                    row.map(|e| (e.other.get(), e.weight)).collect()
                });
            for &(_, s) in edges {
                let s = s.get();
                let below = list.partition_point(|&(v, _)| v < s);
                let past = list.partition_point(|&(v, _)| v <= s);
                // A changed source is patched: `apply` and `undo` wrote its row.
                let out = &self.out_patch[&s].edges;
                let from = out.partition_point(|&(n, _)| n < d.get());
                let run = &out[from..from + out[from..].partition_point(|&(n, _)| n == d.get())];
                list.splice(below..past, run.iter().map(|&(_, w)| (s, w)));
            }
        }
    }
}

impl GraphView for GraphSnapshot {
    fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.live_edges
    }

    fn edge_span(&self) -> usize {
        self.base.num_edges() + self.pool_len
    }

    fn is_weighted(&self) -> bool {
        self.base.is_weighted()
    }

    fn out_degree(&self, v: VertexId) -> u32 {
        match self.out_patch.get(&v.get()) {
            Some(patch) => patch.edges.len() as u32,
            None => self.base.out_degree(v),
        }
    }

    fn out_edges(&self, v: VertexId) -> OutEdges<'_> {
        match self.out_patch.get(&v.get()) {
            Some(patch) => OutEdges::patch(&patch.edges),
            None => self.base.out_edges(v),
        }
    }

    fn out_edge_base(&self, v: VertexId) -> usize {
        match self.out_patch.get(&v.get()) {
            Some(patch) => self.base.num_edges() + patch.base_addr,
            None => self.base.out_edge_base(v),
        }
    }

    fn in_degree(&self, v: VertexId) -> u32 {
        match self.in_patch.get(&v.get()) {
            Some(list) => list.len() as u32,
            None => self.base.in_degree(v),
        }
    }

    fn in_edges(&self, v: VertexId) -> OutEdges<'_> {
        match self.in_patch.get(&v.get()) {
            Some(list) => OutEdges::patch(list),
            None => self.base.in_edges(v),
        }
    }
}

/// An overlay that starts at a frozen snapshot: it shares the snapshot's
/// base and patch tables until its first write copies the table it
/// touches, so the snapshot stays as it was frozen.
impl From<GraphSnapshot> for OverlayGraph {
    fn from(snap: GraphSnapshot) -> Self {
        OverlayGraph { snap }
    }
}

impl GraphView for OverlayGraph {
    fn num_vertices(&self) -> usize {
        self.snap.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.snap.num_edges()
    }

    fn edge_span(&self) -> usize {
        self.snap.edge_span()
    }

    fn is_weighted(&self) -> bool {
        self.snap.is_weighted()
    }

    fn out_degree(&self, v: VertexId) -> u32 {
        self.snap.out_degree(v)
    }

    fn out_edges(&self, v: VertexId) -> OutEdges<'_> {
        self.snap.out_edges(v)
    }

    fn out_edge_base(&self, v: VertexId) -> usize {
        self.snap.out_edge_base(v)
    }

    fn in_degree(&self, v: VertexId) -> u32 {
        self.snap.in_degree(v)
    }

    fn in_edges(&self, v: VertexId) -> OutEdges<'_> {
        self.snap.in_edges(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{erdos_renyi, WeightMode};
    use crate::rng::{Rng, StdRng};

    fn v(i: u32) -> VertexId {
        VertexId::new(i)
    }

    fn base() -> CsrGraph {
        erdos_renyi(40, 200, WeightMode::Uniform(1.0, 9.0), 17)
    }

    fn ins(src: u32, dst: u32, weight: f32) -> EdgeUpdate {
        EdgeUpdate::Insert {
            src: v(src),
            dst: v(dst),
            weight,
        }
    }

    fn del(src: u32, dst: u32) -> EdgeUpdate {
        EdgeUpdate::Delete {
            src: v(src),
            dst: v(dst),
        }
    }

    /// A row as `(neighbor, weight)`, in stored order.
    fn row(it: OutEdges<'_>) -> Vec<(u32, f32)> {
        it.map(|e| (e.other.get(), e.weight)).collect()
    }

    /// Collects (src, dst, weight-bits) over any view, sorted.
    fn edge_set(g: &dyn GraphView) -> Vec<(u32, u32, u32)> {
        let mut out = Vec::new();
        for s in 0..g.num_vertices() as u32 {
            for e in g.out_edges(v(s)) {
                out.push((s, e.other.get(), e.weight.to_bits()));
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn fresh_overlay_mirrors_base() {
        let g = base();
        let o = OverlayGraph::new(g.clone());
        assert_eq!(edge_set(&o), edge_set(&g));
        assert_eq!(GraphView::num_edges(&o), g.num_edges());
        assert_eq!(o.edge_span(), g.num_edges());
        assert_eq!(o.pool_edge_slots(), 0);
    }

    #[test]
    fn insert_and_delete_round_trip() {
        let mut o = OverlayGraph::new(base());
        let before = edge_set(&o);
        // Find an absent edge deterministically.
        let (s, d) = (0..40u32)
            .flat_map(|s| (0..40u32).map(move |d| (s, d)))
            .find(|&(s, d)| s != d && !o.contains_edge(v(s), v(d)))
            .expect("sparse graph has absent edges");
        assert_eq!(o.apply(&[ins(s, d, 3.5)]).inserts, [(v(s), v(d), 3.5)]);
        assert!(o.apply(&[ins(s, d, 9.9)]).is_empty(), "duplicate insert");
        assert_eq!(o.apply(&[del(s, d)]).deletes, [(v(s), v(d), 3.5)]);
        assert!(o.apply(&[del(s, d)]).is_empty(), "double delete");
        assert_eq!(edge_set(&o), before);
    }

    #[test]
    fn self_loops_are_refused() {
        let mut o = OverlayGraph::new(base());
        let n = GraphView::num_edges(&o);
        assert!(o.apply(&[ins(3, 3, 1.0)]).is_empty());
        assert_eq!(GraphView::num_edges(&o), n);
    }

    #[test]
    fn deleting_one_of_parallel_edges_keeps_the_in_side_mirrored() {
        let mut b = GraphBuilder::new(3);
        b.weighted(true).dedup(false);
        for w in [1.0, 2.0, 3.0] {
            b.add_edge(v(0), v(1), w);
        }
        b.add_edge(v(2), v(1), 4.0);
        let mut o = OverlayGraph::new(b.build());
        o.apply(&[del(0, 1)]);
        assert_eq!(
            row(o.out_edges(v(0))),
            [(1, 2.0), (1, 3.0)],
            "first of the run"
        );
        assert_eq!(row(o.snap.in_edges(v(1))), [(0, 2.0), (0, 3.0), (2, 4.0)]);
        o.compact();
        assert_eq!(o.base(), &o.to_csr());
        assert_eq!(row(o.base().out_edges(v(0))), [(1, 2.0), (1, 3.0)]);
    }

    #[test]
    fn overlay_matches_materialized_csr_after_random_updates() {
        let g = base();
        let mut o = OverlayGraph::new(g);
        let mut rng = StdRng::seed_from_u64(5);
        let updates: Vec<EdgeUpdate> = (0..300)
            .map(|_| {
                let s = rng.gen_range(0..40u32);
                let d = rng.gen_range(0..40u32);
                if rng.gen_range(0..3u32) == 0 {
                    del(s, d)
                } else {
                    ins(s, d, rng.gen_range(1..10u32) as f32)
                }
            })
            .collect();
        for batch in updates.chunks(10) {
            o.apply(batch);
        }
        let snap = o.to_csr();
        snap.check_invariants().unwrap();
        assert_eq!(edge_set(&o), edge_set(&snap));
        assert_eq!(GraphView::num_edges(&o), snap.num_edges());
        // In-adjacency stays in sync with out-adjacency.
        for d in 0..40u32 {
            let mut via_in: Vec<(u32, u32)> = GraphView::in_edges(&o, v(d))
                .map(|e| (e.other.get(), e.weight.to_bits()))
                .collect();
            let mut via_out: Vec<(u32, u32)> = snap
                .in_edges(v(d))
                .map(|e| (e.other.get(), e.weight.to_bits()))
                .collect();
            via_in.sort_unstable();
            via_out.sort_unstable();
            assert_eq!(via_in, via_out, "in-list out of sync at vertex {d}");
        }
    }

    #[test]
    fn compaction_preserves_edges_and_resets_pool() {
        let mut o = OverlayGraph::new(base());
        let batch: Vec<_> = (0..15u32).map(|i| ins(i, (i + 20) % 40, 2.0)).collect();
        o.apply(&batch);
        assert!(o.pool_edge_slots() > 0);
        let before = edge_set(&o);
        o.compact();
        assert_eq!(edge_set(&o), before);
        assert_eq!(o.pool_edge_slots(), 0);
        assert_eq!(o.patched_vertices(), 0);
        assert_eq!(o.base().num_edges(), before.len());
    }

    #[test]
    fn maybe_compact_honors_threshold() {
        let mut o = OverlayGraph::new(base());
        o.apply(&[ins(0, 39, 1.0)]);
        assert!(!o.maybe_compact(10.0), "tiny pool must not compact");
        assert!(o.maybe_compact(0.0), "zero threshold always compacts");
        assert_eq!(o.pool_edge_slots(), 0);
    }

    #[test]
    fn patched_lists_live_past_the_base_edge_array() {
        let mut o = OverlayGraph::new(base());
        let base_edges = o.base().num_edges();
        o.apply(&[ins(7, 31, 1.0)]);
        assert!(GraphView::out_edge_base(&o, v(7)) >= base_edges);
        assert!(o.edge_span() > base_edges);
        // Untouched vertices keep their base addresses.
        assert_eq!(
            GraphView::out_edge_base(&o, v(8)),
            o.base().out_edge_base(v(8))
        );
    }

    #[test]
    fn freeze_mirrors_overlay_and_survives_mutation() {
        let mut o = OverlayGraph::new(base());
        let first = o.out_edges(v(2)).next().expect("vertex 2 has edges");
        o.apply(&[ins(1, 30, 5.0), del(2, first.other.get())]);
        let snap = o.freeze();
        let frozen = edge_set(&snap);
        assert_eq!(frozen, edge_set(&o), "snapshot mirrors overlay");
        assert_eq!(GraphView::num_edges(&snap), GraphView::num_edges(&o));
        // Mutating the overlay after freeze must not leak into the
        // snapshot (copy-on-write patch tables).
        o.apply(&[ins(5, 25, 7.0), del(1, 30)]);
        assert_eq!(
            edge_set(&snap),
            frozen,
            "snapshot mutated by overlay writes"
        );
        assert_ne!(edge_set(&o), frozen);
    }

    #[test]
    fn freeze_survives_compaction() {
        let mut o = OverlayGraph::new(base());
        let batch: Vec<_> = (0..10u32).map(|i| ins(i, (i + 13) % 40, 2.5)).collect();
        o.apply(&batch);
        let snap = o.freeze();
        let frozen = edge_set(&snap);
        assert!(snap.patched_vertices() > 0);
        // Compaction swaps the overlay's base Arc; the snapshot keeps the
        // base it was frozen against and stays bit-identical.
        o.apply(&[ins(20, 3, 9.0)]);
        o.compact();
        assert_eq!(o.patched_vertices(), 0);
        assert_eq!(
            edge_set(&snap),
            frozen,
            "compaction disturbed a pinned snapshot"
        );
        assert_eq!(snap.base().num_edges(), base().num_edges());
        // In-adjacency is frozen too.
        let d = v(13);
        let in_list: Vec<u32> = snap.in_edges(d).map(|e| e.other.get()).collect();
        assert!(in_list.contains(&0), "inserted in-edge 0->13 missing");
    }

    #[test]
    fn snapshot_clone_is_shallow_and_identical() {
        let mut o = OverlayGraph::new(base());
        o.apply(&[ins(4, 17, 1.5)]);
        let a = o.freeze();
        let b = a.clone();
        assert_eq!(edge_set(&a), edge_set(&b));
        assert_eq!(a.edge_span(), b.edge_span());
    }

    #[test]
    fn apply_reports_effective_updates_and_old_lists() {
        let mut o = OverlayGraph::new(base());
        let old_deg0 = GraphView::out_degree(&o, v(0));
        let existing = o.base().out_edges(v(0)).next().expect("vertex 0 has edges");
        let absent = (1..40u32)
            .find(|&d| !o.contains_edge(v(0), v(d)))
            .expect("absent edge");
        let batch = o.apply(&[
            EdgeUpdate::Insert {
                src: v(0),
                dst: v(absent),
                weight: 4.0,
            },
            EdgeUpdate::Insert {
                src: v(0),
                dst: existing.other,
                weight: 9.0,
            }, // no-op
            EdgeUpdate::Delete {
                src: v(0),
                dst: existing.other,
            },
            EdgeUpdate::Delete {
                src: v(1),
                dst: v(1),
            }, // no-op (self loop can't exist)
        ]);
        assert_eq!(batch.inserts, vec![(v(0), v(absent), 4.0)]);
        assert_eq!(batch.deletes.len(), 1);
        assert_eq!(batch.deletes[0].0, v(0));
        assert_eq!(batch.old_out.len(), 1);
        assert_eq!(batch.old_out[0].0, v(0));
        assert_eq!(batch.old_out[0].1.len(), old_deg0 as usize);
        // Old list is pre-batch: it contains the deleted edge, not the
        // inserted one.
        assert!(batch.old_out[0].1.iter().any(|e| e.other == existing.other));
        assert!(!batch.old_out[0].1.iter().any(|e| e.other == v(absent)));
    }

    #[test]
    fn apply_refuses_an_out_of_range_endpoint_before_any_change() {
        let g = erdos_renyi(8, 16, WeightMode::Unweighted, 2);
        let rows = |o: &OverlayGraph| {
            (0..8)
                .map(|s| (row(o.out_edges(v(s))), row(o.in_edges(v(s)))))
                .collect::<Vec<_>>()
        };
        let absent = (1..8u32)
            .find(|&d| !OverlayGraph::new(g.clone()).contains_edge(v(0), v(d)))
            .expect("absent edge");
        for bad in [del(0, 8), ins(8, 0, 1.0), ins(0, 8, 1.0)] {
            let mut o = OverlayGraph::new(g.clone());
            let before = rows(&o);
            // A good update ahead of the bad one: nothing may be applied.
            let updates = [ins(0, absent, 1.0), del(1, 2), bad];
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| o.apply(&updates)))
                .expect_err("out-of-range update applied");
            let msg = err.downcast_ref::<String>().expect("formatted message");
            assert_eq!(*msg, format!("{bad:?} out of range for 8 vertices"));
            assert_eq!(rows(&o), before, "{bad:?} changed the overlay");
            assert_eq!(GraphView::num_edges(&o), g.num_edges());
        }
    }
}
