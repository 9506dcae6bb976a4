//! Incremental recomputation rules for streaming edge updates.
//!
//! Given an algorithm's *converged* state on a graph and a batch of edge
//! insertions/deletions, this module computes the **seed plan**: the
//! smallest set of state resets and initial events from which the normal
//! event-driven engines re-converge to the same values a from-scratch run
//! on the mutated graph would produce. This is the payoff of the
//! delta-accumulative form (§II-B): updates only perturb the affected
//! frontier, so re-convergence is seeded there instead of restarting.
//!
//! Two seeding strategies cover the Table II algorithms:
//!
//! * [`SeedingStrategy::DeltaCorrection`] (PageRank-Delta): reduce is
//!   invertible (`+`), so edge changes at a source `u` are repaired by
//!   *correction events* — for every pre-batch out-edge, retract the share
//!   `u` historically sent (`negate(propagate(...))` under the old degree),
//!   and for every post-batch out-edge, grant the share under the new
//!   degree. Targets whose net correction is non-zero become the dirty
//!   frontier.
//! * [`SeedingStrategy::Monotone`] (SSSP/BFS/CC/SSWP): reduce is a
//!   selection (`min`/`max`) with no inverse, so deletions may strand
//!   values that are no longer derivable. Stranded vertices are found by
//!   *invalidation* (see [`Invalidation`]), reset to their init value, and
//!   re-seeded from their surviving in-neighbors; insertions just seed the
//!   propagated contribution at the new target.
//!
//! The two invalidation modes differ in how they prove a value stranded:
//!
//! * [`Invalidation::SupportTest`] — Ramalingam–Reps-style: a suspect is
//!   kept only if no intact in-neighbor still *supports* its value
//!   (re-derives it exactly). Sound only when propagation is strictly
//!   worse-making along cycles (SSSP with positive weights, BFS), so a
//!   cycle cannot support itself.
//! * [`Invalidation::Reachability`] — conservative closure: everything
//!   flow-consistently reachable from a suspect is invalidated, without
//!   support checks. Required for CC and SSWP, where a cycle of equal
//!   values *can* self-support under pass-through / min-capped propagation
//!   and the support test would wrongly keep stale values alive.
//!
//! # Accumulation
//!
//! Every seed event is deposited into a [`DeltaPool`] — the dense
//! coalescing column the turbo backend sweeps, one pending delta and one
//! bit per vertex — in the order the rules above generate them, so the
//! events bound for one target coalesce in arrival order. The plan is one
//! drain of the pool: bitmap words in ascending order, each bit cleared as
//! it is taken, no-op seeds dropped. A drained pool is empty again, so an
//! owner that streams batches keeps one across them
//! ([`incremental_seeds_with`]) and each plan costs the deposits it takes
//! plus one pass over the `n / 64` bitmap words;
//! [`incremental_seeds`] builds a fresh one per call.
//!
//! # Residual
//!
//! [`residual_seeds_with`] needs no batch: it seeds a state's residual
//! `F(x) − x` on the current graph, which an invertible reduce converges
//! from whatever graph `x` was computed on. It is how `gp-serve` brings a
//! stale PageRank column to the pinned epoch without reading the chain
//! of batches it missed.

use std::collections::{BTreeSet, VecDeque};

use gp_graph::{AppliedBatch, EdgeRef, GraphView, VertexId};

use crate::engine::for_each_propagated;
use crate::{DeltaAlgorithm, DeltaPool};

/// How stranded values are detected after edge deletions (monotone
/// algorithms only). See the [module docs](self) for the soundness
/// argument behind each mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invalidation {
    /// Keep a suspect unless an intact in-neighbor re-derives its exact
    /// value. Requires strictly worse-making propagation along cycles.
    SupportTest,
    /// Invalidate the whole flow-consistent closure of the suspects.
    /// Conservative; sound for self-supporting-cycle algorithms.
    Reachability,
}

/// Per-algorithm rule for turning an [`AppliedBatch`] into seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedingStrategy {
    /// Invertible reduce: emit retract/grant correction events (PR-Delta).
    DeltaCorrection,
    /// Selective reduce: invalidate, reset, and re-seed from survivors.
    Monotone(Invalidation),
}

/// A [`DeltaAlgorithm`] that supports incremental recomputation.
///
/// Its delta is its value type: a *converged* vertex value is the basis
/// the vertex has propagated (delta-correction) or would propagate to
/// support a neighbor (monotone) — what edge updates perturb.
pub trait IncrementalAlgorithm: DeltaAlgorithm<Delta = <Self as DeltaAlgorithm>::Value> {
    /// Which seeding rule applies to this algorithm.
    fn strategy(&self) -> SeedingStrategy;

    /// Inverse of `delta` under [`coalesce`](DeltaAlgorithm::coalesce):
    /// `coalesce(d, negate(d))` must be the identity. Only invoked for
    /// [`SeedingStrategy::DeltaCorrection`]; the default (the identity
    /// delta) suits monotone algorithms, which never retract.
    fn negate(&self, _delta: Self::Delta) -> Self::Delta {
        self.identity_delta()
    }
}

/// Output of [`incremental_seeds`]: the events to inject and the vertices
/// whose state was reset, both sorted by vertex id (deterministic).
#[derive(Debug, Clone)]
pub struct SeedPlan<D> {
    /// One coalesced seed event per dirty vertex. Seeds that would not
    /// change the vertex's state are already filtered out.
    pub seeds: Vec<(VertexId, D)>,
    /// Vertices reset to their init value (monotone deletions only).
    pub invalidated: Vec<VertexId>,
}

impl<D> SeedPlan<D> {
    /// Number of distinct vertices receiving a seed event.
    pub fn dirty_vertices(&self) -> usize {
        self.seeds.len()
    }
}

/// Computes the seed plan for re-converging `values` after `batch`.
///
/// `graph` must be the **post-batch** topology (the overlay after
/// [`OverlayGraph::apply`](gp_graph::OverlayGraph::apply)); `values` the
/// state the algorithm had converged to **before** the batch. Invalidated
/// entries of `values` are reset in place; feed the result straight into
/// [`run_sequential_seeded`](crate::engine::run_sequential_seeded) (or the
/// accelerator's seeded mode) to re-converge.
///
/// Accumulates in a fresh [`DeltaPool`]; a caller that streams batches
/// keeps one and calls [`incremental_seeds_with`], which returns the same
/// plan.
///
/// # Panics
///
/// Panics if `values.len() != graph.num_vertices()`.
pub fn incremental_seeds<A: IncrementalAlgorithm, G: GraphView>(
    algo: &A,
    graph: &G,
    values: &mut [A::Value],
    batch: &AppliedBatch,
) -> SeedPlan<A::Delta> {
    let mut pool = DeltaPool::new(algo, graph.num_vertices());
    incremental_seeds_with(&mut pool, algo, graph, values, batch)
}

/// [`incremental_seeds`] accumulating in the caller's `pool`, which must be
/// empty (every plan leaves it so) and sized for the graph: the resident
/// form, whose cost is the deposits the batch generates, not the vertex
/// count.
///
/// # Panics
///
/// Panics if `values.len()` or `pool.num_vertices()` differs from
/// `graph.num_vertices()`.
pub fn incremental_seeds_with<A: IncrementalAlgorithm, G: GraphView>(
    pool: &mut DeltaPool<A>,
    algo: &A,
    graph: &G,
    values: &mut [A::Value],
    batch: &AppliedBatch,
) -> SeedPlan<A::Delta> {
    check_sizes(pool, graph.num_vertices(), values.len());
    let invalidated = deposit_seeds(algo, graph, values, batch, |t, d| {
        pool.deposit(algo, t.get(), d);
    });
    let seeds = drain(pool, algo, values);
    SeedPlan { seeds, invalidated }
}

/// The seed plan that takes *any* state `values` to `graph`'s fixed point:
/// its residual `F(x) − x` on `graph`, the deltas §II-B's accumulative
/// form adds to `x`. For each vertex `v` in ascending order it deposits
/// `negate(x_v)`, then `v`'s initial delta, then `v`'s out-shares of
/// `x_v`, and drains the pool through the same no-op filter as
/// [`incremental_seeds_with`]. `values` is not touched.
///
/// For an invertible reduce ([`SeedingStrategy::DeltaCorrection`]) a
/// seeded run from this plan converges from any `x` on any graph, since
/// `(I − αPᵀ)(x* − x) = r`: a stale column needs no chain of the deltas
/// it missed, and the run ends as close to the fixed point as a cold run
/// does, where chained corrections add up each batch's drift. On
/// `initial_state` values the plan is that function's seed list, so a
/// cold run is its special case. It costs one deposit per edge and
/// vertex, where a correction plan costs the batch's rows.
///
/// # Panics
///
/// Panics if `values.len()` or `pool.num_vertices()` differs from
/// `graph.num_vertices()`.
pub fn residual_seeds_with<A: IncrementalAlgorithm, G: GraphView>(
    pool: &mut DeltaPool<A>,
    algo: &A,
    graph: &G,
    values: &[A::Value],
) -> SeedPlan<A::Delta> {
    check_sizes(pool, graph.num_vertices(), values.len());
    for v in graph.vertex_ids() {
        let x = values[v.index()];
        pool.deposit(algo, v.get(), algo.negate(x));
        if let Some(d) = algo.initial_delta(v) {
            pool.deposit(algo, v.get(), d);
        }
        for_each_propagated(algo, graph, v, x, |t, d| pool.deposit(algo, t.get(), d));
    }
    let seeds = drain(pool, algo, values);
    SeedPlan {
        seeds,
        invalidated: Vec::new(),
    }
}

/// The size checks of a seed plan for `values` in a caller's pool on an
/// `n`-vertex graph.
fn check_sizes<A: DeltaAlgorithm>(pool: &DeltaPool<A>, n: usize, values: usize) {
    assert_eq!(values, n, "state length must match the vertex count");
    assert_eq!(
        pool.num_vertices(),
        n,
        "seed pool sized for {} vertices, graph has {n}",
        pool.num_vertices()
    );
    debug_assert!(!pool.has_active(), "seed pool holds a stale delta");
}

/// Drains `pool` into a plan's seeds, leaving it empty. Seeds the reduce
/// operator would ignore are dropped; what survives is exactly the dirty
/// frontier.
fn drain<A: DeltaAlgorithm>(
    pool: &mut DeltaPool<A>,
    algo: &A,
    values: &[A::Value],
) -> Vec<(VertexId, A::Delta)> {
    let mut seeds = Vec::new();
    pool.sweep(|_, t, d| {
        if algo.reduce(values[t], d) != values[t] {
            seeds.push((VertexId::from_index(t), d));
        }
    });
    pool.take_counts();
    seeds
}

/// Generates every seed event of `batch` into `deposit`, in the order
/// coalescing must see them, resets the invalidated vertices in `values`
/// and returns them ascending.
fn deposit_seeds<A: IncrementalAlgorithm, G: GraphView>(
    algo: &A,
    graph: &G,
    values: &mut [A::Value],
    batch: &AppliedBatch,
    mut deposit: impl FnMut(VertexId, A::Delta),
) -> Vec<VertexId> {
    match algo.strategy() {
        SeedingStrategy::DeltaCorrection => {
            delta_correction_seeds(algo, graph, values, batch, &mut deposit);
            Vec::new()
        }
        SeedingStrategy::Monotone(inv) => {
            monotone_seeds(algo, graph, values, batch, inv, &mut deposit)
        }
    }
}

fn delta_correction_seeds<A: IncrementalAlgorithm, G: GraphView>(
    algo: &A,
    graph: &G,
    values: &[A::Value],
    batch: &AppliedBatch,
    deposit: &mut impl FnMut(VertexId, A::Delta),
) {
    for &(u, ref old_edges) in &batch.old_out {
        let basis = values[u.index()];
        // Retract what `u` sent under its old list and degree...
        let old_deg = old_edges.len() as u32;
        for &e in old_edges {
            if let Some(share) = algo.propagate(basis, u, old_deg, e) {
                deposit(e.other, algo.negate(share));
            }
        }
        // ...and grant what it sends under the new ones. Unchanged targets
        // still shift when the degree changes (the share is `α·v/deg`).
        for_each_propagated(algo, graph, u, basis, &mut *deposit);
    }
}

/// Pre-batch out-degree of `u` (every effectively touched source has its
/// old list captured in the batch).
fn old_degree(batch: &AppliedBatch, u: VertexId) -> Option<u32> {
    batch
        .old_out
        .binary_search_by_key(&u.get(), |e| e.0.get())
        .ok()
        .map(|i| batch.old_out[i].1.len() as u32)
}

fn monotone_seeds<A: IncrementalAlgorithm, G: GraphView>(
    algo: &A,
    graph: &G,
    values: &mut [A::Value],
    batch: &AppliedBatch,
    invalidation: Invalidation,
    deposit: &mut impl FnMut(VertexId, A::Delta),
) -> Vec<VertexId> {
    // 1. Suspects: a deleted edge (u, t) strands t only if the value u
    //    propagated along it reproduces t's current value.
    let mut suspects: BTreeSet<u32> = BTreeSet::new();
    for &(u, t, w) in &batch.deletes {
        if values[t.index()] == algo.init_value(t) {
            continue;
        }
        let old_deg = old_degree(batch, u).expect("deleted edge source has a captured old list");
        let edge = EdgeRef {
            other: t,
            weight: w,
        };
        if let Some(c) = algo.propagate(values[u.index()], u, old_deg, edge) {
            if algo.reduce(algo.init_value(t), c) == values[t.index()] {
                suspects.insert(t.get());
            }
        }
    }

    // 2. Close the suspect set into the invalidated set.
    let invalid = match invalidation {
        Invalidation::SupportTest => support_test_closure(algo, graph, values, &suspects),
        Invalidation::Reachability => reachability_closure(algo, graph, values, &suspects),
    };

    // 3. Reset, then re-seed each invalidated vertex from its own initial
    //    delta and from intact in-neighbors (post-batch adjacency, so
    //    inserted edges into the region are covered here).
    for &t in &invalid {
        let t = VertexId::new(t);
        values[t.index()] = algo.init_value(t);
    }
    for &t in &invalid {
        let t = VertexId::new(t);
        if let Some(d) = algo.initial_delta(t) {
            deposit(t, d);
        }
        graph.in_edges(t).for_each(|e| {
            let s = e.other;
            if invalid.contains(&s.get()) {
                return;
            }
            let se = EdgeRef {
                other: t,
                weight: e.weight,
            };
            if let Some(c) = algo.propagate(values[s.index()], s, graph.out_degree(s), se) {
                deposit(t, c);
            }
        });
    }

    // 4. Insertions between intact vertices seed the propagated
    //    contribution directly. (An invalidated source re-propagates over
    //    all its out-edges when it re-converges; an invalidated target was
    //    already re-seeded over all its in-edges above.)
    for &(u, t, w) in &batch.inserts {
        if invalid.contains(&u.get()) || invalid.contains(&t.get()) {
            continue;
        }
        let edge = EdgeRef {
            other: t,
            weight: w,
        };
        if let Some(c) = algo.propagate(values[u.index()], u, graph.out_degree(u), edge) {
            deposit(t, c);
        }
    }

    invalid.into_iter().map(VertexId::new).collect()
}

/// Whether some intact source (or the vertex's own initial delta) still
/// re-derives `values[t]` exactly.
fn is_supported<A: IncrementalAlgorithm, G: GraphView>(
    algo: &A,
    graph: &G,
    values: &[A::Value],
    invalid: &BTreeSet<u32>,
    t: VertexId,
) -> bool {
    let init = algo.init_value(t);
    if let Some(d) = algo.initial_delta(t) {
        if algo.reduce(init, d) == values[t.index()] {
            return true;
        }
    }
    for e in graph.in_edges(t) {
        let s = e.other;
        if invalid.contains(&s.get()) {
            continue;
        }
        let se = EdgeRef {
            other: t,
            weight: e.weight,
        };
        if let Some(c) = algo.propagate(values[s.index()], s, graph.out_degree(s), se) {
            if algo.reduce(init, c) == values[t.index()] {
                return true;
            }
        }
    }
    false
}

fn support_test_closure<A: IncrementalAlgorithm, G: GraphView>(
    algo: &A,
    graph: &G,
    values: &[A::Value],
    suspects: &BTreeSet<u32>,
) -> BTreeSet<u32> {
    let mut invalid: BTreeSet<u32> = BTreeSet::new();
    let mut queue: VecDeque<u32> = suspects.iter().copied().collect();
    let mut queued: BTreeSet<u32> = suspects.clone();
    while let Some(t) = queue.pop_front() {
        queued.remove(&t);
        if invalid.contains(&t) {
            continue;
        }
        let tid = VertexId::new(t);
        if is_supported(algo, graph, values, &invalid, tid) {
            continue;
        }
        invalid.insert(t);
        // Every flow-consistent out-neighbor may have leaned on t; re-check
        // it (a vertex cleared earlier can be re-suspected — each
        // invalidation re-examines its dependents, so the loop reaches the
        // greatest fixpoint of "supported").
        let row = graph.out_edges(tid);
        let deg = row.len() as u32;
        let basis = values[tid.index()];
        row.for_each(|e| {
            let w = e.other;
            if invalid.contains(&w.get()) || values[w.index()] == algo.init_value(w) {
                return;
            }
            if let Some(c) = algo.propagate(basis, tid, deg, e) {
                if algo.reduce(algo.init_value(w), c) == values[w.index()] && queued.insert(w.get())
                {
                    queue.push_back(w.get());
                }
            }
        });
    }
    invalid
}

fn reachability_closure<A: IncrementalAlgorithm, G: GraphView>(
    algo: &A,
    graph: &G,
    values: &[A::Value],
    suspects: &BTreeSet<u32>,
) -> BTreeSet<u32> {
    let mut invalid: BTreeSet<u32> = suspects.clone();
    let mut queue: VecDeque<u32> = suspects.iter().copied().collect();
    while let Some(t) = queue.pop_front() {
        let tid = VertexId::new(t);
        let row = graph.out_edges(tid);
        let deg = row.len() as u32;
        let basis = values[tid.index()];
        row.for_each(|e| {
            let w = e.other;
            if invalid.contains(&w.get()) || values[w.index()] == algo.init_value(w) {
                return;
            }
            if let Some(c) = algo.propagate(basis, tid, deg, e) {
                if algo.reduce(algo.init_value(w), c) == values[w.index()] {
                    invalid.insert(w.get());
                    queue.push_back(w.get());
                }
            }
        });
    }
    invalid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{initial_state, run_sequential, run_sequential_seeded};
    use crate::{Bfs, ConnectedComponents, PageRankDelta, Sssp, Sswp};
    use gp_graph::generators::{erdos_renyi, WeightMode};
    use gp_graph::rng::{Rng, StdRng};
    use gp_graph::{EdgeUpdate, OverlayGraph};

    fn random_batch(o: &OverlayGraph, rng: &mut StdRng, count: usize) -> Vec<EdgeUpdate> {
        let n = o.base().num_vertices() as u32;
        (0..count)
            .map(|_| {
                let src = VertexId::new(rng.gen_range(0..n));
                let dst = VertexId::new(rng.gen_range(0..n));
                if rng.gen_range(0..2u32) == 0 {
                    EdgeUpdate::Delete { src, dst }
                } else {
                    EdgeUpdate::Insert {
                        src,
                        dst,
                        weight: rng.gen_range(1.0..9.0f32),
                    }
                }
            })
            .collect()
    }

    /// Converge, mutate, re-converge incrementally; compare against a
    /// from-scratch run on the mutated graph.
    fn check<A: IncrementalAlgorithm>(algo: &A, weights: WeightMode, seed: u64, tol: f64) {
        let g = erdos_renyi(80, 400, weights, seed);
        let mut o = OverlayGraph::new(g);
        let (mut values, seeds) = initial_state(algo, &o);
        run_sequential_seeded(algo, &o, &mut values, &seeds);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        for round in 0..6 {
            let updates = random_batch(&o, &mut rng, 12);
            let batch = o.apply(&updates);
            let plan = incremental_seeds(algo, &o, &mut values, &batch);
            let inc = run_sequential_seeded(algo, &o, &mut values, &plan.seeds);
            let scratch = run_sequential(algo, &o.to_csr());
            assert!(
                crate::max_abs_diff(&inc.values, &scratch.values) <= tol,
                "{} diverged at round {round}: {:e} > {tol:e}",
                algo.name(),
                crate::max_abs_diff(&inc.values, &scratch.values)
            );
        }
    }

    #[test]
    fn pagerank_incremental_matches_scratch() {
        check(
            &PageRankDelta::new(0.85, 1e-12),
            WeightMode::Unweighted,
            11,
            1e-6,
        );
    }

    #[test]
    fn sssp_incremental_matches_scratch() {
        check(
            &Sssp::new(VertexId::new(0)),
            WeightMode::Uniform(1.0, 10.0),
            12,
            0.0,
        );
    }

    #[test]
    fn bfs_incremental_matches_scratch() {
        check(&Bfs::new(VertexId::new(0)), WeightMode::Unweighted, 13, 0.0);
    }

    #[test]
    fn cc_incremental_matches_scratch() {
        check(&ConnectedComponents::new(), WeightMode::Unweighted, 14, 0.0);
    }

    #[test]
    fn sswp_incremental_matches_scratch() {
        check(
            &Sswp::new(VertexId::new(0)),
            WeightMode::Uniform(1.0, 10.0),
            15,
            0.0,
        );
    }

    #[test]
    fn empty_batch_seeds_nothing() {
        let g = erdos_renyi(30, 120, WeightMode::Unweighted, 3);
        let mut o = OverlayGraph::new(g);
        let algo = ConnectedComponents::new();
        let (mut values, seeds) = initial_state(&algo, &o);
        run_sequential_seeded(&algo, &o, &mut values, &seeds);
        let batch = o.apply(&[]);
        let plan = incremental_seeds(&algo, &o, &mut values, &batch);
        assert!(plan.seeds.is_empty());
        assert!(plan.invalidated.is_empty());
    }

    /// The sparse reference accumulator: a `BTreeMap` keyed by vertex,
    /// coalescing in arrival order, iterated ascending, no-op seeds
    /// dropped.
    fn reference_plan<A: IncrementalAlgorithm, G: GraphView>(
        algo: &A,
        graph: &G,
        values: &mut [A::Value],
        batch: &AppliedBatch,
    ) -> SeedPlan<A::Delta> {
        let mut map: std::collections::BTreeMap<u32, A::Delta> = Default::default();
        let invalidated = deposit_seeds(algo, graph, values, batch, |t, d| {
            map.entry(t.get())
                .and_modify(|p| *p = algo.coalesce(*p, d))
                .or_insert(d);
        });
        let seeds = map
            .into_iter()
            .map(|(t, d)| (VertexId::new(t), d))
            .filter(|&(t, d)| algo.reduce(values[t.index()], d) != values[t.index()])
            .collect();
        SeedPlan { seeds, invalidated }
    }

    /// A base graph with a hub: vertex `hub` points at every third vertex,
    /// vertices 0 and n − 1 are linked both ways, and every vertex has two
    /// random out-edges.
    fn hub_graph(n: usize, hub: u32, weights: WeightMode, rng: &mut StdRng) -> gp_graph::CsrGraph {
        let mut b = gp_graph::GraphBuilder::new(n);
        b.weighted(true);
        let weight = |rng: &mut StdRng| match weights {
            WeightMode::Unweighted => 1.0,
            WeightMode::Uniform(lo, hi) => rng.gen_range(lo..hi),
        };
        let v = VertexId::new;
        let last = n as u32 - 1;
        for t in (0..n as u32).step_by(3) {
            let w = weight(rng);
            b.add_edge(v(hub), v(t), w);
        }
        for (s, t) in [(0, last), (last, 0)] {
            let w = weight(rng);
            b.add_edge(v(s), v(t), w);
        }
        for s in 0..n as u32 {
            for _ in 0..2 {
                let t = rng.gen_range(0..n as u32);
                let w = weight(rng);
                b.add_edge(v(s), v(t), w);
            }
        }
        b.build()
    }

    /// Round `r`'s batch: mixed, delete-only, hub-sourced, or on the
    /// endpoints 0 and n − 1, in rotation.
    fn property_batch(
        o: &OverlayGraph,
        hub: u32,
        round: usize,
        weights: WeightMode,
        rng: &mut StdRng,
    ) -> Vec<EdgeUpdate> {
        let n = o.base().num_vertices() as u32;
        let last = n - 1;
        let mut updates = Vec::new();
        for _ in 0..12 {
            let (src, delete) = match round % 4 {
                0 => (rng.gen_range(0..n), rng.gen_bool(0.5)),
                1 => (rng.gen_range(0..n), true),
                2 => (hub, rng.gen_bool(0.5)),
                _ => ([0, last][rng.gen_range(0..2usize)], rng.gen_bool(0.5)),
            };
            let src = VertexId::new(src);
            let row: Vec<VertexId> = o.out_edges(src).map(|e| e.other).collect();
            if delete && !row.is_empty() {
                let dst = row[rng.gen_range(0..row.len())];
                updates.push(EdgeUpdate::Delete { src, dst });
            } else if !delete {
                let dst = match round % 4 {
                    3 => VertexId::new([0, last][rng.gen_range(0..2usize)]),
                    _ => VertexId::new(rng.gen_range(0..n)),
                };
                let weight = match weights {
                    WeightMode::Unweighted => 1.0,
                    WeightMode::Uniform(lo, hi) => rng.gen_range(lo..hi),
                };
                updates.push(EdgeUpdate::Insert { src, dst, weight });
            }
        }
        updates
    }

    /// The dense plan — from a pool kept across batches and from a fresh
    /// one — equals the `BTreeMap` reference: seed vertices, delta bits,
    /// invalidated vertices and the reset values, batch after batch.
    fn check_plans_match_reference<A: IncrementalAlgorithm>(
        algo: &A,
        weights: WeightMode,
        bits: fn(A::Delta) -> u64,
    ) {
        for n in [1usize, 63, 64, 65, 200] {
            for seed in 0..3u64 {
                let mut rng = StdRng::seed_from_u64(seed ^ ((n as u64) << 8));
                let hub = [0, n as u32 - 1, rng.gen_range(0..n as u32)][seed as usize];
                let mut o = OverlayGraph::new(hub_graph(n, hub, weights, &mut rng));
                let (mut values, seeds) = initial_state(algo, &o);
                run_sequential_seeded(algo, &o, &mut values, &seeds);
                let mut pool = DeltaPool::new(algo, n);
                let mut dirty = 0;
                for round in 0..8 {
                    let updates = property_batch(&o, hub, round, weights, &mut rng);
                    let batch = o.apply(&updates);
                    let mut reference = values.clone();
                    let want = reference_plan(algo, &o, &mut reference, &batch);
                    let mut fresh = values.clone();
                    let once = incremental_seeds(algo, &o, &mut fresh, &batch);
                    let plan = incremental_seeds_with(&mut pool, algo, &o, &mut values, &batch);
                    let label = format!("{} n={n} seed={seed} round={round}", algo.name());
                    let print = |p: &SeedPlan<A::Delta>| {
                        let seeds: Vec<(u32, u64)> =
                            p.seeds.iter().map(|&(v, d)| (v.get(), bits(d))).collect();
                        (seeds, p.invalidated.clone())
                    };
                    assert_eq!(print(&plan), print(&want), "{label}");
                    assert_eq!(print(&once), print(&want), "{label}");
                    assert!(values == reference && values == fresh, "{label}");
                    assert!(!pool.has_active(), "{label}: the drain left a bit set");
                    dirty += plan.dirty_vertices();
                    run_sequential_seeded(algo, &o, &mut values, &plan.seeds);
                    if round % 3 == 2 {
                        o.compact();
                    }
                }
                assert_eq!(
                    dirty > 0,
                    n > 1,
                    "{} n={n}: nothing was seeded",
                    algo.name()
                );
            }
        }
    }

    #[test]
    fn dense_seed_plans_match_the_btreemap_reference() {
        for weights in [WeightMode::Unweighted, WeightMode::Uniform(1.0, 9.0)] {
            let root = VertexId::new(0);
            check_plans_match_reference(&PageRankDelta::new(0.85, 1e-9), weights, f64::to_bits);
            check_plans_match_reference(&Sssp::new(root), weights, f64::to_bits);
            check_plans_match_reference(&Bfs::new(root), weights, u64::from);
            check_plans_match_reference(&ConnectedComponents::new(), weights, |d| d as u64);
            check_plans_match_reference(&Sswp::new(root), weights, f64::to_bits);
        }
    }

    #[test]
    #[should_panic(expected = "seed pool sized for 8 vertices, graph has 30")]
    fn a_pool_of_the_wrong_size_is_refused() {
        let g = erdos_renyi(30, 120, WeightMode::Unweighted, 3);
        let mut o = OverlayGraph::new(g);
        let algo = ConnectedComponents::new();
        let (mut values, _) = initial_state(&algo, &o);
        let batch = o.apply(&[]);
        incremental_seeds_with(
            &mut DeltaPool::new(&algo, 8),
            &algo,
            &o,
            &mut values,
            &batch,
        );
    }

    /// An `n`-vertex graph of three random out-edges a vertex. With
    /// `dangling` every fourth vertex has none; with `self_loops` every
    /// fifth keeps a loop (and so do random edges that land on their
    /// source).
    fn residual_graph(
        n: usize,
        dangling: bool,
        self_loops: bool,
        rng: &mut StdRng,
    ) -> gp_graph::CsrGraph {
        let mut b = gp_graph::GraphBuilder::new(n);
        b.drop_self_loops(!self_loops);
        let v = VertexId::new;
        for s in 0..n as u32 {
            if dangling && s % 4 == 1 {
                continue;
            }
            if self_loops && s % 5 == 0 {
                b.add_edge(v(s), v(s), 1.0);
            }
            for _ in 0..3 {
                b.add_edge(v(s), v(rng.gen_range(0..n as u32)), 1.0);
            }
        }
        b.build()
    }

    /// Every shape the residual tests run: `n` at the bitmap word edges,
    /// with and without dangling vertices and self loops.
    fn residual_cases() -> impl Iterator<Item = (usize, bool, bool)> {
        [1usize, 63, 64, 65].into_iter().flat_map(|n| {
            [(false, false), (true, false), (false, true), (true, true)]
                .map(|(dangling, self_loops)| (n, dangling, self_loops))
        })
    }

    /// Classic PageRank and PageRank personalized to every third vertex.
    fn residual_algos(n: usize) -> [PageRankDelta; 2] {
        let sources: Vec<VertexId> = (0..n as u32).step_by(3).map(VertexId::new).collect();
        [
            PageRankDelta::new(0.85, 1e-9),
            PageRankDelta::personalized(0.85, 1e-9, n, &sources),
        ]
    }

    fn seed_bits(seeds: &[(VertexId, f64)]) -> Vec<(u32, u64)> {
        seeds.iter().map(|&(v, d)| (v.get(), d.to_bits())).collect()
    }

    /// On the init values the residual is the initial deltas, bit for bit:
    /// a cold run is the residual plan's special case.
    #[test]
    fn a_residual_plan_on_initial_state_is_the_cold_seed_list() {
        for (n, dangling, self_loops) in residual_cases() {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let g = residual_graph(n, dangling, self_loops, &mut rng);
            for (i, algo) in residual_algos(n).iter().enumerate() {
                let label = format!("n={n} dangling={dangling} self_loops={self_loops} algo {i}");
                let (values, cold) = initial_state(algo, &g);
                let mut pool = DeltaPool::new(algo, n);
                let plan = residual_seeds_with(&mut pool, algo, &g, &values);
                assert_eq!(seed_bits(&plan.seeds), seed_bits(&cold), "{label}");
                assert!(plan.invalidated.is_empty(), "{label}");
                assert!(!pool.has_active(), "{label}: the drain left a bit set");
                assert_eq!(pool.take_counts(), (0, 0), "{label}");
            }
        }
    }

    /// A column left behind by one to three mixed batches, caught up by
    /// its residual on the new graph alone, is the new graph's PageRank:
    /// no chain of the missed batches is read.
    #[test]
    fn residual_seeds_take_a_stale_state_to_the_new_fixed_point() {
        for (n, dangling, self_loops) in residual_cases() {
            let mut rng = StdRng::seed_from_u64(0x5eed ^ n as u64);
            let g = residual_graph(n, dangling, self_loops, &mut rng);
            for (i, algo) in residual_algos(n).iter().enumerate() {
                let mut o = OverlayGraph::new(g.clone());
                let mut values = run_sequential(algo, &o).values;
                let mut pool = DeltaPool::new(algo, n);
                for round in 0..6 {
                    for _ in 0..=round % 3 {
                        let updates =
                            property_batch(&o, 0, round, WeightMode::Unweighted, &mut rng);
                        o.apply(&updates);
                    }
                    let label = format!(
                        "n={n} dangling={dangling} self_loops={self_loops} algo {i} round {round}"
                    );
                    let plan = residual_seeds_with(&mut pool, algo, &o, &values);
                    assert!(!pool.has_active(), "{label}: the drain left a bit set");
                    let got = run_sequential_seeded(algo, &o, &mut values, &plan.seeds);
                    let scratch = run_sequential(algo, &o);
                    if let Err(e) = crate::accept(algo, &got.values, &scratch.values) {
                        panic!("{label}: {e}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "seed pool sized for 8 vertices, graph has 30")]
    fn a_residual_plan_refuses_a_pool_of_the_wrong_size() {
        let g = erdos_renyi(30, 120, WeightMode::Unweighted, 3);
        let algo = PageRankDelta::new(0.85, 1e-9);
        let (values, _) = initial_state(&algo, &g);
        residual_seeds_with(&mut DeltaPool::new(&algo, 8), &algo, &g, &values);
    }

    #[test]
    #[should_panic(expected = "state length must match the vertex count")]
    fn a_residual_plan_refuses_state_of_the_wrong_length() {
        let g = erdos_renyi(30, 120, WeightMode::Unweighted, 3);
        let algo = PageRankDelta::new(0.85, 1e-9);
        residual_seeds_with(&mut DeltaPool::new(&algo, 30), &algo, &g, &[0.0; 8]);
    }

    /// The textbook CC failure mode for support-test invalidation: a cycle
    /// of equal labels self-supports, so only the reachability closure
    /// tears the stale component label down. This pins the strategy choice.
    #[test]
    fn cc_component_split_drops_stale_labels() {
        // 0 -> 1 -> 2 -> 0 cycle fed by vertex 4 via 4 -> 0, plus an
        // isolated edge 3 -> 4 keeping 4's label alive.
        let mut b = gp_graph::GraphBuilder::new(5);
        b.symmetric(true);
        b.add_edge(VertexId::new(0), VertexId::new(1), 1.0);
        b.add_edge(VertexId::new(1), VertexId::new(2), 1.0);
        b.add_edge(VertexId::new(2), VertexId::new(0), 1.0);
        b.add_edge(VertexId::new(4), VertexId::new(0), 1.0);
        b.add_edge(VertexId::new(3), VertexId::new(4), 1.0);
        let mut o = OverlayGraph::new(b.build());
        let algo = ConnectedComponents::new();
        let (mut values, seeds) = initial_state(&algo, &o);
        run_sequential_seeded(&algo, &o, &mut values, &seeds);
        // One component: everybody carries label 4.
        assert!(values.iter().all(|&v| v == 4));
        // Cut the cycle off: delete both directions of 4 <-> 0.
        let batch = o.apply(&[
            EdgeUpdate::Delete {
                src: VertexId::new(4),
                dst: VertexId::new(0),
            },
            EdgeUpdate::Delete {
                src: VertexId::new(0),
                dst: VertexId::new(4),
            },
        ]);
        let plan = incremental_seeds(&algo, &o, &mut values, &batch);
        let inc = run_sequential_seeded(&algo, &o, &mut values, &plan.seeds);
        let scratch = run_sequential(&algo, &o.to_csr());
        assert_eq!(inc.values, scratch.values);
        assert_eq!(inc.values[..3], [2.0, 2.0, 2.0], "cycle must relabel");
    }

    /// Compaction keeps what the builder's defaults would drop: a ring with
    /// a self loop on every vertex and one parallel edge keeps its degrees,
    /// its in-edges and PageRank-delta's values, bit for bit.
    #[test]
    fn compaction_keeps_self_loops_and_parallel_edges() {
        let n = 8u32;
        let v = VertexId::new;
        let mut b = gp_graph::GraphBuilder::new(n as usize);
        b.weighted(true).drop_self_loops(false).dedup(false);
        for u in 0..n {
            b.add_edge(v(u), v((u + 1) % n), 1.0);
            b.add_edge(v(u), v(u), 0.5);
        }
        b.add_edge(v(3), v(4), 2.0);
        let mut o = OverlayGraph::new(b.build());
        // Patches to fold back, one of them on the parallel edge's source.
        o.apply(&[
            EdgeUpdate::Insert {
                src: v(0),
                dst: v(4),
                weight: 1.5,
            },
            EdgeUpdate::Insert {
                src: v(3),
                dst: v(6),
                weight: 1.0,
            },
        ]);
        let algo = PageRankDelta::new(0.85, 1e-9);
        let observe = |o: &OverlayGraph| {
            let rows: Vec<_> = (0..n)
                .map(|u| {
                    let in_edges: Vec<_> = o
                        .in_edges(v(u))
                        .map(|e| (e.other, e.weight.to_bits()))
                        .collect();
                    (o.out_degree(v(u)), o.in_degree(v(u)), in_edges)
                })
                .collect();
            let values: Vec<u64> = run_sequential(&algo, o)
                .values
                .iter()
                .map(|x| x.to_bits())
                .collect();
            (rows, values)
        };
        let before = observe(&o);
        o.compact();
        assert_eq!(o.patched_vertices(), 0);
        assert_eq!(observe(&o), before);
    }
}
