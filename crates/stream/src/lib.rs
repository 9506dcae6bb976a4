//! # gp-stream — streaming graph updates with incremental recomputation
//!
//! GraphPulse's event-driven model is naturally incremental: converged
//! state plus a perturbation re-converges by processing only the events
//! the perturbation triggers. This crate turns that observation into a
//! streaming-update subsystem:
//!
//! * [`OverlayGraph`] (from `gp-graph`) holds the mutable delta overlay on
//!   the static CSR — edge insertions and deletions land in per-vertex
//!   patched adjacency lists, with threshold-triggered compaction back
//!   into a fresh CSR;
//! * [`gp_algorithms::incremental`] computes the seed plan — the dirty
//!   vertex set and the correction/re-relaxation events — from an applied
//!   update batch and previously converged state;
//! * [`IncrementalEngine`] (this crate) drives the loop: apply a batch,
//!   seed only the dirty vertices, and re-converge through a chosen
//!   [`Backend`] — the golden sequential engine, the cycle-level
//!   accelerator model, the shard-parallel engine (which keeps its
//!   bit-identical-across-worker-counts guarantee in seeded mode), or
//!   turbo. One pool is resident across batches — each batch's seed plan
//!   drains it, then the turbo run sweeps it — so a batch costs the
//!   vertices it touches.
//!
//! [`UpdateStream`] generates deterministic R-MAT-skewed insert/delete
//! streams for benchmarking; the `streaming` binary in `gp-bench` reports
//! events-per-update and incremental-vs-full-recompute speedups.
//!
//! # Examples
//!
//! ```
//! use gp_algorithms::PageRankDelta;
//! use gp_graph::generators::{erdos_renyi, WeightMode};
//! use gp_graph::{EdgeUpdate, VertexId};
//! use gp_stream::{IncrementalEngine, StreamConfig};
//!
//! let g = erdos_renyi(64, 256, WeightMode::Unweighted, 7);
//! let algo = PageRankDelta::new(0.85, 1e-7);
//! let (mut engine, _) =
//!     IncrementalEngine::new(algo, g, StreamConfig::default()).unwrap();
//! let report = engine
//!     .apply_batch(&[EdgeUpdate::Insert {
//!         src: VertexId::new(0),
//!         dst: VertexId::new(9),
//!         weight: 1.0,
//!     }])
//!     .unwrap();
//! assert!(report.dirty_vertices >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gp_algorithms::engine::{initial_state, run_sequential_seeded};
use gp_algorithms::{
    incremental_seeds_with, residual_seeds_with, DeltaPool, IncrementalAlgorithm, SeedingStrategy,
};
use gp_graph::generators::{rmat_scramble, rmat_step, WeightMode};
use gp_graph::rng::{Rng, StdRng};
use gp_graph::{CsrGraph, EdgeUpdate, GraphView, OverlayGraph, VertexId};
use gp_turbo::run_turbo_with;
use graphpulse_core::{AcceleratorConfig, GraphPulse, Outcome, RunError};

/// Which execution engine re-converges the dirty frontier after a batch.
#[derive(Debug, Clone)]
pub enum Backend {
    /// The sequential golden engine
    /// ([`run_sequential_seeded`]) — un-timed, used as the
    /// semantic yardstick.
    Golden,
    /// The cycle-level accelerator model in seeded mode
    /// ([`GraphPulse::run_seeded`]). Boxed: the config is large relative
    /// to the other variants.
    Accelerator(Box<AcceleratorConfig>),
    /// The shard-parallel engine in seeded mode
    /// ([`GraphPulse::run_parallel_seeded`]); results stay bit-identical
    /// across worker counts.
    Parallel(Box<AcceleratorConfig>),
    /// The speed-first turbo backend in seeded mode
    /// ([`gp_turbo::run_turbo_with`]), on the engine's resident pool —
    /// the only engine fast enough to sit behind interactive traffic,
    /// which is what `gp-serve` does.
    /// Bit-exact vs [`Backend::Golden`] for the monotone algorithms; for
    /// PageRank-delta within `comparison_tolerance` of a from-scratch run.
    Turbo(gp_turbo::TurboConfig),
}

/// Configuration of an [`IncrementalEngine`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Execution backend for (re-)convergence runs.
    pub backend: Backend,
    /// Compact the overlay back into a fresh CSR whenever the patch pool
    /// exceeds this fraction of the base edge count (see
    /// [`OverlayGraph::maybe_compact`]). `0.0` compacts after every
    /// mutating batch; `f64::INFINITY` never compacts.
    pub compact_fraction: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            backend: Backend::Golden,
            compact_fraction: 0.25,
        }
    }
}

impl StreamConfig {
    /// Golden backend with the given compaction threshold.
    pub fn golden(compact_fraction: f64) -> Self {
        StreamConfig {
            backend: Backend::Golden,
            compact_fraction,
        }
    }
}

/// What one [`IncrementalEngine::apply_batch`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Net edge insertions the batch effected (intra-batch churn cancels).
    pub inserts: usize,
    /// Net edge deletions the batch effected.
    pub deletes: usize,
    /// Vertices reset to their init value by invalidation (monotone
    /// algorithms after deletions).
    pub invalidated: usize,
    /// Distinct vertices that received a seed event — the dirty frontier.
    pub dirty_vertices: usize,
    /// Events processed during re-convergence.
    pub events_processed: u64,
    /// Events generated during re-convergence.
    pub events_generated: u64,
    /// Simulated cycles of the re-convergence run (`0` for the un-timed
    /// golden backend).
    pub cycles: u64,
    /// Whether the overlay was compacted back into a fresh CSR afterwards.
    pub compacted: bool,
}

/// Event-driven incremental recomputation over a stream of edge updates.
///
/// Owns the [`OverlayGraph`] and the algorithm's converged per-vertex
/// state; each [`apply_batch`](IncrementalEngine::apply_batch) mutates the
/// overlay, seeds only the dirty vertices, and re-converges through the
/// configured [`Backend`]. For the monotone algorithms the state after
/// every batch is exactly what a from-scratch run on the mutated graph
/// produces — the property the differential test suite pins.
///
/// PageRank-delta is held to its `comparison_tolerance` instead. Its
/// delta correction seeds what a batch changes in the residual, at the
/// cost of the batch's rows, but never the sub-threshold residue each run
/// parks in the values, which adds up over batches. So every 32nd batch
/// that changes the graph seeds the whole residual on the current graph
/// instead ([`residual_seeds_with`]), as `gp-serve`'s PageRank columns do
/// on every refresh: an edge pass that takes any state back to a cold
/// run's distance from the fixed point.
///
/// The per-batch machinery is resident: one [`DeltaPool`], kept across
/// batches, takes each seed plan and then the turbo backend's run, and
/// each leaves it empty for the other. Compaction replaces the graph but
/// not its vertex count, so the pool outlives it, and each batch costs
/// what it touches.
#[derive(Debug)]
pub struct IncrementalEngine<A: IncrementalAlgorithm> {
    algo: A,
    graph: OverlayGraph,
    values: Vec<A::Value>,
    config: StreamConfig,
    /// Coalesces each batch's seed plan, then carries the turbo run;
    /// every plan and every run drains it empty.
    pool: DeltaPool<A>,
    /// Batches that changed the graph, which time the residual catch-up.
    changed: u64,
}

/// A delta-correction engine seeds its whole residual on every this-many
/// batches that change the graph: the largest power of two that keeps
/// PageRank-delta's worst distance to a from-scratch run at or below 60 %
/// of its tolerance over 1 000 `stream-r16`-shaped batches (96 updates,
/// half deletions, threshold 1e-3) at 2^13, 2^14 and 2^16 vertices. At
/// 2^16 a catch-up costs about seven correction batches (EXPERIMENTS.md,
/// "PageRank drift over a long stream").
const CATCH_UP_EVERY: u64 = 32;

impl<A: IncrementalAlgorithm> IncrementalEngine<A> {
    /// Builds the engine and fully converges on the base graph through
    /// the configured backend. The returned [`BatchReport`] describes the
    /// initial convergence (its `inserts`/`deletes` are zero), so callers
    /// can compare later incremental batches against the full-run cost.
    ///
    /// # Errors
    ///
    /// [`RunError`] from the accelerator backends (invalid configuration
    /// or cycle-limit overrun); the golden backend cannot fail.
    pub fn new(
        algo: A,
        base: CsrGraph,
        config: StreamConfig,
    ) -> Result<(Self, BatchReport), RunError> {
        let mut engine = IncrementalEngine {
            pool: DeltaPool::new(&algo, base.num_vertices()),
            algo,
            graph: OverlayGraph::new(base),
            values: Vec::new(),
            config,
            changed: 0,
        };
        let (values, seeds) = initial_state(&engine.algo, &engine.graph);
        engine.values = values;
        let mut report = engine.run_backend(&seeds)?;
        report.dirty_vertices = seeds.len();
        Ok((engine, report))
    }

    /// Applies a batch of edge updates and re-converges the dirty
    /// frontier.
    ///
    /// Updates are applied in order with net-effect semantics (an edge
    /// inserted then deleted within one batch is a no-op; a weight change
    /// is a delete + insert pair). A batch with no net effect skips the
    /// engine entirely. Every 32nd batch with an effect seeds a
    /// delta-correction algorithm's whole residual (see
    /// [`IncrementalEngine`]), so its report counts the residual's seeds
    /// as dirty vertices.
    ///
    /// # Errors
    ///
    /// [`RunError`] from the accelerator backends; the overlay mutation
    /// has already happened when that occurs, so the engine should be
    /// discarded (state and topology may disagree).
    ///
    /// # Panics
    ///
    /// Panics, before the graph or the values change, if an update names a
    /// vertex out of range ([`OverlayGraph::apply`]).
    pub fn apply_batch(&mut self, updates: &[EdgeUpdate]) -> Result<BatchReport, RunError> {
        let applied = self.graph.apply(updates);
        if applied.is_empty() {
            return Ok(BatchReport::default());
        }
        self.changed += 1;
        let (pool, algo, graph) = (&mut self.pool, &self.algo, &self.graph);
        let plan = if algo.strategy() == SeedingStrategy::DeltaCorrection
            && self.changed.is_multiple_of(CATCH_UP_EVERY)
        {
            residual_seeds_with(pool, algo, graph, &self.values)
        } else {
            incremental_seeds_with(pool, algo, graph, &mut self.values, &applied)
        };
        let mut report = self.run_backend(&plan.seeds)?;
        report.inserts = applied.inserts.len();
        report.deletes = applied.deletes.len();
        report.invalidated = plan.invalidated.len();
        report.dirty_vertices = plan.dirty_vertices();
        report.compacted = self.graph.maybe_compact(self.config.compact_fraction);
        Ok(report)
    }

    /// Runs the configured backend from the current state with `seeds`,
    /// leaving the re-converged typed values in `self.values`.
    fn run_backend(&mut self, seeds: &[(VertexId, A::Delta)]) -> Result<BatchReport, RunError> {
        let mut report = BatchReport::default();
        match &self.config.backend {
            Backend::Golden => {
                let out = run_sequential_seeded(&self.algo, &self.graph, &mut self.values, seeds);
                report.events_processed = out.events_processed;
                report.events_generated = out.events_generated;
            }
            Backend::Accelerator(cfg) => {
                let accel = GraphPulse::new(cfg.as_ref().clone());
                let out = accel.run_seeded(&self.graph, &self.algo, self.values.clone(), seeds)?;
                report = self.adopt(out);
            }
            Backend::Parallel(cfg) => {
                let accel = GraphPulse::new(cfg.as_ref().clone());
                let out = accel.run_parallel_seeded(
                    &self.graph,
                    &self.algo,
                    self.values.clone(),
                    seeds,
                )?;
                report = self.adopt(out.into());
            }
            Backend::Turbo(cfg) => {
                let (pool, values) = (&mut self.pool, &mut self.values);
                let out = run_turbo_with(pool, &self.algo, &self.graph, values, seeds, cfg);
                report.events_processed = out.events.processed;
                report.events_generated = out.events.generated;
            }
        }
        Ok(report)
    }

    /// Takes over a cycle-model run's re-converged values; the returned
    /// report carries its event counts and clock.
    fn adopt(&mut self, out: Outcome<A::Value>) -> BatchReport {
        self.values = out.values;
        BatchReport {
            events_processed: out.report.events_processed,
            events_generated: out.report.events_generated,
            cycles: out.report.cycles,
            ..BatchReport::default()
        }
    }

    /// The algorithm.
    pub fn algo(&self) -> &A {
        &self.algo
    }

    /// The current graph (base CSR + overlay).
    pub fn graph(&self) -> &OverlayGraph {
        &self.graph
    }

    /// The configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Current converged per-vertex state in the algorithm's typed
    /// representation.
    pub fn typed_values(&self) -> &[A::Value] {
        &self.values
    }

    /// Current converged values projected to `f64` via
    /// [`value_to_f64`](gp_algorithms::DeltaAlgorithm::value_to_f64).
    pub fn values(&self) -> Vec<f64> {
        self.values
            .iter()
            .map(|&v| self.algo.value_to_f64(v))
            .collect()
    }
}

/// Deterministic generator of edge-update streams with R-MAT-skewed
/// endpoints.
///
/// Insertions sample `(src, dst)` with the Graph500 quadrant recursion
/// (so update hot-spots match the power-law structure of an R-MAT base
/// graph); deletions pick a uniformly random existing edge. The mix is
/// controlled by `delete_fraction`. Deterministic for a given seed.
#[derive(Debug)]
pub struct UpdateStream {
    vertices: usize,
    levels: u32,
    delete_fraction: f64,
    weights: WeightMode,
    rng: StdRng,
}

impl UpdateStream {
    /// Creates a stream over `vertices` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `vertices` is zero or `delete_fraction` is outside
    /// `[0, 1]`.
    pub fn new(vertices: usize, delete_fraction: f64, weights: WeightMode, seed: u64) -> Self {
        assert!(vertices > 0, "update stream needs at least one vertex");
        assert!(
            (0.0..=1.0).contains(&delete_fraction),
            "delete fraction must be in [0, 1]"
        );
        UpdateStream {
            vertices,
            levels: (vertices as f64).log2().ceil().max(1.0) as u32,
            delete_fraction,
            weights,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws the next batch of `len` updates against the current graph.
    ///
    /// Deletions target edges that exist in `graph` at draw time (within
    /// the batch, earlier draws are not tracked, so a batch may contain
    /// churn — which [`OverlayGraph::apply`] nets out). When no existing
    /// edge is found after a bounded number of probes (e.g. a nearly
    /// empty graph), the draw falls back to an insertion.
    pub fn next_batch(&mut self, graph: &OverlayGraph, len: usize) -> Vec<EdgeUpdate> {
        let mut batch = Vec::with_capacity(len);
        for _ in 0..len {
            let delete = self.rng.gen_range(0.0..1.0f64) < self.delete_fraction;
            if delete {
                if let Some((src, dst)) = self.existing_edge(graph) {
                    batch.push(EdgeUpdate::Delete { src, dst });
                    continue;
                }
            }
            let (src, dst) = self.rmat_pair();
            let weight = match self.weights {
                WeightMode::Unweighted => 1.0,
                WeightMode::Uniform(lo, hi) => self.rng.gen_range(lo..hi),
            };
            batch.push(EdgeUpdate::Insert { src, dst, weight });
        }
        batch
    }

    /// Samples one `(src, dst)` pair with the noiseless Graph500 quadrant
    /// walk and scramble of the [`rmat`](gp_graph::generators::rmat)
    /// generator, so stream hot-spots land on the base graph's hubs.
    fn rmat_pair(&mut self) -> (VertexId, VertexId) {
        let (mut row, mut col) = (0, 0);
        for _ in 0..self.levels {
            let roll = self.rng.gen_range(0.0..1.0f64);
            (row, col) = rmat_step(roll, [0.57, 0.19, 0.19], row, col);
        }
        let n = self.vertices as u64;
        let src = rmat_scramble(row, n);
        let mut dst = rmat_scramble(col, n);
        if src == dst {
            // The overlay refuses self-loops; nudge deterministically.
            dst = (dst + 1) % self.vertices as u32;
        }
        (VertexId::new(src), VertexId::new(dst))
    }

    /// Uniformly-ish samples an existing edge: a bounded number of random
    /// vertex probes, each followed by a uniform out-edge pick.
    fn existing_edge(&mut self, graph: &OverlayGraph) -> Option<(VertexId, VertexId)> {
        for _ in 0..32 {
            let v = VertexId::new(self.rng.gen_range(0..self.vertices as u32));
            let row = graph.out_edges(v);
            if row.len() > 0 {
                // Drawn as `u32`: the sample depends on the range's type.
                let pick = self.rng.gen_range(0..row.len() as u32);
                let e = row.get(pick as usize).expect("pick < len");
                return Some((v, e.other));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_algorithms::engine::run_sequential;
    use gp_algorithms::{max_abs_diff, ConnectedComponents, DeltaAlgorithm, PageRankDelta, Sssp};
    use gp_graph::generators::{erdos_renyi, rmat, RmatConfig};

    #[test]
    fn full_convergence_matches_cold_start() {
        let g = erdos_renyi(100, 500, WeightMode::Unweighted, 3);
        let algo = PageRankDelta::new(0.85, 1e-7);
        let cold = run_sequential(&algo, &g);
        let (engine, report) =
            IncrementalEngine::new(algo, g, StreamConfig::default()).expect("golden cannot fail");
        assert_eq!(max_abs_diff(&engine.values(), &cold.values), 0.0);
        assert_eq!(report.events_processed, cold.events_processed);
        assert_eq!(report.inserts, 0);
    }

    #[test]
    fn incremental_batches_track_from_scratch_runs() {
        let g = rmat(&RmatConfig::graph500(128, 1_024), 11);
        let algo = Sssp::new(VertexId::new(0));
        let (mut engine, _) =
            IncrementalEngine::new(algo, g, StreamConfig::golden(0.5)).expect("golden");
        let mut stream = UpdateStream::new(128, 0.3, WeightMode::Uniform(1.0, 9.0), 21);
        for _ in 0..5 {
            let batch = stream.next_batch(engine.graph(), 16);
            engine.apply_batch(&batch).expect("golden");
            let scratch = run_sequential(engine.algo(), &engine.graph().to_csr());
            assert_eq!(max_abs_diff(&engine.values(), &scratch.values), 0.0);
        }
    }

    /// Incremental-via-turbo must agree with incremental-via-golden batch
    /// by batch: bit-exact for the monotone algorithms (satellite of the
    /// `run_turbo_seeded` warm-start entry point).
    #[test]
    fn turbo_backend_matches_golden_incremental_bit_exact() {
        fn run_pair<A: IncrementalAlgorithm + Clone>(algo: A, seed: u64) {
            let g = rmat(&RmatConfig::graph500(128, 1_024), seed);
            let turbo_cfg = StreamConfig {
                backend: Backend::Turbo(gp_turbo::TurboConfig::default()),
                compact_fraction: 0.5,
            };
            let (mut via_turbo, _) =
                IncrementalEngine::new(algo.clone(), g.clone(), turbo_cfg).expect("turbo");
            let (mut via_golden, _) =
                IncrementalEngine::new(algo, g, StreamConfig::golden(0.5)).expect("golden");
            let mut stream = UpdateStream::new(128, 0.3, WeightMode::Uniform(1.0, 9.0), seed + 1);
            for _ in 0..4 {
                let batch = stream.next_batch(via_turbo.graph(), 24);
                via_turbo.apply_batch(&batch).expect("turbo");
                via_golden.apply_batch(&batch).expect("golden");
                assert!(
                    gp_algorithms::same_bits(&via_turbo.values(), &via_golden.values()),
                    "turbo incremental diverged from golden"
                );
            }
        }
        run_pair(Sssp::new(VertexId::new(0)), 31);
        run_pair(gp_algorithms::Bfs::new(VertexId::new(0)), 32);
        run_pair(ConnectedComponents::new(), 33);
        run_pair(gp_algorithms::Sswp::new(VertexId::new(0)), 34);
    }

    /// PageRank-delta through the turbo backend stays within the
    /// algorithm's documented event-order tolerance of a from-scratch run.
    #[test]
    fn turbo_backend_tracks_pagerank_within_tolerance() {
        let g = rmat(&RmatConfig::graph500(128, 1_024), 41);
        let algo = PageRankDelta::new(0.85, 1e-9);
        let tol = algo.comparison_tolerance();
        let cfg = StreamConfig {
            backend: Backend::Turbo(gp_turbo::TurboConfig::default()),
            compact_fraction: 0.5,
        };
        let (mut engine, _) = IncrementalEngine::new(algo, g, cfg).expect("turbo");
        let mut stream = UpdateStream::new(128, 0.3, WeightMode::Unweighted, 42);
        for _ in 0..4 {
            let batch = stream.next_batch(engine.graph(), 24);
            engine.apply_batch(&batch).expect("turbo");
            let scratch = run_sequential(engine.algo(), &engine.graph().to_csr());
            assert!(max_abs_diff(&engine.values(), &scratch.values) < tol);
        }
    }

    #[test]
    fn no_op_batch_is_free() {
        let g = erdos_renyi(50, 200, WeightMode::Unweighted, 9);
        let algo = ConnectedComponents::new();
        let (mut engine, _) =
            IncrementalEngine::new(algo, g, StreamConfig::default()).expect("golden");
        // Insert-then-delete nets to nothing.
        let batch = [
            EdgeUpdate::Insert {
                src: VertexId::new(1),
                dst: VertexId::new(2),
                weight: 1.0,
            },
            EdgeUpdate::Delete {
                src: VertexId::new(1),
                dst: VertexId::new(2),
            },
        ];
        let report = engine.apply_batch(&batch).expect("golden");
        assert_eq!(report, BatchReport::default());
    }

    #[test]
    fn compaction_threshold_is_honored() {
        let g = erdos_renyi(40, 120, WeightMode::Unweighted, 5);
        let algo = ConnectedComponents::new();
        let (mut engine, _) =
            IncrementalEngine::new(algo, g, StreamConfig::golden(0.0)).expect("golden");
        let report = engine
            .apply_batch(&[EdgeUpdate::Insert {
                src: VertexId::new(0),
                dst: VertexId::new(39),
                weight: 1.0,
            }])
            .expect("golden");
        assert!(report.compacted, "threshold 0.0 compacts every batch");
        assert_eq!(engine.graph().pool_edge_slots(), 0);
    }

    #[test]
    fn update_stream_is_deterministic_and_respects_mix() {
        let g = rmat(&RmatConfig::graph500(64, 512), 2);
        let overlay = OverlayGraph::new(g);
        let mk = || UpdateStream::new(64, 0.5, WeightMode::Unweighted, 77);
        let (mut s1, mut s2) = (mk(), mk());
        let b1 = s1.next_batch(&overlay, 200);
        let b2 = s2.next_batch(&overlay, 200);
        assert_eq!(b1, b2, "same seed must give the same stream");
        let deletes = b1
            .iter()
            .filter(|u| matches!(u, EdgeUpdate::Delete { .. }))
            .count();
        assert!((40..160).contains(&deletes), "delete mix wildly off");
        for u in &b1 {
            if let EdgeUpdate::Delete { src, dst } = u {
                assert!(overlay.contains_edge(*src, *dst));
            }
        }
    }

    #[test]
    fn deletion_starved_stream_falls_back_to_inserts() {
        let overlay = OverlayGraph::new(gp_graph::GraphBuilder::new(4).build());
        let mut s = UpdateStream::new(4, 1.0, WeightMode::Unweighted, 3);
        let batch = s.next_batch(&overlay, 8);
        assert!(batch.iter().all(|u| matches!(u, EdgeUpdate::Insert { .. })));
    }
}
