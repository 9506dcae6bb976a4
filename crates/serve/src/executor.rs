//! The query executors: windowed batching, shared runs, warm starts, and
//! degradation, fanned out across a lane-sharded thread pool.
//!
//! [`ServeConfig::executors`](crate::ServeConfig::executors) executor
//! threads each own one admission lane. A thread drains its lane in
//! sweeps of up to [`max_batch`](crate::ServeConfig::max_batch) (waiting
//! up to [`batch_window`](crate::ServeConfig::batch_window) when idle),
//! pins the current epoch once per sweep, and serves every query in the
//! sweep from that pin:
//!
//! * **PageRank / CC** are whole-graph computations memoized per epoch in
//!   `SharedCaches` — one mutex-guarded cache per class, shared by all
//!   lanes so an epoch is converged exactly once no matter which lane's
//!   read triggers it. Re-convergence is warm-started via
//!   [`incremental_seeds`] + [`run_turbo_seeded`] when the cache sits
//!   exactly one overlay delta behind (the common case under streaming
//!   updates), cold otherwise, and cold every
//!   [`warm_limit`](crate::ServeConfig::warm_limit) warm starts to bound
//!   incremental drift. The projected vector is `Arc`-shared, so a lane
//!   holds the lock only for the ensure, never while replying. If another
//!   lane already advanced the cache *past* this sweep's pin, the cached
//!   newer epoch is served as-is (named exactly, not degraded) — epochs
//!   only move forward.
//! * **Path queries** (SSSP/BFS/SSWP) batch by class. The client routes
//!   them by `(class, source)` hash, so this lane owns every query
//!   against the sources it sees and the per-source column cache is
//!   plain thread-local state. Columns cached at an older epoch
//!   **warm-start across epochs**: the lane replays each intervening
//!   overlay delta with [`incremental_seeds`] + [`run_turbo_seeded`] on
//!   the typed column — bit-identical to a cold run, because monotone
//!   incremental re-convergence is exact and fused lanes match
//!   single-source runs — instead of a from-scratch fused traversal.
//!   Only sources with no usable cache entry (or a delta chain longer
//!   than `MAX_WARM_CHAIN`) fuse into [`FusedPaths`] runs of up to
//!   [`LANES`] lanes.
//! * **Degradation & amortized refresh**: when the writer lags by
//!   [`degrade_lag`](crate::ServeConfig::degrade_lag) batches or more,
//!   the sweep serves whatever epoch its caches already hold — flagged
//!   [`degraded`](crate::QueryResponse::degraded), and still *exact for
//!   the epoch the response names* — instead of recomputing toward a
//!   current epoch the writer is about to obsolete anyway. Whole-graph
//!   caches additionally amortize under epoch churn: a cached
//!   PageRank/CC vector keeps serving (degraded, named at its own epoch)
//!   until the pin moves [`refresh_lag`](crate::ServeConfig::refresh_lag)
//!   epochs ahead, because a whole-graph convergence costs seconds on
//!   large graphs and chasing every published epoch would starve the
//!   microsecond-scale reads behind it. Path columns are exempt — their
//!   per-delta replays are cheap, so path reads always chase the head.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use gp_algorithms::engine::initial_state;
use gp_algorithms::{
    incremental_seeds, Bfs, ConnectedComponents, IncrementalAlgorithm, PageRankDelta, Sssp, Sswp,
};
use gp_graph::{GraphView, VertexId};
use gp_turbo::run_turbo_seeded;

use crate::fused::{FusedPaths, PathKind, LANES};
use crate::snapshot::Epoch;
use crate::{Query, QueryClass, QueryResponse, Request, ServeConfig, ServeStats, Shared};

/// Longest epoch-delta chain a cached path column replays before the lane
/// falls back to a cold fused traversal. Bounds worst-case replay work
/// for a source that went cold for many epochs.
const MAX_WARM_CHAIN: u64 = 8;

/// Executor thread body for one lane: sweep until the queues are closed
/// and the lane is drained.
pub(crate) fn run(shared: &Shared, lane: usize) {
    let mut exec = Executor {
        shared,
        path_cache: HashMap::new(),
    };
    loop {
        let batch = shared
            .queues
            .drain(lane, shared.config.max_batch, shared.config.batch_window);
        if batch.is_empty() {
            if shared.queues.is_finished(lane) {
                break;
            }
            continue;
        }
        exec.serve_sweep(batch);
    }
}

/// Per-epoch memoized whole-graph state for one algorithm.
struct ClassCache<A: IncrementalAlgorithm> {
    algo: A,
    /// Epoch `values` is converged at; `None` before the first run.
    epoch: Option<u64>,
    values: Vec<A::Value>,
    projected: Arc<Vec<f64>>,
    warm_streak: u32,
}

impl<A: IncrementalAlgorithm> ClassCache<A> {
    fn new(algo: A) -> Self {
        ClassCache {
            algo,
            epoch: None,
            values: Vec::new(),
            projected: Arc::new(Vec::new()),
            warm_streak: 0,
        }
    }

    /// Converges the cache for some epoch and returns
    /// `(epoch_served, degraded, projected)`: the pinned epoch when the
    /// cache refreshes, a newer cached epoch when another lane already
    /// advanced past the pin (exact, not degraded), or the cached older
    /// epoch — flagged degraded — under writer lag or within the
    /// [`refresh_lag`](crate::ServeConfig::refresh_lag) staleness window.
    fn ensure(
        &mut self,
        shared: &Shared,
        epoch: &Epoch,
        degraded_mode: bool,
    ) -> (u64, bool, Arc<Vec<f64>>) {
        if let Some(at) = self.epoch {
            if at >= epoch.number {
                return (at, false, Arc::clone(&self.projected));
            }
            // Reuse the cached vector — exact for the epoch it names —
            // under writer lag, and under epoch churn until the pin pulls
            // `refresh_lag` epochs ahead: whole-graph convergence costs
            // seconds while everything else in a sweep costs
            // microseconds, so chasing every published epoch would let
            // write churn starve read throughput.
            if degraded_mode || epoch.number - at < shared.config.refresh_lag as u64 {
                return (at, true, Arc::clone(&self.projected));
            }
        }
        let warm = match (self.epoch, &epoch.delta) {
            (Some(at), Some(delta))
                if at == epoch.parent
                    && self.warm_streak < shared.config.warm_limit
                    && self.values.len() == epoch.graph.num_vertices() =>
            {
                let plan = incremental_seeds(&self.algo, &epoch.graph, &mut self.values, delta);
                run_turbo_seeded(
                    &self.algo,
                    &epoch.graph,
                    &mut self.values,
                    &plan.seeds,
                    &shared.turbo,
                );
                true
            }
            _ => false,
        };
        if warm {
            self.warm_streak += 1;
            ServeStats::count(&shared.stats.warm_starts);
        } else {
            let (mut values, seeds) = initial_state(&self.algo, &epoch.graph);
            run_turbo_seeded(&self.algo, &epoch.graph, &mut values, &seeds, &shared.turbo);
            self.values = values;
            self.warm_streak = 0;
            ServeStats::count(&shared.stats.cold_runs);
        }
        self.projected = Arc::new(
            self.values
                .iter()
                .map(|&v| self.algo.value_to_f64(v))
                .collect(),
        );
        self.epoch = Some(epoch.number);
        (epoch.number, false, Arc::clone(&self.projected))
    }
}

/// Whole-graph class caches shared by every executor lane: one epoch
/// convergence per class per epoch, whichever lane triggers it, with the
/// projected vector `Arc`-handed to readers.
pub(crate) struct SharedCaches {
    pagerank: Mutex<ClassCache<PageRankDelta>>,
    components: Mutex<ClassCache<ConnectedComponents>>,
}

impl SharedCaches {
    pub(crate) fn new(config: &ServeConfig) -> Self {
        SharedCaches {
            pagerank: Mutex::new(ClassCache::new(PageRankDelta::new(
                config.pagerank_damping,
                config.pagerank_threshold,
            ))),
            components: Mutex::new(ClassCache::new(ConnectedComponents::new())),
        }
    }
}

/// One cached multi-source lane column: the epoch it was computed at and
/// the per-destination results.
type CachedColumn = (u64, Arc<Vec<f64>>);

/// Replays one epoch delta on a projected path column: lift the column
/// back to the algorithm's typed values, re-converge incrementally, and
/// re-project. Monotone incremental re-convergence is bit-exact vs.
/// from-scratch, so the result equals a cold run at the new epoch.
fn warm_step<A: IncrementalAlgorithm, G: GraphView + Sync>(
    algo: &A,
    graph: &G,
    column: &mut Vec<f64>,
    delta: &gp_graph::AppliedBatch,
    turbo: &gp_turbo::TurboConfig,
    from: impl Fn(f64) -> A::Value,
) {
    let mut vals: Vec<A::Value> = column.iter().map(|&x| from(x)).collect();
    let plan = incremental_seeds(algo, graph, &mut vals, delta);
    run_turbo_seeded(algo, graph, &mut vals, &plan.seeds, turbo);
    *column = vals.iter().map(|&v| algo.value_to_f64(v)).collect();
}

struct Executor<'a> {
    shared: &'a Shared,
    /// `(kind, source) -> (epoch, per-destination results)` — thread-local
    /// to this lane; the client's lane routing guarantees no other lane
    /// sees these sources.
    path_cache: HashMap<(PathKind, u32), CachedColumn>,
}

impl Executor<'_> {
    fn serve_sweep(&mut self, batch: Vec<Request>) {
        ServeStats::count(&self.shared.stats.sweeps);
        let epoch = self.shared.store.pin();
        let degraded_mode =
            self.shared.update_lag.load(Ordering::Relaxed) >= self.shared.config.degrade_lag;

        let mut value_reads: Vec<(QueryClass, u32, std::sync::mpsc::Sender<QueryResponse>)> =
            Vec::new();
        let mut paths: HashMap<PathKind, Vec<(u32, u32, std::sync::mpsc::Sender<QueryResponse>)>> =
            HashMap::new();
        for req in batch {
            match req.query {
                Query::PageRank { v } => {
                    value_reads.push((QueryClass::PageRank, v.get(), req.reply))
                }
                Query::Components { v } => {
                    value_reads.push((QueryClass::Components, v.get(), req.reply));
                }
                Query::Sssp { src, dst } => {
                    paths
                        .entry(PathKind::Sssp)
                        .or_default()
                        .push((src.get(), dst.get(), req.reply))
                }
                Query::Bfs { src, dst } => {
                    paths
                        .entry(PathKind::Bfs)
                        .or_default()
                        .push((src.get(), dst.get(), req.reply))
                }
                Query::Sswp { src, dst } => {
                    paths
                        .entry(PathKind::Sswp)
                        .or_default()
                        .push((src.get(), dst.get(), req.reply))
                }
            }
        }

        // Whole-graph classes: one ensure per class per sweep under the
        // shared cache's lock; the Arc'd projection outlives the guard so
        // replies never hold it.
        let need_pr = value_reads.iter().any(|(c, ..)| *c == QueryClass::PageRank);
        let need_cc = value_reads
            .iter()
            .any(|(c, ..)| *c == QueryClass::Components);
        let pr_at = need_pr.then(|| {
            self.shared
                .caches
                .pagerank
                .lock()
                .expect("pagerank cache poisoned")
                .ensure(self.shared, &epoch, degraded_mode)
        });
        let cc_at = need_cc.then(|| {
            self.shared
                .caches
                .components
                .lock()
                .expect("components cache poisoned")
                .ensure(self.shared, &epoch, degraded_mode)
        });
        for (class, v, reply) in value_reads {
            let (served_epoch, degraded, projected) = match class {
                QueryClass::PageRank => pr_at.as_ref().expect("ensured"),
                QueryClass::Components => cc_at.as_ref().expect("ensured"),
                _ => unreachable!("value_reads holds only whole-graph classes"),
            };
            let _ = reply.send(QueryResponse {
                epoch: *served_epoch,
                value: projected[v as usize],
                degraded: *degraded,
            });
            self.shared.stats.count_served(class, *degraded);
        }

        for kind in [PathKind::Sssp, PathKind::Bfs, PathKind::Sswp] {
            if let Some(reqs) = paths.remove(&kind) {
                self.serve_paths(kind, reqs, &epoch, degraded_mode);
            }
        }
    }

    /// Re-converges a cached column for `src` to `epoch` by replaying the
    /// delta chain between its cached epoch and the pin. `None` when
    /// there is no cache entry, the chain is too long, or any link is
    /// missing (epoch evicted from history, or a snapshot published
    /// without a recorded delta) — the caller then runs cold.
    fn warm_column(&self, kind: PathKind, src: u32, epoch: &Epoch) -> Option<Vec<f64>> {
        let &(at, ref col) = self.path_cache.get(&(kind, src))?;
        if at >= epoch.number || epoch.number - at > MAX_WARM_CHAIN {
            return None;
        }
        // Verify the whole chain is replayable before doing any work.
        let mut steps: Vec<Arc<Epoch>> = Vec::new();
        for e in at + 1..epoch.number {
            steps.push(self.shared.store.epoch(e)?);
        }
        if steps.iter().any(|s| s.delta.is_none()) || epoch.delta.is_none() {
            return None;
        }
        let mut column: Vec<f64> = col.to_vec();
        let turbo = &self.shared.turbo;
        let root = VertexId::new(src);
        for e in at + 1..=epoch.number {
            let step: &Epoch = if e == epoch.number {
                epoch
            } else {
                &steps[(e - at - 1) as usize]
            };
            let delta = step.delta.as_ref().expect("chain checked above");
            match kind {
                PathKind::Sssp => warm_step(
                    &Sssp::new(root),
                    &step.graph,
                    &mut column,
                    delta,
                    turbo,
                    |x| x,
                ),
                PathKind::Sswp => warm_step(
                    &Sswp::new(root),
                    &step.graph,
                    &mut column,
                    delta,
                    turbo,
                    |x| x,
                ),
                PathKind::Bfs => warm_step(
                    &Bfs::new(root),
                    &step.graph,
                    &mut column,
                    delta,
                    turbo,
                    // Lossless inverse of Bfs::value_to_f64: hop counts
                    // are small integers, ∞ is the unreached sentinel.
                    |x| if x.is_infinite() { u32::MAX } else { x as u32 },
                ),
            }
        }
        Some(column)
    }

    fn serve_paths(
        &mut self,
        kind: PathKind,
        reqs: Vec<(u32, u32, std::sync::mpsc::Sender<QueryResponse>)>,
        epoch: &Epoch,
        degraded_mode: bool,
    ) {
        // Classify sources: usable cache entry (current epoch, or any
        // epoch under degradation) vs. needs computing. BTreeSet dedups
        // and fixes lane order deterministically.
        let mut needed: BTreeSet<u32> = BTreeSet::new();
        for &(src, ..) in &reqs {
            match self.path_cache.get(&(kind, src)) {
                Some(&(at, _)) if at == epoch.number => {
                    ServeStats::count(&self.shared.stats.path_cache_hits);
                }
                Some(_) if degraded_mode => {
                    ServeStats::count(&self.shared.stats.path_cache_hits);
                }
                _ => {
                    needed.insert(src);
                }
            }
        }

        // Warm-start sources whose cached column can replay the delta
        // chain to the pinned epoch; only the rest pay a fused traversal.
        let mut cold: Vec<u32> = Vec::new();
        for src in needed {
            if let Some(column) = self.warm_column(kind, src, epoch) {
                self.path_cache
                    .insert((kind, src), (epoch.number, Arc::new(column)));
                ServeStats::count(&self.shared.stats.path_warm_starts);
            } else {
                cold.push(src);
            }
        }

        // Fuse remaining sources into shared traversals, LANES at a time.
        for chunk in cold.chunks(LANES) {
            let sources: Vec<VertexId> = chunk.iter().map(|&s| VertexId::new(s)).collect();
            let fused = FusedPaths::new(kind, &sources);
            let (mut values, seeds) = initial_state(&fused, &epoch.graph);
            run_turbo_seeded(
                &fused,
                &epoch.graph,
                &mut values,
                &seeds,
                &self.shared.turbo,
            );
            ServeStats::count(&self.shared.stats.fused_runs);
            for (lane, &src) in chunk.iter().enumerate() {
                let column: Vec<f64> = values.iter().map(|v| v[lane]).collect();
                self.path_cache
                    .insert((kind, src), (epoch.number, Arc::new(column)));
            }
        }

        let class = match kind {
            PathKind::Sssp => QueryClass::Sssp,
            PathKind::Bfs => QueryClass::Bfs,
            PathKind::Sswp => QueryClass::Sswp,
        };
        for (src, dst, reply) in reqs {
            let (at, column) = self
                .path_cache
                .get(&(kind, src))
                .expect("every source is cached or was just computed");
            let degraded = *at != epoch.number;
            let _ = reply.send(QueryResponse {
                epoch: *at,
                value: column[dst as usize],
                degraded,
            });
            self.shared.stats.count_served(class, degraded);
        }

        // Bound cache memory: over capacity, first drop stale-epoch
        // entries (current ones keep warm-start continuity); a full reset
        // only if the current epoch alone overflows.
        if self.path_cache.len() > self.shared.config.path_cache_sources {
            let now = epoch.number;
            self.path_cache.retain(|_, &mut (at, _)| at == now);
            if self.path_cache.len() > self.shared.config.path_cache_sources {
                self.path_cache.clear();
            }
        }
    }
}
