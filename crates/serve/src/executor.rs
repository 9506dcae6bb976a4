//! The query executors: windowed batching over lane-local columns of
//! converged state, fanned out across a lane-sharded thread pool.
//!
//! [`ServeConfig::executors`](crate::ServeConfig::executors) executor
//! threads each own one admission lane. A thread drains its lane in
//! sweeps of up to `MAX_BATCH` queries (waiting up to `BATCH_WINDOW` when
//! idle), pins the current epoch once per sweep, and serves every query
//! in the sweep from that pin.
//!
//! The only thing a lane caches is a **column**: one algorithm's
//! converged per-vertex state, in the algorithm's own value type, at the
//! epoch it is exact for. A column is keyed by `(class, key)` — the path
//! source for SSSP/BFS/SSWP, `0` for the whole-graph classes PageRank and
//! CC — and the client routes by the same pair (`lane_of`), so every
//! column is created, advanced, read and dropped by exactly one thread.
//! Nothing is shared between lanes and nothing is locked.
//!
//! All five classes are one generic `Class` — a class differs only in its
//! algorithm — and go through the same three steps per sweep:
//!
//! * **Usable or behind.** A column at the pinned epoch answers as is. A
//!   column behind the pin still answers — flagged
//!   [`degraded`](crate::QueryResponse::degraded), named at its own
//!   epoch, and *exact for the epoch the response names* — when the
//!   writer lags by `DEGRADE_LAG` batches or more (the service sheds
//!   freshness rather than recompute toward an epoch the writer is about
//!   to obsolete), and a whole-graph column also does while it is fewer
//!   than [`refresh_lag`](crate::ServeConfig::refresh_lag) epochs behind:
//!   a whole-graph convergence costs seconds on large graphs, and chasing
//!   every published epoch would starve the microsecond-scale reads
//!   queued behind it. Path columns always chase the head.
//! * **Catch up.** A column that is behind re-converges **in place**
//!   with one seed plan and one [`run_turbo_with`] run, which processes
//!   only the events the plan triggers: converged state plus a
//!   perturbation, the GraphPulse model. Which plan is one `match` on
//!   the algorithm:
//!   - an invertible reduce (PageRank) seeds its residual on the pinned
//!     graph ([`residual_seeds_with`]). The residual takes any state to
//!     the new fixed point, so a column catches up from however far
//!     behind, over any chain, with nothing but its values: no missed
//!     delta is read and no drift carries from one catch-up to the
//!     next, so the class runs cold only for a new column;
//!   - a path column exactly one epoch behind replays the pinned epoch's
//!     stored delta through [`incremental_seeds_with`] (monotone
//!     re-convergence is bit-identical to a cold run). A path column
//!     further behind runs cold: on every serve workload measured, path
//!     columns trail by more than one epoch in well under 1 % of
//!     catch-ups, too rarely to keep a chain replay for;
//!   - CC runs cold: a deletion invalidates the reachability closure of
//!     its source, which on a giant component costs more than the cold
//!     run.
//! * **Cold.** Whatever could not catch up runs from [`initial_state`]
//!   with the class's own algorithm: one turbo run per cold column, path
//!   source or whole graph alike — the run `gp-stream` and every golden
//!   check make.
//!
//! A lane reads nothing from the store but the pinned [`Epoch`]: its
//! graph and its delta. A column holds its values and the epoch they are
//! exact for, never a graph, so no column keeps an old base alive.
//!
//! Every catch-up and cold run of a class goes through the class's one
//! [`DeltaPool`], built at its first run and kept for the lane's life: a
//! catch-up's seed plan and turbo run take turns in it. It is `n`-length,
//! every plan and every run leaves it empty, and the vertex count never
//! changes between epochs, so a path replay of a few seeds costs those
//! seeds and a pass over the bitmap words, not an `n`-length allocation
//! and fill.
//!
//! A reply is `value_to_f64(column.values[v])`. Path columns across the
//! three path classes of a lane are bounded at `PATH_CACHE_SOURCES`,
//! checked once per sweep.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;

use gp_algorithms::engine::initial_state;
use gp_algorithms::{
    incremental_seeds_with, residual_seeds_with, Bfs, ConnectedComponents, DeltaPool,
    IncrementalAlgorithm, PageRankDelta, SeedingStrategy, Sssp, Sswp,
};
use gp_graph::VertexId;
use gp_turbo::{run_turbo_with, TurboConfig};

use crate::snapshot::Epoch;
use crate::{
    QueryClass, QueryResponse, Request, ServeConfig, ServeStats, Shared, BATCH_WINDOW, DEGRADE_LAG,
    MAX_BATCH, PATH_CACHE_SOURCES,
};

/// Executor thread body for one lane: sweep until the queues are closed
/// and the lane is drained.
pub(crate) fn run(shared: &Shared, lane: usize) {
    let mut exec = Executor::new(shared);
    loop {
        let batch = shared.queues.drain(lane, MAX_BATCH, BATCH_WINDOW);
        if batch.is_empty() {
            if shared.queues.is_finished(lane) {
                break;
            }
            continue;
        }
        exec.serve_sweep(batch);
    }
}

/// One algorithm's converged per-vertex state at one epoch.
struct Column<V> {
    /// Epoch `values` is exact for.
    epoch: u64,
    values: Vec<V>,
}

/// One read of a column: `(key, vertex read, where the answer goes)`.
type Read = (u32, u32, Sender<QueryResponse>);

/// One query class of one lane: its columns, how to build the algorithm
/// behind them, and the resident pool every run of the class shares.
struct Class<A: IncrementalAlgorithm> {
    class: QueryClass,
    /// Builds the algorithm for a column key.
    algo: fn(&ServeConfig, VertexId) -> A,
    /// Path source (`0` for a whole-graph class) → column.
    columns: HashMap<u32, Column<A::Value>>,
    /// The pool every seed plan and turbo run of the class takes turns
    /// in, from the class's first run on; a lane that never serves the
    /// class never builds it.
    pool: Option<DeltaPool<A>>,
}

impl<A: IncrementalAlgorithm> Class<A> {
    fn new(class: QueryClass, algo: fn(&ServeConfig, VertexId) -> A) -> Self {
        Class {
            class,
            algo,
            columns: HashMap::new(),
            pool: None,
        }
    }

    /// Answers `reads` against the pinned `epoch`: bring every column that
    /// is not usable as it stands to the pin (catch up if possible, cold
    /// otherwise), then reply from the columns.
    fn serve(&mut self, shared: &Shared, reads: Vec<Read>, epoch: &Epoch, degraded_mode: bool) {
        let stats = &shared.stats;
        // The counters, not the work, are what differ by kind of class.
        let path = self.class.is_path();
        // Epochs a column may trail the pin by and still answer. (A
        // lane's pins only move forward, so no column is ever ahead.)
        let window = if path {
            1
        } else {
            shared.config.refresh_lag as u64
        };
        // Each behind column is brought to the pin once, in key order.
        let mut behind: BTreeSet<u32> = BTreeSet::new();
        for &(key, ..) in &reads {
            match self.columns.get(&key) {
                Some(column) if degraded_mode || epoch.number - column.epoch < window => {
                    if path {
                        ServeStats::count(&stats.path_cache_hits);
                    }
                }
                _ => {
                    behind.insert(key);
                }
            }
        }

        for key in behind {
            let warm = self.catch_up(shared, key, epoch);
            if !warm {
                self.run_cold(shared, key, epoch);
            }
            ServeStats::count(match (warm, path) {
                (true, true) => &stats.path_warm_starts,
                (true, false) => &stats.warm_starts,
                (false, true) => &stats.fused_runs,
                (false, false) => &stats.cold_runs,
            });
        }

        for (key, v, reply) in reads {
            let column = &self.columns[&key];
            let degraded = column.epoch != epoch.number;
            let algo = (self.algo)(&shared.config, VertexId::new(key));
            let _ = reply.send(QueryResponse {
                epoch: column.epoch,
                value: algo.value_to_f64(column.values[v as usize]),
                degraded,
            });
            stats.count_served(self.class, degraded);
        }
    }

    /// Re-converges `key`'s column to `epoch` in place with one seed plan
    /// and one turbo run: PageRank's plan is its residual on the pinned
    /// graph, a path class's the pinned epoch's delta. `false` — column
    /// untouched, the caller runs cold — when there is no column, the
    /// class is CC, or a path column is not exactly one epoch behind.
    fn catch_up(&mut self, shared: &Shared, key: u32, epoch: &Epoch) -> bool {
        let Some(column) = self.columns.get_mut(&key) else {
            return false;
        };
        let algo = (self.algo)(&shared.config, VertexId::new(key));
        let n = shared.num_vertices;
        let pool = self.pool.get_or_insert_with(|| DeltaPool::new(&algo, n));
        let graph = &epoch.graph;
        let plan = match algo.strategy() {
            SeedingStrategy::DeltaCorrection => {
                residual_seeds_with(pool, &algo, graph, &column.values)
            }
            SeedingStrategy::Monotone(_)
                if self.class.is_path() && column.epoch + 1 == epoch.number =>
            {
                let delta = epoch.delta.as_ref().expect("only epoch 0 has no delta");
                incremental_seeds_with(pool, &algo, graph, &mut column.values, delta)
            }
            SeedingStrategy::Monotone(_) => return false,
        };
        let cfg = TurboConfig::default();
        run_turbo_with(pool, &algo, graph, &mut column.values, &plan.seeds, &cfg);
        column.epoch = epoch.number;
        true
    }

    /// Converges `key`'s column at `epoch` from scratch.
    fn run_cold(&mut self, shared: &Shared, key: u32, epoch: &Epoch) {
        let algo = (self.algo)(&shared.config, VertexId::new(key));
        let (mut values, seeds) = initial_state(&algo, &epoch.graph);
        let n = shared.num_vertices;
        let pool = self.pool.get_or_insert_with(|| DeltaPool::new(&algo, n));
        let cfg = TurboConfig::default();
        run_turbo_with(pool, &algo, &epoch.graph, &mut values, &seeds, &cfg);
        let column = Column {
            epoch: epoch.number,
            values,
        };
        self.columns.insert(key, column);
    }

    /// Drops every column not at epoch `keep` (all of them for `None`).
    fn evict(&mut self, keep: Option<u64>) {
        self.columns.retain(|_, c| Some(c.epoch) == keep);
    }
}

/// Everything one executor lane owns: one [`Class`] per query class.
struct Executor<'a> {
    shared: &'a Shared,
    pagerank: Class<PageRankDelta>,
    components: Class<ConnectedComponents>,
    sssp: Class<Sssp>,
    bfs: Class<Bfs>,
    sswp: Class<Sswp>,
}

impl<'a> Executor<'a> {
    fn new(shared: &'a Shared) -> Self {
        Executor {
            shared,
            pagerank: Class::new(QueryClass::PageRank, |c, _| {
                PageRankDelta::new(c.pagerank_damping, c.pagerank_threshold)
            }),
            components: Class::new(QueryClass::Components, |_, _| ConnectedComponents::new()),
            sssp: Class::new(QueryClass::Sssp, |_, s| Sssp::new(s)),
            bfs: Class::new(QueryClass::Bfs, |_, s| Bfs::new(s)),
            sswp: Class::new(QueryClass::Sswp, |_, s| Sswp::new(s)),
        }
    }
    fn serve_sweep(&mut self, batch: Vec<Request>) {
        let shared = self.shared;
        ServeStats::count(&shared.stats.sweeps);
        let epoch = shared.store.pin();
        let degraded_mode = shared.update_lag.load(Ordering::Relaxed) >= DEGRADE_LAG;

        let mut reads: [Vec<Read>; 5] = Default::default();
        for req in batch {
            let (class, key, v) = req.query.parts();
            reads[class.index()].push((key, v, req.reply));
        }
        let [pagerank, components, sssp, bfs, sswp] = reads;
        self.pagerank.serve(shared, pagerank, &epoch, degraded_mode);
        self.components
            .serve(shared, components, &epoch, degraded_mode);
        self.sssp.serve(shared, sssp, &epoch, degraded_mode);
        self.bfs.serve(shared, bfs, &epoch, degraded_mode);
        self.sswp.serve(shared, sswp, &epoch, degraded_mode);

        // Bound path-column memory: over capacity, first drop stale-epoch
        // columns (current ones keep replay continuity); a full reset only
        // if the current epoch alone overflows.
        for keep in [Some(epoch.number), None] {
            let held = self.sssp.columns.len() + self.bfs.columns.len() + self.sswp.columns.len();
            if held <= PATH_CACHE_SOURCES {
                break;
            }
            self.sssp.evict(keep);
            self.bfs.evict(keep);
            self.sswp.evict(keep);
        }
    }
}
