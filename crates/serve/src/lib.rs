//! `gp-serve`: an epoch-versioned, multi-tenant graph query service over
//! the turbo backend.
//!
//! This crate is the serving leg of the north star: a long-lived process
//! that answers interactive graph queries (PageRank reads, connected
//! components, SSSP/BFS/SSWP point-to-point) while concurrently ingesting
//! edge-update batches, with the [`gp_turbo`] executor — the only backend
//! fast enough for traffic — doing all recomputation.
//!
//! # Architecture (DESIGN.md §5f)
//!
//! * **Epoch-versioned snapshots** ([`snapshot`]): a single writer thread
//!   owns the mutable [`OverlayGraph`] master,
//!   applies update batches off the read path, and publishes immutable
//!   [`GraphSnapshot`](gp_graph::GraphSnapshot)s through the
//!   [`SnapshotStore`]. Readers pin an epoch with one `Arc` clone; no
//!   epoch ever mutates after publish; compaction swaps the base CSR
//!   `Arc` without disturbing pinned readers. The retained history keeps
//!   a graph only for epochs someone holds; every other epoch is an undo
//!   record (its delta plus its parent's in-rows it touched) that
//!   [`SnapshotStore::epoch`] rebuilds from, off the read path.
//! * **Batched query execution** ([`executor`]): a pool of
//!   [`ServeConfig::executors`] executor threads, one per admission
//!   *lane*, drains admitted queries in windows and groups them by
//!   class. The only thing a lane caches is a *column*: one algorithm's
//!   converged per-vertex state, in the algorithm's own value type, at
//!   the epoch it is exact for, keyed by `(class, key)` (the path source;
//!   `0` for PageRank and CC). Queries route to lanes by the same pair,
//!   so a column is owned by the one lane its key hashes to — no shared
//!   caches, no locks, no cross-thread coherence. All five classes bring
//!   a column to the pinned epoch the same way: one seed plan and one
//!   [`run_turbo_with`](gp_turbo::run_turbo_with) run on the class's
//!   pool, in place — converged state plus a perturbation processes only
//!   the events the perturbation triggers. PageRank seeds its residual on
//!   the pinned graph
//!   ([`residual_seeds_with`](gp_algorithms::residual_seeds_with)), which
//!   needs nothing but the column; a path column one epoch behind replays
//!   the pinned epoch's stored delta
//!   ([`incremental_seeds_with`](gp_algorithms::incremental_seeds_with)).
//!   A column runs cold — one
//!   [`initial_state`](gp_algorithms::engine::initial_state) + turbo run
//!   of the class's own algorithm — when it is new, when it is CC's, or
//!   when it is a path column more than one epoch behind. A column holds
//!   values and an epoch number, never a graph, and a lane reads nothing
//!   of the store but the epoch it pinned. Each class keeps one seed
//!   accumulator and one turbo engine resident for all of its runs. A
//!   class differs from another only in its algorithm. The four monotone
//!   classes are bit-exact with golden; a PageRank response is within the
//!   algorithm's tolerance of it.
//! * **Admission control** ([`admission`]): bounded per-tenant queues, a
//!   global overload ceiling, typed [`Rejection`]s, and graceful
//!   degradation — when the update pipeline lags four batches or more
//!   behind, reads are served from the columns a lane already holds
//!   (flagged [`QueryResponse::degraded`], exact for the epoch they name)
//!   instead of stalling on recomputes.
//! * **Constants, not knobs**: [`ServeConfig`] holds the seven values a
//!   caller in this repository sets. Queue bounds, the batching window,
//!   the degradation threshold, the path replay limit and the path-column
//!   bound are documented constants beside it.
//! * **Front ends**: the in-process [`ServeHandle`] / [`ServeClient`]
//!   API here, and a line-oriented TCP protocol in [`net`].
//!
//! Everything is std-only — threads and channels, no async runtime —
//! matching the workspace's hermetic build.
//!
//! # Quickstart
//!
//! ```
//! use gp_graph::generators::{rmat, RmatConfig, WeightMode};
//! use gp_graph::{EdgeUpdate, VertexId};
//! use gp_serve::{Query, ServeConfig, Server};
//!
//! let g = rmat(
//!     &RmatConfig::graph500(256, 2_048).with_weights(WeightMode::Uniform(1.0, 9.0)),
//!     7,
//! );
//! let handle = Server::start(g, ServeConfig::default());
//! let client = handle.client();
//!
//! let r = client
//!     .query(0, Query::Sssp { src: VertexId::new(0), dst: VertexId::new(9) })
//!     .expect("admitted");
//! assert_eq!(r.epoch, 0);
//!
//! handle.updater().submit(vec![EdgeUpdate::Insert {
//!     src: VertexId::new(0),
//!     dst: VertexId::new(9),
//!     weight: 1.0,
//! }]);
//! let stats = handle.shutdown();
//! assert_eq!(stats.served, 1);
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod executor;
pub mod net;
pub mod snapshot;

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gp_graph::{CsrGraph, EdgeUpdate, OverlayGraph, VertexId};

pub use admission::{AdmissionQueues, Rejection};
pub use snapshot::{Epoch, SnapshotStore};

/// One graph query. Vertex ids are validated against the graph at
/// submission time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Read vertex `v`'s PageRank (computed with
    /// [`PageRankDelta`](gp_algorithms::PageRankDelta)).
    PageRank {
        /// Vertex whose rank is read.
        v: VertexId,
    },
    /// Read vertex `v`'s connected-component label.
    Components {
        /// Vertex whose component label is read.
        v: VertexId,
    },
    /// Shortest-path distance `src -> dst` (∞ when unreachable).
    Sssp {
        /// Path source.
        src: VertexId,
        /// Path destination.
        dst: VertexId,
    },
    /// Hop distance `src -> dst` (∞ when unreachable).
    Bfs {
        /// Path source.
        src: VertexId,
        /// Path destination.
        dst: VertexId,
    },
    /// Widest-path bottleneck width `src -> dst` (0 when unreachable).
    Sswp {
        /// Path source.
        src: VertexId,
        /// Path destination.
        dst: VertexId,
    },
}

/// The query classes the service batches by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// PageRank value reads.
    PageRank,
    /// Connected-component label reads.
    Components,
    /// Shortest-path queries.
    Sssp,
    /// Hop-count queries.
    Bfs,
    /// Widest-path queries.
    Sswp,
}

impl QueryClass {
    /// All classes, in reporting order.
    pub const ALL: [QueryClass; 5] = [
        QueryClass::PageRank,
        QueryClass::Components,
        QueryClass::Sssp,
        QueryClass::Bfs,
        QueryClass::Sswp,
    ];

    /// Stable wire/report name.
    pub fn name(self) -> &'static str {
        match self {
            QueryClass::PageRank => "pagerank",
            QueryClass::Components => "cc",
            QueryClass::Sssp => "sssp",
            QueryClass::Bfs => "bfs",
            QueryClass::Sswp => "sswp",
        }
    }

    /// Parses a wire/report name.
    pub fn parse(s: &str) -> Option<QueryClass> {
        QueryClass::ALL.into_iter().find(|c| c.name() == s)
    }

    /// The row of the application table this class serves — with the
    /// class's source as root and the service's PageRank threshold, the
    /// algorithm whose converged column a response is read from
    /// (`App::golden_values` recomputes it).
    pub fn app(self) -> gp_algorithms::App {
        use gp_algorithms::App;
        match self {
            QueryClass::PageRank => App::PageRank,
            QueryClass::Components => App::Cc,
            QueryClass::Sssp => App::Sssp,
            QueryClass::Bfs => App::Bfs,
            QueryClass::Sswp => App::Sswp,
        }
    }

    /// Position in [`QueryClass::ALL`].
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Whether a column of this class is keyed by a path source (as
    /// opposed to the one whole-graph column of PageRank or CC).
    pub(crate) fn is_path(self) -> bool {
        matches!(self, QueryClass::Sssp | QueryClass::Bfs | QueryClass::Sswp)
    }
}

impl Query {
    /// The class this query batches under.
    pub fn class(&self) -> QueryClass {
        self.parts().0
    }

    /// `(class, column key, vertex read)`: the key is the path source, `0`
    /// for the whole-graph classes, and `(class, key)` names the one
    /// column the answer is read from.
    pub fn parts(&self) -> (QueryClass, u32, u32) {
        match *self {
            Query::PageRank { v } => (QueryClass::PageRank, 0, v.get()),
            Query::Components { v } => (QueryClass::Components, 0, v.get()),
            Query::Sssp { src, dst } => (QueryClass::Sssp, src.get(), dst.get()),
            Query::Bfs { src, dst } => (QueryClass::Bfs, src.get(), dst.get()),
            Query::Sswp { src, dst } => (QueryClass::Sswp, src.get(), dst.get()),
        }
    }

    fn validate(&self, num_vertices: usize) -> Result<(), Rejection> {
        let (_, key, read) = self.parts();
        for v in [key, read] {
            if v as usize >= num_vertices {
                return Err(Rejection::BadQuery(format!(
                    "vertex {} out of range for {num_vertices} vertices",
                    VertexId::new(v)
                )));
            }
        }
        Ok(())
    }
}

/// A served query result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryResponse {
    /// Epoch of the data this answer was computed on. Under degradation
    /// this may be older than the epoch current at serve time — it is
    /// always the epoch the value is *exact* for.
    pub epoch: u64,
    /// The queried value (PageRank mass, component label, distance, hop
    /// count, or width; ∞ / 0 for unreachable path queries).
    pub value: f64,
    /// Whether this answer was served from cached last-epoch results
    /// because the update pipeline had fallen behind.
    pub degraded: bool,
}

/// Server tuning knobs: the values some caller sets. Everything else the
/// service is tuned by is a constant below.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Registered tenant names; queries carry a tenant id (index).
    pub tenants: Vec<String>,
    /// Executor threads (= admission lanes). Queries route to lanes by
    /// `(class, source)` hash, so each cached column is owned by exactly
    /// one lane. Minimum 1.
    pub executors: usize,
    /// Whole-graph (PageRank/CC) refresh stride under epoch churn: a
    /// cached column is reused — flagged [`QueryResponse::degraded`] and
    /// named exactly at its own epoch — until the sweep's pinned epoch is
    /// at least this many epochs ahead, then re-converged. Whole-graph
    /// convergence costs seconds per epoch on large graphs while path
    /// queries (which always chase the head) cost microseconds, so
    /// chasing every published epoch lets write churn starve read
    /// throughput; this bounds that staleness at a fixed number of
    /// epochs instead. `1` chases every epoch. Minimum 1. A PageRank
    /// refresh seeds the column's residual on the pinned graph and runs
    /// once, however many epochs it trails by, so PageRank runs cold
    /// only for its first column; a CC refresh is always cold. The
    /// default is 8 because the serve tests and the repo benchmark's
    /// serve workload, which publishes eight batches per pass and so
    /// refreshes once per pass, are sized on it.
    pub refresh_lag: usize,
    /// Overlay compaction threshold (pool fraction of base edges), applied
    /// off the read path after each publish.
    pub compact_fraction: f64,
    /// Recent epochs retained for [`SnapshotStore::epoch`] lookups
    /// (offline verification recomputes on exactly the served epoch).
    /// Serving reads none of this history: an executor reads only the
    /// epoch it pinned. A retained epoch nobody holds costs its delta,
    /// not a graph.
    pub retain_epochs: usize,
    /// PageRank damping factor.
    pub pagerank_damping: f64,
    /// PageRank convergence threshold (also sets its comparison
    /// tolerance).
    pub pagerank_threshold: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            tenants: vec!["default".to_string()],
            executors: 1,
            refresh_lag: 8,
            compact_fraction: 0.25,
            retain_epochs: 64,
            pagerank_damping: 0.85,
            pagerank_threshold: 1e-9,
        }
    }
}

/// Per-tenant admitted-query bound ([`Rejection::QueueFull`] beyond).
const QUEUE_CAPACITY: usize = 1_024;
/// Global admitted-query bound ([`Rejection::Overloaded`] beyond).
const GLOBAL_CAPACITY: usize = 8_192;
/// Most queries one executor sweep serves (the batching window's size
/// bound; same-class queries within a sweep share runs).
pub(crate) const MAX_BATCH: usize = 256;
/// How long an idle executor waits for queries to batch up.
pub(crate) const BATCH_WINDOW: Duration = Duration::from_micros(200);
/// Bounded depth of the update-batch queue; a full queue is backpressure
/// on the updater.
const UPDATE_QUEUE: usize = 8;
/// Update batches pending at or beyond which reads degrade to the columns
/// a lane already holds instead of recomputing — the service sheds
/// *freshness*, not availability, when writes outpace it.
pub(crate) const DEGRADE_LAG: usize = 4;
/// Path columns one lane holds across its three path classes before the
/// stale ones (then all of them) are dropped.
pub(crate) const PATH_CACHE_SOURCES: usize = 128;

/// Monotone service counters, updated by the executor/writer threads and
/// readable at any time via [`ServeStats::snapshot`].
#[derive(Debug, Default)]
pub struct ServeStats {
    served: [AtomicU64; 5],
    degraded: AtomicU64,
    rejected: AtomicU64,
    epochs_published: AtomicU64,
    update_batches: AtomicU64,
    warm_starts: AtomicU64,
    cold_runs: AtomicU64,
    fused_runs: AtomicU64,
    path_cache_hits: AtomicU64,
    path_warm_starts: AtomicU64,
    sweeps: AtomicU64,
}

/// Plain-value copy of [`ServeStats`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Queries served, by [`QueryClass::ALL`] order.
    pub served_by_class: [u64; 5],
    /// Total queries served.
    pub served: u64,
    /// Served answers flagged degraded (stale epoch).
    pub degraded: u64,
    /// Queries shed by admission control (all [`Rejection`] kinds).
    pub rejected: u64,
    /// Epochs published by the writer.
    pub epochs_published: u64,
    /// Update batches applied by the writer.
    pub update_batches: u64,
    /// PageRank re-convergences warm-started from an earlier epoch's
    /// column by one run on its residual (CC never warm-starts).
    pub warm_starts: u64,
    /// PageRank/CC cold (from-scratch) runs.
    pub cold_runs: u64,
    /// SSSP/BFS/SSWP cold (from-scratch) runs, one per `(class, source)`
    /// column — the path classes' [`cold_runs`](Self::cold_runs). The name
    /// is from when up to eight cold sources shared one fused traversal
    /// and this counted traversals; it stays because the
    /// `gp-bench/serve/v3` record and the repo benchmark read it by name.
    pub fused_runs: u64,
    /// Path queries answered from the per-source result cache.
    pub path_cache_hits: u64,
    /// Cached path columns one epoch behind re-converged to the pin by
    /// replaying the pinned epoch's delta instead of running cold.
    pub path_warm_starts: u64,
    /// Executor batching sweeps that served at least one query.
    pub sweeps: u64,
}

impl ServeStats {
    pub(crate) fn count_served(&self, class: QueryClass, degraded: bool) {
        self.served[class.index()].fetch_add(1, Ordering::Relaxed);
        if degraded {
            self.degraded.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn count(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        let served_by_class: [u64; 5] =
            std::array::from_fn(|i| self.served[i].load(Ordering::Relaxed));
        StatsSnapshot {
            served_by_class,
            served: served_by_class.iter().sum(),
            degraded: self.degraded.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            epochs_published: self.epochs_published.load(Ordering::Relaxed),
            update_batches: self.update_batches.load(Ordering::Relaxed),
            warm_starts: self.warm_starts.load(Ordering::Relaxed),
            cold_runs: self.cold_runs.load(Ordering::Relaxed),
            fused_runs: self.fused_runs.load(Ordering::Relaxed),
            path_cache_hits: self.path_cache_hits.load(Ordering::Relaxed),
            path_warm_starts: self.path_warm_starts.load(Ordering::Relaxed),
            sweeps: self.sweeps.load(Ordering::Relaxed),
        }
    }
}

/// One admitted query in flight: what the executor answers.
pub(crate) struct Request {
    pub(crate) query: Query,
    pub(crate) reply: mpsc::Sender<QueryResponse>,
}

/// State shared by the handle, clients, and the executor thread.
pub(crate) struct Shared {
    pub(crate) queues: AdmissionQueues<Request>,
    pub(crate) store: SnapshotStore,
    pub(crate) stats: ServeStats,
    /// Update batches submitted but not yet published — the freshness lag
    /// that triggers degradation.
    pub(crate) update_lag: AtomicUsize,
    /// Set by [`ServeHandle::shutdown`]; the writer exits once this is set
    /// and every submitted batch has been applied (it cannot rely on
    /// channel disconnection alone — long-lived front-end threads may
    /// hold [`Updater`] clones).
    pub(crate) shutting_down: AtomicBool,
    pub(crate) num_vertices: usize,
    pub(crate) config: ServeConfig,
}

/// The in-process service: owns the executor and writer threads.
///
/// Dropping the handle without calling [`shutdown`](ServeHandle::shutdown)
/// detaches the threads (they exit once every client and updater clone is
/// gone); tests and the bench always shut down explicitly.
pub struct Server;

impl Server {
    /// Builds the service over `base` and starts its threads: epoch 0 is
    /// the frozen base graph, the executor begins draining queries, the
    /// writer begins consuming update batches.
    ///
    /// # Panics
    ///
    /// Panics, naming the field, unless `0 < pagerank_damping < 1`,
    /// `pagerank_threshold >= 0` and `compact_fraction` is a number —
    /// before any thread starts, rather than in an executor at the first
    /// PageRank query (which would leave that lane's later queries
    /// unanswered) or in a writer that never compacts.
    pub fn start(base: CsrGraph, config: ServeConfig) -> ServeHandle {
        assert!(
            config.pagerank_damping > 0.0 && config.pagerank_damping < 1.0,
            "ServeConfig::pagerank_damping must be in (0, 1), got {}",
            config.pagerank_damping
        );
        assert!(
            config.pagerank_threshold >= 0.0,
            "ServeConfig::pagerank_threshold must be nonnegative, got {}",
            config.pagerank_threshold
        );
        assert!(
            !config.compact_fraction.is_nan(),
            "ServeConfig::compact_fraction must be a number, got NaN"
        );
        let mut config = config;
        config.executors = config.executors.max(1);
        config.refresh_lag = config.refresh_lag.max(1);
        let num_vertices = base.num_vertices();
        let mut overlay = OverlayGraph::new(base);
        let store = SnapshotStore::new(overlay.freeze(), config.retain_epochs);
        let shared = Arc::new(Shared {
            queues: AdmissionQueues::new(
                config.tenants.clone(),
                QUEUE_CAPACITY,
                GLOBAL_CAPACITY,
                config.executors,
            ),
            store,
            stats: ServeStats::default(),
            update_lag: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            num_vertices,
            config: config.clone(),
        });

        let (update_tx, update_rx) = mpsc::sync_channel::<Vec<EdgeUpdate>>(UPDATE_QUEUE);

        let writer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gp-serve-writer".into())
                .spawn(move || loop {
                    match update_rx.recv_timeout(Duration::from_millis(20)) {
                        Ok(updates) => {
                            let applied = overlay.apply(&updates);
                            if !applied.is_empty() {
                                ServeStats::count(&shared.stats.epochs_published);
                                shared.store.publish(overlay.freeze(), applied);
                                // Compaction runs after publish, off the
                                // read path; pinned snapshots keep their
                                // base Arc.
                                overlay.maybe_compact(shared.config.compact_fraction);
                            }
                            ServeStats::count(&shared.stats.update_batches);
                            shared.update_lag.fetch_sub(1, Ordering::Relaxed);
                        }
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            if shared.shutting_down.load(Ordering::Relaxed)
                                && shared.update_lag.load(Ordering::Relaxed) == 0
                            {
                                break;
                            }
                        }
                        Err(mpsc::RecvTimeoutError::Disconnected) => break,
                    }
                })
                .expect("spawn writer thread")
        };

        let executors = (0..config.executors)
            .map(|lane| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gp-serve-executor-{lane}"))
                    .spawn(move || executor::run(&shared, lane))
                    .expect("spawn executor thread")
            })
            .collect();

        ServeHandle {
            shared,
            update_tx,
            executors,
            writer: Some(writer),
        }
    }
}

/// Owner handle of a running service.
pub struct ServeHandle {
    shared: Arc<Shared>,
    update_tx: SyncSender<Vec<EdgeUpdate>>,
    executors: Vec<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
}

impl ServeHandle {
    /// A cheap, clonable query client.
    pub fn client(&self) -> ServeClient {
        ServeClient {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A cheap, clonable update submitter.
    pub fn updater(&self) -> Updater {
        Updater {
            shared: Arc::clone(&self.shared),
            tx: self.update_tx.clone(),
        }
    }

    /// The snapshot store — pin or look up epochs (offline verification
    /// recomputes on exactly the epoch a response named).
    pub fn store(&self) -> &SnapshotStore {
        &self.shared.store
    }

    /// Current service counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Stops admission, drains every already-admitted query, applies every
    /// already-submitted update batch, joins the threads, and returns the
    /// final counters.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shared.queues.close();
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
        // The writer drains every batch submitted before this flag flips,
        // then exits on its next timeout tick (it cannot wait for channel
        // disconnection: front-end threads may still hold Updater clones).
        self.shared.shutting_down.store(true, Ordering::Relaxed);
        drop(self.update_tx);
        if let Some(h) = self.writer.take() {
            let _ = h.join();
        }
        self.shared.stats.snapshot()
    }
}

/// Routes a query to an executor lane by the `(class, key)` of the column
/// it reads: all whole-graph reads of a class share a lane, and one lane
/// owns every query against a given path source, so each column is
/// touched by exactly one thread.
pub(crate) fn lane_of(query: &Query, lanes: usize) -> usize {
    if lanes <= 1 {
        return 0;
    }
    let (class, key, _) = query.parts();
    // Fibonacci-style multiply hash; deterministic across runs.
    let mut h = (class.index() as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(key).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    h ^= h >> 31;
    (h % lanes as u64) as usize
}

/// Clonable query-side client of a running service.
#[derive(Clone)]
pub struct ServeClient {
    shared: Arc<Shared>,
}

impl ServeClient {
    /// Submits `query` for tenant id `tenant` and blocks for the answer.
    ///
    /// # Errors
    ///
    /// A typed [`Rejection`] when admission sheds the query (bad query,
    /// unknown tenant, per-tenant or global backpressure, shutdown).
    pub fn query(&self, tenant: usize, query: Query) -> Result<QueryResponse, Rejection> {
        let rx = self.query_async(tenant, query)?;
        rx.recv().map_err(|_| Rejection::ShuttingDown)
    }

    /// Submits `query` without blocking; the receiver yields the answer
    /// when the executor serves it.
    ///
    /// # Errors
    ///
    /// A typed [`Rejection`] when admission sheds the query.
    pub fn query_async(
        &self,
        tenant: usize,
        query: Query,
    ) -> Result<mpsc::Receiver<QueryResponse>, Rejection> {
        if let Err(r) = query.validate(self.shared.num_vertices) {
            ServeStats::count(&self.shared.stats.rejected);
            return Err(r);
        }
        let (reply, rx) = mpsc::channel();
        let lane = lane_of(&query, self.shared.queues.lanes());
        match self
            .shared
            .queues
            .submit(tenant, lane, Request { query, reply })
        {
            Ok(()) => Ok(rx),
            Err(r) => {
                ServeStats::count(&self.shared.stats.rejected);
                Err(r)
            }
        }
    }

    /// Resolves a tenant name to the id [`query`](ServeClient::query)
    /// takes.
    pub fn tenant_id(&self, name: &str) -> Option<usize> {
        self.shared.queues.tenant_id(name)
    }

    /// Vertex count of the served graph (constant across epochs).
    pub fn num_vertices(&self) -> usize {
        self.shared.num_vertices
    }

    /// Current epoch number (advances as the writer publishes).
    pub fn current_epoch(&self) -> u64 {
        self.shared.store.current_number()
    }
}

/// Checks one edge update against a graph of `num_vertices` vertices: both
/// endpoints in range and, for an insert, a weight that is finite and
/// `> 0` — the precondition the path classes' incremental re-convergence
/// documents (`Sssp`'s `IncrementalAlgorithm` impl). An endpoint out of
/// range would panic the writer in `OverlayGraph::apply`, and a negative
/// cycle would keep every later SSSP run on the epoch from terminating.
pub(crate) fn check_update(update: &EdgeUpdate, num_vertices: usize) -> Result<(), String> {
    let (src, dst, weight) = match *update {
        EdgeUpdate::Insert { src, dst, weight } => (src, dst, Some(weight)),
        EdgeUpdate::Delete { src, dst } => (src, dst, None),
    };
    if let Some(v) = [src, dst].into_iter().find(|v| v.index() >= num_vertices) {
        return Err(format!(
            "vertex {} out of range for {num_vertices} vertices",
            v.get()
        ));
    }
    match weight {
        Some(w) if !(w.is_finite() && w > 0.0) => {
            Err(format!("bad weight: {w} is not finite and > 0"))
        }
        _ => Ok(()),
    }
}

/// Clonable update-side client: submits edge-update batches to the writer.
#[derive(Clone)]
pub struct Updater {
    shared: Arc<Shared>,
    tx: SyncSender<Vec<EdgeUpdate>>,
}

impl Updater {
    /// Refuses a batch with an update [`check_update`] rejects, before it
    /// counts toward the lag: the writer applies what it is sent unchecked.
    fn check(&self, updates: &[EdgeUpdate]) -> Result<(), Rejection> {
        updates.iter().enumerate().try_for_each(|(i, u)| {
            check_update(u, self.shared.num_vertices)
                .map_err(|e| Rejection::BadQuery(format!("update {i} ({u:?}): {e}")))
        })
    }

    /// Submits a batch, blocking while the bounded update queue is full —
    /// the writer's backpressure on a too-fast updater. Returns `false`
    /// if the batch is refused (see [`try_submit`](Updater::try_submit))
    /// or the writer is gone (post-shutdown).
    pub fn submit(&self, updates: Vec<EdgeUpdate>) -> bool {
        if self.check(&updates).is_err() {
            return false;
        }
        // Counted before the send: the writer decrements as soon as it
        // has applied the batch, which can be before `send` returns here.
        self.shared.update_lag.fetch_add(1, Ordering::Relaxed);
        let sent = self.tx.send(updates).is_ok();
        if !sent {
            self.shared.update_lag.fetch_sub(1, Ordering::Relaxed);
        }
        sent
    }

    /// Non-blocking submit.
    ///
    /// # Errors
    ///
    /// [`Rejection::BadQuery`] naming the first update with an endpoint out
    /// of range or a weight that is not finite and `> 0`,
    /// [`Rejection::Overloaded`] when the update queue is full,
    /// [`Rejection::ShuttingDown`] when the writer is gone.
    pub fn try_submit(&self, updates: Vec<EdgeUpdate>) -> Result<(), Rejection> {
        self.check(&updates)?;
        self.shared.update_lag.fetch_add(1, Ordering::Relaxed);
        self.tx.try_send(updates).map_err(|e| {
            self.shared.update_lag.fetch_sub(1, Ordering::Relaxed);
            match e {
                TrySendError::Full(_) => Rejection::Overloaded,
                TrySendError::Disconnected(_) => Rejection::ShuttingDown,
            }
        })
    }

    /// Update batches submitted but not yet published.
    pub fn lag(&self) -> usize {
        self.shared.update_lag.load(Ordering::Relaxed)
    }

    /// Current epoch number.
    pub fn current_epoch(&self) -> u64 {
        self.shared.store.current_number()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ownership the lane-local columns rely on: a column's
    /// `(class, key)` picks its lane, whatever vertex is read from it.
    #[test]
    fn lane_depends_only_on_class_and_key() {
        let v = VertexId::new;
        for lanes in 1..=8 {
            let pagerank = lane_of(&Query::PageRank { v: v(0) }, lanes);
            let components = lane_of(&Query::Components { v: v(0) }, lanes);
            for x in 0..64 {
                assert_eq!(lane_of(&Query::PageRank { v: v(x) }, lanes), pagerank);
                assert_eq!(lane_of(&Query::Components { v: v(x) }, lanes), components);
                for src in [0, 7, 300].map(v) {
                    let dst = v(x);
                    for (a, b) in [
                        (Query::Sssp { src, dst }, Query::Sssp { src, dst: v(0) }),
                        (Query::Bfs { src, dst }, Query::Bfs { src, dst: v(0) }),
                        (Query::Sswp { src, dst }, Query::Sswp { src, dst: v(0) }),
                    ] {
                        assert!(lane_of(&a, lanes) < lanes);
                        assert_eq!(lane_of(&a, lanes), lane_of(&b, lanes), "{a:?}");
                    }
                }
            }
        }
    }

    /// Starts a service over a small graph with `config`.
    fn start(config: ServeConfig) -> ServeHandle {
        let g = gp_graph::generators::erdos_renyi(
            64,
            256,
            gp_graph::generators::WeightMode::Uniform(1.0, 9.0),
            3,
        );
        Server::start(g, config)
    }

    #[test]
    #[should_panic(expected = "ServeConfig::pagerank_damping")]
    fn a_damping_of_one_is_refused_at_start() {
        start(ServeConfig {
            pagerank_damping: 1.0,
            ..ServeConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "ServeConfig::pagerank_damping")]
    fn a_zero_damping_is_refused_at_start() {
        start(ServeConfig {
            pagerank_damping: 0.0,
            ..ServeConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "ServeConfig::pagerank_threshold")]
    fn a_negative_threshold_is_refused_at_start() {
        start(ServeConfig {
            pagerank_threshold: -1e-9,
            ..ServeConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "ServeConfig::pagerank_threshold")]
    fn a_nan_threshold_is_refused_at_start() {
        start(ServeConfig {
            pagerank_threshold: f64::NAN,
            ..ServeConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "ServeConfig::compact_fraction")]
    fn a_nan_compact_fraction_is_refused_at_start() {
        start(ServeConfig {
            compact_fraction: f64::NAN,
            ..ServeConfig::default()
        });
    }

    /// A threshold of zero is a valid PageRank (it runs to a fixed point),
    /// so the check must let it through to an answer.
    #[test]
    fn a_zero_threshold_starts_and_answers() {
        let handle = start(ServeConfig {
            pagerank_threshold: 0.0,
            ..ServeConfig::default()
        });
        let response = handle
            .client()
            .query(
                0,
                Query::PageRank {
                    v: VertexId::new(5),
                },
            )
            .expect("admitted");
        assert!(response.value.is_finite() && response.value > 0.0);
        assert_eq!(handle.shutdown().served, 1);
    }
}
