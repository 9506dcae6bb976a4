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
//!   `Arc` without disturbing pinned readers.
//! * **Batched query execution** ([`executor`]): a pool of
//!   [`ServeConfig::executors`] executor threads, one per admission
//!   *lane*, drains admitted queries in windows and groups them by
//!   class. Queries route to lanes by `(class, source)` hash, so every
//!   query for a given path source lands on the same executor and its
//!   per-source column cache stays thread-local (no cross-thread cache
//!   coherence). PageRank/CC per-epoch runs are memoized once in shared,
//!   mutex-guarded caches (warm-started through
//!   [`incremental_seeds`](gp_algorithms::incremental_seeds) +
//!   [`run_turbo_seeded`](gp_turbo::run_turbo_seeded) when the epoch
//!   advanced by one overlay delta) and the projected vectors are
//!   `Arc`-shared to every lane. Path queries fuse through [`FusedPaths`]
//!   multi-source frontier fusion — up to [`LANES`] same-class sources
//!   per traversal — and cached columns warm-start across epochs by
//!   replaying the overlay deltas incrementally. All turbo runs use
//!   [`ServeConfig::turbo_shards`] engine shards; sharded runs are
//!   bit-identical to single-shard runs, so responses stay golden-exact
//!   regardless of the shard count.
//! * **Admission control** ([`admission`]): bounded per-tenant queues, a
//!   global overload ceiling, typed [`Rejection`]s, and graceful
//!   degradation — when the update pipeline lags behind
//!   [`ServeConfig::degrade_lag`] batches, reads are served from the last
//!   computed epoch (flagged [`QueryResponse::degraded`]) instead of
//!   stalling on recomputes.
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
pub mod fused;
pub mod net;
pub mod snapshot;

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gp_graph::{CsrGraph, EdgeUpdate, OverlayGraph, VertexId};
use gp_turbo::TurboConfig;

pub use admission::{AdmissionQueues, Rejection};
pub use fused::{FusedPaths, PathKind, LANES};
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
}

impl Query {
    /// The class this query batches under.
    pub fn class(&self) -> QueryClass {
        match self {
            Query::PageRank { .. } => QueryClass::PageRank,
            Query::Components { .. } => QueryClass::Components,
            Query::Sssp { .. } => QueryClass::Sssp,
            Query::Bfs { .. } => QueryClass::Bfs,
            Query::Sswp { .. } => QueryClass::Sswp,
        }
    }

    fn validate(&self, num_vertices: usize) -> Result<(), Rejection> {
        let check = |v: VertexId| {
            if v.index() < num_vertices {
                Ok(())
            } else {
                Err(Rejection::BadQuery(format!(
                    "vertex {v} out of range for {num_vertices} vertices"
                )))
            }
        };
        match *self {
            Query::PageRank { v } | Query::Components { v } => check(v),
            Query::Sssp { src, dst } | Query::Bfs { src, dst } | Query::Sswp { src, dst } => {
                check(src).and_then(|()| check(dst))
            }
        }
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

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Registered tenant names; queries carry a tenant id (index).
    pub tenants: Vec<String>,
    /// Executor threads (= admission lanes). Queries route to lanes by
    /// `(class, source)` hash so per-source path caches stay
    /// thread-local. Minimum 1.
    pub executors: usize,
    /// Vertex shards for every turbo run the service performs. Sharded
    /// runs are bit-identical to single-shard runs. Minimum 1.
    pub turbo_shards: usize,
    /// Per-tenant admitted-query bound ([`Rejection::QueueFull`] beyond).
    pub queue_capacity: usize,
    /// Global admitted-query bound ([`Rejection::Overloaded`] beyond).
    pub global_capacity: usize,
    /// Most queries one executor sweep serves (the batching window's size
    /// bound; same-class queries within a sweep share runs).
    pub max_batch: usize,
    /// How long an idle executor waits for queries to batch up.
    pub batch_window: Duration,
    /// Bounded depth of the update-batch queue; a full queue is
    /// backpressure on the updater.
    pub update_queue: usize,
    /// Update batches pending beyond which reads degrade to cached
    /// last-epoch results instead of recomputing — the service sheds
    /// *freshness*, not availability, when writes outpace it.
    pub degrade_lag: usize,
    /// Whole-graph (PageRank/CC) refresh stride under epoch churn: a
    /// cached vector is reused — flagged [`QueryResponse::degraded`] and
    /// named exactly at its own epoch — until the sweep's pinned epoch is
    /// at least this many epochs ahead, then re-converged. Whole-graph
    /// convergence costs seconds per epoch on large graphs while path
    /// queries (which always chase the head) cost microseconds, so
    /// chasing every published epoch lets write churn starve read
    /// throughput; this bounds that staleness at a fixed number of
    /// epochs instead. `1` chases every epoch. Minimum 1. The default
    /// matches the longest path-column replay chain (`MAX_WARM_CHAIN`),
    /// so one whole-graph refresh spans the same epoch window as the
    /// deepest path replay.
    pub refresh_lag: usize,
    /// Overlay compaction threshold (pool fraction of base edges), applied
    /// off the read path after each publish.
    pub compact_fraction: f64,
    /// Recent epochs retained for [`SnapshotStore::epoch`] lookups
    /// (offline verification recomputes on exactly the served epoch).
    pub retain_epochs: usize,
    /// Consecutive warm starts of a PageRank/CC cache before a forced
    /// cold run, bounding incremental drift accumulation.
    pub warm_limit: u32,
    /// Per-source path-result cache entries before the cache is cleared.
    pub path_cache_sources: usize,
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
            turbo_shards: 1,
            queue_capacity: 1_024,
            global_capacity: 8_192,
            max_batch: 256,
            batch_window: Duration::from_micros(200),
            update_queue: 8,
            degrade_lag: 4,
            refresh_lag: 8,
            compact_fraction: 0.25,
            retain_epochs: 64,
            warm_limit: 16,
            path_cache_sources: 128,
            pagerank_damping: 0.85,
            pagerank_threshold: 1e-9,
        }
    }
}

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
    /// PageRank/CC re-convergences warm-started from the parent epoch.
    pub warm_starts: u64,
    /// PageRank/CC cold (from-scratch) runs.
    pub cold_runs: u64,
    /// Fused multi-source path traversals executed.
    pub fused_runs: u64,
    /// Path queries answered from the per-source result cache.
    pub path_cache_hits: u64,
    /// Cached path columns re-converged to a newer epoch by replaying
    /// overlay deltas incrementally instead of a cold fused traversal.
    pub path_warm_starts: u64,
    /// Executor batching sweeps that served at least one query.
    pub sweeps: u64,
}

impl ServeStats {
    pub(crate) fn count_served(&self, class: QueryClass, degraded: bool) {
        let i = QueryClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("class");
        self.served[i].fetch_add(1, Ordering::Relaxed);
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
    /// Whole-graph PageRank/CC caches, computed once per epoch under a
    /// mutex and `Arc`-shared to every executor lane.
    pub(crate) caches: executor::SharedCaches,
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
    /// Geometry of every turbo run the service performs:
    /// [`ServeConfig::turbo_shards`] shards, defaults otherwise.
    pub(crate) turbo: TurboConfig,
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
    pub fn start(base: CsrGraph, config: ServeConfig) -> ServeHandle {
        let mut config = config;
        config.executors = config.executors.max(1);
        config.turbo_shards = config.turbo_shards.max(1);
        config.refresh_lag = config.refresh_lag.max(1);
        let num_vertices = base.num_vertices();
        let mut overlay = OverlayGraph::new(base);
        let store = SnapshotStore::new(overlay.freeze(), config.retain_epochs);
        let shared = Arc::new(Shared {
            queues: AdmissionQueues::new(
                config.tenants.clone(),
                config.queue_capacity,
                config.global_capacity,
                config.executors,
            ),
            store,
            stats: ServeStats::default(),
            caches: executor::SharedCaches::new(&config),
            update_lag: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            num_vertices,
            turbo: TurboConfig {
                shards: config.turbo_shards,
                ..TurboConfig::default()
            },
            config: config.clone(),
        });

        let (update_tx, update_rx) = mpsc::sync_channel::<Vec<EdgeUpdate>>(config.update_queue);

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

/// Routes a query to an executor lane. All whole-graph reads of a class
/// share a lane; path queries route by `(class, source)` so one lane owns
/// every query against a given source column and its cache entry is
/// touched by exactly one thread.
pub(crate) fn lane_of(query: &Query, lanes: usize) -> usize {
    if lanes <= 1 {
        return 0;
    }
    let (class, src) = match *query {
        Query::PageRank { .. } => (0u64, 0u32),
        Query::Components { .. } => (1, 0),
        Query::Sssp { src, .. } => (2, src.get()),
        Query::Bfs { src, .. } => (3, src.get()),
        Query::Sswp { src, .. } => (4, src.get()),
    };
    // Fibonacci-style multiply hash; deterministic across runs.
    let mut h = class
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(src).wrapping_mul(0xBF58_476D_1CE4_E5B9));
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

/// Clonable update-side client: submits edge-update batches to the writer.
#[derive(Clone)]
pub struct Updater {
    shared: Arc<Shared>,
    tx: SyncSender<Vec<EdgeUpdate>>,
}

impl Updater {
    /// Submits a batch, blocking while the bounded update queue is full —
    /// the writer's backpressure on a too-fast updater. Returns `false`
    /// if the writer is gone (post-shutdown).
    pub fn submit(&self, updates: Vec<EdgeUpdate>) -> bool {
        match self.tx.send(updates) {
            Ok(()) => {
                self.shared.update_lag.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => false,
        }
    }

    /// Non-blocking submit.
    ///
    /// # Errors
    ///
    /// [`Rejection::Overloaded`] when the update queue is full,
    /// [`Rejection::ShuttingDown`] when the writer is gone.
    pub fn try_submit(&self, updates: Vec<EdgeUpdate>) -> Result<(), Rejection> {
        match self.tx.try_send(updates) {
            Ok(()) => {
                self.shared.update_lag.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(TrySendError::Full(_)) => Err(Rejection::Overloaded),
            Err(TrySendError::Disconnected(_)) => Err(Rejection::ShuttingDown),
        }
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
