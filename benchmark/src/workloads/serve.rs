//! `serve-mixed-r15`: the query service under a closed loop. One driver
//! thread keeps `IN_FLIGHT` `query_async` calls outstanding (30 % PageRank,
//! 10 % components, 60 % SSSP/BFS/SSWP from `HOT_SOURCES` hot sources, the
//! mix of `serve_bench`) against one executor. One pass is exactly one
//! `refresh_lag` window: `BATCHES` update batches submitted at fixed query
//! offsets, each awaited until its epoch is visible, so every pass holds
//! one whole-graph refresh and, by the compaction threshold, compactions.
//!
//! Responses depend on which epoch the service had reached, so they do not
//! repeat between passes; instead every `SAMPLE_EVERY`-th response is
//! re-checked, untimed, against `run_sequential` on the epoch it names.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::Receiver;
use std::time::Duration;

use gp_algorithms::engine::run_sequential;
use gp_algorithms::{Bfs, ConnectedComponents, DeltaAlgorithm, Sssp, Sswp};
use gp_graph::rng::{Rng, StdRng};
use gp_graph::{GraphSnapshot, OverlayGraph, VertexId};
use gp_serve::{
    Query, QueryClass, QueryResponse, ServeClient, ServeConfig, ServeHandle, Server, Updater,
};
use gp_stream::UpdateStream;

use super::{
    graph_layers, hubs, pagerank, resident_rmat, PAGERANK_DAMPING, PAGERANK_THRESHOLD, WEIGHTS,
};
use crate::harness::{Layers, Params, Pass, Workload};
use crate::stats::{median, percentile};
use crate::trace::Tracer;

const QUERIES: usize = 4096;
/// `ServeConfig::refresh_lag`'s default: one whole-graph refresh per pass.
const BATCHES: usize = 8;
const BATCH: usize = 96;
const DELETE_FRACTION: f64 = 0.25;
const IN_FLIGHT: usize = 64;
const HOT_SOURCES: usize = 16;
const SAMPLE_EVERY: u64 = 128;
/// The patch pool grows by about 2.4 % of the base per batch here, so the
/// writer compacts every fourth or fifth batch: once or twice a pass.
const COMPACT_FRACTION: f64 = 0.1;
/// Golden recomputes one verification may spend; samples beyond it on other
/// (class, source, epoch) keys stay unchecked.
const GOLDEN_RUNS: usize = 64;

/// Span names in `QueryClass::ALL` order.
const QUERY_SPANS: [&str; 5] = [
    "query:pagerank",
    "query:cc",
    "query:sssp",
    "query:bfs",
    "query:sswp",
];

fn class_index(class: QueryClass) -> usize {
    QueryClass::ALL
        .iter()
        .position(|&c| c == class)
        .expect("a listed class")
}

type InFlight = (Query, Receiver<QueryResponse>, u64);
/// Golden values and their comparison tolerance.
type Reference = (Vec<f64>, f64);

pub struct Serve {
    handle: ServeHandle,
    client: ServeClient,
    updater: Updater,
    /// Mirror of the writer's overlay: `UpdateStream` draws deletions from
    /// the current edge set, and the service does not hand its overlay out.
    shadow: OverlayGraph,
    updates: UpdateStream,
    rng: StdRng,
    hot: Vec<VertexId>,
    smoke: bool,
    served: u64,
    samples: Vec<(Query, QueryResponse)>,
    compactions: u64,
}

impl Serve {
    fn next_query(&mut self) -> Query {
        let n = self.client.num_vertices() as u32;
        let src = self.hot[self.rng.gen_range(0..self.hot.len())];
        let dst = VertexId::new(self.rng.gen_range(0..n));
        let roll = self.rng.gen_range(0.0..1.0f64);
        if roll < 0.30 {
            Query::PageRank { v: dst }
        } else if roll < 0.40 {
            Query::Components { v: dst }
        } else if roll < 0.60 {
            Query::Sssp { src, dst }
        } else if roll < 0.80 {
            Query::Bfs { src, dst }
        } else {
            Query::Sswp { src, dst }
        }
    }

    /// Waits for the oldest outstanding reply.
    fn settle(&mut self, (query, reply, t0): InFlight, pass: &mut Pass, tr: &mut Tracer) {
        match reply.recv() {
            Ok(response) => {
                if tr.on {
                    tr.record(QUERY_SPANS[class_index(query.class())], t0, tr.now());
                }
                self.served += 1;
                if self.served.is_multiple_of(SAMPLE_EVERY) {
                    self.samples.push((query, response));
                }
            }
            Err(_) => pass.failed += 1,
        }
    }

    /// Applies one update batch to the mirror, submits it, and waits until
    /// the epoch it makes is visible to readers.
    fn publish(&mut self, pass: &mut Pass, tr: &mut Tracer) {
        let batch = self.updates.next_batch(&self.shadow, BATCH);
        tr.span("OverlayGraph::apply", |_| self.shadow.apply(&batch));
        if self.shadow.pool_fraction() >= COMPACT_FRACTION {
            tr.span("OverlayGraph::compact", |_| self.shadow.compact());
            self.compactions += 1;
        }
        pass.attempted += 1;
        let epoch = self.updater.current_epoch();
        let t0 = if tr.on { tr.now() } else { 0 };
        if !self.updater.submit(batch) {
            pass.failed += 1;
            return;
        }
        // A batch with no net effect publishes nothing; the lag still drains.
        while self.updater.current_epoch() == epoch && self.updater.lag() > 0 {
            std::thread::sleep(Duration::from_micros(50));
        }
        if tr.on {
            tr.record("Updater::submit", t0, tr.now());
        }
    }
}

fn golden_values(query: &Query, graph: &GraphSnapshot) -> Reference {
    fn run<A: DeltaAlgorithm>(algo: A, graph: &GraphSnapshot) -> Reference {
        (
            run_sequential(&algo, graph).values,
            algo.comparison_tolerance(),
        )
    }
    match *query {
        Query::PageRank { .. } => run(pagerank(), graph),
        Query::Components { .. } => run(ConnectedComponents::new(), graph),
        Query::Sssp { src, .. } => run(Sssp::new(src), graph),
        Query::Bfs { src, .. } => run(Bfs::new(src), graph),
        Query::Sswp { src, .. } => run(Sswp::new(src), graph),
    }
}

impl Workload for Serve {
    fn setup(p: &Params, tr: &mut Tracer) -> Serve {
        let graph = resident_rmat(p.log2(15), p.seed, tr);
        let n = graph.num_vertices();
        // The hot sources are the hubs: a source drawn at random may reach
        // nothing, and then its share of the path queries costs nothing.
        let hot = hubs(&graph, HOT_SOURCES);
        let rng = StdRng::seed_from_u64(p.seed ^ 0x407);
        let config = ServeConfig {
            executors: 1,
            compact_fraction: COMPACT_FRACTION,
            pagerank_damping: PAGERANK_DAMPING,
            pagerank_threshold: PAGERANK_THRESHOLD,
            ..ServeConfig::default()
        };
        assert_eq!(
            config.refresh_lag, BATCHES,
            "one pass is one refresh window"
        );
        let shadow = OverlayGraph::new(graph.clone());
        let handle = tr.span("Server::start", |_| Server::start(graph, config));
        Serve {
            client: handle.client(),
            updater: handle.updater(),
            handle,
            shadow,
            updates: UpdateStream::new(n, DELETE_FRACTION, WEIGHTS, p.seed ^ 0xDE1A),
            rng,
            hot,
            smoke: p.smoke,
            served: 0,
            samples: Vec::new(),
            compactions: 0,
        }
    }

    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let mut flight: VecDeque<InFlight> = VecDeque::with_capacity(IN_FLIGHT);
        let queries = if self.smoke { QUERIES / 8 } else { QUERIES };
        for _ in 0..BATCHES {
            // The batch comes before its share of the queries: the service
            // refreshes its whole-graph vectors on the first read that finds
            // them `refresh_lag` epochs old, which is then the read after
            // each pass's first batch, with queries on both sides of it. At
            // the end of a pass the refresh would race the pass boundary,
            // and passes with two refreshes and with none would alternate.
            self.publish(&mut pass, tr);
            for _ in 0..queries / BATCHES {
                if flight.len() == IN_FLIGHT {
                    let oldest = flight.pop_front().expect("a full window");
                    self.settle(oldest, &mut pass, tr);
                }
                let query = self.next_query();
                pass.attempted += 1;
                let t0 = if tr.on { tr.now() } else { 0 };
                match self.client.query_async(0, query) {
                    Ok(reply) => flight.push_back((query, reply, t0)),
                    Err(_) => pass.failed += 1,
                }
            }
        }
        for rest in flight {
            self.settle(rest, &mut pass, tr);
        }
        pass
    }

    fn verify(&mut self) -> u64 {
        let mut golden: HashMap<(QueryClass, u32, u64), Option<Reference>> = HashMap::new();
        let (mut wrong, mut checked, mut unchecked) = (0, 0, 0);
        // Newest first: the store retains the most recent epochs only.
        for (query, response) in std::mem::take(&mut self.samples).into_iter().rev() {
            let (src, read) = match query {
                Query::PageRank { v } | Query::Components { v } => (0, v),
                Query::Sssp { src, dst } | Query::Bfs { src, dst } | Query::Sswp { src, dst } => {
                    (src.get(), dst)
                }
            };
            let key = (query.class(), src, response.epoch);
            if !golden.contains_key(&key) {
                let epoch = self
                    .handle
                    .store()
                    .epoch(response.epoch)
                    .filter(|_| golden.len() < GOLDEN_RUNS);
                golden.insert(key, epoch.map(|e| golden_values(&query, &e.graph)));
            }
            let Some((values, tolerance)) = &golden[&key] else {
                unchecked += 1;
                continue;
            };
            checked += 1;
            let expected = values[read.index()];
            if expected != response.value && (expected - response.value).abs() > *tolerance {
                wrong += 1;
                eprintln!(
                    "MISMATCH {query:?} at epoch {}: served {} vs golden {expected}",
                    response.epoch, response.value
                );
            }
        }
        println!("serve: re-checked {checked} sampled responses against golden, {unchecked} beyond budget or retention");
        wrong
    }

    fn layers(&self, tr: &Tracer, passes: usize, out: &mut Layers) {
        graph_layers(tr, out);
        out.set(
            "graph.overlay_apply_s",
            median(&tr.seconds("OverlayGraph::apply", true)),
        );
        out.set(
            "graph.overlay_compact_s",
            median(&tr.seconds("OverlayGraph::compact", true)),
        );
        out.set("serve.start_s", median(&tr.seconds("Server::start", false)));
        for (class, span) in QueryClass::ALL.iter().zip(QUERY_SPANS) {
            let us: Vec<f64> = tr.seconds(span, true).iter().map(|s| s * 1e6).collect();
            out.set(
                format!("serve.query_us_p50_{}", class.name()),
                percentile(&us, 0.5),
            );
            out.set(
                format!("serve.query_us_p99_{}", class.name()),
                percentile(&us, 0.99),
            );
        }
        let publish_ms: Vec<f64> = tr
            .seconds("Updater::submit", true)
            .iter()
            .map(|s| s * 1e3)
            .collect();
        out.set("serve.publish_ms_p50", median(&publish_ms));

        // Counters cover every pass this server ran, the cold one included.
        let stats = self.handle.stats();
        let per_pass = |count: u64| count as f64 / passes as f64;
        let served = stats.served.max(1) as f64;
        out.set("serve.served", per_pass(stats.served));
        out.set("serve.degraded_share", stats.degraded as f64 / served);
        out.set("serve.rejected", per_pass(stats.rejected));
        out.set("serve.cold_runs", per_pass(stats.cold_runs));
        out.set("serve.warm_starts", per_pass(stats.warm_starts));
        out.set("serve.fused_runs", per_pass(stats.fused_runs));
        let path_queries: u64 = stats.served_by_class[2..].iter().sum();
        out.set(
            "serve.path_cache_hit_ratio",
            stats.path_cache_hits as f64 / path_queries.max(1) as f64,
        );
        out.set("serve.path_warm_starts", per_pass(stats.path_warm_starts));
        out.set("serve.sweeps", per_pass(stats.sweeps));
        out.set(
            "serve.queries_per_sweep",
            served / stats.sweeps.max(1) as f64,
        );
    }

    fn teardown(self) {
        println!("serve: {} compactions mirrored", self.compactions);
        self.handle.shutdown();
    }
}
