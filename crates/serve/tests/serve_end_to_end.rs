//! End-to-end service test: concurrent updates and mixed queries, with
//! every response cross-checked against a golden sequential recompute on
//! the exact epoch the response names.
//!
//! This is the serving contract in miniature: whatever epoch the executor
//! pinned (current or, under degradation, a stale one), the value it
//! returns must be the value a from-scratch golden run produces on that
//! epoch's snapshot — bit-exact for the monotone classes, within the
//! algorithm's comparison tolerance for PageRank.

use std::time::{Duration, Instant};

use gp_algorithms::{accept, max_abs_diff, AppInputs, DeltaAlgorithm, PageRankDelta};
use gp_graph::generators::{rmat, rmat_edges, RmatConfig, WeightMode};
use gp_graph::{EdgeUpdate, GraphBuilder, GraphSnapshot, OverlayGraph, VertexId};
use gp_serve::{Query, QueryClass, Rejection, ServeConfig, ServeHandle, Server};
use gp_stream::UpdateStream;
use gp_turbo::{run_turbo, TurboConfig};

const VERTICES: usize = 1_024;
const BATCHES: usize = 20;
const BATCH_LEN: usize = 32;

/// From-scratch golden value of `query` on `graph`: the vertex it reads in
/// the converged column of its class's application.
fn golden(query: Query, graph: &GraphSnapshot) -> f64 {
    let (class, source, read) = query.parts();
    let threshold = ServeConfig::default().pagerank_threshold;
    golden_column(class, source, threshold, graph)[read as usize]
}

/// The converged column of `class`'s application from `source` on
/// `graph`, PageRank at `threshold`.
fn golden_column(
    class: QueryClass,
    source: u32,
    threshold: f64,
    graph: &GraphSnapshot,
) -> Vec<f64> {
    let inputs = AppInputs {
        root: VertexId::new(source),
        threshold,
        adsorption: None,
    };
    class.app().golden_values(&inputs, graph)
}

/// Submits `updates` and waits until the writer has published them.
fn publish(handle: &ServeHandle, updates: Vec<EdgeUpdate>) {
    let updater = handle.updater();
    assert!(updater.submit(updates));
    while updater.lag() > 0 {
        std::thread::yield_now();
    }
}

#[test]
fn mixed_queries_match_golden_on_their_named_epoch() {
    let g = rmat(
        &RmatConfig::graph500(VERTICES, 8 * VERTICES).with_weights(WeightMode::Uniform(1.0, 9.0)),
        5,
    );
    let shadow_base = g.clone();
    let config = ServeConfig {
        retain_epochs: 256, // keep every epoch for the cross-check
        ..ServeConfig::default()
    };
    let handle = Server::start(g, config);
    let client = handle.client();
    let updater = handle.updater();
    let tenant = client.tenant_id("default").expect("default tenant");

    // Updater thread: deterministic batches against a shadow overlay (the
    // stream needs current topology to generate real deletes).
    let writer = std::thread::spawn(move || {
        let mut shadow = OverlayGraph::new(shadow_base);
        let mut stream = UpdateStream::new(VERTICES, 0.3, WeightMode::Uniform(1.0, 9.0), 77);
        for _ in 0..BATCHES {
            let updates = stream.next_batch(&shadow, BATCH_LEN);
            shadow.apply(&updates);
            assert!(updater.submit(updates));
            std::thread::sleep(Duration::from_millis(1));
        }
    });

    // Client: mixed traffic racing the updater. Sources cycle through a
    // small hot pool so cold runs, replays and the path cache all get
    // exercised.
    let mut answered = Vec::new();
    for i in 0..240u32 {
        let src = VertexId::new((i % 7) * 13 % VERTICES as u32);
        let dst = VertexId::new((i * 37 + 11) % VERTICES as u32);
        let query = match i % 5 {
            0 => Query::PageRank { v: dst },
            1 => Query::Components { v: dst },
            2 => Query::Sssp { src, dst },
            3 => Query::Bfs { src, dst },
            _ => Query::Sswp { src, dst },
        };
        let response = client.query(tenant, query).expect("admitted");
        answered.push((query, response));
    }
    writer.join().expect("updater thread");

    // Malformed queries are shed with a typed rejection, not served.
    let bad = client.query(
        tenant,
        Query::PageRank {
            v: VertexId::new(VERTICES as u32),
        },
    );
    assert!(matches!(bad, Err(Rejection::BadQuery(_))), "{bad:?}");

    // Cross-check every answer on the epoch it names.
    let pagerank = PageRankDelta::new(0.85, 1e-9);
    let tolerance = pagerank.comparison_tolerance();
    let mut degraded_seen = 0u64;
    for (query, response) in &answered {
        let epoch = handle
            .store()
            .epoch(response.epoch)
            .expect("every served epoch is retained");
        assert_eq!(epoch.number, response.epoch);
        if response.degraded {
            degraded_seen += 1;
        }
        let want = golden(*query, &epoch.graph);
        if let Query::PageRank { v } = *query {
            let diff = (want - response.value).abs();
            assert!(
                diff <= tolerance,
                "pagerank({v:?}) off by {diff:e} at epoch {}",
                response.epoch
            );
            continue;
        }
        assert_eq!(
            want.to_bits(),
            response.value.to_bits(),
            "{query:?} at epoch {} (degraded: {})",
            response.epoch,
            response.degraded
        );
    }

    let late_client = client.clone();
    let stats = handle.shutdown();
    assert_eq!(stats.served, 240);
    assert_eq!(stats.update_batches, BATCHES as u64);
    assert!(stats.epochs_published >= 1);
    // `fused_runs` counts cold single-source path runs: 7 sources x 3 path
    // classes each run cold at first sight (more if a column fell past the
    // replay chain while the updater raced ahead).
    assert!(
        stats.fused_runs >= 21,
        "every (class, source) column runs cold once: {stats:?}"
    );
    assert_eq!(stats.rejected, 1, "exactly the malformed query");
    assert_eq!(stats.degraded, degraded_seen);

    // After shutdown the admission queues are closed: typed shed, no hang.
    let refused = late_client.query(
        tenant,
        Query::Components {
            v: VertexId::new(0),
        },
    );
    assert_eq!(refused, Err(Rejection::ShuttingDown));
}

#[test]
fn warm_starts_engage_under_steady_pagerank_traffic() {
    let g = rmat(
        &RmatConfig::graph500(512, 4_096).with_weights(WeightMode::Uniform(1.0, 9.0)),
        9,
    );
    let shadow_base = g.clone();
    // refresh_lag 1 = chase every epoch, so each read exercises the
    // one-delta-behind warm path this test is about.
    let config = ServeConfig {
        refresh_lag: 1,
        ..ServeConfig::default()
    };
    let handle = Server::start(g, config);
    let client = handle.client();
    let updater = handle.updater();
    let tenant = client.tenant_id("default").expect("default tenant");

    let mut shadow = OverlayGraph::new(shadow_base);
    let mut stream = UpdateStream::new(512, 0.3, WeightMode::Uniform(1.0, 9.0), 13);
    for i in 0..8u32 {
        // One batch, then wait until it is applied so the next PageRank
        // read lands exactly one delta behind its cache — the warm path.
        let updates = stream.next_batch(&shadow, 16);
        shadow.apply(&updates);
        assert!(updater.submit(updates));
        while updater.lag() > 0 {
            std::thread::yield_now();
        }
        let r = client
            .query(
                tenant,
                Query::PageRank {
                    v: VertexId::new(i % 512),
                },
            )
            .expect("admitted");
        assert!(!r.degraded);
    }

    let stats = handle.shutdown();
    assert!(
        stats.warm_starts >= 1,
        "steady one-delta-behind traffic should warm-start: {stats:?}"
    );
}

/// At the default `refresh_lag` of 8, a PageRank read that finds its
/// column eight deltas behind catches it up with one replay of the
/// window's net delta, and the answer is golden's within tolerance.
#[test]
fn warm_starts_engage_at_the_default_refresh_lag() {
    let g = rmat(
        &RmatConfig::graph500(512, 4_096).with_weights(WeightMode::Uniform(1.0, 9.0)),
        9,
    );
    let mut shadow = OverlayGraph::new(g.clone());
    let config = ServeConfig::default();
    assert_eq!(config.refresh_lag, 8);
    let handle = Server::start(g, config);
    let client = handle.client();
    let tenant = client.tenant_id("default").expect("default tenant");
    let read = Query::PageRank {
        v: VertexId::new(0),
    };
    let first = client.query(tenant, read).expect("admitted");
    assert_eq!((first.epoch, first.degraded), (0, false));

    let mut stream = UpdateStream::new(512, 0.3, WeightMode::Uniform(1.0, 9.0), 13);
    for _ in 0..8 {
        let updates = stream.next_batch(&shadow, 16);
        shadow.apply(&updates);
        publish(&handle, updates);
    }
    let r = client.query(tenant, read).expect("admitted");
    assert_eq!((r.epoch, r.degraded), (8, false));
    let want = golden(read, &shadow.freeze());
    let tolerance = PageRankDelta::new(0.85, 1e-9).comparison_tolerance();
    assert!(
        (want - r.value).abs() <= tolerance,
        "{} vs golden {want}",
        r.value
    );

    let stats = handle.shutdown();
    assert_eq!((stats.cold_runs, stats.warm_starts), (1, 1), "{stats:?}");
}

/// PageRank carried by residual catch-ups over twelve `refresh_lag`
/// windows (96 deltas) at the service's default threshold and at the
/// benchmark's coarse one. At every refresh the served column passes
/// `accept` against golden and is no farther from a 1e-12 reference than
/// the farthest cold turbo run on those epochs: catching up by the
/// residual does not drift. PageRank runs cold once. The monotone
/// columns, eight epochs behind at every refresh, run cold each time and
/// stay bit-equal to golden.
#[test]
fn pagerank_drift_stays_within_tolerance_up_to_the_warm_limit() {
    const N: usize = 512;
    const SOURCES: [u32; 2] = [0, 77];
    const WINDOWS: u64 = 12;
    for threshold in [1e-9, 1e-3] {
        let g = rmat(
            &RmatConfig::graph500(N, 8 * N).with_weights(WeightMode::Uniform(1.0, 9.0)),
            23,
        );
        let mut shadow = OverlayGraph::new(g.clone());
        let config = ServeConfig {
            pagerank_threshold: threshold,
            ..ServeConfig::default()
        };
        let refresh_lag = config.refresh_lag;
        let handle = Server::start(g, config);
        let client = handle.client();
        let tenant = client.tenant_id("default").expect("default tenant");
        let pagerank = PageRankDelta::new(0.85, threshold);
        let mut stream = UpdateStream::new(N, 0.3, WeightMode::Uniform(1.0, 9.0), 31);

        // Max |x − reference| of the served column and of a cold turbo run,
        // per refresh.
        let (mut served, mut cold) = (Vec::new(), Vec::new());
        for window in 0..WINDOWS {
            let epoch = window * refresh_lag as u64;
            let graph = shadow.freeze();
            let mut columns = vec![(QueryClass::PageRank, 0), (QueryClass::Components, 0)];
            for class in [QueryClass::Sssp, QueryClass::Bfs, QueryClass::Sswp] {
                columns.extend(SOURCES.map(|s| (class, s)));
            }
            for (class, source) in columns {
                let want = golden_column(class, source, threshold, &graph);
                let in_flight: Vec<_> = (0..N as u32)
                    .map(|v| {
                        let (src, v) = (VertexId::new(source), VertexId::new(v));
                        let query = match class {
                            QueryClass::PageRank => Query::PageRank { v },
                            QueryClass::Components => Query::Components { v },
                            QueryClass::Sssp => Query::Sssp { src, dst: v },
                            QueryClass::Bfs => Query::Bfs { src, dst: v },
                            QueryClass::Sswp => Query::Sswp { src, dst: v },
                        };
                        client.query_async(tenant, query).expect("admitted")
                    })
                    .collect();
                let mut got = Vec::with_capacity(N);
                for (v, reply) in in_flight.into_iter().enumerate() {
                    let r = reply.recv().expect("served");
                    assert_eq!((r.epoch, r.degraded), (epoch, false), "{class:?}");
                    if class != QueryClass::PageRank {
                        let label = format!("{class:?} from {source} at {v}, epoch {epoch}");
                        assert_eq!(r.value.to_bits(), want[v].to_bits(), "{label}");
                    }
                    got.push(r.value);
                }
                if class == QueryClass::PageRank {
                    if let Err(e) = accept(&pagerank, &got, &want) {
                        panic!("threshold {threshold:e}, refresh {window}: {e}");
                    }
                    let reference = golden_column(class, 0, 1e-12, &graph);
                    let turbo = run_turbo(&pagerank, &graph, &TurboConfig::default());
                    served.push(max_abs_diff(&got, &reference));
                    cold.push(max_abs_diff(&turbo.values, &reference));
                }
            }
            for _ in 0..refresh_lag {
                let updates = stream.next_batch(&shadow, 16);
                shadow.apply(&updates);
                publish(&handle, updates);
            }
        }
        eprintln!(
            "threshold {threshold:e}: PageRank max |x - reference| per refresh, served {served:?}, \
             cold {cold:?}"
        );
        let farthest_cold = cold.iter().copied().fold(0.0, f64::max);
        for (window, d) in served.iter().enumerate() {
            assert!(
                *d <= farthest_cold,
                "threshold {threshold:e}, refresh {window}: served column {d:e} from the \
                 reference, the farthest cold run {farthest_cold:e}"
            );
        }

        let stats = handle.shutdown();
        assert_eq!(
            (stats.cold_runs, stats.warm_starts),
            (1 + WINDOWS, WINDOWS - 1),
            "{stats:?}"
        );
        assert_eq!(
            stats.fused_runs,
            3 * WINDOWS * SOURCES.len() as u64,
            "{stats:?}"
        );
        assert_eq!(stats.path_warm_starts, 0, "{stats:?}");
    }
}

/// Many distinct cold sources of one path class in flight at once — more
/// than the eight a fused traversal used to hold — each converge in a run
/// of their own, and a vertex nothing reaches reads as the class's own
/// unreached value (BFS keeps it as `u32::MAX`, not as a float) both from
/// a cold column and from one replayed across a published batch.
#[test]
fn a_sweep_of_cold_sources_runs_each_once_and_keeps_the_unreached_value() {
    const N: u32 = 256;
    const SOURCES: u32 = 12;
    // Vertex N has no edge in or out, and no update below gives it one.
    let isolated = VertexId::new(N);
    let mut builder = GraphBuilder::new(N as usize + 1);
    builder.weighted(true);
    let rmat_config = RmatConfig::graph500(N as usize, 8 * N as usize)
        .with_weights(WeightMode::Uniform(1.0, 9.0));
    rmat_edges(&rmat_config, 21, |s, d, w| {
        builder.add_edge(VertexId::new(s), VertexId::new(d), w);
    });
    let g = builder.build();
    let removed = g
        .out_edges(VertexId::new(0))
        .next()
        .expect("the R-MAT hub has an out-edge")
        .other;

    let handle = Server::start(g, ServeConfig::default());
    let client = handle.client();
    let updater = handle.updater();
    let tenant = client.tenant_id("default").expect("default tenant");

    type Class = (&'static str, fn(VertexId, VertexId) -> Query, f64);
    let classes: [Class; 3] = [
        ("sssp", |src, dst| Query::Sssp { src, dst }, f64::INFINITY),
        ("bfs", |src, dst| Query::Bfs { src, dst }, f64::INFINITY),
        ("sswp", |src, dst| Query::Sswp { src, dst }, 0.0),
    ];
    // Every source is read twice: at some other vertex and at the isolated
    // one. All of a class's reads are in flight before the first reply.
    let sweep = |make: fn(VertexId, VertexId) -> Query, unreached: f64, want_epoch: u64| {
        let in_flight: Vec<_> = (0..SOURCES)
            .flat_map(|i| {
                let src = VertexId::new(i * 7 % N);
                [VertexId::new((i * 37 + 11) % N), isolated].map(|dst| (make(src, dst), dst))
            })
            .map(|(query, dst)| {
                let reply = client.query_async(tenant, query).expect("admitted");
                (query, dst, reply)
            })
            .collect();
        for (query, dst, reply) in in_flight {
            let response = reply.recv().expect("served");
            assert_eq!(response.epoch, want_epoch, "{query:?}");
            let epoch = handle.store().epoch(response.epoch).expect("retained");
            let want = golden(query, &epoch.graph);
            assert_eq!(response.value.to_bits(), want.to_bits(), "{query:?}");
            if dst == isolated {
                assert_eq!(response.value.to_bits(), unreached.to_bits(), "{query:?}");
            }
        }
    };

    for (done, &(name, make, unreached)) in classes.iter().enumerate() {
        sweep(make, unreached, 0);
        let stats = handle.stats();
        let columns = (done as u64 + 1) * u64::from(SOURCES);
        assert_eq!(stats.fused_runs, columns, "{name}: one cold run per source");
        assert_eq!(stats.path_warm_starts, 0, "{name}");
    }

    // One batch that moves distances but leaves the isolated vertex alone.
    assert!(updater.submit(vec![
        EdgeUpdate::Insert {
            src: VertexId::new(0),
            dst: VertexId::new(N - 1),
            weight: 0.5,
        },
        EdgeUpdate::Delete {
            src: VertexId::new(0),
            dst: removed,
        },
    ]));
    while updater.lag() > 0 {
        std::thread::yield_now();
    }
    assert_eq!(client.current_epoch(), 1);

    for (done, &(name, make, unreached)) in classes.iter().enumerate() {
        sweep(make, unreached, 1);
        let stats = handle.stats();
        let columns = (done as u64 + 1) * u64::from(SOURCES);
        assert_eq!(
            stats.path_warm_starts, columns,
            "{name}: one replay per source"
        );
        assert_eq!(
            stats.fused_runs,
            3 * u64::from(SOURCES),
            "{name}: none ran cold again"
        );
    }
    handle.shutdown();
}

/// A path column catches up only from the epoch just behind the pin. At
/// default retention, one SSSP source runs cold at epoch 0, replays the
/// stored delta one batch later, and runs cold again two batches after
/// that, although every epoch in between is still retained. Every answer
/// is exact for the epoch it names, which is the current one.
#[test]
fn a_path_column_more_than_one_epoch_behind_runs_cold() {
    let g = rmat(
        &RmatConfig::graph500(512, 4_096).with_weights(WeightMode::Uniform(1.0, 9.0)),
        17,
    );
    let mut shadow = OverlayGraph::new(g.clone());
    let handle = Server::start(g, ServeConfig::default());
    let client = handle.client();
    let tenant = client.tenant_id("default").expect("default tenant");
    let query = Query::Sssp {
        src: VertexId::new(0),
        dst: VertexId::new(300),
    };
    let mut stream = UpdateStream::new(512, 0.3, WeightMode::Uniform(1.0, 9.0), 29);

    // (batches published before the read, (fused_runs, path_warm_starts)
    // after it).
    let mut epoch = 0;
    for (batches, counts) in [(0, (1, 0)), (1, (1, 1)), (2, (2, 1))] {
        for _ in 0..batches {
            let updates = stream.next_batch(&shadow, 16);
            shadow.apply(&updates);
            publish(&handle, updates);
        }
        epoch += batches;
        let r = client.query(tenant, query).expect("admitted");
        assert_eq!((r.epoch, r.degraded), (epoch, false));
        let want = golden(query, &shadow.freeze());
        assert_eq!(r.value.to_bits(), want.to_bits(), "epoch {epoch}");
        let stats = handle.stats();
        assert_eq!(
            (stats.fused_runs, stats.path_warm_starts),
            counts,
            "epoch {epoch}"
        );
    }
    handle.shutdown();
}

/// Under `retain_epochs: 2`, a PageRank column eight epochs behind the
/// pin has lost the first links of its chain from history. It catches up
/// warm anyway — its residual reads only the column and the pinned graph
/// — and answers within tolerance of golden on the epoch it names.
#[test]
fn a_pagerank_column_behind_an_evicted_chain_catches_up_warm() {
    let g = rmat(
        &RmatConfig::graph500(512, 4_096).with_weights(WeightMode::Uniform(1.0, 9.0)),
        17,
    );
    let mut shadow = OverlayGraph::new(g.clone());
    let config = ServeConfig {
        retain_epochs: 2,
        ..ServeConfig::default()
    };
    let pagerank = PageRankDelta::new(config.pagerank_damping, config.pagerank_threshold);
    let handle = Server::start(g, config);
    let client = handle.client();
    let tenant = client.tenant_id("default").expect("default tenant");
    let query = Query::PageRank {
        v: VertexId::new(300),
    };

    let first = client.query(tenant, query).expect("admitted");
    assert_eq!((first.epoch, first.degraded), (0, false));
    let before = handle.stats();
    assert_eq!((before.cold_runs, before.warm_starts), (1, 0));

    let mut stream = UpdateStream::new(512, 0.3, WeightMode::Uniform(1.0, 9.0), 29);
    for _ in 0..8 {
        let updates = stream.next_batch(&shadow, 16);
        shadow.apply(&updates);
        publish(&handle, updates);
    }
    assert_eq!(handle.store().current_number(), 8);
    assert!(handle.store().epoch(1).is_none(), "epoch 1 must be evicted");

    let second = client.query(tenant, query).expect("admitted");
    assert_eq!((second.epoch, second.degraded), (8, false));
    let want = golden(query, &shadow.freeze());
    if let Err(e) = accept(&pagerank, &[second.value], &[want]) {
        panic!("{e}");
    }
    let after = handle.shutdown();
    assert_eq!((after.cold_runs, after.warm_starts), (1, 1));
}

/// A batch with an endpoint past the last vertex or a weight the path
/// classes cannot take is refused before it reaches the writer — which
/// would panic applying it — so the next good batch still publishes.
#[test]
fn a_refused_update_batch_leaves_the_writer_publishing() {
    let v = VertexId::new;
    let mut b = GraphBuilder::new(64);
    b.weighted(true);
    for i in 0..63 {
        b.add_edge(v(i), v(i + 1), 1.0);
    }
    let handle = Server::start(b.build(), ServeConfig::default());
    let updater = handle.updater();
    let good = EdgeUpdate::Insert {
        src: v(0),
        dst: v(63),
        weight: 2.0,
    };
    let insert = |src, weight| EdgeUpdate::Insert {
        src: v(src),
        dst: v(1),
        weight,
    };
    for (bad, why) in [
        (insert(64, 1.0), "out of range"),
        (insert(0, f32::NAN), "bad weight"),
        (insert(0, -1.0), "bad weight"),
        (insert(0, f32::INFINITY), "bad weight"),
        (
            EdgeUpdate::Delete {
                src: v(2),
                dst: v(64),
            },
            "out of range",
        ),
    ] {
        match updater.try_submit(vec![good, bad]) {
            Err(Rejection::BadQuery(msg)) => {
                assert!(msg.contains("update 1") && msg.contains(why), "{msg}");
            }
            other => panic!("{bad:?} was not refused: {other:?}"),
        }
        assert!(!updater.submit(vec![good, bad]), "{bad:?}");
        assert_eq!(updater.lag(), 0, "a refused batch counts toward the lag");
    }
    assert!(updater.submit(vec![good]));
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.store().current_number() < 1 {
        assert!(Instant::now() < deadline, "the writer stopped publishing");
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.shutdown();
}
