//! Concurrency contract tests: byte-stable reader results under racing
//! writers, with the interleavings pinned down deterministically.
//!
//! Four interleavings the multi-executor service must survive:
//!
//! 1. **Publish while pinned** — a reader holds an epoch pin while the
//!    writer publishes (and the overlay mutates) underneath it. The
//!    pinned snapshot must be frozen: recomputing on it before and after
//!    the racing publishes yields identical bits.
//! 2. **Compact while querying** — aggressive compaction swaps the
//!    overlay's base CSR behind every publish while queries are in
//!    flight. Every response must still recompute bit-exactly on the
//!    epoch it names, and a pre-compaction pin must stay byte-stable.
//! 3. **Drain during publish** — multiple client threads flood the
//!    executor pool while the writer races batch publishes. Every
//!    response, whatever epoch it landed on, must be exact for the epoch
//!    it names.
//! 4. **Apply before the submitter resumes** — the writer applies a batch
//!    while the thread that submitted it is still inside `submit`. The
//!    pending-batch count must already include that batch, or the
//!    writer's decrement wraps it below zero and every sweep until the
//!    submitter resumes runs degraded.
//!
//! The interleavings are sequenced explicitly (submit → wait for
//! `lag == 0` → assert) where the contract is about a *specific* order,
//! and left racing (barrier-started threads) where the contract must hold
//! for *every* order. All servers run with multiple executors so the
//! concurrency machinery itself is under test.

use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use gp_algorithms::{AppInputs, DeltaAlgorithm, PageRankDelta};
use gp_graph::generators::{rmat, RmatConfig, WeightMode};
use gp_graph::{GraphSnapshot, OverlayGraph, VertexId};
use gp_serve::{Query, QueryResponse, ServeConfig, Server};
use gp_stream::UpdateStream;

const VERTICES: usize = 512;

fn base_graph(seed: u64) -> gp_graph::CsrGraph {
    rmat(
        &RmatConfig::graph500(VERTICES, 8 * VERTICES).with_weights(WeightMode::Uniform(1.0, 9.0)),
        seed,
    )
}

/// Golden recompute of `query` on `graph`: the value of the vertex it
/// reads in the converged column of its class's application.
fn golden(query: Query, graph: &GraphSnapshot) -> f64 {
    let (class, source, read) = query.parts();
    let inputs = AppInputs {
        root: VertexId::new(source),
        threshold: ServeConfig::default().pagerank_threshold,
        adsorption: None,
    };
    class.app().golden_values(&inputs, graph)[read as usize]
}

/// [`golden`] as f64 bits, for the classes that must match exactly.
fn golden_bits(query: Query, graph: &GraphSnapshot) -> u64 {
    golden(query, graph).to_bits()
}

/// Cross-checks one served response against a golden run on the epoch it
/// names (bit-exact for monotone classes, tolerance for PageRank).
fn assert_golden(handle: &gp_serve::ServeHandle, query: Query, response: &QueryResponse) {
    let epoch = handle
        .store()
        .epoch(response.epoch)
        .expect("served epoch retained");
    if let Query::PageRank { v } = query {
        let pr = PageRankDelta::new(0.85, 1e-9);
        let diff = (golden(query, &epoch.graph) - response.value).abs();
        assert!(
            diff <= pr.comparison_tolerance(),
            "pagerank({v:?}) off by {diff:e} at epoch {}",
            response.epoch
        );
    } else {
        assert_eq!(
            golden_bits(query, &epoch.graph),
            response.value.to_bits(),
            "{query:?} not exact on its named epoch {}",
            response.epoch
        );
    }
}

fn mixed_query(i: u32) -> Query {
    let src = VertexId::new((i % 7) * 13 % VERTICES as u32);
    let dst = VertexId::new((i * 37 + 11) % VERTICES as u32);
    match i % 5 {
        0 => Query::PageRank { v: dst },
        1 => Query::Components { v: dst },
        2 => Query::Sssp { src, dst },
        3 => Query::Bfs { src, dst },
        _ => Query::Sswp { src, dst },
    }
}

#[test]
fn publish_while_pinned_keeps_pinned_reads_byte_stable() {
    let g = base_graph(31);
    let shadow_base = g.clone();
    let handle = Server::start(
        g,
        ServeConfig {
            executors: 2,
            retain_epochs: 256,
            ..ServeConfig::default()
        },
    );
    let client = handle.client();
    let updater = handle.updater();
    let tenant = client.tenant_id("default").unwrap();

    // Step 1: serve a query and pin the epoch it was computed on.
    let query = Query::Sssp {
        src: VertexId::new(3),
        dst: VertexId::new(200),
    };
    let first = client.query(tenant, query).expect("admitted");
    let pinned = handle.store().pin();
    assert_eq!(pinned.number, first.epoch, "nothing published yet");
    let before = golden_bits(query, &pinned.graph);
    assert_eq!(before, first.value.to_bits());

    // Step 2: race ten publishes underneath the held pin, then wait until
    // the writer has applied every one (lag drains to zero) so the
    // interleaving is pinned: all ten mutations strictly between the two
    // golden runs on the pinned snapshot.
    let mut shadow = OverlayGraph::new(shadow_base);
    let mut stream = UpdateStream::new(VERTICES, 0.3, WeightMode::Uniform(1.0, 9.0), 71);
    for _ in 0..10 {
        let updates = stream.next_batch(&shadow, 24);
        shadow.apply(&updates);
        assert!(updater.submit(updates));
    }
    while updater.lag() > 0 {
        std::thread::yield_now();
    }
    assert!(client.current_epoch() > pinned.number, "epochs advanced");

    // Step 3: the pinned snapshot is frozen — identical bits after the
    // racing publishes — and live queries moved on to a newer epoch that
    // is itself golden-exact.
    let after = golden_bits(query, &pinned.graph);
    assert_eq!(before, after, "pinned epoch mutated under publishes");
    let fresh = client.query(tenant, query).expect("admitted");
    assert!(fresh.epoch > first.epoch);
    assert_golden(&handle, query, &fresh);
    // The original response still replays bit-exactly on its named epoch.
    assert_golden(&handle, query, &first);

    handle.shutdown();
}

#[test]
fn compaction_never_disturbs_pinned_queries() {
    let g = base_graph(47);
    let shadow_base = g.clone();
    let handle = Server::start(
        g,
        ServeConfig {
            executors: 2,
            retain_epochs: 256,
            // Compact after every publish: the base CSR Arc is swapped
            // constantly while queries are in flight.
            compact_fraction: 0.0,
            ..ServeConfig::default()
        },
    );
    let client = handle.client();
    let updater = handle.updater();
    let tenant = client.tenant_id("default").unwrap();

    // Phase 1: a spread of queries answered on the pre-compaction epochs.
    let mut answered: Vec<(Query, QueryResponse)> = Vec::new();
    for i in 0..40u32 {
        let q = mixed_query(i);
        answered.push((q, client.query(tenant, q).expect("admitted")));
    }
    let pinned = handle.store().pin();
    let probe = Query::Sswp {
        src: VertexId::new(5),
        dst: VertexId::new(101),
    };
    let probe_before = golden_bits(probe, &pinned.graph);

    // Phase 2: publish 12 batches, each followed by a compaction, while
    // more queries race the writer from this thread.
    let mut shadow = OverlayGraph::new(shadow_base);
    let mut stream = UpdateStream::new(VERTICES, 0.3, WeightMode::Uniform(1.0, 9.0), 53);
    for i in 0..12u32 {
        let updates = stream.next_batch(&shadow, 24);
        shadow.apply(&updates);
        assert!(updater.submit(updates));
        let q = mixed_query(100 + i);
        answered.push((q, client.query(tenant, q).expect("admitted")));
    }
    while updater.lag() > 0 {
        std::thread::yield_now();
    }

    // Phase 3: the pinned snapshot survived every base swap bit-for-bit,
    // and every answer (pre- and mid-compaction) recomputes exactly on
    // the epoch it names.
    assert_eq!(
        probe_before,
        golden_bits(probe, &pinned.graph),
        "compaction disturbed a pinned snapshot"
    );
    for (q, r) in &answered {
        assert_golden(&handle, *q, r);
    }

    let stats = handle.shutdown();
    assert_eq!(stats.served, answered.len() as u64);
    assert!(stats.epochs_published >= 1);
}

#[test]
fn drain_during_publish_is_golden_exact_across_the_pool() {
    const CLIENTS: usize = 3;
    const PER_CLIENT: u32 = 60;
    let g = base_graph(59);
    let shadow_base = g.clone();
    let handle = Server::start(
        g,
        ServeConfig {
            executors: 3,
            retain_epochs: 256,
            ..ServeConfig::default()
        },
    );
    let updater = handle.updater();

    // Barrier-started writer + clients: the drain and the publishes
    // overlap from the first query on, in whatever order the scheduler
    // picks — the invariant must hold for all of them.
    let start = Arc::new(Barrier::new(CLIENTS + 1));
    let (done_tx, done_rx) = mpsc::channel::<Vec<(Query, QueryResponse)>>();
    std::thread::scope(|scope| {
        {
            let start = Arc::clone(&start);
            scope.spawn(move || {
                let mut shadow = OverlayGraph::new(shadow_base);
                let mut stream =
                    UpdateStream::new(VERTICES, 0.3, WeightMode::Uniform(1.0, 9.0), 97);
                start.wait();
                for _ in 0..16 {
                    let updates = stream.next_batch(&shadow, 24);
                    shadow.apply(&updates);
                    assert!(updater.submit(updates));
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        for c in 0..CLIENTS {
            let client = handle.client();
            let start = Arc::clone(&start);
            let done = done_tx.clone();
            scope.spawn(move || {
                let tenant = client.tenant_id("default").unwrap();
                let mut answered = Vec::new();
                start.wait();
                for i in 0..PER_CLIENT {
                    let q = mixed_query(c as u32 * 1_000 + i);
                    answered.push((q, client.query(tenant, q).expect("admitted")));
                }
                done.send(answered).unwrap();
            });
        }
        drop(done_tx);
    });

    let mut total = 0u64;
    for answered in done_rx {
        for (q, r) in &answered {
            assert_golden(&handle, *q, r);
        }
        total += answered.len() as u64;
    }
    assert_eq!(total, (CLIENTS as u64) * u64::from(PER_CLIENT));

    let stats = handle.shutdown();
    assert_eq!(stats.served, total);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.update_batches, 16);
}

#[test]
fn update_lag_never_exceeds_the_batches_submitted() {
    const SUBMITTERS: usize = 4;
    const PER_SUBMITTER: usize = 5_000;
    let handle = Server::start(base_graph(61), ServeConfig::default());
    let watcher = handle.updater();

    // Empty batches publish nothing, so the writer's apply is as short as
    // the submitter's own bookkeeping and the two race on every batch.
    let started = AtomicUsize::new(0);
    let running = AtomicUsize::new(SUBMITTERS);
    let failed = AtomicBool::new(false);
    let start = Barrier::new(SUBMITTERS + 1);
    std::thread::scope(|scope| {
        for _ in 0..SUBMITTERS {
            let updater = handle.updater();
            let (started, running, failed, start) = (&started, &running, &failed, &start);
            scope.spawn(move || {
                start.wait();
                for _ in 0..PER_SUBMITTER {
                    started.fetch_add(1, Ordering::SeqCst);
                    if !updater.submit(Vec::new()) {
                        failed.store(true, Ordering::SeqCst);
                    }
                }
                running.fetch_sub(1, Ordering::SeqCst);
            });
        }
        start.wait();
        while running.load(Ordering::SeqCst) > 0 {
            let lag = watcher.lag();
            fence(Ordering::SeqCst);
            let submitted = started.load(Ordering::SeqCst);
            assert!(
                lag <= submitted,
                "lag {lag} with only {submitted} batch(es) submitted"
            );
        }
    });
    assert!(!failed.load(Ordering::SeqCst), "writer went away mid-run");

    let stats = handle.shutdown();
    assert_eq!(stats.update_batches, (SUBMITTERS * PER_SUBMITTER) as u64);
    assert_eq!(watcher.lag(), 0);
}
