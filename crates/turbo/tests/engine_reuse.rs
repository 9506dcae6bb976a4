//! A run on a reused `DeltaPool` (`run_turbo_with`) is bit-exact with a
//! fresh `run_turbo_seeded`: values, every counter and the rendered round
//! log, run after run — after a `StaleFault` run, across a compaction (a
//! new graph of the same size), with the seed plans drained through the
//! same pool in between, with no seeds, and on the bitmap's edge sizes. A
//! finished run or plan leaves the pool empty, which is what makes reuse
//! free; these tests are what holds it to that.

use std::panic::{catch_unwind, AssertUnwindSafe};

use gp_algorithms::engine::initial_state;
use gp_algorithms::{incremental_seeds_with, DeltaAlgorithm, DeltaPool, PageRankDelta, Sssp};
use gp_graph::generators::{rmat, RmatConfig, WeightMode};
use gp_graph::{CsrGraph, EdgeUpdate, GraphBuilder, GraphView, OverlayGraph, VertexId};
use gp_turbo::{run_turbo_seeded, run_turbo_with, StaleFault, TurboConfig, TurboRun};

fn faulted(after_rounds: u64, pick: u64) -> TurboConfig {
    TurboConfig {
        fault: Some(StaleFault { after_rounds, pick }),
    }
}

/// Runs `seeds` from `values` on the reused `pool` and on a fresh
/// `run_turbo_seeded`, asserts the two agree bit for bit, and leaves the
/// re-converged values in `values`.
fn run_both<A: DeltaAlgorithm, G: GraphView>(
    pool: &mut DeltaPool<A>,
    algo: &A,
    graph: &G,
    values: &mut [A::Value],
    seeds: &[(VertexId, A::Delta)],
    cfg: &TurboConfig,
) -> TurboRun {
    let mut fresh = values.to_vec();
    let want = run_turbo_seeded(algo, graph, &mut fresh, seeds, cfg);
    let got = run_turbo_with(pool, algo, graph, values, seeds, cfg);
    let bits = |vs: &[A::Value]| -> Vec<u64> {
        vs.iter().map(|&v| algo.value_to_f64(v).to_bits()).collect()
    };
    assert_eq!(bits(values), bits(&fresh));
    let want_bits: Vec<u64> = want.values.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits(values), want_bits);
    assert_eq!(got.render_log(), want.render_log());
    assert_eq!(
        (
            got.events.processed,
            got.events.generated,
            got.events.coalesced,
            got.rounds,
            &got.round_log
        ),
        (
            want.events_processed,
            want.events_generated,
            want.events_coalesced,
            want.rounds,
            &want.round_log
        )
    );
    assert_eq!(got.events.check(), want.check_lost_events());
    got
}

/// A ring with chords and a self loop on the last vertex.
fn ring(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    b.weighted(true).drop_self_loops(false);
    for v in 0..n {
        let at = VertexId::from_index;
        b.add_edge(at(v), at((v + 1) % n), 1.0 + (v % 3) as f32);
        b.add_edge(at(v), at((v * 7 + 3) % n), 2.5);
    }
    if let Some(last) = n.checked_sub(1) {
        let last = VertexId::from_index(last);
        b.add_edge(last, last, 1.0);
    }
    b.build()
}

#[test]
fn reuse_matches_fresh_runs_on_the_bitmap_edge_sizes() {
    for n in [0usize, 1, 64, 65] {
        let g = ring(n);
        let algo = Sssp::new(VertexId::new(0));
        let mut pool = DeltaPool::new(&algo, n);
        assert_eq!(pool.num_vertices(), n);
        // Empty seeds on a fresh pool, then a cold run, a faulted one,
        // empty seeds again, and a warm one with duplicate seeds.
        let mut values = vec![f64::INFINITY; n];
        let idle = run_both(
            &mut pool,
            &algo,
            &g,
            &mut values,
            &[],
            &TurboConfig::default(),
        );
        assert_eq!((idle.rounds, idle.events.generated), (0, 0), "n = {n}");
        let (mut values, seeds) = initial_state(&algo, &g);
        run_both(
            &mut pool,
            &algo,
            &g,
            &mut values,
            &seeds,
            &TurboConfig::default(),
        );
        let (mut again, seeds) = initial_state(&algo, &g);
        let lossy = run_both(&mut pool, &algo, &g, &mut again, &seeds, &faulted(1, 0));
        assert_eq!(lossy.events.check().is_err(), n > 0, "n = {n}");
        run_both(
            &mut pool,
            &algo,
            &g,
            &mut values,
            &[],
            &TurboConfig::default(),
        );
        let warm: Vec<(VertexId, f64)> = match n.checked_sub(1) {
            None => Vec::new(),
            Some(last) => {
                let last = VertexId::from_index(last);
                vec![(last, 0.5), (VertexId::new(0), 0.0), (last, 0.25)]
            }
        };
        run_both(
            &mut pool,
            &algo,
            &g,
            &mut values,
            &warm,
            &TurboConfig::default(),
        );
    }
}

#[test]
fn reuse_after_a_stale_fault_matches_fresh_runs() {
    let g = rmat(
        &RmatConfig::graph500(256, 2_048).with_weights(WeightMode::Uniform(1.0, 6.0)),
        13,
    );
    let algo = Sssp::new(VertexId::new(0));
    let mut pool = DeltaPool::new(&algo, 256);
    for (after_rounds, pick) in [(1, 3), (2, 0), (u64::MAX, 1)] {
        let (mut values, seeds) = initial_state(&algo, &g);
        let out = run_both(
            &mut pool,
            &algo,
            &g,
            &mut values,
            &seeds,
            &faulted(after_rounds, pick),
        );
        assert_eq!(out.events.check().is_err(), after_rounds != u64::MAX);
        let (mut values, seeds) = initial_state(&algo, &g);
        let clean = run_both(
            &mut pool,
            &algo,
            &g,
            &mut values,
            &seeds,
            &TurboConfig::default(),
        );
        clean.events.check().unwrap();
    }
}

/// One pool carries PageRank-delta and SSSP columns through update
/// batches on an overlay that compacts every other batch — each batch's
/// seed plan drained through it, then the run on it: the compacted base is
/// a new graph of the same size.
#[test]
fn reuse_across_compaction_matches_fresh_runs() {
    fn stream<A: gp_algorithms::IncrementalAlgorithm>(algo: &A, seed: u64) {
        let n = 300;
        let g = rmat(
            &RmatConfig::graph500(n, 2_400).with_weights(WeightMode::Uniform(1.0, 9.0)),
            seed,
        );
        let mut overlay = OverlayGraph::new(g);
        let mut pool = DeltaPool::new(algo, n);
        let (mut values, seeds) = initial_state(algo, &overlay);
        run_both(
            &mut pool,
            algo,
            &overlay,
            &mut values,
            &seeds,
            &TurboConfig::default(),
        );
        let mut updates = update_batches(n, seed);
        for batch in 0..6 {
            let applied = overlay.apply(&updates(&overlay));
            let plan = incremental_seeds_with(&mut pool, algo, &overlay, &mut values, &applied);
            run_both(
                &mut pool,
                algo,
                &overlay,
                &mut values,
                &plan.seeds,
                &TurboConfig::default(),
            );
            if batch % 2 == 1 {
                overlay.compact();
                assert_eq!(overlay.patched_vertices(), 0);
                run_both(
                    &mut pool,
                    algo,
                    &overlay,
                    &mut values,
                    &[],
                    &TurboConfig::default(),
                );
            }
        }
    }
    stream(&PageRankDelta::new(0.85, 1e-9), 5);
    stream(&Sssp::new(VertexId::new(0)), 6);
}

/// A deterministic batch maker: sixteen deletions of existing edges and
/// sixteen insertions per call.
fn update_batches(n: usize, seed: u64) -> impl FnMut(&OverlayGraph) -> Vec<EdgeUpdate> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as u32
    };
    move |overlay: &OverlayGraph| {
        let mut updates = Vec::new();
        for _ in 0..16 {
            let src = VertexId::new(next(n));
            let row: Vec<VertexId> = overlay.out_edges(src).map(|e| e.other).collect();
            if !row.is_empty() {
                let dst = row[next(row.len()) as usize];
                updates.push(EdgeUpdate::Delete { src, dst });
            }
            let (src, dst) = (VertexId::new(next(n)), VertexId::new(next(n)));
            updates.push(EdgeUpdate::Insert {
                src,
                dst,
                weight: 1.0 + next(8) as f32,
            });
        }
        updates
    }
}

#[test]
#[should_panic(expected = "turbo pool built for 64 vertices run on a graph of 65")]
fn a_graph_of_another_size_is_refused() {
    let algo = Sssp::new(VertexId::new(0));
    let mut pool = DeltaPool::new(&algo, 64);
    let mut values = vec![f64::INFINITY; 65];
    let cfg = TurboConfig::default();
    run_turbo_with(&mut pool, &algo, &ring(65), &mut values, &[], &cfg);
}

/// A bad seed is refused before the first deposit, so the seeds ahead of
/// it leave no bit set in the pool the next run reuses.
#[test]
fn an_out_of_range_seed_is_refused_before_any_deposit() {
    let n = 65;
    let g = ring(n);
    let algo = Sssp::new(VertexId::new(0));
    let mut pool = DeltaPool::new(&algo, n);
    let bad = [
        (VertexId::new(0), 0.0),
        (VertexId::new(64), 1.0),
        (VertexId::new(65), 0.0),
    ];
    let mut values = vec![f64::INFINITY; n];
    let refused = catch_unwind(AssertUnwindSafe(|| {
        run_turbo_with(
            &mut pool,
            &algo,
            &g,
            &mut values,
            &bad,
            &TurboConfig::default(),
        )
    }));
    let message = *refused
        .expect_err("seed 65 of 65 vertices must be refused")
        .downcast::<String>()
        .expect("a formatted panic message");
    assert!(message.contains("out of range"), "{message}");
    assert!(values.iter().all(|v| v.is_infinite()), "state was touched");
    let (mut values, seeds) = initial_state(&algo, &g);
    let idle = run_both(
        &mut pool,
        &algo,
        &g,
        &mut values,
        &[],
        &TurboConfig::default(),
    );
    assert_eq!(idle.events.generated, 0, "the refused seeds were deposited");
    run_both(
        &mut pool,
        &algo,
        &g,
        &mut values,
        &seeds,
        &TurboConfig::default(),
    );
}
