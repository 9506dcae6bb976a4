//! A long update stream keeps PageRank-delta within its comparison
//! tolerance of a from-scratch run.
//!
//! Delta correction seeds exactly what a batch changes in the residual,
//! never the sub-threshold residue each warm run parks in the values, so on
//! its own that residue adds up batch after batch. The stream below is
//! `stream-r16`'s batch mix (96 updates, half deletions) at 2^13 on the
//! turbo backend, long enough that uncorrected drift passes the tolerance
//! of 10 (it did so at batch 128 and reached 15.39 by batch 400).

use gp_algorithms::engine::run_sequential;
use gp_algorithms::{accept, max_abs_diff, PageRankDelta};
use gp_graph::generators::{rmat, RmatConfig, WeightMode};
use gp_stream::{Backend, IncrementalEngine, StreamConfig, UpdateStream};
use gp_turbo::TurboConfig;

const VERTICES: usize = 1 << 13;
const BATCHES: usize = 400;
const BATCH: usize = 96;
const CHECK_EVERY: usize = 8;
const WEIGHTS: WeightMode = WeightMode::Uniform(1.0, 16.0);

#[test]
fn a_long_pagerank_stream_stays_within_tolerance() {
    let base = rmat(
        &RmatConfig::graph500(VERTICES, 8 * VERTICES).with_weights(WEIGHTS),
        42,
    );
    let config = StreamConfig {
        backend: Backend::Turbo(TurboConfig::default()),
        compact_fraction: 0.25,
    };
    let (mut engine, _) =
        IncrementalEngine::new(PageRankDelta::new(0.85, 1e-3), base, config).expect("turbo");
    let mut stream = UpdateStream::new(VERTICES, 0.5, WEIGHTS, 42);
    let mut worst = 0.0f64;
    for batch in 1..=BATCHES {
        let updates = stream.next_batch(engine.graph(), BATCH);
        engine.apply_batch(&updates).expect("turbo");
        if batch % CHECK_EVERY != 0 && batch != BATCHES {
            continue;
        }
        let scratch = run_sequential(engine.algo(), &engine.graph().to_csr());
        let values = engine.values();
        worst = worst.max(max_abs_diff(&values, &scratch.values));
        if let Err(e) = accept(engine.algo(), &values, &scratch.values) {
            panic!("batch {batch}: {e} (worst distance so far {worst:.2})");
        }
    }
    println!("worst distance to a from-scratch run over {BATCHES} batches: {worst:.2}");
}
